"""Property tests of the frame reader.

``read_frames`` reads alike with and without orjson.  Frame files are
generated as JSON text, number by number, so that they hold the
literals where the two decoders part: integers of 19-60 and ~309 digits
(orjson returns those beyond 64 bits as floats), ``NaN``, ``Infinity``
and ``1e400`` (orjson rejects them), lone surrogates, duplicate keys,
``-0``/``-0.0``, subnormals and 17-25-digit mantissas.
Each file must give the same records, floats compared by ``repr``, or
the same error, whichever decoder reads it.

Every JSON lane3d writes goes through ``scenario_io._encoder``, which
lets orjson write where its bytes are json's.  Generated payloads hold
the values where the two encoders part: floats at the ends of json's
positional range (1e-4, 1e16) and their neighbours, subnormals, NaN and
infinities, integers at the 64-bit bounds, NumPy floats, escapes, DEL,
non-ASCII text and keys that are not strings.  The encoder must write
``json``'s bytes, compact and indented, or raise what ``json`` raises.

The reader converts and checks a side of a frame as whole arrays and
walks it lane by lane only to name an error.  Generated sides, valid
and spoiled, must read as the walk reads them: the same arrays bit for
bit, scores and curves, or the same ``ParseError``.
"""

import copy
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d import scenario_io
from lane3d.errors import ParseError
from lane3d.scenario_io import read_frames

orjson = pytest.importorskip("orjson")


def fixed(max_examples):
    """The same examples on every run, none of them saved."""
    return settings(derandomize=True, max_examples=max_examples, deadline=None,
                    database=None)


class Lit(str):
    """A JSON literal, written as it is."""


class Obj(list):
    """A JSON object as a list of (key, value) pairs."""


def render(value) -> str:
    """JSON text of ``value``; an ``Obj`` may repeat a key."""
    if isinstance(value, Lit):
        return str(value)
    if isinstance(value, Obj):
        return "{" + ",".join(f"{json.dumps(k)}:{render(v)}"
                              for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(render(v) for v in value) + "]"
    return json.dumps(value)


def digits(n_min, n_max):
    """Integer literals of ``n_min`` to ``n_max`` digits."""
    return st.integers(n_min, n_max).flatmap(lambda n: st.builds(
        str.__add__, st.sampled_from("123456789"),
        st.text("0123456789", min_size=n - 1, max_size=n - 1)))


wide_ints = st.builds(lambda sign, v: Lit(f"{sign}{v}"),
                      st.sampled_from(["", "-"]),
                      st.one_of(digits(19, 60), digits(306, 312)))
long_mantissas = st.builds(
    lambda sign, m, e: Lit(f"{sign}{m[0]}.{m[1:]}e{e}"),
    st.sampled_from(["", "-"]),
    st.integers(17, 25).flatmap(lambda n: st.text("0123456789", min_size=n,
                                                  max_size=n)),
    st.integers(-340, 320))
subnormals = st.floats(min_value=-2.2250738585072014e-308,
                       max_value=2.2250738585072014e-308).map(lambda v: Lit(repr(v)))
specials = st.sampled_from([Lit(t) for t in (
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0",
    "0", "5e-324", "-5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
    "18446744073709551615", "18446744073709551616", "-9223372036854775808",
    "-9223372036854775809")])
# every number literal where the decoders may differ
literals = st.one_of(wide_ints, long_mantissas, subnormals, specials,
                     st.floats().map(lambda v: Lit(json.dumps(v))))


def number(draw, good, rate: int):
    """``good``, or any literal about ``rate`` times in 20."""
    return draw(literals) if draw(st.integers(0, 19)) < rate else draw(good)


def positive(hi):
    return st.floats(1e-3, hi)


def string_literal(text: str, raw: bool) -> Lit:
    """``text`` as a JSON string, escaped or (where UTF-8 holds it) raw."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: only an escape holds it
        raw = False
    return Lit(json.dumps(text, ensure_ascii=not raw))


frame_ids = st.builds(
    string_literal,
    st.one_of(st.sampled_from(["f0", "f1", "é", "\ud800", "a\udc00b", "😀"]),
              st.text(max_size=6)),
    st.booleans())


def lane(draw, rate):
    def num(good):
        return number(draw, good, rate)

    n = draw(st.integers(2, 5))
    y = np.cumsum([draw(positive(20.0)) for _ in range(n)]).tolist()
    lane = Obj([
        ("points", [[num(st.floats(-50, 50)), num(st.just(v)), num(st.floats(-2, 2))]
                    for v in y]),
        ("visibility", [num(st.sampled_from([0, 1, 0.0, 1.0, 0.25]))
                        for _ in range(n)]),
    ])
    if draw(st.booleans()):
        lane.append(("score", num(st.floats(0, 1))))
    if draw(st.booleans()):
        lane.append(("uncertainty", [[num(positive(1.0)), num(positive(1.0))]
                                     for _ in range(n - 1)]))
    if draw(st.booleans()):
        lane.append(("curve", Obj([
            ("rho", [num(st.floats(-1e4, 1e4)) for _ in range(4)]),
            ("beta_prime", num(st.floats(-1, 1))),
            ("beta_dprime", num(st.floats(0, 700))),
            ("v_low", num(st.floats(0, 300))),
            ("v_up", num(st.floats(400, 719))),
            ("form", draw(st.one_of(st.just("rational"), wide_ints))),
        ])))
    if draw(st.integers(0, 3)) == 0:  # a repeated key: the last one counts
        key, _ = draw(st.sampled_from(lane))
        lane.insert(0, (key, draw(literals)))
    return lane


@st.composite
def frame_lines(draw):
    """One line: a frame whose numbers are each a literal at one rate."""
    rate = draw(st.sampled_from([0, 1, 4, 10]))

    def num(good):
        return number(draw, good, rate)

    def lanes():
        return [lane(draw, rate) for _ in range(draw(st.integers(0, 3)))]

    camera = Obj([
        ("fx", num(positive(2000))), ("fy", num(positive(2000))),
        ("cx", num(st.floats(0, 960))), ("cy", num(st.floats(0, 720))),
        ("height", num(positive(3))), ("pitch", num(st.floats(0, 0.3))),
        # the fields read as ints, where a wide literal may come back a float
        ("image_h", num(st.one_of(st.integers(1, 4000), wide_ints))),
        ("image_w", num(st.one_of(*[st.integers(1, 4000)] * 3, wide_ints))),
    ])
    version = num(st.one_of(st.just(1), st.just(1), wide_ints))
    frame = Obj([("version", version), ("frame_id", draw(frame_ids)),
                 ("camera", camera), ("lanes", lanes())])
    if draw(st.booleans()):
        frame.append(("pred_lanes", lanes()))
    if draw(st.integers(0, 3)) == 0:  # a repeated version: the last one counts
        frame.insert(0, ("version", draw(literals)))
    return render(frame)


def canonical(record):
    """A record as nested tuples and strings, every float by ``repr``."""
    def array(a):
        return None if a is None else (a.dtype.str, a.shape, repr(a.tolist()))

    def side(lanes, curves, uncs):
        if lanes is None:
            return None
        return (
            [(array(l.points), array(l.visibility), repr(l.score)) for l in lanes],
            None if curves is None else [repr(c) for c in curves],
            None if uncs is None else [array(u) for u in uncs],
        )

    return (record.frame_id, repr(record.camera),
            side(record.gt_lanes, record.gt_curves, record.gt_uncertainties),
            side(record.pred_lanes, record.pred_curves, record.pred_uncertainties))


def outcome(path):
    read = []
    try:
        for record in read_frames(path):
            read.append(canonical(record))
    except Exception as exc:  # whatever json's reading raises
        read.append((type(exc).__name__, str(exc)))
    return read


@fixed(150)
@given(lines=st.lists(frame_lines(), min_size=1, max_size=3))
def test_both_decoders_read_the_same_records(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "properties.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    fast = outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "orjson", None)
        assert outcome(path) == fast


@fixed(1000)
@given(literal=literals)
def test_number_literals_decode_to_the_same_double(literal):
    try:
        fast = orjson.loads(literal)
    except orjson.JSONDecodeError:
        return  # read by json alone
    slow = json.loads(literal)
    assert type(fast) in (type(slow), float)
    assert repr(float(fast)) == repr(float(slow))
    assert "%.17g" % fast == "%.17g" % slow


# ---------------------------------------------------------------------------
# a side's array pass against the per-lane walk
# ---------------------------------------------------------------------------

coordinates = st.one_of(st.floats(-50, 50), st.integers(-50, 50))
unit_values = st.sampled_from([0, 1, 0.0, 1.0, 0.25, 0.5, 1e-300])
CURVE = {"rho": [0.0, 0.0, 0.0, 0.0], "beta_prime": 0.0, "beta_dprime": 300.0,
         "v_low": 0.0, "v_up": 720.0}


@st.composite
def lane_objects(draw):
    """A valid lane object as ``json`` decodes one."""
    n = draw(st.integers(1, 6))
    y = np.cumsum([draw(st.floats(1e-3, 20.0)) for _ in range(n)]).tolist()
    obj = {"points": [[draw(coordinates), v, draw(coordinates)] for v in y],
           "visibility": [draw(unit_values) for _ in range(n)]}
    if draw(st.booleans()):
        obj["score"] = draw(st.one_of(st.none(), unit_values))
    if n > 1 and draw(st.booleans()):
        obj["uncertainty"] = [[draw(st.floats(0, 1)), draw(st.integers(0, 2))]
                              for _ in range(n - 1)]
    if draw(st.integers(0, 3)) == 0:
        obj["curve"] = dict(CURVE, beta_prime=draw(st.floats(-1, 1)))
    return obj


def rows_in(obj, key):
    """The lists of numbers under ``key`` of a lane object, as far as
    earlier spoils left them lists: the visibility list itself, or the
    point or uncertainty rows."""
    value = obj.get(key)
    if not isinstance(value, list):
        return []
    return [value] if key == "visibility" else [
        row for row in value if isinstance(row, list)]


MUTATIONS = ("ragged", "width", "string", "boolean", "non-finite", "empty",
             "nested", "missing", "visibility", "score", "uncertainty", "type",
             "curve", "order")


def mutate(draw, obj, kind):
    """Spoil (or, for some values, keep valid) one part of a lane object;
    a part an earlier spoil took away is left alone."""
    key = draw(st.sampled_from(["points", "visibility", "uncertainty"]))
    numbers = [(row, i) for row in rows_in(obj, key) for i in range(len(row))]
    rows = rows_in(obj, "uncertainty" if key == "uncertainty" else "points")
    if kind == "ragged" and rows:  # one row one entry longer or shorter
        row = draw(st.sampled_from(rows))
        row.append(0.5) if draw(st.booleans()) or not row else row.pop()
    elif kind == "width" and rows_in(obj, key):  # every row, or every entry
        wider = draw(st.booleans())
        for row in rows_in(obj, key):
            if key == "visibility":
                row[:] = [[v] for v in row]
            else:
                row.append(0.5) if wider or not row else row.pop()
    elif kind in ("string", "boolean", "non-finite", "nested") and numbers:
        row, i = draw(st.sampled_from(numbers))
        row[i] = draw({
            "string": st.sampled_from(["1.5", "abc", "", " 2 ", "nan", "1e400"]),
            "boolean": st.booleans(),
            "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
            "nested": st.just([row[i]]),
        }[kind])
    elif kind == "empty":
        obj[key] = []
    elif kind == "missing":
        obj.pop(key, None)
    elif kind == "visibility" and rows_in(obj, "visibility") and obj["visibility"]:
        vis = obj["visibility"]
        vis[draw(st.integers(0, len(vis) - 1))] = draw(
            st.sampled_from([1.5, -0.1, 1 + 1e-15, -1e-300]))
    elif kind == "score":
        obj["score"] = draw(st.sampled_from([1.5, -0.5, "0.5", True, [0.5], {}]))
    elif kind == "uncertainty":
        unc = obj.get("uncertainty")
        if not isinstance(unc, list) or not unc or draw(st.booleans()):
            obj["uncertainty"] = (unc if isinstance(unc, list) else []) + [[0.1, 0.1]]
        else:
            unc.pop()
    elif kind == "type":
        obj[key] = draw(st.sampled_from([{}, "abc", 1.0, None, {"a": [1, 2, 3]}]))
    elif kind == "curve":
        obj["curve"] = dict(CURVE, v_up=math.inf)
    elif kind == "order":  # y repeated or falling
        ys = [row for row in rows_in(obj, "points") if len(row) > 1]
        if len(ys) > 1:
            k = draw(st.integers(1, len(ys) - 1))
            ys[k][1] = draw(st.sampled_from([ys[k - 1][1], ys[k - 1][1] - 1]))


@st.composite
def mutated_sides(draw):
    side = draw(st.lists(lane_objects(), min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 2))):
        mutate(draw, draw(st.sampled_from(side)), draw(st.sampled_from(MUTATIONS)))
    if draw(st.integers(0, 9)) == 9:  # a lane that is no object
        side.insert(draw(st.integers(0, len(side))), draw(st.sampled_from(
            [[], None, "lane", 1])))
    return side


def side_outcome(read, side):
    """A side's lanes, curves and uncertainties, arrays by dtype, shape and
    bytes; or the ``ParseError`` reading it raises."""
    def array(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    try:
        lanes, curves, uncs = read(copy.deepcopy(side), 7, "pred_lanes")
    except ParseError as exc:
        return str(exc), exc.line, exc.field
    return ([(array(lane.points), array(lane.visibility), repr(lane.score))
             for lane in lanes],
            None if curves is None else [repr(c) for c in curves],
            None if uncs is None else [array(u) for u in uncs])


@fixed(300)
@given(side=st.lists(lane_objects(), max_size=4))
def test_a_valid_side_reads_as_the_walk_reads_it(side):
    fast = side_outcome(scenario_io._parse_lanes, side)
    assert isinstance(fast[0], list)
    assert fast == side_outcome(scenario_io._walk_lanes, side)


@fixed(1000)
@given(side=mutated_sides())
def test_a_spoiled_side_reads_or_fails_as_the_walk_does(side):
    assert side_outcome(scenario_io._parse_lanes, side) == side_outcome(
        scenario_io._walk_lanes, side)


# ---------------------------------------------------------------------------
# the writer's encoder against json
# ---------------------------------------------------------------------------

edge_floats = st.sampled_from([
    x for v in (1e-4, 1e16) for x in (
        math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))] + [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 20.00001, 1.0000000494736472e-07])
any_double = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
floats = st.one_of(edge_floats, any_double, subnormals.map(float), st.floats(),
                   st.floats(-1e16, 1e16), st.floats(-1e-3, 1e-3))
ints = st.one_of(st.integers(), st.sampled_from(
    [2**63, -2**63, 2**63 - 1, -2**63 - 1, 2**64, 2**64 - 1, -2**64]))
texts = st.one_of(
    st.text(), st.text("ab\"\\\x00\x1f\x7f\u2028é😀 e-1null0.0000"),
    st.binary(min_size=32, max_size=32).map(bytes.hex),
    st.sampled_from(['"', "\x7f", "\ud800", "a\udc00b"]))
scalars = st.one_of(floats, ints, texts, st.booleans(), st.none(),
                    st.floats().map(np.float64))
keys = st.one_of(texts, texts, texts, ints, floats, st.booleans(), st.none())
containers = [lambda inner: st.lists(inner, max_size=3),
              lambda inner: st.lists(inner, max_size=3).map(tuple),
              lambda inner: st.dictionaries(keys, inner, max_size=3)]
# flat payloads as often as nested ones: one value that only json may
# write sends a whole payload to json
payloads = st.one_of(scalars, *(c(scalars) for c in containers), st.recursive(
    scalars, lambda inner: st.one_of(*(c(inner) for c in containers)),
    max_leaves=12))


def encoding(encode, obj):
    """``encode(obj)``, or the type and message of what it raises."""
    try:
        return encode(obj)
    except Exception as exc:
        return type(exc), str(exc)


@fixed(1500)
@given(obj=payloads)
def test_the_encoder_writes_what_json_writes(obj):
    for indent, spacing in ((False, {"separators": (",", ":")}),
                            (True, {"indent": 2})):
        assert encoding(scenario_io._encoder(indent), obj) == encoding(
            lambda o: json.dumps(o, sort_keys=True, **spacing), obj)


def test_the_encoder_writes_with_orjson_where_the_bytes_agree():
    frame = {"points": [[0.5, 3.0, -1.25e-3]], "f": 123456789.5, "ok": True}
    for indent, option in ((False, 0), (True, orjson.OPT_INDENT_2)):
        encode = scenario_io._encoder(indent)
        assert encode(frame) == orjson.dumps(
            frame, option=orjson.OPT_SORT_KEYS | option).decode()
        assert encode(frame) == json.dumps(
            frame, sort_keys=True, **({"indent": 2} if indent else
                                      {"separators": (",", ":")}))
