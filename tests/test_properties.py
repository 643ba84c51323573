"""Property tests: ``read_frames`` reads alike with and without orjson.

Frame files are generated as JSON text, number by number, so that they
hold the literals where the two decoders part: integers of 19-60 and
~309 digits (orjson returns those beyond 64 bits as floats), ``NaN``,
``Infinity`` and ``1e400`` (orjson rejects them), lone surrogates,
duplicate keys, ``-0``/``-0.0``, subnormals and 17-25-digit mantissas.
Each file must give the same records, floats compared by ``repr``, or
the same error, whichever decoder reads it.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
