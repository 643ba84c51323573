"""Frame-file round trips, report determinism, and generator statistics."""

import json
import math
import sys
import warnings

import numpy as np
import oracles
import pytest

from lane3d import scenario_io
from lane3d.chamfer import once_report
from lane3d.errors import (
    ConfigError,
    IoError,
    MissingFrame,
    ParseError,
    SchemaVersionMismatch,
)
from lane3d.geometry import CameraModel, Curve2D, Lane3D
from lane3d.report import MetricReport
from lane3d.scenario_io import (
    FrameRecord,
    NoiseModel,
    align,
    apply_noise,
    generate_frames,
    generate_scenario,
    read_frames,
    write_frames,
    write_report,
)


def random_camera(rng):
    return CameraModel(
        fx=float(rng.uniform(500, 2000)),
        fy=float(rng.uniform(500, 2000)),
        cx=float(rng.uniform(300, 700)),
        cy=float(rng.uniform(200, 500)),
        height=float(rng.uniform(1.2, 2.0)),
        pitch=float(rng.uniform(0.0, 0.2)),
        image_size=(720, 960),
    )


def random_lane(rng, with_score=False):
    n = int(rng.integers(2, 12))
    y = np.cumsum(rng.uniform(0.5, 8.0, n)) + rng.uniform(1.0, 5.0)
    pts = np.stack([rng.normal(0, 5, n), y, rng.normal(0, 0.5, n)], axis=1)
    vis = (rng.uniform(0, 1, n) > 0.2).astype(float)
    score = float(rng.uniform(0, 1)) if with_score else None
    return Lane3D(points=pts, visibility=vis, score=score)


def random_record(rng, k):
    gt = [random_lane(rng) for _ in range(rng.integers(1, 4))]
    record = FrameRecord(
        frame_id=f"frame_{k}", camera=random_camera(rng), gt_lanes=gt
    )
    if rng.uniform() < 0.5:
        preds = [random_lane(rng, with_score=True)
                 for _ in range(rng.integers(0, 4))]
        record.pred_lanes = preds
        if preds and rng.uniform() < 0.5:
            record.pred_uncertainties = [
                np.abs(rng.normal(0.2, 0.05, (len(p.points) - 1, 2))) + 0.01
                if len(p.points) > 1 and rng.uniform() < 0.8 else None
                for p in preds
            ]
            if all(u is None for u in record.pred_uncertainties):
                record.pred_uncertainties = None
    if rng.uniform() < 0.3:
        record.gt_curves = [
            Curve2D(rho=(100.0, 50.0, 10.0, 0.0), beta_prime=float(rng.normal()),
                    beta_dprime=float(rng.normal()), v_low=60.0, v_up=700.0,
                    confidence=float(rng.uniform(0, 1)))
            for _ in gt
        ]
    return record


def lanes_equal(a, b):
    return (
        np.array_equal(a.points, b.points)
        and np.array_equal(a.visibility, b.visibility)
        and a.score == b.score
    )


def records_equal(a, b):
    if (a.frame_id, a.camera) != (b.frame_id, b.camera):
        return False
    for lhs, rhs in (
        (a.gt_lanes, b.gt_lanes),
        (a.pred_lanes, b.pred_lanes),
    ):
        if (lhs is None) != (rhs is None):
            return False
        if lhs is not None:
            if len(lhs) != len(rhs):
                return False
            if not all(lanes_equal(x, y) for x, y in zip(lhs, rhs)):
                return False
    for lhs, rhs in ((a.gt_curves, b.gt_curves), (a.pred_curves, b.pred_curves)):
        if lhs != rhs:
            return False
    for lhs, rhs in (
        (a.gt_uncertainties, b.gt_uncertainties),
        (a.pred_uncertainties, b.pred_uncertainties),
    ):
        if (lhs is None) != (rhs is None):
            return False
        if lhs is not None:
            if len(lhs) != len(rhs):
                return False
            for u, v in zip(lhs, rhs):
                if (u is None) != (v is None):
                    return False
                if u is not None and not np.array_equal(
                    np.asarray(u, dtype=float), v
                ):
                    return False
    return True


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_round_trip_many_random_records(tmp_path):
    rng = np.random.default_rng(2026)
    records = [random_record(rng, k) for k in range(1000)]
    path = tmp_path / "frames.jsonl"
    write_frames(path, records)
    back = list(read_frames(path))
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert records_equal(a, b)


def test_round_trip_preserves_awkward_floats(tmp_path):
    pts = np.array([[1e-17, 0.1, -0.0], [1234567.89012345678, 97.7, 1e300]])
    lane = Lane3D(points=pts, visibility=np.array([1.0, 0.3]), score=0.25)
    record = FrameRecord(
        frame_id="f", camera=random_camera(np.random.default_rng(0)),
        gt_lanes=[lane],
    )
    path = tmp_path / "f.jsonl"
    write_frames(path, [record])
    back = list(read_frames(path))[0]
    assert np.array_equal(back.gt_lanes[0].points, pts)
    assert back.gt_lanes[0].score == 0.25


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    records = [random_record(rng, k) for k in range(20)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_frames(a, records)
    write_frames(b, records)
    assert a.read_bytes() == b.read_bytes()


def test_streaming_reader_is_lazy(tmp_path):
    path = tmp_path / "f.jsonl"
    rng = np.random.default_rng(1)
    write_frames(path, [random_record(rng, 0)])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("this is not json\n")
    stream = read_frames(path)
    first = next(stream)  # valid first record parses fine
    assert first.frame_id == "frame_0"
    with pytest.raises(ParseError):
        next(stream)


# ---------------------------------------------------------------------------
# parse failures
# ---------------------------------------------------------------------------


def write_lines(tmp_path, *lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def valid_line(frame_id="f0"):
    return json.dumps({
        "version": 1,
        "frame_id": frame_id,
        "camera": {"fx": 1000.0, "fy": 1000.0, "cx": 480.0, "cy": 360.0,
                   "height": 1.5, "pitch": 0.0, "image_h": 720, "image_w": 960},
        "lanes": [{"points": [[0.0, 3.0, 0.0], [0.0, 10.0, 0.0]],
                   "visibility": [1.0, 1.0]}],
    })


def test_truncated_line_names_line_number(tmp_path):
    path = write_lines(tmp_path, valid_line("a"), valid_line("b")[:-25])
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_unknown_version_raises_mismatch(tmp_path):
    obj = json.loads(valid_line())
    obj["version"] = 99
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(SchemaVersionMismatch):
        list(read_frames(path))


def test_missing_fields_name_their_path(tmp_path):
    for field in ("version", "frame_id", "camera", "lanes"):
        obj = json.loads(valid_line())
        del obj[field]
        path = write_lines(tmp_path, json.dumps(obj))
        with pytest.raises(ParseError) as err:
            list(read_frames(path))
        assert not isinstance(err.value, SchemaVersionMismatch)
        assert err.value.field == field

    obj = json.loads(valid_line())
    del obj["camera"]["fx"]
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert err.value.field == "camera.fx"

    obj = json.loads(valid_line())
    del obj["lanes"][0]["visibility"]
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert err.value.field == "lanes[0].visibility"


def test_invalid_lane_geometry_is_a_parse_error(tmp_path):
    obj = json.loads(valid_line())
    obj["lanes"][0]["points"] = [[0.0, 10.0, 0.0], [0.0, 3.0, 0.0]]  # y down
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert err.value.field == "lanes[0]"


@pytest.mark.parametrize("uncertainty", [
    [[0.1, math.nan]],
    [[math.inf, 0.1]],
    [[0.1, 0.1], [0.1, 0.1]],  # one row more than the lane's one segment
    [],
    [0.1, 0.1],
])
def test_malformed_uncertainty_is_a_parse_error(tmp_path, uncertainty):
    obj = json.loads(valid_line())
    obj["lanes"][0]["uncertainty"] = uncertainty
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert err.value.field == "lanes[0].uncertainty"


@pytest.mark.parametrize("key, bad", [
    ("rho", [0.0, 0.0, math.inf, 0.0]),
    ("beta_prime", math.nan),
    ("beta_dprime", -math.inf),
    ("v_up", math.inf),
])
def test_non_finite_curve_is_a_parse_error(tmp_path, key, bad):
    obj = json.loads(valid_line())
    obj["lanes"][0]["curve"] = {"rho": [0.0, 0.0, 0.0, 0.0], "beta_prime": 0.0,
                                "beta_dprime": 300.0, "v_low": 0.0, "v_up": 720.0,
                                key: bad}
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(ParseError, match="must be finite") as err:
        list(read_frames(path))
    assert err.value.field == "lanes[0].curve"


HUGE = 10**400 - 1  # a 400-digit integer literal: no double holds it
CURVE = {"rho": [0.0, 0.0, 0.0, 0.0], "beta_prime": 0.0,
         "beta_dprime": 300.0, "v_low": 0.0, "v_up": 720.0}


@pytest.mark.parametrize("path, value, field", [
    (("lanes", 0, "points", 0), [HUGE, 3.0, 0.0], "lanes[0]"),
    (("lanes", 0, "score"), HUGE, "lanes[0]"),
    (("lanes", 0, "uncertainty"), [[0.1, HUGE]], "lanes[0].uncertainty"),
    (("camera", "height"), HUGE, "camera"),
    (("lanes", 0, "curve"), {**CURVE, "v_low": HUGE}, "lanes[0].curve"),
    (("lanes", 0, "curve"), {**CURVE, "rho": [0.0, HUGE, 0.0, 0.0]},
     "lanes[0].curve"),
], ids=["point", "score", "uncertainty", "camera", "curve", "rho"])
def test_huge_integer_is_a_parse_error(tmp_path, path, value, field):
    obj = json.loads(valid_line("b"))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    path = write_lines(tmp_path, valid_line("a"), json.dumps(obj))
    with pytest.raises(ParseError, match="int too large to convert to float") as err:
        list(read_frames(path))
    assert (err.value.line, err.value.field) == (2, field)


@pytest.mark.parametrize("edit, message, field", [
    (lambda o: {**o, "camera": 5}, "camera must be an object", "camera"),
    (lambda o: {**o, "camera": {**o["camera"], "roll": 0.0}},
     "unknown camera keys ['roll']", "camera"),
    (lambda o: {**o, "lanes": [{**o["lanes"][0], "curve": 5}]},
     "curve must be an object", "lanes[0].curve"),
    (lambda o: {**o, "lanes": [{**o["lanes"][0], "curve": {
        k: v for k, v in CURVE.items() if k != "rho"}}]},
     "missing required field", "lanes[0].curve.rho"),
    (lambda o: {**o, "lanes": 5}, "lanes must be an array", "lanes"),
    (lambda o: [o], "record must be an object", None),
    (lambda o: {**o, "frame_id": 7}, "frame_id must be a string", "frame_id"),
], ids=["camera", "camera-key", "curve", "rho", "lanes", "array", "frame-id"])
def test_malformed_record_names_its_field(tmp_path, edit, message, field):
    obj = edit(json.loads(valid_line("b")))
    path = write_lines(tmp_path, valid_line("a"), json.dumps(obj))
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert (err.value.line, err.value.field) == (2, field)
    assert str(err.value).startswith(message)


def three_point_lane(x):
    return {"points": [[x, 3.0, 0.0], [x, 10.0, 0.0], [x, 20.0, 0.0]],
            "visibility": [1.0, 1.0, 1.0]}


def spoil(lane, kind):
    """Spoil one lane of ``three_point_lane``; returns the field suffix and
    the message of the ``ParseError`` the spoil alone gives."""
    if kind == "visibility":
        lane["visibility"][1] = 1.5
        return "", "visibility entries must lie in [0, 1]"
    if kind == "nan":
        lane["points"][1][0] = math.nan
        return "", "points must be finite (no NaN or Inf)"
    if kind == "uncertainty":  # one row per point, not per segment
        lane["uncertainty"] = [[0.1, 0.1]] * 3
        return ".uncertainty", ("uncertainty must be an array of finite "
                                "[lateral, vertical] pairs, one per segment (2)")
    if kind == "y":
        lane["points"][2][1] = 10.0
        return "", "y-coordinates must be strictly increasing"
    if kind == "curve":
        lane["curve"] = {**CURVE, "v_up": math.inf}
        return ".curve", "rho, beta_prime, beta_dprime and v_up must be finite"
    assert kind == "ragged"
    lane["points"][1] = lane["points"][1][:2]
    return "", "inhomogeneous shape"


@pytest.mark.parametrize("layout", [
    (("lanes", 0), ("lanes", 1)),
    (("lanes", 1), ("pred_lanes", 0)),
], ids=["lanes", "sides"])
@pytest.mark.parametrize("first, second", [
    ("visibility", "nan"), ("nan", "visibility"),
    ("uncertainty", "y"), ("y", "uncertainty"),
    ("curve", "ragged"), ("ragged", "curve"),
])
def test_the_earlier_of_two_lane_faults_names_the_error(tmp_path, layout, first,
                                                        second):
    # The reader checks ground truths, then predictions, lane by lane, and
    # within a lane the geometry, then the curve, then the uncertainty.
    obj = json.loads(valid_line("b"))
    obj["lanes"] = [three_point_lane(-2.0), three_point_lane(2.0)]
    obj["pred_lanes"] = [three_point_lane(-1.9), three_point_lane(2.1)]
    (key, i), (later_key, later_i) = layout
    suffix, message = spoil(obj[key][i], first)
    spoil(obj[later_key][later_i], second)
    path = write_lines(tmp_path, valid_line("a"), json.dumps(obj))
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert (err.value.line, err.value.field) == (2, f"{key}[{i}]{suffix}")
    assert message in str(err.value)


def counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` in a list of their arguments."""
    calls = []
    real = getattr(owner, name)

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, count)
    return calls


def test_reading_valid_files_runs_no_per_lane_check(tmp_path, monkeypatch):
    # A valid side is converted and checked as whole arrays; only the
    # error path's walk builds lanes through Lane3D's own checks.
    path = tmp_path / "frames.jsonl"
    rng = np.random.default_rng(11)
    write_frames(path, [random_record(rng, k) for k in range(60)])
    checks = counted(monkeypatch, Lane3D, "__post_init__")
    records = list(read_frames(path))
    assert any(r.pred_uncertainties for r in records)
    assert any(r.gt_curves for r in records)
    assert checks == []
    # a library caller's lane is still checked
    lane = records[0].gt_lanes[0]
    Lane3D(points=lane.points, visibility=lane.visibility)
    with pytest.raises(ValueError, match="strictly increasing"):
        Lane3D(points=lane.points[::-1], visibility=lane.visibility)
    assert len(checks) == 2


def test_lines_decode_with_orjson_when_it_imports(tmp_path, monkeypatch):
    orjson = pytest.importorskip("orjson")
    fast = counted(monkeypatch, orjson, "loads")
    slow = counted(monkeypatch, json, "loads")
    path = write_lines(tmp_path, valid_line("a"), "", valid_line("b"))
    assert [r.frame_id for r in read_frames(path)] == ["a", "b"]
    assert (len(fast), len(slow)) == (2, 0)
    monkeypatch.setitem(sys.modules, "orjson", None)
    assert [r.frame_id for r in read_frames(path)] == ["a", "b"]
    assert (len(fast), len(slow)) == (2, 2)


def test_long_lines_decode_with_json_alone(tmp_path, monkeypatch):
    # orjson has no nesting limit: a line long enough to nest past its
    # stack never reaches it
    orjson = pytest.importorskip("orjson")
    fast = counted(monkeypatch, orjson, "loads")
    slow = counted(monkeypatch, json, "loads")

    def padded(frame_id, length):  # a valid line, newline included
        line = valid_line(frame_id)[:-1] + ', "note": ""}'
        return line[:-2] + " " * (length - 1 - len(line)) + line[-2:]

    limit = scenario_io._ORJSON_MAX_LINE
    path = write_lines(tmp_path, padded("a", limit - 1), padded("b", limit))
    assert [r.frame_id for r in read_frames(path)] == ["a", "b"]
    assert [len(args[0]) for args in fast] == [limit - 1]
    assert [len(args[0]) for args in slow] == [limit]


def test_wide_integers_read_as_json_reads_them(tmp_path):
    # orjson returns an integer literal beyond 64 bits as a float; json
    # keeps the int, and json's reading is the one that counts
    wide = 10**20 + 1
    for section, key, expected in (
        ("camera", "image_h", (wide, 960)),
        ("camera", "image_w", (720, wide)),
    ):
        obj = json.loads(valid_line())
        obj[section][key] = wide
        path = write_lines(tmp_path, json.dumps(obj))
        assert next(read_frames(path)).camera.image_size == expected
    obj = json.loads(valid_line())
    obj["version"] = wide
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(SchemaVersionMismatch, match=f"version {wide} "):
        list(read_frames(path))
    obj = json.loads(valid_line())
    obj["lanes"][0]["curve"] = {**CURVE, "form": wide}
    path = write_lines(tmp_path, json.dumps(obj))
    with pytest.raises(ParseError, match=f"unknown curve form {wide} "):
        list(read_frames(path))


def five_point_record(uncertainty):
    y = np.linspace(3.0, 43.0, 5)
    lane = Lane3D(points=np.stack([np.zeros(5), y, np.zeros(5)], axis=1),
                  visibility=np.ones(5))
    return FrameRecord(
        frame_id="f", camera=random_camera(np.random.default_rng(0)),
        gt_lanes=[lane], pred_lanes=[lane, lane],
        pred_uncertainties=[None, uncertainty],
    )


@pytest.mark.parametrize("uncertainty", [
    np.full((9, 2), math.nan),  # the wrong number of segments, and NaN
    np.full((3, 2), 0.1),
    np.full((4, 3), 0.1),
    np.full(8, 0.1),
    [[0.1, 0.1]] * 3 + [[0.1, math.inf]],
])
def test_writer_rejects_what_the_reader_rejects(tmp_path, uncertainty):
    path = tmp_path / "f.jsonl"
    with pytest.raises(ValueError, match=r"pred_lanes\[1\]\.uncertainty"):
        write_frames(path, [five_point_record(uncertainty)])
    assert not path.exists()


def test_written_uncertainty_round_trips_exactly(tmp_path):
    widths = np.array([[1e-300, 0.1], [5e-324, 1e300], [0.0, -0.0],
                       [1234567.89012345678, 1.0 / 3.0]])
    path = tmp_path / "f.jsonl"
    record = five_point_record(widths)
    write_frames(path, [record])
    back = list(read_frames(path))[0]
    assert records_equal(record, back)
    assert back.pred_uncertainties[1].tobytes() == widths.tobytes()


def test_duplicate_frame_id_rejected(tmp_path):
    path = write_lines(tmp_path, valid_line("x"), valid_line("x"))
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert err.value.line == 2 and err.value.field == "frame_id"


def test_writer_rejects_duplicate_frame_ids(tmp_path):
    record = random_record(np.random.default_rng(3), 0)
    path = tmp_path / "f.jsonl"
    with pytest.raises(ValueError, match="duplicate frame_id 'frame_0'"):
        write_frames(path, [record, record])
    assert not path.exists()


def test_writer_streams_and_a_late_duplicate_leaves_no_file(tmp_path):
    # the lines go to the temp file while the records are read; a
    # duplicate in the last record removes it, and no file appears
    rng = np.random.default_rng(4)
    records = [random_record(rng, k) for k in range(5)]
    path = tmp_path / "f.jsonl"

    def stream():
        for record in records:
            assert (tmp_path / "f.jsonl.tmp").exists()
            yield record
        yield records[2]

    with pytest.raises(ValueError, match="duplicate frame_id 'frame_2'"):
        write_frames(path, stream())
    assert list(tmp_path.iterdir()) == []
    write_frames(path, iter(records))
    assert path.read_text() == "".join(
        scenario_io._record_to_line(r) + "\n" for r in records)


def test_attachments_must_parallel_their_lanes():
    record = random_record(np.random.default_rng(3), 0)
    with pytest.raises(ValueError, match="gt_curves must parallel its lane list"):
        FrameRecord(record.frame_id, record.camera, record.gt_lanes,
                    gt_curves=[None] * (len(record.gt_lanes) + 1))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_frames(tmp_path / "absent.jsonl")


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def test_align_pairs_by_frame_id():
    rng = np.random.default_rng(3)
    camera = random_camera(rng)
    gt = [FrameRecord(f"f{k}", camera, [random_lane(rng)]) for k in range(3)]
    preds = [FrameRecord("f1", camera, [random_lane(rng, True)] * 2)]
    merged = align(gt, preds)
    assert [r.frame_id for r in merged] == ["f0", "f1", "f2"]
    assert merged[0].pred_lanes == []
    assert len(merged[1].pred_lanes) == 2
    assert merged[2].pred_lanes == []


def test_align_unknown_prediction_frame():
    rng = np.random.default_rng(4)
    camera = random_camera(rng)
    gt = [FrameRecord("f0", camera, [random_lane(rng)])]
    preds = [FrameRecord("ghost", camera, [random_lane(rng)])]
    with pytest.raises(MissingFrame):
        align(gt, preds)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def sample_report(with_sweep=False):
    rows = ((0.1, 0.5, 0.5, 0.5), (0.3, 1.0, 1.0, 1.0)) if with_sweep else None
    return MetricReport(
        protocol="once", tp=3, fp=1, fn=2,
        precision=0.75, recall=0.6, f1=2 / 3,
        error_name="cde", error_stat=0.123, sweep_rows=rows,
    )


def test_structured_report_deterministic_and_echoes_config(tmp_path):
    config = {"tau_cd": 0.3, "tau_bcd": 0.3, "assumed_defaults": ["tau_iou"]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(sample_report(), a, "structured", config)
    write_report(sample_report(), b, "structured", config)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["format_version"] == 1
    assert payload["config"]["tau_bcd"] == 0.3
    assert payload["tp"] == 3


def test_csv_report_rows(tmp_path):
    report = MetricReport(
        protocol="bcd", tp=0, fp=0, fn=0, precision=0.0, recall=0.0, f1=0.0,
        error_name="mean_bcd", error_stat=None,
        sweep_rows=tuple(
            (round(0.1 * k, 10), 0.5, 0.5, 0.5) for k in range(1, 16)
        ),
    )
    path = tmp_path / "sweep.csv"
    write_report(report, path, "csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "tau,precision,recall,f1"
    assert len(lines) == 16  # header + 15 rows
    assert lines[1].startswith("0.1,")


def test_csv_requires_sweep_rows(tmp_path):
    with pytest.raises(ConfigError):
        write_report(sample_report(), tmp_path / "x.csv", "csv")
    with pytest.raises(ConfigError):
        write_report(sample_report(), tmp_path / "x.out", "yaml")


def test_failed_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "no_such_dir" / "report.json"
    with pytest.raises(IoError):
        write_report(sample_report(), target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------


def test_generator_files_byte_identical_under_seed(tmp_path):
    noise = NoiseModel(sigma_w0=0.1, sigma_h0=0.02, seed=42)
    paths = []
    for tag in ("a", "b"):
        gt = tmp_path / f"gt_{tag}.jsonl"
        pred = tmp_path / f"pred_{tag}.jsonl"
        generate_scenario(5, 3, (-0.001, 0.001), noise, gt, pred)
        paths.append((gt.read_bytes(), pred.read_bytes()))
    assert paths[0] == paths[1]
    other = tmp_path / "gt_c.jsonl"
    generate_scenario(5, 3, (-0.001, 0.001),
                      NoiseModel(sigma_w0=0.1, sigma_h0=0.02, seed=43), other)
    assert other.read_bytes() != paths[0][0]


def test_gt_independent_of_prediction_output(tmp_path):
    noise = NoiseModel(sigma_w0=0.1, seed=9)
    without_pred = tmp_path / "gt1.jsonl"
    with_pred = tmp_path / "gt2.jsonl"
    generate_scenario(4, 2, (0.0, 0.001), noise, without_pred)
    generate_scenario(4, 2, (0.0, 0.001), noise, with_pred,
                      tmp_path / "pred.jsonl")
    assert without_pred.read_bytes() == with_pred.read_bytes()


def assert_same_records(got, want):
    assert [r.frame_id for r in got] == [r.frame_id for r in want]
    for g, w in zip(got, want):
        assert g.camera == w.camera and g.pred_lanes is w.pred_lanes is None
        assert len(g.gt_lanes) == len(w.gt_lanes)
        for a, b in zip(g.gt_lanes, w.gt_lanes):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.visibility.tobytes() == b.visibility.tobytes()
            assert a.score == b.score


SYNTH_NOISES = {
    "none": {},
    "quick-start": {"sigma_w0": 0.1},
    "unc": {"sigma_w0": 0.1, "sigma_w_slope": 0.001, "sigma_h0": 0.02},
    "depth": {"sigma_w_slope": 0.004, "sigma_h_slope": 0.002},
}


@pytest.mark.parametrize("noise", SYNTH_NOISES)
@pytest.mark.parametrize("lanes, curvature", [
    (1, (-0.002, 0.002)), (3, (0.0, 0.0)), (4, (-0.05, 0.01)),
    (6, (1e300, 1e303)),
])
@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_generator_equals_the_lane_by_lane_reference(seed, lanes, curvature,
                                                     noise):
    model = NoiseModel(seed=seed, **SYNTH_NOISES[noise])
    got = generate_frames(9, lanes, curvature, model)
    want = oracles.generate_frames(9, lanes, curvature, model)
    assert_same_records(got[0], want[0])
    assert_same_records(got[1], want[1])


@pytest.mark.parametrize("lanes, noise, shown", [
    (1, {"sigma_w0": 20.0}, "frame 'frame_000001' lane 0"),
    (2, {"sigma_w0": 15.0, "sigma_h0": 3.0}, "frame 'frame_000004' lane 0"),
    (6, {"sigma_w0": 12.0}, "frame 'frame_000001' lane 2"),
    (4, {"sigma_w0": 10.0}, "frame 'frame_000002' lane 0"),
    (4, {"sigma_w_slope": 0.2}, "frame 'frame_000000' lane 1"),
    (3, {"sigma_w0": 1e308, "sigma_w_slope": 1e308}, "frame 'frame_000000' lane 0"),
])
def test_folding_noise_names_the_reference_frame_and_lane(lanes, noise, shown):
    model = NoiseModel(seed=0, **noise)
    with pytest.raises(ConfigError) as want:
        oracles.generate_frames(200, lanes, (-0.002, 0.002), model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as got:
            generate_frames(200, lanes, (-0.002, 0.002), model)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(shown + ": the noise makes an invalid")


@pytest.mark.parametrize("n", [2, 5, 30])
def test_apply_noise_is_one_lane_of_the_stack(n):
    rng = np.random.default_rng(n)
    y = np.cumsum(rng.uniform(2.0, 4.0, n))
    points = np.stack([rng.normal(0.0, 2.0, n), y, rng.normal(0.0, 0.1, n)], 1)
    lane = Lane3D(points=points, visibility=np.linspace(0.0, 1.0, n))
    noise = NoiseModel(sigma_w0=0.1, sigma_h0=0.05, sigma_w_slope=0.002)
    noisy = apply_noise(lane, noise, np.random.default_rng(1))
    stack = scenario_io._noisy(points[None], noise, np.random.default_rng(1))[0]
    want = oracles.noisy_lane(lane, noise, np.random.default_rng(1))
    assert noisy.points.tobytes() == stack.tobytes() == want.points.tobytes()
    assert noisy.visibility.tobytes() == lane.visibility.tobytes()
    assert noisy.visibility is not lane.visibility and noisy.score == 1.0


def test_zero_noise_predictions_equal_gt_and_score_perfect():
    gt_records, pred_records = generate_frames(10, 3, (-0.002, 0.002),
                                               NoiseModel(seed=5))
    for g, p in zip(gt_records, pred_records):
        for gl, pl in zip(g.gt_lanes, p.gt_lanes):
            assert np.array_equal(gl.points, pl.points)
            assert pl.score == 1.0
    frames = [(g.gt_lanes, p.gt_lanes)
              for g, p in zip(gt_records, pred_records)]
    assert once_report(frames).f1 == 1.0


def test_lateral_noise_half_normal_mean():
    # sigma_w = 0.1 on straight lanes: the mean absolute lateral residual
    # estimates 0.1 * sqrt(2/pi) ~ 0.0798
    noise = NoiseModel(sigma_w0=0.1, seed=123)
    rng = np.random.default_rng(77)
    y = np.linspace(3.0, 103.0, 20)
    residuals = []
    for _ in range(500):  # 500 lanes x 20 points = 1e4 samples
        pts = np.stack([np.full_like(y, 2.0), y, np.zeros_like(y)], axis=1)
        lane = Lane3D(points=pts, visibility=np.ones_like(y))
        noisy = apply_noise(lane, noise, rng)
        residuals.append(np.abs(noisy.points[:, 0] - pts[:, 0]))
    measured = float(np.mean(residuals))
    expected = 0.1 * math.sqrt(2.0 / math.pi)
    assert abs(measured - expected) / expected < 0.05


def test_noise_is_normal_to_heading():
    # a lane heading diagonally: displacement must be perpendicular to it
    noise = NoiseModel(sigma_w0=0.2, seed=11)
    rng = np.random.default_rng(0)
    y = np.linspace(0.0, 50.0, 30)
    pts = np.stack([0.5 * y, y, np.zeros_like(y)], axis=1)  # heading (0.5, 1)
    lane = Lane3D(points=pts, visibility=np.ones_like(y))
    noisy = apply_noise(lane, noise, rng)
    delta = noisy.points[:, :2] - pts[:, :2]
    heading = np.array([0.5, 1.0]) / math.hypot(0.5, 1.0)
    along = delta @ heading
    assert np.abs(along).max() < 1e-12
    assert np.abs(delta).max() > 0.01  # noise actually applied


def test_depth_dependent_sigma_grows():
    noise = NoiseModel(sigma_w0=0.05, sigma_w_slope=0.002, seed=21)
    rng = np.random.default_rng(13)
    y = np.linspace(3.0, 103.0, 20)
    near, far = [], []
    for _ in range(2000):
        pts = np.stack([np.zeros_like(y), y, np.zeros_like(y)], axis=1)
        lane = Lane3D(points=pts, visibility=np.ones_like(y))
        noisy = apply_noise(lane, noise, rng)
        res = np.abs(noisy.points[:, 0])
        near.append(res[0])
        far.append(res[-1])
    # sigma at y=3 is 0.056; at y=103 it is 0.256
    ratio = np.mean(far) / np.mean(near)
    assert 3.5 < ratio < 5.5


def test_generator_validation():
    with pytest.raises(ConfigError):
        generate_frames(0, 3, (0.0, 0.001), NoiseModel())
    with pytest.raises(ConfigError):
        generate_frames(1, 0, (0.0, 0.001), NoiseModel())
    with pytest.raises(ConfigError):
        generate_frames(1, 1, (0.002, 0.001), NoiseModel())
    with pytest.raises(ConfigError):
        NoiseModel(sigma_w0=-0.1)


def test_generated_lanes_are_well_formed_and_separated():
    gt_records, _ = generate_frames(20, 4, (-0.002, 0.002), NoiseModel(seed=1))
    for record in gt_records:
        assert len(record.gt_lanes) == 4
        for lane in record.gt_lanes:
            assert lane.points.shape == (20, 3)
            assert np.all(np.diff(lane.points[:, 1]) > 0)
        xs = sorted(lane.points[0, 0] for lane in record.gt_lanes)
        assert all(b - a > 1.0 for a, b in zip(xs, xs[1:]))
