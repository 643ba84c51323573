"""End-to-end CLI tests: exit codes, determinism, and config precedence."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import loss_oracle

import lane3d
from lane3d import cli, losses, matching
from lane3d.cli import main
from lane3d.geometry import CameraModel, Curve2D, Lane3D, SampleGrid, sample_curve
from lane3d.losses import FrameGroundTruth, FramePrediction
from lane3d.scenario_io import FrameRecord, write_frames


def run(*argv):
    return main(list(argv))


def synth(tmp_path, tag="s", frames=5, lanes=3, sigma_w0=0.0, seed=42,
          extra=()):
    gt = tmp_path / f"gt_{tag}.jsonl"
    pred = tmp_path / f"pred_{tag}.jsonl"
    code = run("synth", "--frames", str(frames), "--lanes", str(lanes),
               "--sigma-w0", str(sigma_w0), "--seed", str(seed),
               "--out", str(gt), "--emit-pred", str(pred), *extra)
    assert code == 0
    return gt, pred


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_deterministic_and_prints_manifest(tmp_path, capsys):
    gt_a, pred_a = synth(tmp_path, "a", sigma_w0=0.1)
    out = capsys.readouterr().out
    assert "seed" in out and "gt_file" in out
    gt_b, pred_b = synth(tmp_path, "b", sigma_w0=0.1)
    assert gt_a.read_bytes() == gt_b.read_bytes()
    assert pred_a.read_bytes() == pred_b.read_bytes()


# sha256 of (ground truth, predictions) of one seeded noisy scenario
GOLDEN_SYNTH = (
    "ae00e2e82fb0fece9c09d1f0baac90bb66d10e2ca943515e3e29fe8061393f24",
    "21b7efe920e26b1d233610ef16bb17e53f44309350d42a52774c9a9a5101fc7b",
)


def test_synth_files_match_golden_digests(tmp_path):
    gt, pred = synth(tmp_path, frames=6, lanes=3, sigma_w0=0.1, seed=7,
                     extra=("--sigma-w-slope", "0.001", "--sigma-h0", "0.02"))
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (gt, pred)) == GOLDEN_SYNTH


def test_synth_bad_curvature_range(tmp_path):
    assert run("synth", "--frames", "1", "--curvature", "oops",
               "--out", str(tmp_path / "x.jsonl")) == 2


@pytest.mark.parametrize("flag, value", [
    ("--sigma-w0", "nan"),
    ("--sigma-h-slope", "inf"),
    ("--curvature", "nan:0.001"),
])
def test_synth_non_finite_parameter_is_exit_2(tmp_path, flag, value):
    out = tmp_path / "g.jsonl"
    assert run("synth", "--frames", "2", flag, value, "--out", str(out)) == 2
    assert not out.exists()


def test_synth_overflowing_noise_is_one_error_line(tmp_path, capsys):
    # the noise overflows to a non-finite prediction: rejected with the
    # one error line, and no RuntimeWarning before it
    out = tmp_path / "g.jsonl"
    capsys.readouterr()
    assert run("synth", "--frames", "2", "--sigma-w0", "1e308",
               "--sigma-w-slope", "1e308", "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "frame 'frame_000000' lane 0" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("curvature, shown", [
    # the range's width overflows the draw
    ("-1e308:1e308", "got (-1e+308, 1e+308)"),
    # the draws are finite, the lanes' points overflow
    ("1e306:1e306", "curvature_range (1e+306, 1e+306)"),
])
def test_synth_overflowing_curvature_is_one_error_line(tmp_path, capsys,
                                                       curvature, shown):
    out = tmp_path / "g.jsonl"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("synth", "--frames", "3", f"--curvature={curvature}",
                   "--out", str(out), "--emit-pred", str(tmp_path / "p")) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and shown in err[0], err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, shown", [
    (("--frames", "2", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("--frames", "200", "--sigma-w0", "10"), "frame 'frame_000002' lane 0"),
    (("--frames", "200", "--sigma-w-slope", "0.2"), "frame 'frame_000000' lane 1"),
], ids=["seed", "sigma-w0", "sigma-w-slope"])
def test_synth_bad_seed_or_folding_noise_is_exit_2(tmp_path, capsys, argv, shown):
    out = tmp_path / "g.jsonl"
    capsys.readouterr()
    assert run("synth", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and shown in err[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_perfect_predictions_all_protocols(tmp_path, capsys):
    gt, pred = synth(tmp_path)
    for protocol in ("once", "bcd", "openlane", "mbd"):
        out_file = tmp_path / f"report_{protocol}.json"
        code = run("eval", "--gt", str(gt), "--pred", str(pred),
                   "--protocol", protocol, "--out", str(out_file))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "f1        = 1.0" in stdout.replace("  =", " =") or \
            "f1" in stdout
        payload = json.loads(out_file.read_text())
        assert payload["f1"] == 1.0
        assert payload["fp"] == 0 and payload["fn"] == 0
        assert payload["config"]["tau_bcd"] == 0.3
        assert "tau_iou" in payload["config"]["assumed_defaults"]


def test_eval_embedded_predictions_without_pred_file(tmp_path):
    camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                         height=1.5, pitch=0.0, image_size=(720, 960))
    y = np.linspace(3.0, 103.0, 20)
    lane = Lane3D(points=np.stack([np.zeros_like(y), y, np.zeros_like(y)], 1),
                  visibility=np.ones_like(y))
    record = FrameRecord("f0", camera, [lane], pred_lanes=[lane])
    path = tmp_path / "both.jsonl"
    write_frames(path, [record])
    assert run("eval", "--gt", str(path), "--protocol", "once") == 0


def test_eval_missing_pred_lanes_is_exit_5(tmp_path):
    gt, _ = synth(tmp_path)
    assert run("eval", "--gt", str(gt), "--protocol", "once") == 5


def test_eval_exit_codes_for_bad_files(tmp_path, capsys):
    gt, pred = synth(tmp_path)
    # 7: unreadable file
    assert run("eval", "--gt", str(tmp_path / "nope.jsonl"),
               "--protocol", "once") == 7
    # 3: corrupt line
    bad = tmp_path / "bad.jsonl"
    bad.write_text(gt.read_text() + "not json\n")
    assert run("eval", "--gt", str(bad), "--pred", str(pred),
               "--protocol", "once") == 3
    # 3: version mismatch
    obj = json.loads(gt.read_text().splitlines()[0])
    obj["version"] = 9
    versioned = tmp_path / "versioned.jsonl"
    versioned.write_text(json.dumps(obj) + "\n")
    assert run("eval", "--gt", str(versioned), "--pred", str(pred),
               "--protocol", "once") == 3
    # 2: invalid threshold or raster geometry
    assert run("eval", "--gt", str(gt), "--pred", str(pred),
               "--protocol", "once", "--tau-cd", "0") == 2
    assert run("eval", "--gt", str(gt), "--pred", str(pred),
               "--protocol", "once", "--lane-width", "inf") == 2
    # 1: any other library failure (DegenerateLane: one visible point)
    lines = pred.read_text().splitlines()
    obj = json.loads(lines[0])
    vis = obj["lanes"][0]["visibility"]
    obj["lanes"][0]["visibility"] = [1.0] + [0.0] * (len(vis) - 1)
    degenerate = tmp_path / "degenerate.jsonl"
    degenerate.write_text("".join(line + "\n" for line in [json.dumps(obj), *lines[1:]]))
    capsys.readouterr()
    assert run("eval", "--gt", str(gt), "--pred", str(degenerate),
               "--protocol", "once") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1 visible point(s); need >= 2" in err


def test_eval_unknown_prediction_frame_is_exit_4(tmp_path):
    gt, pred = synth(tmp_path)
    lines = pred.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["frame_id"] = "ghost_frame"
    lines.append(json.dumps(obj))
    moved = tmp_path / "ghost.jsonl"
    moved.write_text("".join(line + "\n" for line in lines))
    assert run("eval", "--gt", str(gt), "--pred", str(moved),
               "--protocol", "once") == 4


def test_eval_failure_leaves_no_output_file(tmp_path):
    gt, pred = synth(tmp_path)
    target = tmp_path / "sub" / "report.json"
    code = run("eval", "--gt", str(gt), "--pred", str(pred),
               "--protocol", "once", "--out", str(target))
    assert code == 7
    assert not target.exists()
    assert not (tmp_path / "sub").exists()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_successive_calls_parse_only_their_own_arguments(tmp_path):
    # the parser is built once per process and reused by every call
    from lane3d.cli import build_parser

    assert build_parser() is build_parser()
    gt, pred = synth(tmp_path)
    swept, evaluated = tmp_path / "sweep.json", tmp_path / "eval.json"
    assert run("sweep", "--gt", str(gt), "--pred", str(pred), "--protocol",
               "bcd", "--taus", "0.3", "--tau-iou", "0.5", "--format",
               "structured", "--out", str(swept)) == 0
    assert run("eval", "--gt", str(gt), "--pred", str(pred), "--protocol",
               "bcd", "--out", str(evaluated)) == 0
    first = json.loads(swept.read_text())
    second = json.loads(evaluated.read_text())
    assert first["config"]["tau_iou"] == 0.5 and "sweep" in first
    assert "tau_iou" not in first["config"]["assumed_defaults"]
    assert second["config"]["tau_iou"] == 0.3 and "sweep" not in second
    assert "tau_iou" in second["config"]["assumed_defaults"]


def test_threads_flag_is_gone(tmp_path):
    gt, pred = synth(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("eval", "--gt", str(gt), "--pred", str(pred),
            "--protocol", "once", "--threads", "2")
    assert exc.value.code == 2


def test_eval_format_flag_is_gone_before_any_input_is_read(tmp_path, capsys):
    # eval writes structured JSON only; the flag fails in the parser, so
    # the missing input is never opened (that would be exit 7)
    with pytest.raises(SystemExit) as exc:
        run("eval", "--gt", str(tmp_path / "missing.jsonl"), "--protocol", "bcd",
            "--format", "structured", "--out", str(tmp_path / "report.json"))
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "sweep", "synth", "loss", "fit"])
def test_help_states_each_default_once(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: None)" not in text
    assert re.search(r"\(default[^)]*\) \(default", text) is None
    if command in ("eval", "sweep", "loss"):
        assert "--tau-cd TAU_CD unilateral-CD acceptance threshold, meters " \
            "(default 0.3) --tau-iou" in text


@pytest.mark.parametrize("protocol", ["once", "mbd", "bcd", "openlane"])
def test_eval_non_finite_coordinate_is_exit_3(tmp_path, capsys, protocol):
    gt, pred = synth(tmp_path)
    lines = pred.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["lanes"][0]["points"][2][0] = float("nan")
    lines[1] = json.dumps(obj)
    pred.write_text("".join(line + "\n" for line in lines))
    assert run("eval", "--gt", str(gt), "--pred", str(pred),
               "--protocol", protocol) == 3
    err = capsys.readouterr().err
    assert "finite" in err and "line 2" in err and "lanes[0]" in err


@pytest.mark.parametrize("where", ["point", "camera"])
def test_eval_huge_integer_is_exit_3(tmp_path, capsys, where):
    gt, pred = synth(tmp_path)
    lines = pred.read_text().splitlines()
    obj = json.loads(lines[1])
    if where == "point":
        obj["lanes"][0]["points"][2][0] = 10**400 - 1
    else:
        obj["camera"]["height"] = 10**400 - 1
    lines[1] = json.dumps(obj)
    pred.write_text("".join(line + "\n" for line in lines))
    assert run("eval", "--gt", str(gt), "--pred", str(pred),
               "--protocol", "bcd") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: int too large to convert to float")
    field = "lanes[0]" if where == "point" else "camera"
    assert f"(line 2, field {field})" in err


@pytest.mark.parametrize("argv", [("eval", "--protocol", "once"),
                                  ("eval", "--protocol", "mbd"),
                                  ("sweep", "--protocol", "once", "--taus", "0.1,0.2")],
                         ids=["eval-once", "eval-mbd", "sweep-once"])
@pytest.mark.parametrize("x", [1e17, 1e20, 1e308])
def test_huge_coordinate_is_exit_8(tmp_path, capsys, argv, x):
    # the BEV stroke of a segment reaching x has row windows of about
    # |x| / bev_resolution cells, or cells with no exact index
    gt, pred = synth(tmp_path)
    lines = pred.read_text().splitlines()
    obj = json.loads(lines[1])
    lane = obj["lanes"][1]
    lane["points"][lane["visibility"].index(1.0) + 1][0] = x
    lines[1] = json.dumps(obj)
    pred.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv, "--gt", str(gt), "--pred", str(pred)) == 8
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: frame {obj['frame_id']!r} prediction lane 1: ")


@pytest.mark.parametrize("argv", [("eval", "--protocol", "once"),
                                  ("eval", "--protocol", "mbd"),
                                  ("sweep", "--protocol", "once", "--taus", "0.1,0.2"),
                                  ("sweep", "--protocol", "mbd", "--taus", "0.1,0.2")],
                         ids=["eval-once", "eval-mbd", "sweep-once", "sweep-mbd"])
@pytest.mark.parametrize("huge", [0, 1], ids=["overflow-first", "short-first"])
def test_first_frame_to_fail_alone_names_the_error(tmp_path, capsys, argv, huge):
    # Two frames of one block: one overflows the raster (exit 8 alone), the
    # other has a prediction with 1 visible point (exit 1 alone).  The run
    # fails as the earlier of them fails alone.
    gt, pred = synth(tmp_path, frames=2)
    frames = [json.loads(line) for line in pred.read_text().splitlines()]
    lane = frames[huge]["lanes"][1]
    lane["points"][lane["visibility"].index(1.0) + 1][0] = 1e20
    vis = frames[1 - huge]["lanes"][0]["visibility"]
    frames[1 - huge]["lanes"][0]["visibility"] = [1.0] + [0.0] * (len(vis) - 1)
    pred.write_text("".join(json.dumps(obj) + "\n" for obj in frames))
    capsys.readouterr()
    assert run(*argv, "--gt", str(gt), "--pred", str(pred)) == (8 if huge == 0 else 1)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    if huge == 0:
        assert err[0].startswith(
            f"error: frame {frames[0]['frame_id']!r} prediction lane 1: ")
    else:
        assert err[0] == (f"error: frame {frames[0]['frame_id']!r} prediction lane 0: "
                          "1 visible point(s); need >= 2")


def spoil_frame(path, at, change):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[at])
    change(obj)
    lines[at] = json.dumps(obj)
    path.write_text("".join(line + "\n" for line in lines))


def one_visible(lane):
    lane["visibility"] = [1.0] + [0.0] * (len(lane["visibility"]) - 1)


def overflow_stroke(lane):
    lane["points"][lane["visibility"].index(1.0) + 1][0] = 1e20


def keep_last_visible(n):
    def change(lane):
        lane["visibility"] = [0.0] * (len(lane["visibility"]) - n) + [1.0] * n
    return change


def off_image(lane):
    for point in lane["points"]:
        point[0] = 500.0


def with_widths(width):
    def change(obj):
        for lane in obj["lanes"]:
            lane["uncertainty"] = [[width, 0.1] for _ in lane["points"][1:]]
    return change


def lane_spoil(index, change):
    return lambda obj: change(obj["lanes"][index])


EVAL_COMMANDS = [(command, protocol) for command in ("eval", "sweep")
                 for protocol in ("once", "bcd", "openlane", "mbd")]

# (command, protocol or None, spoiled file, spoil of frame 2 of 4, exit code,
# the error line's start): every scoring error the block driver can surface
SCORING_ERRORS = [
    *[pytest.param(command, protocol, "pred", lane_spoil(1, one_visible), 1,
                   "frame 'frame_000002' prediction lane 1: 1 visible point(s); "
                   "need >= 2", id=f"DegenerateLane-pred-{command}-{protocol}")
      for command, protocol in EVAL_COMMANDS],
    # bcd scores a frame's predictions first, the others its ground truths
    *[pytest.param(command, protocol, "gt", lane_spoil(2, one_visible), 1,
                   "frame 'frame_000002' ground truth lane 2: 1 visible point(s); "
                   "need >= 2", id=f"DegenerateLane-gt-{command}-{protocol}")
      for command, protocol in EVAL_COMMANDS],
    pytest.param("loss", None, "pred", lane_spoil(1, one_visible), 1,
                 "frame 'frame_000002' prediction lane 1: 1 visible point(s); "
                 "need >= 2", id="DegenerateLane-loss"),
    *[pytest.param(command, protocol, "pred", lane_spoil(1, overflow_stroke), 8,
                   "frame 'frame_000002' prediction lane 1: its BEV stroke needs ",
                   id=f"RasterOverflow-{command}-{protocol}")
      for command in ("eval", "sweep") for protocol in ("once", "mbd")],
    pytest.param("loss", None, "gt", lane_spoil(1, keep_last_visible(3)), 6,
                 "frame 'frame_000002' ground truth: lane 1 has ",
                 id="Underdetermined-loss"),
    pytest.param("loss", None, "gt", lane_spoil(1, off_image), 5,
                 "frame 'frame_000002': ground-truth lane 1 has no stored curve",
                 id="MissingField-loss"),
    pytest.param("loss", None, "pred", with_widths(0.1), 2,
                 "frame 'frame_000002': per-segment uncertainties require "
                 "prediction lanes already sampled", id="ConfigError-loss"),
]


@pytest.fixture(params=["default", "block1"])
def block_bound(request, monkeypatch):
    """Every block bound as it is, or one frame per block."""
    if request.param == "block1":
        monkeypatch.setattr("lane3d.report._BLOCK_POINTS", 1)
        monkeypatch.setattr(losses, "_LOSS_BLOCK", 1)


@pytest.mark.parametrize("command, protocol, side, spoil, code, named",
                         SCORING_ERRORS)
def test_scoring_error_names_its_frame_side_and_lane(tmp_path, capsys, block_bound,
                                                     command, protocol, side,
                                                     spoil, code, named):
    # The spoiled frame sits after two good frames of its block, and is
    # named the same whether its block holds them or it alone.
    gt, pred = synth(tmp_path, frames=4, sigma_w0=0.05)
    spoil_frame({"gt": gt, "pred": pred}[side], 2, spoil)
    argv = [command, "--gt", str(gt), "--pred", str(pred)]
    if protocol:
        argv += ["--protocol", protocol]
    if command == "sweep":
        argv += ["--taus", "0.5,1.5"]
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + named)


def test_overflowing_width_names_its_frame(tmp_path, capsys, block_bound):
    gt, pred = write_scored_scenario(tmp_path, frames=4)
    spoil_frame(pred, 2, with_widths(1e308))
    capsys.readouterr()
    assert run("loss", "--gt", str(gt), "--pred", str(pred)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: frame 'f002': segment divergence is not finite")


@pytest.mark.parametrize("xs", [(1e308,), (8e307, 8e307)],
                         ids=["infinite-term", "infinite-sum"])
def test_loss_with_an_overflowing_coordinate_is_typed(tmp_path, capsys, xs):
    # A finite but huge coordinate overflows the location term, or two
    # finite terms overflow its sum: exit 1 naming the term, no warning and
    # no report, where Infinity was once written.
    gt, pred = synth(tmp_path, frames=2, sigma_w0=0.1, seed=3, lanes=4)
    lane = json.loads(pred.read_text().splitlines()[1])["lanes"][0]
    at = lane["visibility"].index(1.0) + 2

    def spoil(obj):
        for k, x in enumerate(xs):
            obj["lanes"][0]["points"][at + k][0] = x

    spoil_frame(pred, 1, spoil)
    out = tmp_path / "loss.json"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("loss", "--gt", str(gt), "--pred", str(pred), "--out", str(out)) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == \
        "error: frame 'frame_000001': loss_loc is not finite\n"
    assert not out.exists()


def test_eval_deeply_nested_line_is_exit_3(tmp_path, capsys):
    # a valid frame with an ignored key nested past either decoder's depth
    gt, _ = synth(tmp_path, frames=1)
    obj = json.loads(gt.read_text())
    depth = 100_000
    gt.write_text(json.dumps(obj)[:-1] + ', "note": ' + "[" * depth + "]" * depth
                  + "}\n")
    assert run("eval", "--gt", str(gt), "--pred", str(gt), "--protocol",
               "bcd") == 3
    err = capsys.readouterr().err
    assert err == "error: invalid JSON: nesting too deep (line 1)\n"


# sha256 of the reports on one seeded scenario, taken before BEV strokes
# became per-row runs; any change to a byte of these reports is a change
# of the protocols' results.  The other worst-case variants, the
# worst-case sweep and a coarser raster with a wider stroke were added
# before strokes were rasterized in blocks.
GOLDEN_IOU_REPORTS = {
    ("eval", "once"):
        "d29123265c26d1b34b8c9ba5c0daeea85890ebee935147bc41d0c4c62b6439f5",
    ("eval", "mbd"):
        "d868e6c1f02a222a9a1bcc3927d866257d7abe11b6abfcc4547f18213361b4f1",
    ("sweep", "once"):
        "7c4f6a600a79564e67b6479419ed2de1dd80d60d2abca588578922e403e7ff74",
    ("eval", "mbd", "--mbd-variant", "hausdorff_max"):
        "7219f9313759c8b9938706f87963ed2d82fa39857574e6f2fffa4cfcdb225b0a",
    ("eval", "mbd", "--mbd-variant", "directed_max_mean"):
        "3beeeed061b6051b1cbfc240b82129696ee3b00b0dd86d78c2b54035960d68a0",
    ("sweep", "mbd"):
        "7c4f6a600a79564e67b6479419ed2de1dd80d60d2abca588578922e403e7ff74",
    ("eval", "once", "--lane-width", "0.5", "--bev-resolution", "0.1"):
        "c115131cc59f6465bc6fe5c531f64eab6f67c180ec6be520f57bbb522a7e5ce2",
}


def test_iou_protocol_reports_match_golden_digests(tmp_path):
    check_golden_iou_reports(tmp_path)


def check_golden_iou_reports(tmp_path):
    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    assert run("synth", "--frames", "40", "--seed", "5", "--sigma-w0", "0.1",
               "--out", str(gt), "--emit-pred", str(pred)) == 0
    # a gate near the median IoU, so that matching and gating both bite
    for (command, protocol, *extra), digest in GOLDEN_IOU_REPORTS.items():
        out = tmp_path / "report.json"
        if command == "sweep":
            extra += ["--taus", "0.05:1.5:0.05"]
        assert run(command, "--gt", str(gt), "--pred", str(pred),
                   "--protocol", protocol, "--tau-iou", "0.65",
                   "--out", str(out), *extra) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, \
            (command, protocol, extra)


# sha256 of the remaining commands' reports on the same scenario, at
# default settings, taken while matching still ran on scipy's solver.
# The `loss` digest was retaken when the fitting cost's mask of rows
# valid in both curves became boolean (it had picked rows 0 and 1), and
# again when the curve fit became one flat solve with no BLAS or LAPACK
# call (`loss_fit` moved by at most 2.3e-7 relative); the `eval openlane`
# one when each pair error became the entry of the cost matrix the pair
# was matched on (it was summed again, pairwise, and 56 of 160 errors
# differed in the last bits).
GOLDEN_REPORTS = {
    ("eval", "bcd"):
        "da27fc4fe39861ff3f06788829697185becea456d2ff75227dcf6b850624d642",
    ("eval", "openlane"):
        "72953a274caa1163e333774b5fcddb00790e418a04d55871c0359b5b4b1e44bb",
    ("sweep", "bcd"):
        "da81aee8d9dfeb5da7940bf185f73d10fbbc5ed0b4b1b37acae416cee649cf78",
    ("sweep", "openlane"):
        "5096c331e84e41354d5a792457bf70907204ad6bfd6ef34029bed5581a12d44e",
    ("loss", None):
        "b6960e13be61d189ff9a98961e2d119ec945abfef3836d0b5b79e88b358ccf8e",
}


def test_reports_match_golden_digests(tmp_path):
    check_golden_reports(tmp_path, GOLDEN_REPORTS)


def check_golden_reports(tmp_path, golden):
    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    assert run("synth", "--frames", "40", "--seed", "5", "--sigma-w0", "0.1",
               "--out", str(gt), "--emit-pred", str(pred)) == 0
    for (command, protocol), digest in golden.items():
        out = tmp_path / f"{command}_{protocol}"
        argv = [command, "--gt", str(gt), "--pred", str(pred)]
        if protocol is not None:
            argv += ["--protocol", protocol]
        if command == "sweep":
            argv += ["--taus", "0.05:1.5:0.05"]
        assert run(*argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, \
            (command, protocol)


def test_reports_do_not_depend_on_the_block_bound(tmp_path, monkeypatch):
    # one frame per block: every protocol's reports keep their digests
    monkeypatch.setattr("lane3d.report._BLOCK_POINTS", 1)
    check_golden_reports(tmp_path, {
        key: digest for key, digest in GOLDEN_REPORTS.items() if key[0] != "loss"})
    check_golden_iou_reports(tmp_path)


def test_openlane_reports_make_no_per_lane_call(tmp_path, monkeypatch):
    # eval and sweep resample each block of frames in one call
    from lane3d import geometry, pointwise

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-lane call")

    for module in (geometry, pointwise, cli):
        for name in ("resample_at_y", "interpolate_lane"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    check_golden_reports(tmp_path, {
        key: digest for key, digest in GOLDEN_REPORTS.items() if key[1] == "openlane"})


def write_scored_scenario(tmp_path, frames=40, seed=12):
    """A seeded `loss` input: partly visible ground truths off the anchor
    grid, and scored predictions on it with soft visibility and one
    (lateral, vertical) width per segment.  Some frames carry a false
    positive, some miss a lane."""
    rng = np.random.default_rng(seed)
    camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                         height=1.5, pitch=0.05, image_size=(720, 960))
    anchors = SampleGrid().y_anchors
    gt_records, pred_records = [], []
    for f in range(frames):
        gts, preds, uncs = [], [], []
        n_lanes = int(rng.integers(2, 5))
        for k in range(n_lanes + int(rng.integers(-1, 2))):
            x0 = (k - (n_lanes - 1) / 2) * 3.7 + rng.uniform(-0.3, 0.3)
            bend, slope = rng.uniform(-2e-3, 2e-3), rng.uniform(-5e-3, 5e-3)

            def at(y):
                return np.stack([x0 + 0.5 * bend * y * y, y, slope * y], 1)

            if k < n_lanes:
                n = int(rng.integers(15, 40))
                y = np.linspace(rng.uniform(3.0, 15.0), rng.uniform(85.0, 103.0), n)
                vis = np.ones(n)
                vis[:int(rng.integers(0, 3))] = 0.0
                vis[n - int(rng.integers(0, 3)):] = 0.0
                gts.append(Lane3D(points=at(y), visibility=vis))
            pts = at(anchors)
            pts[:, 0] += rng.normal(0.0, 0.15, anchors.size)
            preds.append(Lane3D(points=pts,
                                visibility=rng.uniform(0.45, 1.0, anchors.size),
                                score=float(rng.uniform(0.2, 1.0))))
            uncs.append(np.stack([rng.uniform(0.05, 0.4, anchors.size - 1),
                                  rng.uniform(0.02, 0.2, anchors.size - 1)], 1))
        gt_records.append(FrameRecord(f"f{f:03d}", camera, gts))
        pred_records.append(FrameRecord(f"f{f:03d}", camera, preds,
                                        gt_uncertainties=uncs))
    gt, pred = tmp_path / "scored_gt.jsonl", tmp_path / "scored_pred.jsonl"
    write_frames(gt, gt_records)
    write_frames(pred, pred_records)
    return gt, pred


# sha256 of the `loss` report on write_scored_scenario, taken while `loss`
# still resampled, projected and scored lane by lane and pair by pair; it
# pins the resampling and the uncertainty term, which GOLDEN_REPORTS'
# on-grid synth scenario without uncertainties or scores leaves out.
# Retaken when the curve fit became one flat solve and the divergences
# lost their BLAS products and NumPy logs (`loss_fit` moved by at most
# 6.0e-8 relative, `loss_unc` by 1.6e-15).
GOLDEN_SCORED_LOSS = \
    "79aaee04000c81cb516365c34da6b3f495d0ccc91a9c3adb807ccf7c9179c4b3"


def test_scored_loss_report_matches_golden_digest(tmp_path):
    gt, pred = write_scored_scenario(tmp_path)
    out = tmp_path / "loss.json"
    assert run("loss", "--gt", str(gt), "--pred", str(pred),
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert all(frame["loss_unc"] > 0.0 for frame in report["per_frame"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SCORED_LOSS


def write_solver_scenario(tmp_path, frames=40, seed=15):
    """A seeded `openlane` input with cost matrices the row-minima
    certificate cannot settle: some frames hold a ground truth beyond the
    anchors (no visible anchor), some miss a lane, and some predict one
    lane twice, once as an exact copy."""
    rng = np.random.default_rng(seed)
    camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                         height=1.5, pitch=0.05, image_size=(720, 960))
    gt_records, pred_records = [], []
    for f in range(frames):
        gts, preds = [], []
        n_lanes = int(rng.integers(2, 5))
        for k in range(n_lanes):
            x0 = (k - (n_lanes - 1) / 2) * 3.7 + rng.uniform(-0.3, 0.3)
            bend = rng.uniform(-2e-3, 2e-3)
            n = int(rng.integers(15, 40))
            y = np.linspace(rng.uniform(3.0, 20.0), rng.uniform(70.0, 103.0), n)
            pts = np.stack([x0 + 0.5 * bend * y * y, y, 0.01 * y], 1)
            gts.append(Lane3D(points=pts, visibility=np.ones(n)))
            if rng.random() < 0.2:
                continue  # a missed lane
            guess = pts.copy()
            guess[:, 0] += rng.normal(0.0, 0.6) + rng.normal(0.0, 0.15, n)
            preds.append(Lane3D(points=guess, visibility=np.ones(n)))
            if rng.random() < 0.25:
                preds.append(Lane3D(points=guess.copy(), visibility=np.ones(n)))
        if rng.random() < 0.4:
            y = np.linspace(200.0, 300.0, 10)
            beyond = np.stack([np.full(10, rng.uniform(-5.0, 5.0)), y,
                               np.zeros(10)], 1)
            gts.insert(int(rng.integers(0, len(gts) + 1)),
                       Lane3D(points=beyond, visibility=np.ones(10)))
        gt_records.append(FrameRecord(f"f{f:03d}", camera, gts))
        pred_records.append(FrameRecord(f"f{f:03d}", camera, preds))
    gt, pred = tmp_path / "solver_gt.jsonl", tmp_path / "solver_pred.jsonl"
    write_frames(gt, gt_records)
    write_frames(pred, pred_records)
    return gt, pred


# sha256 of the `openlane` reports on write_solver_scenario, taken while
# the gate still ran one `hungarian` call per frame and threshold; unlike
# GOLDEN_REPORTS' scenario, where the certificate settles every matrix,
# these pin the exact solve's answers.  The `eval` digest was retaken with
# GOLDEN_REPORTS' `eval openlane` one (13 of 95 pair errors moved).
GOLDEN_SOLVER_REPORTS = {
    "eval":
        "dd282d0c3ededd9152c2ed858e3385168a7992b9e9904ce3db645e6eef8f0c49",
    "sweep":
        "5bffc9ba9a8f1e4d1305469d1a449ea771deb7a8898875dfb54305c33ca984b8",
}


def test_openlane_solver_reports_match_golden_digests(tmp_path, monkeypatch):
    solves = []
    real = matching._augment

    def counted(cost):
        solves.append(len(cost))
        return real(cost)

    monkeypatch.setattr(matching, "_augment", counted)
    gt, pred = write_solver_scenario(tmp_path)
    for command, digest in GOLDEN_SOLVER_REPORTS.items():
        out = tmp_path / f"{command}.json"
        extra = ["--taus", "0.05:1.5:0.05"] if command == "sweep" else []
        assert run(command, "--gt", str(gt), "--pred", str(pred), "--protocol",
                   "openlane", "--out", str(out), *extra) == 0
        assert solves, command
        solves.clear()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command


def write_anchorless_frame(tmp_path):
    """One frame whose second ground truth, at y 200-300 m, has no visible
    anchor, so its costs are the cap against every prediction."""
    camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                         height=1.5, pitch=0.0, image_size=(720, 960))

    def lane(x, y0, y1):
        y = np.linspace(y0, y1, 20)
        return Lane3D(points=np.stack([np.full(20, x), y, np.zeros(20)], 1),
                      visibility=np.ones(20))

    gt, pred = tmp_path / "anchorless_gt.jsonl", tmp_path / "anchorless_pred.jsonl"
    write_frames(gt, [FrameRecord("f0", camera,
                                  [lane(0.0, 3.0, 103.0), lane(3.7, 200.0, 300.0)])])
    write_frames(pred, [FrameRecord("f0", camera,
                                    [lane(0.1, 3.0, 103.0), lane(3.8, 3.0, 103.0)])])
    return gt, pred


@pytest.mark.parametrize("argv, shown", [
    (["sweep", "--taus", "0.5,inf"], "1.5 * inf"),
    (["sweep", "--taus", "1.5e308"], "1.5 * 1.5e+308"),
    (["eval", "--tau-dist", "inf"], "1.5 * inf"),
    (["eval", "--cap-multiplier", "1e308", "--tau-dist", "10"], "1e+308 * 10.0"),
])
def test_openlane_infinite_cost_cap_is_exit_2(tmp_path, capsys, argv, shown):
    gt, pred = write_anchorless_frame(tmp_path)
    out = tmp_path / "report.out"
    base = ["--gt", str(gt), "--pred", str(pred), "--protocol", "openlane"]
    # finite caps pass on the same frame
    finite = ["--taus", "0.5,1.5"] if argv[0] == "sweep" else []
    assert run(argv[0], *finite, *base, "--out", str(out)) == 0
    capsys.readouterr()
    assert run(*argv, *base, "--out", str(out.with_suffix(".bad"))) == 2
    err = capsys.readouterr().err
    assert "cost cap" in err and shown in err and "not finite" in err
    assert not out.with_suffix(".bad").exists()


# ---------------------------------------------------------------------------
# config precedence
# ---------------------------------------------------------------------------


def report_config(tmp_path, *argv):
    out = tmp_path / "cfg_report.json"
    code = run(*argv, "--out", str(out))
    assert code == 0
    return json.loads(out.read_text())["config"]


def test_config_precedence_file_env_flag(tmp_path, monkeypatch):
    gt, pred = synth(tmp_path)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"tau_cd": 0.11, "tau_bcd": 0.22}))
    base = ("eval", "--gt", str(gt), "--pred", str(pred),
            "--protocol", "once", "--config", str(config_file))

    echo = report_config(tmp_path, *base)
    assert echo["tau_cd"] == 0.11 and echo["tau_bcd"] == 0.22
    assert "tau_iou" in echo["assumed_defaults"]
    assert "tau_cd" not in echo["assumed_defaults"]

    monkeypatch.setenv("LANE3D_TAU_CD", "0.33")
    echo = report_config(tmp_path, *base)
    assert echo["tau_cd"] == 0.33  # env beats file
    assert echo["tau_bcd"] == 0.22

    echo = report_config(tmp_path, *base, "--tau-cd", "0.44")
    assert echo["tau_cd"] == 0.44  # flag beats env


def test_config_file_errors(tmp_path):
    gt, pred = synth(tmp_path)
    base = ("eval", "--gt", str(gt), "--pred", str(pred), "--protocol", "once")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"tau_xyz": 1.0}))
    assert run(*base, "--config", str(unknown)) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{broken")
    assert run(*base, "--config", str(invalid)) == 2
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([{"tau_cd": 0.5}]))
    assert run(*base, "--config", str(listed)) == 2
    assert run(*base, "--config", str(tmp_path / "absent.json")) == 7


OVER_RANGE = "1" + "0" * 400  # an integer literal no double holds


@pytest.mark.parametrize("source, key, text, shown", [
    ("file", "gammas", "5", "gammas must be 6 numbers, got 5"),
    ("env", "gammas", "5", "gammas must be 6 numbers, got 5"),
    ("env", "gammas", "a,b,c,d,e,f",
     "gammas must be 6 numbers, got 'a,b,c,d,e,f'"),
    ("file", "n_interp", "1e400", "n_interp must be an integer, got inf"),
    ("env", "n_interp", "1e400", "n_interp must be an integer, got inf"),
    ("env", "n_interp", "abc", "n_interp must be an integer, got 'abc'"),
    ("file", "tau_cd", OVER_RANGE, f"tau_cd must be a number, got {OVER_RANGE}"),
    ("env", "tau_bcd", OVER_RANGE, f"tau_bcd must be a number, got {OVER_RANGE}"),
    ("env", "tau_cd", "abc", "tau_cd must be a number, got 'abc'"),
    # a fraction is no integer, and a boolean is no number
    ("file", "n_interp", "2.7", "n_interp must be an integer, got 2.7"),
    ("env", "n_interp", "2.7", "n_interp must be an integer, got 2.7"),
    ("file", "n_interp", "true", "n_interp must be an integer, got True"),
    ("file", "tau_cd", "true", "tau_cd must be a number, got True"),
    ("env", "tau_iou", "true", "tau_iou must be a number, got True"),
    ("file", "gammas", "[1, 2, 3, 4, 5, false]",
     "gammas must be 6 numbers, got [1, 2, 3, 4, 5, False]"),
], ids=["file-gammas-5", "env-gammas-5", "env-gammas-letters",
        "file-n_interp-inf", "env-n_interp-inf", "env-n_interp-abc",
        "file-tau_cd-over-range", "env-tau_bcd-over-range", "env-tau_cd-abc",
        "file-n_interp-fraction", "env-n_interp-fraction", "file-n_interp-bool",
        "file-tau_cd-bool", "env-tau_iou-bool", "file-gammas-bool"])
def test_malformed_config_value_is_exit_2(tmp_path, capsys, monkeypatch, source,
                                          key, text, shown):
    # ``text`` is the JSON text of the file's value, or the variable's value
    gt, pred = synth(tmp_path, frames=2, lanes=2)
    argv = ["eval", "--protocol", "bcd", "--gt", str(gt), "--pred", str(pred)]
    if source == "file":
        config = tmp_path / "config.json"
        config.write_text(f'{{"{key}": {text}}}')
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("LANE3D_" + key.upper(), text)
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {shown}"]


@pytest.mark.parametrize("argv", [
    ("eval", "--protocol", "bcd", "--gammas=nan,-1,2,3,4,5",
     "--background-weight=-3", "--tau-dist=-1", "--tp-fraction=7"),
    ("eval", "--protocol", "openlane", "--lane-width=nan", "--n-interp=1"),
    ("sweep", "--protocol", "bcd", "--taus", "0.1", "--cap-multiplier=0"),
    ("loss", "--lane-width=-1"),
])
def test_every_command_checks_every_config_value(tmp_path, capsys, argv):
    gt, pred = synth(tmp_path, frames=2, lanes=2)
    out = tmp_path / "r.json"
    assert run(*argv, "--gt", str(gt), "--pred", str(pred), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tau-cd", "--tau-iou", "--tau-bcd",
                                  "--tau-dist", "--cap-multiplier"])
def test_infinite_threshold_is_exit_2(tmp_path, capsys, flag):
    gt, pred = synth(tmp_path, frames=2, lanes=2)
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run("eval", "--protocol", "bcd", f"{flag}=inf", "--gt", str(gt),
               "--pred", str(pred), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("eval", "--protocol", "once"),
    ("eval", "--protocol", "bcd"),
    ("eval", "--protocol", "openlane"),
    ("eval", "--protocol", "mbd"),
    ("sweep", "--protocol", "bcd", "--taus", "0.1,0.3", "--format", "structured"),
    ("sweep", "--protocol", "openlane", "--taus", "0.5,1.5", "--format",
     "structured"),
    ("loss",),
])
def test_config_echo_is_standard_json(tmp_path, argv):
    # orjson rejects the Infinity and NaN literals json would write
    orjson = pytest.importorskip("orjson")
    gt, pred = synth(tmp_path, frames=2, lanes=2)
    out = tmp_path / "r.json"
    assert run(*argv, "--gt", str(gt), "--pred", str(pred), "--out", str(out)) == 0
    assert orjson.loads(out.read_bytes())["config"] == \
        json.loads(out.read_text())["config"]


def test_report_reusable_as_config(tmp_path):
    gt, pred = synth(tmp_path)
    first = tmp_path / "first.json"
    assert run("eval", "--gt", str(gt), "--pred", str(pred), "--protocol",
               "once", "--tau-cd", "0.17", "--out", str(first)) == 0
    echo = report_config(tmp_path, "eval", "--gt", str(gt), "--pred",
                         str(pred), "--protocol", "once",
                         "--config", str(first))
    assert echo["tau_cd"] == 0.17


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_range_row_count_and_csv(tmp_path, capsys):
    gt, pred = synth(tmp_path, sigma_w0=0.05)
    out = tmp_path / "sweep.csv"
    code = run("sweep", "--gt", str(gt), "--pred", str(pred), "--protocol",
               "bcd", "--taus", "0.05:1.5:0.05", "--out", str(out))
    assert code == 0
    assert "rows" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau,precision,recall,f1"
    assert len(lines) == 31  # header + 30 rows


def test_sweep_matches_single_eval(tmp_path):
    gt, pred = synth(tmp_path, sigma_w0=0.12, frames=8)
    sweep_out = tmp_path / "sweep.json"
    assert run("sweep", "--gt", str(gt), "--pred", str(pred), "--protocol",
               "bcd", "--taus", "0.1,0.3", "--format", "structured",
               "--out", str(sweep_out)) == 0
    rows = json.loads(sweep_out.read_text())["sweep"]
    for tau, precision, recall, f1 in rows:
        single = tmp_path / f"single_{tau}.json"
        assert run("eval", "--gt", str(gt), "--pred", str(pred),
                   "--protocol", "bcd", "--tau-bcd", repr(tau),
                   "--out", str(single)) == 0
        payload = json.loads(single.read_text())
        assert (payload["precision"], payload["recall"], payload["f1"]) == \
            (precision, recall, f1)


def test_sweep_bad_taus(tmp_path):
    gt, pred = synth(tmp_path)
    base = ("sweep", "--gt", str(gt), "--pred", str(pred), "--protocol", "bcd")
    assert run(*base, "--taus", "1:2") == 2
    assert run(*base, "--taus", "0.5:0.1:0.1") == 2
    assert run(*base, "--taus", "0.1:0.5:-0.1") == 2
    assert run(*base, "--taus", ",") == 2
    assert run(*base, "--taus", "abc") == 2
    assert run(*base, "--taus", "a:b:c") == 2


@pytest.mark.parametrize("taus", ["nan:1:0.1", "0:1:nan", "0:inf:1", "0:1:inf"])
def test_sweep_non_finite_taus_range(tmp_path, capsys, taus):
    gt, pred = synth(tmp_path)
    capsys.readouterr()
    assert run("sweep", "--gt", str(gt), "--pred", str(pred), "--protocol",
               "bcd", "--taus", taus) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --taus range {taus!r} must be finite"]


@pytest.mark.parametrize("taus", ["1e-300:1:1e-300", "0:2:1e-6",
                                  "0:1e308:1e-300"])
def test_sweep_taus_range_too_long(tmp_path, capsys, taus):
    # rejected before any threshold is built
    gt, pred = synth(tmp_path)
    capsys.readouterr()
    assert run("sweep", "--gt", str(gt), "--pred", str(pred), "--protocol",
               "bcd", "--taus", taus) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "more than 1048576 thresholds" in err[0]


@pytest.mark.parametrize("protocol", ["bcd", "once", "mbd"])
def test_sweep_infinite_tau_is_exit_2(tmp_path, capsys, protocol):
    gt, pred = synth(tmp_path, frames=2)
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run("sweep", "--gt", str(gt), "--pred", str(pred), "--protocol",
               protocol, "--taus", "0.5,inf", "--format", "structured",
               "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: tau values must be finite, got inf"]
    assert not out.exists()


def test_taus_range_at_the_limit():
    assert len(cli._parse_taus("0:1048575:1")) == 2**20
    assert cli._parse_taus("0.5:0.5:1e-300") == [0.5]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_perfect_predictions_and_gamma_echo(tmp_path, capsys):
    gt, pred = synth(tmp_path, frames=3, lanes=2)
    out = tmp_path / "loss.json"
    code = run("loss", "--gt", str(gt), "--pred", str(pred),
               "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "gammas" in stdout and "0.5,2.0,10.0,3.0,5.0,2.0" in stdout
    payload = json.loads(out.read_text())
    agg = payload["aggregate"]
    assert agg["loss_unc"] is None  # absent, not zero
    assert agg["loss_loc"] == 0.0  # identical geometry
    assert agg["loss_fit"] == pytest.approx(0.0, abs=1e-9)
    assert agg["total"] == pytest.approx(0.0, abs=1e-4)  # clamp residue only
    assert payload["per_frame"][0]["loss_unc"] is None


def test_loss_gamma_override(tmp_path, capsys):
    gt, pred = synth(tmp_path, frames=2, lanes=2, sigma_w0=0.05)
    assert run("loss", "--gt", str(gt), "--pred", str(pred),
               "--gammas", "1,1,1,1,1,1") == 0
    assert "1.0,1.0,1.0,1.0,1.0,1.0" in capsys.readouterr().out
    assert run("loss", "--gt", str(gt), "--pred", str(pred),
               "--gammas", "1,2,3") == 2


@pytest.mark.parametrize("source, key, value", [
    ("flag", "gammas", "-1,2,10,3,5,2"),
    ("flag", "gammas", "nan,2,10,3,5,2"),
    ("flag", "background_weight", "-1"),
    ("flag", "background_weight", "inf"),
    ("file", "gammas", [0.5, 2.0, math.inf, 3.0, 5.0, 2.0]),
    ("file", "background_weight", math.nan),
    ("env", "gammas", "0.5,2,10,3,5,-2"),
    ("env", "background_weight", "nan"),
])
def test_loss_bad_weights_are_exit_2(tmp_path, capsys, monkeypatch, source, key,
                                     value):
    gt, pred = synth(tmp_path, frames=2, lanes=2)
    argv = ["loss", "--gt", str(gt), "--pred", str(pred)]
    if source == "flag":
        argv.append(f"--{key.replace('_', '-')}={value}")
    elif source == "file":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("LANE3D_" + key.upper(), value)
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "must be finite and >= 0" in err[0]


def edit_first_record(path, change):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    change(obj)
    lines[0] = json.dumps(obj)
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("rows, bad", [(19, math.nan), (19, math.inf), (20, None)])
def test_loss_malformed_uncertainty_is_exit_3(tmp_path, capsys, rows, bad):
    gt, pred = synth(tmp_path, frames=2, lanes=2)  # 20 points per lane

    def attach(obj):
        unc = [[0.1, 0.1] for _ in range(rows)]
        if bad is not None:
            unc[3][0] = bad
        for lane in obj["lanes"]:
            lane["uncertainty"] = unc

    edit_first_record(pred, attach)
    assert run("loss", "--gt", str(gt), "--pred", str(pred)) == 3
    assert "lanes[0].uncertainty" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fx", "cy", "height"])
def test_non_finite_camera_is_exit_3(tmp_path, capsys, key):
    gt, pred = synth(tmp_path, frames=2, lanes=2)

    def spoil(obj):
        obj["camera"][key] = math.nan

    edit_first_record(gt, spoil)
    assert run("loss", "--gt", str(gt), "--pred", str(pred)) == 3
    assert "camera" in capsys.readouterr().err


@pytest.mark.parametrize("key, bad", [("v_up", math.inf), ("rho", math.nan),
                                      ("beta_prime", -math.inf)])
@pytest.mark.parametrize("sides", [("gt",), ("pred",), ("gt", "pred")])
def test_loss_non_finite_curve_is_exit_3(tmp_path, capsys, key, bad, sides):
    gt, pred = synth(tmp_path, frames=2, lanes=2)

    def attach(obj):
        for lane in obj["lanes"]:
            lane["curve"] = {"rho": [0.0, 0.0, 0.0, 0.0], "beta_prime": 0.0,
                             "beta_dprime": 300.0, "v_low": 0.0, "v_up": 720.0}
            lane["curve"][key] = [0.0, bad, 0.0, 0.0] if key == "rho" else bad

    for side in sides:
        edit_first_record({"gt": gt, "pred": pred}[side], attach)
    assert run("loss", "--gt", str(gt), "--pred", str(pred)) == 3
    err = capsys.readouterr().err
    assert "lanes[0].curve" in err and "must be finite" in err


def test_loss_unfittable_lane_is_exit_5(tmp_path):
    camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                         height=1.5, pitch=0.0, image_size=(720, 960))
    y = np.linspace(3.0, 103.0, 20)
    # far off to the side: no visible point projects inside the image
    lane = Lane3D(points=np.stack([np.full_like(y, 500.0), y,
                                   np.zeros_like(y)], 1),
                  visibility=np.ones_like(y))
    path = tmp_path / "side.jsonl"
    write_frames(path, [FrameRecord("f0", camera, [lane], pred_lanes=[lane])])
    assert run("loss", "--gt", str(path)) == 5


def loss_report(tmp_path, gt, pred, tag="loss"):
    out = tmp_path / f"{tag}.json"
    assert run("loss", "--gt", str(gt), "--pred", str(pred),
               "--out", str(out)) == 0
    return json.loads(out.read_text())


def test_loss_on_an_empty_frame_file_is_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    assert run("loss", "--gt", str(empty), "--pred", str(empty)) == 2
    assert capsys.readouterr().err == "error: no frames to compute losses for\n"


def test_loss_frame_without_predictions(tmp_path):
    gt, pred = synth(tmp_path, frames=3, lanes=2, sigma_w0=0.05)
    lines = pred.read_text().splitlines(keepends=True)
    pred.write_text(lines[0] + lines[2])  # frame 1 gets no predictions
    frames = loss_report(tmp_path, gt, pred)["per_frame"]
    assert frames[1]["total"] == 0.0
    assert frames[0]["total"] > 0.0 and frames[2]["total"] > 0.0


def test_loss_frame_without_ground_truth(tmp_path):
    gt, pred = synth(tmp_path, frames=3, lanes=2, sigma_w0=0.05)
    edit_first_record(gt, lambda obj: obj["lanes"].clear())
    entry = loss_report(tmp_path, gt, pred)["per_frame"][0]
    assert entry["loss_ce"] > 0.0
    assert entry["total"] == entry["loss_curve"] == entry["loss_ce"]
    assert entry["loss_vis"] == entry["loss_loc"] == entry["loss_fit"] == 0.0


def test_loss_blocks_match_single_frame_runs(tmp_path):
    n = losses._LOSS_BLOCK + 1
    gt, pred = synth(tmp_path, frames=n, lanes=3, sigma_w0=0.1, seed=8)
    frames = loss_report(tmp_path, gt, pred)["per_frame"]
    assert len(frames) == n
    gt_lines = gt.read_text().splitlines(keepends=True)
    pred_lines = pred.read_text().splitlines(keepends=True)
    for i in range(n):
        one_gt, one_pred = tmp_path / "one_gt.jsonl", tmp_path / "one_pred.jsonl"
        one_gt.write_text(gt_lines[i])
        one_pred.write_text(pred_lines[i])
        assert loss_report(tmp_path, one_gt, one_pred, "one")["per_frame"] \
            == [frames[i]]


def error_order_frames():
    """An off-grid prediction with uncertainties (exit 2), and a lane that
    projects outside the image and so cannot be fit (exit 5)."""
    camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                         height=1.5, pitch=0.0, image_size=(720, 960))

    def lane(x, y):
        return Lane3D(points=np.stack([np.full_like(y, x), y,
                                       np.zeros_like(y)], 1),
                      visibility=np.ones_like(y))

    off_grid = lane(1.8, np.linspace(5.0, 100.0, 20))
    on_grid = lane(1.8, np.linspace(3.0, 103.0, 20))
    unc = np.full((19, 2), 0.1)
    return (FrameRecord("f_unc", camera, [on_grid], pred_lanes=[off_grid],
                        pred_uncertainties=[unc]),
            FrameRecord("f_side", camera, [lane(500.0, on_grid.points[:, 1])],
                        pred_lanes=[on_grid]))


@pytest.mark.parametrize("order, code, words", [
    ((0, 1), 2, "already sampled on the anchor grid"),
    ((1, 0), 5, "ground-truth lane 0 has no stored curve"),
])
def test_loss_first_error_wins_within_a_block(tmp_path, capsys, order, code,
                                              words):
    frames = error_order_frames()
    path = tmp_path / "mixed.jsonl"
    write_frames(path, [frames[i] for i in order])
    assert run("loss", "--gt", str(path)) == code
    assert words in capsys.readouterr().err


# The block gather and scorer against `loss` frame by frame (loss_oracle).

CAMERAS = (
    CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0, height=1.5,
                pitch=0.05, image_size=(720, 960)),
    CameraModel(fx=1400.0, fy=1400.0, cx=960.0, cy=540.0, height=1.6,
                pitch=0.02, image_size=(1080, 1920)),
)
ANCHORS = SampleGrid().y_anchors


def random_record(rng, name):
    """A frame of 0-4 ground truths and 0-5 predictions.

    Lanes lie off the anchor grid, on it exactly, or within 1e-9 of it;
    ground truths are partly visible, predictions softly.  A side may
    store its curves, all or some (then it is fit); predictions may carry
    scores and, on the grid, widths.
    """
    camera = CAMERAS[rng.integers(0, 2)]
    bend = rng.uniform(-2e-3, 2e-3)

    def lane(x0, on_grid, soft):
        if on_grid:
            y = ANCHORS + rng.choice([0.0, 4e-10])
        else:
            y = np.linspace(rng.uniform(-2.0, 20.0), rng.uniform(60.0, 120.0),
                            int(rng.integers(4, 40)))
        pts = np.stack([x0 + 0.5 * bend * y * y + rng.normal(0.0, 0.1, y.size), y,
                        rng.uniform(-0.01, 0.01) * y], axis=1)
        if soft:
            vis = rng.uniform(0.3, 1.0, y.size)
            vis[rng.random(y.size) < 0.1] = rng.choice([0.0, 0.5, 1.0])
        else:
            vis = np.ones(y.size)
            vis[:rng.integers(0, 4)] = 0.0
            vis[y.size - rng.integers(0, 4):] = 0.0
        score = float(rng.uniform()) if soft and rng.random() < 0.8 else None
        return Lane3D(points=pts, visibility=vis, score=score)

    def curves(n):
        stored = [Curve2D((0.0, 0.0, 0.0, 0.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(0, camera.image_size[1]), rng.uniform(0, 300),
                          rng.uniform(400, 720), float(rng.uniform()))
                  for _ in range(n)]
        if n and rng.random() < 0.3:
            stored[rng.integers(0, n)] = None  # one missing: the side is fit
        return stored if rng.random() < 0.3 else None

    slots = np.arange(-2.0, 3.0) * 3.7
    n_gt, n_pred = int(rng.integers(0, 5)), int(rng.integers(0, 6))
    gts = [lane(slots[k] + rng.uniform(-0.3, 0.3), rng.random() < 0.3, False)
           for k in range(n_gt)]
    widths = rng.random() < 0.6
    preds = [lane(slots[k % 5] + rng.uniform(-0.5, 0.5), widths or rng.random() < 0.5,
                  True) for k in range(n_pred)]
    uncertainties = None
    if widths and n_pred:
        uncertainties = [rng.uniform(0.02, 0.5, (ANCHORS.size - 1, 2)) for _ in preds]
    return FrameRecord(name, camera, gts, pred_lanes=preds, gt_curves=curves(n_gt),
                       pred_curves=curves(n_pred), pred_uncertainties=uncertainties)


def random_records(rng, n):
    """n random frames the oracle scores without error."""
    records = []
    while len(records) < n:
        record = random_record(rng, f"f{len(records)}")
        if isinstance(oracle_outcome([record]), list):
            records.append(record)
    return records


def oracle_outcome(records, grid=SampleGrid(), config=cli.LossConfig()):
    out = []
    for record in records:
        try:
            gt_l, gt_c, pred_l, pred_c, unc = loss_oracle.frame_inputs(
                record, grid.y_anchors)
            out.append(loss_oracle.loss_total(
                FrameGroundTruth(gt_l, gt_c), FramePrediction(pred_l, pred_c, unc),
                record.camera, grid, config))
        except Exception as exc:  # noqa: BLE001 - compared by type and text
            return type(exc), str(exc)
    return [breakdown_bits(b) for b in out]


def block_outcome(records, grid=SampleGrid(), config=cli.LossConfig()):
    try:
        return [breakdown_bits(b) for b in losses._loss_records(records, grid, config)]
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


def breakdown_bits(b):
    return ({k: None if v is None else v.hex() for k, v in b.as_dict().items()},
            b.match.pairs, b.match.total_cost.hex())


def spoiled_record(*hows):
    """A frame whose gathering or scoring fails with the named error; given
    several kinds, each spoils its own lanes of the one frame."""
    camera = CAMERAS[0]

    def lane(x, y, z=0.0, vis=None):
        return Lane3D(points=np.stack([np.full(y.size, x), y, np.full(y.size, z)], 1),
                      visibility=np.ones(y.size) if vis is None else vis)

    off_grid = np.linspace(5.0, 100.0, 12)
    gts = [lane(1.8, off_grid), lane(-1.8, off_grid)]
    preds = [lane(1.9, ANCHORS), lane(-1.7, ANCHORS)]
    widths = [np.full((19, 2), 0.2), np.full((19, 2), 0.2)]
    for how in hows:
        if how == "DegenerateLane":
            gts[1] = lane(-1.8, off_grid, vis=np.eye(12)[4])
        elif how == "BehindCamera":
            gts[0] = lane(1.8, off_grid, z=500.0)
        elif how == "BehindCamera-one":  # the others in view
            preds[1].points[0, 2] = 500.0
        elif how == "Underdetermined-row":  # at the height of a level camera
            camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                                 height=1.5, pitch=0.0, image_size=(720, 960))
            gts[1] = lane(-1.8, off_grid, z=1.5)
        elif how == "MissingField":
            preds[1] = lane(400.0, ANCHORS)
        elif how == "Underdetermined":
            vis = np.zeros(20)
            vis[10:13] = 1.0
            preds[0] = lane(1.9, ANCHORS, vis=vis)
        elif how == "Underdetermined-params":
            # one lane with 4 points in view, on 4 anchors: 4 points for 5 parameters
            gts = [lane(1.8, np.array([7.0, 12.0, 20.0, 26.0, 60.0, 100.0]),
                        vis=np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))]
        elif how == "NumericallySingular":
            widths[1][6] = (0.2, 1e-7)
        elif how == "ConfigError":
            preds[0] = lane(1.9, off_grid)
            widths[0] = widths[0][:11]
        elif how == "NumericallySingular-loc":  # out of the image, so not fit
            preds[0].points[6, 0] = 1e308
            widths = None
    return FrameRecord("spoiled_" + "+".join(hows), camera, gts, pred_lanes=preds,
                       pred_uncertainties=widths)


GATHER_SPOILS = ("DegenerateLane", "BehindCamera", "BehindCamera-one", "MissingField",
                 "Underdetermined", "Underdetermined-params", "Underdetermined-row",
                 "NumericallySingular", "ConfigError", "NumericallySingular-loc")


# Each kind's check, in the order a frame's checks run, and the parts of
# the frame it spoils.  Underdetermined-row is left out: its level camera
# moves every other lane's projection.
_SPOIL_CHECK = {
    "DegenerateLane": (0, {"gt1"}),
    "BehindCamera": (1, {"gt0"}),
    "Underdetermined-params": (2, {"gt0", "gt1"}),
    "BehindCamera-one": (3, {"pred1"}),
    "MissingField": (3, {"pred1"}),
    "Underdetermined": (4, {"pred0"}),
    "ConfigError": (5, {"pred0", "widths0"}),
    "NumericallySingular": (6, {"widths1"}),
    "NumericallySingular-loc": (7, {"pred0", "widths0", "widths1"}),
}
WITHIN_FRAME_PAIRS = [
    (a, b) for a, (stage_a, parts_a) in _SPOIL_CHECK.items()
    for b, (stage_b, parts_b) in _SPOIL_CHECK.items()
    if stage_a < stage_b and not parts_a & parts_b
]


class TestLossBlockOracle:
    def test_random_frames_in_mixed_blocks(self):
        rng = np.random.default_rng(77)
        records = random_records(rng, 220)
        want = oracle_outcome(records)
        assert isinstance(want, list)
        stored = sum(r.gt_curves is not None and all(c is not None for c in r.gt_curves)
                     for r in records)
        assert stored >= 20 and sum(not r.gt_lanes for r in records) >= 20
        assert sum(b[0]["loss_unc"] not in (None, "0x0.0p+0") for b in want) >= 60
        start = 0
        while start < len(records):
            stop = start + int(rng.integers(1, 2 * losses._LOSS_BLOCK))
            assert block_outcome(records[start:stop]) == want[start:stop]
            start = stop

    @pytest.mark.parametrize("how", GATHER_SPOILS)
    @pytest.mark.parametrize("at", [0, 6, 13])
    def test_spoiled_frame_raises_as_the_oracle(self, how, at):
        rng = np.random.default_rng(3)
        records = random_records(rng, 14)
        records[at] = spoiled_record(how)
        want = oracle_outcome(records)
        assert isinstance(want, tuple) and want[0].__name__ == how.split("-")[0]
        assert block_outcome(records) == want

    @pytest.mark.parametrize("first, second", [
        ("NumericallySingular", "MissingField"),
        ("MissingField", "NumericallySingular"),
        ("BehindCamera", "DegenerateLane"),
        ("Underdetermined", "ConfigError"),
    ])
    def test_earlier_frame_error_wins(self, first, second):
        rng = np.random.default_rng(4)
        records = random_records(rng, 10)
        records[3], records[7] = spoiled_record(first), spoiled_record(second)
        want = oracle_outcome(records)
        assert want[0].__name__ == first.split("-")[0]
        assert block_outcome(records) == want

    @pytest.mark.parametrize("first, second", WITHIN_FRAME_PAIRS)
    def test_first_check_in_frame_order_names_the_error(self, first, second):
        # Spoiled two ways, a frame raises its earlier check's error: the
        # grid, then the ground truths' fit (each lane, then the side),
        # then the predictions', then the widths, then the divergences,
        # then each term's finiteness.
        rng = np.random.default_rng(5)
        records = random_records(rng, 4)
        records[2] = spoiled_record(second, first)
        want = oracle_outcome(records)
        assert want[0].__name__ == first.split("-")[0]
        assert block_outcome(records) == want


def test_loss_block_path_avoids_lane_and_curve_calls(tmp_path, monkeypatch):
    # Gathering and scoring run as array passes: no per-lane projection,
    # resampling or fit check and no per-curve sampling, and one
    # assignment per frame.
    from lane3d import geometry

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-lane or per-curve call")

    for module in (geometry, cli, losses):
        for name in ("sample_curve", "project_ground_to_image", "_check_frame",
                     "resample_at_y"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    calls = []
    real = losses.hungarian

    def counted(cost):
        calls.append(np.shape(cost))
        return real(cost)

    monkeypatch.setattr(losses, "hungarian", counted)
    gt, pred = write_scored_scenario(tmp_path)
    out = tmp_path / "loss.json"
    assert run("loss", "--gt", str(gt), "--pred", str(pred), "--out", str(out)) == 0
    assert len(calls) == 40
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SCORED_LOSS


def test_loss_with_an_overflowing_width_is_typed(tmp_path, capsys):
    # A finite but huge width overflows the divergence: exit 1 naming it,
    # no warning and no report, where Infinity was once written.
    gt, pred = write_scored_scenario(tmp_path, frames=3)

    def widen(obj):
        for lane in obj["lanes"]:
            lane["uncertainty"] = [[1e308, h] for _, h in lane["uncertainty"]]

    edit_first_record(pred, widen)
    out = tmp_path / "loss.json"
    assert run("loss", "--gt", str(gt), "--pred", str(pred), "--out", str(out)) == 1
    assert "divergence is not finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def write_fit_inputs(tmp_path, n_rows=40):
    camera = CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                         height=1.5, pitch=0.05, image_size=(720, 960))
    rho = (30000.0, 300.0, 120.0, 0.0)
    lanes = []
    for bp, bd in ((-0.15, 200.0), (0.05, 480.0), (0.3, 700.0)):
        curve = Curve2D(rho=rho, beta_prime=bp, beta_dprime=bd,
                        v_low=380.0, v_up=719.0)
        u, v, m = sample_curve(curve, camera, SampleGrid(j_prime=n_rows))
        lanes.append([[float(a), float(b)]
                      for a, b, ok in zip(u, v, m) if ok])
    frame_path = tmp_path / "frame2d.json"
    frame_path.write_text(json.dumps({"lanes": lanes}))
    camera_path = tmp_path / "camera.json"
    camera_path.write_text(json.dumps({
        "fx": 1000.0, "fy": 1000.0, "cx": 480.0, "cy": 360.0,
        "height": 1.5, "pitch": 0.05, "image_h": 720, "image_w": 960,
    }))
    return frame_path, camera_path


def test_fit_recovers_parameters(tmp_path, capsys):
    frame_path, camera_path = write_fit_inputs(tmp_path)
    out = tmp_path / "fit.json"
    assert run("fit", "--frame-2d", str(frame_path), "--camera",
               str(camera_path), "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "rho" in stdout
    payload = json.loads(out.read_text())
    assert payload["rms"] < 1e-6
    assert abs(payload["lanes"][0]["beta_prime"] - (-0.15)) < 1e-6
    assert abs(payload["lanes"][2]["beta_dprime"] - 700.0) < 1e-4


# sha256 of the `fit` reports on write_fit_inputs, in each curve form
GOLDEN_FIT = {
    "rational": "79adc9b97067b6f957c06f9ff31846627e29c6191541da1b68a0a1af2a97b6ce",
    "poly3": "eda78412c0744391ffce09ee1ac1aec875449bebe37f46d60853a592db9a7233",
}


def test_fit_reports_match_golden_digests(tmp_path):
    frame_path, camera_path = write_fit_inputs(tmp_path)
    for form, digest in GOLDEN_FIT.items():
        out = tmp_path / f"fit_{form}.json"
        assert run("fit", "--frame-2d", str(frame_path), "--camera",
                   str(camera_path), "--form", form, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, form


def test_fit_underdetermined_is_exit_6(tmp_path):
    frame_path = tmp_path / "tiny.json"
    frame_path.write_text(json.dumps(
        {"lanes": [[[100.0, 400.0], [110.0, 500.0], [120.0, 600.0]]]}
    ))
    _, camera_path = write_fit_inputs(tmp_path)
    assert run("fit", "--frame-2d", str(frame_path), "--camera",
               str(camera_path)) == 6


def test_fit_malformed_inputs_are_exit_3(tmp_path):
    _, camera_path = write_fit_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("fit", "--frame-2d", str(bad), "--camera",
               str(camera_path)) == 3
    no_lanes = tmp_path / "nolanes.json"
    no_lanes.write_text(json.dumps({"something": 1}))
    assert run("fit", "--frame-2d", str(no_lanes), "--camera",
               str(camera_path)) == 3
    for lanes in (5, []):
        no_lanes.write_text(json.dumps({"lanes": lanes}))
        assert run("fit", "--frame-2d", str(no_lanes), "--camera",
                   str(camera_path)) == 3


def test_fit_missing_camera_file_is_exit_7(tmp_path):
    frame_path, _ = write_fit_inputs(tmp_path)
    assert run("fit", "--frame-2d", str(frame_path), "--camera",
               str(tmp_path / "absent.json")) == 7


@pytest.mark.parametrize("lane, code, words", [
    # ragged: the last point lacks its row
    ("[[100, 300], [110, 400], [120, 500], [130]]", 3, "[u, v]"),
    ("[[100, 300], [110, 400], [120, \"x\"], [130, 600]]", 3, "[u, v]"),
    ("[[100, 300], [110, 400], [120, NaN], [130, 600], [140, 700]]", 3,
     "finite"),
    # every point on one row: no rational or bias column can be fit
    ("[[100, 500], [110, 500], [120, 500], [130, 500], [140, 500]]", 6,
     "single row"),
    # one column past the 960-pixel image width
    ("[[100, 300], [110, 400], [960, 500], [130, 600]]", 3,
     "inside the image"),
])
def test_fit_bad_lane_is_typed(tmp_path, capsys, lane, code, words):
    _, camera_path = write_fit_inputs(tmp_path)
    frame_path = tmp_path / "bad_lane.json"
    frame_path.write_text('{"lanes": [[[100, 300], [110, 400], [120, 500], '
                          f'[130, 600]], {lane}]}}')
    assert run("fit", "--frame-2d", str(frame_path), "--camera",
               str(camera_path)) == code
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err
    if code == 3:
        assert "lanes[1]" in err


def test_fit_huge_integer_is_exit_3(tmp_path, capsys):
    _, camera_path = write_fit_inputs(tmp_path)
    frame_path = tmp_path / "huge.json"
    frame_path.write_text(json.dumps(
        {"lanes": [[[100, 300], [110, 10**400 - 1], [120, 500]]]}))
    assert run("fit", "--frame-2d", str(frame_path), "--camera",
               str(camera_path)) == 3
    assert "(line 1, field lanes[0])" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reports across CPU kernels
# ---------------------------------------------------------------------------

# Every report, and synth's files, hold the same bytes under other BLAS
# kernels and with NumPy's AVX-512 loops off: no operation behind them
# goes through BLAS or LAPACK, or through a NumPy loop whose result
# depends on the CPU's dispatch.
CPU_VARIANTS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "SandyBridge"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}

CPU_RUNS = """
import sys
import lane3d

gt, pred, scored_gt, scored_pred, frame, camera, out = sys.argv[1:]
runs = {
    "once": ["eval", "--gt", gt, "--pred", pred, "--protocol", "once",
             "--tau-iou", "0.65"],
    "mbd": ["eval", "--gt", gt, "--pred", pred, "--protocol", "mbd",
            "--tau-iou", "0.65"],
    "loss": ["loss", "--gt", gt, "--pred", pred],
    "scored-loss": ["loss", "--gt", scored_gt, "--pred", scored_pred],
    "fit-rational": ["fit", "--frame-2d", frame, "--camera", camera],
    "fit-poly3": ["fit", "--frame-2d", frame, "--camera", camera, "--form", "poly3"],
    "synth": ["synth", "--frames", "6", "--lanes", "3", "--sigma-w0", "0.1",
              "--seed", "7", "--sigma-w-slope", "0.001", "--sigma-h0", "0.02",
              "--emit-pred", f"{out}.synth-pred"],
}
for name, argv in runs.items():
    assert lane3d.main([*argv, "--out", f"{out}.{name}"]) == 0, name
"""


@pytest.fixture(scope="module")
def cpu_inputs(tmp_path_factory):
    """GOLDEN_REPORTS' scenario, write_scored_scenario and write_fit_inputs."""
    path = tmp_path_factory.mktemp("cpu_inputs")
    gt, pred = path / "gt.jsonl", path / "pred.jsonl"
    assert run("synth", "--frames", "40", "--seed", "5", "--sigma-w0", "0.1",
               "--out", str(gt), "--emit-pred", str(pred)) == 0
    return (gt, pred, *write_scored_scenario(path), *write_fit_inputs(path))


@pytest.mark.parametrize("variant", CPU_VARIANTS)
def test_reports_do_not_depend_on_the_cpu_kernels(tmp_path, cpu_inputs, variant):
    out = tmp_path / "report"
    src = str(Path(lane3d.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **CPU_VARIANTS[variant],
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", CPU_RUNS, *map(str, cpu_inputs),
                           str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = {
        "once": GOLDEN_IOU_REPORTS[("eval", "once")],
        "mbd": GOLDEN_IOU_REPORTS[("eval", "mbd")],
        "loss": GOLDEN_REPORTS[("loss", None)],
        "scored-loss": GOLDEN_SCORED_LOSS,
        "fit-rational": GOLDEN_FIT["rational"],
        "fit-poly3": GOLDEN_FIT["poly3"],
    }
    for name, digest in want.items():
        assert hashlib.sha256(Path(f"{out}.{name}").read_bytes()).hexdigest() \
            == digest, name
    assert tuple(hashlib.sha256(Path(f"{out}.{name}").read_bytes()).hexdigest()
                 for name in ("synth", "synth-pred")) == GOLDEN_SYNTH


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def run_python(*args):
    src = str(Path(lane3d.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_lane3d_runs_without_runtime_warning():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "lane3d", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: lane3d" in proc.stdout


IMPORT_BUDGET = """
import sys
import lane3d

# the frame reader and the writers import orjson at their first file
unneeded = {"orjson", "numpy.ma", "numpy.random", "scipy", "hypothesis"}
if sys.argv[1:]:
    gt, pred, scored_gt, scored_pred = sys.argv[1:]
    for argv in (["eval", "--gt", gt, "--pred", pred, "--protocol", "once"],
                 ["sweep", "--gt", gt, "--pred", pred, "--protocol",
                  "openlane", "--taus", "0.5,1.5"],
                 ["loss", "--gt", scored_gt, "--pred", scored_pred]):
        assert lane3d.main(argv) == 0, argv
    unneeded = {"numpy.ma", "scipy"}
loaded = sorted(unneeded & set(sys.modules))
assert not loaded, loaded
"""


def test_import_does_not_load_orjson():
    # import lane3d in a fresh interpreter loads none of the slow-to-import
    # modules it does not need
    proc = run_python("-c", IMPORT_BUDGET)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy(tmp_path):
    # nor do eval, sweep and loss after it load numpy.ma or scipy
    gt, pred = synth(tmp_path, frames=2)
    scored = write_scored_scenario(tmp_path, frames=2)
    proc = run_python("-c", IMPORT_BUDGET, str(gt), str(pred), *map(str, scored))
    assert proc.returncode == 0, proc.stderr


def test_version_has_one_source():
    # pyproject.toml takes the package version from lane3d.__version__
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is flagged beta
        project = config.read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == lane3d.__version__
