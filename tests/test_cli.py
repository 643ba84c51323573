"""End-to-end CLI tests: exit codes, determinism, and config precedence."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import loss_oracle

import lane3d
from lane3d import cli
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
    assert err.startswith("error: ") and "2 visible points" in err


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
# valid in both curves became boolean (it had picked rows 0 and 1).
GOLDEN_REPORTS = {
    ("eval", "bcd"):
        "da27fc4fe39861ff3f06788829697185becea456d2ff75227dcf6b850624d642",
    ("eval", "openlane"):
        "21581963e6a87925b89975fc4883a9c834df47832261a0a6919c04e23900a9d1",
    ("sweep", "bcd"):
        "da81aee8d9dfeb5da7940bf185f73d10fbbc5ed0b4b1b37acae416cee649cf78",
    ("sweep", "openlane"):
        "5096c331e84e41354d5a792457bf70907204ad6bfd6ef34029bed5581a12d44e",
    ("loss", None):
        "a88c26e5dd9e42bf7a1dc8775ce8effc792f99b72eb0f2a09295d21dcae2b8cd",
}


def test_reports_match_golden_digests(tmp_path):
    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    assert run("synth", "--frames", "40", "--seed", "5", "--sigma-w0", "0.1",
               "--out", str(gt), "--emit-pred", str(pred)) == 0
    for (command, protocol), digest in GOLDEN_REPORTS.items():
        out = tmp_path / f"{command}_{protocol}"
        argv = [command, "--gt", str(gt), "--pred", str(pred)]
        if protocol is not None:
            argv += ["--protocol", protocol]
        if command == "sweep":
            argv += ["--taus", "0.05:1.5:0.05"]
        assert run(*argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, \
            (command, protocol)


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
GOLDEN_SCORED_LOSS = \
    "85e8adbca9b919ac0134d844c96cab935cb0d86c0b950cbe5165354bfd385d88"


def test_scored_loss_report_matches_golden_digest(tmp_path):
    gt, pred = write_scored_scenario(tmp_path)
    out = tmp_path / "loss.json"
    assert run("loss", "--gt", str(gt), "--pred", str(pred),
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert all(frame["loss_unc"] > 0.0 for frame in report["per_frame"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SCORED_LOSS


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
    assert run(*base, "--config", str(tmp_path / "absent.json")) == 7


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
    n = cli._LOSS_BLOCK + 1
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
        return [breakdown_bits(b) for b in cli._loss_block(records, grid, config)]
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


def breakdown_bits(b):
    return ({k: None if v is None else v.hex() for k, v in b.as_dict().items()},
            b.match.pairs, b.match.total_cost.hex())


def spoiled_record(how):
    """A frame whose gathering or scoring fails with the named error."""
    camera = CAMERAS[0]

    def lane(x, y, z=0.0, vis=None):
        return Lane3D(points=np.stack([np.full(y.size, x), y, np.full(y.size, z)], 1),
                      visibility=np.ones(y.size) if vis is None else vis)

    off_grid = np.linspace(5.0, 100.0, 12)
    gts = [lane(1.8, off_grid), lane(-1.8, off_grid)]
    preds = [lane(1.9, ANCHORS), lane(-1.7, ANCHORS)]
    widths = [np.full((19, 2), 0.2), np.full((19, 2), 0.2)]
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
    return FrameRecord(f"spoiled_{how}", camera, gts, pred_lanes=preds,
                       pred_uncertainties=widths)


GATHER_SPOILS = ("DegenerateLane", "BehindCamera", "BehindCamera-one", "MissingField",
                 "Underdetermined", "Underdetermined-params", "Underdetermined-row",
                 "NumericallySingular", "ConfigError")


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
            stop = start + int(rng.integers(1, 2 * cli._LOSS_BLOCK))
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


def test_loss_block_path_avoids_lane_and_curve_calls(tmp_path, monkeypatch):
    # Gathering and scoring run as array passes: no per-lane projection,
    # resampling or fit check and no per-curve sampling, and one
    # assignment per frame.
    from lane3d import geometry, losses

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


def test_import_does_not_load_scipy():
    proc = run_python("-c", "import lane3d, sys; assert not [m for m in "
                      "sys.modules if m.split('.')[0] == 'scipy']")
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
