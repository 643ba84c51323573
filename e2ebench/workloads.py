"""Seeded input generators and the CLI commands each workload runs.

The generators are the benchmark's own, independent of
``lane3d.generate_frames``, so a library change cannot change the inputs.
The same seed gives byte-identical JSONL files; frame ``k`` does not depend
on how many frames are written, so a shorter file is a prefix of a longer
one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

CAMERA = {
    "fx": 1000.0, "fy": 1000.0, "cx": 480.0, "cy": 360.0,
    "height": 1.5, "pitch": 0.05, "image_h": 720, "image_w": 960,
}
# The CLI's default 20 y-anchors (SampleGrid) that `loss` and `openlane`
# resample onto.
ANCHORS = np.linspace(3.0, 103.0, 20)
SPACING = 3.7
TAUS = "0.05:1.5:0.05"  # the 30-point sweep


def _lane(points, *, score=None, uncertainty=None) -> dict:
    obj = {
        "points": points.tolist(),
        "visibility": np.ones(len(points)).tolist(),
    }
    if score is not None:
        obj["score"] = score
    if uncertainty is not None:
        obj["uncertainty"] = uncertainty.tolist()
    return obj


def _line(k: int, lanes: list[dict]) -> str:
    obj = {"version": 1, "frame_id": f"f{k:06d}", "camera": CAMERA,
           "lanes": lanes}
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _dense_frame(rng):
    """6 straight lanes of 100 points, 3.7 m apart; 0.05 m lateral noise."""
    y = np.linspace(3.0, 103.0, 100)
    gts, preds = [], []
    for k in range(6):
        x = (k - 2.5) * SPACING + rng.normal(0, 0.5) + rng.normal(0, 0.01) * y
        pts = np.stack([x, y, np.zeros_like(y)], 1)
        noisy = pts.copy()
        noisy[:, 0] += rng.normal(0, 0.05, y.size)
        gts.append(_lane(pts))
        preds.append(_lane(noisy))
    return gts, preds


def _curved(rng, slot: int, n_slots: int, y: np.ndarray):
    """Smooth lane parameters: offset, heading, curvature, height."""
    x0 = (slot - (n_slots - 1) / 2.0) * SPACING + rng.uniform(-0.3, 0.3)
    heading = rng.uniform(-0.02, 0.02)
    curvature = rng.uniform(-0.002, 0.002)
    z0, z_slope = rng.uniform(0.0, 0.05), rng.uniform(-0.005, 0.005)

    def at(yy):
        return np.stack([x0 + heading * yy + 0.5 * curvature * yy * yy, yy,
                         z0 + z_slope * yy], 1)

    return at(y), at


def _synth_unc_frame(rng):
    """4 curved lanes; predictions on the anchors with uncertainty.

    Ground truths are sampled off the anchor grid (27 points over the
    anchors' 3..103 m), so `loss` and `openlane` resample them;
    predictions sit on the 20 anchors with 0.1 m lateral noise and carry
    one (lateral, vertical) width per segment and no curve.
    """
    y_gt = np.linspace(3.0, 103.0, 27)
    gts, preds = [], []
    for slot in range(4):
        pts, at = _curved(rng, slot, 4, y_gt)
        noisy = at(ANCHORS)
        noisy[:, 0] += rng.normal(0, 0.1, len(ANCHORS))
        y_mid = 0.5 * (ANCHORS[1:] + ANCHORS[:-1])
        unc = np.stack([0.1 + 0.002 * y_mid + rng.uniform(0, 0.05, y_mid.size),
                        0.05 + 0.001 * y_mid + rng.uniform(0, 0.02, y_mid.size)],
                       1)
        gts.append(_lane(pts))
        preds.append(_lane(noisy, score=float(rng.uniform(0.5, 1.0)),
                           uncertainty=unc))
    return gts, preds


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    frame_fn: object
    lanes: int  # GT and prediction lanes per frame
    # frames per command group, sized so that one call takes about 0.1 s
    # on a 2-core virtual machine: many short calls spread each command
    # over the whole run.  A sweep shares its eval's input so the sweep
    # row at the eval's threshold can be checked against it
    frames: dict
    synth_args: tuple  # `lane3d synth` arguments for this shape


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "dense_bcd",
            "6 GT + 6 pred lanes/frame, 100 pts/lane, 3.7 m apart, "
            "0.05 m lateral noise",
            _dense_frame,
            6,
            {"bcd": 10, "openlane": 10, "once": 1, "mbd": 1, "loss": 4,
             "synth": 64},
            ("--lanes", "6", "--sigma-w0", "0.05"),
        ),
        Workload(
            "synth_unc",
            "4 GT lanes/frame of 27 pts off the y-anchors; 4 pred lanes of "
            "20 pts on the anchors, 0.1 m lateral noise, |curvature| <= "
            "0.002, per-segment uncertainty, no curves",
            _synth_unc_frame,
            4,
            {"bcd": 20, "openlane": 16, "once": 3, "mbd": 3, "loss": 4,
             "synth": 64},
            ("--lanes", "4", "--sigma-w0", "0.1"),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, n_frames: int,
                 gt_path, pred_path) -> None:
    """Write ``n_frames`` ground-truth and prediction frames for ``seed``."""
    rng = np.random.default_rng([seed, 20251113])
    with open(gt_path, "w", encoding="utf-8") as gt_file, \
            open(pred_path, "w", encoding="utf-8") as pred_file:
        for k in range(n_frames):
            gts, preds = workload.frame_fn(rng)
            gt_file.write(_line(k, gts))
            pred_file.write(_line(k, preds))
