"""Curve-level matching cost and reference training losses.

The total loss for one frame splits into a point part and a curve part:

* point part = ``gamma1 * uncertainty + visibility + location``,
* curve part = classification (cross-entropy on curve confidence) plus
  the curve-fitting terms (sampled-u L1 and the two extent boundaries).

Matching between ground-truth and predicted lanes happens at the curve
level: the cost of pairing GT curve ``k`` with prediction ``k_hat`` is
``gamma4 * (1 - confidence)`` plus the same fitting terms the curve loss
would charge, so the assignment minimizes the loss it precedes.  Rows of
the cost matrix are ground truths, columns are predictions.

Conventions shared by all loss terms:

* only anchors where the ground truth is visible contribute location
  terms; a segment contributes an uncertainty term only when both of its
  ground-truth endpoints are visible;
* probabilities are clamped to [1e-7, 1 - 1e-7] before any logarithm,
  so hard labels yield a small positive residue instead of infinity;
* unmatched predictions contribute only a background classification
  term; ground truths without a matched prediction contribute nothing
  (there is no prediction to score them against);
* sums use exact (fsum) accumulation so totals are order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnchorMismatch
from .gaussians import segment_symmetric_klds
from .geometry import CameraModel, Curve2D, Lane3D, SampleGrid, sample_curve
from .matching import MatchResult, hungarian

__all__ = [
    "PROB_CLAMP",
    "LossConfig",
    "FramePrediction",
    "FrameGroundTruth",
    "LossBreakdown",
    "curve_match_cost",
    "loss_loc",
    "loss_vis",
    "loss_unc",
    "loss_curve",
    "loss_total",
]

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossConfig:
    """Weights of the loss terms.

    ``gamma`` holds, in order: the uncertainty weight inside the point
    loss, the x and z weights of the location loss, the classification
    weight, the sampled-u weight, and the extent-boundary weight.
    ``background_weight`` scales the classification term of unmatched
    (background) predictions; 1.0 leaves it unweighted.
    """

    gamma: tuple[float, float, float, float, float, float] = (
        0.5,
        2.0,
        10.0,
        3.0,
        5.0,
        2.0,
    )
    background_weight: float = 1.0

    def __post_init__(self):
        gamma = tuple(float(g) for g in self.gamma)
        if len(gamma) != 6:
            raise ValueError(f"gamma must have 6 entries, got {len(gamma)}")
        if any(g < 0 for g in gamma):
            raise ValueError(f"gamma weights must be >= 0, got {gamma}")
        object.__setattr__(self, "gamma", gamma)
        bw = float(self.background_weight)
        if bw < 0:
            raise ValueError(f"background_weight must be >= 0, got {bw}")
        object.__setattr__(self, "background_weight", bw)


def _check_lane_curve_lists(lanes, curves, who: str) -> None:
    if len(lanes) != len(curves):
        raise ValueError(
            f"{who}: {len(lanes)} lanes but {len(curves)} curves; "
            "lane i must correspond to curve i"
        )


@dataclass(frozen=True)
class FrameGroundTruth:
    """Ground-truth lanes of one frame with their image-space curves."""

    lanes: list[Lane3D]
    curves: list[Curve2D]

    def __post_init__(self):
        _check_lane_curve_lists(self.lanes, self.curves, "ground truth")


@dataclass(frozen=True)
class FramePrediction:
    """Predicted lanes, curves, and optional per-segment uncertainties.

    ``uncertainties[i]`` lists ``(lateral, vertical)`` widths for the
    segments of lane ``i`` — one entry per consecutive point pair.
    ``None`` means the predictor supplies no uncertainties; the
    uncertainty loss is then reported absent rather than zero.
    """

    lanes: list[Lane3D]
    curves: list[Curve2D]
    uncertainties: list[list[tuple[float, float]]] | None = None

    def __post_init__(self):
        _check_lane_curve_lists(self.lanes, self.curves, "prediction")
        if self.uncertainties is not None:
            if len(self.uncertainties) != len(self.lanes):
                raise ValueError(
                    f"{len(self.uncertainties)} uncertainty lists for "
                    f"{len(self.lanes)} lanes"
                )
            for i, (lane, unc) in enumerate(
                zip(self.lanes, self.uncertainties)
            ):
                if len(unc) != len(lane.points) - 1:
                    raise ValueError(
                        f"lane {i}: {len(unc)} segment uncertainties for "
                        f"{len(lane.points)} points (need points - 1)"
                    )


@dataclass(frozen=True)
class LossBreakdown:
    """Itemized losses for one frame.

    ``loss_unc`` is the raw (unweighted) uncertainty sum and is ``None``
    when the prediction carries no uncertainties.  ``loss_point`` already
    includes the ``gamma1`` weighting; ``loss_curve`` is the sum of its
    classification and fitting parts.  ``total`` is exactly
    ``loss_point + loss_curve``.
    """

    loss_unc: float | None
    loss_vis: float
    loss_loc: float
    loss_point: float
    loss_ce: float
    loss_fit: float
    loss_curve: float
    total: float
    match: MatchResult = field(compare=False)

    def as_dict(self) -> dict:
        return {
            "loss_unc": self.loss_unc,
            "loss_vis": self.loss_vis,
            "loss_loc": self.loss_loc,
            "loss_point": self.loss_point,
            "loss_ce": self.loss_ce,
            "loss_fit": self.loss_fit,
            "loss_curve": self.loss_curve,
            "total": self.total,
        }


def _clamped_log(p: float) -> float:
    return math.log(min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP))


def _fit_matrix(
    gt_curves: list[Curve2D],
    pred_curves: list[Curve2D],
    camera: CameraModel,
    grid: SampleGrid,
    config: LossConfig,
) -> np.ndarray:
    """Fitting cost of every (ground truth, prediction) pair: sampled-u L1
    over rows valid in both curves, plus the two extent-boundary absolute
    differences.  Each curve is sampled once."""
    gt_samples = [sample_curve(c, camera, grid) for c in gt_curves]
    pred_samples = [sample_curve(c, camera, grid) for c in pred_curves]
    fit = np.zeros((len(gt_curves), len(pred_curves)))
    for k, (gt, (u_gt, _, m_gt)) in enumerate(zip(gt_curves, gt_samples)):
        for j, (pred, (u_pred, _, m_pred)) in enumerate(
            zip(pred_curves, pred_samples)
        ):
            both = (m_gt & m_pred).astype(bool)
            u_term = float(np.abs(u_pred[both] - u_gt[both]).sum())
            extent = abs(pred.v_low - gt.v_low) + abs(pred.v_up - gt.v_up)
            fit[k, j] = config.gamma[4] * u_term + config.gamma[5] * extent
    return fit


def _match_cost(
    fit: np.ndarray, pred_curves: list[Curve2D], config: LossConfig
) -> np.ndarray:
    confidence = np.array([pred.confidence for pred in pred_curves])
    return config.gamma[3] * (1.0 - confidence) + fit


def curve_match_cost(
    gt_curves: list[Curve2D],
    pred_curves: list[Curve2D],
    camera: CameraModel,
    grid: SampleGrid,
    config: LossConfig | None = None,
) -> np.ndarray:
    """Pairwise matching cost; rows are ground truths, columns predictions.

    ``cost[k, k_hat] = gamma4 * (1 - confidence_k_hat) + fitting terms``.
    """
    config = config or LossConfig()
    fit = _fit_matrix(gt_curves, pred_curves, camera, grid, config)
    return _match_cost(fit, pred_curves, config)


def _paired_lanes(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    match: MatchResult,
) -> list[tuple[int, Lane3D, Lane3D]]:
    out = []
    for k, j in match.pairs:
        gt, pred = gt_lanes[k], pred_lanes[j]
        if len(gt.points) != len(pred.points):
            raise AnchorMismatch(
                f"matched lanes gt[{k}] and pred[{j}] have "
                f"{len(gt.points)} vs {len(pred.points)} anchor points"
            )
        if np.abs(gt.points[:, 1] - pred.points[:, 1]).max() > 1e-9:
            raise AnchorMismatch(
                f"matched lanes gt[{k}] and pred[{j}] are not on the same "
                "y-anchors; resample before computing losses"
            )
        out.append((k, gt, pred))
    return out


def loss_loc(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    match: MatchResult,
    config: LossConfig | None = None,
) -> float:
    """L1 location loss over visible ground-truth anchors of matched lanes."""
    config = config or LossConfig()
    g2, g3 = config.gamma[1], config.gamma[2]
    terms = []
    for _, gt, pred in _paired_lanes(gt_lanes, pred_lanes, match):
        visible = gt.visibility > 0.5
        dx = np.abs(pred.points[visible, 0] - gt.points[visible, 0])
        dz = np.abs(pred.points[visible, 2] - gt.points[visible, 2])
        terms.extend(g2 * d for d in dx)
        terms.extend(g3 * d for d in dz)
    return math.fsum(terms)


def loss_vis(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    match: MatchResult,
) -> float:
    """Mean binary cross-entropy of visibility over matched lanes' anchors."""
    terms = []
    for _, gt, pred in _paired_lanes(gt_lanes, pred_lanes, match):
        for label, p in zip(gt.visibility, pred.visibility):
            terms.append(
                -(
                    label * _clamped_log(p)
                    + (1.0 - label) * _clamped_log(1.0 - p)
                )
            )
    if not terms:
        return 0.0
    return math.fsum(terms) / len(terms)


def loss_unc(
    gt_lanes: list[Lane3D],
    pred: FramePrediction,
    match: MatchResult,
) -> float:
    """Unweighted sum of symmetric divergences over valid segments.

    A segment is valid when both of its ground-truth endpoints are
    visible.  Each divergence compares the predicted segment's Gaussian
    with its ground-truth counterpart, both carrying the predicted
    uncertainty widths.  The frame's valid segments are scored in one
    ``segment_symmetric_klds`` batch, which raises for the first bad
    segment in lane-pair then segment order.
    """
    if pred.uncertainties is None:
        raise ValueError(
            "prediction carries no uncertainties; the uncertainty loss "
            "is undefined (report it absent, not zero)"
        )
    pred_a, pred_b, gt_a, gt_b, widths = [], [], [], [], []
    assignment = match.assignment
    for k, gt, pred_lane in _paired_lanes(gt_lanes, pred.lanes, match):
        unc = pred.uncertainties[assignment[k]]
        vis = gt.visibility > 0.5
        valid = np.flatnonzero(vis[:-1] & vis[1:])
        pred_a.append(pred_lane.points[valid])
        pred_b.append(pred_lane.points[valid + 1])
        gt_a.append(gt.points[valid])
        gt_b.append(gt.points[valid + 1])
        widths.extend(unc[seg] for seg in valid)
    if not widths:
        return 0.0
    divergences = segment_symmetric_klds(
        np.concatenate(pred_a),
        np.concatenate(pred_b),
        np.concatenate(gt_a),
        np.concatenate(gt_b),
        widths,
    )
    return math.fsum(divergences.tolist())


def _curve_terms(
    gt_curves: list[Curve2D],
    pred_curves: list[Curve2D],
    match: MatchResult,
    fit: np.ndarray,
    config: LossConfig,
) -> tuple[float, float]:
    """(classification sum, fitting sum) over matched and background curves.

    ``fit`` is the pairs' fitting-cost matrix from ``_fit_matrix``.
    """
    ce_terms = []
    fit_terms = []
    for k, j in match.pairs:
        gt, pred = gt_curves[k], pred_curves[j]
        ce_terms.append(config.gamma[3] * -_clamped_log(pred.confidence))
        if gt.confidence != 0.0:
            fit_terms.append(float(fit[k, j]))
    for j, pred in enumerate(pred_curves):
        if j not in match.matched_cols:
            ce_terms.append(
                config.gamma[3]
                * config.background_weight
                * -_clamped_log(1.0 - pred.confidence)
            )
    return math.fsum(ce_terms), math.fsum(fit_terms)


def loss_curve(
    gt_curves: list[Curve2D],
    pred_curves: list[Curve2D],
    match: MatchResult,
    camera: CameraModel,
    grid: SampleGrid,
    config: LossConfig | None = None,
) -> float:
    """Classification plus fitting loss over curves.

    Matched predictions are scored as the lane class against their
    ground truth; unmatched predictions as background.
    """
    config = config or LossConfig()
    fit = _fit_matrix(gt_curves, pred_curves, camera, grid, config)
    ce, fit_sum = _curve_terms(gt_curves, pred_curves, match, fit, config)
    return ce + fit_sum


def loss_total(
    gt: FrameGroundTruth,
    pred: FramePrediction,
    camera: CameraModel,
    grid: SampleGrid | None = None,
    config: LossConfig | None = None,
) -> LossBreakdown:
    """Match curves, compute every term, and assemble the frame total.

    ``total = loss_point + loss_curve`` exactly, with
    ``loss_point = gamma1 * loss_unc + loss_vis + loss_loc`` (the
    uncertainty term is dropped, not zeroed, when the prediction has no
    uncertainties).
    """
    grid = grid or SampleGrid()
    config = config or LossConfig()
    fit_cost = _fit_matrix(gt.curves, pred.curves, camera, grid, config)
    match = hungarian(_match_cost(fit_cost, pred.curves, config))

    vis = loss_vis(gt.lanes, pred.lanes, match)
    loc = loss_loc(gt.lanes, pred.lanes, match, config)
    unc = (
        loss_unc(gt.lanes, pred, match)
        if pred.uncertainties is not None
        else None
    )
    ce, fit = _curve_terms(gt.curves, pred.curves, match, fit_cost, config)
    curve = ce + fit
    if unc is None:
        point = vis + loc
    else:
        point = config.gamma[0] * unc + vis + loc
    return LossBreakdown(
        loss_unc=unc,
        loss_vis=vis,
        loss_loc=loc,
        loss_point=point,
        loss_ce=ce,
        loss_fit=fit,
        loss_curve=curve,
        total=point + curve,
        match=match,
    )
