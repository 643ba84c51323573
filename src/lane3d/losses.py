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
``lane3d loss`` hands its frame records to ``_loss_records``, which puts
their lanes on the anchor grid, fits the curves they do not store and
scores them in blocks through the block driver every command shares
(``report._blockwise``).

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
from typing import Sequence

import numpy as np

from .errors import (AnchorMismatch, ConfigError, Lane3DError, MissingField,
                     NumericallySingular)
from .gaussians import _log, segment_symmetric_klds
from .geometry import (_ANCHOR_TOL, CameraModel, Curve2D, Lane3D, SampleGrid,
                       _check_frame, _fit_flat, _image_points, _lane_columns,
                       _resample_lanes_at_y, _sample_curves, _visible_points,
                       project_ground_to_image)
from .matching import MatchResult, hungarian
from .report import _SIDES, _blockwise

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
    "loss_frames",
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
        if not all(0 <= g < math.inf for g in gamma):
            raise ValueError(f"gamma weights must be finite and >= 0, got {gamma}")
        object.__setattr__(self, "gamma", gamma)
        bw = float(self.background_weight)
        if not 0 <= bw < math.inf:
            raise ValueError(f"background_weight must be finite and >= 0, got {bw}")
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

    ``uncertainties[i]`` holds ``(lateral, vertical)`` widths for the
    segments of lane ``i`` — one row per consecutive point pair, as an
    (n - 1, 2) array or a list of pairs.
    ``None`` means the predictor supplies no uncertainties; the
    uncertainty loss is then reported absent rather than zero.
    """

    lanes: list[Lane3D]
    curves: list[Curve2D]
    uncertainties: list[np.ndarray | list[tuple[float, float]]] | None = None

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
                if np.shape(unc) != (len(lane.points) - 1, 2):
                    raise ValueError(
                        f"lane {i}: segment uncertainties of shape "
                        f"{np.shape(unc)} for {len(lane.points)} points "
                        "(need (points - 1, 2))"
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


# ── Block scorer ─────────────────────────────────────────────────────────
#
# Every loss is computed by one scorer over a block of frames packed into
# arrays.  ``loss_total`` and the single-term functions below are blocks
# of one frame; ``loss_frames`` and ``lane3d loss`` score many frames per
# block.  Each array pass uses the elementwise operations the terms are
# defined by, and each frame's sums are taken over its own slice
# (``math.fsum``; NumPy's pairwise sum for the fitting cost), so a frame
# scores the same whatever block it is in.  Blocks go through the block
# driver of every command (``report._blockwise``): a block that fails, in
# packing or scoring, is packed and scored again one frame at a time.

@dataclass
class _Side:
    """One side's lanes and curves of a block of frames.

    Lane i lies on rows ``starts[i]:starts[i + 1]`` of ``points`` (rows, 3)
    and ``visibility`` (rows,); frame f owns lanes and curves
    ``frames[f]:frames[f + 1]``.  A side packed without lanes has a lane
    of no rows per curve; one packed without curves has ``curves=None``.
    """

    points: np.ndarray
    visibility: np.ndarray
    starts: np.ndarray
    frames: np.ndarray
    curves: list[Curve2D] | None

    @classmethod
    def of(cls, lanes: list[list[Lane3D]] | None,
           curves: list[list[Curve2D]] | None) -> "_Side":
        """Pack per-frame lists of lanes or curves (or both, equally long)."""
        per_frame = lanes if lanes is not None else curves
        frames = np.cumsum([0] + [len(x) for x in per_frame])
        points, vis, sizes = _lane_columns([l for frame in lanes or () for l in frame])
        starts = (np.cumsum([0, *sizes]) if lanes is not None
                  else np.zeros(frames[-1] + 1, dtype=int))
        return cls(points, vis, starts, frames,
                   None if curves is None else [c for frame in curves for c in frame])


@dataclass
class _Block:
    """Frames packed for scoring.

    ``widths`` (prediction rows, 2) holds, on a prediction lane's row r,
    the (lateral, vertical) widths of its segment from row r to r + 1;
    it is read only in frames whose ``has_widths`` entry is set, and is
    None when no prediction lane has widths.  ``sizes`` holds each
    frame's image (H, W).
    """

    gt: _Side
    pred: _Side
    widths: np.ndarray | None
    has_widths: np.ndarray
    sizes: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.sizes.shape[0]


def _pack(frames: Sequence[tuple], sizes) -> _Block:
    """Pack frames of (gt lanes, gt curves, pred lanes, pred curves,
    uncertainties) for images of ``sizes``.  A column of lanes or curves
    may be None in every frame (no term reads it); uncertainties are None
    in a frame without them, else one (n - 1, 2) array-like per lane."""
    gt_lanes, gt_curves, pred_lanes, pred_curves, uncertainties = (
        None if all(x is None for x in column) else list(column)
        for column in zip(*frames))
    gt = _Side.of(gt_lanes, gt_curves)
    pred = _Side.of(pred_lanes, pred_curves)
    has_widths = np.array([frame[4] is not None for frame in frames], dtype=bool)
    widths = None
    if has_widths.any():
        widths = np.zeros((pred.points.shape[0], 2))
        for f in np.flatnonzero(has_widths).tolist():
            for lane, unc in enumerate(uncertainties[f], start=pred.frames[f]):
                rows = slice(pred.starts[lane], pred.starts[lane + 1] - 1)
                widths[rows] = np.asarray(unc, dtype=np.float64).reshape(-1, 2)
    return _Block(gt, pred, widths, has_widths,
                  np.array(sizes, dtype=np.int64).reshape(-1, 2))


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return _log(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


def _frame_sums(values: np.ndarray, frame: np.ndarray, n_frames: int):
    """``math.fsum`` of each frame's values, inf where it overflows;
    ``frame`` is non-decreasing."""
    cuts = np.searchsorted(frame, np.arange(n_frames + 1)).tolist()
    values = values.tolist()
    return [_fsum(values[a:b]) for a, b in zip(cuts, cuts[1:])]


def _fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose sum is beyond the double range
        return math.inf


def _masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values[i][mask[i]].sum()`` of every row i, bitwise.

    NumPy sums a selection of n entries pairwise, in a pattern set by n,
    so rows are summed in groups of equal count: each group's selected
    entries form contiguous rows of exactly that length.  Zero padding
    would change the pattern.
    """
    counts = mask.sum(axis=1)
    out = np.zeros(values.shape[0])
    # the counts present; np.unique would import numpy.ma (about 1 MB)
    for n in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        rows = np.flatnonzero(counts == n)
        out[rows] = values[rows][mask[rows]].reshape(-1, n).sum(axis=1)
    return out


@dataclass
class _Costs:
    """Every (ground truth, prediction) pair of each frame, frame by frame
    and row-major: its fitting cost and its matching cost."""

    fit: np.ndarray
    cost: np.ndarray
    starts: np.ndarray  # (frames + 1,): frame f's pairs
    shapes: list[tuple[int, int]]

    def matrix(self, f: int) -> np.ndarray:
        """Frame f's matching cost matrix; rows are ground truths."""
        return self.cost[self.starts[f]:self.starts[f + 1]].reshape(self.shapes[f])


def _costs(block: _Block, grid: SampleGrid, config: LossConfig) -> _Costs:
    """Fitting and matching costs: sampled-u L1 over rows valid in both
    curves, plus the two extent-boundary absolute differences; the
    matching cost adds ``gamma4 * (1 - confidence)``.  Every curve of the
    block is sampled in one evaluation."""
    gt, pred = block.gt, block.pred
    n_gt, n_pred = np.diff(gt.frames), np.diff(pred.frames)
    u_gt, _, m_gt = _sample_curves(
        gt.curves, np.repeat(block.sizes, n_gt, axis=0), grid.j_prime)
    u_pred, _, m_pred = _sample_curves(
        pred.curves, np.repeat(block.sizes, n_pred, axis=0), grid.j_prime)
    ext_gt = _curve_fields(gt.curves)
    ext_pred = _curve_fields(pred.curves)
    per_frame = n_gt * n_pred
    starts = np.cumsum(np.concatenate([[0], per_frame]))
    frame = np.repeat(np.arange(block.n_frames), per_frame)
    local = np.arange(starts[-1]) - starts[frame]
    k = gt.frames[frame] + local // n_pred[frame]
    j = pred.frames[frame] + local % n_pred[frame]
    u_term = _masked_row_sums(np.abs(u_pred[j] - u_gt[k]), m_gt[k] & m_pred[j])
    extent = (np.abs(ext_pred[j, 0] - ext_gt[k, 0])
              + np.abs(ext_pred[j, 1] - ext_gt[k, 1]))
    fit = config.gamma[4] * u_term + config.gamma[5] * extent
    cost = config.gamma[3] * (1.0 - ext_pred[j, 2]) + fit
    return _Costs(fit, cost, starts, list(zip(n_gt.tolist(), n_pred.tolist())))


def _curve_fields(curves: list[Curve2D]) -> np.ndarray:
    """(v_low, v_up, confidence) of each curve, (curves, 3)."""
    return np.array([(c.v_low, c.v_up, c.confidence) for c in curves],
                    dtype=np.float64).reshape(-1, 3)


def _match_arrays(block: _Block, matches: list[MatchResult]):
    """The matched pairs of every frame in order: (frame, gt lane, pred
    lane), the lanes numbered across the block."""
    pairs = np.array([(f, k, j) for f, m in enumerate(matches) for k, j in m.pairs],
                     dtype=np.int64).reshape(-1, 3)
    frame = pairs[:, 0]
    return frame, block.gt.frames[frame] + pairs[:, 1], \
        block.pred.frames[frame] + pairs[:, 2]


def _point_losses(block: _Block, frame: np.ndarray, g: np.ndarray,
                  p: np.ndarray, config: LossConfig, with_unc: bool):
    """Per frame (vis, loc, unc) of the matched pairs (frame, g, p); unc is
    None in frames without widths, or everywhere unless ``with_unc``.

    Raises AnchorMismatch for the block's first matched pair whose lanes
    differ in anchor count or anchor y.
    """
    gt, pred = block.gt, block.pred
    n_gt = gt.starts[g + 1] - gt.starts[g]
    n_pred = pred.starts[p + 1] - pred.starts[p]
    n = np.where(n_gt == n_pred, n_gt, 0)
    # every anchor of every matched pair, pair by pair
    pair = np.repeat(np.arange(g.shape[0]), n)
    offset = np.arange(pair.shape[0]) - np.repeat(np.cumsum(n) - n, n)
    rg, rp = gt.starts[g][pair] + offset, pred.starts[p][pair] + offset
    bad = n_gt != n_pred
    bad[pair[np.abs(gt.points[rg, 1] - pred.points[rp, 1]) > _ANCHOR_TOL]] = True
    if bad.any():
        q = int(np.argmax(bad))
        f = frame[q]
        k, j = g[q] - gt.frames[f], p[q] - pred.frames[f]
        if n_gt[q] != n_pred[q]:
            raise AnchorMismatch(
                f"matched lanes gt[{k}] and pred[{j}] have "
                f"{n_gt[q]} vs {n_pred[q]} anchor points")
        raise AnchorMismatch(
            f"matched lanes gt[{k}] and pred[{j}] are not on the same "
            "y-anchors; resample before computing losses")
    n_frames = block.n_frames
    at = frame[pair]
    label, prob = gt.visibility[rg], pred.visibility[rp]
    bce = -(label * _clamped_log(prob) + (1.0 - label) * _clamped_log(1.0 - prob))
    counts = np.bincount(at, minlength=n_frames).tolist()
    vis = [s / c if c else 0.0
           for s, c in zip(_frame_sums(bce, at, n_frames), counts)]

    seen = label > 0.5
    g2, g3 = config.gamma[1], config.gamma[2]
    with np.errstate(over="ignore"):  # an infinite term fails in _score
        loc_terms = np.stack([g2 * np.abs(pred.points[rp[seen], 0] - gt.points[rg[seen], 0]),
                              g3 * np.abs(pred.points[rp[seen], 2] - gt.points[rg[seen], 2])],
                             axis=1)
    loc = _frame_sums(loc_terms.ravel(), np.repeat(at[seen], 2), n_frames)

    unc = [None] * n_frames
    if with_unc and block.has_widths.any():
        # segments from a matched anchor whose both ground-truth ends are visible
        seg = np.flatnonzero((offset < n[pair] - 1) & block.has_widths[at] & seen)
        seg = seg[gt.visibility[rg[seg] + 1] > 0.5]
        sums = [0.0] * n_frames
        if seg.size:
            divergences = segment_symmetric_klds(
                pred.points[rp[seg]], pred.points[rp[seg] + 1],
                gt.points[rg[seg]], gt.points[rg[seg] + 1],
                block.widths[rp[seg]])
            sums = _frame_sums(divergences, at[seg], n_frames)
        unc = [s if w else None for s, w in zip(sums, block.has_widths.tolist())]
    return vis, loc, unc


def _curve_losses(block: _Block, costs: _Costs, frame: np.ndarray,
                  g: np.ndarray, p: np.ndarray, config: LossConfig):
    """Per frame (classification sum, fitting sum) over matched and
    background curves."""
    gt, pred = block.gt, block.pred
    conf_gt = _curve_fields(gt.curves)[:, 2]
    conf_pred = _curve_fields(pred.curves)[:, 2]
    matched = np.zeros(conf_pred.shape[0], dtype=bool)
    matched[p] = True
    background = np.flatnonzero(~matched)
    pred_frame = np.repeat(np.arange(block.n_frames), np.diff(pred.frames))
    ce_terms = np.concatenate([
        config.gamma[3] * -_clamped_log(conf_pred[p]),
        config.gamma[3] * config.background_weight
        * -_clamped_log(1.0 - conf_pred[background]),
    ])
    ce_frame = np.concatenate([frame, pred_frame[background]])
    order = np.argsort(ce_frame, kind="stable")
    ce = _frame_sums(ce_terms[order], ce_frame[order], block.n_frames)
    k, j = g - gt.frames[frame], p - pred.frames[frame]
    pair = costs.starts[frame] + k * np.diff(pred.frames)[frame] + j
    keep = conf_gt[g] != 0.0
    fit = _frame_sums(costs.fit[pair[keep]], frame[keep], block.n_frames)
    return ce, fit


def _score(block: _Block, grid: SampleGrid, config: LossConfig):
    costs = _costs(block, grid, config)
    matches = [hungarian(costs.matrix(f)) for f in range(block.n_frames)]
    frame, g, p = _match_arrays(block, matches)
    vis, loc, unc = _point_losses(block, frame, g, p, config, with_unc=True)
    ce, fit = _curve_losses(block, costs, frame, g, p, config)
    out = []
    for f, match in enumerate(matches):
        point = vis[f] + loc[f] if unc[f] is None \
            else config.gamma[0] * unc[f] + vis[f] + loc[f]
        curve = ce[f] + fit[f]
        out.append(LossBreakdown(
            loss_unc=unc[f], loss_vis=vis[f], loss_loc=loc[f],
            loss_point=point, loss_ce=ce[f], loss_fit=fit[f],
            loss_curve=curve, total=point + curve, match=match))
        for term, value in out[-1].as_dict().items():
            if value is not None and not math.isfinite(value):
                raise NumericallySingular(f"{term} is not finite")
    return out


# ── Public single-frame API: blocks of one ───────────────────────────────

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
    block = _pack([(None, gt_curves, None, pred_curves, None)], [camera.image_size])
    costs = _costs(block, grid, config)
    return costs.matrix(0)


def _lane_terms(gt_lanes, pred_lanes, match, config, uncertainties=None):
    block = _pack([(gt_lanes, None, pred_lanes, None, uncertainties)], [(1, 1)])
    frame, g, p = _match_arrays(block, [match])
    vis, loc, unc = _point_losses(block, frame, g, p, config,
                                  with_unc=uncertainties is not None)
    return vis[0], loc[0], unc[0]


def loss_loc(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    match: MatchResult,
    config: LossConfig | None = None,
) -> float:
    """L1 location loss over visible ground-truth anchors of matched lanes."""
    return _lane_terms(gt_lanes, pred_lanes, match, config or LossConfig())[1]


def loss_vis(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    match: MatchResult,
) -> float:
    """Mean binary cross-entropy of visibility over matched lanes' anchors."""
    return _lane_terms(gt_lanes, pred_lanes, match, LossConfig())[0]


def loss_unc(
    gt_lanes: list[Lane3D],
    pred: FramePrediction,
    match: MatchResult,
) -> float:
    """Unweighted sum of symmetric divergences over valid segments.

    A segment is valid when both of its ground-truth endpoints are
    visible.  Each divergence compares the predicted segment's Gaussian
    with its ground-truth counterpart, both carrying the predicted
    uncertainty widths.  The valid segments are scored in one
    ``segment_symmetric_klds`` batch, which raises for the first bad
    segment in lane-pair then segment order.
    """
    if pred.uncertainties is None:
        raise ValueError(
            "prediction carries no uncertainties; the uncertainty loss "
            "is undefined (report it absent, not zero)"
        )
    return _lane_terms(gt_lanes, pred.lanes, match, LossConfig(),
                       pred.uncertainties)[2]


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
    block = _pack([(None, gt_curves, None, pred_curves, None)], [camera.image_size])
    frame, g, p = _match_arrays(block, [match])
    ce, fit = _curve_losses(block, _costs(block, grid, config), frame, g, p,
                            config)
    return ce[0] + fit[0]


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
    return loss_frames([(gt, pred, camera)], grid, config)[0]


def loss_frames(
    frames: Sequence[tuple[FrameGroundTruth, FramePrediction, CameraModel]],
    grid: SampleGrid | None = None,
    config: LossConfig | None = None,
) -> list[LossBreakdown]:
    """``loss_total`` of each (ground truth, prediction, camera) frame,
    scored together in array passes.

    Every breakdown is bitwise the frame's own ``loss_total``.  A failing
    frame raises the error ``loss_total`` raises for it, and an earlier
    frame's error wins.
    """
    grid, config = grid or SampleGrid(), config or LossConfig()

    def score(frames):
        return _score(_pack([(gt.lanes, gt.curves, pred.lanes, pred.curves,
                              pred.uncertainties) for gt, pred, _ in frames],
                            [camera.image_size for _, _, camera in frames]),
                      grid, config)

    return list(_blockwise([frames], score)) if frames else []

# ── Frame records (``lane3d loss``): gather, fit and score ───────────────

# Frames gathered and scored together, whose curve fits are searched in
# one lockstep call.  Bounds the flat search the way chamfer._BLOCK_PAIRS
# bounds the raster: its grid step holds 2 columns x 33 candidates x the
# block's fitted points, up to two fits per frame (3.4 MB per array for
# 32 frames of 100-point sides).
_LOSS_BLOCK = 32


def _grid_lanes(lanes: list[Lane3D], anchors: np.ndarray):
    """Every lane put on the anchor grid, in array passes.

    Returns (on_grid, degenerate, points (lanes, anchors, 3), visibility
    (lanes, anchors)).  A lane whose points lie on the anchors keeps them;
    one off the grid is resampled (``resample_at_y``), unless it has fewer
    than two visible points (``degenerate``; left at zero).
    """
    points, vis, sizes = _lane_columns(lanes)
    n_lanes, n_anchors = sizes.shape[0], anchors.shape[0]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    near = np.flatnonzero(sizes == n_anchors)
    rows = starts[near, None] + np.arange(n_anchors)
    close = np.abs(points[rows, 1] - anchors).max(axis=1) <= _ANCHOR_TOL
    on_grid = np.zeros(n_lanes, dtype=bool)
    on_grid[near[close]] = True
    grid_pts = np.zeros((n_lanes, n_anchors, 3))
    grid_vis = np.zeros((n_lanes, n_anchors))
    grid_pts[near[close]], grid_vis[near[close]] = points[rows[close]], vis[rows[close]]
    lane_of = np.repeat(np.arange(n_lanes), sizes)
    seen = vis > 0.5
    n_seen = np.bincount(lane_of[seen], minlength=n_lanes)
    degenerate = ~on_grid & (n_seen < 2)
    off = ~on_grid & ~degenerate
    take = seen & off[lane_of]
    x, z, off_vis = _resample_lanes_at_y(
        points[take, 1], points[take, 0], points[take, 2],
        np.concatenate([[0], np.cumsum(n_seen[off])]), anchors)
    grid_pts[off] = np.stack([x, np.broadcast_to(anchors, x.shape), z], axis=-1)
    grid_vis[off] = off_vis
    return on_grid, degenerate, grid_pts, grid_vis


def _checked(side: int, lane: int | None, check, *args) -> None:
    """``check(*args)``, naming the side (0 or 1) and lane of its error."""
    try:
        check(*args)
    except Lane3DError as exc:
        exc.side, exc.lane = _SIDES[side], lane
        raise


def _gather(records, anchors: np.ndarray):
    """Gather, check and fit frame records in array passes over all their
    lanes.

    Returns their block, with every side's curves (stored, fitted, or
    none for a side without lanes), or raises the error of the first
    frame that fails a check, named from the same arrays in the order
    the frame alone meets its checks: its lanes put on the grid, then
    each side to fit (ground truths first) lane by lane and as a whole,
    then the widths' grid; an error names its side and lane, or the side
    of a fit, whose message names the lane.  Each value is bitwise that of
    the lane alone.
    """
    n_frames = len(records)
    lanes = [lane for r in records for side in (r.gt_lanes, r.pred_lanes)
             for lane in side]
    # side s holds frame s // 2's ground truths (s even) or predictions
    per_side = np.array([(len(r.gt_lanes), len(r.pred_lanes)) for r in records],
                        dtype=np.int64).reshape(-1)
    side_first = np.concatenate([[0], np.cumsum(per_side)])
    side_of = np.repeat(np.arange(2 * n_frames), per_side)
    on_grid, degenerate, grid_pts, grid_vis = _grid_lanes(lanes, anchors)

    # The visible points of every side to fit (one with lanes and a
    # missing curve), in the image.
    stored = [c for r in records for c in (r.gt_curves, r.pred_curves)]
    fit_side = np.array([n > 0 and (c is None or any(x is None for x in c))
                         for n, c in zip(per_side.tolist(), stored)], dtype=bool)
    fit_lanes = np.flatnonzero(fit_side[side_of])
    shown = grid_vis[fit_lanes] > 0.5
    pt_lane = fit_lanes[np.nonzero(shown)[0]]
    behind, u, v, inside = _image_points([r.camera for r in records],
                                         grid_pts[fit_lanes][shown],
                                         side_of[pt_lane] // 2)
    in_lane, u, v = pt_lane[inside], u[inside], v[inside]
    n_in = np.bincount(in_lane, minlength=len(lanes))
    single = np.zeros(len(lanes), dtype=bool)
    has = np.flatnonzero(n_in)
    if has.size:
        first = (np.cumsum(n_in) - n_in)[has]
        single[has] = np.minimum.reduceat(v, first) == np.maximum.reduceat(v, first)
    side_pts = np.bincount(side_of, weights=n_in, minlength=2 * n_frames)
    cut = np.concatenate([[0], np.cumsum(side_pts.astype(np.int64))])

    def side_uv(s: int):
        """Side s's points (n, 2), lane by lane."""
        rows = slice(cut[s], cut[s + 1])
        return np.split(np.stack([u[rows], v[rows]], axis=1),
                        np.cumsum(n_in[side_first[s]:side_first[s + 1]])[:-1])

    # The first frame that fails any check raises its first error.
    wide = np.array([r.pred_uncertainties is not None and all(
        w is not None for w in r.pred_uncertainties) for r in records], dtype=bool)
    bad_lane = degenerate | single | ((n_in < 4) & fit_side[side_of])
    bad_lane[pt_lane[behind]] = True
    bad_lane |= ~on_grid & (side_of % 2 == 1) & wide[side_of // 2]
    bad = np.zeros(n_frames, dtype=bool)
    bad[side_of[bad_lane] // 2] = True
    bad[np.flatnonzero(fit_side & (side_pts < 3 + 2 * per_side)) // 2] = True
    if bad.any():
        f = int(np.argmax(bad))
        camera, a, b = records[f].camera, side_first[2 * f], side_first[2 * f + 2]
        if degenerate[a:b].any():  # the gather's error for the first of them
            lane = a + int(np.argmax(degenerate[a:b]))
            _checked(side_of[lane] % 2, lane - side_first[side_of[lane]],
                     _visible_points, [lanes[lane]])
        for s, who in ((2 * f, "ground-truth"), (2 * f + 1, "prediction")):
            if not fit_side[s]:
                continue
            for i, lane in enumerate(range(side_first[s], side_first[s + 1])):
                if behind[pt_lane == lane].any():
                    _checked(s % 2, i, project_ground_to_image, camera,
                             grid_pts[lane][grid_vis[lane] > 0.5])
                if not n_in[lane]:
                    raise MissingField(
                        f"{who} lane {i} has no stored curve and no visible point "
                        "projects inside the image, so none can be fit")
            _checked(s % 2, None, _check_frame, side_uv(s), camera.image_size, "rational")
        if wide[f] and not on_grid[side_first[2 * f + 1]:b].all():
            raise ConfigError("per-segment uncertainties require prediction lanes "
                              "already sampled on the anchor grid")
        raise AssertionError(f"frame {records[f].frame_id!r} passes its checks")

    # Each side's curves: stored, none, or fitted from its in-image points.
    curves = [list(c) if n and not fit else []
              for n, c, fit in zip(per_side.tolist(), stored, fit_side.tolist())]
    # u and v hold the fitted sides' points lane after lane: the flat fit's
    # layout as it stands
    fitted = np.flatnonzero(fit_side)
    for s, fit in zip(fitted.tolist(),
                      _fit_flat(u, v, n_in[fit_lanes], per_side[fitted])):
        for lane, curve in zip(lanes[side_first[s]:side_first[s + 1]], fit.curves):
            if lane.score is not None:
                curve.confidence = lane.score
        curves[s] = fit.curves

    def side(parity: int) -> _Side:
        kept = np.flatnonzero(side_of % 2 == parity)
        return _Side(grid_pts[kept].reshape(-1, 3), grid_vis[kept].reshape(-1),
                     anchors.shape[0] * np.arange(kept.shape[0] + 1),
                     np.concatenate([[0], np.cumsum(per_side[parity::2])]),
                     [c for side_curves in curves[parity::2] for c in side_curves])

    gt, pred = side(0), side(1)
    uncs = [u for r, w in zip(records, wide.tolist()) if w
            for u in r.pred_uncertainties]
    widths = None
    if uncs:  # each on a prediction lane on the grid
        widths = np.zeros((pred.starts.shape[0] - 1, anchors.shape[0], 2))
        widths[np.repeat(wide, per_side[1::2]), :-1] = np.stack(uncs)
        widths = widths.reshape(-1, 2)
    sizes = np.array([r.camera.image_size for r in records],
                     dtype=np.int64).reshape(-1, 2)
    return _Block(gt, pred, widths, wide, sizes)


def _loss_records(records, grid: SampleGrid,
                  config: LossConfig) -> list[LossBreakdown]:
    """``loss_total`` of each frame record (``scenario_io.FrameRecord``),
    gathered, fitted and scored ``_LOSS_BLOCK`` frames at a time by the
    block driver (``report._blockwise``), so a run fails with the error
    of the first frame that fails on its own, named by its ``frame_id``."""
    anchors = np.asarray(grid.y_anchors)
    blocks = (records[start:start + _LOSS_BLOCK]
              for start in range(0, len(records), _LOSS_BLOCK))
    return list(_blockwise(
        blocks, lambda block: _score(_gather(block, anchors), grid, config),
        [r.frame_id for r in records]))
