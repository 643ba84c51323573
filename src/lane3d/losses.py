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
from typing import Sequence

import numpy as np

from .errors import AnchorMismatch, Lane3DError
from .gaussians import segment_symmetric_klds
from .geometry import (_ANCHOR_TOL, CameraModel, Curve2D, Lane3D, SampleGrid,
                       _lane_columns, _sample_curves)
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


# ── Block scorer ─────────────────────────────────────────────────────────
#
# Every loss is computed by one scorer over a block of frames packed into
# arrays.  ``loss_total`` and the single-term functions below are blocks
# of one frame; the CLI scores many frames per block.  Each array pass
# uses the elementwise operations the terms are defined by, and each
# frame's sums are taken over its own slice (``math.fsum``; NumPy's
# pairwise sum for the fitting cost), so a frame scores the same
# whatever block it is in.

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

    def frame(self, f: int) -> "_Side":
        lanes = slice(self.frames[f], self.frames[f + 1] + 1)
        r0, r1 = self.starts[self.frames[f]], self.starts[self.frames[f + 1]]
        return _Side(self.points[r0:r1], self.visibility[r0:r1],
                     self.starts[lanes] - r0, self.frames[f:f + 2] - self.frames[f],
                     None if self.curves is None
                     else self.curves[self.frames[f]:self.frames[f + 1]])


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

    def frame(self, f: int) -> "_Block":
        """Frame f as a block of one."""
        pred = self.pred
        rows = slice(pred.starts[pred.frames[f]], pred.starts[pred.frames[f + 1]])
        return _Block(self.gt.frame(f), pred.frame(f),
                      None if self.widths is None else self.widths[rows],
                      self.has_widths[f:f + 1], self.sizes[f:f + 1])


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


def _log(p: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry (``np.log`` may differ in the last bit)."""
    return np.array(list(map(math.log, p.tolist())), dtype=np.float64)


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return _log(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


def _frame_sums(values: np.ndarray, frame: np.ndarray, n_frames: int):
    """``math.fsum`` of each frame's values; ``frame`` is non-decreasing."""
    cuts = np.searchsorted(frame, np.arange(n_frames + 1)).tolist()
    values = values.tolist()
    return [math.fsum(values[a:b]) for a, b in zip(cuts, cuts[1:])]


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
    return out


def _score_block(block: _Block, grid: SampleGrid,
                 config: LossConfig) -> list[LossBreakdown]:
    """``loss_total`` of every frame of the block.

    When the block fails, its frames are scored again one by one, so the
    error raised is the one a frame-by-frame run meets first, raised
    after the frames before it are scored.
    """
    try:
        return _score(block, grid, config)
    except (Lane3DError, ValueError, ArithmeticError):
        if block.n_frames == 1:
            raise
    return [_score(block.frame(f), grid, config)[0]
            for f in range(block.n_frames)]


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
    if not frames:
        return []
    block = _pack([(gt.lanes, gt.curves, pred.lanes, pred.curves, pred.uncertainties)
                   for gt, pred, _ in frames],
                  [camera.image_size for _, _, camera in frames])
    return _score_block(block, grid or SampleGrid(), config or LossConfig())
