"""Lane evaluation protocols built on Chamfer-style distances.

Three protocols share this module:

* the IoU-gated protocol (``once_report``): per frame, ground truths and
  predictions are matched by maximizing BEV IoU; a matched prediction is
  accepted when its IoU exceeds ``tau_iou`` and its unilateral Chamfer
  distance stays below ``tau_cd``.  The error statistic (CDE) is the
  mean unilateral CD over accepted pairs.
* the bidirectional protocol (``bcd_report``): each prediction greedily
  claims its nearest ground truth by bidirectional Chamfer distance and
  is accepted when that distance is within ``tau_bcd`` and the ground
  truth is not already claimed.  The error statistic is the mean
  bidirectional CD over accepted pairs.  Only each prediction's nearest
  ground truth matters, so the protocol and its sweep score blocks of
  frames with an exact pruned row search: a pair whose lower bound
  exceeds a distance already found in its row is never computed, and
  the nearest ground truth and its distance are bit-identical to the
  full distance matrix.
* the worst-case protocol (``mbd_report``): IoU matching as above;
  every IoU-qualified pair contributes a Hausdorff-style worst-case
  distance, aggregated per the configured variant.  Counts mirror the
  IoU-gated protocol.

Distance semantics
------------------
Directed point-set distances (the bidirectional building block) are
mean nearest-neighbor distances between ``n_interp``-point arc-length
interpolations, bit-identical to a brute-force double loop.  The
unilateral distance measures interpolated ground-truth points against
the prediction *polyline* (nearest point on any segment, not nearest
vertex), so a prediction that merely extends past its ground truth is
not charged for sampling misalignment.

BEV rasterization uses a global grid of ``bev_resolution`` cells whose
origin sits at integer multiples of the resolution: strokes are runs of
global cell indices, so the IoU of two lanes never depends on which
other lanes share the frame.  Only x/y enter the rasterization; a
stroke covers cells whose center lies within ``lane_width / 2`` of the
polyline (boundary inclusive).  A stroke is a list of per-row runs
``(iy, lo, hi)``, sorted and merged.  Each segment tests its predicate
only on the cells of each row that lie within half a cell more than
``lane_width / 2`` of its line, a window that holds every cell the
predicate can pass, so the runs equal a cell-by-cell scan.  The IoU of
two strokes counts the overlap of their runs; strokes whose row or
column ranges are disjoint score 0 without that count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateLane
from .geometry import Lane3D, interpolate_lane
from .kernels import (
    directed_point_stats,
    nearest_pair_rows,
    pair_mean_matrices,
    point_to_polyline_stats,
    resample_polylines,
)
from .matching import hungarian
from .report import MetricReport, _assemble, _frame_ids, _tau_list, prf

__all__ = [
    "MBD_VARIANTS",
    "EvalConfig",
    "unilateral_cd",
    "bidirectional_cd",
    "bcd_select_tp_fp",
    "bcd_report",
    "bev_iou",
    "once_report",
    "mbd_report",
    "threshold_sweep",
]

MBD_VARIANTS = ("hausdorff_mean", "hausdorff_max", "directed_max_mean")


@dataclass(frozen=True)
class EvalConfig:
    """Thresholds and discretization of the evaluation protocols."""

    tau_cd: float = 0.3
    tau_iou: float = 0.3
    tau_bcd: float = 0.3
    lane_width: float = 0.3
    bev_resolution: float = 0.05
    n_interp: int = 100
    mbd_variant: str = "hausdorff_mean"

    def __post_init__(self):
        for name in ("tau_cd", "tau_iou", "tau_bcd", "lane_width", "bev_resolution"):
            value = float(getattr(self, name))
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value!r}")
            # the raster's cell arithmetic needs finite geometry
            if name in ("lane_width", "bev_resolution") and value == math.inf:
                raise ConfigError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        n = int(self.n_interp)
        if n < 2:
            raise ConfigError(f"n_interp must be >= 2, got {n}")
        object.__setattr__(self, "n_interp", n)
        if self.mbd_variant not in MBD_VARIANTS:
            raise ConfigError(
                f"mbd_variant must be one of {MBD_VARIANTS}, "
                f"got {self.mbd_variant!r}"
            )


# ---------------------------------------------------------------------------
# pair distances
# ---------------------------------------------------------------------------


def unilateral_cd(gt: Lane3D, pred: Lane3D, n: int = 100) -> float:
    """Mean distance from interpolated GT points to the prediction polyline.

    Only the ground-truth side is charged: extra prediction length beyond
    the ground truth does not change the value.
    """
    gt_pts = interpolate_lane(gt, n)
    pred_pts = interpolate_lane(pred, n)
    mean, _ = point_to_polyline_stats(gt_pts, pred_pts)
    return mean


def bidirectional_cd(gt: Lane3D, pred: Lane3D, n: int = 100) -> float:
    """Average of the two directed mean nearest-neighbor distances."""
    gt_pts = interpolate_lane(gt, n)
    pred_pts = interpolate_lane(pred, n)
    d_pg, _ = directed_point_stats(pred_pts, gt_pts)
    d_gp, _ = directed_point_stats(gt_pts, pred_pts)
    return (d_pg + d_gp) / 2.0


def _bcd_matrix(
    gt_lanes: list[Lane3D], pred_lanes: list[Lane3D], n: int
) -> np.ndarray:
    """Bidirectional distances for every (prediction, ground-truth) pair."""
    pred_pts = [interpolate_lane(lane, n) for lane in pred_lanes]
    gt_pts = [interpolate_lane(lane, n) for lane in gt_lanes]
    d_pg, d_gp = pair_mean_matrices(pred_pts, gt_pts)
    return (d_pg + d_gp) / 2.0


def _bcd_nearest(d: np.ndarray) -> list[tuple[int, float]]:
    """Each prediction's nearest ground truth (lowest index on ties) and
    its distance, from an ``(n_pred, n_gt)`` matrix; empty without ground
    truths."""
    if d.shape[1] == 0:
        return []
    nearest = d.argmin(axis=1)
    return list(zip(nearest.tolist(), d[np.arange(d.shape[0]), nearest].tolist()))


def _bcd_claim(
    nearest: list[tuple[int, float]], n_pred: int, n_gt: int, tau: float
) -> tuple[list[bool], list[bool], list[float]]:
    """Greedy acceptance over predictions in input order.

    Each prediction targets its nearest ground truth; it is accepted when
    the distance is within ``tau`` and that ground truth is not yet
    claimed.  Returns per-prediction TP flags, per-ground-truth covered
    flags and the accepted distances.
    """
    tp_flags = [False] * n_pred
    covered = [False] * n_gt
    tp_errors: list[float] = []
    for j, (i, dist) in enumerate(nearest):
        if dist <= tau and not covered[i]:
            covered[i] = tp_flags[j] = True
            tp_errors.append(dist)
    return tp_flags, covered, tp_errors


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(f, f + c)`` for each ``(f, c)``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(first - (ends - counts), counts)


# Lanes times their largest point count (input or interpolated) per frame
# block: bounds the memory of one block of the bidirectional row search.
_BLOCK_POINTS = 1 << 13


def _bcd_rows(frames, n: int) -> list[np.ndarray]:
    """Per-frame ``(n_pred, n_gt)`` matrices for the bidirectional protocol.

    Entries a row's argmin and minimum can come from hold
    ``_bcd_matrix``'s values bitwise; every other entry is ``+inf``
    (see ``nearest_pair_rows``), which ``_bcd_nearest`` reads the same
    way.  Frames are searched in blocks of bounded size, and the
    values do not depend on the blocks.
    """
    blocks, block, lanes, width = [], [], 0, n
    for frame in frames:
        gt_lanes, pred_lanes = frame
        frame_lanes, frame_width = 0, n
        if pred_lanes:
            frame_lanes = len(pred_lanes) + len(gt_lanes)
            for lane in (*pred_lanes, *gt_lanes):
                frame_width = max(frame_width, len(lane.points))
        if block and (lanes + frame_lanes) * max(width, frame_width) > _BLOCK_POINTS:
            blocks.append(block)
            block, lanes, width = [], 0, n
        block.append(frame)
        lanes += frame_lanes
        width = max(width, frame_width)
    blocks.append(block)
    return [d for block in blocks for d in _bcd_block(block, n)]


def _bcd_block(frames, n: int) -> list[np.ndarray]:
    # Every lane of a frame with predictions is interpolated, predictions
    # first, as _bcd_matrix does; so the same lane raises DegenerateLane.
    lanes = [
        lane
        for gt_lanes, pred_lanes in frames
        if pred_lanes
        for lane in (*pred_lanes, *gt_lanes)
    ]
    if not lanes:
        return [np.zeros((0, len(gt_lanes))) for gt_lanes, _ in frames]
    sizes = np.array([len(lane.points) for lane in lanes])
    offsets = np.zeros(len(lanes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    points = np.concatenate([lane.points for lane in lanes])
    keep = np.concatenate([lane.visibility for lane in lanes]) > 0.5
    counts = np.add.reduceat(keep, offsets)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise DegenerateLane(
            f"{counts[short[0]]} visible point(s); need >= 2"
        )
    if not keep.all():
        points = points.compress(keep, axis=0)
    curves = resample_polylines(points, counts, n)
    # Rounding can leave a sample's y an ulp past the next vertex's; such
    # lanes are sorted stably by y, as pair_mean_matrices sorts them.
    y = curves[..., 1]
    unsorted = y[:, 1:] < y[:, :-1]
    if unsorted.any():
        for lane in np.flatnonzero(unsorted.any(axis=1)):
            curves[lane] = curves[lane][np.argsort(y[lane], kind="stable")]

    # One row per prediction of a searched frame, over the frame's ground
    # truths in order; starts[f] locates frame f's pairs (None: not searched).
    row_pred, row_gt, row_len, starts = [], [], [], []
    at = pairs = 0
    for gt_lanes, pred_lanes in frames:
        n_pred, n_gt = len(pred_lanes), len(gt_lanes)
        if n_pred and n_gt:
            row_pred.extend(range(at, at + n_pred))
            row_gt.extend([at + n_pred] * n_pred)
            row_len.extend([n_gt] * n_pred)
            starts.append(pairs)
            pairs += n_pred * n_gt
        else:
            starts.append(None)
        if n_pred:
            at += n_pred + n_gt
    if pairs:
        row_len = np.array(row_len)
        row_starts = np.zeros(row_len.size, dtype=np.int64)
        np.cumsum(row_len[:-1], out=row_starts[1:])
        values = nearest_pair_rows(
            curves,
            np.repeat(row_pred, row_len),
            _ranges(np.array(row_gt), row_len),
            row_starts,
        )

    matrices = []
    for (gt_lanes, pred_lanes), start in zip(frames, starts):
        shape = (len(pred_lanes), len(gt_lanes))
        if start is not None:
            matrices.append(values[start:start + shape[0] * shape[1]].reshape(shape))
        else:
            matrices.append(np.zeros(shape))
    return matrices


def bcd_select_tp_fp(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    config: EvalConfig | None = None,
) -> tuple[list[bool], list[bool], list[bool]]:
    """Accept/reject flags for one frame under the bidirectional protocol.

    Returns ``(tp_flags, fp_flags, covered)`` where the first two are per
    prediction in input order and ``covered`` is per ground truth.
    """
    config = config or EvalConfig()
    if not pred_lanes:
        return [], [], [False] * len(gt_lanes)
    d = _bcd_rows([(gt_lanes, pred_lanes)], config.n_interp)[0]
    tp_flags, covered, _ = _bcd_claim(
        _bcd_nearest(d), len(pred_lanes), len(gt_lanes), config.tau_bcd
    )
    return tp_flags, [not tp for tp in tp_flags], covered


# ---------------------------------------------------------------------------
# BEV rasterization and IoU
# ---------------------------------------------------------------------------

class _Runs(NamedTuple):
    """A stroke as per-row runs: row ``iy[k]`` covers the cells with
    ``lo[k] <= ix <= hi[k]``.  Runs are sorted by row, then column, and
    runs of one row neither overlap nor touch."""

    iy: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


# Rows are 2**32 apart on the key line iy * 2**32 + ix, so runs of
# different rows neither touch nor interleave while the columns in play
# span fewer than 2**32 - 1 cells (2e8 m at 0.05 m cells).
_ROW = np.int64(1) << np.int64(32)


def _stroke_runs(points: np.ndarray, config: EvalConfig) -> _Runs:
    """Grid cells covered by the stroked polyline, as per-row runs.

    Cell ``(ix, iy)`` has center ``((ix + 0.5) * res, (iy + 0.5) * res)``
    in ground x/y; a cell is covered when its center lies within half the
    lane width of some polyline segment, which the predicate below
    decides cell by cell.  Each segment tests, in every row of its scan
    box (its cell bounding box grown by ``margin``), only the cells
    whose centers lie within half a cell more than half the lane width
    of the segment's line.  That window holds every cell the predicate
    can pass, since the rounding error of both stays far below half a
    cell.  ``points`` must have strictly increasing y, as ``Lane3D``
    guarantees.
    """
    if points.shape[0] < 2:
        raise DegenerateLane(
            f"stroke needs at least 2 visible points, got {points.shape[0]}"
        )
    res = config.bev_resolution
    half = config.lane_width / 2.0
    margin = int(math.ceil(half / res)) + 1
    ax, ay = points[:-1, 0], points[:-1, 1]
    bx, by = points[1:, 0], points[1:, 1]
    ex, ey = bx - ax, by - ay
    c2 = ex * ex + ey * ey
    # c2 is 0 only by underflow; t = num / inf is then 0, as for a point
    c2 = np.where(c2 > 0.0, c2, np.inf)
    ix0 = np.ceil(np.minimum(ax, bx) / res - 0.5) - 1 - margin
    ix1 = np.floor(np.maximum(ax, bx) / res - 0.5) + 1 + margin
    iy0 = np.ceil(ay / res - 0.5) - 1 - margin
    iy1 = np.floor(by / res - 0.5) + 1 + margin

    # (segment, row) pairs: rows within the window's reach of [ay, by]
    reach = half + res / 2.0
    first = np.maximum(iy0, np.ceil((ay - reach) / res - 0.5)).astype(np.int64)
    last = np.minimum(iy1, np.floor((by + reach) / res - 0.5)).astype(np.int64)
    n_rows = np.maximum(last - first + 1, 0)
    seg = np.repeat(np.arange(ax.size), n_rows)
    iy = _ranges(first, n_rows)
    wy = (iy + 0.5) * res - ay[seg]
    # each row's window: |signed distance to the segment's line| <= reach,
    # with the unit direction (ux, uy).  uy rounds to 0 on a segment flat
    # to the last bit: the scan box then wins over an infinite bound, and
    # fmax/fmin make it win over a NaN one.
    length = np.hypot(ex, ey)
    ux, uy = (ex / length)[seg], (ey / length)[seg]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x0 = ax[seg] + (ux * wy - reach) / uy
        x1 = ax[seg] + (ux * wy + reach) / uy
    lo = np.fmax(np.ceil(x0 / res - 0.5), ix0[seg])
    hi = np.fmin(np.floor(x1 / res - 0.5), ix1[seg])
    n_cols = np.maximum(hi - lo + 1, 0)
    some = n_cols > 0
    seg, iy, wy = seg[some], iy[some], wy[some]
    n_cols = n_cols[some].astype(np.int64)
    if not n_cols.size:
        return _Runs(*(np.empty(0, dtype=np.int64),) * 3)

    # the predicate, on every cell of every window
    def per_cell(values):
        return np.repeat(values, n_cols)

    ix = _ranges(lo[some], n_cols)  # integral floats
    ex_c, ey_c = per_cell(ex[seg]), per_cell(ey[seg])
    wx = (ix + 0.5) * res - per_cell(ax[seg])
    wy_c = per_cell(wy)
    t = np.clip((wx * ex_c + wy_c * ey_c) / per_cell(c2[seg]), 0.0, 1.0)
    dx = wx - t * ex_c
    dy = wy_c - t * ey_c
    hit = (dx * dx + dy * dy) <= half * half

    # runs of hits within each window
    window_end = np.cumsum(n_cols) - 1
    open_left = np.empty_like(hit)
    open_left[0] = False
    open_left[1:] = hit[:-1]
    open_left[window_end[:-1] + 1] = False
    open_right = np.empty_like(hit)
    open_right[:-1] = hit[1:]
    open_right[window_end] = False
    begin = np.flatnonzero(hit & ~open_left)
    end = np.flatnonzero(hit & ~open_right)
    if not begin.size:
        return _Runs(*(np.empty(0, dtype=np.int64),) * 3)

    # merge the segments' runs row by row on the key line
    row = iy[np.searchsorted(window_end, begin)] * _ROW
    key_lo = row + ix[begin].astype(np.int64)
    order = np.argsort(key_lo, kind="stable")
    key_lo = key_lo[order]
    key_hi = np.maximum.accumulate((row + ix[end].astype(np.int64))[order])
    fresh = np.flatnonzero(np.concatenate(([True], key_lo[1:] > key_hi[:-1] + 1)))
    row = row[order][fresh]
    stop = np.append(fresh[1:], key_lo.size) - 1
    return _Runs(row // _ROW, key_lo[fresh] - row, key_hi[stop] - row)


def _iou_matrix(a: list[_Runs], b: list[_Runs]) -> np.ndarray:
    """BEV IoU of every pair of strokes from ``a`` and ``b``.

    A pair whose row or column ranges are disjoint shares no cell, so its
    IoU is 0 without further work, as is a pair with an empty stroke.
    """
    def extent(strokes):
        # cell counts, and first/last row and first/last column per stroke
        size = np.array([int((s.hi - s.lo + 1).sum()) for s in strokes])
        box = np.array([
            (s.iy[0], s.iy[-1], s.lo.min(), s.hi.max()) if s.iy.size
            else (0, 0, 0, 0)
            for s in strokes
        ]).T
        return size, box

    size_a, (row0_a, row1_a, col0_a, col1_a) = extent(a)
    size_b, (row0_b, row1_b, col0_b, col1_b) = extent(b)
    meet = (
        (size_a[:, None] > 0) & (size_b > 0)
        & (row0_a[:, None] <= row1_b) & (row0_b <= row1_a[:, None])
        & (col0_a[:, None] <= col1_b) & (col0_b <= col1_a[:, None])
    )
    iou = np.zeros((len(a), len(b)))
    for i, j in zip(*np.nonzero(meet)):
        inter = _shared_cells(a[i], b[j])
        iou[i, j] = inter / (int(size_a[i] + size_b[j]) - inter)
    return iou


def _shared_cells(a: _Runs, b: _Runs) -> int:
    """Number of cells in both strokes."""
    start = a.iy * _ROW + a.lo
    stop = a.iy * _ROW + a.hi
    before = np.concatenate(([0], np.cumsum(stop - start + 1)))

    def up_to(key):  # cells of ``a`` on the key line at or below ``key``
        k = np.searchsorted(start, key, side="right")
        return before[k] - np.where(k > 0, np.maximum(stop[k - 1] - key, 0), 0)

    return int((up_to(b.iy * _ROW + b.hi) - up_to(b.iy * _ROW + b.lo - 1)).sum())


def bev_iou(gt: Lane3D, pred: Lane3D, config: EvalConfig | None = None) -> float:
    """IoU of the two lanes' stroked footprints on the BEV grid."""
    config = config or EvalConfig()
    return float(_iou_matrix(
        [_stroke_runs(gt.visible_points(), config)],
        [_stroke_runs(pred.visible_points(), config)],
    )[0, 0])


# ---------------------------------------------------------------------------
# per-frame cores
# ---------------------------------------------------------------------------


def _iou_matched_pairs(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    config: EvalConfig,
    with_maxes: bool,
) -> list[dict]:
    """IoU-maximizing assignment plus per-pair distances for one frame.

    Returns one record per matched pair: indices, IoU, unilateral CD,
    and (when ``with_maxes``) the two directed maximum distances.
    """
    if not gt_lanes or not pred_lanes:
        return []
    iou = _iou_matrix(
        [_stroke_runs(lane.visible_points(), config) for lane in gt_lanes],
        [_stroke_runs(lane.visible_points(), config) for lane in pred_lanes],
    )
    match = hungarian(-iou)
    pairs = []
    for i, j in match.pairs:
        gt_pts = interpolate_lane(gt_lanes[i], config.n_interp)
        pred_pts = interpolate_lane(pred_lanes[j], config.n_interp)
        record = {
            "gt": i,
            "pred": j,
            "iou": float(iou[i, j]),
            "ucd": point_to_polyline_stats(gt_pts, pred_pts)[0],
        }
        if with_maxes and iou[i, j] > config.tau_iou:
            _, max_pg = directed_point_stats(pred_pts, gt_pts)
            _, max_gp = directed_point_stats(gt_pts, pred_pts)
            record["max_pg"] = max_pg
            record["max_gp"] = max_gp
        pairs.append(record)
    return pairs


def _once_counts(
    pairs: list[dict], n_gt: int, n_pred: int, config: EvalConfig
) -> tuple[int, int, int, list[float]]:
    accepted = [
        p for p in pairs if p["iou"] > config.tau_iou and p["ucd"] < config.tau_cd
    ]
    tp = len(accepted)
    return tp, n_pred - tp, n_gt - tp, [p["ucd"] for p in accepted]


def _pair_mbd(record: dict, variant: str) -> float:
    if variant == "directed_max_mean":
        return (record["max_pg"] + record["max_gp"]) / 2.0
    return max(record["max_pg"], record["max_gp"])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _matched_frames(frames, config: EvalConfig, with_maxes: bool):
    """``(pairs, n_gt, n_pred)`` per frame; see ``_iou_matched_pairs``."""
    return [
        (_iou_matched_pairs(gt_lanes, pred_lanes, config, with_maxes),
         len(gt_lanes), len(pred_lanes))
        for gt_lanes, pred_lanes in frames
    ]


def _bcd_counts(d: np.ndarray, tau: float) -> tuple[int, int, int, list[float]]:
    """``(tp, fp, fn, accepted distances)`` of one frame's matrix."""
    tp_flags, covered, errors = _bcd_claim(_bcd_nearest(d), *d.shape, tau)
    tp = sum(tp_flags)
    return tp, len(tp_flags) - tp, len(covered) - tp, errors


def bcd_report(
    frames,
    config: EvalConfig | None = None,
    frame_ids=None,
) -> MetricReport:
    """Bidirectional-protocol evaluation over ``(gt_lanes, pred_lanes)`` frames."""
    config = config or EvalConfig()
    ids = _frame_ids(frames, frame_ids)
    counts = [
        _bcd_counts(d, config.tau_bcd)
        for d in _bcd_rows(frames, config.n_interp)
    ]
    return _assemble("bcd", ids, counts, "mean_bcd")


def once_report(
    frames,
    config: EvalConfig | None = None,
    frame_ids=None,
) -> MetricReport:
    """IoU-gated evaluation with the unilateral-CD acceptance test."""
    config = config or EvalConfig()
    ids = _frame_ids(frames, frame_ids)
    matched = _matched_frames(frames, config, with_maxes=False)
    counts = [_once_counts(*frame, config) for frame in matched]
    return _assemble("once", ids, counts, "cde")


def mbd_report(
    frames,
    config: EvalConfig | None = None,
    frame_ids=None,
) -> MetricReport:
    """Worst-case distances over IoU-matched pairs; counts as once_report.

    Pairs qualify for the worst-case statistic by the IoU gate alone —
    excluding large-error pairs would defeat a worst-case metric — while
    tp/fp/fn still apply both acceptance tests.
    """
    config = config or EvalConfig()
    ids = _frame_ids(frames, frame_ids)
    counts = []
    for pairs, n_gt, n_pred in _matched_frames(frames, config, with_maxes=True):
        tp, fp, fn, _ = _once_counts(pairs, n_gt, n_pred, config)
        values = [
            _pair_mbd(p, config.mbd_variant)
            for p in pairs
            if p["iou"] > config.tau_iou
        ]
        counts.append((tp, fp, fn, values))
    aggregate = "max" if config.mbd_variant == "hausdorff_max" else "mean"
    return _assemble(
        "mbd",
        ids,
        counts,
        "mbd",
        variant=config.mbd_variant,
        aggregate=aggregate,
    )


# ---------------------------------------------------------------------------
# threshold sweep
# ---------------------------------------------------------------------------


def threshold_sweep(
    frames,
    taus,
    protocol: str,
    config: EvalConfig | None = None,
    pointwise_config=None,
    frame_ids=None,
) -> tuple[tuple[float, float, float, float], ...]:
    """(tau, precision, recall, f1) rows for a sweep of the protocol's
    distance threshold.

    Pair distances are computed once and re-gated per threshold, which is
    exactly equivalent to running the protocol separately at each tau.
    """
    config = config or EvalConfig()
    taus = _tau_list(taus)
    _frame_ids(frames, frame_ids)

    rows = []
    if protocol == "bcd":
        matrices = _bcd_rows(frames, config.n_interp)
        nearest = [(_bcd_nearest(d), *d.shape) for d in matrices]
        n_pred = sum(d.shape[0] for d in matrices)
        n_gt = sum(d.shape[1] for d in matrices)
        for tau in taus:
            tp = sum(sum(_bcd_claim(*frame, tau)[0]) for frame in nearest)
            rows.append((tau, *prf(tp, n_pred - tp, n_gt - tp)))
    elif protocol in ("once", "mbd"):
        cores = _matched_frames(frames, config, with_maxes=False)
        for tau in taus:
            gated = dataclasses.replace(config, tau_cd=tau)
            tp = fp = fn = 0
            for pairs, n_gt, n_pred in cores:
                t, f, n, _ = _once_counts(pairs, n_gt, n_pred, gated)
                tp += t
                fp += f
                fn += n
            rows.append((tau, *prf(tp, fp, fn)))
    elif protocol == "openlane":
        from .pointwise import pointwise_sweep

        rows = list(pointwise_sweep(frames, taus, pointwise_config))
    else:
        raise ConfigError(f"unknown sweep protocol {protocol!r}")
    return tuple(rows)
