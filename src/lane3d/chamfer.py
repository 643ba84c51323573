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
origin sits at integer multiples of the resolution: strokes are sets of
global cell indices, so the IoU of two lanes never depends on which
other lanes share the frame.  Only x/y enter the rasterization; a
stroke covers cells whose center lies within ``lane_width / 2`` of the
polyline (boundary inclusive).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

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
from .report import (
    FrameStats,
    MetricReport,
    _assemble,
    _frame_ids,
    _map_frames,
    _tau_list,
    prf,
)

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


# Lanes times their largest point count (input or interpolated) per frame
# block: bounds the memory of one block of the bidirectional row search.
_BLOCK_POINTS = 1 << 13


def _bcd_rows(frames, n: int, threads: int = 1) -> list[np.ndarray]:
    """Per-frame ``(n_pred, n_gt)`` matrices for the bidirectional protocol.

    Entries a row's argmin and minimum can come from hold
    ``_bcd_matrix``'s values bitwise; every other entry is ``+inf``
    (see ``nearest_pair_rows``), which ``_bcd_nearest`` reads the same
    way.  Frames are searched in blocks of bounded size, and the
    values depend neither on the blocks nor on ``threads``.
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
    parts = _map_frames(lambda block: _bcd_block(block, n), blocks, threads)
    return [d for part in parts for d in part]


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
    # A non-finite visible coordinate reaches every interior sample (with
    # n == 2 it is not sampled at all).  Frames holding one keep the full
    # matrix, whose NaN ordering the row search does not reproduce.
    finite = np.isfinite(curves).all(axis=(1, 2))
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
        if n_pred and n_gt and finite[at:at + n_pred + n_gt].all():
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
        within = np.arange(pairs) - np.repeat(row_starts, row_len)
        values = nearest_pair_rows(
            curves,
            np.repeat(row_pred, row_len),
            np.repeat(row_gt, row_len) + within,
            row_starts,
        )

    matrices = []
    for (gt_lanes, pred_lanes), start in zip(frames, starts):
        shape = (len(pred_lanes), len(gt_lanes))
        if start is not None:
            matrices.append(values[start:start + shape[0] * shape[1]].reshape(shape))
        elif pred_lanes and gt_lanes:
            matrices.append(_bcd_matrix(gt_lanes, pred_lanes, n))
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

_KEY_OFFSET = np.uint64(2**31)


def _stroke_cells(points: np.ndarray, config: EvalConfig) -> np.ndarray:
    """Global grid-cell keys covered by the stroked polyline.

    Cell ``(ix, iy)`` has center ``((ix + 0.5) * res, (iy + 0.5) * res)``
    in ground x/y; a cell is covered when its center lies within half the
    lane width of some polyline segment.  Keys pack both indices into a
    uint64 so strokes from different lanes and frames are comparable.
    """
    if points.shape[0] < 2:
        raise DegenerateLane(
            f"stroke needs at least 2 visible points, got {points.shape[0]}"
        )
    res = config.bev_resolution
    half = config.lane_width / 2.0
    xy = points[:, :2]
    chunks = []
    for k in range(xy.shape[0] - 1):
        ax, ay = xy[k]
        bx, by = xy[k + 1]
        ix0 = math.ceil(min(ax, bx) / res - 0.5) - 1
        ix1 = math.floor(max(ax, bx) / res - 0.5) + 1
        iy0 = math.ceil(min(ay, by) / res - 0.5) - 1
        iy1 = math.floor(max(ay, by) / res - 0.5) + 1
        margin = int(math.ceil(half / res)) + 1
        ixs = np.arange(ix0 - margin, ix1 + margin + 1, dtype=np.int64)
        iys = np.arange(iy0 - margin, iy1 + margin + 1, dtype=np.int64)
        cx = (ixs + 0.5) * res
        cy = (iys + 0.5) * res
        ex, ey = bx - ax, by - ay
        c2 = ex * ex + ey * ey
        wx = cx[None, :] - ax
        wy = cy[:, None] - ay
        if c2 > 0.0:
            t = np.clip((wx * ex + wy * ey) / c2, 0.0, 1.0)
        else:
            t = 0.0
        dx = wx - t * ex
        dy = wy - t * ey
        hit = (dx * dx + dy * dy) <= half * half
        iy_hit, ix_hit = np.nonzero(hit)
        if iy_hit.size:
            keys = (
                (ixs[ix_hit].astype(np.uint64) + _KEY_OFFSET) << np.uint64(32)
            ) | (iys[iy_hit].astype(np.uint64) + _KEY_OFFSET)
            chunks.append(keys)
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(chunks))


def _cells_iou(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 0.0


def bev_iou(gt: Lane3D, pred: Lane3D, config: EvalConfig | None = None) -> float:
    """IoU of the two lanes' stroked footprints on the BEV grid."""
    config = config or EvalConfig()
    return _cells_iou(
        _stroke_cells(gt.visible_points(), config),
        _stroke_cells(pred.visible_points(), config),
    )


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
    gt_cells = [_stroke_cells(lane.visible_points(), config) for lane in gt_lanes]
    pred_cells = [
        _stroke_cells(lane.visible_points(), config) for lane in pred_lanes
    ]
    iou = np.zeros((len(gt_lanes), len(pred_lanes)))
    for i, gc in enumerate(gt_cells):
        for j, pc in enumerate(pred_cells):
            iou[i, j] = _cells_iou(gc, pc)
    match = hungarian(-iou)
    pairs = []
    for i, j in match.pairs:
        record = {
            "gt": i,
            "pred": j,
            "iou": float(iou[i, j]),
            "ucd": unilateral_cd(gt_lanes[i], pred_lanes[j], config.n_interp),
        }
        if with_maxes and iou[i, j] > config.tau_iou:
            gt_pts = interpolate_lane(gt_lanes[i], config.n_interp)
            pred_pts = interpolate_lane(pred_lanes[j], config.n_interp)
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


def _matched_frames(frames, config: EvalConfig, threads: int, with_maxes: bool):
    """``(pairs, n_gt, n_pred)`` per frame; see ``_iou_matched_pairs``."""

    def worker(frame):
        gt_lanes, pred_lanes = frame
        pairs = _iou_matched_pairs(gt_lanes, pred_lanes, config, with_maxes)
        return pairs, len(gt_lanes), len(pred_lanes)

    return _map_frames(worker, frames, threads)


def bcd_report(
    frames,
    config: EvalConfig | None = None,
    frame_ids=None,
    threads: int = 1,
) -> MetricReport:
    """Bidirectional-protocol evaluation over ``(gt_lanes, pred_lanes)`` frames."""
    config = config or EvalConfig()
    ids = _frame_ids(frames, frame_ids)

    matrices = _bcd_rows(frames, config.n_interp, threads)
    stats = []
    all_errors: list[float] = []
    for fid, d in zip(ids, matrices):
        tp_flags, covered, errors = _bcd_claim(
            _bcd_nearest(d), *d.shape, config.tau_bcd
        )
        tp = sum(tp_flags)
        stats.append(
            FrameStats(
                frame_id=fid,
                tp=tp,
                fp=len(tp_flags) - tp,
                fn=len(covered) - tp,
                pair_errors=tuple(errors),
            )
        )
        all_errors.extend(errors)
    return _assemble("bcd", stats, "mean_bcd", all_errors)


def once_report(
    frames,
    config: EvalConfig | None = None,
    frame_ids=None,
    threads: int = 1,
) -> MetricReport:
    """IoU-gated evaluation with the unilateral-CD acceptance test."""
    config = config or EvalConfig()
    ids = _frame_ids(frames, frame_ids)

    cores = _matched_frames(frames, config, threads, with_maxes=False)
    stats = []
    all_errors: list[float] = []
    for fid, (pairs, n_gt, n_pred) in zip(ids, cores):
        tp, fp, fn, errors = _once_counts(pairs, n_gt, n_pred, config)
        stats.append(
            FrameStats(
                frame_id=fid, tp=tp, fp=fp, fn=fn, pair_errors=tuple(errors)
            )
        )
        all_errors.extend(errors)
    return _assemble("once", stats, "cde", all_errors)


def mbd_report(
    frames,
    config: EvalConfig | None = None,
    frame_ids=None,
    threads: int = 1,
) -> MetricReport:
    """Worst-case distances over IoU-matched pairs; counts as once_report.

    Pairs qualify for the worst-case statistic by the IoU gate alone —
    excluding large-error pairs would defeat a worst-case metric — while
    tp/fp/fn still apply both acceptance tests.
    """
    config = config or EvalConfig()
    ids = _frame_ids(frames, frame_ids)

    cores = _matched_frames(frames, config, threads, with_maxes=True)
    stats = []
    all_values: list[float] = []
    for fid, (pairs, n_gt, n_pred) in zip(ids, cores):
        tp, fp, fn, _ = _once_counts(pairs, n_gt, n_pred, config)
        values = [
            _pair_mbd(p, config.mbd_variant)
            for p in pairs
            if p["iou"] > config.tau_iou
        ]
        stats.append(
            FrameStats(
                frame_id=fid, tp=tp, fp=fp, fn=fn, pair_errors=tuple(values)
            )
        )
        all_values.extend(values)
    aggregate = "max" if config.mbd_variant == "hausdorff_max" else "mean"
    return _assemble(
        "mbd",
        stats,
        "mbd",
        all_values,
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
    threads: int = 1,
) -> tuple[tuple[float, float, float, float], ...]:
    """(tau, precision, recall, f1) rows for a sweep of the protocol's
    distance threshold.

    Pair distances are computed once and re-gated per threshold, which is
    exactly equivalent to running the protocol separately at each tau.
    """
    config = config or EvalConfig()
    taus = _tau_list(taus)

    rows = []
    if protocol == "bcd":
        matrices = _bcd_rows(frames, config.n_interp, threads)
        nearest = [(_bcd_nearest(d), *d.shape) for d in matrices]
        n_pred = sum(d.shape[0] for d in matrices)
        n_gt = sum(d.shape[1] for d in matrices)
        for tau in taus:
            tp = sum(sum(_bcd_claim(*frame, tau)[0]) for frame in nearest)
            rows.append((tau, *prf(tp, n_pred - tp, n_gt - tp)))
    elif protocol in ("once", "mbd"):
        cores = _matched_frames(frames, config, threads, with_maxes=False)
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

        rows = list(
            pointwise_sweep(frames, taus, pointwise_config, threads=threads)
        )
    else:
        raise ConfigError(f"unknown sweep protocol {protocol!r}")
    return tuple(rows)
