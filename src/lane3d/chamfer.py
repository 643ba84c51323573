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
polyline (boundary inclusive).  A stroke holds one run ``(iy, lo, hi)``
per row, from the row's first passing cell to its last.  The points
within ``lane_width / 2`` of a segment meet a row in one interval (the
chords of the two end disks and the band between them); for each
(segment, row) pair the rasterizer computes that interval and takes its
end cells from it wherever a forward rounding bound puts the cell
centers on both sides of each end clear of it (``_decided_cells`` states
the bound).  The few other pairs test the cell-by-cell predicate on the
cells of the row within half a cell more than ``lane_width / 2`` of the
segment's line.  In exact arithmetic a polyline whose y strictly
increases meets each row in one interval, so the run is the row's cell
set; every tested input, adversarial ones included, agrees with a
cell-by-cell scan.  Lanes are rasterized in blocks of at most
``_BLOCK_PAIRS`` pairs.  The IoU of two strokes sums the overlaps of
their runs on shared rows; strokes whose row or column ranges are
disjoint score 0 without that sum.

Every protocol works on blocks of frames from ``report._frame_blocks``,
the one gather: it gathers a block's scored lanes by one
``geometry._visible_points`` call, which raises for the first lane short
of 2 visible points, and hands the protocol their points with each
lane's and each frame's offsets.  In the IoU-gated protocols one raster
call strokes every lane of a frame, and a block's IoU-qualified matched
pairs are interpolated by one ``resample_polylines`` call and scored by
one ``polyline_mean_pairs`` call, bitwise as ``interpolate_lane`` and
``point_to_polyline_stats`` would score them.

Reports and sweeps
------------------
Each protocol computes per-frame *cores* once and *gates* them per
threshold (see ``report``).  A ``bcd`` core is each prediction's nearest
ground truth and its distance, and its gate is the greedy claim.  A
``once`` core is the unilateral CD of each matched pair above the IoU
gate, and its gate is the CD test; ``mbd`` counts with the same cores
and gate, and its cores add each pair's worst-case distance.  The ``mbd``
sweep gates ``once``'s cores, so it never computes directed maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .geometry import Lane3D, _visible_points, interpolate_lane
from .kernels import (
    _sorted_by_y,
    directed_mean_pairs,
    nearest_pair_rows,
    point_to_polyline_stats,
    polyline_mean_pairs,
    resample_polylines,
)
from .matching import hungarian
from .pointwise import pointwise_sweep
from .report import (MetricReport, _assemble, _frame_blocks, _frame_ids, _sweep,
                     _tau_list)

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
        # the raster's cell arithmetic needs finite geometry, and the
        # config echo must stay standard JSON
        for name in ("tau_cd", "tau_iou", "tau_bcd", "lane_width", "bev_resolution"):
            value = float(getattr(self, name))
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
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
    """Average of the two directed mean nearest-neighbor distances.

    The pair is scored as a frame of one ground truth and one prediction
    of the ``bcd`` protocol, so the value is bitwise the protocol's.
    """
    return float(_bcd_rows([([gt], [pred])], n)[0][0, 0])


def _bcd_cores(frames, n: int) -> list[tuple[list[tuple[int, float]], int, int]]:
    """Per frame, each prediction's nearest ground truth (lowest index on
    ties) and its distance, none without ground truths, with the frame's
    ``n_pred`` and ``n_gt``."""
    cores = []
    for d in _bcd_rows(frames, n):
        nearest = d.argmin(axis=1) if d.shape[1] else np.zeros(0, dtype=np.int64)
        values = d[np.arange(nearest.size), nearest]
        cores.append((list(zip(nearest.tolist(), values.tolist())), *d.shape))
    return cores


def _bcd_claim(core, tau: float) -> tuple[list[bool], list[bool], list[float]]:
    """Greedy acceptance over a ``_bcd_cores`` core's predictions in
    input order.

    Each prediction targets its nearest ground truth; it is accepted when
    the distance is within ``tau`` and that ground truth is not yet
    claimed.  Returns per-prediction TP flags, per-ground-truth covered
    flags and the accepted distances.
    """
    nearest, n_pred, n_gt = core
    tp_flags = [False] * n_pred
    covered = [False] * n_gt
    tp_errors: list[float] = []
    for j, (i, dist) in enumerate(nearest):
        if dist <= tau and not covered[i]:
            covered[i] = tp_flags[j] = True
            tp_errors.append(dist)
    return tp_flags, covered, tp_errors


def _bcd_gate(core, tau: float) -> tuple[int, int, int, list[float]]:
    """``(tp, fp, fn, accepted distances)`` of one frame's core."""
    tp_flags, covered, errors = _bcd_claim(core, tau)
    tp = len(errors)
    return tp, len(tp_flags) - tp, len(covered) - tp, errors


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(f, f + c)`` for each ``(f, c)``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(first - (ends - counts), counts)


def _bcd_lanes(frame) -> tuple:
    """A frame's lanes the bidirectional protocol scores: predictions
    first, and none without predictions."""
    gt_lanes, pred_lanes = frame
    return (*pred_lanes, *gt_lanes) if pred_lanes else ()


def _bcd_rows(frames, n: int) -> list[np.ndarray]:
    """Per-frame ``(n_pred, n_gt)`` matrices for the bidirectional protocol.

    Entries a row's argmin and minimum can come from hold the full
    matrix's values bitwise (the mean of a pair's two directed means,
    each lane interpolated and sorted stably by y); every other entry is
    ``+inf`` (see ``nearest_pair_rows``), which ``_bcd_cores`` reads the
    same way.  Frames are searched in blocks of bounded size, and the
    values do not depend on the blocks.
    """
    return [
        d for block in _frame_blocks(frames, n, _bcd_lanes)
        for d in _bcd_block(*block, n)
    ]


def _bcd_block(frames, points, first, at, n: int) -> list[np.ndarray]:
    # A block of ``report._frame_blocks`` (every lane of a frame with
    # predictions, predictions first).  One row per prediction of a frame
    # with ground truths, over them in order; frame f's pairs are
    # values[starts[f]:starts[f + 1]].
    row_pred, row_gt, row_len, starts = [], [], [], [0]
    for (gt_lanes, pred_lanes), lane in zip(frames, at):
        n_pred, n_gt = len(pred_lanes), len(gt_lanes)
        if n_gt:
            row_pred.extend(range(lane, lane + n_pred))
            row_gt.extend([lane + n_pred] * n_pred)
            row_len.extend([n_gt] * n_pred)
        starts.append(starts[-1] + n_pred * n_gt)
    values = np.zeros(0)
    if row_len:
        curves = _sorted_by_y(resample_polylines(points, np.diff(first), n))
        row_len = np.array(row_len)
        values = nearest_pair_rows(curves, np.repeat(row_pred, row_len),
                                   _ranges(np.array(row_gt), row_len),
                                   np.cumsum(row_len) - row_len)
    return [values[start:stop].reshape(len(pred_lanes), len(gt_lanes))
            for (gt_lanes, pred_lanes), start, stop in zip(frames, starts, starts[1:])]


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
    core = _bcd_cores([(gt_lanes, pred_lanes)], config.n_interp)[0]
    tp_flags, covered, _ = _bcd_claim(core, config.tau_bcd)
    return tp_flags, [not tp for tp in tp_flags], covered


# ---------------------------------------------------------------------------
# BEV rasterization and IoU
# ---------------------------------------------------------------------------

class _Runs(NamedTuple):
    """A stroke as one run per row: row ``iy[k]`` covers the cells with
    ``lo[k] <= ix <= hi[k]``, from its first passing cell to its last.
    Rows strictly increase, and a row without a passing cell has no run."""

    iy: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


# (segment, row) pairs the rasterizer works on at once: bounds its working
# memory.  Lanes are grouped into blocks up to this many pairs, and a lane
# with more forms a block of its own.
_BLOCK_PAIRS = 1 << 13

# Unit roundoff of binary64, for the rounding bounds below.
_U = 2.0**-53


def _strokes(points: np.ndarray, sizes, config: EvalConfig) -> list[_Runs]:
    """Strokes of several polylines, one run per row: polyline i holds the
    next ``sizes[i]`` rows of ``points`` (``(rows, 2+)``), at least 2, with
    strictly increasing y.

    Each (segment, row) pair whose row comes within half a cell more
    than ``lane_width / 2`` of the segment's y-range is decided from the
    segment's interval on the row where ``_decided_cells`` proves that
    interval's end cells; the other pairs run the window scan of
    ``_window_cells``.  Pairs are worked on in blocks of whole lanes of
    at most ``_BLOCK_PAIRS`` pairs (a lane with more forms a block
    alone), and the runs do not depend on the blocks.

    A row's run spans its first passing cell to its last, a per-row
    min/max over the decided intervals and the scanned cells.  In exact
    arithmetic that is the row's cell set: the row meets each segment's
    stroke in one interval, and for a polyline whose y strictly increases
    their union is one interval too (the points within ``lane_width / 2``
    of the row form one stretch of the polyline, and their chords on the
    row sweep a connected set).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if not sizes.size:
        return []
    res = config.bev_resolution
    half = config.lane_width / 2.0
    reach = half + res / 2.0
    xy = points[:, :2]
    starts = np.ones(xy.shape[0], dtype=bool)
    starts[np.cumsum(sizes) - 1] = False
    a = np.flatnonzero(starts)
    ax, ay = xy[a, 0], xy[a, 1]
    bx, by = xy[a + 1, 0], xy[a + 1, 1]
    # every row within ``reach`` of each segment's y-range, as far as the
    # window scan's box around the segment goes
    margin = int(math.ceil(half / res)) + 1
    first = np.maximum(
        np.ceil(ay / res - 0.5) - 1 - margin, np.ceil((ay - reach) / res - 0.5)
    ).astype(np.int64)
    last = np.minimum(
        np.floor(by / res - 0.5) + 1 + margin, np.floor((by + reach) / res - 0.5)
    ).astype(np.int64)
    n_rows = np.maximum(last - first + 1, 0)

    # one row index for all lanes: a row iy of segment s's lane is
    # row iy + shift[s]
    seg_start = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes - 1, out=seg_start[1:])
    row0 = np.minimum.reduceat(first, seg_start[:-1])
    lane_rows = np.maximum(np.maximum.reduceat(last, seg_start[:-1]) - row0 + 1, 0)
    base = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(lane_rows, out=base[1:])
    shift = np.repeat(base[:-1] - row0, sizes - 1)
    # each row's first and last passing cell
    row_lo = np.full(base[-1], np.iinfo(np.int64).max)
    row_hi = np.full(base[-1], np.iinfo(np.int64).min)

    lane_pairs = np.add.reduceat(n_rows, seg_start[:-1])
    lane = 0
    while lane < sizes.size:
        stop, pairs = lane + 1, lane_pairs[lane]
        while stop < sizes.size and pairs + lane_pairs[stop] <= _BLOCK_PAIRS:
            pairs += lane_pairs[stop]
            stop += 1
        s0, s1 = seg_start[lane], seg_start[stop]
        lane = stop
        if not pairs:
            continue
        seg = np.repeat(np.arange(s0, s1), n_rows[s0:s1])
        iy = _ranges(first[s0:s1], n_rows[s0:s1])
        segments = ax[s0:s1], ay[s0:s1], bx[s0:s1], by[s0:s1]
        lo, hi, decided = _decided_cells(*segments, n_rows[s0:s1], iy, res, half)
        row = iy + shift[seg]
        filled = decided & (lo <= hi)
        undecided = ~decided
        hit_row, hit_ix = _window_cells(
            *segments, seg[undecided] - s0, iy[undecided], row[undecided], res, half)
        row = np.concatenate([row[filled], hit_row])
        np.minimum.at(row_lo, row, np.concatenate([lo[filled], hit_ix]))
        np.maximum.at(row_hi, row, np.concatenate([hi[filled], hit_ix]))

    rows = np.flatnonzero(row_lo <= row_hi)
    ends = np.searchsorted(rows, base)
    return [
        _Runs(rows[s:e] - base[l] + row0[l], row_lo[rows[s:e]], row_hi[rows[s:e]])
        for l, (s, e) in enumerate(zip(ends[:-1], ends[1:]))
    ]


def _decided_cells(ax, ay, bx, by, n_rows, iy, res, half):
    """The cells of row ``iy`` whose centers lie within ``half`` of the
    segment, for each (segment, row) pair (segment ``s`` holds the next
    ``n_rows[s]`` pairs), as ``[lo, hi]``, wherever a rounding bound proves
    that the predicate of ``_window_cells`` passes exactly there.

    Returns ``(lo, hi, decided)``; ``lo > hi`` is an empty decided pair,
    and undecided pairs hold arbitrary values.

    Geometry.  Let ``A``, ``B`` be the endpoints (``ay < by``),
    ``e = B - A``, ``l = |e|``, and ``dy = cy - ay`` for the row's
    center ``cy``.  The points within ``r`` of the segment meet the row
    in one interval ``I(r)``, empty unless ``ay - r <= cy <= by + r``.
    Its right end is the band's right edge on the row,
    ``ax + dy * ex / ey + r * l / ey``, when that point's projection
    ``s = (dy + r * ex / l) / ey`` on the segment lies in [0, 1], and the
    larger right end of the end disks' chords, ``ax + sqrt(r**2 - dy**2)``
    and ``bx + sqrt(r**2 - (dy - ey)**2)``, otherwise; it always lies
    between the two, so where ``s`` is too close to 0 or 1 to place,
    both bracket it.  The left end is symmetric.

    The bound (``u = 2**-53``; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 3, one rounding of relative size
    ``u`` per operation).  Let ``G`` be the largest coordinate magnitude
    of the segment plus ``2 * half + res``, which bounds every cell
    center the predicate can pass (a center beyond it lies more than
    ``half + res`` from the segment), ``k = u * (G + half)`` and
    ``E = 32 * k + 2**-470``.

    1. Predicate: a cell center within ``half - E`` of the segment
       passes, one farther than ``half + E`` fails.  (The computed
       ``w`` and ``e`` are within ``4.3 * u * G`` and ``2.9 * u * G`` of
       exact; any ``t`` in [0, 1] gives a point of the segment, and the
       computed ``t`` costs at most ``6 * u * |w| + 2**-480`` more than
       the best one; ``dx``, ``dy``, the squares and the sum add
       ``2.9 * u * G`` and a relative ``2 * u``: ``28 * u * G +
       3 * u * half + 2**-478`` in all.)
    2. Radius: if ``I(half)`` is not empty, ``I(half + E)`` lies within
       ``D = E * (1 + |ex| / ey) + sqrt(E * (2 * half + E))`` of it, and
       ``I(half)`` shrunk by ``D`` lies in ``I(half - E)``.  (A point of
       the segment within ``r + E`` of the row moves by at most
       ``E / ey`` along it, or ``E * |ex| / ey`` in x, to come within
       ``r``; its chord then shrinks by at most ``sqrt(2 * r * E + E**2)``.
       If ``I(half - E)`` is empty, ``I(half)`` is shorter than ``2 * D``.)
    3. Ends: the computed band edges are within
       ``16 * k * (1 + l / ey)`` of exact, the chord ends within
       ``sqrt(33 * k * half) + 2 * k``.  ``s`` is placed only beyond a
       margin of ``16 * k / ey``, a chord only where
       ``half**2 - dy**2`` clears ``16 * k * (half + |dy|)``, and a row
       only when it lies ``8 * k`` inside ``[ay - half, by + half]``, or
       ``E + 8 * k`` outside it (decided empty).
    4. Cells: with ``mu`` the sum of the terms in 2 and 3, times
       ``1 + 2**-30``, an end is decided when the cell centers just
       inside and just outside it lie more than ``mu`` from the computed
       end, after ``4 * u * (2 * G + 2 * mu + res)`` for the three
       roundings of the cell index.  Cells then pass exactly on
       ``[lo, hi]``.

    A segment with ``E >= half / 2``, ``G >= 2**500``, ``ey < 2**-400``
    or ``l >= 2**100 * ey`` is never decided.
    """
    h = half
    ex, ey = bx - ax, by - ay
    with np.errstate(all="ignore"):
        big = np.maximum(np.maximum(np.abs(ax), np.abs(bx)),
                         np.maximum(np.abs(ay), np.abs(by))) + (2.0 * h + res)
        k = _U * (big + h)
        err = 32.0 * k + 2.0**-470
        length = np.sqrt(ex * ex + ey * ey)
        mu = ((err + 16.0 * k) * (1.0 + length / ey) + np.sqrt(err * (2.0 * h + err))
              + np.sqrt(33.0 * k * h) + 2.0 * k + 2.0**-400) * (1.0 + 2.0**-30)
        trusted = ((err < h / 2.0) & (big < 2.0**500) & (ey >= 2.0**-400)
                   & (length < 2.0**100 * ey))
        pad = np.where(trusted, mu + 4.0 * _U * (2.0 * big + 2.0 * mu + res), np.inf)
        far = np.where(trusted, h + err + 8.0 * k, np.inf)
        (ax_p, ay_p, bx_p, by_p, slope, width, inv_ey, tilt, row_margin,
         s_margin, cut_margin, pad, far) = np.repeat(np.stack([
            ax, ay, bx, by, ex / ey, h * length / ey, 1.0 / ey,
            h * (ex / length) / ey, 8.0 * k, 16.0 * k / ey, 16.0 * k, pad, far,
        ]), n_rows, axis=1)

        cy = (iy + 0.5) * res
        da = cy - ay_p
        db = cy - by_p
        outside = (da < -far) | (db > far)
        inside = (da >= row_margin - h) & (db <= h - row_margin)
        # band edges, and where their projections surely lie
        center = ax_p + da * slope
        low_r = up_r = center + width
        low_l = up_l = center - width
        s = da * inv_ey
        s_r = s + tilt
        s_l = s - tilt
        in_r = (s_r >= s_margin) & (s_r <= 1.0 - s_margin)
        in_l = (s_l >= s_margin) & (s_l <= 1.0 - s_margin)

        # pairs near the segment's ends: the chords bracket the ends too
        near = np.flatnonzero(inside & ~(in_r & in_l))
        sure = inside.copy()
        if near.size:
            low_r, up_r, low_l, up_l = (v.copy() for v in (low_r, up_r, low_l, up_l))
            chord_r = np.full(near.size, -np.inf)
            chord_l = np.full(near.size, np.inf)
            for d, cx in ((da[near], ax_p[near]), (db[near], bx_p[near])):
                r2 = h * h - d * d
                margin = cut_margin[near] * (h + np.abs(d))
                cuts = r2 >= margin
                sure[near] &= cuts | (r2 < -margin)
                w = np.sqrt(np.where(cuts, r2, 0.0))
                chord_r = np.where(cuts, np.maximum(chord_r, cx + w), chord_r)
                chord_l = np.where(cuts, np.minimum(chord_l, cx - w), chord_l)
            se = s_margin[near]
            sr, sl = s_r[near], s_l[near]
            band_r, band_l = low_r[near], low_l[near]
            low_r[near] = np.where(in_r[near], band_r, chord_r)
            up_r[near] = np.where((sr < -se) | (sr > 1.0 + se), chord_r, band_r)
            low_l[near] = np.where((sl < -se) | (sl > 1.0 + se), chord_l, band_l)
            up_l[near] = np.where(in_l[near], band_l, chord_l)

        hi = np.floor((low_r - pad) / res - 0.5)
        lo = np.ceil((up_l + pad) / res - 0.5)
        sure &= (hi == np.floor((up_r + pad) / res - 0.5))
        sure &= (lo == np.ceil((low_l - pad) / res - 0.5))
    lo = np.where(sure, lo, 1.0).astype(np.int64)
    hi = np.where(sure, hi, 0.0).astype(np.int64)
    return lo, hi, sure | outside


def _window_cells(ax, ay, bx, by, seg, iy, row, res, half):
    """The cells that pass the stroke predicate for (segment, row) pairs
    ``(seg, iy)``: each cell's ``ix``, with its pair's ``row``.

    Cell ``(ix, iy)`` has center ``((ix + 0.5) * res, (iy + 0.5) * res)``
    in ground x/y and passes when its center lies within half the lane
    width of the segment, which the predicate below decides cell by
    cell.  Each segment tests, in every row of its scan box (its cell
    bounding box grown by ``margin``), only the cells whose centers lie
    within half a cell more than half the lane width of the segment's
    line.  That window holds every cell the predicate can pass, since
    the rounding error of both stays far below half a cell.
    """
    if not seg.size:
        return row, row  # both empty
    margin = int(math.ceil(half / res)) + 1
    reach = half + res / 2.0
    ex, ey = bx - ax, by - ay
    c2 = ex * ex + ey * ey
    # c2 is 0 only by underflow; t = num / inf is then 0, as for a point
    c2 = np.where(c2 > 0.0, c2, np.inf)
    ix0 = np.ceil(np.minimum(ax, bx) / res - 0.5) - 1 - margin
    ix1 = np.floor(np.maximum(ax, bx) / res - 0.5) + 1 + margin
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
    n_cols = np.maximum(hi - lo + 1, 0).astype(np.int64)

    # the predicate, on every cell of every window
    def per_cell(values):
        return np.repeat(values, n_cols)

    seg, row = per_cell(seg), per_cell(row)
    ix = _ranges(lo, n_cols)  # integral floats
    ex_c, ey_c = ex[seg], ey[seg]
    wx = (ix + 0.5) * res - ax[seg]
    wy_c = per_cell(wy)
    t = np.clip((wx * ex_c + wy_c * ey_c) / c2[seg], 0.0, 1.0)
    dx = wx - t * ex_c
    dy = wy_c - t * ey_c
    hit = (dx * dx + dy * dy) <= half * half
    return row[hit], ix[hit].astype(np.int64)


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
    """Number of cells in both strokes, both with at least one run."""
    k = np.minimum(np.searchsorted(a.iy, b.iy), a.iy.size - 1)
    overlap = np.minimum(a.hi[k], b.hi) - np.maximum(a.lo[k], b.lo) + 1
    return int(np.maximum(overlap, 0)[a.iy[k] == b.iy].sum())


def bev_iou(gt: Lane3D, pred: Lane3D, config: EvalConfig | None = None) -> float:
    """IoU of the two lanes' stroked footprints on the BEV grid."""
    config = config or EvalConfig()
    a, b = _strokes(*_visible_points([gt, pred]), config)
    return float(_iou_matrix([a], [b])[0, 0])


# ---------------------------------------------------------------------------
# per-frame cores
# ---------------------------------------------------------------------------


def _iou_lanes(frame) -> tuple:
    """A frame's lanes the IoU-gated protocols score: ground truths
    first, and none unless the frame has both kinds."""
    gt_lanes, pred_lanes = frame
    return (*gt_lanes, *pred_lanes) if gt_lanes and pred_lanes else ()


class _IouCore(NamedTuple):
    """One frame's matched pairs whose IoU exceeds ``tau_iou``, in
    assignment order: their unilateral CDs and, when asked for, their
    worst-case distances (the configured variant); plus its lane
    counts."""

    ucd: list[float]
    worst: list[float]
    n_gt: int
    n_pred: int


def _matched_frames(frames, config: EvalConfig, with_maxes: bool) -> list[_IouCore]:
    """One ``_IouCore`` per frame; see ``_iou_matched_block``."""
    return [
        core
        for block in _frame_blocks(frames, config.n_interp, _iou_lanes)
        for core in _iou_matched_block(*block, config, with_maxes)
    ]


def _iou_matched_block(frames, points, first, at, config: EvalConfig,
                       with_maxes: bool) -> list[_IouCore]:
    """IoU-maximizing assignment plus the distances of each frame's pairs
    above the IoU gate (no other pair can count or qualify).

    The block and its gathered lanes come from ``report._frame_blocks``,
    and each frame's lanes are stroked by one ``_strokes`` call.  The
    qualified pairs' lanes of all frames are interpolated by one
    ``resample_polylines`` call, which equals ``interpolate_lane``
    bitwise, and their CDs come from one ``polyline_mean_pairs`` call.
    With ``with_maxes``, one ``directed_mean_pairs`` call gives each
    pair's two directed maximum distances, which make its worst-case
    distance.
    """
    counts = np.diff(first)
    matches = []  # (frame, gt lane, pred lane) of each qualified pair
    for f, ((gt_lanes, _), lane, stop) in enumerate(zip(frames, at, at[1:])):
        if lane == stop:
            continue
        n_gt = len(gt_lanes)
        strokes = _strokes(points[first[lane]:first[stop]], counts[lane:stop], config)
        iou = _iou_matrix(strokes[:n_gt], strokes[n_gt:])
        matches.extend(
            (f, lane + i, lane + n_gt + j)
            for i, j in hungarian(-iou).pairs if iou[i, j] > config.tau_iou
        )

    cores = [_IouCore([], [], len(gt), len(pred)) for gt, pred in frames]
    if matches:
        ends = np.array([g for _, g, _ in matches] + [p for *_, p in matches])
        curves = resample_polylines(
            points[_ranges(first[ends], counts[ends])], counts[ends], config.n_interp
        )
        k = len(matches)
        gt_curves, pred_curves = curves[:k], curves[k:]
        ucd, _, _ = polyline_mean_pairs(gt_curves, pred_curves)
        for (f, _, _), d in zip(matches, ucd.tolist()):
            cores[f].ucd.append(d)
        if with_maxes:
            # ground truths to predictions, then predictions to ground truths
            targets = _sorted_by_y(np.concatenate([pred_curves, gt_curves]))
            _, maxes, _ = directed_mean_pairs(curves, targets)
            for (f, _, _), max_gp, max_pg in zip(matches, maxes[:k].tolist(),
                                                 maxes[k:].tolist()):
                if config.mbd_variant == "directed_max_mean":
                    cores[f].worst.append((max_pg + max_gp) / 2.0)
                else:
                    cores[f].worst.append(max(max_pg, max_gp))
    return cores


def _once_gate(core: _IouCore, tau: float) -> tuple[int, int, int, list[float]]:
    """``(tp, fp, fn, accepted CDs)``: a qualified pair is accepted when its
    unilateral CD is below ``tau``."""
    accepted = [d for d in core.ucd if d < tau]
    tp = len(accepted)
    return tp, core.n_pred - tp, core.n_gt - tp, accepted


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def bcd_report(
    frames,
    config: EvalConfig | None = None,
    frame_ids=None,
) -> MetricReport:
    """Bidirectional-protocol evaluation over ``(gt_lanes, pred_lanes)`` frames."""
    config = config or EvalConfig()
    ids = _frame_ids(frames, frame_ids)
    counts = [
        _bcd_gate(core, config.tau_bcd)
        for core in _bcd_cores(frames, config.n_interp)
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
    counts = [
        _once_gate(core, config.tau_cd)
        for core in _matched_frames(frames, config, with_maxes=False)
    ]
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
    counts = [
        (*_once_gate(core, config.tau_cd)[:3], core.worst)
        for core in _matched_frames(frames, config, with_maxes=True)
    ]
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

    Each frame's core is computed once and gated at every threshold,
    which is exactly equivalent to running the protocol separately at each
    tau.  The ``bcd`` and ``once``/``mbd`` gates take one threshold at a
    time; ``openlane`` gates all of a frame's thresholds in one pass.
    """
    config = config or EvalConfig()
    taus = _tau_list(taus)
    _frame_ids(frames, frame_ids)
    if protocol == "openlane":  # its cost caps reject an infinite tau
        return pointwise_sweep(frames, taus, pointwise_config)
    if protocol not in ("bcd", "once", "mbd"):
        raise ConfigError(f"unknown sweep protocol {protocol!r}")
    if math.inf in taus:  # the rows must stay standard JSON
        raise ConfigError("tau values must be finite, got inf")
    if protocol == "bcd":
        cores, gate = _bcd_cores(frames, config.n_interp), _bcd_gate
    else:
        cores, gate = _matched_frames(frames, config, with_maxes=False), _once_gate
    return _sweep(cores, lambda core: [gate(core, tau)[:3] for tau in taus], taus)
