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
origin sits at integer multiples of the resolution, so the IoU of two
lanes never depends on which other lanes share the frame.  Only x/y
enter it: a stroke covers the cells whose centers lie within
``lane_width / 2`` of the polyline (boundary inclusive), held as one run
per row of a row table (``_stroke_table``).  For most (segment, row)
pairs the run's ends come from the closed-form interval where the row
meets the segment's stroke, under a rounding bound (``_decided_cells``);
the few others test the cell-by-cell predicate on a window of the row
(``_window_cells``).  Every tested input, adversarial ones included,
agrees with a cell-by-cell scan.  The IoU of two strokes sums the
overlaps of their runs over aligned rows of the table (``_iou_matrix``).

Every protocol works on blocks of frames from ``report._frame_blocks``:
it cuts the frames into blocks, gathers a block's scored lanes by one
``geometry._visible_points`` call, which raises for the first lane short
of 2 visible points, and hands the protocol their points with each
lane's and each frame's offsets.  A block that raises is scored again
frame by frame (``report._blockwise``), so the error of a run is that of
the first frame that fails on its own.  In the IoU-gated protocols one
raster call strokes every lane of a frame, and a block's IoU-qualified
matched pairs are interpolated by one ``resample_polylines`` call and
scored by one ``polyline_mean_pairs`` call, bitwise as
``interpolate_lane`` and ``point_to_polyline_stats`` would score them.

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

from .errors import ConfigError, RasterOverflow
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


def _bcd_cores(frames, n: int,
               ids=None) -> list[tuple[list[tuple[int, float]], int, int]]:
    """Per frame, each prediction's nearest ground truth (lowest index on
    ties) and its distance, none without ground truths, with the frame's
    ``n_pred`` and ``n_gt``; ``ids`` go to the block driver."""
    cores = []
    for d in _bcd_rows(frames, n, ids):
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


def _bcd_sides(frame) -> tuple:
    """A frame's sides the bidirectional protocol scores: predictions
    first, and none without predictions."""
    return (1, 0) if frame[1] else ()


def _bcd_rows(frames, n: int, ids=None) -> list[np.ndarray]:
    """Per-frame ``(n_pred, n_gt)`` matrices for the bidirectional protocol.

    Entries a row's argmin and minimum can come from hold the full
    matrix's values bitwise (the mean of a pair's two directed means,
    each lane interpolated and sorted stably by y); every other entry is
    ``+inf`` (see ``nearest_pair_rows``), which ``_bcd_cores`` reads the
    same way.  Frames are searched in blocks of bounded size, and the
    values do not depend on the blocks.
    """
    return list(_frame_blocks(frames, n, _bcd_sides,
                              lambda *block: _bcd_block(*block, n), ids))


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

# (segment, row) pairs the rasterizer works on at once: bounds its working
# memory.  Lanes are grouped into blocks up to this many pairs (a frame of
# eight 100 m lanes, at the default raster, is one), and a lane with more
# forms a block of its own.
_BLOCK_PAIRS = 20_000

# Cells the window scan tests at once (about 100 bytes each), and at most
# in one row's window.
_WINDOW_CELLS = 1 << 18

# The bounds of a row without a cell: cell indices stay within 2**53, so
# its overlap with any run is negative and never overflows.
_EMPTY = 1 << 62

# Unit roundoff of binary64, for the rounding bounds below.
_U = 2.0**-53


def _stroke_table(points: np.ndarray, sizes, config: EvalConfig):
    """Strokes of one or more polylines as one row table ``(lo, hi, base,
    row0)``: polyline i holds the next ``sizes[i]`` rows of ``points``
    (``(rows, 2+)``), at least 2, with strictly increasing y, and owns
    table rows ``base[i]:base[i + 1]`` (at least one), the first of them
    grid row ``row0[i]``.  A row's run covers the cells ``lo <= ix <= hi``;
    a row without one holds ``lo = _EMPTY``, ``hi = -_EMPTY``.

    Each (segment, row) pair whose row comes within half a cell more
    than ``lane_width / 2`` of the segment's y-range is decided from the
    segment's interval on the row where ``_decided_cells`` proves that
    interval's end cells; the other pairs run the window scan of
    ``_window_cells``, which raises ``RasterOverflow`` (its ``lane`` the
    polyline's index) for a window past ``_WINDOW_CELLS`` cells or a cell
    index past 2**53.  Pairs are worked on in blocks of whole lanes of at most
    ``_BLOCK_PAIRS`` pairs (a lane with more forms a block alone), and the
    runs do not depend on the blocks.

    A row's run spans its first passing cell to its last, a per-row
    min/max over the decided intervals and the scanned cells.  In exact
    arithmetic that is the row's cell set: the row meets each segment's
    stroke in one interval, and for a polyline whose y strictly increases
    their union is one interval too (the points within ``lane_width / 2``
    of the row form one stretch of the polyline, and their chords on the
    row sweep a connected set).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
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
    lane = np.repeat(np.arange(sizes.size), sizes - 1)
    row0 = np.minimum.reduceat(first, seg_start[:-1])
    lane_rows = np.maximum(np.maximum.reduceat(last, seg_start[:-1]) - row0 + 1, 1)
    base = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(lane_rows, out=base[1:])
    shift = (base[:-1] - row0)[lane]
    row_lo = np.full(base[-1], _EMPTY)
    row_hi = np.full(base[-1], -_EMPTY)

    lane_pairs = np.add.reduceat(n_rows, seg_start[:-1])
    l0 = 0
    while l0 < sizes.size:
        stop, pairs = l0 + 1, lane_pairs[l0]
        while stop < sizes.size and pairs + lane_pairs[stop] <= _BLOCK_PAIRS:
            pairs += lane_pairs[stop]
            stop += 1
        s0, s1 = seg_start[l0], seg_start[stop]
        l0 = stop
        if not pairs:
            continue
        counts = n_rows[s0:s1]
        iy = _ranges(first[s0:s1], counts)
        segments = ax[s0:s1], ay[s0:s1], bx[s0:s1], by[s0:s1]
        lo, hi, decided = _decided_cells(*segments, first[s0:s1], counts, iy, res, half)
        row = iy + np.repeat(shift[s0:s1], counts)
        np.minimum.at(row_lo, row, lo)
        np.maximum.at(row_hi, row, hi)
        undecided = np.flatnonzero(~decided)
        if undecided.size:
            seg = np.searchsorted(np.cumsum(counts), undecided, side="right")
            _window_cells(*segments, lane[s0:s1], seg, iy[undecided], row[undecided],
                          res, half, row_lo, row_hi)
    return row_lo, row_hi, base, row0


def _decided_cells(ax, ay, bx, by, first, n_rows, iy, res, half):
    """The cells of row ``iy`` whose centers lie within ``half`` of the
    segment, for each (segment, row) pair (segment ``s`` holds the next
    ``n_rows[s]`` pairs, rows ``first[s]`` on), as ``[lo, hi]``, wherever
    a rounding bound proves that the predicate of ``_window_cells`` passes
    exactly there.

    Returns ``(lo, hi, decided)``; a pair without a decided cell, empty
    or undecided, holds ``lo = _EMPTY`` and ``hi = -_EMPTY``.

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

    A segment with ``E >= half / 2``, ``G >= 2**500``, ``G >= 2**52 *
    res``, ``ey < 2**-400`` or ``l >= 2**100 * ey`` is never decided.

    Work.  The row tests (inside the row margin, both edges' ``s``
    placed in the segment) pass on one stretch of each segment's rows,
    since every quantity they compare grows with ``iy``; so where they
    pass on a segment's rows ``j1`` and ``j2``, they pass on every row
    between.  Those interior rows take their ends from the band edges
    alone, which every pair computes; the two flanks of rows outside
    them, where the rows end, the chords matter or a row is undecided,
    run the full tests as a subset and are written back once.
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
        trusted = ((err < h / 2.0) & (big < 2.0**500) & (big < 2.0**52 * res)
                   & (ey >= 2.0**-400) & (length < 2.0**100 * ey))
        pad = np.where(trusted, mu + 4.0 * _U * (2.0 * big + 2.0 * mu + res), np.inf)
        slope, width, inv_ey = ex / ey, h * length / ey, 1.0 / ey
        tilt = h * (ex / length) / ey
        row_margin, s_margin = 8.0 * k, 16.0 * k / ey
        # each segment's values for the row tests and the chords
        cols = {"ay": ay, "by": by, "ends": np.stack([ax, bx]), "inv_ey": inv_ey,
                "tilts": np.stack([tilt, -tilt]), "row_margin": row_margin,
                "s_margin": s_margin, "cut": 16.0 * k, "pad": pad,
                "far": np.where(trusted, h + err + 8.0 * k, np.inf)}

        # each segment's interior rows [j1, j2], estimated and then checked
        # at both ends: a segment that fails has none
        last = first + n_rows - 1
        tip = np.abs(tilt)
        j1 = np.maximum(ay + (row_margin - h), ay + (s_margin + tip) * ey)
        j2 = np.minimum(by + (h - row_margin), ay + (1.0 - s_margin - tip) * ey)
        j = np.concatenate([np.clip(np.ceil(j1 / res - 0.5), first, last),
                            np.clip(np.floor(j2 / res - 0.5), first, last)])
        j = j.astype(np.int64).reshape(2, -1)
        each = np.tile(np.arange(n_rows.size), 2)
        _, _, inside, _, placed = _row_tests((j.ravel() + 0.5) * res,
                                             lambda key: cols[key].take(each, axis=-1), h)
        ok = trusted & (inside & placed.all(axis=0)).reshape(2, -1).all(axis=0)
        ok &= j[0] <= j[1]
        lead = np.where(ok, j[0] - first, n_rows)
        trail = np.where(ok, last - j[1], 0)

        # every pair: the band's edges and their end cells, in place so
        # that few per-pair arrays are alive at once
        def per_pair(values):
            return np.repeat(values, n_rows)

        cy = iy + 0.5
        cy *= res
        edge_l = per_pair(ay)
        np.subtract(cy, edge_l, out=edge_l)
        edge_l *= per_pair(slope)
        edge_l += per_pair(ax)
        edge_r = per_pair(width)
        edge_r += edge_l
        np.subtract(edge_l, per_pair(width), out=edge_l)
        ends = np.cumsum(n_rows)
        flank = _ranges(np.stack([ends - n_rows, ends - trail], axis=1).ravel(),
                        np.stack([lead, trail], axis=1).ravel())
        cy, band = cy[flank], np.stack([edge_r[flank], edge_l[flank]])
        lo, hi, sure = _end_cells(edge_r, edge_r, edge_l, edge_l, per_pair(pad), res)
        del edge_r, edge_l
        decided = sure
        if flank.size:
            seg = np.repeat(np.arange(n_rows.size), lead + trail)
            lo[flank], hi[flank], sure[flank], outside = _flank_cells(
                cy, band, lambda key: cols[key].take(seg, axis=-1), h, res)
            decided = sure.copy()
            decided[flank] |= outside
    empty = ~(sure & (lo <= hi))
    np.copyto(lo, _EMPTY, where=empty)
    np.copyto(hi, -_EMPTY, where=empty)
    return lo.astype(np.int64), hi.astype(np.int64), decided


def _row_tests(cy, col, h):
    # The row tests of rows centered at cy, with col(key) each row's
    # segment value (of ``_decided_cells``' cols): the offsets from the
    # segment's ends, whether the row lies inside the row margin, and each
    # band edge's projection (right, left) and whether it is placed
    da, db = cy - col("ay"), cy - col("by")
    margin = col("row_margin")
    inside = (da >= margin - h) & (db <= h - margin)
    s = da * col("inv_ey") + col("tilts")
    s_margin = col("s_margin")
    return da, db, inside, s, (s >= s_margin) & (s <= 1.0 - s_margin)


def _flank_cells(cy, band, col, h, res):
    # ``_end_cells`` of flank rows: near the segment's ends the chords of
    # the end disks bracket the ends too; also which rows lie outside.
    # Each array is dropped once used, to bound the working memory.
    da, db, inside, s, placed = _row_tests(cy, col, h)
    far = col("far")
    outside = (da < -far) | (db > far)
    near = inside & ~placed.all(axis=0)
    # each end disk's chord (a, then b) where it cuts the row
    d = np.stack([da, db])
    del da, db, far
    r2 = h * h - d * d
    margin = col("cut") * (h + np.abs(d))
    cuts = r2 >= margin
    sure = inside & (~near | (cuts | (r2 < -margin)).all(axis=0))
    del d, margin
    w = np.sqrt(np.where(cuts, r2, 0.0))
    centers = col("ends")
    chord = np.stack([np.where(cuts, centers + w, -np.inf).max(axis=0),
                      np.where(cuts, centers - w, np.inf).min(axis=0)])
    del r2, cuts, w, centers
    # each end (right, left) between its inner and outer bound
    s_margin = col("s_margin")
    inner = np.where(near & ~placed, chord, band)
    outer = np.where(near & ((s < -s_margin) | (s > 1.0 + s_margin)), chord, band)
    del chord, s, placed
    lo, hi, ends = _end_cells(inner[0], outer[0], outer[1], inner[1], col("pad"), res)
    return lo, hi, sure & ends, outside


def _end_cells(low_r, up_r, low_l, up_l, pad, res):
    # The cells [lo, hi] of row intervals whose right end lies in
    # [low_r, up_r] and left end in [low_l, up_l], and whether the cell of
    # each end is sure at a distance pad from it (``_decided_cells``, 4.)
    def cell(end, move, rounding):
        index = move(end, pad)
        index /= res
        index -= 0.5
        return rounding(index, out=index)

    hi = cell(low_r, np.subtract, np.floor)
    lo = cell(up_l, np.add, np.ceil)
    sure = hi == cell(up_r, np.add, np.floor)
    sure &= lo == cell(low_l, np.subtract, np.ceil)
    return lo, hi, sure


def _window_cells(ax, ay, bx, by, lane, seg, iy, row, res, half, row_lo, row_hi):
    """Merge the cells that pass the stroke predicate for (segment, row)
    pairs ``(seg, iy)`` into table rows ``row`` of ``row_lo``/``row_hi``.

    Cell ``(ix, iy)`` has center ``((ix + 0.5) * res, (iy + 0.5) * res)``
    in ground x/y and passes when its center lies within half the lane
    width of the segment, which the predicate below decides cell by
    cell.  Each segment tests, in every row of its scan box (its cell
    bounding box grown by ``margin``), only the cells whose centers lie
    within half a cell more than half the lane width of the segment's
    line.  That window holds every cell the predicate can pass, since
    the rounding error of both stays far below half a cell.

    Pairs are tested in chunks of at most ``_WINDOW_CELLS`` cells.  A
    window of more cells, or with a cell index beyond 2**53, raises
    ``RasterOverflow`` before any cell is tested, naming the lane
    (``lane[s]`` for segment ``s``) of the largest.
    """
    margin = int(math.ceil(half / res)) + 1
    reach = half + res / 2.0
    with np.errstate(all="ignore"):
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
        x0 = ax[seg] + (ux * wy - reach) / uy
        x1 = ax[seg] + (ux * wy + reach) / uy
        lo = np.fmax(np.ceil(x0 / res - 0.5), ix0[seg])
        hi = np.fmin(np.floor(x1 / res - 0.5), ix1[seg])
        n_cols = np.maximum(hi - lo + 1, 0)
        exact = (n_cols == 0) | (np.fmax(np.abs(lo), np.abs(hi)) < 2.0**53)
        cost = np.where(exact, n_cols, np.inf)
    if not cost.max() <= _WINDOW_CELLS:
        raise RasterOverflow(
            f"its BEV stroke needs a row window of more than {_WINDOW_CELLS} cells "
            f"or a cell index beyond 2**53 (bev_resolution {res!r})",
            lane=int(lane[seg[np.argmax(cost)]]))
    n_cols = n_cols.astype(np.int64)
    step = _WINDOW_CELLS // max(int(n_cols.max()), 1)

    # the predicate, on every cell of every window, step pairs at a time
    for p in range(0, seg.size, step):
        def per_cell(values):
            return np.repeat(values[p:p + step], n_cols[p:p + step])

        s, ix = per_cell(seg), _ranges(lo[p:p + step], n_cols[p:p + step])
        ex_c, ey_c = ex[s], ey[s]
        wx = (ix + 0.5) * res - ax[s]  # ix: integral floats
        wy_c = per_cell(wy)
        t = np.clip((wx * ex_c + wy_c * ey_c) / c2[s], 0.0, 1.0)
        dx = wx - t * ex_c
        dy = wy_c - t * ey_c
        hit = (dx * dx + dy * dy) <= half * half
        hit_row, hit_ix = per_cell(row)[hit], ix[hit].astype(np.int64)
        np.minimum.at(row_lo, hit_row, hit_ix)
        np.maximum.at(row_hi, hit_row, hit_ix)


def _iou_matrix(table, n_a: int) -> np.ndarray:
    """BEV IoU of every pair of strokes from ``table``'s first ``n_a``
    polylines and the others.

    Each stroke's size and its first and last column are reductions over
    its rows of the table.  A pair whose row ranges (of the table) or
    column ranges are disjoint shares no cell, so its IoU is 0 without
    further work, as is a pair with an empty stroke.  Each other pair's
    intersection sums the overlaps of the two strokes' runs over aligned
    slices of their rows.
    """
    lo, hi, base, row0 = table
    starts = base[:-1]
    size = np.add.reduceat(np.maximum(hi - lo + 1, 0), starts)
    left, right = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
    at = starts - row0  # grid row r of stroke l is table row at[l] + r
    top, bottom = row0, base[1:] - 1 - at
    a, b = slice(None, n_a), slice(n_a, None)
    meet = (
        (size[a, None] > 0) & (size[b] > 0)
        & (top[a, None] <= bottom[b]) & (top[b] <= bottom[a, None])
        & (left[a, None] <= right[b]) & (left[b] <= right[a, None])
    )
    iou = np.zeros(meet.shape)
    size, at, top, bottom = size.tolist(), at.tolist(), top.tolist(), bottom.tolist()
    for i, j in zip(*np.nonzero(meet)):
        k = n_a + j
        r0 = max(top[i], top[k])
        rows_i = slice(at[i] + r0, at[i] + min(bottom[i], bottom[k]) + 1)
        rows_k = slice(at[k] + r0, at[k] + min(bottom[i], bottom[k]) + 1)
        overlap = np.minimum(hi[rows_i], hi[rows_k])
        overlap -= np.maximum(lo[rows_i], lo[rows_k])
        overlap += 1
        inter = int(np.maximum(overlap, 0, out=overlap).sum())
        iou[i, j] = inter / (size[i] + size[k] - inter)
    return iou


def bev_iou(gt: Lane3D, pred: Lane3D, config: EvalConfig | None = None) -> float:
    """IoU of the two lanes' stroked footprints on the BEV grid."""
    config = config or EvalConfig()
    return float(_iou_matrix(_stroke_table(*_visible_points([gt, pred]), config), 1)[0, 0])


# ---------------------------------------------------------------------------
# per-frame cores
# ---------------------------------------------------------------------------


def _iou_sides(frame) -> tuple:
    """A frame's sides the IoU-gated protocols score: ground truths
    first, and none unless the frame has both kinds."""
    return (0, 1) if frame[0] and frame[1] else ()


class _IouCore(NamedTuple):
    """One frame's matched pairs whose IoU exceeds ``tau_iou``, in
    assignment order: their unilateral CDs and, when asked for, their
    worst-case distances (the configured variant); plus its lane
    counts."""

    ucd: list[float]
    worst: list[float]
    n_gt: int
    n_pred: int


def _matched_frames(frames, config: EvalConfig, with_maxes: bool,
                    ids=None) -> list[_IouCore]:
    """One ``_IouCore`` per frame; see ``_iou_matched_block``."""
    return list(_frame_blocks(
        frames, config.n_interp, _iou_sides,
        lambda *block: _iou_matched_block(*block, config, with_maxes), ids))


def _iou_matched_block(frames, points, first, at, config: EvalConfig,
                       with_maxes: bool) -> list[_IouCore]:
    """IoU-maximizing assignment plus the distances of each frame's pairs
    above the IoU gate (no other pair can count or qualify).

    The block and its gathered lanes come from ``report._frame_blocks``,
    each frame's lanes are stroked by one ``_stroke_table`` call, and its
    IoU is read from that table by ``_iou_matrix``.  The qualified pairs'
    lanes of all frames are interpolated by one ``resample_polylines``
    call, which equals ``interpolate_lane`` bitwise, and their CDs come
    from one ``polyline_mean_pairs`` call.  With ``with_maxes``, one
    ``directed_mean_pairs`` call gives each pair's two directed maximum
    distances, which make its worst-case distance.
    """
    counts = np.diff(first)
    matches = []  # (frame, gt lane, pred lane) of each qualified pair
    for f, ((gt_lanes, _), lane, stop) in enumerate(zip(frames, at, at[1:])):
        if lane == stop:
            continue
        n_gt = len(gt_lanes)
        table = _stroke_table(points[first[lane]:first[stop]], counts[lane:stop], config)
        iou = _iou_matrix(table, n_gt)
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
        for core in _bcd_cores(frames, config.n_interp, ids)
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
        for core in _matched_frames(frames, config, False, ids)
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
        for core in _matched_frames(frames, config, True, ids)
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
    ids = _frame_ids(frames, frame_ids)
    if protocol == "openlane":  # its cost caps reject an infinite tau
        return pointwise_sweep(frames, taus, pointwise_config, frame_ids=ids)
    if protocol not in ("bcd", "once", "mbd"):
        raise ConfigError(f"unknown sweep protocol {protocol!r}")
    if math.inf in taus:  # the rows must stay standard JSON
        raise ConfigError("tau values must be finite, got inf")
    if protocol == "bcd":
        cores, gate = _bcd_cores(frames, config.n_interp, ids), _bcd_gate
    else:
        cores, gate = _matched_frames(frames, config, False, ids), _once_gate
    return _sweep(cores, lambda core: [gate(core, tau)[:3] for tau in taus], taus)
