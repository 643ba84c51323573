"""Numeric kernels for nearest-neighbor distance statistics.

Each statistic has one implementation, a batched NumPy kernel over many
lane pairs at once:

* ``directed_mean_pairs``: the mean and max nearest-neighbor distance
  from each source lane's points to its target lane's point set;
* ``polyline_mean_pairs``: the mean and max distance from each source
  lane's points to its target lane's polyline;
* ``resample_polylines``: arc-length-uniform resampling of many lanes.

The results are **bit-identical** to a plain double loop: the squared
distance is evaluated with the operation order ``(dx*dx + dy*dy) +
dz*dz``, minima are pure value selections, ``sqrt`` is applied per
source point, sums accumulate in source-point order and the max is a
selection of the same square roots, so reports are the same bytes on
every run.  The distance kernels scan, for each source point, a few
target points or segments around its y and fall back to the whole
target lane where the window does not prove the minimum.

The single-pair functions (``directed_point_stats``,
``point_to_polyline_stats``, ``resample_polyline``) are batches of one
of these kernels, and ``pair_mean_matrices`` sends each of its pairs
through ``directed_mean_pairs``.  They reject points that are not
finite with ``ValueError``.

The bidirectional protocol scores blocks of frames with
``nearest_pair_rows``: each (prediction, ground truth) pair gets a lower
bound from chunk bounding boxes, and exact means are computed only for
pairs that can hold their row's minimum.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "active_backend",
    "directed_mean_pairs",
    "directed_point_stats",
    "nearest_pair_rows",
    "pair_mean_matrices",
    "point_to_polyline_stats",
    "polyline_mean_pairs",
    "resample_polyline",
    "resample_polylines",
]


def active_backend() -> str:
    """Name of the kernel implementation (NumPy is the only one)."""
    # Kept as a constant for callers that record it, such as the
    # environment block of e2ebench/run.py.
    return "numpy"


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one point")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must be finite")
    return pts


def _sorted_by_y(curves: np.ndarray) -> np.ndarray:
    """``(L, n, 3)`` curves with each lane sorted stably by y.

    Only lanes out of order are sorted, in a copy; a single lane is a
    stack of one.  Rounding can leave a resampled y an ulp past the next
    vertex's.  The window kernels need their targets sorted, and sorting
    leaves every nearest-neighbor minimum and maximum as it is.
    """
    y = curves[..., 1]
    unsorted = (y[:, 1:] < y[:, :-1]).any(axis=1)
    if not unsorted.any():
        return curves
    curves = curves.copy()
    for lane in np.flatnonzero(unsorted):
        curves[lane] = curves[lane][np.argsort(y[lane], kind="stable")]
    return curves


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def resample_polyline(points, n: int) -> np.ndarray:
    """Piecewise-linear resampling to ``n`` points uniform in arc length.

    The first and last input points are preserved exactly and every
    sample lies on the input chain.  Duplicate consecutive points are
    tolerated (their zero-length segment is never selected for a strictly
    interior target).  A batch of one of ``resample_polylines``.
    """
    pts = _as_points(points, "points")
    if pts.shape[0] < 2:
        raise ValueError("need at least two points to resample")
    return np.ascontiguousarray(resample_polylines(pts, [pts.shape[0]], n)[0])


def _directed_stats(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """``directed_point_stats`` of checked points, ``b`` sorted by y."""
    means, maxes, _ = directed_mean_pairs(a[None], b[None])
    return float(means[0]), float(maxes[0])


def directed_point_stats(a, b) -> tuple[float, float]:
    """Mean and max nearest-neighbor distance from points ``a`` to set ``b``.

    Returns ``(mean, max)`` of ``min_j ||a_i - b_j||`` over a-points,
    summed in a-point order.  ``b`` is sorted stably by y first, which
    leaves every minimum as it is.
    """
    return _directed_stats(_as_points(a, "a"),
                           _sorted_by_y(_as_points(b, "b")[None])[0])


def pair_mean_matrices(
    pred_points: list, gt_points: list
) -> tuple[np.ndarray, np.ndarray]:
    """Directed mean nearest-neighbor distances for every lane pair.

    ``pred_points`` and ``gt_points`` are lists of ``(n, 3)`` arrays.
    Returns ``(d_pg, d_gp)``, both shaped ``(len(pred), len(gt))``:
    ``d_pg[i, j]`` is the mean distance from prediction ``i``'s points to
    ground-truth lane ``j``'s point set, ``d_gp[i, j]`` the reverse.
    Each lane is sorted stably by y first, which sets the order its
    distances are summed in.
    """
    preds = [_sorted_by_y(_as_points(p, f"pred_points[{i}]")[None])[0]
             for i, p in enumerate(pred_points)]
    gts = [_sorted_by_y(_as_points(g, f"gt_points[{j}]")[None])[0]
           for j, g in enumerate(gt_points)]
    d_pg = np.zeros((len(preds), len(gts)))
    d_gp = np.zeros((len(preds), len(gts)))
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            d_pg[i, j] = _directed_stats(p, g)[0]
            d_gp[i, j] = _directed_stats(g, p)[0]
    return d_pg, d_gp


def point_to_polyline_stats(points, polyline) -> tuple[float, float]:
    """Mean and max distance from each point to the polyline through ``polyline``.

    Distances are to the nearest point on any segment of the chain (its
    vertices included), not merely to the vertices; a single vertex is a
    segment of length 0.  A batch of one of ``polyline_mean_pairs``.
    """
    pa = _as_points(points, "points")
    q = _as_points(polyline, "polyline")
    means, maxes, _ = polyline_mean_pairs(pa[None], q[None])
    return float(means[0]), float(maxes[0])


# ---------------------------------------------------------------------------
# batched NumPy kernels
# ---------------------------------------------------------------------------
#
# These work on coordinate planes, ``(3, L, n)`` arrays whose last axis
# runs along a lane, and lay per-pair tables out with the pairs last, so
# each step is a pass over contiguous memory across many lanes or pairs.

# Target points per source point in the windowed nearest-neighbor scan,
# and target segments per source point in the point-to-polyline scan.
_WINDOW = 2
_WINDOW_SEGMENTS = 3
# Contiguous chunks per lane whose x/y boxes bound the pair distances.
_CHUNKS = 4
# Relative margin that keeps a rounded bound at or below the exact value:
# a sum of n non-negative terms rounds by at most n * 2**-53 relative
# (no term is subnormal, being a square root), which stays far below the
# margin for any n under 2**30.
_SHADE = 1.0 - 2.0**-20
# Source points per pass of the window scan, and pairs per pass of the
# bounds: they cap the working memory of a call.
_SCAN_POINTS = 1 << 15
_BOUND_PAIRS = 1 << 12


def resample_polylines(points, counts, n: int) -> np.ndarray:
    """Batched ``resample_polyline``: ragged polylines to an ``(L, n, 3)`` array.

    ``points`` stacks the polylines' points in order and ``counts`` holds
    their lengths (each at least 2).  Segment lengths are
    ``sqrt((sx*sx + sy*sy) + sz*sz)``, cumulated along each row into
    ``cum``; sample ``j`` sits at ``t = (cum[-1] / (n - 1)) * j`` on the
    segment ``k``, the smallest with ``cum[k+1] >= t``, and interior
    samples are ``p[k] + w * (p[k+1] - p[k])`` with ``w = (t - cum[k]) /
    (cum[k+1] - cum[k])`` (0 on a zero-length segment); both endpoints
    are copied exactly.  Every sample's segment comes from an exact count
    of the cumulative lengths below it, which equals a per-lane
    ``searchsorted``.  The result is a view of ``(3, L, n)`` planes.
    ``n`` must be an integer of at least 2.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be >= 2")
    planes = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    counts = np.asarray(counts, dtype=np.int64)
    n_lanes = counts.shape[0]
    width = int(counts.max())
    last = counts - 1
    if counts.min() == width:
        p = planes.reshape(3, n_lanes, width)
    else:
        # Pad every lane to the longest with copies of its last point:
        # the padded segments have length 0 and leave each cumsum as is.
        starts = np.zeros(n_lanes, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        p = planes[:, starts[:, None] + np.minimum(np.arange(width), last[:, None])]
    x, y, z = p
    sx = x[:, 1:] - x[:, :-1]
    sy = y[:, 1:] - y[:, :-1]
    sz = z[:, 1:] - z[:, :-1]
    cum = np.empty((n_lanes, width))
    cum[:, 0] = 0.0
    np.cumsum(np.sqrt((sx * sx + sy * sy) + sz * sz), axis=1, out=cum[:, 1:])
    step = cum[:, -1:] / (n - 1)
    t = step * np.arange(1, n - 1, dtype=np.float64)

    # Sample j lies on segment k = (number of cum entries < t_j) - 1.
    # Count it by ranks: r_i is the smallest j >= 1 with t_j > cum_i,
    # clipped to n - 1, so the count is the number of r_i <= j.  As
    # cum_i / step <= n, the guess floor(cum_i / step) + 1 is within one
    # of r_i, and one step up then one step down make it exact.
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.floor(cum / step) + 1.0
    r += step * r <= cum
    r -= step * (r - 1.0) > cum
    # cum_0 = 0 lies below every sample, so leaving it out of the count
    # gives k directly.  (NaN ranks land anywhere in range.)
    with np.errstate(invalid="ignore"):
        r = r[:, 1:].astype(np.int64)
    np.clip(r, 1, n - 1, out=r)
    r += (np.arange(n_lanes) * n)[:, None]
    below = np.bincount(r.ravel(), minlength=n_lanes * n).reshape(n_lanes, n)
    k = np.cumsum(below[:, 1:n - 1], axis=1)
    np.minimum(k, (counts - 2)[:, None], out=k)
    k += (np.arange(n_lanes) * width)[:, None]
    k1 = k + 1

    ck = cum.ravel()[k]
    span = cum.ravel()[k1] - ck
    w = np.zeros_like(t)
    np.divide(t - ck, span, out=w, where=span != 0.0)
    out = np.empty((3, n_lanes, n))
    for plane, src in zip(out, p):
        flat = src.ravel()
        pk = flat[k]
        plane[:, 1:-1] = pk + w * (flat[k1] - pk)
        plane[:, 0] = src[:, 0]
        plane[:, -1] = src[np.arange(n_lanes), last]
    return out.transpose(1, 2, 0)


def _window_means(sp: np.ndarray, dp: np.ndarray, dst: np.ndarray):
    """Mean and max nearest-neighbor distance from source lanes to target
    lanes.

    ``sp`` holds the ``(3, q, n)`` planes of the source lanes and ``dp``
    the contiguous ``(3, L, m)`` planes of the candidates; source ``i`` is
    measured against lane ``dst[i]``.  Every target lane is sorted by y.

    Each point first scans ``_WINDOW`` target points around its y
    position.  The window's minimum is the lane's minimum when the target
    point just outside it on each side lies on the far side of the
    point's y and its ``dy*dy`` reaches that minimum: every point beyond
    has a larger ``dy*dy``, and ``(dx*dx + dy*dy) + dz*dz >= dy*dy`` holds
    in floating point.  A point failing the test scans its whole target
    lane.  Returns the means, the maxima and the number of such full
    scans.
    """
    _, q, n = sp.shape
    n_lanes, m = dp.shape[1:]
    width = min(_WINDOW, m)
    # Each target lane gets a sentinel at y = -inf before it and one at
    # +inf after it, so every window has a neighbor on each side.
    padded = np.zeros((3, n_lanes, m + 2))
    padded[:, :, 1:-1] = dp
    padded[1, :, 0] = -np.inf
    padded[1, :, -1] = np.inf
    xd, yd, zd = (plane.ravel() for plane in padded)
    chunk = max(1, _SCAN_POINTS // n)
    means = np.empty(q)
    maxes = np.empty(q)
    fallbacks = 0
    for s in range(0, q, chunk):
        xs, ys, zs = sp[:, s:s + chunk]
        base = dst[s:s + chunk] * (m + 2) + 1
        y0 = yd[base][:, None]
        span = yd[base + (m - 1)][:, None] - y0
        # Guess each point's place among the target y values (right for
        # uniform spacing); the window test makes any guess safe.
        scale = np.where(span > 0.0, (m - 1) / np.where(span > 0.0, span, 1.0), 0.0)
        at = ((ys - y0) * scale).astype(np.int64)
        np.clip(at, 0, m - width, out=at)
        at += base[:, None]
        best = None
        for o in range(width):
            i = at + o
            dx = xs - xd[i]
            dy = ys - yd[i]
            dz = zs - zd[i]
            d2 = (dx * dx + dy * dy) + dz * dz
            best = d2 if best is None else np.minimum(best, d2, out=best)
        dy = ys - yd[at - 1]
        ok = (dy >= 0.0) & (dy * dy >= best)
        dy = ys - yd[at + width]
        ok &= (dy <= 0.0) & (dy * dy >= best)
        if not ok.all():
            rows, cols = np.nonzero(~ok)
            fallbacks += rows.size
            step = max(1, _SCAN_POINTS // m)
            for f in range(0, rows.size, step):
                r, c = rows[f:f + step], cols[f:f + step]
                bx, by, bz = dp[:, dst[s + r]]
                dx = xs[r, c][:, None] - bx
                dy = ys[r, c][:, None] - by
                dz = zs[r, c][:, None] - bz
                best[r, c] = ((dx * dx + dy * dy) + dz * dz).min(axis=1)
        dist = np.sqrt(best)
        means[s:s + chunk] = np.cumsum(dist, axis=1)[:, -1] / n
        maxes[s:s + chunk] = dist.max(axis=1)
    return means, maxes, fallbacks


def directed_mean_pairs(src, dst) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean and max nearest-neighbor distance from each src lane to its
    dst lane.

    ``src`` is ``(q, n, 3)`` and ``dst`` ``(q, m, 3)``, both finite, and
    each dst lane sorted by y.  Each row's minima are exact selections
    of ``(dx*dx + dy*dy) + dz*dz``; ``means[i]`` sums ``sqrt`` of them in
    src point order before dividing by ``n``, and ``maxes[i]`` is the
    largest ``sqrt``.  Returns ``(means, maxes, fallbacks)``, the last
    the number of source points whose window test failed and that
    scanned their whole target lane.
    """
    sp = np.asarray(src, dtype=np.float64).transpose(2, 0, 1)
    dp = np.ascontiguousarray(np.asarray(dst, dtype=np.float64).transpose(2, 0, 1))
    return _window_means(sp, dp, np.arange(sp.shape[1]))


def _segment_d2(ax, ay, az, q, k, i):
    """Squared distance from points ``(ax, ay, az)`` to segment ``k`` of
    lane ``i`` in the ``(3, L, m)`` planes ``q``, the segment joining
    points ``k`` and ``k + 1``; the arguments broadcast together.  A
    zero-length segment degenerates to its first point."""
    qx, qy, qz = q
    ex = qx[i, k + 1] - qx[i, k]
    ey = qy[i, k + 1] - qy[i, k]
    ez = qz[i, k + 1] - qz[i, k]
    wx = ax - qx[i, k]
    wy = ay - qy[i, k]
    wz = az - qz[i, k]
    c2 = (ex * ex + ey * ey) + ez * ez
    c1 = (wx * ex + wy * ey) + wz * ez
    t = np.clip(c1 / np.where(c2 > 0.0, c2, 1.0), 0.0, 1.0)
    t = np.where(c2 > 0.0, t, 0.0)
    dx = wx - t * ex
    dy = wy - t * ey
    dz = wz - t * ez
    return (dx * dx + dy * dy) + dz * dz


def polyline_mean_pairs(src, dst) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean and max distance from each src lane's points to its dst lane's
    polyline.

    ``src`` is ``(q, n, 3)`` and ``dst`` ``(q, m, 3)``, both finite.
    Every squared distance comes from ``_segment_d2``; a one-vertex dst
    lane is a segment of length 0, whose ``t = 0`` gives the bits of the
    point distance.  Each row's minima are exact selections; ``means[i]``
    sums ``sqrt`` of them in src point order before dividing by ``n``,
    and ``maxes[i]`` is the largest ``sqrt``.

    On a dst lane whose y never decreases, each point first scans the
    ``_WINDOW_SEGMENTS`` segments around its y position.  Every segment
    before the window lies at or below the window's first vertex, every
    one after it at or above its last, so a point ``g`` above that first
    vertex is at least ``g`` from each earlier segment, and the computed
    y component of its distance to one is at least ``g - 13 * u * Y``
    (``u = 2**-53``, ``Y`` the largest |y| of the point and the lane: two
    subtractions, one product with ``t`` in [0, 1] and the last
    subtraction); likewise below the last vertex.  Since
    ``(dx*dx + dy*dy) + dz*dz >= dy*dy`` holds in floating point, the
    window's minimum is the lane's when, on both sides, ``g`` less a
    margin of ``2**-40 * Y``, squared, reaches it.  Other points, and
    every point of a lane whose y decreases somewhere, scan all
    segments.  Returns ``(means, maxes, fallbacks)``, the last the number
    of points that scanned all segments.
    """
    sp = np.asarray(src, dtype=np.float64).transpose(2, 0, 1)
    q = np.asarray(dst, dtype=np.float64).transpose(2, 0, 1)
    if q.shape[2] == 1:
        q = np.concatenate([q, q], axis=2)
    q = np.ascontiguousarray(q)
    _, n_lanes, n = sp.shape
    m = q.shape[2]
    qy = q[1]
    width = min(_WINDOW_SEGMENTS, m - 1)
    monotone = (qy[:, 1:] >= qy[:, :-1]).all(axis=1)
    # sentinels: no segment lies before the first vertex or after the last
    below = qy.copy()
    below[:, 0] = -np.inf
    above = qy.copy()
    above[:, -1] = np.inf
    y_big = np.abs(qy).max(axis=1)
    span = qy[:, -1] - qy[:, 0]
    scale = np.where(span > 0.0, (m - 1) / np.where(span > 0.0, span, 1.0), 0.0)
    chunk = max(1, _SCAN_POINTS // n)
    means = np.empty(n_lanes)
    maxes = np.empty(n_lanes)
    fallbacks = 0
    for s in range(0, n_lanes, chunk):
        xs, ys, zs = sp[:, s:s + chunk]
        i = np.arange(s, min(s + chunk, n_lanes))[:, None]
        # the segment holding each point's y, guessed for uniform spacing
        # and corrected by one vertex each way; the test makes any guess safe
        at = ((ys - qy[i, 0]) * scale[i]).astype(np.int64)
        np.clip(at, 0, m - 2, out=at)
        at += qy[i, at + 1] < ys
        at -= qy[i, np.minimum(at, m - 1)] > ys
        k0 = np.clip(at - 1, 0, m - 1 - width)
        best = None
        for o in range(width):
            d2 = _segment_d2(xs, ys, zs, q, k0 + o, i)
            best = d2 if best is None else np.minimum(best, d2, out=best)
        slack = 2.0**-40 * np.maximum(np.abs(ys), y_big[i])
        gap = ys - below[i, k0] - slack
        ok = (gap > 0.0) & (gap * gap * (1.0 - 2.0**-40) >= best)
        gap = above[i, k0 + width] - ys - slack
        ok &= (gap > 0.0) & (gap * gap * (1.0 - 2.0**-40) >= best)
        ok &= monotone[i]
        if not ok.all():
            rows, cols = np.nonzero(~ok)
            fallbacks += rows.size
            step = max(1, _SCAN_POINTS // m)
            for f in range(0, rows.size, step):
                r, c = rows[f:f + step], cols[f:f + step]
                lane = (s + r)[:, None]
                d2 = _segment_d2(xs[r, c][:, None], ys[r, c][:, None],
                                 zs[r, c][:, None], q, np.arange(m - 1), lane)
                best[r, c] = d2.min(axis=1)
        dist = np.sqrt(best)
        means[s:s + chunk] = np.cumsum(dist, axis=1)[:, -1] / n
        maxes[s:s + chunk] = dist.max(axis=1)
    return means, maxes, fallbacks


def _chunk_boxes(planes: np.ndarray):
    """x/y bounds of ``_CHUNKS`` contiguous chunks per y-sorted lane,
    shaped ``(chunks, L)``, and the chunks' point counts."""
    n = planes.shape[2]
    parts = min(_CHUNKS, n)
    starts = (np.arange(parts) * n) // parts
    ends = np.append(starts[1:], n)
    x, y = planes[0], planes[1]
    return (
        np.minimum.reduceat(x, starts, axis=1).T.copy(),
        np.maximum.reduceat(x, starts, axis=1).T.copy(),
        y[:, starts].T.copy(),
        y[:, ends - 1].T.copy(),
        (ends - starts).astype(np.float64),
    )


def _bcd_lower_bounds(boxes, n: int, pi: np.ndarray, gi: np.ndarray) -> np.ndarray:
    """Lower bounds on the bidirectional distance of lane pairs ``(pi, gi)``.

    Every point of a chunk is at least the box-to-box distance from every
    point of another lane's chunk, in floating point too: the gap between
    two boxes rounds to at most the difference of any two coordinates they
    contain, and squares, sums and ``sqrt`` round monotonically.  So the
    count-weighted mean over source chunks of the nearest target box
    bounds each directed mean, up to the rounding of the two sums, which
    ``_SHADE`` absorbs.  One table of box distances serves both
    directions.
    """
    xlo, xhi, ylo, yhi, cnt = boxes
    gx = np.maximum(
        xlo[:, gi][None] - xhi[:, pi][:, None], xlo[:, pi][:, None] - xhi[:, gi][None]
    )
    np.maximum(gx, 0.0, out=gx)
    gy = np.maximum(
        ylo[:, gi][None] - yhi[:, pi][:, None], ylo[:, pi][:, None] - yhi[:, gi][None]
    )
    np.maximum(gy, 0.0, out=gy)
    d2 = gx * gx + gy * gy  # (pred chunk, gt chunk, pair)
    lb_pg = cnt @ np.sqrt(d2.min(axis=1)) * _SHADE / n
    lb_gp = cnt @ np.sqrt(d2.min(axis=0)) * _SHADE / n
    return (lb_pg + lb_gp) / 2.0


def _pair_bcd(planes: np.ndarray, pi: np.ndarray, gi: np.ndarray) -> np.ndarray:
    means, _, _ = _window_means(
        planes[:, np.concatenate([pi, gi])], planes, np.concatenate([gi, pi])
    )
    return (means[: pi.size] + means[pi.size:]) / 2.0


def nearest_pair_rows(lanes, pi, gi, row_starts) -> np.ndarray:
    """Exact bidirectional distances wherever a row's minimum can lie.

    ``lanes`` is ``(L, n, 3)``, finite, each lane sorted by y; pair ``k``
    joins prediction ``lanes[pi[k]]`` with ground truth ``lanes[gi[k]]``.
    The pairs of row ``r`` (one prediction) run from ``row_starts[r]`` to
    the next start, and no row is empty.  Returns one value per pair:
    ``(d_pg + d_gp) / 2`` bitwise as ``pair_mean_matrices`` gives it, or
    ``+inf`` for a pair that provably exceeds its row's minimum.

    Each row first scores its pairs of lowest lower bound, then every
    pair whose bound is not strictly greater than the best value found.
    A skipped pair's value exceeds the row minimum strictly, so the row's
    argmin (lowest index on ties) and minimum are those of the full row.
    """
    planes = np.ascontiguousarray(
        np.asarray(lanes, dtype=np.float64).transpose(2, 0, 1)
    )
    pi = np.asarray(pi, dtype=np.int64)
    gi = np.asarray(gi, dtype=np.int64)
    row_starts = np.asarray(row_starts, dtype=np.int64)
    n_pairs = pi.size
    n = planes.shape[2]
    boxes = _chunk_boxes(planes)
    lb = np.empty(n_pairs)
    for s in range(0, n_pairs, _BOUND_PAIRS):
        lb[s:s + _BOUND_PAIRS] = _bcd_lower_bounds(
            boxes, n, pi[s:s + _BOUND_PAIRS], gi[s:s + _BOUND_PAIRS]
        )
    row_of = np.repeat(
        np.arange(row_starts.size), np.diff(np.append(row_starts, n_pairs))
    )
    values = np.full(n_pairs, np.inf)
    todo = lb == np.minimum.reduceat(lb, row_starts)[row_of]
    values[todo] = _pair_bcd(planes, pi[todo], gi[todo])
    todo = np.isinf(values) & (lb <= np.minimum.reduceat(values, row_starts)[row_of])
    if todo.any():
        values[todo] = _pair_bcd(planes, pi[todo], gi[todo])
    return values
