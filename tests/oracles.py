"""Reference implementations the kernels and gates are tested against.

For the distance kernels, two kinds, both independent of
``lane3d.kernels``:

* pure-Python double loops over plain floats (``oracle_point_stats``,
  ``oracle_polyline_stats``);
* full-matrix NumPy references with the same arithmetic
  (``point_core``, ``polyline_core``, ``resample_core``), and on them
  the full bidirectional distance matrices (``pair_mean_matrices``,
  ``bcd_matrix``).

For the anchor resampler, ``np.interp`` on each lane (``resample_at_y``).

Every squared distance is ``(dx*dx + dy*dy) + dz*dz``, minima are pure
selections and sums run in source-point order, so a kernel must match
these bitwise.

For the ``openlane`` gate, the gate one threshold at a time
(``openlane_gate``: ``cost_matrix`` and one ``hungarian`` call), and the
row-minima certificate in plain Python (``row_minima``).

For the scenario generator, the generator lane by lane: five scalar
uniform draws per ground-truth lane (``gt_lane``), then its prediction's
lateral and vertical normal draws and noise (``noisy_lane``), each lane
checked by ``Lane3D`` (``generate_frames``).
"""

import math

import numpy as np

from lane3d.errors import ConfigError, DegenerateLane
from lane3d.geometry import DEFAULT_CAMERA, Lane3D
from lane3d.matching import hungarian
from lane3d.scenario_io import FrameRecord


def oracle_point_stats(a, b):
    """O(n*m) nearest-neighbor mean/max using plain Python floats."""
    al = [tuple(map(float, row)) for row in a]
    bl = [tuple(map(float, row)) for row in b]
    total = 0.0
    biggest = 0.0
    for xa, ya, za in al:
        best = math.inf
        for xb, yb, zb in bl:
            dx = xa - xb
            dy = ya - yb
            dz = za - zb
            d2 = (dx * dx + dy * dy) + dz * dz
            if d2 < best:
                best = d2
        dist = math.sqrt(best)
        total += dist
        if dist > biggest:
            biggest = dist
    return total / len(al), biggest


def oracle_polyline_stats(a, q):
    """O(n*m) point-to-segment-chain mean/max using plain Python floats."""
    al = [tuple(map(float, row)) for row in a]
    ql = [tuple(map(float, row)) for row in q]
    total = 0.0
    biggest = 0.0
    for xa, ya, za in al:
        best = math.inf
        if len(ql) == 1:
            dx = xa - ql[0][0]
            dy = ya - ql[0][1]
            dz = za - ql[0][2]
            best = (dx * dx + dy * dy) + dz * dz
        for k in range(len(ql) - 1):
            ex = ql[k + 1][0] - ql[k][0]
            ey = ql[k + 1][1] - ql[k][1]
            ez = ql[k + 1][2] - ql[k][2]
            wx = xa - ql[k][0]
            wy = ya - ql[k][1]
            wz = za - ql[k][2]
            c2 = (ex * ex + ey * ey) + ez * ez
            if c2 > 0.0:
                t = ((wx * ex + wy * ey) + wz * ez) / c2
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            else:
                t = 0.0
            dx = wx - t * ex
            dy = wy - t * ey
            dz = wz - t * ez
            d2 = (dx * dx + dy * dy) + dz * dz
            if d2 < best:
                best = d2
        dist = math.sqrt(best)
        total += dist
        if dist > biggest:
            biggest = dist
    return total / len(al), biggest


def point_core(a, b):
    """Mean (summed in a-point order) and max of the nearest-neighbor
    distances a -> b, from the full distance matrix."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    dx = a[:, 0][:, None] - b[None, :, 0]
    dy = a[:, 1][:, None] - b[None, :, 1]
    dz = a[:, 2][:, None] - b[None, :, 2]
    dist = np.sqrt(((dx * dx + dy * dy) + dz * dz).min(axis=1))
    return float(np.cumsum(dist)[-1]) / a.shape[0], float(dist.max())


def polyline_core(a, q):
    """Mean and max of point-to-polyline distances in a-point order, from
    the full (point, segment) matrix; one q-point is point distance."""
    a, q = np.asarray(a, dtype=float), np.asarray(q, dtype=float)
    if q.shape[0] == 1:
        d = a - q[0]
        dist = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
        return float(np.cumsum(dist)[-1]) / a.shape[0], float(dist.max())
    e = q[1:] - q[:-1]  # (m - 1, 3)
    w = a[:, None, :] - q[None, :-1, :]  # (n, m - 1, 3)
    ex, ey, ez = e[:, 0], e[:, 1], e[:, 2]
    wx, wy, wz = w[..., 0], w[..., 1], w[..., 2]
    c2 = (ex * ex + ey * ey) + ez * ez
    c1 = (wx * ex + wy * ey) + wz * ez
    t = np.clip(c1 / np.where(c2 > 0.0, c2, 1.0), 0.0, 1.0)
    t = np.where(c2 > 0.0, t, 0.0)
    dx = wx - t * ex
    dy = wy - t * ey
    dz = wz - t * ez
    dist = np.sqrt(((dx * dx + dy * dy) + dz * dz).min(axis=1))
    return float(np.cumsum(dist)[-1]) / a.shape[0], float(dist.max())


def resample_core(pts, n):
    """Arc-length-uniform resampling of one polyline to n points.

    Interior samples use the weight ``w = (t - cum[k]) / span`` applied
    as ``p[k] + w * (p[k+1] - p[k])``; both endpoints are copied exactly.
    The segment index k is the smallest with ``cum[k+1] >= t``, found by
    ``searchsorted``.
    """
    pts = np.asarray(pts, dtype=float)
    seg = pts[1:] - pts[:-1]
    d = np.sqrt(
        (seg[:, 0] * seg[:, 0] + seg[:, 1] * seg[:, 1]) + seg[:, 2] * seg[:, 2]
    )
    cum = np.empty(pts.shape[0])
    cum[0] = 0.0
    np.cumsum(d, out=cum[1:])
    step = cum[-1] / (n - 1)
    t = step * np.arange(1, n - 1, dtype=np.float64)
    k = np.clip(np.searchsorted(cum, t, side="left") - 1, 0, pts.shape[0] - 2)
    span = cum[k + 1] - cum[k]
    zero = span == 0.0
    w = np.where(zero, 0.0, (t - cum[k]) / np.where(zero, 1.0, span))
    out = np.empty((n, 3))
    out[0] = pts[0]
    out[-1] = pts[-1]
    out[1:-1] = pts[k] + w[:, None] * (pts[k + 1] - pts[k])
    return out


def interpolate(lane, n):
    """``interpolate_lane`` on ``resample_core``."""
    pts = lane.visible_points()
    if pts.shape[0] < 2:
        raise DegenerateLane(f"{pts.shape[0]} visible point(s); need >= 2")
    return resample_core(pts, n)


def resample_at_y(lane, y_anchors):
    """``resample_at_y`` by ``np.interp`` on the visible polyline."""
    pts = lane.visible_points()
    if pts.shape[0] < 2:
        raise DegenerateLane(f"{pts.shape[0]} visible point(s); need >= 2")
    y = np.asarray(y_anchors, dtype=np.float64)
    x = np.interp(y, pts[:, 1], pts[:, 0])
    z = np.interp(y, pts[:, 1], pts[:, 2])
    vis = ((y >= pts[0, 1]) & (y <= pts[-1, 1])).astype(np.float64)
    return x, z, vis


def _sorted_by_y(pts):
    return pts[np.argsort(pts[:, 1], kind="stable")]


def pair_mean_matrices(pred_points, gt_points):
    """``(d_pg, d_gp)`` directed means of every pair, each lane sorted
    stably by y first."""
    preds = [_sorted_by_y(np.asarray(p, dtype=float)) for p in pred_points]
    gts = [_sorted_by_y(np.asarray(g, dtype=float)) for g in gt_points]
    d_pg = np.zeros((len(preds), len(gts)))
    d_gp = np.zeros((len(preds), len(gts)))
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            d_pg[i, j] = point_core(p, g)[0]
            d_gp[i, j] = point_core(g, p)[0]
    return d_pg, d_gp


def bcd_matrix(gt_lanes, pred_lanes, n):
    """Bidirectional distances of every (prediction, ground truth) pair."""
    pred_pts = [interpolate(lane, n) for lane in pred_lanes]
    gt_pts = [interpolate(lane, n) for lane in gt_lanes]
    d_pg, d_gp = pair_mean_matrices(pred_pts, gt_pts)
    return (d_pg + d_gp) / 2.0


def cost_matrix(arrays, cap):
    """``openlane`` costs at one cap: one capped mean per visible-count
    group of the frame arrays, ``cap`` for a ground truth without any
    visible anchor."""
    cost = np.full((arrays.n_gt, arrays.n_pred), cap)
    for rows, stack in arrays.groups:
        cost[rows] = np.minimum(stack, cap).sum(axis=1) / stack.shape[1]
    return cost


def openlane_gate(arrays, tau, config):
    """``(tp, fp, fn, accepted pairs)`` of one frame at one threshold:
    ``hungarian`` on ``cost_matrix`` at cap ``cap_multiplier * tau``, and
    a matched pair accepted when its TP threshold is ``<= tau``."""
    if arrays.n_gt == 0 or arrays.n_pred == 0:
        return 0, arrays.n_pred, arrays.n_gt, []
    match = hungarian(cost_matrix(arrays, config.cap_multiplier * tau))
    accepted = [p for p in match.pairs if arrays.tp_threshold[p] <= tau]
    tp = len(accepted)
    return tp, arrays.n_pred - tp, arrays.n_gt - tp, accepted


def row_minima(cost):
    """The pairs of the row-minima certificate on a non-empty matrix,
    sorted by row, or None when it fails: along the shorter side, each
    line's minimum must be finite, below every other entry of its line,
    and in a line of the longer side no other line's minimum uses."""
    lines = [list(map(float, line)) for line in np.asarray(cost, dtype=float)]
    flip = len(lines) > len(lines[0])
    if flip:
        lines = [list(col) for col in zip(*lines)]
    pairs = []
    for k, line in enumerate(lines):
        low = min(line)
        if not low < math.inf or line.count(low) > 1:
            return None
        pairs.append((line.index(low), k) if flip else (k, line.index(low)))
    if len({p[not flip] for p in pairs}) < len(pairs):
        return None
    return sorted(pairs)


def noisy_lane(lane, noise, rng):
    """``apply_noise`` on one lane, its draws ``eps_w`` then ``eps_h``."""
    pts = lane.points
    y = pts[:, 1]
    tangent = np.gradient(pts[:, :2], axis=0)
    norm = np.hypot(tangent[:, 0], tangent[:, 1])
    unit = tangent / norm[:, None]
    normal = np.stack([unit[:, 1], -unit[:, 0]], axis=1)
    out = pts.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_w = noise.sigma_w0 + noise.sigma_w_slope * y
        sigma_h = noise.sigma_h0 + noise.sigma_h_slope * y
        eps_w = rng.standard_normal(y.size) * sigma_w
        eps_h = rng.standard_normal(y.size) * sigma_h
        out[:, :2] += eps_w[:, None] * normal
        out[:, 2] += eps_h
    return Lane3D(points=out, visibility=lane.visibility.copy(), score=1.0)


def gt_lane(rng, slot, n_slots, curvature_range, y):
    """One ground-truth lane from five scalar uniform draws."""
    x0 = (slot - (n_slots - 1) / 2.0) * 3.7 + rng.uniform(-0.3, 0.3)
    heading = rng.uniform(-0.02, 0.02)
    curvature = rng.uniform(curvature_range[0], curvature_range[1])
    z0 = rng.uniform(0.0, 0.05)
    z_slope = rng.uniform(-0.005, 0.005)
    x = x0 + heading * y + 0.5 * curvature * y * y
    z = z0 + z_slope * y
    return Lane3D(points=np.stack([x, y, z], axis=1), visibility=np.ones_like(y))


def generate_frames(n_frames, lanes_per_frame, curvature_range, noise):
    """``generate_frames`` lane by lane, on a valid range and frame count."""
    gt_seq, noise_seq = np.random.SeedSequence(noise.seed).spawn(2)
    gt_rng = np.random.default_rng(gt_seq)
    noise_rng = np.random.default_rng(noise_seq)
    y = np.linspace(3.0, 103.0, 20)
    gt_records, pred_records = [], []
    for k in range(n_frames):
        frame_id = f"frame_{k:06d}"
        gts = [gt_lane(gt_rng, slot, lanes_per_frame, curvature_range, y)
               for slot in range(lanes_per_frame)]
        preds = []
        for i, lane in enumerate(gts):
            try:
                preds.append(noisy_lane(lane, noise, noise_rng))
            except ValueError as exc:
                raise ConfigError(
                    f"frame {frame_id!r} lane {i}: the noise makes an invalid "
                    f"prediction ({exc})"
                ) from None
        gt_records.append(FrameRecord(frame_id, DEFAULT_CAMERA, gts))
        pred_records.append(FrameRecord(frame_id, DEFAULT_CAMERA, preds))
    return gt_records, pred_records
