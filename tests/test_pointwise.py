"""Pointwise (anchor-grid) protocol tests against brute-force oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import oracles

from lane3d import matching, pointwise
from lane3d.cli import _parse_taus
from lane3d.errors import AnchorMismatch, ConfigError
from lane3d.geometry import Lane3D, SampleGrid
from lane3d.matching import hungarian
from lane3d.pointwise import (
    PointwiseConfig,
    _cost_caps,
    _cost_stack,
    _frame_arrays,
    _gate_frame,
    openlane_report,
    pointwise_match,
    pointwise_sweep,
    pointwise_tp,
    xz_errors,
)
from lane3d.report import prf

GRID = SampleGrid()
ANCHORS = np.asarray(GRID.y_anchors)


def lane_on(anchors, x, z=0.0, vis=None):
    """Lane whose points sit exactly on the given y-anchors."""
    anchors = np.asarray(anchors, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), anchors.shape)
    z = np.broadcast_to(np.asarray(z, dtype=float), anchors.shape)
    pts = np.stack([x, anchors, z], axis=1)
    if vis is None:
        vis = np.ones_like(anchors)
    return Lane3D(points=pts, visibility=np.asarray(vis, dtype=float))


def random_frame(rng, max_lanes=4):
    """Well-posed random frame: offset lanes with small per-anchor noise."""
    n_gt = rng.integers(1, max_lanes + 1)
    n_pred = rng.integers(1, max_lanes + 1)
    gts, preds = [], []
    for i in range(n_gt):
        x0 = rng.uniform(-8.0, 8.0)
        x = x0 + 0.3 * rng.standard_normal(ANCHORS.size)
        z = 0.1 * rng.standard_normal(ANCHORS.size)
        vis = np.ones(ANCHORS.size)
        lo = rng.integers(0, 5)
        hi = rng.integers(ANCHORS.size - 4, ANCHORS.size + 1)
        vis[:lo] = 0.0
        vis[hi:] = 0.0
        gts.append(lane_on(ANCHORS, x, z, vis))
    for i in range(n_pred):
        x0 = rng.uniform(-8.0, 8.0)
        x = x0 + 0.3 * rng.standard_normal(ANCHORS.size)
        z = 0.1 * rng.standard_normal(ANCHORS.size)
        preds.append(lane_on(ANCHORS, x, z))
    return gts, preds


def oracle_cost(gt, pred, config):
    """Spec cost from scratch: mean capped xz distance on visible anchors."""
    cap = config.cap_multiplier * config.tau_dist
    gy = gt.points[:, 1]
    vis_pts = gt.visible_points()
    vals = []
    for k in range(gy.size):
        if not (vis_pts[0, 1] <= gy[k] <= vis_pts[-1, 1]):
            continue
        gx = np.interp(gy[k], vis_pts[:, 1], vis_pts[:, 0])
        gz = np.interp(gy[k], vis_pts[:, 1], vis_pts[:, 2])
        pv = pred.visible_points()
        px = np.interp(gy[k], pv[:, 1], pv[:, 0])
        pz = np.interp(gy[k], pv[:, 1], pv[:, 2])
        vals.append(min(math.hypot(gx - px, gz - pz), cap))
    return sum(vals) / len(vals) if vals else cap


def oracle_best_assignment(gts, preds, config):
    """Exhaustive min-cost one-to-one assignment (total, pairs)."""
    cost = np.array([[oracle_cost(g, p, config) for p in preds] for g in gts])
    n, m = cost.shape
    k = min(n, m)
    best = None
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            total = math.fsum(cost[r, c] for r, c in zip(rows, cols))
            pairs = tuple(sorted(zip(rows, cols)))
            key = (total, pairs)
            if best is None or key < best:
                best = key
    return best


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def test_match_equals_exhaustive_oracle():
    rng = np.random.default_rng(20260816)
    config = PointwiseConfig()
    for _ in range(120):
        gts, preds = random_frame(rng)
        result = pointwise_match(gts, preds, config)
        total, pairs = oracle_best_assignment(gts, preds, config)
        assert result.total_cost == pytest.approx(total, abs=1e-9)
        # continuous random costs: the optimum is unique a.s.
        assert result.pairs == pairs


def test_match_empty_sides():
    assert pointwise_match([], [lane_on(ANCHORS, 0.0)]).pairs == ()
    assert pointwise_match([lane_on(ANCHORS, 0.0)], []).pairs == ()


def test_match_requires_shared_anchors():
    other = lane_on(ANCHORS + 0.5, 0.0)
    with pytest.raises(AnchorMismatch):
        pointwise_match([lane_on(ANCHORS, 0.0)], [other])
    with pytest.raises(AnchorMismatch):
        pointwise_tp(lane_on(ANCHORS, 0.0), other)


def test_cost_cap_limits_outlier_anchor():
    config = PointwiseConfig(tau_dist=0.5)  # cap = 0.75
    dx = np.zeros(ANCHORS.size)
    dx[7] = 1000.0
    result = pointwise_match(
        [lane_on(ANCHORS, 0.0)], [lane_on(ANCHORS, dx)], config
    )
    assert result.total_cost == pytest.approx(0.75 / ANCHORS.size, rel=1e-12)


# ---------------------------------------------------------------------------
# true-positive rule
# ---------------------------------------------------------------------------


def make_pair(n_inside, tau, n=20):
    dx = np.full(n, 10.0 * tau)
    dx[:n_inside] = 0.0
    anchors = np.linspace(3.0, 103.0, n)
    return lane_on(anchors, 0.0), lane_on(anchors, dx)


def test_tp_fraction_boundary():
    tau = 0.5
    config = PointwiseConfig(tau_dist=tau)
    gt, pred = make_pair(15, tau)  # 15/20 = 0.75 exactly
    assert pointwise_tp(gt, pred, config)
    gt, pred = make_pair(16, tau)
    assert pointwise_tp(gt, pred, config)
    gt, pred = make_pair(14, tau)  # 0.70 < 0.75
    assert not pointwise_tp(gt, pred, config)


def test_tp_threshold_is_closed():
    tau = 0.5
    config = PointwiseConfig(tau_dist=tau)
    gt = lane_on(ANCHORS, 0.0)
    pred = lane_on(ANCHORS, tau)  # every anchor exactly at tau
    assert pointwise_tp(gt, pred, config)
    just_out = lane_on(ANCHORS, np.nextafter(tau, np.inf))
    assert not pointwise_tp(gt, just_out, config)


def test_tp_uses_only_visible_anchors():
    config = PointwiseConfig(tau_dist=0.5)
    vis = np.zeros(ANCHORS.size)
    vis[:10] = 1.0  # 10 visible anchors
    dx = np.zeros(ANCHORS.size)
    dx[10:] = 100.0  # would fail the rule if invisible anchors counted
    gt = lane_on(ANCHORS, 0.0, vis=vis)
    pred = lane_on(ANCHORS, dx)
    assert pointwise_tp(gt, pred, config)


def test_tp_monotone_in_tau():
    rng = np.random.default_rng(7)
    for _ in range(50):
        gts, preds = random_frame(rng, max_lanes=1)
        gt, pred = gts[0], preds[0]
        flags = [
            pointwise_tp(gt, pred, PointwiseConfig(tau_dist=t))
            for t in (0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0)
        ]
        # once true, stays true as tau grows
        assert flags == sorted(flags)


# ---------------------------------------------------------------------------
# range errors
# ---------------------------------------------------------------------------


def test_xz_errors_range_partition():
    # dx at anchor k equals k, so the range means identify which anchors
    # entered each bucket.  Default anchors: k=0..7 lie in [0, 40],
    # k=8..18 in (40, 100], k=19 (y=103) in neither.
    dx = np.arange(ANCHORS.size, dtype=float)
    gt = lane_on(ANCHORS, 0.0, z=0.0)
    pred = lane_on(ANCHORS, dx, z=0.0)
    ex_near, ex_far, ez_near, ez_far = xz_errors([(gt, pred)])
    assert ex_near == pytest.approx(np.mean(np.arange(0, 8)), rel=1e-12)
    assert ex_far == pytest.approx(np.mean(np.arange(8, 19)), rel=1e-12)
    assert ez_near == 0.0
    assert ez_far == 0.0


def test_xz_errors_boundary_anchor_is_near_only():
    anchors = np.array([10.0, 40.0, 41.0, 100.0, 100.5])
    config = PointwiseConfig()
    gt = lane_on(anchors, 0.0)
    pred = lane_on(anchors, np.array([1.0, 2.0, 4.0, 8.0, 1000.0]))
    ex_near, ex_far, _, _ = xz_errors([(gt, pred)], config)
    assert ex_near == pytest.approx((1.0 + 2.0) / 2)  # 40 is near, not far
    assert ex_far == pytest.approx((4.0 + 8.0) / 2)  # 100.5 in neither


def test_xz_errors_empty_range_is_none():
    anchors = np.linspace(3.0, 35.0, 10)  # entirely inside the near range
    gt = lane_on(anchors, 0.0)
    pred = lane_on(anchors, 0.25)
    ex_near, ex_far, ez_near, ez_far = xz_errors([(gt, pred)])
    assert ex_near == pytest.approx(0.25)
    assert ex_far is None
    assert ez_far is None
    assert xz_errors([]) == (None, None, None, None)


def test_xz_errors_split_axes():
    gt = lane_on(ANCHORS, 0.0, z=0.0)
    pred = lane_on(ANCHORS, 0.3, z=-0.1)
    ex_near, ex_far, ez_near, ez_far = xz_errors([(gt, pred)])
    assert ex_near == pytest.approx(0.3, rel=1e-12)
    assert ex_far == pytest.approx(0.3, rel=1e-12)
    assert ez_near == pytest.approx(0.1, rel=1e-12)
    assert ez_far == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# frame report
# ---------------------------------------------------------------------------


def test_report_counts_match_oracle_gating():
    rng = np.random.default_rng(99)
    config = PointwiseConfig(tau_dist=0.8)
    for _ in range(60):
        gts, preds = random_frame(rng)
        report = openlane_report([(gts, preds)], config)
        _, pairs = oracle_best_assignment(gts, preds, config)
        tp = 0
        for i, j in pairs:
            anchors = gts[i].points[:, 1]
            # recompute the 75% rule from scratch
            vis_pts = gts[i].visible_points()
            inside = total = 0
            for k in range(anchors.size):
                if not (vis_pts[0, 1] <= anchors[k] <= vis_pts[-1, 1]):
                    continue
                total += 1
                gxk = np.interp(anchors[k], vis_pts[:, 1], vis_pts[:, 0])
                gzk = np.interp(anchors[k], vis_pts[:, 1], vis_pts[:, 2])
                pv = preds[j].visible_points()
                pxk = np.interp(anchors[k], pv[:, 1], pv[:, 0])
                pzk = np.interp(anchors[k], pv[:, 1], pv[:, 2])
                if math.hypot(gxk - pxk, gzk - pzk) <= config.tau_dist:
                    inside += 1
            if total and inside / total >= config.tp_fraction:
                tp += 1
        assert report.tp == tp
        assert report.fp == len(preds) - tp
        assert report.fn == len(gts) - tp


def test_report_perfect_predictions():
    rng = np.random.default_rng(5)
    frames = [random_frame(rng) for _ in range(10)]
    frames = [(gts, [Lane3D(points=g.points.copy(),
                            visibility=np.ones(len(g.points)))
                     for g in gts]) for gts, _ in frames]
    report = openlane_report(frames)
    assert report.fp == 0 and report.fn == 0
    assert report.precision == report.recall == report.f1 == 1.0
    assert report.extra_stats["e_x_near"] == 0.0
    assert report.extra_stats["e_z_near"] == 0.0


def test_report_empty_inputs():
    report = openlane_report([])
    assert (report.tp, report.fp, report.fn) == (0, 0, 0)
    assert report.f1 == 0.0
    report = openlane_report([([], [lane_on(ANCHORS, 0.0)])])
    assert (report.tp, report.fp, report.fn) == (0, 1, 0)
    report = openlane_report([([lane_on(ANCHORS, 0.0)], [])])
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    assert report.extra_stats["e_x_near"] is None


def test_report_frame_ids_and_ordering():
    gts = [lane_on(ANCHORS, 0.0)]
    preds = [lane_on(ANCHORS, 0.05)]
    a = openlane_report([(gts, preds)], frame_ids=["f1"])
    b = openlane_report([(gts, preds)], frame_ids=["f2"])
    assert a.per_frame[0].frame_id == "f1"
    assert a.ordering != b.ordering
    with pytest.raises(ValueError):
        openlane_report([(gts, preds)], frame_ids=["a", "b"])


# ---------------------------------------------------------------------------
# scale invariance
# ---------------------------------------------------------------------------


def scale_lane(lane, s):
    return Lane3D(points=lane.points * s, visibility=lane.visibility.copy())


def test_scale_by_s_preserves_counts_and_scales_errors():
    rng = np.random.default_rng(1234)
    s = 7.3
    frames = [random_frame(rng) for _ in range(15)]
    config = PointwiseConfig(tau_dist=0.8)
    scaled_config = PointwiseConfig(
        tau_dist=0.8 * s,
        near_range=(0.0, 40.0 * s),
        far_range=(40.0 * s, 100.0 * s),
    )
    scaled_frames = [
        ([scale_lane(g, s) for g in gts], [scale_lane(p, s) for p in preds])
        for gts, preds in frames
    ]
    base = openlane_report(frames, config)
    scaled = openlane_report(
        scaled_frames, scaled_config, grid=SampleGrid(y_anchors=ANCHORS * s)
    )
    assert (base.tp, base.fp, base.fn) == (scaled.tp, scaled.fp, scaled.fn)
    for key in ("e_x_near", "e_x_far", "e_z_near", "e_z_far"):
        lhs, rhs = base.extra_stats[key], scaled.extra_stats[key]
        if lhs is None:
            assert rhs is None
        else:
            assert rhs == pytest.approx(lhs * s, rel=1e-12)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_equal_standalone_reports():
    rng = np.random.default_rng(77)
    frames = [random_frame(rng) for _ in range(12)]
    taus = [0.1, 0.5, 1.5]
    rows = pointwise_sweep(frames, taus)
    assert len(rows) == 3
    for tau, precision, recall, f1 in rows:
        report = openlane_report(frames, PointwiseConfig(tau_dist=tau))
        assert (precision, recall, f1) == (
            report.precision,
            report.recall,
            report.f1,
        )


def per_row_cost(arrays, cap):
    """The cost matrix one ground truth at a time: each row's capped means
    over its visible anchors, ``cap`` for a row without any."""
    cost = np.full((arrays.n_gt, arrays.n_pred), cap)
    for i, vis in enumerate(arrays.gt_vis):
        if vis.any():
            cost[i] = np.minimum(arrays.dist[i][:, vis], cap).mean(axis=1)
    return cost


def gate_at(arrays, tau, config):
    """The batched gate at one threshold, as ``(tp, fp, fn, accepted
    pairs)``."""
    rows, cols, accepted, _ = _gate_frame(arrays, np.array([tau]),
                                          _cost_caps(config, [tau]))
    pairs = [(i, j) for i, j, ok in zip(rows[0].tolist(), cols[0].tolist(),
                                        accepted[0].tolist()) if ok]
    tp = len(pairs)
    return tp, arrays.n_pred - tp, arrays.n_gt - tp, pairs


def counting_gate(arrays, tau, config):
    """The gate from per-row costs, with the 75% rule decided by counting
    the visible anchors within tau."""
    if arrays.n_gt == 0 or arrays.n_pred == 0:
        return 0, arrays.n_pred, arrays.n_gt, []
    dist = arrays.dist
    cost = per_row_cost(arrays, config.cap_multiplier * tau)
    accepted = []
    for i, j in hungarian(cost).pairs:
        vis = arrays.gt_vis[i]
        total = int(vis.sum())
        if total == 0:
            continue
        inside = int((dist[i, j][vis] <= tau).sum())
        if inside / total >= config.tp_fraction:
            accepted.append((i, j))
    tp = len(accepted)
    return tp, arrays.n_pred - tp, arrays.n_gt - tp, accepted


def counting_flags(arrays, tau, config):
    """The 75% rule by counting, for every (gt, pred) pair."""
    dist = arrays.dist
    flags = np.zeros((arrays.n_gt, arrays.n_pred), dtype=bool)
    for i, j in np.ndindex(flags.shape):
        vis = arrays.gt_vis[i]
        total = int(vis.sum())
        if total:
            inside = int((dist[i, j][vis] <= tau).sum())
            flags[i, j] = inside / total >= config.tp_fraction
    return flags


def mixed_frames(taus):
    """Frames whose ground truths fall into several visible-count groups,
    with an invisible ground truth, Ng != Np, empty sides, and anchors
    exactly at grid thresholds."""
    rng = np.random.default_rng(2610)
    frames = [random_frame(rng, max_lanes=5) for _ in range(8)]
    # a ground truth between two anchors: no visible anchor at all
    blind = Lane3D(points=np.array([[0.5, 4.0, 0.0], [0.5, 5.0, 0.0]]),
                   visibility=np.ones(2))
    gts, preds = random_frame(rng)
    frames.append((gts + [blind], preds))
    frames.append(([blind], [lane_on(ANCHORS, 0.5)]))
    frames.append(([], [lane_on(ANCHORS, 0.0)]))
    frames.append(([lane_on(ANCHORS, 0.0)], []))
    # per-anchor offsets equal to grid taus: the rule's closed boundary
    offsets = np.resize(taus[::3], ANCHORS.size)
    frames.append(([lane_on(ANCHORS, 0.0), lane_on(ANCHORS, 9.0)],
                   [lane_on(ANCHORS, offsets), lane_on(ANCHORS, 9.0 - offsets),
                    lane_on(ANCHORS, -6.0)]))
    return frames


@pytest.mark.parametrize("fraction", [0.3, 0.7, 0.75, 1.0])
def test_sweep_rows_equal_standalone_reports_on_the_cli_grid(fraction):
    taus = _parse_taus("0.05:1.5:0.05")
    assert len(taus) == 30
    frames = mixed_frames(taus)
    config = PointwiseConfig(tp_fraction=fraction)
    cores = [_frame_arrays(g, p, ANCHORS, fraction) for g, p in frames]
    groups = {stack.shape[1] for core in cores for _, stack in core.groups}
    assert len(groups) >= 4
    rows = pointwise_sweep(frames, taus, config)
    tp_seen = 0
    for tau, row in zip(taus, rows):
        at = dataclasses.replace(config, tau_dist=tau)
        report = openlane_report(frames, at)
        assert row == (tau, report.precision, report.recall, report.f1)
        cap = config.cap_multiplier * tau
        for core, stats in zip(cores, report.per_frame):
            assert (oracles.cost_matrix(core, cap).tobytes()
                    == per_row_cost(core, cap).tobytes())
            want = counting_gate(core, tau, config)
            assert gate_at(core, tau, config) == want
            assert (stats.tp, stats.fp, stats.fn) == want[:3]
            assert ((core.tp_threshold <= tau)
                    == counting_flags(core, tau, config)).all()
            tp_seen += want[0]
    assert tp_seen > 0


@pytest.mark.parametrize("n_pred", [1, 2, 5])
def test_grouped_capped_means_are_bitwise_per_row_means(n_pred):
    # one ground truth (two for even counts) per visible count 1..300,
    # across NumPy's pairwise-summation block sizes
    rng = np.random.default_rng(2611 + n_pred)
    anchors = np.arange(300.0)
    half = np.repeat(anchors, 2) + np.tile([-0.25, 0.25], anchors.size)
    gts = []
    for k in range(1, 301):
        for _ in range(1 + (k % 2 == 0)):
            start = int(rng.integers(0, 301 - k))
            vis = np.zeros(half.size)
            vis[2 * start:2 * (start + k)] = 1.0
            x = rng.uniform(-1.0, 1.0, half.size)
            z = rng.uniform(-0.2, 0.2, half.size)
            gts.append(Lane3D(points=np.stack([x, half, z], axis=1),
                              visibility=vis))
    preds = [lane_on(anchors, rng.uniform(-1.0, 1.0, anchors.size),
                     rng.uniform(-0.2, 0.2, anchors.size))
             for _ in range(n_pred)]
    arrays = _frame_arrays(gts, preds, anchors, 0.75)
    assert sorted(stack.shape[1] for _, stack in arrays.groups) == list(
        range(1, 301))
    caps = np.array([0.3, 1.5])
    for cap, cost in zip(caps, _cost_stack(arrays, caps)):
        assert cost.tobytes() == per_row_cost(arrays, cap).tobytes()
        assert cost.tobytes() == oracles.cost_matrix(arrays, cap).tobytes()


def test_pair_errors_are_the_entries_the_match_used():
    # each accepted pair's error is its entry of the cost matrix, summed
    # as the match summed it, not a second sum over its anchors
    rng = np.random.default_rng(2612)
    frames = []
    for _ in range(60):
        gts, _ = random_frame(rng, max_lanes=5)
        preds = [lane_on(ANCHORS, g.points[:, 0] + rng.normal(0.0, 0.4, ANCHORS.size),
                         g.points[:, 2] + rng.normal(0.0, 0.2, ANCHORS.size))
                 for g in gts[:int(rng.integers(1, len(gts) + 1))]]
        frames.append((gts, preds))
    config = PointwiseConfig()
    caps = _cost_caps(config, [config.tau_dist])
    report = openlane_report(frames, config)
    accepted = 0
    for (gts, preds), stats in zip(frames, report.per_frame):
        arrays = _frame_arrays(gts, preds, ANCHORS, config.tp_fraction)
        pairs = oracles.openlane_gate(arrays, config.tau_dist, config)[3]
        cost = _cost_stack(arrays, caps)[0]
        want = np.array([cost[i, j] for i, j in pairs])
        assert np.array(stats.pair_errors).tobytes() == want.tobytes()
        accepted += len(pairs)
    assert accepted > 100


def solver_frame(rng):
    """A random frame for the gate oracle.  Either side may be the longer
    or empty; some ground truths have no visible anchor, which ties their
    whole row at the cap, and some predictions come twice, which ties two
    columns: the certificate fails on those matrices."""
    gts, preds = random_frame(rng, max_lanes=5)
    if rng.random() < 0.5:
        # predictions of some of the ground truths, in shuffled order
        picked = rng.permutation(len(gts))[:int(rng.integers(1, len(gts) + 1))]
        preds = [lane_on(ANCHORS, gts[k].points[:, 0]
                         + 0.3 * rng.standard_normal(ANCHORS.size),
                         gts[k].points[:, 2]) for k in picked]
    for _ in range(int(rng.integers(0, 3))):
        x = rng.uniform(-8.0, 8.0)
        blind = Lane3D(points=np.array([[x, 4.0, 0.0], [x, 5.0, 0.0]]),
                       visibility=np.ones(2))
        gts.insert(int(rng.integers(0, len(gts) + 1)), blind)
    if rng.random() < 0.3:
        preds.append(preds[int(rng.integers(0, len(preds)))])
    if rng.random() < 0.1:
        preds = []
    return gts, preds


@pytest.fixture
def solves(monkeypatch):
    """Counts the matrices that reach the exact solve."""
    calls = []
    real = matching._augment

    def counted(cost):
        calls.append(len(cost))
        return real(cost)

    monkeypatch.setattr(matching, "_augment", counted)
    return calls


@pytest.mark.parametrize("taus, chunk", [
    ([1.5], None),
    (_parse_taus("0.01:3.0:0.01"), None),
    (_parse_taus("0.05:1.5:0.05"), 7),  # 30 taus: chunks of 7, 7, 7, 7, 2
])
def test_batched_gate_equals_the_per_threshold_oracle(monkeypatch, solves,
                                                      taus, chunk):
    # 300 taus cross the default chunk's boundaries too
    if chunk is not None:
        monkeypatch.setattr(pointwise, "_TAU_CHUNK", chunk)
    rng = np.random.default_rng(2615 + len(taus))
    config = PointwiseConfig()
    frames = [solver_frame(rng) for _ in range(60 if len(taus) < 300 else 12)]
    cores = [_frame_arrays(g, p, ANCHORS, config.tp_fraction) for g, p in frames]
    caps = _cost_caps(config, taus)
    assert caps.tolist() == [config.cap_multiplier * tau for tau in taus]
    limits = np.array(taus)
    totals = np.zeros((len(taus), 3), dtype=int)
    uncertified = certified = taller = 0
    for core in cores:
        before = len(solves)
        rows, cols, accepted, costs = _gate_frame(core, limits, caps)
        solved = len(solves) - before
        assert rows.shape == cols.shape == accepted.shape == costs.shape == (
            len(taus), min(core.n_gt, core.n_pred))
        taller += core.n_gt > core.n_pred > 0
        for t, tau in enumerate(taus):
            tp, fp, fn, want = oracles.openlane_gate(core, tau, config)
            got = [(i, j) for i, j, ok in zip(
                rows[t].tolist(), cols[t].tolist(), accepted[t].tolist()) if ok]
            assert got == want, (tau, core.n_gt, core.n_pred)
            assert (tp, fp, fn) == (len(got), core.n_pred - len(got),
                                    core.n_gt - len(got))
            totals[t] += (tp, fp, fn)
            if core.n_gt and core.n_pred:
                cost = oracles.cost_matrix(core, caps[t])
                pairs = list(zip(rows[t].tolist(), cols[t].tolist()))
                assert pairs == list(hungarian(cost).pairs)
                assert costs[t].tobytes() == cost[rows[t], cols[t]].tobytes()
                minima = oracles.row_minima(cost)
                if minima is None:
                    uncertified += 1
                    solved -= 1
                else:
                    assert pairs == minima
                    certified += 1
        # the exact solve ran once for each uncertified matrix, no more
        assert solved == 0
    assert uncertified > 0 and certified > 0 and taller > 0
    rows = pointwise_sweep(frames, taus, config)
    assert rows == tuple((tau, *prf(*counts))
                         for tau, counts in zip(taus, totals.tolist()))


def test_infinite_cost_cap_is_a_config_error():
    frames = [([lane_on(ANCHORS, 0.0)], [lane_on(ANCHORS, 0.1)])]
    with pytest.raises(ConfigError, match=r"= 1\.5 \* inf is not finite"):
        pointwise_sweep(frames, [0.5, math.inf])
    with pytest.raises(ConfigError, match=r"= 1\.5 \* 1\.5e\+308 is not"):
        pointwise_sweep(frames, [1.5e308])
    with pytest.raises(ConfigError, match="not finite"):
        openlane_report(frames, PointwiseConfig(tau_dist=math.inf))
    with pytest.raises(ConfigError, match=r"= 1e\+308 \* 10\.0 is not"):
        pointwise_match(*frames[0], PointwiseConfig(cap_multiplier=1e308,
                                                     tau_dist=10.0))


def test_sweep_f1_monotone_on_separated_lanes():
    rng = np.random.default_rng(4242)
    frames = [random_frame(rng) for _ in range(15)]
    taus = np.linspace(0.05, 3.0, 25)
    rows = pointwise_sweep(frames, taus)
    f1s = [r[3] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(f1s, f1s[1:]))


def test_sweep_rejects_bad_taus():
    frames = [([lane_on(ANCHORS, 0.0)], [lane_on(ANCHORS, 0.0)])]
    with pytest.raises(ConfigError):
        pointwise_sweep(frames, [])
    with pytest.raises(ConfigError):
        pointwise_sweep(frames, [0.5, -0.1])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs, message", [
    ({"tau_dist": math.inf}, r"= 1\.5 \* inf is not finite"),
    ({"cap_multiplier": math.inf}, r"= inf \* 1\.5 is not finite"),
    ({"far_range": (40.0, math.inf)}, "ranges must be finite"),
    ({"near_range": (-math.inf, 40.0)}, "ranges must be finite"),
], ids=["tau_dist", "cap_multiplier", "far_range", "near_range"])
def test_config_values_must_be_finite(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        PointwiseConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ConfigError):
        PointwiseConfig(tau_dist=0.0)
    with pytest.raises(ConfigError):
        PointwiseConfig(tp_fraction=0.0)
    with pytest.raises(ConfigError):
        PointwiseConfig(tp_fraction=1.2)
    with pytest.raises(ConfigError):
        PointwiseConfig(near_range=(0.0, 50.0), far_range=(40.0, 100.0))
    with pytest.raises(ConfigError):
        PointwiseConfig(cap_multiplier=0.0)
    assert PointwiseConfig(tp_fraction=1.0).tp_fraction == 1.0
