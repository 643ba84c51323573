"""Chamfer-protocol tests: pair distances, rasterization, and reports."""

import math

import numpy as np
import pytest

import oracles
from lane3d import chamfer, kernels
from lane3d import report as report_module
from lane3d.chamfer import (
    EvalConfig,
    _bcd_rows,
    _iou_matrix,
    _stroke_table,
    _strokes,
    bcd_report,
    bcd_select_tp_fp,
    bev_iou,
    bidirectional_cd,
    mbd_report,
    once_report,
    threshold_sweep,
    unilateral_cd,
)
from lane3d.errors import ConfigError, DegenerateLane, RasterOverflow
from lane3d.geometry import Lane3D, interpolate_lane, resample_at_y
from lane3d.pointwise import PointwiseConfig, openlane_report


def straight_lane(x0=0.0, y0=3.0, y1=103.0, n=21, z=0.0):
    y = np.linspace(y0, y1, n)
    pts = np.stack([np.full_like(y, x0), y, np.full_like(y, z)], axis=1)
    return Lane3D(points=pts, visibility=np.ones_like(y))


def jitter_lane(rng, x0, y0=3.0, y1=53.0, n=12):
    y = np.linspace(y0, y1, n)
    x = x0 + 0.3 * rng.standard_normal(n)
    z = 0.1 * rng.standard_normal(n)
    return Lane3D(points=np.stack([x, y, z], axis=1),
                  visibility=np.ones_like(y))


# ---------------------------------------------------------------------------
# pair distances
# ---------------------------------------------------------------------------


def test_identical_lanes_have_zero_distances():
    lane = straight_lane()
    assert unilateral_cd(lane, lane) == 0.0
    assert bidirectional_cd(lane, lane) == 0.0
    assert bev_iou(lane, lane) == 1.0


def test_parallel_offset_distances():
    gt = straight_lane(0.0)
    pred = straight_lane(0.2)
    assert unilateral_cd(gt, pred) == pytest.approx(0.2, rel=1e-12)
    assert bidirectional_cd(gt, pred) == pytest.approx(0.2, rel=1e-12)


def test_extension_charges_only_the_bidirectional_distance():
    gt = straight_lane(0.0, 3.0, 33.0)
    pred = straight_lane(0.0, 3.0, 53.0)  # collinear, 20 m longer
    assert unilateral_cd(gt, pred) < 0.01
    assert bidirectional_cd(gt, pred) > 1.0


@pytest.mark.parametrize("pair_cd", [bidirectional_cd, unilateral_cd])
@pytest.mark.parametrize("n", [1, 0, -3, 2.5])
def test_pair_distances_reject_fewer_than_two_samples(pair_cd, n):
    with pytest.raises(ValueError, match="n must be >= 2"):
        pair_cd(straight_lane(0.0), straight_lane(0.2), n)


def test_bidirectional_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = jitter_lane(rng, rng.uniform(-3, 3))
        b = jitter_lane(rng, rng.uniform(-3, 3))
        assert bidirectional_cd(a, b) == bidirectional_cd(b, a)


def test_bcd_matrix_recomposes_pair_values():
    rng = np.random.default_rng(11)
    gts = [jitter_lane(rng, -2.0), jitter_lane(rng, 2.0)]
    preds = [jitter_lane(rng, -1.5), jitter_lane(rng, 1.5),
             jitter_lane(rng, 0.0)]
    d = oracles.bcd_matrix(gts, preds, 100)
    assert d.shape == (3, 2)
    for j, pred in enumerate(preds):
        for i, gt in enumerate(gts):
            assert d[j, i] == bidirectional_cd(gt, pred)


# ---------------------------------------------------------------------------
# greedy bidirectional acceptance
# ---------------------------------------------------------------------------


def test_bcd_first_prediction_claims_shared_target():
    gt = [straight_lane(0.0)]
    preds = [straight_lane(0.05), straight_lane(0.08)]
    tp, fp, covered = bcd_select_tp_fp(gt, preds)
    assert tp == [True, False]
    assert fp == [False, True]
    assert covered == [True]
    # swapping prediction order moves the acceptance
    tp2, fp2, _ = bcd_select_tp_fp(gt, preds[::-1])
    assert tp2 == [True, False]


def test_bcd_tie_targets_lowest_gt_index():
    # two identical ground truths: both predictions target index 0, so the
    # second is rejected even though ground truth 1 is free
    gt = [straight_lane(0.0), straight_lane(0.0)]
    preds = [straight_lane(0.05), straight_lane(0.05)]
    tp, fp, covered = bcd_select_tp_fp(gt, preds)
    assert tp == [True, False]
    assert covered == [True, False]


def test_bcd_no_ground_truths_makes_all_false_positives():
    preds = [straight_lane(0.0), straight_lane(3.0)]
    tp, fp, covered = bcd_select_tp_fp([], preds)
    assert tp == [False, False]
    assert fp == [True, True]
    assert covered == []


def test_bcd_no_predictions():
    tp, fp, covered = bcd_select_tp_fp([straight_lane(0.0)], [])
    assert tp == [] and fp == []
    assert covered == [False]


def test_bcd_threshold_is_inclusive():
    gt = [straight_lane(0.0)]
    tau = bidirectional_cd(gt[0], straight_lane(0.2))
    config = EvalConfig(tau_bcd=tau)
    tp, _, _ = bcd_select_tp_fp(gt, [straight_lane(0.2)], config)
    assert tp == [True]
    config = EvalConfig(tau_bcd=np.nextafter(tau, 0.0))
    tp, _, _ = bcd_select_tp_fp(gt, [straight_lane(0.2)], config)
    assert tp == [False]


def test_bcd_report_aggregation():
    # frame 1: both predictions accepted; frame 2: one rejected prediction
    # and one unclaimed ground truth
    frames = [
        ([straight_lane(-3.0), straight_lane(3.0)],
         [straight_lane(-3.1), straight_lane(3.1)]),
        ([straight_lane(0.0)], [straight_lane(8.0)]),
    ]
    report = bcd_report(frames)
    assert (report.tp, report.fp, report.fn) == (2, 1, 1)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.error_stat == pytest.approx(0.1, rel=1e-9)
    assert report.protocol == "bcd"
    assert len(report.per_frame) == 2
    assert report.per_frame[0].pair_errors == pytest.approx((0.1, 0.1))


def test_bcd_report_no_predictions_anywhere():
    report = bcd_report([([straight_lane(0.0)], [])])
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    assert report.error_stat is None
    assert report.f1 == 0.0


# ---------------------------------------------------------------------------
# pruned row search against the full matrix
# ---------------------------------------------------------------------------


def lane_from(x, y, z=None, vis=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.zeros_like(y) if z is None else np.asarray(z, dtype=float)
    vis = np.ones_like(y) if vis is None else np.asarray(vis, dtype=float)
    return Lane3D(points=np.stack([x, y, z], axis=1), visibility=vis)


def assert_rows_match_full_matrix(frames, n):
    """Each row's argmin and minimum equal the full matrix's bitwise; every
    scored entry equals the full matrix's and every skipped one exceeds
    its row's minimum."""
    for (gts, preds), d in zip(frames, _bcd_rows(frames, n)):
        assert d.shape == (len(preds), len(gts))
        if not (gts and preds):
            continue
        full = oracles.bcd_matrix(gts, preds, n)
        for j in range(len(preds)):
            i_star = int(np.argmin(full[j]))
            assert int(np.argmin(d[j])) == i_star
            assert d[j, i_star] == full[j, i_star]
            scored = np.isfinite(d[j])
            assert np.array_equal(d[j, scored], full[j, scored])
            assert np.all(full[j, ~scored] > full[j, i_star])


def test_row_search_equidistant_ground_truths_tie_to_lowest_index():
    # ground truths mirrored about the prediction, and exact duplicates
    y = np.linspace(0.0, 60.0, 31)
    gts = [lane_from(np.full_like(y, -1.5), y), lane_from(np.full_like(y, 1.5), y),
           lane_from(np.full_like(y, 1.5), y), lane_from(np.full_like(y, -1.5), y)]
    preds = [lane_from(np.zeros_like(y), y), lane_from(np.full_like(y, 1.5), y)]
    frames = [(gts, preds)]
    assert_rows_match_full_matrix(frames, 100)
    d = _bcd_rows(frames, 100)[0]
    assert int(np.argmin(d[0])) == 0
    assert int(np.argmin(d[1])) == 1


def test_row_search_crossing_lanes_and_disjoint_y_spans():
    rng = np.random.default_rng(21)
    frames = []
    for _ in range(20):
        y = np.linspace(0.0, 80.0, 25)
        gts = [lane_from(x0 + slope * (y - 40.0), y,
                         z=0.05 * rng.standard_normal(y.size))
               for x0, slope in zip(rng.uniform(-4, 4, 4), rng.uniform(-0.2, 0.2, 4))]
        preds = [lane_from(x0 + slope * (y - 40.0), y)
                 for x0, slope in zip(rng.uniform(-4, 4, 3), rng.uniform(-0.2, 0.2, 3))]
        # a prediction far beyond every ground truth's y-span
        far = np.linspace(120.0, 160.0, 9)
        preds.append(lane_from(rng.uniform(-4, 4) + np.zeros_like(far), far))
        frames.append((gts, preds))
    assert_rows_match_full_matrix(frames, 100)


def test_row_search_visibility_gaps_and_point_counts():
    rng = np.random.default_rng(22)
    frames = []
    for _ in range(20):
        gts, preds = [], []
        for lanes in (gts, preds):
            for _ in range(rng.integers(1, 5)):
                m = int(rng.integers(2, 40))
                y = np.cumsum(rng.uniform(0.2, 5.0, m))
                vis = (rng.random(m) > 0.3).astype(float)
                vis[[0, -1]] = 1.0
                lanes.append(lane_from(rng.uniform(-5, 5) + rng.normal(0, 0.3, m),
                                       y, vis=vis))
        frames.append((gts, preds))
    for n in (2, 3, 100):
        assert_rows_match_full_matrix(frames, n)


def test_row_search_frames_without_predictions_or_ground_truths():
    lane = straight_lane(0.0)
    frames = [([], [lane]), ([lane], []), ([], []), ([lane], [straight_lane(0.1)])]
    shapes = [d.shape for d in _bcd_rows(frames, 100)]
    assert shapes == [(1, 0), (0, 1), (0, 0), (1, 1)]
    assert_rows_match_full_matrix(frames, 100)


def test_row_search_sparse_lanes_take_the_full_scan():
    # Lanes 10 m apart with 1 m between samples: a few y-neighbors of a
    # point cannot prove its nearest neighbor, so the scan falls back to
    # the whole target lane.
    y = np.linspace(0.0, 99.0, 4)
    gt = lane_from(np.full_like(y, 10.0), y)
    pred = lane_from(np.zeros_like(y), y + 0.5)
    frames = [([gt, straight_lane(30.0)], [pred])]
    assert_rows_match_full_matrix(frames, 100)

    src = interpolate_lane(pred, 100)[None]
    dst = interpolate_lane(gt, 100)[None]
    means, maxes, fallbacks = kernels.directed_mean_pairs(src, dst)
    assert fallbacks > 0
    assert (means[0], maxes[0]) == oracles.point_core(src[0], dst[0])


def test_row_search_independent_of_block_size(monkeypatch):
    frames = sweep_fixture(seed=43, n_frames=15)
    whole = _bcd_rows(frames, 100)
    monkeypatch.setattr("lane3d.report._BLOCK_POINTS", 1)
    for a, b in zip(whole, _bcd_rows(frames, 100)):
        assert np.array_equal(a, b)


def test_bcd_report_degenerate_lane_raises_like_interpolate_lane():
    one_visible = lane_from([0.0, 0.1, 0.2], [0.0, 1.0, 2.0], vis=[0.0, 1.0, 0.0])
    with pytest.raises(DegenerateLane) as expected:
        interpolate_lane(one_visible, 100)
    with pytest.raises(DegenerateLane) as got:
        bcd_report([([straight_lane(0.0)], [straight_lane(0.1)]),
                     ([straight_lane(0.0)], [one_visible])])
    assert str(got.value) == str(expected.value)
    # as with the full matrix, a frame without predictions is not scored
    assert bcd_report([([one_visible], [])]).fn == 1


# ---------------------------------------------------------------------------
# BEV rasterization
# ---------------------------------------------------------------------------


def oracle_cells(points, config):
    """Brute-force stroke rasterization over a padded bounding box."""
    xy = points[:, :2]
    res = config.bev_resolution
    half = config.lane_width / 2.0
    pad = half + 2 * res
    ix0 = math.floor((xy[:, 0].min() - pad) / res)
    ix1 = math.ceil((xy[:, 0].max() + pad) / res)
    iy0 = math.floor((xy[:, 1].min() - pad) / res)
    iy1 = math.ceil((xy[:, 1].max() + pad) / res)
    cells = set()
    for ix in range(ix0, ix1 + 1):
        for iy in range(iy0, iy1 + 1):
            cx, cy = (ix + 0.5) * res, (iy + 0.5) * res
            best = math.inf
            for k in range(xy.shape[0] - 1):
                ax, ay = xy[k]
                bx, by = xy[k + 1]
                ex, ey = bx - ax, by - ay
                c2 = ex * ex + ey * ey
                t = 0.0 if c2 == 0.0 else min(max(((cx - ax) * ex + (cy - ay) * ey) / c2, 0.0), 1.0)
                dx, dy = cx - (ax + t * ex), cy - (ay + t * ey)
                best = min(best, dx * dx + dy * dy)
            if best <= half * half:
                cells.add((ix, iy))
    return cells


def strokes(point_sets, config):
    """``_strokes`` of a list of polylines."""
    return _strokes(np.concatenate(point_sets), [len(p) for p in point_sets], config)


def decode_runs(runs):
    """The cells ``(ix, iy)`` of a stroke's runs, checking that the runs
    are sorted by row, then column, and that runs of one row neither
    overlap nor touch."""
    iy, lo, hi = (a.tolist() for a in runs)
    assert all(first <= last for first, last in zip(lo, hi))
    for k in range(1, len(iy)):
        assert (iy[k - 1], hi[k - 1] + 1) < (iy[k], lo[k])
    return {(ix, y) for y, first, last in zip(iy, lo, hi)
            for ix in range(first, last + 1)}


def random_polyline(rng, n, x_span=2.0, y_span=4.0, origin=(0.0, 0.0)):
    y = origin[1] + np.cumsum(rng.uniform(0.05, y_span / n, n))
    x = origin[0] + rng.uniform(-x_span, x_span, n)
    return np.stack([x, y, np.zeros(n)], axis=1)


def test_stroke_cells_match_brute_force():
    rng = np.random.default_rng(21)
    config = EvalConfig(lane_width=0.3, bev_resolution=0.05)
    for _ in range(25):
        n = rng.integers(2, 6)
        y = np.sort(rng.uniform(0.0, 4.0, n))
        y[1:] += 0.2  # keep strictly increasing
        y = np.cumsum(np.concatenate([[y[0]], np.diff(y) + 0.05]))
        x = rng.uniform(-2.0, 2.0, n)
        pts = np.stack([x, y, np.zeros(n)], axis=1)
        got = decode_runs(strokes([pts], config)[0])
        assert got == oracle_cells(pts, config)


def test_stroke_negative_coordinates():
    config = EvalConfig()
    pts = np.array([[-1.3, -0.9, 0.0], [-0.2, 1.4, 0.0]])
    assert decode_runs(strokes([pts], config)[0]) == oracle_cells(pts, config)


@pytest.mark.parametrize("lane_width, res, origin", [
    (0.31, 0.07, (0.0, 0.0)),  # width not a multiple of the cell
    (0.3, 0.05, (1e4, 1e4)),  # far from the grid origin
    (0.3, 0.05, (-1e4, 1e4)),
    (0.3, 0.05, (1e4, -1e4)),
    (0.3, 0.05, (-1e4, -1e4)),
    (0.02, 0.05, (0.0, 0.0)),  # thinner than a cell: strokes can be empty
])
def test_stroke_random_lanes_match_brute_force(lane_width, res, origin):
    rng = np.random.default_rng(5)
    config = EvalConfig(lane_width=lane_width, bev_resolution=res)
    for _ in range(20):
        pts = random_polyline(rng, int(rng.integers(2, 7)), origin=origin)
        assert decode_runs(strokes([pts], config)[0]) == oracle_cells(pts, config)


def test_stroke_near_axis_segments_and_distances_on_the_boundary():
    res = 0.05
    config = EvalConfig(lane_width=0.3, bev_resolution=res)
    step = res / 2
    lanes = [
        # near-horizontal: y rises by far less than a cell over meters
        [[-1.0, 1.0], [1.5, 1.0 + 1e-9], [1.6, 1.0 + 2e-9]],
        [[0.0, 7 * step], [2.0, 7 * step + 1e-12]],
        [[-2.0, -1.0], [0.0, -1.0 + 1e-6], [0.1, 2.0]],
        [[0.0, 0.0], [3.0, 5e-324]],  # ey / length rounds to 0
        # near-vertical and exactly vertical
        [[0.0, 0.0], [1e-12, 2.0], [1e-12, 3.0]],
        [[3 * step, 1 * step], [3 * step, 41 * step]],
        # vertices on half-cell multiples: cell centers land exactly
        # half a lane width from vertices and edges
        [[3 * step, 3 * step], [9 * step, 15 * step], [9 * step, 27 * step],
         [-5 * step, 33 * step]],
        [[-6 * step, -6 * step], [0.0, 0.0], [6 * step, 30 * step]],
        # ex * ex + ey * ey underflows to 0: the cap around the vertex
        [[0.0, 0.0], [0.0, 5e-324]],
    ]
    for lane in lanes:
        xy = np.array(lane)
        pts = np.column_stack([xy, np.zeros(len(xy))])
        assert decode_runs(strokes([pts], config)[0]) == oracle_cells(pts, config)


def window_scan_runs(points, config):
    """Runs of the cells that pass the stroke predicate, evaluated with
    the predicate's own operations on every cell of a padded box, for
    every segment."""
    res = config.bev_resolution
    half = config.lane_width / 2.0
    xy = points[:, :2]
    pad = half + 2 * res
    ix = np.arange(math.floor((xy[:, 0].min() - pad) / res),
                   math.ceil((xy[:, 0].max() + pad) / res) + 1, dtype=np.float64)
    iy = np.arange(math.floor((xy[:, 1].min() - pad) / res),
                   math.ceil((xy[:, 1].max() + pad) / res) + 1)
    hit = np.zeros((iy.size, ix.size), dtype=bool)
    for (ax, ay), (bx, by) in zip(xy[:-1], xy[1:]):
        ex, ey = bx - ax, by - ay
        c2 = ex * ex + ey * ey
        c2 = c2 if c2 > 0.0 else np.inf
        wx = ((ix + 0.5) * res - ax)[None, :]
        wy = ((iy + 0.5) * res - ay)[:, None]
        t = np.clip((wx * ex + wy * ey) / c2, 0.0, 1.0)
        dx = wx - t * ex
        dy = wy - t * ey
        hit |= (dx * dx + dy * dy) <= half * half
    edges = np.diff(np.pad(hit, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, lo = np.nonzero(edges == 1)
    _, hi = np.nonzero(edges == -1)
    return iy[rows], ix[lo].astype(np.int64), ix[hi - 1].astype(np.int64)


def assert_same_runs(got, expected):
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def random_lanes(rng, kind, count):
    """Small random polylines with strictly increasing y, of one kind."""
    lanes = []
    for _ in range(count):
        n = int(rng.integers(2, 8))
        if kind == "near_horizontal":
            y = rng.uniform(-2.0, 2.0) + np.cumsum(rng.uniform(1e-12, 1e-6, n))
            x = np.cumsum(rng.uniform(-1.5, 1.5, n))
        elif kind == "half_cell":
            # vertices on multiples of half a cell (0.025 m): cell centers
            # sit exactly half a lane width from vertices and edges
            y = np.cumsum(rng.integers(1, 20, n)) * 0.025
            x = rng.integers(-40, 40, n) * 0.025
        elif kind == "tangent":
            # near-horizontal zig-zags from a vertex half a lane width (and
            # an ulp either side) above or below a row's cell centers, for
            # one of the raster configurations: y rises by one ulp to 1e-13
            # per segment, over 5-60 m of x
            n = min(n, 4)
            config = RASTER_CONFIGS[rng.integers(len(RASTER_CONFIGS))]
            cy = (rng.integers(-40, 40) + 0.5) * config.bev_resolution
            y = [cy + rng.choice([-1.0, 1.0]) * config.lane_width / 2.0]
            y[0] += rng.integers(-1, 2) * np.spacing(y[0])
            for _ in range(n - 1):
                y.append(y[-1] + math.exp(rng.uniform(math.log(np.spacing(abs(y[-1]))),
                                                      math.log(1e-13))))
            turns = rng.choice([-1.0, 1.0]) * (-1.0) ** np.arange(n - 1)
            x = np.cumsum([rng.uniform(-2.0, 2.0), *turns * rng.uniform(5.0, 60.0, n - 1)])
        elif kind == "far":
            origin = rng.choice([-1e4, 1e4], 2) + rng.uniform(-1, 1, 2)
            y = origin[1] + np.cumsum(rng.uniform(0.01, 4.0 / n, n))
            x = origin[0] + rng.uniform(-2.0, 2.0, n)
        else:
            y = np.cumsum(rng.uniform(0.01, 4.0 / n, n))
            x = rng.uniform(-2.0, 2.0, n)
        lanes.append(np.stack([x, y, np.zeros(n)], axis=1))
    return lanes


RASTER_CONFIGS = [
    EvalConfig(lane_width=0.3, bev_resolution=0.05),
    EvalConfig(lane_width=0.31, bev_resolution=0.07),
    EvalConfig(lane_width=0.5, bev_resolution=0.1),
    EvalConfig(lane_width=0.02, bev_resolution=0.05),  # thinner than a cell
]


@pytest.mark.parametrize("kind", ["plain", "near_horizontal", "half_cell", "far",
                                  "tangent"])
def test_strokes_equal_the_window_scan_on_random_lanes(kind):
    # 5 kinds x 4 configurations x 125 lanes: 2,500 lanes
    rng = np.random.default_rng(["plain", "near_horizontal", "half_cell",
                                 "far", "tangent"].index(kind) + 101)
    for config in RASTER_CONFIGS:
        lanes = random_lanes(rng, kind, 125)
        for got, pts in zip(strokes(lanes, config), lanes):
            assert_same_runs(got, window_scan_runs(pts, config))


def test_strokes_on_cell_centers_an_ulp_from_the_stroke_boundary():
    # Cell centers within an ulp or two of the boundary: on the band of
    # segments in many directions, on rows tangent to the end disks, and
    # beside vertical and horizontal edges.
    config = EvalConfig(lane_width=0.3, bev_resolution=0.05)
    res, half = 0.05, 0.15
    rng = np.random.default_rng(77)
    lanes = []
    for _ in range(300):
        cx, cy = (rng.integers(-40, 40, 2) + 0.5) * res
        angle = rng.uniform(0.05, math.pi - 0.05)
        ux, uy = math.cos(angle), math.sin(angle)
        side = rng.choice([-1.0, 1.0])
        # the band's edge passes through (cx, cy)
        px, py = cx + side * half * uy, cy - side * half * ux
        length = rng.uniform(0.2, 2.0)
        a = np.array([px - ux * length / 2, py - uy * length / 2])
        b = np.array([px + ux * length / 2, py + uy * length / 2])
        a += rng.integers(-2, 3, 2) * np.spacing(a)
        lanes.append(np.column_stack([np.stack([a, b]), np.zeros(2)]))
    for _ in range(300):
        cx, cy = (rng.integers(-40, 40, 2) + 0.5) * res
        # an end vertex half a lane width below or above a cell center,
        # so that the center's row is tangent to that end's disk
        dx = rng.choice([0.0, rng.uniform(-0.5, 0.5) * res])
        tip = np.array([cx + dx, cy - half])
        tip += rng.integers(-2, 3, 2) * np.spacing(tip)
        other = tip - [rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.0)]
        pts = np.stack([other, tip])
        if rng.random() < 0.5:  # the lower end instead
            tip = np.array([cx + dx, cy + half])
            tip += rng.integers(-2, 3, 2) * np.spacing(tip)
            pts = np.stack([tip, tip + [rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.0)]])
        lanes.append(np.column_stack([pts, np.zeros(2)]))
    for _ in range(100):
        cx = (rng.integers(-40, 40) + 0.5) * res
        x = cx + rng.choice([-1.0, 1.0]) * half
        x += rng.integers(-2, 3) * np.spacing(x)
        y0 = rng.uniform(-1.0, 1.0)
        lanes.append(np.array([[x, y0, 0.0], [x, y0 + rng.uniform(0.1, 2.0), 0.0]]))
        lanes.append(np.array([[x - 1.0, y0, 0.0], [x + 1.0, y0 + 1e-9, 0.0]]))
    for got, pts in zip(strokes(lanes, config), lanes):
        assert_same_runs(got, window_scan_runs(pts, config))


def test_strokes_do_not_depend_on_the_block_bound(monkeypatch):
    rng = np.random.default_rng(61)
    config = EvalConfig()
    lanes = [*random_lanes(rng, "plain", 20), *random_lanes(rng, "half_cell", 20)]
    whole = strokes(lanes, config)
    for bound in (1, 1 << 62):  # a lane per block, and every lane in one
        monkeypatch.setattr(chamfer, "_BLOCK_PAIRS", bound)
        for got, expected in zip(strokes(lanes, config), whole):
            assert_same_runs(got, expected)


def test_undecided_pairs_stay_rare_on_the_synth_scenario(tmp_path, monkeypatch):
    # a looser rounding bound would send more pairs to the window scan;
    # past 5% the rasterizer is no longer a per-row computation
    from lane3d.cli import main
    from lane3d.scenario_io import read_frames

    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    assert main(["synth", "--frames", "40", "--seed", "5", "--sigma-w0", "0.1",
                 "--out", str(gt), "--emit-pred", str(pred)]) == 0
    lanes = [lane.visible_points() for path in (gt, pred)
             for record in read_frames(path) for lane in record.gt_lanes]
    counts = [0, 0]
    decide = chamfer._decided_cells

    def counted(*args):
        lo, hi, decided = decide(*args)
        counts[0] += decided.size
        counts[1] += int((~decided).sum())
        return lo, hi, decided

    monkeypatch.setattr(chamfer, "_decided_cells", counted)
    strokes(lanes, EvalConfig())
    pairs, undecided = counts
    assert pairs > 100_000
    assert undecided <= 0.05 * pairs


def lane_of(pts):
    return Lane3D(points=pts, visibility=np.ones(len(pts)))


def set_iou(a, b):
    return len(a & b) / len(a | b) if a | b else 0.0


def test_run_iou_matches_cell_set_iou():
    config = EvalConfig(lane_width=0.3, bev_resolution=0.05)
    rng = np.random.default_rng(31)
    pairs = []
    for _ in range(40):
        a = random_polyline(rng, int(rng.integers(2, 6)), x_span=0.5)
        b = a + [rng.normal(0.0, 0.2), rng.normal(0.0, 0.2), 0.0]
        pairs.append((a, b))
    diagonal = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 0.0]])
    upright = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    thin = EvalConfig(lane_width=0.02, bev_resolution=0.05)
    pairs += [
        (diagonal, diagonal + [50.0, 0.0, 0.0]),  # boxes disjoint
        (diagonal, diagonal + [1.0, 0.0, 0.0]),  # boxes overlap, cells do not
        (diagonal, diagonal[::-1] * [1, -1, 1] + [0.0, 4.0, 0.0]),  # crossing
        # boxes that share one column, or one row, and cells in it
        (upright, upright + [0.25, 0.0, 0.0]),
        (upright, upright + [0.0, 1.25, 0.0]),
    ]
    for a, b in pairs:
        cells_a = decode_runs(strokes([a], config)[0])
        cells_b = decode_runs(strokes([b], config)[0])
        assert bev_iou(lane_of(a), lane_of(b), config) == set_iou(cells_a, cells_b)
    # the box-overlapping pair really shares rows and columns but no cell
    a = decode_runs(strokes([diagonal], config)[0])
    b = decode_runs(strokes([diagonal + [1.0, 0.0, 0.0]], config)[0])
    assert not a & b
    assert min(ix for ix, _ in b) < max(ix for ix, _ in a)
    # one empty stroke, and two: cell centers sit 0.025 m off a lane on a
    # cell edge, and nothing lies within 0.01 m of it
    empty = np.array([[0.05, 0.0, 0.0], [0.05, 3.0, 0.0]])
    assert decode_runs(strokes([empty], thin)[0]) == set()
    assert bev_iou(lane_of(empty), lane_of(diagonal), thin) == 0.0
    assert bev_iou(lane_of(empty), lane_of(empty), thin) == 0.0


def shared_cells(a, b):
    """Cells in both strokes, both with at least one run: the pair-by-pair
    oracle of the IoU's intersection, by a search of one stroke's rows."""
    k = np.minimum(np.searchsorted(a.iy, b.iy), a.iy.size - 1)
    overlap = np.minimum(a.hi[k], b.hi) - np.maximum(a.lo[k], b.lo) + 1
    return int(np.maximum(overlap, 0)[a.iy[k] == b.iy].sum())


def pairwise_iou(a, b):
    """IoU of every pair of strokes from ``a`` and ``b``, one pair at a
    time."""
    iou = np.zeros((len(a), len(b)))
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            if s.iy.size and t.iy.size:
                inter = shared_cells(s, t)
                size = int((s.hi - s.lo + 1).sum()) + int((t.hi - t.lo + 1).sum())
                iou[i, j] = inter / (size - inter)
    return iou


def iou_frame(rng, config):
    """Ground truths then predictions of one random frame, and the number
    of ground truths: crossing, touching, nested, empty and far-apart
    strokes beside random lanes of every kind."""
    res, width = config.bev_resolution, config.lane_width
    base = random_polyline(rng, int(rng.integers(2, 6)), x_span=0.5)
    offset = lambda dx, dy=0.0: base + [dx, dy, 0.0]
    diagonal = np.array([[0.0, 0.0, 0.0], [3.0, 3.0, 0.0]])
    gts = [base, diagonal, *random_lanes(rng, "near_horizontal", 1)]
    preds = [
        offset(rng.normal(0.0, 0.1)),
        diagonal[::-1] * [1, -1, 1] + [0.0, 3.0, 0.0],  # crossing
        offset(width + res * rng.integers(0, 2)),  # touching, or one cell apart
        base[:2].copy(),  # nested in the base lane's stroke
        offset(50.0),  # boxes disjoint
        np.array([[res, 0.0, 0.0], [res, 3.0, 0.0]]),  # empty when thin
        *random_lanes(rng, "tangent", 1),
        *random_lanes(rng, str(rng.choice(["plain", "half_cell", "far"])), 1),
    ]
    rng.shuffle(preds)
    return [*gts, *preds], len(gts)


@pytest.mark.parametrize("config", RASTER_CONFIGS, ids=["default", "odd", "coarse", "thin"])
def test_iou_from_the_row_table_matches_the_pairwise_and_cell_set_iou(config):
    rng = np.random.default_rng(round(1000 * config.lane_width))
    for _ in range(40):
        lanes, n_gt = iou_frame(rng, config)
        whole = strokes(lanes, config)
        # a whole frame in one block, and one lane per call
        for got, lane in zip(whole, lanes):
            assert_same_runs(got, strokes([lane], config)[0])
        table = _stroke_table(np.concatenate(lanes), [len(p) for p in lanes], config)
        iou = _iou_matrix(table, n_gt)
        expected = pairwise_iou(whole[:n_gt], whole[n_gt:])
        assert np.array_equal(iou.view(np.int64), expected.view(np.int64))
        cells = [decode_runs(s) for s in whole]
        by_sets = np.array([[set_iou(a, b) for b in cells[n_gt:]] for a in cells[:n_gt]])
        assert np.array_equal(iou.view(np.int64), by_sets.view(np.int64))


def test_window_scan_in_chunks_equals_one_pass(monkeypatch):
    # tangent lanes send rows with windows of hundreds of cells to the scan
    rng = np.random.default_rng(88)
    config = EvalConfig()
    lanes = random_lanes(rng, "tangent", 60)
    whole = strokes(lanes, config)
    monkeypatch.setattr(chamfer, "_WINDOW_CELLS", 1 << 12)
    for got, expected in zip(strokes(lanes, config), whole):
        assert_same_runs(got, expected)


def test_a_row_window_past_the_scan_box_is_empty():
    # segments flat to 1e-179 and 1e-115: rows off their band put the
    # window 1e166 cells away, past the box, and hold no cell
    config = EvalConfig(lane_width=3.0, bev_resolution=0.01)
    pts = np.array([[-1.97491308, -5e-324, 0.0], [14.0224889, 2.98414669e-179, 0.0],
                    [-43.6393947, 7.74885751e-115, 0.0], [-2.69447681, 5.73716124e-29, 0.0]])
    assert_same_runs(strokes([pts], config)[0], window_scan_runs(pts, config))


@pytest.mark.parametrize("x", [1e13, 1e17, 1e308])
def test_bev_iou_of_a_huge_coordinate_raises_raster_overflow(x):
    gt = straight_lane(0.0)
    points = straight_lane(0.0).points.copy()
    points[5, 0] = x
    with pytest.raises(RasterOverflow, match="beyond 2\\*\\*53") as info:
        bev_iou(gt, Lane3D(points=points, visibility=np.ones(len(points))))
    assert info.value.lane == 1


def test_iou_translation_by_grid_multiples_is_exact():
    config = EvalConfig()
    rng = np.random.default_rng(8)
    gt = jitter_lane(rng, 0.0)
    pred = jitter_lane(rng, 0.4)
    base = bev_iou(gt, pred, config)
    shift = np.array([37 * config.bev_resolution,
                      -12 * config.bev_resolution, 0.0])
    gt2 = Lane3D(points=gt.points + shift, visibility=gt.visibility.copy())
    pred2 = Lane3D(points=pred.points + shift, visibility=pred.visibility.copy())
    assert bev_iou(gt2, pred2, config) == base


def test_iou_disjoint_and_width_separation():
    gt = straight_lane(0.0)
    assert bev_iou(gt, straight_lane(50.0)) == 0.0
    # exactly one lane width apart: strokes can share at most boundary cells
    near = bev_iou(gt, straight_lane(0.3))
    assert near < 0.05


def test_iou_monotone_in_offset():
    gt = straight_lane(0.0)
    vals = [bev_iou(gt, straight_lane(dx)) for dx in (0.0, 0.05, 0.1, 0.2, 0.3)]
    assert vals[0] == 1.0
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_iou_parallel_offset_oracle():
    # straight strokes: identical rows, column sets offset by exactly
    # two cells; end caps add the same cells per column on both lanes
    config = EvalConfig(lane_width=0.3, bev_resolution=0.05)
    gt = straight_lane(0.0)
    pred = straight_lane(0.1)
    a = decode_runs(strokes([gt.visible_points()], config)[0])
    b = decode_runs(strokes([pred.visible_points()], config)[0])
    shifted = {(ix + 2, iy) for ix, iy in a}
    assert shifted == b
    inter = len(a & b)
    union = len(a | b)
    assert bev_iou(gt, pred, config) == inter / union


# ---------------------------------------------------------------------------
# IoU-gated protocol
# ---------------------------------------------------------------------------


def test_once_perfect_frame():
    frames = [([straight_lane(-3.0), straight_lane(3.0)],
               [straight_lane(-3.0), straight_lane(3.0)])]
    report = once_report(frames)
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    assert report.f1 == 1.0
    assert report.error_stat == 0.0
    assert report.protocol == "once"


def test_once_cd_gate_rejects_high_iou_pair():
    # IoU passes (offset 0.1 -> ~0.5) but the CD gate fails at 0.05
    frames = [([straight_lane(0.0)], [straight_lane(0.1)])]
    strict = once_report(frames, EvalConfig(tau_cd=0.05))
    assert (strict.tp, strict.fp, strict.fn) == (0, 1, 1)
    assert strict.error_stat is None
    relaxed = once_report(frames, EvalConfig(tau_cd=0.3))
    assert (relaxed.tp, relaxed.fp, relaxed.fn) == (1, 0, 0)
    assert relaxed.error_stat == pytest.approx(0.1, rel=1e-12)


def test_once_cd_gate_is_strict_inequality():
    frames = [([straight_lane(0.0)], [straight_lane(0.1)])]
    ucd = unilateral_cd(straight_lane(0.0), straight_lane(0.1))
    at = once_report(frames, EvalConfig(tau_cd=ucd))
    assert at.tp == 0  # ucd < tau required, equality rejected
    above = once_report(frames, EvalConfig(tau_cd=np.nextafter(ucd, np.inf)))
    assert above.tp == 1


def test_once_iou_gate_is_strict_inequality():
    gt, pred = straight_lane(0.0), straight_lane(0.1)
    iou = bev_iou(gt, pred)
    at = once_report([([gt], [pred])], EvalConfig(tau_iou=iou))
    assert at.tp == 0  # iou > tau required
    below = once_report([([gt], [pred])],
                        EvalConfig(tau_iou=np.nextafter(iou, 0.0)))
    assert below.tp == 1


def test_once_unmatched_lanes_count():
    frames = [([straight_lane(-3.0), straight_lane(3.0)],
               [straight_lane(-3.0)]),
              ([], [straight_lane(0.0)])]
    report = once_report(frames)
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)


def test_asymmetry_fixture_once_accepts_bcd_rejects():
    # ground truth 30 m; prediction identical plus a 20 m collinear
    # extension: the unilateral protocol sees a perfect lane, the
    # bidirectional protocol charges the extension
    gt = straight_lane(0.0, 3.0, 33.0, n=16)
    pred = straight_lane(0.0, 3.0, 53.0, n=26)
    assert unilateral_cd(gt, pred) < 0.01
    assert bidirectional_cd(gt, pred) > 1.0
    frames = [([gt], [pred])]
    config = EvalConfig(tau_cd=0.3, tau_bcd=0.3)
    assert once_report(frames, config).f1 == 1.0
    assert bcd_report(frames, config).f1 == 0.0


# ---------------------------------------------------------------------------
# worst-case protocol
# ---------------------------------------------------------------------------


def brute_directed_max(a, b):
    return max(min(float(np.linalg.norm(p - q)) for q in b) for p in a)


def test_mbd_uniform_offset_all_variants():
    frames = [([straight_lane(0.0)], [straight_lane(0.1)])]
    for variant in ("hausdorff_mean", "hausdorff_max", "directed_max_mean"):
        report = mbd_report(frames, EvalConfig(mbd_variant=variant))
        assert report.error_stat == pytest.approx(0.1, rel=1e-12)
        assert report.variant == variant
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)


def test_mbd_aggregate_mean_vs_max():
    frames = [([straight_lane(0.0)], [straight_lane(0.05)]),
              ([straight_lane(0.0)], [straight_lane(0.1)])]
    mean_rep = mbd_report(frames, EvalConfig(mbd_variant="hausdorff_mean"))
    max_rep = mbd_report(frames, EvalConfig(mbd_variant="hausdorff_max"))
    assert mean_rep.error_stat == pytest.approx(0.075, rel=1e-12)
    assert max_rep.error_stat == pytest.approx(0.1, rel=1e-12)


def test_mbd_asymmetric_pair_and_count_independence():
    # half-length prediction: IoU qualifies (~0.5) but the CD gate fails,
    # so the pair contributes to the statistic yet not to tp
    gt = straight_lane(0.0, 3.0, 103.0)
    pred = straight_lane(0.0, 3.0, 53.0)
    a = interpolate_lane(gt, 100)
    b = interpolate_lane(pred, 100)
    m_gp = brute_directed_max(a, b)  # ~50
    m_pg = brute_directed_max(b, a)
    frames = [([gt], [pred])]
    haus = mbd_report(frames, EvalConfig(mbd_variant="hausdorff_mean"))
    assert haus.error_stat == pytest.approx(max(m_pg, m_gp), rel=1e-12)
    assert (haus.tp, haus.fp, haus.fn) == (0, 1, 1)
    directed = mbd_report(frames, EvalConfig(mbd_variant="directed_max_mean"))
    assert directed.error_stat == pytest.approx((m_pg + m_gp) / 2, rel=1e-12)


def test_mbd_counts_equal_once_counts():
    rng = np.random.default_rng(17)
    frames = []
    for _ in range(8):
        gts = [jitter_lane(rng, x) for x in (-3.0, 0.0, 3.0)]
        preds = [jitter_lane(rng, x + rng.uniform(-0.3, 0.3))
                 for x in (-3.0, 3.0)]
        frames.append((gts, preds))
    config = EvalConfig()
    once = once_report(frames, config)
    mbd = mbd_report(frames, config)
    assert (once.tp, once.fp, once.fn) == (mbd.tp, mbd.fp, mbd.fn)


def test_iou_protocols_score_pairs_from_batched_curves(monkeypatch):
    # once/mbd interpolate matched lanes in one batch and score them with
    # the windowed kernel: no per-pair interpolation or full-matrix CD
    rng = np.random.default_rng(19)
    frames = [
        ([jitter_lane(rng, x) for x in (-3.0, 0.0, 3.0)],
         [jitter_lane(rng, x + rng.uniform(-0.3, 0.3)) for x in (-3.0, 3.0)])
        for _ in range(6)
    ]
    config = EvalConfig(tau_iou=0.1)
    expected = [once_report(frames, config), mbd_report(frames, config)]

    def forbidden(*args):
        raise AssertionError("per-pair call")

    monkeypatch.setattr(chamfer, "interpolate_lane", forbidden)
    monkeypatch.setattr(chamfer, "point_to_polyline_stats", forbidden)
    # chamfer no longer imports the single-pair directed distance
    monkeypatch.setattr(kernels, "directed_point_stats", forbidden)
    assert [once_report(frames, config), mbd_report(frames, config)] == expected
    # the CDs and worst-case distances are those of the full-matrix oracles
    monkeypatch.undo()
    for (gts, preds), once, mbd in zip(frames, expected[0].per_frame,
                                       expected[1].per_frame):
        curves = [(oracles.interpolate(g, 100), oracles.interpolate(p, 100))
                  for g in gts for p in preds]
        ucds = [oracles.polyline_core(g, p)[0] for g, p in curves]
        worst = [max(oracles.point_core(p, g)[1], oracles.point_core(g, p)[1])
                 for g, p in curves]
        assert all(e in ucds for e in once.pair_errors)
        assert all(e in worst for e in mbd.pair_errors)
    assert sum(len(stats.pair_errors) for stats in expected[1].per_frame) > 6


def test_mbd_maxima_on_a_curve_with_y_an_ulp_out_of_order():
    # a vertex on a sample position after a long segment from negative y,
    # then a jog of one ulp in y: the sample there rounds a few ulps past
    # the jog, so the interpolated curve's y falls back once
    y0 = 0.10520315032328138
    gt = lane_from([0.0, 0.0, 11.376695268362575, 11.376695268362575],
                   [-32.602795746219115, y0, np.nextafter(y0, np.inf),
                    96.80711293140516])
    pred = lane_from(gt.points[:, 0] + 0.05, gt.points[:, 1])
    a, b = oracles.interpolate(gt, 100), oracles.interpolate(pred, 100)
    assert np.diff(a[:, 1]).min() < 0.0 and np.diff(b[:, 1]).min() < 0.0
    max_gp, max_pg = oracles.point_core(a, b)[1], oracles.point_core(b, a)[1]
    frames = [([gt], [pred])]
    haus = mbd_report(frames, EvalConfig(mbd_variant="hausdorff_mean"))
    assert haus.per_frame[0].pair_errors == (max(max_pg, max_gp),)
    directed = mbd_report(frames, EvalConfig(mbd_variant="directed_max_mean"))
    assert directed.per_frame[0].pair_errors == ((max_pg + max_gp) / 2.0,)


def test_bidirectional_cd_is_the_protocols_distance_on_unsorted_curves():
    # the curve of the test above, whose interpolated y falls back once:
    # the protocol sorts both lanes by y, so the single-pair distance must
    # too, or the summation order of a directed mean can differ
    y0 = 0.10520315032328138
    gt = lane_from([0.0, 0.0, 11.376695268362575, 11.376695268362575],
                   [-32.602795746219115, y0, np.nextafter(y0, np.inf),
                    96.80711293140516])
    rng = np.random.default_rng(1)
    for _ in range(300):
        pred = lane_from(gt.points[:, 0] + rng.normal(0.0, 0.3, 4),
                         gt.points[:, 1], rng.normal(0.0, 0.05, 4))
        frame = [([gt], [pred])]
        want = chamfer._bcd_rows(frame, 100)[0][0, 0]
        assert want == oracles.bcd_matrix([gt], [pred], 100)[0, 0]
        assert bidirectional_cd(gt, pred) == want
        assert bcd_report(frame, EvalConfig(tau_bcd=10.0)).per_frame[0] \
            .pair_errors == (want,)


def one_visible(count):
    vis = np.zeros(3)
    vis[:count] = 1.0
    return lane_from([0.0, 0.1, 0.2], [0.0, 1.0, 2.0], vis=vis)


@pytest.fixture
def block_points(request, monkeypatch):
    monkeypatch.setattr("lane3d.report._BLOCK_POINTS", request.param)


def at_both_block_bounds(argnames, cases):
    """Parametrize over ``cases`` at the default ``report._BLOCK_POINTS``,
    keeping each case's id, and at 1 (id suffix ``-block1``), where each
    scored frame is a block of its own, so a short lane sits in a later
    block than the frames scored before it."""
    return pytest.mark.parametrize(
        f"{argnames}, block_points",
        [pytest.param(*case.values, bound, id=case.id + suffix)
         for case in cases
         for bound, suffix in ((report_module._BLOCK_POINTS, ""), (1, "-block1"))],
        indirect=["block_points"])


@at_both_block_bounds("report", [pytest.param(once_report, id="once_report"),
                                 pytest.param(mbd_report, id="mbd_report")])
def test_iou_reports_raise_for_the_first_unstrokable_lane(report, block_points):
    good = straight_lane(0.0)
    # frame 0 is not scored (no predictions), so its lane is not stroked;
    # frame 1's first lane short of 2 visible points is its second ground truth
    frames = [([one_visible(0)], []),
              ([good, one_visible(1)], [one_visible(0), good]),
              ([one_visible(0)], [good])]
    with pytest.raises(DegenerateLane) as got:
        report(frames)
    assert type(got.value) is DegenerateLane
    assert str(got.value) == "1 visible point(s); need >= 2"
    assert report([([one_visible(1)], [])]).fn == 1


def test_bev_iou_raises_for_the_ground_truth_first():
    good = straight_lane(0.0)
    for gt, pred, count in ((one_visible(1), one_visible(0), 1),
                            (good, one_visible(0), 0),
                            (one_visible(0), good, 0)):
        with pytest.raises(DegenerateLane) as got:
            bev_iou(gt, pred)
        assert type(got.value) is DegenerateLane
        assert str(got.value) == f"{count} visible point(s); need >= 2"


def assert_short_lane_message(call, count):
    with pytest.raises(DegenerateLane) as got:
        call()
    assert type(got.value) is DegenerateLane
    assert str(got.value) == f"{count} visible point(s); need >= 2"


REPORTS = {"bcd": bcd_report, "once": once_report, "mbd": mbd_report,
           "openlane": openlane_report}


@at_both_block_bounds("protocol, sweep", [
    pytest.param(protocol, sweep, id=f"{protocol}-{name}")
    for sweep, name in ((False, "report"), (True, "sweep")) for protocol in REPORTS])
def test_every_protocol_gives_one_message_for_a_short_lane(protocol, sweep,
                                                          block_points):
    def score(frames):
        if sweep:
            return threshold_sweep(frames, [0.1, 0.5], protocol)
        return REPORTS[protocol](frames)

    good = straight_lane(0.0)
    # frame 0 has no predictions; frame 1 has a short ground truth (0
    # visible) after a good one, and a short prediction (1 visible) first
    frames = [([one_visible(1)], []),
              ([good, one_visible(0)], [one_visible(1), good])]
    # bcd scores the frames with predictions, predictions first; once and
    # mbd those with both kinds, and openlane every frame, ground truths first
    count = {"bcd": 1, "once": 0, "mbd": 0, "openlane": 1}[protocol]
    assert_short_lane_message(lambda: score(frames), count)
    if protocol != "openlane":  # a frame the protocol does not score
        score([([one_visible(0)], [])])
    if protocol in ("once", "mbd"):
        score([([], [one_visible(0)])])


@pytest.mark.parametrize("call, count", [
    (lambda: bev_iou(one_visible(0), one_visible(1)), 0),
    (lambda: bev_iou(straight_lane(0.0), one_visible(1)), 1),
    (lambda: interpolate_lane(one_visible(1), 100), 1),
    (lambda: resample_at_y(one_visible(0), np.arange(3.0)), 0),
], ids=["bev_iou_gt_first", "bev_iou_pred", "interpolate_lane", "resample_at_y"])
def test_every_lane_function_gives_one_message_for_a_short_lane(call, count):
    assert_short_lane_message(call, count)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep_fixture(seed=29, n_frames=10):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        gts = [jitter_lane(rng, x) for x in (-3.0, 0.0, 3.0)]
        preds = [Lane3D(points=g.points + np.array([rng.uniform(0, 0.4), 0, 0]),
                        visibility=g.visibility.copy())
                 for g in gts[:rng.integers(1, 4)]]
        frames.append((gts, preds))
    return frames


def test_sweep_rows_match_standalone_reports_exactly():
    # The first two predictions share their nearest ground truth: below
    # 0.27 only the second one claims it, from 0.27 on the first does.
    gts = [straight_lane(0.0), straight_lane(3.7)]
    preds = [straight_lane(0.27), straight_lane(0.12), straight_lane(3.8)]
    shared = [(gts, preds)]
    assert bcd_select_tp_fp(gts, preds, EvalConfig(tau_bcd=0.2))[0] == [
        False, True, True]
    assert bcd_select_tp_fp(gts, preds, EvalConfig(tau_bcd=0.3))[0] == [
        True, False, True]
    for frames, taus in (
        (sweep_fixture(), [0.1, 0.3]),
        (shared, [0.05 * k for k in range(1, 11)]),
    ):
        # the openlane sweep replaces its config's tau_dist by each tau
        for protocol, report_at in (
            ("bcd", lambda t: bcd_report(frames, EvalConfig(tau_bcd=t))),
            ("once", lambda t: once_report(frames, EvalConfig(tau_cd=t))),
            ("mbd", lambda t: mbd_report(frames, EvalConfig(tau_cd=t))),
            ("openlane",
             lambda t: openlane_report(frames, PointwiseConfig(tau_dist=t))),
        ):
            rows = threshold_sweep(frames, taus, protocol,
                                   pointwise_config=PointwiseConfig(tau_dist=9.0))
            assert [row[0] for row in rows] == taus
            for tau, precision, recall, f1 in rows:
                rep = report_at(tau)
                assert (precision, recall, f1) == (
                    rep.precision, rep.recall, rep.f1)


def test_sweep_bcd_f1_monotone():
    frames = sweep_fixture()
    rows = threshold_sweep(frames, np.linspace(0.05, 1.5, 30), "bcd")
    assert len(rows) == 30
    f1s = [r[3] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(f1s, f1s[1:]))


def test_sweep_openlane_delegates():
    from lane3d.geometry import SampleGrid
    from lane3d.pointwise import pointwise_sweep

    anchors = np.linspace(3.0, 103.0, 20)
    y = anchors
    lane = Lane3D(points=np.stack([np.zeros_like(y), y, np.zeros_like(y)], 1),
                  visibility=np.ones_like(y))
    frames = [([lane], [lane])]
    rows = threshold_sweep(frames, [0.5, 1.5], "openlane")
    assert rows == pointwise_sweep(frames, [0.5, 1.5])


def test_sweep_rejects_bad_input():
    frames = sweep_fixture(n_frames=1)
    with pytest.raises(ConfigError):
        threshold_sweep(frames, [], "bcd")
    with pytest.raises(ConfigError):
        threshold_sweep(frames, [0.1, 0.0], "bcd")
    with pytest.raises(ConfigError):
        threshold_sweep(frames, [0.1], "nonsense")


@pytest.mark.parametrize("report_fn", [once_report, mbd_report, bcd_report])
def test_reports_reject_frame_ids_of_the_wrong_length(report_fn):
    frames = sweep_fixture(n_frames=2)
    with pytest.raises(ValueError):
        report_fn(frames, frame_ids=["a"])
    with pytest.raises(ValueError):
        report_fn(frames, frame_ids=["a", "b", "c"])
    report = report_fn(frames, frame_ids=["a", "b"])
    assert [s.frame_id for s in report.per_frame] == ["a", "b"]


@pytest.mark.parametrize("protocol", ["bcd", "once", "openlane"])
def test_sweeps_reject_frame_ids_of_the_wrong_length(protocol):
    frames = sweep_fixture(n_frames=2)
    with pytest.raises(ValueError):
        threshold_sweep(frames, [0.3], protocol, frame_ids=["only-one"])
    with pytest.raises(ValueError):
        threshold_sweep(frames, [0.3], protocol, frame_ids=["a", "b", "c"])
    assert threshold_sweep(frames, [0.3], protocol, frame_ids=["a", "b"]) == \
        threshold_sweep(frames, [0.3], protocol)


def test_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(tau_cd=0.0)
    with pytest.raises(ConfigError):
        EvalConfig(bev_resolution=-0.1)
    for name in ("lane_width", "bev_resolution"):
        for value in (math.inf, math.nan):
            with pytest.raises(ConfigError):
                EvalConfig(**{name: value})
    with pytest.raises(ConfigError):
        EvalConfig(n_interp=1)
    with pytest.raises(ConfigError):
        EvalConfig(mbd_variant="median")


@pytest.mark.parametrize("name", ["tau_cd", "tau_iou", "tau_bcd"])
def test_thresholds_must_be_finite(name):
    with pytest.raises(ConfigError, match=f"{name} must be finite and > 0, got inf"):
        EvalConfig(**{name: math.inf})
