"""Bit-identity tests for the distance kernels.

The contract is exact: the kernels must reproduce a pure-Python
double-loop oracle, or a full-matrix reference (``oracles``), bitwise,
not merely within a tolerance.
"""

import numpy as np
import pytest

import oracles
from lane3d import kernels
from oracles import oracle_point_stats, oracle_polyline_stats


def random_lane(rng, n):
    """Random lane-like point cloud with sorted y and mild x/z spread."""
    y = np.sort(rng.uniform(0.0, 100.0, size=n))
    x = rng.normal(0.0, 3.0, size=n)
    z = rng.normal(0.0, 0.3, size=n)
    return np.column_stack([x, y, z])


class TestDirectedPointStats:
    def test_bit_identical_to_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a = random_lane(rng, 100)
            b = random_lane(rng, 100)
            mean, biggest = kernels.directed_point_stats(a, b)
            omean, obig = oracle_point_stats(a, b)
            assert mean == omean
            assert biggest == obig

    def test_unsorted_input_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(0.0, 10.0, size=(40, 3))
            b = rng.normal(0.0, 10.0, size=(60, 3))
            mean, biggest = kernels.directed_point_stats(a, b)
            omean, obig = oracle_point_stats(a, b)
            assert mean == omean
            assert biggest == obig

    def test_duplicate_y_values(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = random_lane(rng, 30)
            b = random_lane(rng, 30)
            b[:, 1] = np.round(b[:, 1] / 10.0) * 10.0  # many exact ties
            mean, biggest = kernels.directed_point_stats(a, b)
            omean, obig = oracle_point_stats(a, b)
            assert mean == omean
            assert biggest == obig

    def test_identical_sets_give_zero(self):
        rng = np.random.default_rng(19)
        a = random_lane(rng, 50)
        mean, biggest = kernels.directed_point_stats(a, a)
        assert mean == 0.0
        assert biggest == 0.0

    def test_single_points(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 4.0, 0.0]])
        mean, biggest = kernels.directed_point_stats(a, b)
        assert mean == 5.0
        assert biggest == 5.0

    def test_asymmetric_in_general(self):
        a = np.array([[0.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        b = np.array([[0.0, 0.0, 0.0]])
        fwd, _ = kernels.directed_point_stats(a, b)
        rev, _ = kernels.directed_point_stats(b, a)
        assert fwd == 25.0
        assert rev == 0.0

    def test_empty_rejected(self):
        good = np.array([[0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            kernels.directed_point_stats(np.empty((0, 3)), good)
        with pytest.raises(ValueError):
            kernels.directed_point_stats(good, np.empty((0, 3)))


class TestPolylineMeanPairs:
    """The windowed unilateral CD against the full-matrix reference."""

    @staticmethod
    def assert_matches_reference(src, dst):
        means, maxes, fallbacks = kernels.polyline_mean_pairs(src, dst)
        for mean, biggest, a, q in zip(means, maxes, src, dst):
            assert (mean, biggest) == oracles.polyline_core(a, q)
        return fallbacks

    def test_close_lanes_take_the_window(self):
        rng = np.random.default_rng(41)
        y = np.linspace(3.0, 103.0, 30)
        src = np.stack([
            kernels.resample_polyline(np.column_stack(
                [rng.uniform(-5, 5) + rng.uniform(-0.05, 0.05) * y
                 + rng.uniform(-2e-3, 2e-3) * y * y, y, 0.01 * y]), 100)
            for _ in range(40)
        ])
        dst = src + rng.normal(0.0, 0.1, (40, 1, 3)) * [1.0, 1.0, 0.1]
        dst = np.stack([kernels.resample_polyline(d, 100) for d in dst])
        assert self.assert_matches_reference(src, dst) < 40 * 100 // 10

    def test_far_and_short_lanes_fall_back(self):
        rng = np.random.default_rng(43)
        src = np.stack([random_lane(rng, 50) for _ in range(20)])
        dst = np.stack([random_lane(rng, 7) for _ in range(20)])
        assert self.assert_matches_reference(src, dst) > 0

    def test_duplicate_consecutive_points(self):
        rng = np.random.default_rng(47)
        src = np.stack([random_lane(rng, 60) for _ in range(10)])
        dst = np.stack([random_lane(rng, 60) for _ in range(10)])
        dst[:, 20] = dst[:, 19]
        dst[:, 40:44] = dst[:, 40:41]
        dst[3] = dst[3, 0]  # every segment of length 0
        self.assert_matches_reference(src, dst)

    def test_y_an_ulp_out_of_order(self):
        rng = np.random.default_rng(53)
        src = np.stack([kernels.resample_polyline(random_lane(rng, 30), 100)
                        for _ in range(10)])
        dst = src + [0.05, 0.0, 0.0]
        for lane in dst:  # as a rounded resample can leave it
            k = int(rng.integers(1, 99))
            lane[k, 1] = np.nextafter(lane[k - 1, 1], -np.inf)
        self.assert_matches_reference(src, dst)

    def test_lane_doubling_back_scans_every_segment(self):
        # the lane runs back down to y = 4.6 and up again, passing close
        # to points the window around y = 4.5 would settle 5 m from
        y = np.linspace(0.0, 100.0, 20)
        dst = np.column_stack([np.full(20, 5.0), y, np.zeros(20)])
        dst = np.vstack([dst, [0.0, 4.6, 0.0], [5.0, 200.0, 0.0]])[None]
        src = np.array([[[0.0, 4.5, 0.0], [0.1, 4.55, 0.0]]])
        self.assert_matches_reference(src, dst)
        assert kernels.polyline_mean_pairs(src, dst)[0][0] < 1.0

    def test_single_segment_predictions(self):
        rng = np.random.default_rng(59)
        # a one-vertex prediction (m = 1) is a segment of length 0
        for m in (2, 1):
            src = np.stack([random_lane(rng, 40) for _ in range(10)])
            dst = np.stack([random_lane(rng, m) for _ in range(10)])
            self.assert_matches_reference(src, dst)
            self.assert_matches_reference(src[:, :1], dst)
            means, maxes, _ = kernels.polyline_mean_pairs(src, dst)
            for mean, biggest, a, q in zip(means, maxes, src, dst):
                assert (mean, biggest) == oracle_polyline_stats(a, q)


class TestPairMeanMatrices:
    def test_matches_per_pair_calls(self):
        rng = np.random.default_rng(23)
        preds = [random_lane(rng, rng.integers(5, 60)) for _ in range(4)]
        gts = [random_lane(rng, rng.integers(5, 60)) for _ in range(3)]
        preds.append(rng.normal(0.0, 10.0, (30, 3)))  # sorted by y first
        d_pg, d_gp = kernels.pair_mean_matrices(preds, gts)
        assert d_pg.shape == (5, 3)
        assert d_gp.shape == (5, 3)
        want_pg, want_gp = oracles.pair_mean_matrices(preds, gts)
        assert np.array_equal(d_pg, want_pg)
        assert np.array_equal(d_gp, want_gp)

    def test_empty_lane_lists(self):
        d_pg, d_gp = kernels.pair_mean_matrices([], [])
        assert d_pg.shape == (0, 0)
        rng = np.random.default_rng(31)
        d_pg, d_gp = kernels.pair_mean_matrices([random_lane(rng, 5)], [])
        assert d_pg.shape == (1, 0)


class TestPointToPolylineStats:
    def test_bit_identical_to_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a = random_lane(rng, 50)
            q = random_lane(rng, 40)
            mean, biggest = kernels.point_to_polyline_stats(a, q)
            omean, obig = oracle_polyline_stats(a, q)
            assert mean == omean
            assert biggest == obig

    def test_single_vertex_polyline(self):
        a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        q = np.array([[0.0, 3.0, 4.0]])
        mean, biggest = kernels.point_to_polyline_stats(a, q)
        omean, obig = oracle_polyline_stats(a, q)
        assert mean == omean
        assert biggest == obig

    def test_zero_length_segment(self):
        a = np.array([[1.0, 1.0, 0.0]])
        q = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        mean, biggest = kernels.point_to_polyline_stats(a, q)
        omean, obig = oracle_polyline_stats(a, q)
        assert mean == omean
        assert biggest == obig

    def test_interior_projection_beats_vertices(self):
        # Point above the middle of a long segment: distance is the
        # perpendicular drop, far below either vertex distance.
        a = np.array([[0.0, 5.0, 1.0]])
        q = np.array([[0.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        mean, _ = kernels.point_to_polyline_stats(a, q)
        assert mean == 1.0

    def test_point_set_vs_polyline_gap(self):
        # Same geometry, coarse vertices: the point-set distance sees the
        # vertex gap, the polyline distance does not.
        a = np.array([[0.0, 5.0, 0.0]])
        q = np.array([[0.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        poly_mean, _ = kernels.point_to_polyline_stats(a, q)
        pts_mean, _ = kernels.directed_point_stats(a, q)
        assert poly_mean == 0.0
        assert pts_mean == 5.0


class TestResamplePolyline:
    def test_matches_interp_oracle(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            pts = random_lane(rng, int(rng.integers(2, 40)))
            n = int(rng.integers(2, 150))
            out = kernels.resample_polyline(pts, n)
            assert out.shape == (n, 3)
            assert np.array_equal(out[0], pts[0])
            assert np.array_equal(out[-1], pts[-1])
            seg = np.diff(pts, axis=0)
            cum = np.concatenate(
                [[0.0], np.cumsum(np.linalg.norm(seg, axis=1))]
            )
            targets = np.linspace(0.0, cum[-1], n)
            ref = np.stack(
                [np.interp(targets, cum, pts[:, k]) for k in range(3)], axis=1
            )
            assert np.allclose(out, ref, rtol=1e-12, atol=1e-9)

    def test_samples_lie_on_the_chain(self):
        rng = np.random.default_rng(58)
        for _ in range(25):
            pts = random_lane(rng, 12)
            out = kernels.resample_polyline(pts, 37)
            for p in out:
                mean, _ = kernels.point_to_polyline_stats(p[None, :], pts)
                assert mean < 1e-9

    def test_degenerate_duplicate_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        out = kernels.resample_polyline(pts, 6)
        assert np.array_equal(out[0], pts[0])
        assert np.array_equal(out[-1], pts[-1])
        assert np.all(np.isfinite(out))

    def test_validation(self):
        with pytest.raises(ValueError):
            kernels.resample_polyline(np.zeros((1, 3)) + 1.0, 5)
        with pytest.raises(ValueError):
            kernels.resample_polyline(np.ones((4, 3)), 1)


class TestBatchedKernels:
    def test_resample_polylines_matches_per_lane(self):
        rng = np.random.default_rng(23)
        lanes = [random_lane(rng, int(m)) for m in rng.integers(2, 60, 100)]
        # evenly spaced vertices: samples land on them up to rounding
        for m in (2, 5, 11, 21):
            y = np.linspace(0.0, 10.0 * (m - 1), m)
            lanes.append(np.column_stack([0.3 * y, y, np.zeros(m)]))
        counts = [lane.shape[0] for lane in lanes]
        for n in (2, 3, 21, 41, 50, 101):
            out = kernels.resample_polylines(np.concatenate(lanes), counts, n)
            assert out.shape == (len(lanes), n, 3)
            for lane, row in zip(lanes, out):
                assert np.array_equal(row, oracles.resample_core(lane, n))

    @pytest.mark.parametrize("n, at, length", [
        (32, [0, 5, 24, 25, 31], 111.1465185962481),
        (49, [0, 12, 33, 34, 39, 48], 99.59028914465026),
    ])
    def test_resample_polylines_vertices_on_sample_positions(self, n, at, length):
        # Vertices where samples fall, up to rounding: the first lane needs
        # the upward and the second the downward fix of the segment rank.
        y = length * np.array(at) / (n - 1)
        lane = np.column_stack([np.zeros_like(y), y, np.zeros_like(y)])
        out = kernels.resample_polylines(lane, [len(at)], n)
        assert np.array_equal(out[0], oracles.resample_core(lane, n))

    @pytest.mark.parametrize("src, dst", [
        ([[1.0, 1.7, 0.0]],
         [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.0],
          [1.0, 1.0, 0.0], [0.5, 2.0, 0.0], [-0.5, 25.0, 0.0]]),
        ([[-0.5, -12.2, 0.0], [-1.0, 1.3, 0.0]],
         [[0.5, -20.0, 0.0], [-1.0, 4.0, 0.0], [1.0, 8.0, 0.0], [0.0, 8.0, 0.0],
          [-1.0, 8.0, 0.0], [1.0, 10.0, 0.0]]),
    ])
    def test_directed_mean_pairs_window_on_the_wrong_side(self, src, dst):
        # Repeated y values and one far point put the first window beside
        # the nearest neighbor, with a neighbor of equal dy*dy outside it.
        means, maxes, _ = kernels.directed_mean_pairs([src], [dst])
        assert (means[0], maxes[0]) == oracle_point_stats(src, dst)

    def test_directed_mean_pairs_matches_oracle(self):
        rng = np.random.default_rng(29)
        src = np.stack([random_lane(rng, 100) for _ in range(60)])
        dst = np.stack([random_lane(rng, 70) for _ in range(60)])
        dst[::3, :, 1] = np.round(dst[::3, :, 1] / 10.0) * 10.0  # y ties
        dst[1::3, :, 0] *= 0.01  # lanes the window alone can settle
        src[1::3, :, 0] *= 0.01
        means, maxes, fallbacks = kernels.directed_mean_pairs(src, dst)
        assert 0 < fallbacks < src.shape[0] * src.shape[1]
        for a, b, mean, biggest in zip(src, dst, means, maxes):
            assert (mean, biggest) == oracle_point_stats(a, b)


class TestNonFiniteRejected:
    """The window kernels assume finite input; the public functions check."""

    good = np.array([[0.0, 0.0, 0.0], [0.5, 1.0, 0.1], [1.0, 2.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_directed_point_stats(self, bad, side):
        pts = [self.good.copy(), self.good.copy()]
        pts[side][1, side] = bad
        with pytest.raises(ValueError, match="must be finite"):
            kernels.directed_point_stats(*pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_point_to_polyline_stats(self, bad, side):
        pts = [self.good.copy(), self.good.copy()]
        pts[side][0, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            kernels.point_to_polyline_stats(*pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_resample_polyline(self, bad):
        pts = self.good.copy()
        pts[0, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            kernels.resample_polyline(pts, 4)

    def test_pair_mean_matrices(self):
        bad = self.good.copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"gt_points\[1\] must be finite"):
            kernels.pair_mean_matrices([self.good], [self.good, bad])


class TestBackendSelection:
    def test_active_backend_reports_a_known_name(self):
        assert kernels.active_backend() == "numpy"
