"""Geometry tests: every expected value is hand-computed in the test body.

Projection oracle (pitch=0):
    camera at (0, 0, h); ground point (x, y, z)
    camera frame: x_c = x,  y_c = h - z,  z_c = y
    u = cx + fx*x_c/z_c,  v = cy + fy*y_c/z_c
"""

import math
from collections import Counter

import numpy as np
import pytest

import oracles

import lane3d.geometry as geometry
from lane3d.errors import (
    BehindCamera,
    DegenerateLane,
    NoGroundIntersection,
    SingularRow,
    Underdetermined,
)
from lane3d.geometry import (
    CameraModel,
    Curve2D,
    Lane3D,
    SampleGrid,
    curve_eval,
    fit_curves,
    interpolate_lane,
    project_ground_to_image,
    resample_at_y,
    sample_curve,
    unproject_to_ground,
)

from conftest import curved_lane, straight_lane


def make_curve(rho=(0.0, 0.0, 0.0, 0.0), bp=0.0, bpp=0.0,
               v_low=0.0, v_up=720.0, form="rational") -> Curve2D:
    return Curve2D(rho=rho, beta_prime=bp, beta_dprime=bpp,
                   v_low=v_low, v_up=v_up, form=form)


class TestCurveEval:
    def test_constant_curve(self):
        c = make_curve(bpp=100.0)
        assert curve_eval(c, 500.0) == 100.0

    def test_identity_line(self):
        c = make_curve(bp=1.0)
        assert curve_eval(c, 123.0) == 123.0

    def test_reciprocal_terms(self):
        # u = 1000/(10 - (-10))^2 + 0 + 50 = 1000/400 + 50 = 52.5
        c = make_curve(rho=(1000.0, -10.0, 0.0, 50.0))
        assert curve_eval(c, 10.0) == pytest.approx(52.5, abs=1e-12)

    def test_poly3_form(self):
        # u = 1 + 2v + 3v^2 + 4v^3 + 5v + 6 at v=2: 1+4+12+32+10+6 = 65
        c = make_curve(rho=(1.0, 2.0, 3.0, 4.0), bp=5.0, bpp=6.0,
                       form="poly3")
        assert curve_eval(c, 2.0) == pytest.approx(65.0, abs=1e-12)

    def test_singular_row(self):
        c = make_curve(rho=(1.0, 100.0, 0.0, 0.0))
        with pytest.raises(SingularRow):
            curve_eval(c, 100.0 + 1e-9)

    def test_vectorized(self):
        c = make_curve(bp=2.0, bpp=1.0)
        v = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(curve_eval(c, v), [1.0, 3.0, 5.0])


class TestSampleCurve:
    def test_constant_curve_valid_in_range(self, camera):
        c = make_curve(bpp=100.0, v_low=0.0, v_up=720.0)
        u, v, m = sample_curve(c, camera, SampleGrid(j_prime=20))
        assert np.all(m == 1)
        assert np.all(u == 100.0)
        # rows uniformly spaced over [0, H): (j + 0.5) * 720/20
        np.testing.assert_allclose(v, (np.arange(20) + 0.5) * 36.0)

    def test_row_outside_bounds_invalid(self, camera):
        c = make_curve(bpp=100.0, v_low=300.0, v_up=700.0)
        u, v, m = sample_curve(c, camera, SampleGrid(j_prime=20))
        outside = (v < 300.0) | (v > 700.0)
        assert np.all(m[outside] == 0)
        assert np.all(u[outside] == -1.0)
        assert np.all(m[~outside] == 1)

    def test_u_out_of_image_invalid(self):
        # u = v with W = 480: rows below 480 valid, rows above invalid.
        cam = CameraModel(fx=1000.0, fy=1000.0, cx=240.0, cy=480.0,
                          height=1.5, pitch=0.0, image_size=(960, 480))
        c = make_curve(bp=1.0, v_low=0.0, v_up=960.0)
        u, v, m = sample_curve(c, cam, SampleGrid(j_prime=960))
        # rows are at 0.5, 1.5, ..., 959.5
        assert m[479] == 1 and u[479] == 479.5
        assert m[480] == 0 and u[480] == -1.0

    def test_validity_reevaluation(self, camera):
        """Every m flag must agree with re-applying the validity rule."""
        rng = np.random.default_rng(7)
        grid = SampleGrid(j_prime=20)
        for _ in range(50):
            c = make_curve(rho=(rng.uniform(-1e4, 1e4), rng.uniform(-400, 200),
                                rng.uniform(-500, 500), 0.0),
                           bp=rng.uniform(-0.5, 0.5), bpp=rng.uniform(0, 960),
                           v_low=rng.uniform(0, 300), v_up=rng.uniform(400, 720))
            u, v, m = sample_curve(c, camera, grid)
            for j in range(grid.j_prime):
                try:
                    uj = curve_eval(c, float(v[j]))
                except SingularRow:
                    assert m[j] == 0
                    continue
                expected = int(c.v_low <= v[j] <= c.v_up and 0.0 <= uj < 960)
                assert m[j] == expected
                if expected:
                    assert u[j] == pytest.approx(uj, abs=1e-12)

    def test_singular_row_yields_invalid_not_error(self, camera):
        grid = SampleGrid(j_prime=20)
        # horizon row exactly on the first sample row (v = 18)
        c = make_curve(rho=(1.0, 18.0, 0.0, 0.0), bpp=100.0)
        u, v, m = sample_curve(c, camera, grid)
        assert m[0] == 0 and u[0] == -1.0


class TestCameraValidation:
    @pytest.mark.parametrize("key", ["fx", "fy", "cx", "cy", "height"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_must_be_finite(self, key, bad):
        values = dict(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0, height=1.5,
                      pitch=0.0, image_size=(720, 960))
        values[key] = bad
        with pytest.raises(ValueError, match="finite"):
            CameraModel(**values)


class TestProjection:
    def test_hand_computed_point(self, camera):
        # p = (0, 10, 0): x_c=0, y_c=1.5, z_c=10 -> (480, 360 + 1000*0.15)
        uv = project_ground_to_image(camera, np.array([0.0, 10.0, 0.0]))
        np.testing.assert_allclose(uv, [480.0, 510.0], atol=1e-12)

    def test_principal_point(self, camera):
        # On the optical axis: pitch=0 means (0, d, h) for any depth d.
        uv = project_ground_to_image(camera, np.array([0.0, 25.0, 1.5]))
        np.testing.assert_allclose(uv, [480.0, 360.0], atol=1e-12)

    def test_behind_camera(self, camera):
        with pytest.raises(BehindCamera):
            project_ground_to_image(camera, np.array([0.0, -1.0, 0.0]))

    def test_unproject_hand_computed(self, camera):
        p = unproject_to_ground(camera, 480.0, 360.0 + 1000.0 * 0.15)
        np.testing.assert_allclose(p, [0.0, 10.0, 0.0], atol=1e-9)

    def test_horizon_has_no_ground_intersection(self, camera):
        # pitch=0: rays at or above v = cy never descend to the ground
        with pytest.raises(NoGroundIntersection):
            unproject_to_ground(camera, 480.0, 360.0)

    @pytest.mark.parametrize("pitch", [0.0, 0.05, 0.3])
    def test_round_trip_both_ways(self, pitch):
        cam = CameraModel(fx=1000.0, fy=1100.0, cx=480.0, cy=360.0,
                          height=1.5, pitch=pitch, image_size=(720, 960))
        rng = np.random.default_rng(42)
        pts = np.stack([rng.uniform(-10, 10, 100),
                        rng.uniform(2.0, 100.0, 100),
                        np.zeros(100)], axis=1)
        uv = project_ground_to_image(cam, pts)
        back = unproject_to_ground(cam, uv[:, 0], uv[:, 1])
        assert np.max(np.abs(back - pts)) < 1e-6
        again = project_ground_to_image(cam, back)
        assert np.max(np.abs(again - uv)) < 1e-6


class TestInterpolateLane:
    def test_two_point_straight(self):
        lane = Lane3D(points=np.array([[0.0, 0.0, 0.0], [0.0, 99.0, 0.0]]),
                      visibility=np.ones(2))
        out = interpolate_lane(lane, 100)
        np.testing.assert_allclose(out[:, 1], np.arange(100.0), atol=1e-9)
        assert np.all(out[:, 0] == 0.0) and np.all(out[:, 2] == 0.0)

    def test_identity_on_uniform_lane(self):
        lane = straight_lane(x=1.0, y0=0.0, y1=9.0, n=10)
        out = interpolate_lane(lane, 10)
        np.testing.assert_allclose(out, lane.points, atol=1e-12)

    def test_endpoints_exact_and_on_polyline(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lane = curved_lane(rng)
            out = interpolate_lane(lane, 100)
            assert np.array_equal(out[0], lane.points[0])
            assert np.array_equal(out[-1], lane.points[-1])
            # never extrapolates: all y values inside the lane's span
            assert out[:, 1].min() >= lane.points[0, 1] - 1e-12
            assert out[:, 1].max() <= lane.points[-1, 1] + 1e-12

    def test_straight_lane_arc_length_exact(self):
        lane = straight_lane(x=-2.0, y0=0.0, y1=80.0, n=17)
        out = interpolate_lane(lane, 100)
        seg = np.diff(out, axis=0)
        length = np.sqrt((seg * seg).sum(axis=1)).sum()
        assert abs(length - 80.0) / 80.0 < 1e-9

    def test_chord_length_never_exceeds_arc_length(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lane = curved_lane(rng)
            seg = np.diff(lane.points, axis=0)
            arc = np.sqrt((seg * seg).sum(axis=1)).sum()
            out = interpolate_lane(lane, 100)
            seg_o = np.diff(out, axis=0)
            chord = np.sqrt((seg_o * seg_o).sum(axis=1)).sum()
            assert chord <= arc + 1e-12

    def test_invisible_gap_bridged(self):
        vis = np.ones(5)
        vis[2] = 0.0  # drop the middle point entirely
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, 2.0, 0.0],
                        [0.0, 3.0, 0.0], [0.0, 4.0, 0.0]])
        lane = Lane3D(points=pts, visibility=vis)
        out = interpolate_lane(lane, 5)
        # visible polyline is a straight segment x=0, y in [0, 4]
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[:, 1], np.arange(5.0), atol=1e-12)

    def test_degenerate_lane(self):
        lane = Lane3D(points=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                      visibility=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateLane):
            interpolate_lane(lane, 10)


class TestResampleAtY:
    def test_linear_lane(self):
        lane = straight_lane(x=2.0, y0=0.0, y1=10.0, n=11)
        x, z, vis = resample_at_y(lane, np.array([0.0, 5.5, 10.0, 12.0]))
        np.testing.assert_allclose(x, 2.0)
        np.testing.assert_allclose(z, 0.0)
        np.testing.assert_allclose(vis, [1.0, 1.0, 1.0, 0.0])

    def test_interpolates_between_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 4.0]])
        lane = Lane3D(points=pts, visibility=np.ones(2))
        x, z, vis = resample_at_y(lane, np.array([1.0]))
        assert x[0] == pytest.approx(1.0) and z[0] == pytest.approx(2.0)
        assert vis[0] == 1.0

    def test_lanes_in_one_pass_equal_each_lane_alone(self):
        # points on anchors, spans inside and beyond them, tiny and wide
        # gaps, flat stretches, and neighbours whose slope overflows
        rng = np.random.default_rng(17)
        anchors = np.linspace(3.0, 103.0, 20)
        lanes = []
        for i in range(600):
            n = int(rng.integers(2, 40))
            y = np.unique(np.concatenate([
                rng.choice(anchors, int(rng.integers(0, 4))),
                rng.uniform(rng.uniform(-20.0, 60.0), rng.uniform(60.0, 130.0), n),
                np.cumsum(rng.uniform(1e-9, 1e-6, int(rng.integers(0, 3)))) + 50.0]))
            x = rng.normal(0.0, 5.0, y.size) * 10.0 ** rng.integers(-3, 4)
            if i % 10 == 0:
                x[:] = x[0]
            if i % 7 == 0:
                k = int(rng.integers(0, y.size))
                x[k:] = rng.choice([-1.7e308, 1.7e308], y.size - k)
            lanes.append(Lane3D(points=np.stack([x, y, rng.normal(0.0, 1.0, y.size)], 1),
                                visibility=np.ones(y.size)))
        pts = np.concatenate([lane.points for lane in lanes])
        starts = np.cumsum([0] + [len(lane.points) for lane in lanes])
        got = geometry._resample_lanes_at_y(pts[:, 1], pts[:, 0], pts[:, 2],
                                            starts, anchors)
        for i, lane in enumerate(lanes):
            want = oracles.resample_at_y(lane, anchors)
            assert all(w.tobytes() == g[i].tobytes() for w, g in zip(want, got)), i

    def test_one_lane_equals_np_interp_at_anchors_in_any_order(self):
        # partly visible lanes; anchors shuffled, repeated, on points, NaN,
        # and as a scalar or a 2-D array
        rng = np.random.default_rng(23)
        for _ in range(200):
            y = np.cumsum(rng.uniform(0.1, 10.0, int(rng.integers(2, 30))))
            vis = np.ones(y.size)
            vis[rng.random(y.size) < 0.2] = 0.0
            vis[[0, -1]] = 1.0
            lane = Lane3D(points=np.stack([rng.normal(0.0, 3.0, y.size), y,
                                           rng.normal(0.0, 1.0, y.size)], 1),
                          visibility=vis)
            anchors = np.concatenate([rng.uniform(-10.0, y[-1] + 10.0, 12),
                                      rng.choice(y, 3), [y[0]] * 2, [np.nan]])
            rng.shuffle(anchors)
            for shaped in (anchors, anchors.reshape(3, 6), anchors[0]):
                got = resample_at_y(lane, shaped)
                want = oracles.resample_at_y(lane, shaped)
                for g, w in zip(got, want):
                    assert np.shape(g) == np.shape(w)
                    assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestLaneValidation:
    def test_y_must_increase(self):
        with pytest.raises(ValueError):
            Lane3D(points=np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
                   visibility=np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_visibility_range(self, bad):
        with pytest.raises(ValueError):
            Lane3D(points=np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]),
                   visibility=np.array([1.0, bad]))

    def test_visibility_length(self):
        with pytest.raises(ValueError):
            Lane3D(points=np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]),
                   visibility=np.ones(3))

    def test_score_range(self):
        with pytest.raises(ValueError):
            Lane3D(points=np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]),
                   visibility=np.ones(2), score=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_points_must_be_finite(self, bad, column):
        pts = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
        pts[2, column] = bad
        with pytest.raises(ValueError):
            Lane3D(points=pts, visibility=np.ones(3))


class TestFitCurves:
    IMAGE = (720, 960)

    @staticmethod
    def synth_frame(rho, betas, rows):
        """Sample exact curve points for each (beta', beta'') pair."""
        lanes = []
        for bp, bpp in betas:
            den = rows - rho[1]
            u = rho[0] / den**2 + rho[2] / den + rho[3] + bp * rows + bpp
            lanes.append(np.stack([u, rows], axis=1))
        return lanes

    def test_round_trip_recovery(self):
        rho = (1e5, 250.0, 2000.0, 0.0)
        betas = [(0.05, 300.0), (-0.1, 500.0), (0.2, 150.0)]
        rows = np.linspace(320.0, 700.0, 24)
        lanes = self.synth_frame(rho, betas, rows)
        fit = fit_curves(lanes, self.IMAGE)
        assert fit.rms < 1e-6
        for curve, (bp, bpp) in zip(fit.curves, betas):
            assert curve.beta_prime == pytest.approx(bp, abs=1e-6)
            assert curve.beta_dprime == pytest.approx(bpp, abs=1e-6)
            assert curve.v_low == 320.0 and curve.v_up == 700.0

    def test_poly3_round_trip(self):
        rows = np.linspace(100.0, 700.0, 15)
        lanes = []
        for bp, bpp in [(0.1, 50.0), (-0.2, 400.0)]:
            u = 1e-6 * rows**3 - 5e-4 * rows**2 + bp * rows + bpp
            lanes.append(np.stack([u, rows], axis=1))
        fit = fit_curves(lanes, self.IMAGE, form="poly3")
        assert fit.rms < 1e-6
        assert fit.curves[0].beta_prime == pytest.approx(0.1, abs=1e-6)
        assert fit.curves[1].beta_dprime == pytest.approx(400.0, abs=1e-6)

    def test_single_vertical_lane(self):
        rows = np.linspace(300.0, 700.0, 12)
        lane = np.stack([np.full(12, 333.0), rows], axis=1)
        fit = fit_curves([lane], self.IMAGE)
        curve = fit.curves[0]
        assert abs(curve.beta_prime) < 1e-6
        assert curve.beta_dprime == pytest.approx(333.0, abs=1e-4)
        assert fit.rms < 1e-6

    def test_three_point_lane_underdetermined(self):
        lane = np.array([[100.0, 300.0], [110.0, 400.0], [120.0, 500.0]])
        with pytest.raises(Underdetermined):
            fit_curves([lane], self.IMAGE)

    def test_residual_history_non_increasing(self):
        rng = np.random.default_rng(11)
        rows = np.linspace(320.0, 700.0, 20)
        lanes = self.synth_frame((5e4, 260.0, -800.0, 0.0),
                                 [(0.0, 400.0), (0.1, 200.0)], rows)
        for lane in lanes:  # perturb so the fit cannot be exact
            lane[:, 0] += rng.normal(0.0, 2.0, lane.shape[0])
        fit = fit_curves(lanes, self.IMAGE)
        hist = fit.rms_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_points_outside_image_rejected(self):
        lane = np.array([[1000.0, 300.0], [1000.0, 400.0],
                         [1000.0, 500.0], [1000.0, 600.0]])
        with pytest.raises(ValueError):
            fit_curves([lane], self.IMAGE)


# ---------------------------------------------------------------------------
# variable-projection fit against the least-squares search it replaced
# ---------------------------------------------------------------------------

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def lstsq_fit(lanes_2d, n_iter=10):
    """Rational fit as computed before variable projection: the same
    bracket and golden-section schedule, with every rho2 candidate scored
    by a full least-squares solve (95 per fit).  Returns (rms, rho2, x)
    with x = (rho1, rho3, beta'_0, beta''_0, ...)."""
    lanes = [np.asarray(l, dtype=np.float64) for l in lanes_2d]
    u = np.concatenate([l[:, 0] for l in lanes])
    v = np.concatenate([l[:, 1] for l in lanes])
    lane_of = np.concatenate([np.full(len(l), i) for i, l in enumerate(lanes)])
    bias = np.zeros((len(u), 2 * len(lanes)))
    bias[np.arange(len(u)), 2 * lane_of] = v
    bias[np.arange(len(u)), 2 * lane_of + 1] = 1.0
    best = [math.inf, None, None]

    def f(rho2):
        den = v - rho2
        a = np.column_stack([1.0 / (den * den), 1.0 / den, bias])
        scale = np.sqrt((a * a).sum(axis=0))
        scale[scale == 0.0] = 1.0
        x = np.linalg.lstsq(a / scale, u, rcond=None)[0] / scale
        r = a @ x - u
        ss = float(r @ r)
        if ss < best[0]:
            best[:] = [ss, rho2, x]
        return ss

    vmin = float(v.min())
    span = max(float(v.max()) - vmin, 32.0)
    grid = np.linspace(vmin - 5.0 * span, vmin - max(1.0, 1e-3 * span), 33)
    i0 = int(np.argmin([f(r2) for r2 in grid]))
    a, b = grid[max(i0 - 1, 0)], grid[min(i0 + 1, 32)]
    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(6 * n_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    ss, rho2, x = best
    return math.sqrt(ss / len(u)), rho2, x


def random_fit_frame(rng, noise):
    """1-5 lanes of a random shared rational curve, 5-24 rows each."""
    r1, r2, r3 = (rng.uniform(1e3, 1e5), rng.uniform(150.0, 330.0),
                  rng.uniform(-3000.0, 3000.0))
    lanes = []
    for _ in range(int(rng.integers(1, 6))):
        rows = np.sort(rng.uniform(rng.uniform(r2 + 20.0, 600.0), 719.0,
                                   int(rng.integers(5, 25))))
        den = rows - r2
        u = (r1 / den**2 + r3 / den + rng.uniform(-0.5, 0.5) * rows
             + rng.uniform(100.0, 800.0) + rng.normal(0.0, noise, len(rows)))
        lanes.append(np.stack([np.clip(u, 0.0, 959.0), rows], axis=1))
    return lanes


def straight_fit_frame(rng):
    """1-5 exactly straight lanes: u is linear in v on every lane."""
    lanes = []
    for _ in range(int(rng.integers(1, 6))):
        rows = np.arange(rng.integers(300, 500), 720, rng.integers(5, 40),
                         dtype=np.float64)
        u = rng.uniform(200.0, 700.0) + rng.uniform(-0.3, 0.3) * (rows - 300)
        lanes.append(np.stack([u, rows], axis=1))
    return lanes


def assert_fit_matches_oracle(lanes):
    fit = fit_curves(lanes, TestFitCurves.IMAGE)
    rms, rho2, x = lstsq_fit(lanes)
    assert fit.rms <= rms * (1.0 + 1e-9) + 1e-9
    for i, curve in enumerate(fit.curves):
        rows = np.arange(math.ceil(curve.v_low), math.floor(curve.v_up) + 1.0)
        rows = np.concatenate([rows, [curve.v_low, curve.v_up]])
        den = rows - rho2
        want = (x[0] / den**2 + x[1] / den + x[2 + 2 * i] * rows
                + x[3 + 2 * i])
        assert np.abs(curve_eval(curve, rows) - want).max() <= 1e-3


class TestFitOracle:
    @pytest.mark.parametrize("noise", [0.0, 0.05, 1.0, 4.0])
    def test_random_frames(self, noise):
        rng = np.random.default_rng([61, int(noise * 100)])
        for _ in range(40):
            assert_fit_matches_oracle(random_fit_frame(rng, noise))

    def test_straight_lane_frames(self):
        # rho2 is decided by roundoff alone here, so only the fits compare
        rng = np.random.default_rng(67)
        for _ in range(60):
            assert_fit_matches_oracle(straight_fit_frame(rng))

    def test_projected_straight_lanes(self, pitched_camera):
        for xs in ([-1.85, 1.85], [-5.5, -1.85, 1.85, 5.5], [0.3]):
            lanes = [project_ground_to_image(
                pitched_camera, straight_lane(x, 10.0, 103.0, 20).points)
                for x in xs]
            lanes = [uv[(uv[:, 0] >= 0) & (uv[:, 0] < 960)] for uv in lanes]
            assert_fit_matches_oracle(lanes)


def count_solves(monkeypatch):
    """Record the candidate count of each scoring call."""
    calls = []
    real = geometry._score_candidates

    def counted(fits, cols):
        calls.append(cols.shape[1])  # (column, candidate, point)
        return real(fits, cols)

    monkeypatch.setattr(geometry, "_score_candidates", counted)
    return calls


class TestFitSolves:
    IMAGE = (720, 960)

    @pytest.mark.parametrize("form", ["rational", "poly3"])
    def test_one_scoring_call_per_search_step(self, monkeypatch, form):
        rng = np.random.default_rng(71)
        lanes = random_fit_frame(rng, 1.0)
        calls = count_solves(monkeypatch)
        fit_curves(lanes, self.IMAGE, form=form)
        # one scoring call per search step; the best step's coefficients
        # are the fit's, with no solve after the search
        assert len(calls) == (62 if form == "rational" else 1)

    def test_dependent_columns_drop_out(self):
        # two rows per lane: the per-lane [v, 1] columns span every
        # function of v, so both rational columns reduce to zero
        lanes = [np.array([[300.0, 400.0], [302.0, 400.0],
                           [340.0, 500.0], [338.0, 500.0]]),
                 np.array([[600.0, 450.0], [604.0, 450.0],
                           [650.0, 650.0], [651.0, 650.0]])]
        fit = fit_curves(lanes, self.IMAGE)
        rms, rho2, x = lstsq_fit(lanes)
        assert fit.rms == pytest.approx(rms, rel=1e-12, abs=1e-12)
        # every candidate ties: both rational columns drop out, and each
        # lane's biases meet its two row means
        for i, (curve, lane) in enumerate(zip(fit.curves, lanes)):
            assert curve.rho[0] == curve.rho[2] == 0.0
            rows = lane[:, 1]
            den = rows - rho2
            want = (x[0] / den**2 + x[1] / den + x[2 + 2 * i] * rows
                    + x[3 + 2 * i])
            np.testing.assert_allclose(curve_eval(curve, rows), want,
                                       rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_point_rejected_before_solving(self, monkeypatch,
                                                      bad, column):
        lanes = random_fit_frame(np.random.default_rng(73), 0.5)
        lanes[-1][2, column] = bad
        calls = count_solves(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            fit_curves(lanes, self.IMAGE)
        assert calls == []

    @pytest.mark.parametrize("form", ["rational", "poly3"])
    def test_single_row_lane_underdetermined(self, monkeypatch, form):
        lanes = [np.array([[100.0, 300.0], [110.0, 400.0], [120.0, 500.0],
                           [130.0, 600.0]]),
                 np.array([[400.0, 500.0], [410.0, 500.0], [420.0, 500.0],
                           [430.0, 500.0], [440.0, 500.0]])]
        calls = count_solves(monkeypatch)
        with pytest.raises(Underdetermined, match="lane 1"):
            fit_curves(lanes, self.IMAGE, form=form)
        assert calls == []


# ---------------------------------------------------------------------------
# frames fitted together
# ---------------------------------------------------------------------------


def mixed_batch():
    """Frames of several (point count, lane count) groups and two image
    sizes: random frames, noisy copies sharing their shapes, one frame
    that fits only the wider image, and the two-row dependent-column frame
    of TestFitSolves among independent fits of its shape."""
    rng = np.random.default_rng(79)
    frames = []
    for t in range(8):
        lanes = random_fit_frame(rng, 1.0)
        frames.append((lanes, (720, 960)))
        if t % 2:
            copy = [np.column_stack([np.clip(l[:, 0] + rng.normal(0.0, 2.0, len(l)),
                                             0.0, 959.0), l[:, 1]])
                    for l in lanes]
            frames.append((copy, (1080, 1920)))
    wide = [l * [1.5, 1.0] for l in random_fit_frame(rng, 0.5)]
    frames.append((wide, (1080, 1920)))
    frames.append(([np.array([[300.0, 400.0], [302.0, 400.0],
                              [340.0, 500.0], [338.0, 500.0]]),
                    np.array([[600.0, 450.0], [604.0, 450.0],
                              [650.0, 650.0], [651.0, 650.0]])], (720, 960)))
    for _ in range(2):
        frames.append(([np.column_stack([rng.uniform(100.0, 800.0, 4),
                                         np.sort(rng.uniform(400.0, 700.0, 4))])
                        for _ in range(2)], (720, 960)))
    return frames


def fit_shape(frame):
    lanes, _ = frame
    return sum(len(l) for l in lanes), len(lanes)


def fit_fields(fit):
    return (fit.rms, fit.lane_rms, fit.rms_history,
            [(c.rho, c.beta_prime, c.beta_dprime, c.v_low, c.v_up, c.form)
             for c in fit.curves])


class TestFitFrames:
    def test_batch_has_shared_and_single_groups(self):
        shapes = Counter(fit_shape(frame) for frame in mixed_batch())
        assert len(shapes) >= 5 and max(shapes.values()) >= 3
        assert (8, 2) in shapes and shapes[(8, 2)] == 3

    @pytest.mark.parametrize("form", ["rational", "poly3"])
    def test_batch_composition_does_not_matter(self, form):
        frames = mixed_batch()
        batch = geometry.fit_frames(frames, form=form)
        backwards = geometry.fit_frames(frames[::-1], form=form)[::-1]
        assert len(batch) == len(frames)
        for frame, fit, back in zip(frames, batch, backwards):
            alone = fit_fields(geometry.fit_frames([frame], form=form)[0])
            assert fit_fields(fit) == alone == fit_fields(back)

    @pytest.mark.parametrize("form", ["rational", "poly3"])
    def test_no_frames_fit_to_nothing(self, form):
        assert geometry.fit_frames([], form=form) == []

    def test_fit_curves_is_a_batch_of_one(self):
        lanes, size = mixed_batch()[0]
        assert (fit_fields(fit_curves(lanes, size))
                == fit_fields(geometry.fit_frames([(lanes, size)])[0]))

    def test_one_scoring_call_per_step_for_all_groups(self, monkeypatch):
        # 62 calls whatever the frames' shapes: every fit's candidates of
        # a step are scored together
        calls = count_solves(monkeypatch)
        geometry.fit_frames(mixed_batch())
        assert Counter(calls) == {
            33: 1,  # the grid
            2: 1,  # the first golden-section pair
            1: 60,  # 10 rounds of 6 steps
        }

    @pytest.mark.parametrize("spoil, error, words", [
        (lambda lane: lane[:3], Underdetermined, "points; need >= 4"),
        (lambda lane: lane * [np.nan, 1.0], ValueError, "non-finite"),
        (lambda lane: lane + [2000.0, 0.0], ValueError, "inside the image"),
    ])
    def test_first_invalid_frame_fails_the_call_before_any_fit(
            self, monkeypatch, spoil, error, words):
        frames = mixed_batch()
        lanes, size = frames[4]
        bad = (lanes[:-1] + [spoil(lanes[-1])], size)
        later = ([np.array([[100.0, 300.0], [110.0, 400.0]])], (720, 960))
        frames[4:5] = [bad, later]
        with pytest.raises(error) as alone:
            fit_curves(*bad)
        calls = count_solves(monkeypatch)
        with pytest.raises(error, match=words) as batch:
            geometry.fit_frames(frames)
        assert str(batch.value) == str(alone.value)
        assert calls == []
