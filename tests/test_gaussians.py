"""Tests for segment Gaussians and the closed-form KL divergence."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from lane3d.errors import NumericallySingular, ZeroLengthSegment
from lane3d.gaussians import (
    MIN_SCALE,
    SegmentGaussian,
    _kld_terms,
    _rotations,
    covariance,
    kld,
    kld_components,
    paired_segment_gaussians,
    rotation_matrix,
    segment_gaussian,
    segment_params,
    segment_symmetric_klds,
    symmetric_kld,
)


def random_gaussian(rng, spread=5.0):
    mu = rng.normal(0.0, spread, 3)
    return SegmentGaussian(
        mu=tuple(mu),
        lambda_l=rng.uniform(0.5, 8.0),
        lambda_w=rng.uniform(0.05, 1.0),
        lambda_h=rng.uniform(0.05, 1.0),
        theta_x=rng.uniform(-1.2, 1.2),
        theta_z=rng.uniform(-math.pi, math.pi),
    )


class TestSegmentParams:
    def test_forward_axis_segment(self):
        mu, length, tx, tz = segment_params((0, 0, 0), (0, 5, 0))
        assert np.allclose(mu, [0, 2.5, 0])
        assert length == 5.0
        assert tx == 0.0
        assert tz == pytest.approx(math.pi / 2)

    def test_diagonal_segment(self):
        mu, length, tx, tz = segment_params(
            (1, 1, 1), (2, 2, 1 + math.sqrt(2))
        )
        assert length == pytest.approx(2.0, abs=1e-12)
        assert tx == pytest.approx(math.pi / 4, abs=1e-12)
        assert tz == pytest.approx(math.pi / 4, abs=1e-12)
        assert np.allclose(mu, [1.5, 1.5, 1 + math.sqrt(2) / 2])

    def test_lateral_axis_segment(self):
        _, length, tx, tz = segment_params((0, 0, 0), (1, 0, 0))
        assert (length, tx, tz) == (1.0, 0.0, 0.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ZeroLengthSegment):
            segment_params((1, 2, 3), (1, 2, 3))
        with pytest.raises(ZeroLengthSegment):
            segment_params((0, 0, 0), (0, 0, 1e-10))

    def test_midpoint_is_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=3), rng.normal(size=3) + [0, 4, 0]
        mu1, l1, tx1, tz1 = segment_params(a, b)
        mu2, l2, tx2, tz2 = segment_params(b, a)
        assert np.array_equal(mu1, mu2)
        assert l1 == l2
        # Reversing flips the direction: pitch negates, yaw flips by pi.
        assert tx2 == pytest.approx(-tx1, abs=1e-15)


class TestSegmentGaussianType:
    def test_positive_scales_required(self):
        with pytest.raises(ValueError):
            SegmentGaussian((0, 0, 0), 0.0, 0.1, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            SegmentGaussian((0, 0, 0), 1.0, -0.1, 0.1, 0.0, 0.0)

    def test_pitch_domain(self):
        with pytest.raises(ValueError):
            SegmentGaussian((0, 0, 0), 1.0, 0.1, 0.1, math.pi / 2, 0.0)

    def test_yaw_wraps(self):
        g = SegmentGaussian((0, 0, 0), 1.0, 0.1, 0.1, 0.0, 3 * math.pi)
        assert g.theta_z == pytest.approx(math.pi)
        assert -math.pi < g.theta_z <= math.pi

    def test_vertical_segment_out_of_domain(self):
        with pytest.raises(ValueError):
            segment_gaussian((0, 0, 0), (0, 0, 1), 0.1, 0.1)


class TestRotationMatrix:
    def test_zero_angles_identity(self):
        assert np.allclose(rotation_matrix(0.0, 0.0), np.eye(3))

    def test_pure_yaw_quarter_turn(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        assert np.allclose(
            rotation_matrix(0.0, math.pi / 2), expected, atol=1e-15
        )

    def test_matches_elementary_product(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            tx = rng.uniform(-1.5, 1.5)
            tz = rng.uniform(-math.pi, math.pi)
            cx, sx = math.cos(tx), math.sin(tx)
            cz, sz = math.cos(tz), math.sin(tz)
            rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
            rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
            r = rotation_matrix(tx, tz)
            assert np.allclose(r, rz @ rx, atol=1e-15)

    def test_orthogonality_and_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            r = rotation_matrix(
                rng.uniform(-1.5, 1.5), rng.uniform(-math.pi, math.pi)
            )
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_first_column_is_horizontal_heading(self):
        # The reference parameterization ignores pitch in the length axis.
        r = rotation_matrix(0.7, 0.3)
        assert np.allclose(r[:, 0], [math.cos(0.3), math.sin(0.3), 0.0])


class TestCovariance:
    def test_unrotated_diagonal(self):
        g = SegmentGaussian((0, 0, 0), 2.0, 1.0, 0.5, 0.0, 0.0)
        assert np.allclose(covariance(g), np.diag([1.0, 0.25, 0.0625]))

    def test_pure_yaw_swaps_planar_axes(self):
        g = SegmentGaussian((0, 0, 0), 2.0, 1.0, 0.5, 0.0, math.pi / 2)
        assert np.allclose(
            covariance(g), np.diag([0.25, 1.0, 0.0625]), atol=1e-15
        )

    def test_eigenvalues_are_squared_half_scales(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_gaussian(rng)
            sigma = covariance(g)
            assert np.allclose(sigma, sigma.T, atol=1e-12)
            eig = np.sort(np.linalg.eigvalsh(sigma))
            expected = np.sort(
                [
                    (g.lambda_l / 2) ** 2,
                    (g.lambda_w / 2) ** 2,
                    (g.lambda_h / 2) ** 2,
                ]
            )
            assert np.abs(eig - expected).max() < 1e-9


class TestKld:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = random_gaussian(rng)
            assert kld(g, g) <= 1e-9
            assert kld(g, g) >= 0.0

    def test_isotropic_shift(self):
        # lambda = 2 on every axis gives unit covariance; a mean shift d
        # then contributes exactly d^2 / 2.
        for axis in range(3):
            for d in (0.5, 1.0, 2.0):
                mu = [0.0, 0.0, 0.0]
                mu[axis] = d
                a = SegmentGaussian((0, 0, 0), 2.0, 2.0, 2.0, 0.0, 0.0)
                b = SegmentGaussian(tuple(mu), 2.0, 2.0, 2.0, 0.0, 0.0)
                assert kld(a, b) == pytest.approx(d * d / 2, abs=1e-12)
                assert kld(b, a) == pytest.approx(d * d / 2, abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a, b = random_gaussian(rng), random_gaussian(rng)
            assert kld(a, b) >= 0.0

    def test_matches_dense_formula(self):
        # Independent check against the textbook expression computed with
        # general-purpose linear algebra on the dense covariances.
        rng = np.random.default_rng(19)
        for _ in range(100):
            a, b = random_gaussian(rng), random_gaussian(rng)
            sa, sb = covariance(a), covariance(b)
            inv_b = np.linalg.inv(sb)
            d = b.mu_array - a.mu_array
            dense = 0.5 * (
                np.trace(inv_b @ sa)
                + d @ inv_b @ d
                - 3.0
                + math.log(np.linalg.det(sb) / np.linalg.det(sa))
            )
            assert kld(a, b) == pytest.approx(dense, rel=1e-9, abs=1e-9)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 10:
            a, b = random_gaussian(rng, spread=1.0), random_gaussian(
                rng, spread=1.0
            )
            closed = kld(a, b)
            if not 0.5 <= closed <= 30.0:
                continue
            samples = rng.multivariate_normal(
                a.mu_array, covariance(a), size=200_000
            )
            log_a = multivariate_normal(a.mu_array, covariance(a)).logpdf(
                samples
            )
            log_b = multivariate_normal(b.mu_array, covariance(b)).logpdf(
                samples
            )
            estimate = float(np.mean(log_a - log_b))
            assert closed == pytest.approx(estimate, rel=0.05)
            checked += 1

    def test_conditioning_guard(self):
        good = SegmentGaussian((0, 0, 0), 1.0, 0.1, 0.1, 0.0, 0.0)
        bad = SegmentGaussian((0, 0, 0), 1.0, 1e-7, 0.1, 0.0, 0.0)
        with pytest.raises(NumericallySingular):
            kld(good, bad)
        with pytest.raises(NumericallySingular):
            kld(bad, good)

    def test_components_sum_to_double_kld(self):
        rng = np.random.default_rng(29)
        a, b = random_gaussian(rng), random_gaussian(rng)
        parts = kld_components(a, b)
        total = 0.5 * (parts["trace"] + parts["shift"] + parts["logdet"])
        assert kld(a, b) == pytest.approx(total, abs=1e-12)


class TestSymmetricKld:
    def test_identical_is_zero(self):
        g = SegmentGaussian((1, 2, 0), 3.0, 0.2, 0.1, 0.1, 0.5)
        assert symmetric_kld(g, g) <= 1e-9

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a, b = random_gaussian(rng), random_gaussian(rng)
            assert symmetric_kld(a, b) == symmetric_kld(b, a)

    def test_isotropic_shift(self):
        a = SegmentGaussian((0, 0, 0), 2.0, 2.0, 2.0, 0.0, 0.0)
        b = SegmentGaussian((1.5, 0, 0), 2.0, 2.0, 2.0, 0.0, 0.0)
        assert symmetric_kld(a, b) == pytest.approx(1.5**2 / 2, abs=1e-12)

    def test_invariant_under_yaw_and_translation(self):
        # The parameterization carries no roll, so the supported common
        # rigid transforms are ground-plane ones: yaw plus translation.
        rng = np.random.default_rng(37)
        for _ in range(100):
            pa = rng.normal(0, 5, 3)
            pb = pa + rng.normal(0, 2, 3) + np.array([0, 3, 0])
            ga = pa + rng.normal(0, 0.3, 3)
            gb = pb + rng.normal(0, 0.3, 3)
            pred, gt = paired_segment_gaussians(pa, pb, ga, gb, 0.3, 0.2)
            base = symmetric_kld(pred, gt)

            angle = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(angle), math.sin(angle)
            q = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            t = rng.normal(0, 10, 3)
            pred2, gt2 = paired_segment_gaussians(
                q @ pa + t, q @ pb + t, q @ ga + t, q @ gb + t, 0.3, 0.2
            )
            moved = symmetric_kld(pred2, gt2)
            assert moved == pytest.approx(base, abs=1e-9, rel=1e-9)


class TestPairedSegmentGaussians:
    def test_shared_uncertainties(self):
        pred, gt = paired_segment_gaussians(
            (0, 0, 0), (0, 5, 0), (0.1, 0, 0), (0.1, 5, 0), 0.4, 0.25
        )
        assert pred.lambda_w == gt.lambda_w == 0.4
        assert pred.lambda_h == gt.lambda_h == 0.25

    def test_equal_segments_give_zero(self):
        for lw, lh in [(0.1, 0.1), (0.5, 0.2), (2.0, 1.0)]:
            pred, gt = paired_segment_gaussians(
                (0, 0, 0), (1, 5, 0.2), (0, 0, 0), (1, 5, 0.2), lw, lh
            )
            assert symmetric_kld(pred, gt) <= 1e-9

    def test_wider_lateral_uncertainty_shrinks_divergence(self):
        # A fixed 0.2 m lateral offset matters less when the predicted
        # lateral width doubles.
        base_pred, base_gt = paired_segment_gaussians(
            (0.2, 0, 0), (0.2, 5, 0), (0, 0, 0), (0, 5, 0), 0.3, 0.2
        )
        wide_pred, wide_gt = paired_segment_gaussians(
            (0.2, 0, 0), (0.2, 5, 0), (0, 0, 0), (0, 5, 0), 0.6, 0.2
        )
        assert symmetric_kld(wide_pred, wide_gt) < symmetric_kld(
            base_pred, base_gt
        )

    def test_shift_term_decreases_with_width(self):
        # Finite-difference sign check on the mean-shift term alone.
        widths = [0.2, 0.3, 0.5, 0.9]
        shifts = []
        for w in widths:
            pred, gt = paired_segment_gaussians(
                (0.2, 0, 0), (0.2, 5, 0), (0, 0, 0), (0, 5, 0), w, 0.2
            )
            shifts.append(kld_components(pred, gt)["shift"])
        assert all(s1 > s2 for s1, s2 in zip(shifts, shifts[1:]))

    def test_vertical_width_guard(self):
        with pytest.raises(NumericallySingular):
            paired_segment_gaussians(
                (0, 0, 0), (0, 5, 0), (0, 0, 0), (0, 5, 0), 0.3, 1e-7
            )

    def test_zero_length_propagates(self):
        with pytest.raises(ZeroLengthSegment):
            paired_segment_gaussians(
                (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 5, 0), 0.3, 0.2
            )


# ---------------------------------------------------------------------------
# batched kernel against the per-pair code it replaced
# ---------------------------------------------------------------------------


def scalar_rotation(theta_x, theta_z):
    cx, sx = math.cos(theta_x), math.sin(theta_x)
    cz, sz = math.cos(theta_z), math.sin(theta_z)
    return np.array([[cz, -sz * cx, sz * sx],
                     [sz, cz * cx, -cz * sx],
                     [0.0, sx, cx]])


def scalar_check_conditioning(seg):
    if min(seg.lambda_l, seg.lambda_w, seg.lambda_h) < MIN_SCALE:
        raise NumericallySingular(
            "segment Gaussian has an axis below the "
            f"{MIN_SCALE} m floor: ({seg.lambda_l}, {seg.lambda_w}, "
            f"{seg.lambda_h})"
        )


def scalar_kld_components(a, b):
    """The per-pair KL terms as computed before the batched kernel."""
    scalar_check_conditioning(a)
    scalar_check_conditioning(b)
    rot_a = scalar_rotation(a.theta_x, a.theta_z)
    rot_b = scalar_rotation(b.theta_x, b.theta_z)
    m = (rot_b.T @ rot_a * a.scales[None, :]) / b.scales[:, None]
    w = (rot_b.T @ (b.mu_array - a.mu_array)) / b.scales
    return {
        "trace": float((m * m).sum()) - 3.0,
        "shift": float(w @ w),
        "logdet": 2.0 * float(np.log(b.scales).sum() - np.log(a.scales).sum()),
    }


def scalar_symmetric_kld(a, b):
    def one(x, y):
        parts = scalar_kld_components(x, y)
        return max(0.5 * (parts["trace"] + parts["shift"] + parts["logdet"]),
                   0.0)
    return 0.5 * (one(a, b) + one(b, a))


def scalar_segment_gaussian(p_a, p_b, lambda_w, lambda_h):
    """``segment_gaussian`` with the scalar segment geometry it used
    before the batched kernel."""
    if lambda_w < MIN_SCALE or lambda_h < MIN_SCALE:
        raise NumericallySingular(
            f"uncertainty widths must be >= {MIN_SCALE} m, "
            f"got lambda_w={lambda_w!r}, lambda_h={lambda_h!r}"
        )
    a = np.asarray(p_a, dtype=float).reshape(3)
    b = np.asarray(p_b, dtype=float).reshape(3)
    delta = b - a
    length = float(np.linalg.norm(delta))
    if length < 1e-9:
        raise ZeroLengthSegment(
            f"segment endpoints coincide (length {length:.3e} m)"
        )
    return SegmentGaussian(
        mu=tuple((a + b) / 2.0),
        lambda_l=length,
        lambda_w=float(lambda_w),
        lambda_h=float(lambda_h),
        theta_x=math.atan2(delta[2], math.hypot(delta[0], delta[1])),
        theta_z=math.atan2(delta[1], delta[0]),
    )


def scalar_segment_klds(pred_a, pred_b, gt_a, gt_b, widths):
    """The per-segment loop ``loss_unc`` ran before the batched kernel."""
    out = []
    for pa, pb, ga, gb, (lw, lh) in zip(pred_a, pred_b, gt_a, gt_b, widths):
        pred = scalar_segment_gaussian(pa, pb, lw, lh)
        gt = scalar_segment_gaussian(ga, gb, lw, lh)
        out.append(scalar_symmetric_kld(pred, gt))
    return out


def random_segments(rng, m):
    pred_a = rng.normal(0.0, 5.0, (m, 3))
    pred_b = pred_a + rng.normal(0.0, 2.0, (m, 3)) + np.array([0.0, 3.0, 0.0])
    gt_a = pred_a + rng.normal(0.0, 0.3, (m, 3))
    gt_b = pred_b + rng.normal(0.0, 0.3, (m, 3))
    widths = rng.uniform(0.05, 1.0, (m, 2))
    return pred_a, pred_b, gt_a, gt_b, widths


class TestBatchedKernel:
    def test_terms_match_scalar_oracle(self):
        rng = np.random.default_rng(41)
        pairs = [(random_gaussian(rng), random_gaussian(rng))
                 for _ in range(1200)]

        def stacked(gs):
            return (np.array([g.mu for g in gs]),
                    np.array([g.scales for g in gs]),
                    _rotations(np.array([g.theta_x for g in gs]),
                               np.array([g.theta_z for g in gs])))

        terms = _kld_terms(*stacked([a for a, _ in pairs]),
                           *stacked([b for _, b in pairs]))
        for i, (a, b) in enumerate(pairs):
            want = scalar_kld_components(a, b)
            for name, got in zip(("trace", "shift", "logdet"), terms):
                assert abs(got[i] - want[name]) <= 1e-12 * abs(want[name]), \
                    (i, name)

    def test_wrappers_match_scalar_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a, b = random_gaussian(rng), random_gaussian(rng)
            want = scalar_kld_components(a, b)
            got = kld_components(a, b)
            for name in want:
                assert got[name] == pytest.approx(want[name], rel=1e-12)
            assert symmetric_kld(a, b) == pytest.approx(
                scalar_symmetric_kld(a, b), rel=1e-12)

    def test_segment_klds_match_per_segment_loop(self):
        rng = np.random.default_rng(47)
        segments = random_segments(rng, 1200)
        got = segment_symmetric_klds(*segments)
        want = scalar_segment_klds(*segments)
        assert got.shape == (1200,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_empty_batch(self):
        empty = np.zeros((0, 3))
        got = segment_symmetric_klds(empty, empty, empty, empty,
                                     np.zeros((0, 2)))
        assert got.shape == (0,)

    # (segment, field, value): one spoilt entry of a valid batch
    SPOILERS = [
        (0, "pred_b", (0.0, 0.0, 0.0)),  # zero-length prediction segment
        (3, "gt_b", None),  # zero-length ground-truth segment
        (2, "pred_b", (0.0, 0.0, 0.5)),  # vertical: pitch out of domain
        (4, "gt_b", (0.0, 0.0, -2.0)),  # vertical, pointing down
        (1, "pred_b", (0.0, 5e-7, 0.0)),  # shorter than the scale floor
        (5, "width", (1e-7, 0.2)),  # lateral width below the floor
        (5, "width", (0.2, 0.0)),  # vertical width below the floor
        (2, "width", (float("nan"), 0.2)),  # NaN width: not positive
        (2, "width", (0.2, float("inf"))),  # infinite width
    ]

    @pytest.mark.parametrize("seg, field, value", SPOILERS)
    def test_errors_match_per_segment_loop(self, seg, field, value):
        rng = np.random.default_rng(59)
        pred_a, pred_b, gt_a, gt_b, widths = random_segments(rng, 8)
        widths = [tuple(w) for w in widths]
        if field == "width":
            widths[seg] = value
            widths[seg + 1] = (1e-9, 1e-9)  # a later offender must not win
        elif field == "pred_b":
            pred_b[seg] = pred_a[seg] + value
            pred_b[seg + 2] = pred_a[seg + 2]
        else:
            gt_b[seg] = gt_a[seg] if value is None else gt_a[seg] + value
            pred_b[seg + 1] = pred_a[seg + 1]
        with pytest.raises(Exception) as want:
            scalar_segment_klds(pred_a, pred_b, gt_a, gt_b, widths)
        with pytest.raises(want.type) as got:
            segment_symmetric_klds(pred_a, pred_b, gt_a, gt_b, widths)
        assert got.type is want.type
        assert str(got.value) == str(want.value)
        assert want.type in (ZeroLengthSegment, NumericallySingular,
                             ValueError)

    def test_overflowing_divergence_is_numerically_singular(self):
        # A finite but huge width overflows the divergence: the first such
        # pair raises, in pair order with the other checks, and no
        # RuntimeWarning leaks (the test suite turns one into an error).
        rng = np.random.default_rng(61)
        pred_a, pred_b, gt_a, gt_b, widths = random_segments(rng, 6)
        widths = [tuple(w) for w in widths]
        widths[3] = (1e308, 0.2)
        widths[5] = (1e-9, 0.2)
        with pytest.raises(NumericallySingular, match="not finite") as got:
            segment_symmetric_klds(pred_a, pred_b, gt_a, gt_b, widths)
        assert "lambda_w=1e+308" in str(got.value)
        widths[1] = (1e-9, 0.2)  # an earlier offender wins
        with pytest.raises(NumericallySingular, match="uncertainty widths"):
            segment_symmetric_klds(pred_a, pred_b, gt_a, gt_b, widths)

    def test_kld_of_overflowing_scales_is_numerically_singular(self):
        a = SegmentGaussian(mu=(0.0, 0.0, 0.0), lambda_l=4.0, lambda_w=1e308,
                            lambda_h=0.2, theta_x=0.0, theta_z=0.3)
        b = SegmentGaussian(mu=(0.1, 0.0, 0.0), lambda_l=4.0, lambda_w=0.2,
                            lambda_h=0.2, theta_x=0.0, theta_z=0.0)
        with pytest.raises(NumericallySingular, match="not finite"):
            kld(a, b)
        assert math.isfinite(kld(b, a))  # the narrow one inside the wide
        with pytest.raises(NumericallySingular, match="not finite"):
            symmetric_kld(b, a)
