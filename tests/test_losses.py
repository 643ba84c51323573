"""Tests for matching costs and the reference loss terms."""

import math

import loss_oracle
import numpy as np
import pytest

from lane3d.errors import AnchorMismatch
from lane3d.gaussians import paired_segment_gaussians, symmetric_kld
from lane3d.geometry import CameraModel, Curve2D, Lane3D, SampleGrid, fit_curves
from lane3d.losses import (
    FrameGroundTruth,
    FramePrediction,
    LossConfig,
    curve_match_cost,
    loss_curve,
    loss_frames,
    loss_loc,
    loss_total,
    loss_unc,
    loss_vis,
)
from lane3d.matching import MatchResult, hungarian

GRID = SampleGrid(j_prime=20)


def const_curve(u, confidence=1.0, v_low=0.0, v_up=720.0):
    """Curve whose sampled column is the constant u at every row."""
    return Curve2D(
        rho=(0.0, 0.0, 0.0, 0.0),
        beta_prime=0.0,
        beta_dprime=float(u),
        v_low=v_low,
        v_up=v_up,
        confidence=confidence,
    )


def flat_lane(x, visibility=(1.0, 1.0), z=(0.0, 0.0), dx=(0.0, 0.0)):
    """Two-anchor lane at constant lateral offset x (plus per-anchor dx)."""
    points = np.array(
        [[x + dx[0], 5.0, z[0]], [x + dx[1], 10.0, z[1]]]
    )
    return Lane3D(points=points, visibility=np.array(visibility, dtype=float))


IDENTITY = MatchResult(pairs=((0, 0),), total_cost=0.0)


class TestCurveMatchCost:
    def test_identical_confident_curve_costs_zero(self, camera):
        cost = curve_match_cost(
            [const_curve(300)], [const_curve(300)], camera, GRID
        )
        assert cost.shape == (1, 1)
        assert cost[0, 0] == 0.0

    def test_column_shift_hand_value(self, camera):
        # 10-px lateral shift on a fully valid constant curve: the sampled
        # u-term charges weight 5 on each of the 20 rows.
        cost = curve_match_cost(
            [const_curve(300)], [const_curve(310)], camera, GRID
        )
        assert cost[0, 0] == pytest.approx(5 * 20 * 10, abs=1e-9)

    def test_extent_shift_hand_value(self, camera):
        # Moving v_up by 8 px without invalidating any sampled row
        # charges only the boundary weight: 2 * 8 = 16.
        cost = curve_match_cost(
            [const_curve(300, v_up=720.0)],
            [const_curve(300, v_up=712.0)],
            camera,
            GRID,
        )
        assert cost[0, 0] == pytest.approx(16.0, abs=1e-12)

    def test_one_shared_row_is_charged(self, camera):
        # rows 5-10 against rows 10-15: only row 10 (v = 378) is valid in
        # both curves, and there they differ by 0.15 px
        cost = curve_match_cost(
            [const_curve(300.0, v_low=180.0, v_up=378.0)],
            [const_curve(300.15, v_low=378.0, v_up=560.0)],
            camera,
            GRID,
        )
        extent = 2.0 * ((378.0 - 180.0) + (560.0 - 378.0))
        assert cost[0, 0] - extent == pytest.approx(5.0 * 0.15, rel=1e-9)

    def test_low_confidence_charges_gamma4(self, camera):
        cost = curve_match_cost(
            [const_curve(300)], [const_curve(300, confidence=0.25)], camera, GRID
        )
        assert cost[0, 0] == pytest.approx(3.0 * 0.75, abs=1e-12)

    def test_hungarian_recovers_identity_pairing(self, camera):
        gts = [const_curve(300), const_curve(500)]
        preds = [const_curve(500), const_curve(300)]  # listed swapped
        cost = curve_match_cost(gts, preds, camera, GRID)
        match = hungarian(cost)
        assert match.assignment == {0: 1, 1: 0}
        assert match.total_cost == 0.0

    def test_rows_are_ground_truths(self, camera):
        cost = curve_match_cost(
            [const_curve(300)],
            [const_curve(300), const_curve(400), const_curve(500)],
            camera,
            GRID,
        )
        assert cost.shape == (1, 3)

    def test_each_curve_sampled_once_per_frame(self, camera, monkeypatch):
        import lane3d.losses as losses

        sampled = []
        real = losses._sample_curves

        def counted(curves, *args):
            sampled.extend(curves)
            return real(curves, *args)

        monkeypatch.setattr(losses, "_sample_curves", counted)
        gt = FrameGroundTruth(
            lanes=[flat_lane(-2.0), flat_lane(2.0)],
            curves=[const_curve(300), const_curve(500)],
        )
        pred = FramePrediction(
            lanes=[flat_lane(-2.0), flat_lane(2.1), flat_lane(9.0)],
            curves=[const_curve(310), const_curve(480, confidence=0.5),
                    const_curve(700, confidence=0.2)],
        )
        breakdown = loss_total(gt, pred, camera, GRID)
        assert len(sampled) == 5
        assert len({id(c) for c in sampled}) == 5
        monkeypatch.undo()
        assert breakdown.loss_fit + breakdown.loss_ce == loss_curve(
            gt.curves, pred.curves, breakdown.match, camera, GRID)


class TestLossLoc:
    def test_perfect_prediction_is_zero(self):
        gt = [flat_lane(2.0)]
        pred = [flat_lane(2.0)]
        assert loss_loc(gt, pred, IDENTITY) == 0.0

    def test_hand_case_single_point(self):
        # One visible anchor off by |dx| = 0.1 and |dz| = 0.05 with the
        # default weights 2 and 10 gives exactly 0.7.  The lane sits at
        # x = 0 so the stored differences are exactly 0.1 and 0.05.
        gt = [flat_lane(0.0)]
        pred = [flat_lane(0.0, dx=(0.1, 0.0), z=(-0.05, 0.0))]
        got = loss_loc(gt, pred, IDENTITY)
        assert got == 2 * 0.1 + 10 * 0.05
        assert got == pytest.approx(0.7, abs=1e-15)

    def test_invisible_anchor_excluded(self):
        gt = [flat_lane(2.0, visibility=(0.0, 1.0))]
        pred = [flat_lane(2.0, dx=(5.0, 0.0), visibility=(0.0, 1.0))]
        assert loss_loc(gt, pred, IDENTITY) == 0.0

    def test_translation_covariance(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            base = rng.normal(0, 1, 2)
            gt = [flat_lane(2.0)]
            pred = [flat_lane(2.0, dx=(base[0], base[1]))]
            before = loss_loc(gt, pred, IDENTITY)
            shift = rng.normal(0, 5)
            gt2 = [flat_lane(2.0 + shift)]
            pred2 = [flat_lane(2.0 + shift, dx=(base[0], base[1]))]
            after = loss_loc(gt2, pred2, IDENTITY)
            assert after == pytest.approx(before, abs=1e-12)

    def test_anchor_count_mismatch_raises(self):
        gt = [flat_lane(2.0)]
        three = Lane3D(
            points=np.array([[2.0, 5.0, 0.0], [2.0, 8.0, 0.0], [2.0, 10.0, 0.0]]),
            visibility=np.ones(3),
        )
        with pytest.raises(AnchorMismatch):
            loss_loc(gt, [three], IDENTITY)

    def test_different_anchors_raise(self):
        gt = [flat_lane(2.0)]
        shifted = Lane3D(
            points=np.array([[2.0, 6.0, 0.0], [2.0, 11.0, 0.0]]),
            visibility=np.ones(2),
        )
        with pytest.raises(AnchorMismatch):
            loss_loc(gt, [shifted], IDENTITY)


class TestLossVis:
    def test_exact_labels_give_clamp_residue(self):
        gt = [flat_lane(2.0)]
        pred = [flat_lane(2.0)]
        assert loss_vis(gt, pred, IDENTITY) <= 1e-6

    def test_half_probability_gives_ln2(self):
        gt = [flat_lane(2.0)]
        pred = [flat_lane(2.0, visibility=(0.5, 0.5))]
        assert loss_vis(gt, pred, IDENTITY) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_point_nine_for_true_label(self):
        gt = [flat_lane(2.0)]
        pred = [flat_lane(2.0, visibility=(0.9, 0.9))]
        assert loss_vis(gt, pred, IDENTITY) == pytest.approx(
            -math.log(0.9), abs=1e-12
        )

    def test_mean_over_all_anchors(self):
        gt = [flat_lane(2.0)]
        pred = [flat_lane(2.0, visibility=(0.9, 1.0))]
        expected = (-math.log(0.9) - math.log(1 - 1e-7)) / 2
        assert loss_vis(gt, pred, IDENTITY) == pytest.approx(
            expected, abs=1e-12
        )

    def test_no_matches_is_zero(self):
        empty = MatchResult(pairs=(), total_cost=0.0)
        assert loss_vis([flat_lane(2.0)], [flat_lane(2.0)], empty) == 0.0


class TestLossUnc:
    def make_pred(self, dx=0.0, widths=(0.1, 0.1)):
        lanes = [flat_lane(2.0, dx=(dx, dx))]
        curves = [const_curve(300)]
        return FramePrediction(
            lanes=lanes, curves=curves, uncertainties=[[widths]]
        )

    def test_perfect_geometry_is_zero(self):
        gt = [flat_lane(2.0)]
        for widths in [(0.1, 0.1), (0.5, 0.2), (2.0, 1.0)]:
            pred = self.make_pred(widths=widths)
            assert loss_unc(gt, pred, IDENTITY) <= 1e-9

    def test_matches_standalone_divergence(self):
        gt = [flat_lane(2.0)]
        pred = self.make_pred(dx=0.2)
        got = loss_unc(gt, pred, IDENTITY)
        pg, gg = paired_segment_gaussians(
            pred.lanes[0].points[0],
            pred.lanes[0].points[1],
            gt[0].points[0],
            gt[0].points[1],
            0.1,
            0.1,
        )
        assert got == symmetric_kld(pg, gg)
        assert got > 0.0

    def test_frame_is_one_batch_without_segment_objects(self, monkeypatch):
        import lane3d.gaussians as gaussians
        import lane3d.losses as losses

        batches = []
        real = losses.segment_symmetric_klds

        def counted(*args, **kwargs):
            batches.append(len(args[0]))
            return real(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-segment SegmentGaussian was built")

        monkeypatch.setattr(losses, "segment_symmetric_klds", counted)
        monkeypatch.setattr(gaussians, "SegmentGaussian", forbidden)
        gt = [flat_lane(-2.0), flat_lane(2.0, visibility=(1.0, 0.0)),
              flat_lane(6.0)]
        pred = FramePrediction(
            lanes=[flat_lane(-2.0, dx=(0.1, 0.2)), flat_lane(2.0, dx=(0.3, 0)),
                   flat_lane(6.0, dx=(0.0, -0.1))],
            curves=[const_curve(100), const_curve(300), const_curve(500)],
            uncertainties=[[(0.2, 0.1)]] * 3,
        )
        match = MatchResult(pairs=((0, 0), (1, 1), (2, 2)), total_cost=0.0)
        got = loss_unc(gt, pred, match)
        monkeypatch.undo()
        assert batches == [2]  # the segment with an invisible end is out
        want = math.fsum(
            symmetric_kld(*paired_segment_gaussians(
                p.points[0], p.points[1], g.points[0], g.points[1], 0.2, 0.1))
            for g, p in ((gt[0], pred.lanes[0]), (gt[2], pred.lanes[2]))
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_invisible_endpoint_drops_segment(self):
        gt = [flat_lane(2.0, visibility=(1.0, 0.0))]
        pred = self.make_pred(dx=0.2)
        assert loss_unc(gt, pred, IDENTITY) == 0.0

    def test_missing_uncertainties_rejected(self):
        gt = [flat_lane(2.0)]
        pred = FramePrediction(
            lanes=[flat_lane(2.0)], curves=[const_curve(300)]
        )
        with pytest.raises(ValueError):
            loss_unc(gt, pred, IDENTITY)

    def test_uncertainty_length_validated(self):
        with pytest.raises(ValueError):
            FramePrediction(
                lanes=[flat_lane(2.0)],
                curves=[const_curve(300)],
                uncertainties=[[(0.1, 0.1), (0.1, 0.1)]],
            )


class TestLossCurve:
    def test_perfect_curves(self, camera):
        match = MatchResult(pairs=((0, 0),), total_cost=0.0)
        got = loss_curve(
            [const_curve(300)], [const_curve(300)], match, camera, GRID
        )
        assert got <= 1e-5  # clamp residue on the hard label only

    def test_background_with_zero_confidence_is_free(self, camera):
        match = MatchResult(pairs=(), total_cost=0.0)
        got = loss_curve(
            [], [const_curve(300, confidence=0.0)], match, camera, GRID
        )
        assert got <= 1e-5

    def test_unmatched_confident_prediction_charged(self, camera):
        match = MatchResult(pairs=(), total_cost=0.0)
        got = loss_curve(
            [], [const_curve(300, confidence=0.9)], match, camera, GRID
        )
        assert got == pytest.approx(3.0 * -math.log(1 - 0.9), rel=1e-9)

    def test_background_weight_scales_background_term(self, camera):
        match = MatchResult(pairs=(), total_cost=0.0)
        half = LossConfig(background_weight=0.5)
        full = loss_curve(
            [], [const_curve(300, confidence=0.9)], match, camera, GRID
        )
        scaled = loss_curve(
            [], [const_curve(300, confidence=0.9)], match, camera, GRID, half
        )
        assert scaled == pytest.approx(full / 2, rel=1e-12)

    def test_extent_hand_value(self, camera):
        match = MatchResult(pairs=((0, 0),), total_cost=0.0)
        got = loss_curve(
            [const_curve(300, v_up=720.0)],
            [const_curve(300, v_up=712.0)],
            match,
            camera,
            GRID,
        )
        # 16 from the boundary term plus the confident-label clamp residue.
        assert got == pytest.approx(16.0, abs=1e-5)


class TestLossTotal:
    def perfect_pair(self):
        lanes = [flat_lane(2.0), flat_lane(-2.0)]
        curves = [const_curve(300), const_curve(600)]
        gt = FrameGroundTruth(lanes=lanes, curves=curves)
        pred = FramePrediction(
            lanes=[flat_lane(2.0), flat_lane(-2.0)],
            curves=[const_curve(300), const_curve(600)],
            uncertainties=[[(0.1, 0.1)], [(0.1, 0.1)]],
        )
        return gt, pred

    def test_perfect_prediction(self, camera):
        gt, pred = self.perfect_pair()
        out = loss_total(gt, pred, camera, GRID)
        assert out.loss_loc == 0.0
        assert out.loss_fit == 0.0
        assert out.loss_unc <= 1e-9
        assert out.loss_vis <= 1e-6
        assert out.loss_ce <= 1e-5
        assert out.total <= 1e-4

    def test_breakdown_sums_exactly(self, camera):
        gt, pred = self.perfect_pair()
        # Perturb to get nonzero terms.
        noisy = FramePrediction(
            lanes=[flat_lane(2.0, dx=(0.3, -0.2), z=(0.1, 0.0)), flat_lane(-2.1)],
            curves=[const_curve(305, confidence=0.8), const_curve(598)],
            uncertainties=[[(0.2, 0.1)], [(0.1, 0.3)]],
        )
        out = loss_total(gt, noisy, camera, GRID)
        config = LossConfig()
        assert out.loss_point == config.gamma[0] * out.loss_unc + (
            out.loss_vis + out.loss_loc
        ) or abs(
            out.loss_point
            - (config.gamma[0] * out.loss_unc + out.loss_vis + out.loss_loc)
        ) < 1e-12
        assert out.loss_curve == out.loss_ce + out.loss_fit
        assert out.total == out.loss_point + out.loss_curve
        assert out.total > 0.5

    def test_gamma1_scales_only_uncertainty(self, camera):
        gt, pred = self.perfect_pair()
        noisy = FramePrediction(
            lanes=[flat_lane(2.0, dx=(0.3, 0.0)), flat_lane(-2.0)],
            curves=[const_curve(300), const_curve(600)],
            uncertainties=[[(0.2, 0.1)], [(0.1, 0.3)]],
        )
        base_cfg = LossConfig()
        double_cfg = LossConfig(gamma=(1.0, 2.0, 10.0, 3.0, 5.0, 2.0))
        base = loss_total(gt, noisy, camera, GRID, base_cfg)
        doubled = loss_total(gt, noisy, camera, GRID, double_cfg)
        assert doubled.loss_unc == base.loss_unc
        assert doubled.loss_vis == base.loss_vis
        assert doubled.loss_loc == base.loss_loc
        assert doubled.loss_curve == base.loss_curve
        assert doubled.total - base.total == pytest.approx(
            0.5 * base.loss_unc, abs=1e-12
        )

    def test_uncertainties_absent_reported_none(self, camera):
        gt, _ = self.perfect_pair()
        pred = FramePrediction(
            lanes=[flat_lane(2.0), flat_lane(-2.0)],
            curves=[const_curve(300), const_curve(600)],
        )
        out = loss_total(gt, pred, camera, GRID)
        assert out.loss_unc is None
        assert out.loss_point == out.loss_vis + out.loss_loc
        assert out.total == out.loss_point + out.loss_curve
        assert out.as_dict()["loss_unc"] is None

    def test_dropping_unmatched_prediction_keeps_point_losses(self, camera):
        gt = FrameGroundTruth(
            lanes=[flat_lane(2.0)], curves=[const_curve(300)]
        )
        spurious = FramePrediction(
            lanes=[flat_lane(2.0, dx=(0.1, 0.1)), flat_lane(-5.0)],
            curves=[const_curve(300), const_curve(800, confidence=0.2)],
            uncertainties=[[(0.1, 0.1)], [(0.1, 0.1)]],
        )
        trimmed = FramePrediction(
            lanes=[flat_lane(2.0, dx=(0.1, 0.1))],
            curves=[const_curve(300)],
            uncertainties=[[(0.1, 0.1)]],
        )
        full = loss_total(gt, spurious, camera, GRID)
        cut = loss_total(gt, trimmed, camera, GRID)
        assert full.match.assignment == {0: 0}
        assert full.loss_loc == cut.loss_loc
        assert full.loss_vis == cut.loss_vis
        assert full.loss_unc == cut.loss_unc
        assert full.loss_ce > cut.loss_ce

    def test_no_ground_truth_only_background_terms(self, camera):
        gt = FrameGroundTruth(lanes=[], curves=[])
        pred = FramePrediction(
            lanes=[flat_lane(2.0)], curves=[const_curve(300, confidence=0.4)]
        )
        out = loss_total(gt, pred, camera, GRID)
        assert out.loss_loc == 0.0
        assert out.loss_vis == 0.0
        assert out.loss_unc is None
        assert out.loss_ce == pytest.approx(
            3.0 * -math.log(1 - 0.4), rel=1e-9
        )

    def test_no_predictions_is_zero(self, camera):
        gt = FrameGroundTruth(
            lanes=[flat_lane(2.0)], curves=[const_curve(300)]
        )
        pred = FramePrediction(lanes=[], curves=[])
        out = loss_total(gt, pred, camera, GRID)
        assert out.total == 0.0

    def test_defaults_echo_weights(self):
        config = LossConfig()
        assert config.gamma == (0.5, 2.0, 10.0, 3.0, 5.0, 2.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(gamma=(0.5, -2.0, 10.0, 3.0, 5.0, 2.0))
        with pytest.raises(ValueError):
            LossConfig(gamma=(1.0, 2.0, 3.0))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_non_finite_or_negative_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            LossConfig(gamma=(0.5, 2.0, bad, 3.0, 5.0, 2.0))
        with pytest.raises(ValueError, match="finite and >= 0"):
            LossConfig(background_weight=bad)

    @pytest.mark.parametrize("shape", [(1, 3), (1,), (2, 2), (0, 2)])
    def test_uncertainty_shape_checked_at_construction(self, shape):
        # flat_lane has two points, so one segment: widths must be (1, 2)
        with pytest.raises(ValueError, match=r"need \(points - 1, 2\)"):
            FramePrediction([flat_lane(1.0)], [const_curve(300)],
                            [np.full(shape, 0.2)])
        FramePrediction([flat_lane(1.0)], [const_curve(300)], [[(0.2, 0.3)]])


# ---------------------------------------------------------------------------
# block scorer against the frame-by-frame oracle
# ---------------------------------------------------------------------------

CAMERAS = (
    CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0, height=1.5,
                pitch=0.05, image_size=(720, 960)),
    CameraModel(fx=1400.0, fy=1400.0, cx=960.0, cy=540.0, height=1.6,
                pitch=0.02, image_size=(1080, 1920)),
)


def random_curves(rng, n, size):
    """n curves of one kind: fitted to a shared rational family, stored
    rational (some constant, some with a horizon inside the image), or
    stored poly3; random extents and confidences, some exactly 0 or 1."""
    h, w = size
    kind = rng.integers(0, 3)
    if kind == 0 and n:
        r1, r2, r3 = rng.uniform(1e3, 1e5), rng.uniform(-50.0, 0.4 * h), rng.uniform(-3e3, 3e3)
        lanes = []
        for _ in range(n):
            rows = np.sort(rng.uniform(rng.uniform(r2 + 20.0, 0.8 * h), h - 1.0,
                                       int(rng.integers(5, 20))))
            den = rows - r2
            u = (r1 / den**2 + r3 / den + rng.uniform(-0.5, 0.5) * rows
                 + rng.uniform(0.1, 0.8) * w + rng.normal(0.0, 1.0, rows.size))
            lanes.append(np.stack([np.clip(u, 0.0, w - 1.0), rows], axis=1))
        curves = fit_curves(lanes, size).curves
    else:
        curves = []
        for _ in range(n):
            low = rng.uniform(0.0, 0.7 * h)
            up = low + rng.uniform(1.0, h)
            if kind == 1:
                rho = (rng.choice([0.0, rng.uniform(-1e5, 1e5)]),
                       rng.choice([rng.uniform(-100.0, h), (rng.integers(0, 20) + 0.5) * h / 20]),
                       rng.choice([0.0, rng.uniform(-1e3, 1e3)]), rng.uniform(-50, 50))
                curves.append(Curve2D(rho, rng.uniform(-0.5, 0.5), rng.uniform(0, w),
                                      low, up))
            else:
                rho = (rng.uniform(0, w), rng.uniform(-1, 1), rng.uniform(-1e-3, 1e-3),
                       rng.uniform(-1e-6, 1e-6))
                curves.append(Curve2D(rho, 0.0, 0.0, low, up, form="poly3"))
    for c in curves:
        c.confidence = float(rng.choice([0.0, 1.0, rng.uniform(), rng.uniform()]))
    return curves


def random_lanes(rng, n, y, soft):
    """n lanes on the anchors y: ground truths (hard visibility, some
    partly or not at all visible) or predictions (soft visibility)."""
    lanes = []
    for _ in range(n):
        pts = np.stack([rng.uniform(-8.0, 8.0) + rng.normal(0.0, 0.3, y.size),
                        y + (rng.uniform(-5e-10, 5e-10) if soft else 0.0),
                        rng.normal(0.0, 0.2, y.size)], axis=1)
        if soft:
            vis = rng.uniform(0.0, 1.0, y.size)
            vis[rng.random(y.size) < 0.2] = rng.choice([0.0, 0.5, 1.0])
        else:
            vis = np.ones(y.size)
            vis[:rng.integers(0, y.size // 2 + 1)] = 0.0
            vis[y.size - rng.integers(0, y.size // 3 + 1):] = 0.0
            if rng.random() < 0.1:
                vis[:] = 0.0
        lanes.append(Lane3D(points=pts, visibility=vis,
                            score=float(rng.uniform()) if soft else None))
    return lanes


def random_loss_frame(rng):
    """One frame of 0-4 ground truths and 0-5 predictions on its own
    anchors, with or without per-segment widths (arrays or pairs)."""
    camera = CAMERAS[rng.integers(0, 2)]
    y = 3.0 + np.cumsum(rng.uniform(0.5, 9.0, int(rng.integers(2, 22))))
    n_gt, n_pred = int(rng.integers(0, 5)), int(rng.integers(0, 6))
    gt = FrameGroundTruth(random_lanes(rng, n_gt, y, soft=False),
                          random_curves(rng, n_gt, camera.image_size))
    uncertainties = None
    if rng.random() < 0.6:
        uncertainties = [rng.uniform(0.02, 1.5, (y.size - 1, 2)) for _ in range(n_pred)]
        if rng.random() < 0.5:
            uncertainties = [[tuple(w) for w in u.tolist()] for u in uncertainties]
    pred = FramePrediction(random_lanes(rng, n_pred, y, soft=True),
                           random_curves(rng, n_pred, camera.image_size),
                           uncertainties)
    return gt, pred, camera


def breakdown_bits(b):
    return ({k: None if v is None else v.hex() for k, v in b.as_dict().items()},
            b.match.pairs, b.match.total_cost.hex())


def oracle_outcome(frames, grid=GRID, config=LossConfig()):
    """The oracle's breakdowns, or (type, message) of the first error."""
    out = []
    for gt, pred, camera in frames:
        try:
            out.append(loss_oracle.loss_total(gt, pred, camera, grid, config))
        except Exception as exc:  # noqa: BLE001 - compared by type and text
            return type(exc), str(exc)
    return [breakdown_bits(b) for b in out]


def block_outcome(frames, grid=GRID, config=LossConfig()):
    try:
        return [breakdown_bits(b) for b in loss_frames(frames, grid, config)]
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


def spoiled(rng, how):
    """A frame whose scoring fails with the named error."""
    y = np.linspace(5.0, 50.0, 6)
    gt_lanes = [flat_lane_on(y, 1.0), flat_lane_on(y, -2.0)]
    pred_lanes = [flat_lane_on(y, 1.1), flat_lane_on(y, -2.1)]
    widths = [np.full((5, 2), 0.3), np.full((5, 2), 0.3)]
    if how == "AnchorMismatch":
        pred_lanes[1] = flat_lane_on(y[:-1], -2.1)
        widths[1] = widths[1][:-1]
    elif how == "AnchorMismatch-y":
        pred_lanes[0] = flat_lane_on(y + 1e-6, 1.1)
    elif how == "NumericallySingular":
        widths[1][2] = (1e-8, 0.3)
    elif how == "NumericallySingular-overflow":
        pred_lanes[0] = Lane3D(points=np.stack([1.1 + 0.05 * y, y, np.zeros(6)], 1),
                               visibility=np.ones(6))
        widths[0][1] = (1e308, 0.3)
    elif how == "ZeroLengthSegment":
        y = np.array([5.0, 10.0, 10.0 + 5e-10, 20.0, 30.0, 40.0])
        gt_lanes[1], pred_lanes[1] = flat_lane_on(y, -2.0), flat_lane_on(y, -2.1)
    curves = [const_curve(300), const_curve(600)]
    return (FrameGroundTruth(gt_lanes, curves),
            FramePrediction(pred_lanes, [const_curve(302), const_curve(598)], widths),
            CAMERAS[0])


def flat_lane_on(y, x):
    return Lane3D(points=np.stack([np.full(y.size, x), y, np.zeros(y.size)], 1),
                  visibility=np.ones(y.size))


SPOILS = ("AnchorMismatch", "AnchorMismatch-y", "NumericallySingular",
          "NumericallySingular-overflow", "ZeroLengthSegment")


class TestScoreOracle:
    def test_random_frames_in_mixed_blocks(self):
        rng = np.random.default_rng(2024)
        frames = [random_loss_frame(rng) for _ in range(240)]
        features = {
            "widths": sum(p.uncertainties is not None for _, p, _ in frames),
            "no widths": sum(p.uncertainties is None for _, p, _ in frames),
            "no gt": sum(not g.lanes for g, _, _ in frames),
            "no pred": sum(not p.lanes for _, p, _ in frames),
            "poly3": sum(c.form == "poly3" for g, _, _ in frames for c in g.curves),
        }
        assert min(features.values()) >= 10, features
        want = oracle_outcome(frames)
        assert isinstance(want, list)
        unc = [b[0]["loss_unc"] for b in want]
        assert sum(u is not None and u != "0x0.0p+0" for u in unc) >= 50
        start = 0
        while start < len(frames):
            stop = start + int(rng.integers(1, 40))
            assert block_outcome(frames[start:stop]) == want[start:stop]
            start = stop

    def test_gammas_and_background_weight_are_applied_alike(self):
        rng = np.random.default_rng(7)
        frames = [random_loss_frame(rng) for _ in range(30)]
        config = LossConfig(gamma=(1.5, 0.3, 7.0, 2.5, 0.7, 3.0),
                            background_weight=0.25)
        grid = SampleGrid(j_prime=37)
        assert block_outcome(frames, grid, config) == oracle_outcome(frames, grid, config)

    @pytest.mark.parametrize("how", SPOILS)
    @pytest.mark.parametrize("at", [0, 5, 11])
    def test_spoiled_frame_raises_as_the_oracle(self, how, at):
        rng = np.random.default_rng(31)
        frames = [random_loss_frame(rng) for _ in range(12)]
        frames[at] = spoiled(rng, how)
        want = oracle_outcome(frames)
        assert isinstance(want, tuple) and want[0].__name__ == how.split("-")[0]
        assert block_outcome(frames) == want

    @pytest.mark.parametrize("first, second", [
        ("ZeroLengthSegment", "AnchorMismatch"),
        ("AnchorMismatch-y", "NumericallySingular"),
        ("NumericallySingular", "AnchorMismatch"),
    ])
    def test_earlier_frame_error_wins(self, first, second):
        rng = np.random.default_rng(5)
        frames = [random_loss_frame(rng) for _ in range(8)]
        frames[2], frames[6] = spoiled(rng, first), spoiled(rng, second)
        want = oracle_outcome(frames)
        assert want[0].__name__ == first.split("-")[0]
        assert block_outcome(frames) == want
        assert block_outcome(frames[3:]) == oracle_outcome(frames[3:])

    def test_packing_error_does_not_win_over_an_earlier_frame(self):
        # Frames are packed inside the first-error rule: frame b's widths
        # fail to pack, and frame a's own error still comes first.
        rng = np.random.default_rng(6)
        a = spoiled(rng, "AnchorMismatch")
        gt, pred, camera = random_loss_frame(rng)
        while not pred.lanes:
            gt, pred, camera = random_loss_frame(rng)
        words = [[("wide", "wide")] * (len(lane.points) - 1) for lane in pred.lanes]
        b = (gt, FramePrediction(pred.lanes, pred.curves, words), camera)
        with pytest.raises(AnchorMismatch):
            loss_frames([a, b], GRID)
        with pytest.raises(ValueError, match="could not convert"):
            loss_frames([b, a], GRID)
