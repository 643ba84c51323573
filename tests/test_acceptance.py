"""Acceptance gate: ten analytic / oracle-backed end-to-end criteria.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion is one
test whose PASSED/FAILED line is its verdict; a ``C## PASS`` summary
with the measured numbers is printed through the capture for the log.
"""

import math
import time
from itertools import permutations

import numpy as np

from lane3d.chamfer import (
    EvalConfig,
    bcd_report,
    bcd_select_tp_fp,
    bidirectional_cd,
    mbd_report,
    once_report,
    threshold_sweep,
    unilateral_cd,
)
from lane3d.gaussians import SegmentGaussian, covariance, kld, kld_components
from lane3d.geometry import (
    DEFAULT_CAMERA,
    Curve2D,
    Lane3D,
    SampleGrid,
    fit_curves,
    project_ground_to_image,
    sample_curve,
    unproject_to_ground,
)
from lane3d.kernels import directed_point_stats
from lane3d.losses import (
    FrameGroundTruth,
    FramePrediction,
    LossConfig,
    loss_loc,
    loss_total,
)
from lane3d.matching import MatchResult, hungarian
from lane3d.pointwise import openlane_report
from lane3d.scenario_io import NoiseModel, generate_frames

def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}", flush=True)


def straight_lane(x0=0.0, y_lo=3.0, y_hi=103.0, n=21, slope=0.0, z0=0.0):
    y = np.linspace(y_lo, y_hi, n)
    pts = np.stack([x0 + slope * y, y, np.full_like(y, z0)], axis=1)
    return Lane3D(points=pts, visibility=np.ones_like(y))


def random_segment(rng, mu_scale=2.0):
    lam = rng.uniform(0.5, 3.0, 3)
    return SegmentGaussian(
        mu=tuple(rng.normal(0.0, mu_scale, 3)),
        lambda_l=float(lam[0]),
        lambda_w=float(lam[1]),
        lambda_h=float(lam[2]),
        theta_x=float(rng.uniform(-0.5, 0.5)),
        theta_z=float(rng.uniform(-np.pi, np.pi)),
    )


# ---------------------------------------------------------------------------
# C01 — divergence correctness
# ---------------------------------------------------------------------------


def test_c01_gaussian_divergence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    # identity: divergence of a Gaussian with itself
    worst_self = 0.0
    for _ in range(200):
        g = random_segment(rng)
        worst_self = max(worst_self, kld(g, g))
    assert worst_self <= 1e-9

    # non-negativity on 1000 random SPD pairs, checked unclamped
    worst_raw = np.inf
    for _ in range(1000):
        a, b = random_segment(rng), random_segment(rng)
        parts = kld_components(a, b)
        raw = 0.5 * (parts["trace"] + parts["shift"] + parts["logdet"])
        worst_raw = min(worst_raw, raw)
        assert kld(a, b) >= 0.0
    assert worst_raw >= -1e-9

    # closed form vs 1e6-sample Monte-Carlo estimate on 50 pairs
    n_samples = 1_000_000
    worst_rel = 0.0
    pairs_done = 0
    while pairs_done < 50:
        a, b = random_segment(rng, 1.0), random_segment(rng, 1.0)
        cf = kld(a, b)
        if not 0.3 <= cf <= 20.0:
            continue
        pairs_done += 1
        sa, sb = covariance(a), covariance(b)
        mu_a, mu_b = a.mu_array, b.mu_array
        x = mu_a + rng.standard_normal((n_samples, 3)) @ np.linalg.cholesky(
            sa
        ).T
        da, db = x - mu_a, x - mu_b
        qa = np.einsum("ni,ij,nj->n", da, np.linalg.inv(sa), da)
        qb = np.einsum("ni,ij,nj->n", db, np.linalg.inv(sb), db)
        mc = 0.5 * float(np.mean(qb - qa)) + 0.5 * (
            np.linalg.slogdet(sb)[1] - np.linalg.slogdet(sa)[1]
        )
        rel = abs(mc - cf) / cf
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.02, f"pair {pairs_done}: closed {cf} vs MC {mc}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(
        capsys,
        f"C01 PASS — self-divergence <= {worst_self:.2e}, raw minimum "
        f"{worst_raw:.2e}, worst MC deviation {worst_rel:.3%}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C02 — rotation and covariance structure
# ---------------------------------------------------------------------------


def test_c02_rotation_covariance(capsys):
    from lane3d.gaussians import rotation_matrix

    rng = np.random.default_rng(102)
    eye = np.eye(3)
    worst_orth = 0.0
    worst_det = 0.0
    worst_eig = 0.0
    for _ in range(10_000):
        # pitch of a segment is atan2(dz, hypot(dx, dy)): open (-pi/2, pi/2)
        tx = float(rng.uniform(-np.pi / 2 * 0.999, np.pi / 2 * 0.999))
        tz = float(rng.uniform(-np.pi, np.pi))
        rot = rotation_matrix(tx, tz)

        worst_orth = max(worst_orth, float(np.abs(rot.T @ rot - eye).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(rot)) - 1.0))

        cx, sx = math.cos(tx), math.sin(tx)
        cz, sz = math.cos(tz), math.sin(tz)
        rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
        assert np.array_equal(rot, rz @ rx)

        lam = rng.uniform(0.2, 4.0, 3)
        seg = SegmentGaussian(
            mu=(0.0, 0.0, 0.0),
            lambda_l=float(lam[0]),
            lambda_w=float(lam[1]),
            lambda_h=float(lam[2]),
            theta_x=tx,
            theta_z=tz,
        )
        got = np.sort(np.linalg.eigvalsh(covariance(seg)))
        want = np.sort((lam / 2.0) ** 2)
        worst_eig = max(worst_eig, float(np.abs(got - want).max()))

    assert worst_orth < 1e-12
    assert worst_det <= 1e-12
    assert worst_eig < 1e-9
    announce(
        capsys,
        f"C02 PASS — orthogonality {worst_orth:.2e}, det drift "
        f"{worst_det:.2e}, eigenvalue error {worst_eig:.2e} over 10000 "
        "angle pairs",
    )


# ---------------------------------------------------------------------------
# C03 — greedy-protocol distance fidelity
# ---------------------------------------------------------------------------


def brute_directed(a, b):
    """O(N^2) oracle with the kernels' exact arithmetic contract."""
    dx = a[:, 0][:, None] - b[None, :, 0]
    dy = a[:, 1][:, None] - b[None, :, 1]
    dz = a[:, 2][:, None] - b[None, :, 2]
    d2 = (dx * dx + dy * dy) + dz * dz
    mins = np.sqrt(d2.min(axis=1))
    total = 0.0
    for v in mins:
        total += float(v)
    return total / a.shape[0], float(mins.max())


def test_c03_greedy_distance_fidelity(capsys):
    rng = np.random.default_rng(103)
    n_pairs = 1000
    for _ in range(n_pairs):
        y_a = np.sort(rng.uniform(0.0, 100.0, 100))
        y_b = np.sort(rng.uniform(0.0, 100.0, 100))
        a = np.column_stack(
            [rng.normal(0, 3, 100), y_a, rng.normal(0, 0.3, 100)]
        )
        b = np.column_stack(
            [rng.normal(0, 3, 100), y_b, rng.normal(0, 0.3, 100)]
        )
        want_ab = brute_directed(a, b)
        want_ba = brute_directed(b, a)
        assert directed_point_stats(a, b) == want_ab
        assert directed_point_stats(b, a) == want_ba

    # covered-flag unit cases
    cfg = EvalConfig(tau_bcd=0.3)
    gt = [straight_lane(0.0)]
    preds = [straight_lane(0.05), straight_lane(0.1)]
    tp, fp, covered = bcd_select_tp_fp(gt, preds, cfg)
    assert tp == [True, False]
    assert fp == [False, True]
    assert covered == [True]

    tp, fp, covered = bcd_select_tp_fp([], preds, cfg)
    assert tp == [False, False]
    assert fp == [True, True]
    assert covered == []

    announce(
        capsys,
        f"C03 PASS — directed distances bit-identical to the O(N^2) oracle "
        f"on {n_pairs} pairs; "
        "claim-order unit cases exact",
    )


# ---------------------------------------------------------------------------
# C04 — extension asymmetry fixture
# ---------------------------------------------------------------------------


def test_c04_extension_asymmetry(capsys):
    gt = straight_lane(0.0, 3.0, 33.0, 31)
    pred = straight_lane(0.0, 3.0, 53.0, 51)  # same line, 20 m longer

    ucd = unilateral_cd(gt, pred)
    bcd = bidirectional_cd(gt, pred)
    assert ucd < 0.01
    assert bcd > 1.0

    cfg = EvalConfig(tau_cd=0.3, tau_bcd=0.3)
    frames = [([gt], [pred])]
    f1_once = once_report(frames, cfg).f1
    f1_bcd = bcd_report(frames, cfg).f1
    assert f1_once == 1.0
    assert f1_bcd == 0.0
    announce(
        capsys,
        f"C04 PASS — unilateral {ucd:.4f} m vs bidirectional {bcd:.2f} m; "
        f"gated F1 {f1_once:.0%} vs greedy F1 {f1_bcd:.0%} at 0.3 m",
    )


# ---------------------------------------------------------------------------
# C05 — assignment optimality
# ---------------------------------------------------------------------------


def brute_min_cost(cost):
    m, n = cost.shape
    if m <= n:
        perms = np.array(list(permutations(range(n), m)))
        totals = cost[np.arange(m)[None, :], perms].sum(axis=1)
    else:
        perms = np.array(list(permutations(range(m), n)))
        totals = cost[perms, np.arange(n)[None, :]].sum(axis=1)
    return float(totals.min())


def test_c05_assignment_optimality(capsys):
    rng = np.random.default_rng(105)
    n_trials = 1000
    for _ in range(n_trials):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        cost = rng.uniform(0.0, 10.0, (m, n))
        res = hungarian(cost)
        assert len(res.pairs) == min(m, n)
        best = brute_min_cost(cost)
        assert abs(res.total_cost - best) <= 1e-9

        # permutation invariance of the matched-pair set
        row_perm = rng.permutation(m)
        col_perm = rng.permutation(n)
        shuffled = cost[np.ix_(row_perm, col_perm)]
        res2 = hungarian(shuffled)
        mapped = {
            (int(row_perm[i]), int(col_perm[j])) for i, j in res2.pairs
        }
        assert mapped == set(res.pairs)

    announce(
        capsys,
        f"C05 PASS — optimal on {n_trials} random matrices up to 7x7; "
        "matched pairs invariant under row/column permutation",
    )


# ---------------------------------------------------------------------------
# C06 — loss suite
# ---------------------------------------------------------------------------


def const_curve(u, confidence=1.0):
    return Curve2D(
        rho=(0.0, 0.0, 0.0, 0.0),
        beta_prime=0.0,
        beta_dprime=float(u),
        v_low=0.0,
        v_up=720.0,
        confidence=confidence,
    )


def test_c06_loss_suite(capsys):
    grid = SampleGrid(j_prime=20)
    lanes = [straight_lane(-1.85), straight_lane(1.85)]
    curves = [const_curve(300.0), const_curve(660.0)]
    unc = [[(0.5, 0.3)] * (len(ln.points) - 1) for ln in lanes]

    gt = FrameGroundTruth(lanes=lanes, curves=curves)
    perfect = FramePrediction(lanes=lanes, curves=curves, uncertainties=unc)
    bd = loss_total(gt, perfect, DEFAULT_CAMERA, grid, LossConfig())
    assert bd.loss_loc == 0.0
    assert bd.loss_fit == 0.0
    assert bd.loss_unc == 0.0
    assert bd.total <= 1e-5  # clamped-probability BCE/CE residue only
    residue = bd.total

    # hand-derived localization value: one visible anchor off by
    # |dx| = 0.1 and |dz| = 0.05 under weights (2, 10) -> exactly 0.7
    y = np.array([5.0, 10.0])
    gt_lane = Lane3D(
        points=np.stack([np.zeros_like(y), y, np.zeros_like(y)], 1),
        visibility=np.ones_like(y),
    )
    off = np.array([[0.1, 5.0, -0.05], [0.0, 10.0, 0.0]])
    pred_lane = Lane3D(points=off, visibility=np.ones_like(y))
    identity = MatchResult(pairs=((0, 0),), total_cost=0.0)
    hand = loss_loc([gt_lane], [pred_lane], identity)
    assert hand == 0.7
    assert hand == 2 * 0.1 + 10 * 0.05

    # component recomposition on randomized imperfect predictions
    rng = np.random.default_rng(106)
    worst_sum = 0.0
    for _ in range(20):
        noisy = []
        for lane in lanes:
            pts = lane.points.copy()
            pts[:, 0] += rng.normal(0, 0.1, pts.shape[0])
            pts[:, 2] += rng.normal(0, 0.05, pts.shape[0])
            noisy.append(Lane3D(points=pts, visibility=lane.visibility))
        pred_curves = [
            const_curve(300.0 + rng.normal(0, 5), confidence=0.9),
            const_curve(660.0 + rng.normal(0, 5), confidence=0.8),
        ]
        pred = FramePrediction(
            lanes=noisy, curves=pred_curves, uncertainties=unc
        )
        cfg = LossConfig()
        bd = loss_total(gt, pred, DEFAULT_CAMERA, grid, cfg)
        recomposed = (
            cfg.gamma[0] * bd.loss_unc + bd.loss_vis + bd.loss_loc
        ) + (bd.loss_ce + bd.loss_fit)
        worst_sum = max(worst_sum, abs(bd.total - recomposed))
        assert abs(bd.total - recomposed) <= 1e-12
        assert bd.total == bd.loss_point + bd.loss_curve

    announce(
        capsys,
        f"C06 PASS — perfect-prediction residue {residue:.2e}, hand value "
        f"0.7 exact, worst recomposition gap {worst_sum:.2e}",
    )


# ---------------------------------------------------------------------------
# C07 — synthetic pipeline end to end
# ---------------------------------------------------------------------------


def paired_frames(n_frames, sigma, seed=1077, lanes=3):
    noise = NoiseModel(
        sigma_w0=sigma, sigma_w_slope=0.0, sigma_h0=0.0, sigma_h_slope=0.0,
        seed=seed,
    )
    gt_recs, pred_recs = generate_frames(n_frames, lanes, (-0.002, 0.002),
                                         noise)
    return [(g.gt_lanes, p.gt_lanes) for g, p in zip(gt_recs, pred_recs)]


def test_c07_synthetic_pipeline(capsys):
    frames = paired_frames(500, 0.0)
    cfg = EvalConfig()
    reports = {
        "once": once_report(frames, cfg),
        "bcd": bcd_report(frames, cfg),
        "mbd": mbd_report(frames, cfg),
        "openlane": openlane_report(frames),
    }
    for name, rep in reports.items():
        assert rep.precision == 1.0, name
        assert rep.recall == 1.0, name
        assert rep.f1 == 1.0, name
    assert reports["once"].error_stat == 0.0  # CDE
    assert reports["mbd"].error_stat == 0.0
    assert reports["bcd"].error_stat == 0.0

    cdes, bcds, residual_ratios = [], [], []
    expect_ratio = math.sqrt(2.0 / math.pi)
    for sigma in (0.05, 0.1, 0.2):
        noisy = paired_frames(200, sigma)
        cdes.append(once_report(noisy, cfg).error_stat)
        bcds.append(bcd_report(noisy, cfg).error_stat)
        gaps = [
            float(np.linalg.norm(p.points[:, :2] - g.points[:, :2], axis=1).mean())
            for gts, preds in noisy
            for g, p in zip(gts, preds)
        ]
        residual_ratios.append(float(np.mean(gaps)) / (sigma * expect_ratio))
    assert cdes[0] < cdes[1] < cdes[2]
    assert bcds[0] < bcds[1] < bcds[2]
    for ratio in residual_ratios:
        assert abs(ratio - 1.0) <= 0.2

    announce(
        capsys,
        "C07 PASS — 500 noiseless frames perfect under all four protocols; "
        f"CDE {cdes[0]:.3f}<{cdes[1]:.3f}<{cdes[2]:.3f}, mean residual / "
        f"half-normal prediction {min(residual_ratios):.3f}.."
        f"{max(residual_ratios):.3f}",
    )


# ---------------------------------------------------------------------------
# C08 — curve fitting and projection round trips
# ---------------------------------------------------------------------------


def test_c08_curve_round_trip(capsys):
    camera = DEFAULT_CAMERA
    rho = (30000.0, 300.0, 120.0, 0.0)
    betas = ((-0.15, 200.0), (0.05, 480.0), (0.3, 700.0))
    lanes = []
    for bp, bd in betas:
        curve = Curve2D(rho=rho, beta_prime=bp, beta_dprime=bd,
                        v_low=380.0, v_up=719.0)
        u, v, m = sample_curve(curve, camera, SampleGrid(j_prime=60))
        lanes.append(np.column_stack([u[m == 1], v[m == 1]]))
    result = fit_curves(lanes, camera.image_size)
    worst_beta = 0.0
    for curve, (bp, bd) in zip(result.curves, betas):
        worst_beta = max(
            worst_beta,
            abs(curve.beta_prime - bp),
            abs(curve.beta_dprime - bd),
        )
    assert worst_beta < 1e-6
    assert result.rms < 1e-6

    rng = np.random.default_rng(108)
    pts = np.column_stack([
        rng.uniform(-8.0, 8.0, 100),
        rng.uniform(4.0, 90.0, 100),
        np.zeros(100),
    ])
    uv = project_ground_to_image(camera, pts)
    back = unproject_to_ground(camera, uv[:, 0], uv[:, 1])
    worst_rt = float(np.abs(back - pts).max())
    assert worst_rt < 1e-6

    announce(
        capsys,
        f"C08 PASS — bias recovery error {worst_beta:.2e}, fit RMS "
        f"{result.rms:.2e} px, projection round trip {worst_rt:.2e} m",
    )


# ---------------------------------------------------------------------------
# C09 — determinism and throughput
# ---------------------------------------------------------------------------


def bulk_frames(n_frames, rng):
    frames = []
    y = np.linspace(3.0, 103.0, 100)
    ones = np.ones_like(y)
    for _ in range(n_frames):
        gts, preds = [], []
        for k in range(6):
            x = (k - 2.5) * 3.7 + rng.normal(0, 0.5) + rng.normal(0, 0.01) * y
            pts = np.stack([x, y, np.zeros_like(y)], 1)
            noisy = pts.copy()
            noisy[:, 0] += rng.normal(0, 0.05, y.size)
            gts.append(Lane3D(points=pts, visibility=ones))
            preds.append(Lane3D(points=noisy, visibility=ones))
        frames.append((gts, preds))
    return frames


def test_c09_determinism_and_throughput(capsys):
    rng = np.random.default_rng(109)
    big = bulk_frames(10_000, rng)
    cfg100 = EvalConfig(n_interp=100)
    bcd_report(big[:20], cfg100)  # warm up

    t0 = time.perf_counter()
    bcd_report(big[:2000], cfg100)
    t_small = time.perf_counter() - t0

    t0 = time.perf_counter()
    rep = bcd_report(big, cfg100)
    t_full = time.perf_counter() - t0

    assert rep.tp + rep.fn == 60_000
    assert t_full < 10.0, f"10k frames took {t_full:.2f}s"
    # near-linear growth: 5x the frames within 1.6x of 5x the time
    assert t_full <= 8.0 * t_small + 0.5, (
        f"scaling {t_full:.2f}s vs {t_small:.2f}s for a fifth of the load"
    )

    announce(
        capsys,
        f"C09 PASS — 10000 frames in {t_full:.2f}s "
        f"({t_small:.2f}s for 2000)",
    )


# ---------------------------------------------------------------------------
# C10 — sweep shape and operating points
# ---------------------------------------------------------------------------


def test_c10_threshold_sweep_shape(capsys):
    frames = paired_frames(100, 0.1, seed=1100)
    taus = [0.05 * k for k in range(1, 31)]  # 0.05 .. 1.50, 30 points
    rows = threshold_sweep(frames, taus, "bcd", EvalConfig())
    assert len(rows) == 30

    f1s = [row[3] for row in rows]
    assert all(b >= a for a, b in zip(f1s, f1s[1:]))

    checked = 0
    for row in rows:
        tau = row[0]
        if not (abs(tau - 0.1) < 1e-9 or abs(tau - 0.3) < 1e-9):
            continue
        standalone = bcd_report(frames, EvalConfig(tau_bcd=tau))
        assert row == (
            tau,
            standalone.precision,
            standalone.recall,
            standalone.f1,
        )
        checked += 1
    assert checked == 2

    announce(
        capsys,
        f"C10 PASS — F1 non-decreasing over 30 thresholds "
        f"({f1s[0]:.3f} -> {f1s[-1]:.3f}); 0.1 and 0.3 operating points "
        "match standalone runs exactly",
    )
