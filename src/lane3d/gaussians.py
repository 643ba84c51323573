"""Segment Gaussians: parameterization, covariance, and KL divergence.

A lane segment between two 3D ground-frame points is summarized by a
Gaussian whose center is the segment midpoint and whose principal scales
are half the segment length plus lateral/vertical uncertainty half-widths.
The orientation comes from the segment's yaw (heading in the ground plane)
and pitch (elevation of the segment direction).

Rotation convention
-------------------
``rotation_matrix`` returns ``Rz(theta_z) @ Rx(theta_x)``, the one
orientation every function here uses.  Its first column is the
*horizontal* heading ``(cos theta_z, sin theta_z, 0)``: pitch tilts the
lateral and vertical axes about the heading rather than aligning the
length axis with the sloped segment direction.

A consequence of this parameterization is that KL values between
two segment Gaussians are invariant under a common yaw rotation plus
translation of both segments, but not under arbitrary 3D rotations
(rolling the scene mixes pitch into a frame the parameterization cannot
represent).

Divergences have one implementation, over stacks of Gaussians:
``segment_symmetric_klds`` scores a batch of segment pairs from their
endpoints and widths, and ``kld_components`` / ``kld`` /
``symmetric_kld`` are batches of one.  A batch fails on its first bad
segment with the error and message that segment alone would raise.
The batch builds each orientation from its segment's direction ratios
rather than from angles, writes every 3x3 product out elementwise, and
takes logs with ``math.log``: no divergence goes through BLAS or a NumPy
loop whose result depends on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericallySingular, ZeroLengthSegment

__all__ = [
    "MIN_SCALE",
    "SegmentGaussian",
    "segment_params",
    "segment_gaussian",
    "rotation_matrix",
    "covariance",
    "kld",
    "kld_components",
    "symmetric_kld",
    "paired_segment_gaussians",
    "segment_symmetric_klds",
]

# Scales below this (meters) make the covariance too ill-conditioned for a
# meaningful divergence; they are rejected rather than silently clamped.
MIN_SCALE = 1e-6

_MIN_SEGMENT_LENGTH = 1e-9


@dataclass(frozen=True)
class SegmentGaussian:
    """Gaussian summary of one lane segment.

    ``mu`` is the segment midpoint (meters, ground frame).  ``lambda_l``
    is the full segment length; ``lambda_w`` and ``lambda_h`` are the
    lateral and vertical uncertainty widths.  The covariance axes use
    half of each: ``Sigma = R @ diag((l/2)^2, (w/2)^2, (h/2)^2) @ R.T``.
    ``theta_x`` is pitch in (-pi/2, pi/2); ``theta_z`` is yaw in (-pi, pi].
    """

    mu: tuple[float, float, float]
    lambda_l: float
    lambda_w: float
    lambda_h: float
    theta_x: float
    theta_z: float

    def __post_init__(self):
        mu = tuple(float(v) for v in self.mu)
        if len(mu) != 3 or not all(math.isfinite(v) for v in mu):
            raise ValueError(f"mu must be 3 finite floats, got {self.mu!r}")
        object.__setattr__(self, "mu", mu)
        for name in ("lambda_l", "lambda_w", "lambda_h"):
            value = float(getattr(self, name))
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, value)
        tx = float(self.theta_x)
        if not (-math.pi / 2 < tx < math.pi / 2):
            raise ValueError(
                f"theta_x must lie in (-pi/2, pi/2), got {tx!r} "
                "(vertical segments are out of domain)"
            )
        object.__setattr__(self, "theta_x", tx)
        tz = float(self.theta_z)
        if not math.isfinite(tz):
            raise ValueError(f"theta_z must be finite, got {tz!r}")
        # Wrap into (-pi, pi].
        tz = math.remainder(tz, 2.0 * math.pi)
        if tz <= -math.pi:
            tz = math.pi
        object.__setattr__(self, "theta_z", tz)

    @property
    def mu_array(self) -> np.ndarray:
        return np.array(self.mu)

    @property
    def scales(self) -> np.ndarray:
        """Covariance axis scales: half of each lambda."""
        return np.array(
            [self.lambda_l / 2.0, self.lambda_w / 2.0, self.lambda_h / 2.0]
        )


def _segment_arrays(p_a: np.ndarray, p_b: np.ndarray):
    """Midpoints, directions and lengths of the segments p_a[i] -> p_b[i]."""
    delta = p_b - p_a
    return (p_a + p_b) / 2.0, delta, np.sqrt((delta * delta).sum(axis=1))


def _pitch(delta: np.ndarray) -> np.ndarray:
    """``atan2(dz, hypot(dx, dy))`` of each direction."""
    return np.arctan2(delta[:, 2], np.hypot(delta[:, 0], delta[:, 1]))


def segment_params(p_a, p_b) -> tuple[np.ndarray, float, float, float]:
    """Midpoint, length, pitch, and yaw of the segment from p_a to p_b.

    Pitch is ``atan2(dz, hypot(dx, dy))``; yaw is ``atan2(dy, dx)``.
    Raises ZeroLengthSegment when the endpoints are closer than 1e-9 m.
    """
    mu, delta, length = _segment_arrays(
        np.asarray(p_a, dtype=float).reshape(1, 3),
        np.asarray(p_b, dtype=float).reshape(1, 3),
    )
    if length[0] < _MIN_SEGMENT_LENGTH:
        raise ZeroLengthSegment(
            f"segment endpoints coincide (length {length[0]:.3e} m)"
        )
    theta_z = np.arctan2(delta[:, 1], delta[:, 0])
    return mu[0], float(length[0]), float(_pitch(delta)[0]), float(theta_z[0])


def segment_gaussian(p_a, p_b, lambda_w: float, lambda_h: float) -> SegmentGaussian:
    """Build the Gaussian for one segment with given uncertainty widths."""
    if lambda_w < MIN_SCALE or lambda_h < MIN_SCALE:
        raise NumericallySingular(
            f"uncertainty widths must be >= {MIN_SCALE} m, "
            f"got lambda_w={lambda_w!r}, lambda_h={lambda_h!r}"
        )
    mu, length, theta_x, theta_z = segment_params(p_a, p_b)
    return SegmentGaussian(
        mu=tuple(mu),
        lambda_l=length,
        lambda_w=float(lambda_w),
        lambda_h=float(lambda_h),
        theta_x=theta_x,
        theta_z=theta_z,
    )


def _rotations(theta_x, theta_z) -> np.ndarray:
    """Stack of orientation matrices (m, 3, 3); see ``rotation_matrix``."""
    return _rotation_stack(np.cos(theta_x), np.sin(theta_x),
                           np.cos(theta_z), np.sin(theta_z))


def _rotation_stack(cx, sx, cz, sz) -> np.ndarray:
    """``_rotations`` from the cosines and sines of pitch and yaw."""
    zero = np.zeros_like(cx)
    rows = ((cz, -sz * cx, sz * sx),
            (sz, cz * cx, -cz * sx),
            (zero, sx, cx))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def rotation_matrix(theta_x: float, theta_z: float) -> np.ndarray:
    """Orientation matrix for a segment Gaussian.

    ``Rz(theta_z) @ Rx(theta_x)`` written out explicitly: the length axis
    is the horizontal heading and pitch rotates the lateral and vertical
    axes about it.
    """
    return _rotations(np.array([float(theta_x)]),
                      np.array([float(theta_z)]))[0]


def covariance(seg: SegmentGaussian) -> np.ndarray:
    """Covariance ``R @ Lambda^2 @ R.T`` with Lambda = diag(scales)."""
    rot = rotation_matrix(seg.theta_x, seg.theta_z)
    scaled = rot * (seg.scales**2)[None, :]
    return scaled @ rot.T


def _check_conditioning(seg: SegmentGaussian) -> None:
    if (
        seg.lambda_l < MIN_SCALE
        or seg.lambda_w < MIN_SCALE
        or seg.lambda_h < MIN_SCALE
    ):
        raise NumericallySingular(
            "segment Gaussian has an axis below the "
            f"{MIN_SCALE} m floor: ({seg.lambda_l}, {seg.lambda_w}, "
            f"{seg.lambda_h})"
        )


def _log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry (``np.log`` may differ in the last bit
    from one CPU to another)."""
    return np.array(list(map(math.log, x.ravel().tolist())),
                    dtype=np.float64).reshape(x.shape)


def _direction_rotations(delta: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``_rotations`` of the segments along ``delta``, from the direction's
    ratios: with ``h = hypot(dx, dy)``, the cosine and sine of the pitch are
    ``h / length`` and ``dz / length``, those of the yaw ``dx / h`` and
    ``dy / h``.  A vertical or degenerate direction gives NaN entries."""
    dx, dy, dz = delta.T
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.sqrt(dx * dx + dy * dy)
        return _rotation_stack(h / length, dz / length, dx / h, dy / h)


def _log_volume(s: np.ndarray) -> np.ndarray:
    """The sum of the logs of each row's three (positive) scales."""
    logs = _log(s)
    return logs[:, 0] + logs[:, 1] + logs[:, 2]


def _kld_terms(mu_a, s_a, rot_a, mu_b, s_b, rot_b, logdet=None):
    """The three terms of KL(a || b) for stacks of m Gaussians.

    ``mu`` is (m, 3), ``s`` the (m, 3) axis scales, all positive, and
    ``rot`` the (m, 3, 3) orientations.  Returns (trace, shift, logdet)
    arrays of shape (m,), computed in whitened form from the factors;
    a caller that has the logdet term may pass it.  Every product and sum
    is elementwise, in a fixed order, and the logs are ``math.log``'s, so
    no term depends on the CPU.  Extreme scales may overflow to a
    non-finite term without a warning; callers reject such pairs.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # cross[i, j] = sum over k of rot_b[k, i] * rot_a[k, j]
        cross = (rot_b[:, 0, :, None] * rot_a[:, 0, None, :]
                 + rot_b[:, 1, :, None] * rot_a[:, 1, None, :]
                 + rot_b[:, 2, :, None] * rot_a[:, 2, None, :])
        m = (cross * s_a[:, None, :]) / s_b[:, :, None]
        m = (m * m).reshape(-1, 9)
        trace = m[:, 0]
        for k in range(1, 9):
            trace = trace + m[:, k]
        trace = trace - 3.0
        d = mu_b - mu_a
        w = (rot_b[:, 0] * d[:, :1] + rot_b[:, 1] * d[:, 1:2]
             + rot_b[:, 2] * d[:, 2:]) / s_b
        shift = w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2]
    if logdet is None:
        logdet = 2.0 * (_log_volume(s_b) - _log_volume(s_a))
    return trace, shift, logdet


def _kl(trace, shift, logdet):
    """KL from its terms, clamped at zero against rounding."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(0.5 * (trace + shift + logdet), 0.0)


def _stacked(g: SegmentGaussian):
    """One Gaussian as a batch of one: (mu, scales, rotation)."""
    return (np.array([g.mu]), g.scales[None, :],
            _rotations(np.array([g.theta_x]), np.array([g.theta_z])))


def kld_components(a: SegmentGaussian, b: SegmentGaussian) -> dict[str, float]:
    """The three terms of KL(a || b), before the 1/2 factor.

    Returns ``trace`` (= tr(Sigma_b^-1 Sigma_a) - 3), ``shift``
    (the Mahalanobis term on the mean difference under b), and
    ``logdet`` (= ln det Sigma_b - ln det Sigma_a).  Computed in whitened
    form from the factors, never by inverting a full covariance.
    """
    _check_conditioning(a)
    _check_conditioning(b)
    trace, shift, logdet = _kld_terms(*_stacked(a), *_stacked(b))
    return {"trace": float(trace[0]), "shift": float(shift[0]),
            "logdet": float(logdet[0])}


def kld(a: SegmentGaussian, b: SegmentGaussian) -> float:
    """Closed-form KL(a || b) between two segment Gaussians.

    ``0.5 * (tr(Sigma_b^-1 Sigma_a) - 3 + shift + ln(det Sigma_b / det
    Sigma_a))``, clamped at zero against rounding on near-identical pairs.
    Raises NumericallySingular when the divergence is not finite, as
    when one scale is so much larger than another that it overflows.
    """
    parts = kld_components(a, b)
    value = float(_kl(parts["trace"], parts["shift"], parts["logdet"]))
    if not math.isfinite(value):
        raise NumericallySingular(
            f"divergence is not finite between Gaussians of scales "
            f"{a.scales.tolist()} and {b.scales.tolist()}"
        )
    return value


def symmetric_kld(a: SegmentGaussian, b: SegmentGaussian) -> float:
    """Symmetrized divergence: the mean of KL(a||b) and KL(b||a)."""
    return 0.5 * (kld(a, b) + kld(b, a))


def segment_symmetric_klds(
    pred_a,
    pred_b,
    gt_a,
    gt_b,
    widths,
) -> np.ndarray:
    """Symmetric divergences of m (prediction, ground-truth) segment pairs.

    ``pred_a``/``pred_b`` and ``gt_a``/``gt_b`` are (m, 3) segment
    endpoints; ``widths`` holds m predicted ``(lambda_w, lambda_h)``
    pairs that both Gaussians of a pair carry (as in
    ``paired_segment_gaussians``).  Entry i equals
    ``symmetric_kld(*paired_segment_gaussians(...))`` of pair i up to
    rounding.  The pairs are checked in order, and the first pair that
    ``paired_segment_gaussians`` or ``kld`` would reject raises the same
    error, with the same message: ``NumericallySingular``,
    ``ZeroLengthSegment`` or ``ValueError``.  A pair whose divergence is
    not finite raises ``NumericallySingular``, with no warning.
    """
    p_a, p_b, g_a, g_b = (np.asarray(p, dtype=np.float64).reshape(-1, 3)
                          for p in (pred_a, pred_b, gt_a, gt_b))
    w = np.asarray(widths, dtype=np.float64).reshape(-1, 2)
    if not p_a.shape == p_b.shape == g_a.shape == g_b.shape == (len(w), 3):
        raise ValueError("endpoints must be (m, 3) and widths (m, 2)")
    mu_p, d_p, len_p = _segment_arrays(p_a, p_b)
    mu_g, d_g, len_g = _segment_arrays(g_a, g_b)
    # every condition under which the single-pair path raises; the pitch
    # decides the domain only, as it does there
    ok = (w >= MIN_SCALE).all(axis=1) & np.isfinite(w).all(axis=1)
    for mu, delta, length in ((mu_p, d_p, len_p), (mu_g, d_g, len_g)):
        ok &= (length >= MIN_SCALE) & np.isfinite(length)
        ok &= np.isfinite(mu).all(axis=1)
        ok &= np.abs(_pitch(delta)) < math.pi / 2
    half = w / 2.0
    s_p = np.column_stack([len_p / 2.0, half])
    s_g = np.column_stack([len_g / 2.0, half])
    s_p[~ok] = s_g[~ok] = 1.0  # logs are taken of checked scales only
    rot_p, rot_g = _direction_rotations(d_p, len_p), _direction_rotations(d_g, len_g)
    # ln det Sigma_g - ln det Sigma_p, and its negation the other way round
    logdet = 2.0 * (_log_volume(s_g) - _log_volume(s_p))
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.5 * (_kl(*_kld_terms(mu_p, s_p, rot_p, mu_g, s_g, rot_g, logdet))
                     + _kl(*_kld_terms(mu_g, s_g, rot_g, mu_p, s_p, rot_p, -logdet)))
    bad = ~ok | ~np.isfinite(out)
    if bad.any():
        i = int(np.argmax(bad))
        lambda_w, lambda_h = w[i].tolist()
        if not ok[i]:
            pred, gt = paired_segment_gaussians(
                p_a[i], p_b[i], g_a[i], g_b[i], lambda_w, lambda_h)
            _check_conditioning(pred)
            _check_conditioning(gt)
        raise NumericallySingular(
            f"segment divergence is not finite (lambda_w={lambda_w!r}, "
            f"lambda_h={lambda_h!r})"
        )
    return out


def paired_segment_gaussians(
    pred_a,
    pred_b,
    gt_a,
    gt_b,
    lambda_w_hat: float,
    lambda_h_hat: float,
) -> tuple[SegmentGaussian, SegmentGaussian]:
    """Gaussians for a prediction segment and its ground-truth counterpart.

    Both Gaussians carry the *predicted* uncertainty widths; only the
    geometry (midpoint, length, angles) differs.  Returns
    ``(prediction, ground_truth)``.
    """
    pred = segment_gaussian(pred_a, pred_b, lambda_w_hat, lambda_h_hat)
    gt = segment_gaussian(gt_a, gt_b, lambda_w_hat, lambda_h_hat)
    return pred, gt
