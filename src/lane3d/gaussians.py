"""Segment Gaussians: parameterization, covariance, and KL divergence.

A lane segment between two 3D ground-frame points is summarized by a
Gaussian whose center is the segment midpoint and whose principal scales
are half the segment length plus lateral/vertical uncertainty half-widths.
The orientation comes from the segment's yaw (heading in the ground plane)
and pitch (elevation of the segment direction).

Rotation convention
-------------------
``rotation_matrix`` returns ``Rz(theta_z) @ Rx(theta_x)``.  Note the
first column is the *horizontal* heading ``(cos theta_z, sin theta_z, 0)``:
pitch tilts the lateral/vertical axes about the heading rather than
aligning the length axis with the sloped segment direction.  This is the
reference parameterization and the default everywhere.  Passing
``direction_aligned=True`` selects ``Rz(theta_z) @ Ry(-theta_x)`` instead,
whose first column is the true unit segment direction; it is provided for
comparison and is off by default.

A consequence of the default parameterization is that KL values between
two segment Gaussians are invariant under a common yaw rotation plus
translation of both segments, but not under arbitrary 3D rotations
(rolling the scene mixes pitch into a frame the parameterization cannot
represent).

Divergences have one implementation, over stacks of Gaussians:
``segment_symmetric_klds`` scores a batch of segment pairs from their
endpoints and widths (default rotation), and ``kld_components`` / ``kld`` /
``symmetric_kld`` are batches of one.  A batch fails on its first bad
segment with the error and message that segment alone would raise.
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
    """Midpoints, lengths, pitches and yaws of the segments p_a[i] -> p_b[i]."""
    delta = p_b - p_a
    length = np.sqrt((delta * delta).sum(axis=1))
    theta_x = np.arctan2(delta[:, 2], np.hypot(delta[:, 0], delta[:, 1]))
    theta_z = np.arctan2(delta[:, 1], delta[:, 0])
    return (p_a + p_b) / 2.0, length, theta_x, theta_z


def segment_params(p_a, p_b) -> tuple[np.ndarray, float, float, float]:
    """Midpoint, length, pitch, and yaw of the segment from p_a to p_b.

    Pitch is ``atan2(dz, hypot(dx, dy))``; yaw is ``atan2(dy, dx)``.
    Raises ZeroLengthSegment when the endpoints are closer than 1e-9 m.
    """
    mu, length, theta_x, theta_z = _segment_arrays(
        np.asarray(p_a, dtype=float).reshape(1, 3),
        np.asarray(p_b, dtype=float).reshape(1, 3),
    )
    if length[0] < _MIN_SEGMENT_LENGTH:
        raise ZeroLengthSegment(
            f"segment endpoints coincide (length {length[0]:.3e} m)"
        )
    return mu[0], float(length[0]), float(theta_x[0]), float(theta_z[0])


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


def _rotations(theta_x, theta_z, direction_aligned: bool) -> np.ndarray:
    """Stack of orientation matrices (m, 3, 3); see ``rotation_matrix``."""
    cx, sx = np.cos(theta_x), np.sin(theta_x)
    cz, sz = np.cos(theta_z), np.sin(theta_z)
    zero = np.zeros_like(cx)
    if direction_aligned:
        rows = ((cz * cx, -sz, -cz * sx),
                (sz * cx, cz, -sz * sx),
                (sx, zero, cx))
    else:
        rows = ((cz, -sz * cx, sz * sx),
                (sz, cz * cx, -cz * sx),
                (zero, sx, cx))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def rotation_matrix(
    theta_x: float, theta_z: float, direction_aligned: bool = False
) -> np.ndarray:
    """Orientation matrix for a segment Gaussian.

    Default: ``Rz(theta_z) @ Rx(theta_x)`` written out explicitly — the
    length axis is the horizontal heading and pitch rotates the lateral
    and vertical axes about it.  With ``direction_aligned=True``:
    ``Rz(theta_z) @ Ry(-theta_x)``, whose first column is the true unit
    direction of the (possibly sloped) segment.
    """
    return _rotations(np.array([float(theta_x)]),
                      np.array([float(theta_z)]), direction_aligned)[0]


def covariance(
    seg: SegmentGaussian, direction_aligned: bool = False
) -> np.ndarray:
    """Covariance ``R @ Lambda^2 @ R.T`` with Lambda = diag(scales)."""
    rot = rotation_matrix(seg.theta_x, seg.theta_z, direction_aligned)
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


def _kld_terms(mu_a, s_a, rot_a, mu_b, s_b, rot_b):
    """The three terms of KL(a || b) for stacks of m Gaussians.

    ``mu`` is (m, 3), ``s`` the (m, 3) axis scales and ``rot`` the
    (m, 3, 3) orientations.  Returns (trace, shift, logdet) arrays of
    shape (m,), computed in whitened form from the factors.  Extreme
    scales may overflow to a non-finite term without a warning; callers
    reject such pairs.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cross = np.swapaxes(rot_b, 1, 2) @ rot_a
        m = (cross * s_a[:, None, :]) / s_b[:, :, None]
        trace = (m * m).sum(axis=(1, 2)) - 3.0
        w = (np.swapaxes(rot_b, 1, 2) @ (mu_b - mu_a)[:, :, None])[:, :, 0] / s_b
        shift = (w * w).sum(axis=1)
        logdet = 2.0 * (np.log(s_b).sum(axis=1) - np.log(s_a).sum(axis=1))
    return trace, shift, logdet


def _kl(trace, shift, logdet):
    """KL from its terms, clamped at zero against rounding."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(0.5 * (trace + shift + logdet), 0.0)


def _stacked(g: SegmentGaussian, direction_aligned: bool):
    """One Gaussian as a batch of one: (mu, scales, rotation)."""
    return (np.array([g.mu]), g.scales[None, :],
            _rotations(np.array([g.theta_x]), np.array([g.theta_z]),
                       direction_aligned))


def kld_components(
    a: SegmentGaussian, b: SegmentGaussian, direction_aligned: bool = False
) -> dict[str, float]:
    """The three terms of KL(a || b), before the 1/2 factor.

    Returns ``trace`` (= tr(Sigma_b^-1 Sigma_a) - 3), ``shift``
    (the Mahalanobis term on the mean difference under b), and
    ``logdet`` (= ln det Sigma_b - ln det Sigma_a).  Computed in whitened
    form from the factors, never by inverting a full covariance.
    """
    _check_conditioning(a)
    _check_conditioning(b)
    trace, shift, logdet = _kld_terms(*_stacked(a, direction_aligned),
                                      *_stacked(b, direction_aligned))
    return {"trace": float(trace[0]), "shift": float(shift[0]),
            "logdet": float(logdet[0])}


def kld(
    a: SegmentGaussian, b: SegmentGaussian, direction_aligned: bool = False
) -> float:
    """Closed-form KL(a || b) between two segment Gaussians.

    ``0.5 * (tr(Sigma_b^-1 Sigma_a) - 3 + shift + ln(det Sigma_b / det
    Sigma_a))``, clamped at zero against rounding on near-identical pairs.
    Raises NumericallySingular when the divergence is not finite, as
    when one scale is so much larger than another that it overflows.
    """
    parts = kld_components(a, b, direction_aligned)
    value = float(_kl(parts["trace"], parts["shift"], parts["logdet"]))
    if not math.isfinite(value):
        raise NumericallySingular(
            f"divergence is not finite between Gaussians of scales "
            f"{a.scales.tolist()} and {b.scales.tolist()}"
        )
    return value


def symmetric_kld(
    a: SegmentGaussian, b: SegmentGaussian, direction_aligned: bool = False
) -> float:
    """Symmetrized divergence: the mean of KL(a||b) and KL(b||a)."""
    return 0.5 * (
        kld(a, b, direction_aligned) + kld(b, a, direction_aligned)
    )


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
    mu_p, len_p, tx_p, tz_p = _segment_arrays(p_a, p_b)
    mu_g, len_g, tx_g, tz_g = _segment_arrays(g_a, g_b)
    # every condition under which the single-pair path raises
    ok = (w >= MIN_SCALE).all(axis=1) & np.isfinite(w).all(axis=1)
    for mu, length, theta_x, theta_z in ((mu_p, len_p, tx_p, tz_p),
                                         (mu_g, len_g, tx_g, tz_g)):
        ok &= (length >= MIN_SCALE) & np.isfinite(length)
        ok &= np.isfinite(mu).all(axis=1) & np.isfinite(theta_z)
        ok &= np.abs(theta_x) < math.pi / 2
    half = w / 2.0
    s_p = np.column_stack([len_p / 2.0, half])
    s_g = np.column_stack([len_g / 2.0, half])
    rot_p = _rotations(tx_p, tz_p, False)
    rot_g = _rotations(tx_g, tz_g, False)
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.5 * (_kl(*_kld_terms(mu_p, s_p, rot_p, mu_g, s_g, rot_g))
                     + _kl(*_kld_terms(mu_g, s_g, rot_g, mu_p, s_p, rot_p)))
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
