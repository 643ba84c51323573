"""Lane and curve geometry in the ground and image frames.

Coordinate conventions
----------------------
Ground frame:  x right, y forward, z up, origin on the ground directly
below the camera optical center.  Lanes are ordered polylines with
strictly increasing y (ordered away from the vehicle).

Camera frame:  x right, y down, z forward (optical axis).  The camera
sits ``height`` meters above the ground origin and is pitched down by
``pitch`` radians about its own x-axis.  Roll and yaw are zero.

Front view (FV): pixel coordinates (u, v); u grows rightward in [0, W),
v grows downward in [0, H).

A front-view lane is modeled by a shared-curvature curve

    u = rho1/(v - rho2)^2 + rho3/(v - rho2) + rho4 + beta1*v + beta2

where the rho parameters are shared by every lane of a frame (rho2 is
the horizon row) and the two bias terms are individual per lane.  This
is the "rational" form: a rational function of the image row whose
poles sit on the horizon.  A plain cubic form ("poly3",
u = rho1 + rho2*v + rho3*v^2 + rho4*v^3 + beta1*v + beta2) is available
for testing.

Every scorer gathers lanes by ``_visible_points``, the one place a lane
with fewer than two visible points is rejected; ``interpolate_lane`` and
``resample_at_y`` are batches of one of the batched resamplers.

``fit_frames`` fits frames of lanes, and ``fit_curves`` is it on one
frame.  In the rational form only rho2 enters nonlinearly: it is searched
by a grid and golden-section refinement, each candidate scored by
variable projection (the linear parameters eliminated in closed form),
and the linear parameters are solved once at the chosen row.  All frames
of a call take each search step together, one scoring call per step
whatever their point and lane counts; each keeps its own bracket and
gets the result it would get alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateLane,
    NoGroundIntersection,
    SingularRow,
    Underdetermined,
)
from .kernels import resample_polyline

# Curve denominator singularity guard, pixels.
EPS_DEN = 1e-6
# Minimum camera-frame depth, meters.
EPS_DEPTH = 1e-3

CURVE_FORMS = ("rational", "poly3")


@dataclass
class Lane3D:
    """A 3D lane: ordered ground-frame polyline with per-point visibility.

    ``visibility`` entries lie in [0, 1].  Ground truths use hard {0, 1}
    flags; predictions may carry probabilities.  A point counts as
    visible when its entry exceeds 0.5.
    """

    points: np.ndarray
    visibility: np.ndarray
    score: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        vis = np.asarray(self.visibility, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, 3) array")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite (no NaN or Inf)")
        if vis.shape != (pts.shape[0],):
            raise ValueError("visibility length must equal point count")
        if not np.all(np.diff(pts[:, 1]) > 0):
            raise ValueError("y-coordinates must be strictly increasing")
        if not np.all((vis >= 0) & (vis <= 1)):
            raise ValueError("visibility entries must lie in [0, 1]")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        self.points = pts
        self.visibility = vis

    @classmethod
    def _checked(cls, points: np.ndarray, visibility: np.ndarray,
                 score: float | None) -> Lane3D:
        """A lane of float64 arrays that already pass ``__post_init__``'s
        checks, built without running them again."""
        lane = cls.__new__(cls)
        lane.points, lane.visibility, lane.score = points, visibility, score
        return lane

    def visible_points(self) -> np.ndarray:
        """Points whose visibility exceeds 0.5, in order."""
        return self.points[self.visibility > 0.5]


@dataclass
class Curve2D:
    """Front-view lane curve: shared rho, individual biases, row bounds."""

    rho: tuple[float, float, float, float]
    beta_prime: float
    beta_dprime: float
    v_low: float
    v_up: float
    confidence: float = 1.0
    form: str = "rational"

    def __post_init__(self):
        if len(self.rho) != 4:
            raise ValueError("rho must have exactly 4 entries")
        self.rho = tuple(float(r) for r in self.rho)
        if not all(map(math.isfinite, (*self.rho, self.beta_prime,
                                       self.beta_dprime, self.v_up))):
            raise ValueError("rho, beta_prime, beta_dprime and v_up must be finite")
        if not 0.0 <= self.v_low < self.v_up:
            raise ValueError("need 0 <= v_low < v_up")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        if self.form not in CURVE_FORMS:
            raise ValueError(f"unknown curve form {self.form!r}")


@dataclass
class CameraModel:
    """Pinhole camera with (height, pitch) extrinsics, zero roll/yaw."""

    fx: float
    fy: float
    cx: float
    cy: float
    height: float
    pitch: float
    image_size: tuple[int, int]  # (H, W)

    def __post_init__(self):
        values = (self.fx, self.fy, self.cx, self.cy, self.height)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("fx, fy, cx, cy and height must be finite")
        if self.fx <= 0 or self.fy <= 0 or self.height <= 0:
            raise ValueError("fx, fy and height must be positive")
        if not 0.0 <= self.pitch < math.pi / 2:
            raise ValueError("pitch must lie in [0, pi/2)")
        h, w = self.image_size
        if h <= 0 or w <= 0:
            raise ValueError("image_size entries must be positive")
        self.image_size = (int(h), int(w))


def _default_y_anchors() -> np.ndarray:
    return np.linspace(3.0, 103.0, 20)


@dataclass
class SampleGrid:
    """Sampling resolutions: FV curve rows and 3D y-anchors."""

    j_prime: int = 20
    y_anchors: np.ndarray = field(default_factory=_default_y_anchors)

    def __post_init__(self):
        self.y_anchors = np.asarray(self.y_anchors, dtype=np.float64)
        if self.j_prime < 2:
            raise ValueError("j_prime must be >= 2")
        if self.y_anchors.ndim != 1 or not np.all(np.diff(self.y_anchors) > 0):
            raise ValueError("y_anchors must be 1-D and strictly increasing")


DEFAULT_CAMERA = CameraModel(
    fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
    height=1.5, pitch=0.05, image_size=(720, 960),
)


# ── Curve model ──────────────────────────────────────────────────────────

def curve_eval(curve: Curve2D, v):
    """Evaluate the curve column u at row(s) v.

    Raises SingularRow when any requested row of a "rational" curve falls
    within EPS_DEN of the horizon row rho2.
    """
    v_arr = np.asarray(v, dtype=np.float64)
    r1, r2, r3, r4 = curve.rho
    if curve.form == "rational":
        if r1 == 0.0 and r3 == 0.0:
            u = np.full_like(v_arr, r4)  # denominators inactive
        else:
            den = v_arr - r2
            if np.any(np.abs(den) < EPS_DEN):
                raise SingularRow(
                    f"row within {EPS_DEN} of the horizon row {r2}")
            u = r1 / (den * den) + r3 / den + r4
    else:  # poly3: rho holds coefficients for powers 0..3
        u = r1 + r2 * v_arr + r3 * v_arr**2 + r4 * v_arr**3
    u = u + curve.beta_prime * v_arr + curve.beta_dprime
    return float(u) if np.isscalar(v) else u


def sample_curve(curve: Curve2D, camera: CameraModel, grid: SampleGrid):
    """Sample the curve on j_prime rows uniformly spaced over [0, H).

    Returns (u, v, m) arrays.  m[j] = 1 iff v[j] lies in [v_low, v_up]
    and the evaluated u lies in [0, W).  Invalid rows carry m = 0 and
    the sentinel column u = -1.  Rows at the curve singularity are
    simply invalid, never an error.  A batch of one of ``_sample_curves``.
    """
    u, v, valid = _sample_curves([curve], [camera.image_size], grid.j_prime)
    return u[0], v[0], valid[0].astype(np.int64)


def _sample_curves(curves: Sequence[Curve2D], sizes, j_prime: int):
    """``sample_curve`` of many curves in one evaluation.

    Curve i is sampled on the rows of an image of size ``sizes[i]`` =
    (H, W).  Returns (u, v, valid), each (curves, j_prime), with ``valid``
    boolean.  Every entry is computed by the elementwise operations of
    ``curve_eval``, so each row equals the curve sampled alone.
    """
    sizes = np.asarray(sizes, dtype=np.float64).reshape(-1, 2)
    h, w = sizes[:, :1], sizes[:, 1:]
    v = (np.arange(j_prime, dtype=np.float64) + 0.5) * (h / j_prime)
    params = np.array([(*c.rho, c.beta_prime, c.beta_dprime, c.v_low, c.v_up)
                       for c in curves], dtype=np.float64).reshape(-1, 8)
    r1, r2, r3, r4, bp, bd, v_low, v_up = (params[:, i:i + 1] for i in range(8))
    rational = np.array([c.form == "rational" for c in curves],
                        dtype=bool).reshape(-1, 1)
    active = rational & ((r1 != 0.0) | (r3 != 0.0))  # denominators in use
    ok = ~active | (np.abs(v - r2) >= EPS_DEN)
    den = np.where(ok, v - r2, 1.0)
    # Rows off the curve's span or the image may overflow; they are invalid.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.where(rational,
                     np.where(active, r1 / (den * den) + r3 / den + r4, r4),
                     r1 + r2 * v + r3 * v**2 + r4 * v**3)
        u = u + bp * v + bd
        valid = (ok & (v >= v_low) & (v <= v_up) & (u >= 0.0) & (u < w))
    return np.where(valid, u, -1.0), v, valid


# ── Camera projection ────────────────────────────────────────────────────

def _image_points(cameras, points, frame_of):
    """Project ground points (n, 3), point i by ``cameras[frame_of[i]]``.

    Returns ``(behind, u, v, inside)`` per point: whether its camera-frame
    depth is <= EPS_DEPTH (its u, v then mean nothing), its pixel
    coordinates, and whether it is in front and inside the image.
    """
    cams = np.array([(math.sin(c.pitch), math.cos(c.pitch), c.height, c.fx, c.fy,
                      c.cx, c.cy, *c.image_size) for c in cameras]).reshape(-1, 9)
    sin, cos, height, fx, fy, cx, cy, h, w = cams[frame_of].T
    # camera-frame coordinates: x right, y down, z forward
    xc, dy, dz = points[:, 0], points[:, 1], points[:, 2] - height
    yc = -sin * dy - cos * dz
    zc = cos * dy - sin * dz
    behind = zc <= EPS_DEPTH
    zc = np.where(behind, 1.0, zc)
    u = cx + fx * xc / zc
    v = cy + fy * yc / zc
    return behind, u, v, ~behind & (u >= 0) & (u < w) & (v >= 0) & (v < h)


def project_ground_to_image(camera: CameraModel, p) -> np.ndarray:
    """Project ground point(s) (x, y, z) to pixel coordinates (u, v).

    Accepts one point (3,) or a stack (n, 3); returns the matching
    shape.  Raises BehindCamera if any camera-frame depth <= EPS_DEPTH.
    A batch of one camera of ``_image_points``.
    """
    arr = np.asarray(p, dtype=np.float64)
    pts = np.atleast_2d(arr)
    behind, u, v, _ = _image_points([camera], pts, np.zeros(len(pts), dtype=np.intp))
    if behind.any():
        raise BehindCamera(f"camera-frame depth <= {EPS_DEPTH} m")
    uv = np.stack([u, v], axis=1)
    return uv[0] if arr.ndim == 1 else uv


def unproject_to_ground(camera: CameraModel, u, v) -> np.ndarray:
    """Intersect the ray through pixel (u, v) with the ground plane z=0.

    Accepts scalars or arrays; returns (3,) or (n, 3) ground points.
    Raises NoGroundIntersection when any ray is parallel to the ground
    plane or points away from it (at or above the horizon row).
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    v_arr = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if u_arr.shape != v_arr.shape:
        raise ValueError("u and v must have the same shape")
    s, c = math.sin(camera.pitch), math.cos(camera.pitch)
    dcx = (u_arr - camera.cx) / camera.fx
    dcy = (v_arr - camera.cy) / camera.fy
    # Descent rate of the ray toward the ground; must be positive.
    denom = c * dcy + s
    if np.any(denom <= 1e-9):
        raise NoGroundIntersection("pixel ray does not descend to the ground")
    t = camera.height / denom  # camera-frame depth of the hit
    x = t * dcx
    y = t * (-s * dcy + c)
    out = np.stack([x, y, np.zeros_like(x)], axis=1)
    return out[0] if np.isscalar(u) else out


# ── Lane resampling ──────────────────────────────────────────────────────

# Anchor-grid tolerance, meters: a y this close to its anchor lies on it.
_ANCHOR_TOL = 1e-9


def _lane_columns(lanes: Sequence[Lane3D]):
    """The points and visibility of ``lanes``, one lane after another, and
    each lane's point count."""
    return (np.concatenate([lane.points for lane in lanes] or [np.empty((0, 3))]),
            np.concatenate([lane.visibility for lane in lanes] or [np.empty(0)]),
            np.array([lane.points.shape[0] for lane in lanes], dtype=np.int64))


def _visible_points(lanes: Sequence[Lane3D]) -> tuple[np.ndarray, np.ndarray]:
    """The visible points of ``lanes``, one lane after another, and each
    lane's count of them.  Every scorer gathers its lanes here: the first
    lane with fewer than two visible points raises DegenerateLane."""
    points, vis, sizes = _lane_columns(lanes)
    keep = vis > 0.5
    counts = np.add.reduceat(keep, np.cumsum(sizes) - sizes)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise DegenerateLane(f"{counts[short[0]]} visible point(s); need >= 2")
    return (points if keep.all() else points[keep]), counts


def interpolate_lane(lane: Lane3D, n: int) -> np.ndarray:
    """Arc-length-uniform piecewise-linear resampling to n points.

    Operates on the visible sub-polyline (invisible gaps are bridged
    linearly); endpoints are preserved exactly and no sample ever lies
    beyond them.
    """
    return resample_polyline(_visible_points([lane])[0], n)


def resample_at_y(lane: Lane3D, y_anchors: np.ndarray):
    """Sample x(y), z(y) of the visible polyline at the given y-anchors.

    Returns (x, z, vis) arrays; an anchor is visible iff it lies within
    the y-span of the visible sub-polyline.  Values outside the span are
    clamped endpoint values and flagged invisible.  A batch of one of
    ``_resample_lanes_at_y``; the anchors may come in any order and shape.
    """
    pts, counts = _visible_points([lane])
    y = np.asarray(y_anchors, dtype=np.float64)
    order = np.argsort(y, axis=None, kind="stable")
    sampled = _resample_lanes_at_y(pts[:, 1], pts[:, 0], pts[:, 2],
                                   np.array([0, counts[0]]), y.ravel()[order])
    back = np.argsort(order)
    return tuple(s[0][back].reshape(y.shape) for s in sampled)


def _resample_lanes_at_y(y: np.ndarray, x: np.ndarray, z: np.ndarray,
                         starts: np.ndarray, y_anchors: np.ndarray):
    """``resample_at_y`` of many lanes in array passes, at sorted anchors.

    ``y``, ``x`` and ``z`` hold the lanes' visible points one lane after
    another, lane i on rows ``starts[i]:starts[i + 1]``, at least two per
    lane; ``y_anchors`` is sorted, NaN last.  Returns (x, z, vis), each
    (lanes, anchors).  Each sample is bitwise ``np.interp``'s: the
    endpoint value outside the span, the point's own value on a point,
    NaN at a NaN anchor, and otherwise the slope form from the bracket's
    lower end (from its upper end if that gives NaN).
    """
    n_lanes, n_anchors = starts.shape[0] - 1, y_anchors.shape[0]
    lane = np.repeat(np.arange(n_lanes), np.diff(starts))
    # Points of each lane at or below each anchor: a cumulative count over
    # the anchor slot each point falls in.
    slot = lane * (n_anchors + 1) + np.searchsorted(y_anchors, y, side="left")
    below = np.bincount(slot, minlength=n_lanes * (n_anchors + 1))
    below = below.reshape(n_lanes, n_anchors + 1).cumsum(axis=1)[:, :-1]
    first, last = starts[:-1, None], starts[1:, None] - 1
    j = first + below - 1  # last point at or below the anchor (first - 1: none)
    k = np.clip(j, first, last - 1)  # the bracket's lower end
    a, y0, y1 = y_anchors[None, :], y[k], y[k + 1]

    def interp(f: np.ndarray) -> np.ndarray:
        f0, f1 = f[k], f[k + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = (f1 - f0) / (y1 - y0)
            out = slope * (a - y0) + f0
            retry = slope * (a - y1) + f1
        retry = np.where(np.isnan(retry) & (f0 == f1), f0, retry)
        out = np.where(np.isnan(out), retry, out)
        out = np.where(y0 == a, f0, out)
        out = np.where(j < first, f[first], out)
        out = np.where(j >= last, f[last], out)
        return np.where(np.isnan(a), a, out)

    vis = ((a >= y[first]) & (a <= y[last])).astype(np.float64)
    return interp(x), interp(z), vis


# ── Curve fitting ────────────────────────────────────────────────────────

@dataclass
class FitResult:
    """Shared-rho frame fit: one curve per input lane plus residuals."""

    curves: list[Curve2D]
    rms: float
    lane_rms: list[float]
    rms_history: list[float]


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_FIT_ROUNDS = 10  # rounds of 6 golden-section steps in the search of rho2
# A reduced rational column shorter than this fraction of its raw norm is
# treated as dependent on the other columns; its candidate row is scored
# by the full least-squares solve instead.
_DEPENDENT = 1e-8


def _lstsq_scaled(a: np.ndarray, b: np.ndarray):
    """Least squares with column equilibration; returns (x, ss)."""
    scale = np.sqrt((a * a).sum(axis=0))
    scale[scale == 0.0] = 1.0
    x = np.linalg.lstsq(a / scale, b, rcond=None)[0] / scale
    r = a @ x - b
    return x, float(r @ r)


def _rational_columns(v: np.ndarray, rho2: float, bias: np.ndarray):
    den = v - rho2
    return np.column_stack([1.0 / (den * den), 1.0 / den, bias])


def _bias_basis(v: np.ndarray, lane_of: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis (n, 2k) of the per-lane [v, 1] bias columns.

    Every lane must span at least two distinct rows.
    """
    q = np.zeros((v.shape[0], 2 * k))
    for i in range(k):
        sel = lane_of == i
        c = v[sel] - v[sel].mean()
        c -= c.mean()  # re-centre: one pass leaves a rounding offset
        q[sel, 2 * i] = c / math.sqrt(float(c @ c))
        q[sel, 2 * i + 1] = 1.0 / math.sqrt(c.shape[0])
    return q


def _projected_ss(v: np.ndarray, y: np.ndarray, groups: Sequence,
                  rho2: np.ndarray) -> np.ndarray:
    """Variable-projection residuals of rational fits, one per rho2.

    ``v`` and ``y`` are (fit, point) and ``rho2`` is (fit, candidate); the
    result is (fit, candidate).  ``groups`` splits the fits into runs of
    consecutive fits with equal point and lane counts, one
    ``(fits, n, basis)`` per run: a slice of fits, their point count and
    their (fit, n, 2k) bias bases.  Fits with fewer points than the
    widest are padded; a pad must keep ``v - rho2`` nonzero, and no
    product reads it.  ``y`` is the target with the bias span already
    projected out.  For each candidate the two rational columns are
    projected off the bias span, orthogonalized by Gram-Schmidt with one
    reorthogonalization, and taken off ``y``; the residual is formed
    explicitly and its squared norm returned.  NaN marks a candidate
    whose reduced columns are zero or dependent (see ``_DEPENDENT``).

    Elementwise steps run once over all fits.  Every sum over points is
    a product per group whose stack holds one fit's (candidate, n)
    operand per fit, a view of the padded stack, so a fit's scores do
    not depend on the other fits scored with it.  The per-group products
    are the only work that grows with the number of groups.
    """
    ones = np.ones(v.shape[-1])

    def sums(x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """(..., fit, candidate, point) -> (..., fit, candidate): each
        fit's own points summed, weighted by its row of ``w`` if given."""
        if len(groups) == 1:  # no pads: the whole stack is one product
            return x @ ones if w is None else (x @ w[..., None])[..., 0]
        parts = [x[..., f, :, :n] @ ones[:n] if w is None
                 else (x[..., f, :, :n] @ w[f, :n, None])[..., 0]
                 for f, n, _ in groups]
        return np.concatenate(parts, axis=-2)

    cols = np.empty((2, *rho2.shape, v.shape[-1]))  # (column, fit, rho2, point)
    np.divide(1.0, v[:, None, :] - rho2[..., None], out=cols[1])
    np.multiply(cols[1], cols[1], out=cols[0])
    raw = sums(cols * cols)
    for f, n, basis in groups:
        part = cols[:, f, :, :n]
        part -= (part @ basis) @ basis.swapaxes(-1, -2)
    a, b = cols
    aa, ab = sums(cols * a)
    dep = aa <= _DEPENDENT**2 * raw[0]
    aa[dep] = 1.0
    b -= a * (ab / aa)[..., None]
    b -= a * (sums(a * b) / aa)[..., None]
    bb = sums(b * b)
    dep |= bb <= _DEPENDENT**2 * raw[1]
    bb[dep] = 1.0
    r = y[:, None, :] - a * (sums(a, y) / aa)[..., None]
    r -= b * (sums(b * r) / bb)[..., None]
    ss = sums(r * r)
    ss[dep] = np.nan
    return ss


@dataclass
class _FitProblem:
    """One frame's checked fit input, its lanes stacked one after another."""

    lanes: list[np.ndarray]
    u: np.ndarray
    v: np.ndarray
    lane_of: np.ndarray
    bias: np.ndarray


def _check_frame(lanes_2d: Sequence[np.ndarray], image_size: tuple[int, int],
                 form: str) -> _FitProblem:
    """Check one frame of FV lanes for fitting and stack its lanes."""
    h, w = image_size
    lanes = [np.asarray(l, dtype=np.float64).reshape(-1, 2) for l in lanes_2d]
    if not lanes:
        raise ValueError("need at least one lane")
    for i, l in enumerate(lanes):
        if l.shape[0] < 4:
            raise Underdetermined(f"lane {i} has {l.shape[0]} points; need >= 4")
        if not np.isfinite(l).all():
            raise ValueError(f"lane {i} has a non-finite point")
        if (np.any(l[:, 0] < 0) or np.any(l[:, 0] >= w)
                or np.any(l[:, 1] < 0) or np.any(l[:, 1] >= h)):
            raise ValueError("all points must lie inside the image")
        if l[:, 1].min() == l[:, 1].max():
            raise Underdetermined(
                f"lane {i} lies on a single row; need >= 2 distinct rows")
    k = len(lanes)
    u_all = np.concatenate([l[:, 0] for l in lanes])
    v_all = np.concatenate([l[:, 1] for l in lanes])
    lane_of = np.concatenate([np.full(l.shape[0], i) for i, l in enumerate(lanes)])
    n_pts = u_all.shape[0]
    n_params = (3 if form == "rational" else 2) + 2 * k
    if n_pts < n_params:
        raise Underdetermined(f"{n_pts} points for {n_params} parameters")
    return _stack_problem(lanes, u_all, v_all, lane_of)


def _stack_problem(lanes: list[np.ndarray], u: np.ndarray, v: np.ndarray,
                   lane_of: np.ndarray) -> _FitProblem:
    """The fit input of checked lanes: ``u``, ``v`` and ``lane_of`` hold
    their points one lane after another, each a contiguous array."""
    rows, k = np.arange(u.shape[0]), len(lanes)
    bias = np.zeros((u.shape[0], 2 * k))
    bias[rows, 2 * lane_of] = v
    bias[rows, 2 * lane_of + 1] = 1.0
    return _FitProblem(lanes, u, v, lane_of, bias)


def fit_frames(frames: Sequence[tuple[Sequence[np.ndarray], tuple[int, int]]],
               form: str = "rational") -> list[FitResult]:
    """Fit each frame of FV lanes with shared rho and per-lane biases.

    ``frames`` holds one ``(lanes_2d, image_size)`` pair per frame, and
    the result one ``FitResult`` per frame, in order.  ``lanes_2d`` holds
    one (n_i, 2) array of (u, v) pixels per lane; all points must be
    finite and lie inside the image, and each lane needs at least 4
    points on at least two distinct rows.  Every frame is checked before
    any is fit.

    For the "rational" form the horizon row rho2 is the one nonlinear
    parameter.  It is searched below the lowest sample row: a 33-point
    grid, then ``_FIT_ROUNDS`` rounds of 6 golden-section steps around the
    best grid point.  Each candidate is scored by variable projection
    (Golub & Pereyra 1973): with rho2 fixed the problem is linear, the
    per-lane bias columns are projected out in closed form, and only the
    two rational columns remain.  The best candidate seen is kept, so the
    reported rms_history is non-increasing, and all linear parameters
    are then solved once, by least squares at that rho2.  The frames are
    searched in lockstep: one scoring call serves every frame's
    candidates at each step, and each frame keeps its own bracket, so
    its result does not depend on the other frames of the call.

    The constant term rho4 is pinned to 0 in every fit: with per-lane
    beta'' biases a shared constant column is a pure gauge freedom.  The
    "poly3" form likewise pins its constant and linear shared
    coefficients, keeping only the v^2 and v^3 columns shared; it is one
    least-squares solve.
    """
    if form not in CURVE_FORMS:
        raise ValueError(f"unknown curve form {form!r}")
    problems = [_check_frame(lanes_2d, image_size, form)
                for lanes_2d, image_size in frames]
    return _fit_problems(problems, form)


def fit_curves(lanes_2d: Sequence[np.ndarray], image_size: tuple[int, int],
               form: str = "rational") -> FitResult:
    """Fit one frame of FV lanes: ``fit_frames`` on that frame alone."""
    return fit_frames([(lanes_2d, image_size)], form)[0]


def _fit_problems(problems: Sequence[_FitProblem],
                  form: str = "rational") -> list[FitResult]:
    """Fit checked frames; the rational ones all in one lockstep search."""
    if form == "poly3":
        return [_fit_poly3(p) for p in problems]
    # Sorted by (point count, lane count), the fits of a group sit next
    # to each other and its products take one slice of the stack.
    order = sorted(range(len(problems)),
                   key=lambda i: (problems[i].u.shape[0], len(problems[i].lanes)))
    results: list[FitResult] = [None] * len(problems)
    for i, fit in zip(order, _fit_rational([problems[i] for i in order])):
        results[i] = fit
    return results


def _fit_poly3(p: _FitProblem) -> FitResult:
    a = np.column_stack([p.v**2, p.v**3, p.bias])
    x, ss = _lstsq_scaled(a, p.u)
    rms = math.sqrt(ss / p.u.shape[0])
    residual = a @ x - p.u
    curves = _build_curves(p.lanes, "poly3", (0.0, 0.0, x[0], x[1]), x[2:])
    return FitResult(curves, rms, _per_lane_rms(residual, p.lane_of, len(p.lanes)),
                     [rms])


def _fit_rational(problems: Sequence[_FitProblem]) -> list[FitResult]:
    """Rational fits, sorted by (point count, lane count), in lockstep.

    Every fit brackets rho2 below its lowest sample row and refines it by
    golden-section over the projected residual; each step scores one
    candidate of every fit in one ``_projected_ss`` call.
    """
    if not problems:
        return []
    count = len(problems)
    n = np.array([p.u.shape[0] for p in problems])
    # Each pad repeats its fit's first row: no minimum or maximum moves,
    # and every rational column of the pad stays finite.
    v = np.repeat(np.array([p.v[0] for p in problems])[:, None], n.max(), 1)
    y = np.zeros_like(v)
    bases = []
    for f, p in enumerate(problems):
        q = _bias_basis(p.v, p.lane_of, len(p.lanes))
        v[f, :n[f]] = p.v
        y[f, :n[f]] = p.u - q @ (q.T @ p.u)
        bases.append(q)
    groups, start = [], 0
    for size, run in itertools.groupby(
            (p.u.shape[0], len(p.lanes)) for p in problems):
        stop = start + len(list(run))
        groups.append((slice(start, stop), size[0], np.stack(bases[start:stop])))
        start = stop
    vmin = v.min(axis=1)
    span = np.maximum(v.max(axis=1) - vmin, 32.0)
    hi = vmin - np.maximum(1.0, 1e-3 * span)
    lo = vmin - 5.0 * span
    fits = np.arange(count)
    best_ss = np.full(count, math.inf)
    best_rho2 = hi.copy()

    def accept(rho2: np.ndarray) -> np.ndarray:
        """Score candidates (fit, evaluation order): solve in full those
        projection could not score, then keep each fit's best if better
        than its best so far (the first of equal scores wins)."""
        ss = _projected_ss(v, y, groups, rho2)
        for f, j in zip(*np.nonzero(np.isnan(ss))):
            p = problems[f]
            ss[f, j] = _lstsq_scaled(
                _rational_columns(p.v, float(rho2[f, j]), p.bias), p.u)[1]
        j = np.argmin(ss, axis=1)
        better = ss[fits, j] < best_ss
        best_ss[better] = ss[fits, j][better]
        best_rho2[better] = rho2[fits, j][better]
        return ss

    grid = np.linspace(lo, hi, 33, axis=1)
    i0 = np.argmin(accept(grid), axis=1)
    a = grid[fits, np.maximum(i0 - 1, 0)]
    b = grid[fits, np.minimum(i0 + 1, 32)]

    history = np.empty((count, _FIT_ROUNDS))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = accept(np.stack([c, d], axis=1)).T
    for it in range(_FIT_ROUNDS):
        for _ in range(6):
            # fc < fd keeps [a, d]: c moves to d and a new c is scored;
            # otherwise [c, b] is kept, d moves to c and a new d is scored
            left = fc < fd
            a, b = np.where(left, a, c), np.where(left, d, b)
            new = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
            f_new = accept(new[:, None])[:, 0]
            c, d = np.where(left, new, d), np.where(left, c, new)
            fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        history[:, it] = np.sqrt(best_ss / n)

    results = []
    for p, rho2, hist in zip(problems, best_rho2.tolist(), history.tolist()):
        a_fin = _rational_columns(p.v, rho2, p.bias)
        x, ss = _lstsq_scaled(a_fin, p.u)
        rho = (float(x[0]), rho2, float(x[1]), 0.0)
        residual = a_fin @ x - p.u
        curves = _build_curves(p.lanes, "rational", rho, x[2:])
        results.append(FitResult(curves, math.sqrt(ss / p.u.shape[0]),
                                 _per_lane_rms(residual, p.lane_of, len(p.lanes)),
                                 hist))
    return results


def _per_lane_rms(residual: np.ndarray, lane_of: np.ndarray, k: int):
    return [float(np.sqrt(np.mean(residual[lane_of == i] ** 2)))
            for i in range(k)]


def _build_curves(lanes, form, rho, betas) -> list[Curve2D]:
    curves = []
    for i, l in enumerate(lanes):
        curves.append(Curve2D(
            rho=rho,
            beta_prime=float(betas[2 * i]),
            beta_dprime=float(betas[2 * i + 1]),
            v_low=float(l[:, 1].min()),
            v_up=float(l[:, 1].max()),
            confidence=1.0,
            form=form,
        ))
    return curves
