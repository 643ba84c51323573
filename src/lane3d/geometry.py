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
and the best candidate's scoring gives the linear parameters.  All
frames of a call lie end to end in flat arrays and take each search step
together, one scoring call per step whatever their point and lane
counts; each keeps its own bracket and gets the result it would get
alone.  Every sum over a frame's or a lane's points is one
``np.add.reduceat`` segment and nothing goes through BLAS or LAPACK, so
a fit is the same bytes on any CPU.
"""

from __future__ import annotations

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
# A reduced shared column shorter than this fraction of its raw norm is
# treated as dependent on the columns before it and gets coefficient 0.
_DEPENDENT = 1e-8


class _Flat:
    """Fits laid end to end: ``u`` and ``v`` hold every fit's points, lane
    after lane and fit after fit, and ``lane_n`` and ``fit_n`` count each
    lane's and each fit's points.

    Every sum over one lane's or one fit's points is one ``np.add.reduceat``
    segment, so it depends on that segment alone: a fit's result does not
    depend on the fits laid out with it, and no sum goes through BLAS.
    ``c`` holds each lane's rows about their centre, ``centre``, and ``y``
    is ``u`` with each lane's [v, 1] span projected out.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, lane_n: np.ndarray,
                 fit_n: np.ndarray):
        self.v, self.lane_n, self.fit_n = v, lane_n, fit_n
        self.lane_start = np.cumsum(lane_n) - lane_n
        self.fit_start = np.cumsum(fit_n) - fit_n
        mean = self.lane_sum(v) / lane_n
        c = v - self.per_lane(mean)
        offset = self.lane_sum(c) / lane_n  # one pass leaves a rounding offset
        self.c = c - self.per_lane(offset)
        self.centre, self.cc = mean + offset, self.lane_sum(self.c * self.c)
        self.y = u - self.bias_part(u)

    def lane_sum(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, self.lane_start, axis=-1)

    def fit_sum(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, self.fit_start, axis=-1)

    def per_lane(self, s: np.ndarray) -> np.ndarray:
        return s.repeat(self.lane_n, axis=-1)

    def per_fit(self, s: np.ndarray) -> np.ndarray:
        return s.repeat(self.fit_n, axis=-1)

    def bias_fit(self, x: np.ndarray):
        """Each lane's least-squares slope on ``c`` and mean of ``x``."""
        return self.lane_sum(x * self.c) / self.cc, self.lane_sum(x) / self.lane_n

    def bias_part(self, x: np.ndarray) -> np.ndarray:
        """The projection of ``x`` on each lane's [v, 1] span."""
        slope, mean = self.bias_fit(x)
        return self.per_lane(mean) + self.c * self.per_lane(slope)


def _score_candidates(fits: _Flat, cols: np.ndarray):
    """Variable-projection scores of every fit's candidates in one pass.

    ``cols`` is (column, candidate, point): each candidate's two shared
    columns at every point, and it is overwritten.  Both columns are
    projected off each lane's [v, 1] span, orthogonalized by Gram-Schmidt
    with one reorthogonalization, and taken off ``fits.y``.  A reduced
    column shorter than ``_DEPENDENT`` of its raw norm gets coefficient 0.
    Returns the residual sums of squares and the two columns'
    coefficients, back-substituted from the Gram-Schmidt ones, each
    (candidate, fit).
    """
    raw = fits.fit_sum(cols * cols)
    cols -= fits.bias_part(cols)
    a, b = cols
    aa, ab = fits.fit_sum(cols * a)
    # an infinite norm sets every ratio with it to 0: the column drops out
    aa[aa <= _DEPENDENT**2 * raw[0]] = np.inf
    mu = ab / aa
    b -= a * fits.per_fit(mu)
    mu2 = fits.fit_sum(a * b) / aa
    b -= a * fits.per_fit(mu2)
    bb = fits.fit_sum(b * b)
    bb[bb <= _DEPENDENT**2 * raw[1]] = np.inf
    ga = fits.fit_sum(a * fits.y) / aa
    r = fits.y - a * fits.per_fit(ga)
    gb = fits.fit_sum(b * r) / bb
    r -= b * fits.per_fit(gb)
    return fits.fit_sum(r * r), ga - gb * (mu + mu2), gb


def _check_frame(lanes_2d: Sequence[np.ndarray], image_size: tuple[int, int],
                 form: str) -> list[np.ndarray]:
    """Check one frame of FV lanes for fitting; returns its (n_i, 2) lanes."""
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
    n_pts = sum(l.shape[0] for l in lanes)
    n_params = (3 if form == "rational" else 2) + 2 * len(lanes)
    if n_pts < n_params:
        raise Underdetermined(f"{n_pts} points for {n_params} parameters")
    return lanes


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
    reported rms_history is non-increasing, and its coefficients are the
    fit's: the shared ones from its scoring, each lane's biases by least
    squares on what the shared columns leave.  The frames are searched in
    lockstep: one scoring call serves every frame's candidates at each
    step, and each frame keeps its own bracket, so its result does not
    depend on the other frames of the call.

    The constant term rho4 is pinned to 0 in every fit: with per-lane
    beta'' biases a shared constant column is a pure gauge freedom.  The
    "poly3" form likewise pins its constant and linear shared
    coefficients, keeping only the v^2 and v^3 columns shared; it is one
    scoring call with a single candidate.
    """
    if form not in CURVE_FORMS:
        raise ValueError(f"unknown curve form {form!r}")
    checked = [_check_frame(lanes_2d, image_size, form)
               for lanes_2d, image_size in frames]
    lanes = [l for frame in checked for l in frame]
    return _fit_flat(np.concatenate([l[:, 0] for l in lanes] or [np.empty(0)]),
                     np.concatenate([l[:, 1] for l in lanes] or [np.empty(0)]),
                     [l.shape[0] for l in lanes], [len(f) for f in checked], form)


def fit_curves(lanes_2d: Sequence[np.ndarray], image_size: tuple[int, int],
               form: str = "rational") -> FitResult:
    """Fit one frame of FV lanes: ``fit_frames`` on that frame alone."""
    return fit_frames([(lanes_2d, image_size)], form)[0]


def _fit_flat(u: np.ndarray, v: np.ndarray, lane_n, fit_lanes,
              form: str = "rational") -> list[FitResult]:
    """Fit checked frames laid end to end (see ``_Flat``): ``lane_n``
    counts each lane's points and ``fit_lanes`` each fit's lanes."""
    lane_n = np.asarray(lane_n, dtype=np.int64)
    fit_lanes = np.asarray(fit_lanes, dtype=np.int64)
    if not fit_lanes.size:
        return []
    first_lane = np.cumsum(fit_lanes) - fit_lanes
    fits = _Flat(u, v, lane_n, np.add.reduceat(lane_n, first_lane))
    if form == "poly3":
        cols = np.stack([v * v, v * v * v])
        _, x_a, x_b = _score_candidates(fits, cols[:, None].copy())
        x_a, x_b = x_a[0], x_b[0]
        shared = fits.per_fit(x_a) * cols[0] + fits.per_fit(x_b) * cols[1]
        rhos = [(0.0, 0.0, a, b) for a, b in zip(x_a.tolist(), x_b.tolist())]
    else:
        rho2, x_a, x_b, history = _search_rho2(fits)
        den = v - fits.per_fit(rho2)
        shared = fits.per_fit(x_a) / (den * den) + fits.per_fit(x_b) / den
        rhos = [(a, r2, b, 0.0)
                for a, r2, b in zip(x_a.tolist(), rho2.tolist(), x_b.tolist())]
    slope, mean = fits.bias_fit(u - shared)
    beta_dprime = mean - slope * fits.centre
    residual = (shared + fits.per_lane(slope) * v + fits.per_lane(beta_dprime)) - u
    squares = residual * residual
    rms = np.sqrt(fits.fit_sum(squares) / fits.fit_n).tolist()
    lane_rms = np.sqrt(fits.lane_sum(squares) / lane_n).tolist()
    if form == "poly3":
        history = np.array(rms)[:, None]
    curves = [Curve2D(rho=rho, beta_prime=bp, beta_dprime=bd, v_low=lo, v_up=up,
                      form=form)
              for rho, bp, bd, lo, up in zip(
                  [rho for rho, k in zip(rhos, fit_lanes.tolist()) for _ in range(k)],
                  slope.tolist(), beta_dprime.tolist(),
                  np.minimum.reduceat(v, fits.lane_start).tolist(),
                  np.maximum.reduceat(v, fits.lane_start).tolist())]
    return [FitResult(curves[i:i + k], rms[f], lane_rms[i:i + k], history[f].tolist())
            for f, (i, k) in enumerate(zip(first_lane.tolist(), fit_lanes.tolist()))]


def _search_rho2(fits: _Flat):
    """The rational fits' rho2 search, every fit in lockstep.

    Every fit brackets rho2 below its lowest sample row and refines it by
    golden-section over the projected residual; each step scores one
    candidate of every fit in one ``_score_candidates`` call.  Returns
    each fit's best rho2, the two shared coefficients scored there, and
    its rms after each round (fit, round).
    """
    v, count = fits.v, fits.fit_n.shape[0]
    vmin = np.minimum.reduceat(v, fits.fit_start)
    span = np.maximum(np.maximum.reduceat(v, fits.fit_start) - vmin, 32.0)
    hi = vmin - np.maximum(1.0, 1e-3 * span)
    lo = vmin - 5.0 * span
    every = np.arange(count)
    best_ss = np.full(count, math.inf)
    best = [hi.copy(), np.zeros(count), np.zeros(count)]  # rho2, x_a, x_b

    def accept(rho2: np.ndarray) -> np.ndarray:
        """Score candidates (evaluation order, fit), then keep each fit's
        best if better than its best so far (the first of equal scores
        wins)."""
        cols = np.empty((2, *rho2.shape[:1], v.shape[0]))
        np.divide(1.0, v - fits.per_fit(rho2), out=cols[1])
        np.multiply(cols[1], cols[1], out=cols[0])
        ss, x_a, x_b = _score_candidates(fits, cols)
        j = ss.argmin(axis=0)
        pick = ss[j, every]
        better = pick < best_ss
        best_ss[better] = pick[better]
        for kept, new in zip(best, (rho2, x_a, x_b)):
            kept[better] = new[j, every][better]
        return ss

    grid = np.linspace(lo, hi, 33)
    i0 = accept(grid).argmin(axis=0)
    a = grid[np.maximum(i0 - 1, 0), every]
    b = grid[np.minimum(i0 + 1, 32), every]

    history = np.empty((count, _FIT_ROUNDS))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = accept(np.stack([c, d]))
    for it in range(_FIT_ROUNDS):
        for _ in range(6):
            # fc < fd keeps [a, d]: c moves to d and a new c is scored;
            # otherwise [c, b] is kept, d moves to c and a new d is scored
            left = fc < fd
            a, b = np.where(left, a, c), np.where(left, d, b)
            new = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
            f_new = accept(new[None])[0]
            c, d = np.where(left, new, d), np.where(left, c, new)
            fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        history[:, it] = np.sqrt(best_ss / fits.fit_n)
    return (*best, history)
