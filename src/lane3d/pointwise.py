"""Pointwise (anchor-grid) lane evaluation with the 75% rule.

Lanes are compared on a shared grid of longitudinal y-anchors.  A
ground-truth/prediction pair's matching cost is the mean, over anchors
where the ground truth is visible, of the Euclidean distance in the
(x, z) plane, with each per-anchor distance capped at
``cap_multiplier * tau_dist`` so one outlier anchor cannot veto an
otherwise-correct match.  Matching is one-to-one and cost-minimal
(Hungarian; for one-to-one assignment this coincides with the min-cost
flow optimum).  A matched pair is a true positive when at least
``tp_fraction`` of the visible anchors lie within ``tau_dist``
(boundary inclusive).

Error statistics split by the ground-truth anchor's y: the near range
includes both endpoints; the far range includes its upper endpoint and
excludes its lower one when it abuts the near range.  A range with no
anchors reports its error as absent (None), never as zero.

Predictions are evaluated wherever the ground truth is visible: a
prediction that does not cover an anchor is charged the distance to its
nearest covered value (endpoint clamping of the resampler), mirroring
how a short prediction fails to explain the far ground truth.

Frames are taken in blocks from ``report._frame_blocks``, which gathers
each block's lanes once, inside the scored block, and scores a block
that raises again frame by frame; each block is resampled onto the
anchors in one ``_resample_lanes_at_y`` call.  Each frame's core holds
what does not depend on the threshold.  Ground truths are grouped by
their number k of visible anchors, with a stack of their visible-anchor
distances per group, so a cost matrix at any cap is one capped mean per
group.  Each pair also gets its TP threshold: the c-th smallest of its k
visible distances, where c is the least count with ``c / k >=
tp_fraction``.  At least c anchors lie within tau exactly when that
distance is ``<= tau``, so the 75% rule at any tau is one comparison.
The gate takes any number of thresholds in one call: the cost matrices
of every cap form one ``(tau, Ng, Np)`` stack, matched together
(``matching._assign_stack``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnchorMismatch, ConfigError
from .geometry import _ANCHOR_TOL, Lane3D, SampleGrid, _resample_lanes_at_y
from .matching import MatchResult, _assign_stack, hungarian
from .report import (MetricReport, _assemble, _frame_blocks, _frame_ids, _sweep,
                     _tau_list)

__all__ = [
    "PointwiseConfig",
    "pointwise_match",
    "pointwise_tp",
    "xz_errors",
    "openlane_report",
    "pointwise_sweep",
]


@dataclass(frozen=True)
class PointwiseConfig:
    """Thresholds and ranges of the pointwise protocol."""

    tau_dist: float = 1.5
    tp_fraction: float = 0.75
    near_range: tuple[float, float] = (0.0, 40.0)
    far_range: tuple[float, float] = (40.0, 100.0)
    cap_multiplier: float = 1.5

    def __post_init__(self):
        if not float(self.tau_dist) > 0:
            raise ConfigError(f"tau_dist must be > 0, got {self.tau_dist!r}")
        object.__setattr__(self, "tau_dist", float(self.tau_dist))
        frac = float(self.tp_fraction)
        if not 0 < frac <= 1:
            raise ConfigError(f"tp_fraction must be in (0, 1], got {frac!r}")
        object.__setattr__(self, "tp_fraction", frac)
        near = tuple(float(v) for v in self.near_range)
        far = tuple(float(v) for v in self.far_range)
        if len(near) != 2 or len(far) != 2:
            raise ConfigError("ranges must be (low, high) pairs")
        if not all(map(math.isfinite, near + far)):
            raise ConfigError(f"ranges must be finite, got near={near}, far={far}")
        if not (near[0] < near[1] <= far[0] < far[1]):
            raise ConfigError(
                "ranges must be increasing and non-overlapping, got "
                f"near={near}, far={far}"
            )
        object.__setattr__(self, "near_range", near)
        object.__setattr__(self, "far_range", far)
        if not float(self.cap_multiplier) > 0:
            raise ConfigError(
                f"cap_multiplier must be > 0, got {self.cap_multiplier!r}"
            )
        object.__setattr__(self, "cap_multiplier", float(self.cap_multiplier))
        # a finite cap needs a finite tau_dist and cap_multiplier
        _cost_caps(self, [self.tau_dist])


def _range_masks(
    y: np.ndarray, config: PointwiseConfig
) -> tuple[np.ndarray, np.ndarray]:
    near_lo, near_hi = config.near_range
    far_lo, far_hi = config.far_range
    near = (y >= near_lo) & (y <= near_hi)
    if far_lo == near_hi:
        far = (y > far_lo) & (y <= far_hi)
    else:
        far = (y >= far_lo) & (y <= far_hi)
    return near, far


def _shared_anchors(lanes: list[Lane3D]) -> np.ndarray:
    anchors = lanes[0].points[:, 1]
    for k, lane in enumerate(lanes[1:], start=1):
        other = lane.points[:, 1]
        if other.shape != anchors.shape or np.abs(other - anchors).max() > _ANCHOR_TOL:
            raise AnchorMismatch(
                f"lane {k} is not on the shared y-anchor grid"
            )
    return anchors


@dataclass(frozen=True)
class _FrameArrays:
    """Per-frame anchor-aligned pair data: everything that does not
    depend on the threshold."""

    anchors: np.ndarray  # (J,)
    gt_vis: np.ndarray  # (Ng, J) bool
    dist: np.ndarray  # (Ng, Np, J) xz Euclidean distance
    dx: np.ndarray  # (Ng, Np, J) |delta x|
    dz: np.ndarray  # (Ng, Np, J) |delta z|
    # One (rows, distances) entry per visible-anchor count k: the ground
    # truths with k visible anchors and their (G, k, Np) xz distances to
    # every prediction at those anchors, in anchor order.
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    # (Ng, Np): the pair passes the 75% rule at tau exactly when this is
    # <= tau; inf for a ground truth with no visible anchor.
    tp_threshold: np.ndarray

    @property
    def n_gt(self) -> int:
        return self.gt_vis.shape[0]

    @property
    def n_pred(self) -> int:
        return self.dist.shape[1]


def _frame_arrays(gt_lanes, pred_lanes, anchors, tp_fraction) -> _FrameArrays:
    """One frame's arrays: a block of one of ``_frame_cores``."""
    return next(_frame_cores([(gt_lanes, pred_lanes)], anchors, tp_fraction))


def _frame_cores(frames, anchors: np.ndarray, tp_fraction: float):
    """Every frame's arrays, in order.  Every lane is scored, frame by
    frame and ground truths first; each block of ``report._frame_blocks``
    is resampled onto the anchors in one call."""
    def score(block, points, first, at):
        x, z, vis = _resample_lanes_at_y(
            points[:, 1], points[:, 0], points[:, 2], first, anchors)
        cores = []
        for (gt_lanes, pred_lanes), lane in zip(block, at):
            g = slice(lane, lane + len(gt_lanes))
            p = slice(g.stop, g.stop + len(pred_lanes))
            gv = vis[g] > 0.5
            dx = np.abs(x[g, None, :] - x[None, p, :])
            dz = np.abs(z[g, None, :] - z[None, p, :])
            dist = np.sqrt(dx * dx + dz * dz)

            groups = []
            threshold = np.full(dist.shape[:2], np.inf)
            n_vis = gv.sum(axis=1)
            for k in sorted(set(n_vis.tolist()) - {0}):
                rows = np.flatnonzero(n_vis == k)
                cols = np.nonzero(gv[rows])[1].reshape(rows.size, k, 1)
                stack = np.take_along_axis(dist[rows].transpose(0, 2, 1), cols, axis=1)
                groups.append((rows, stack))
                # At least ``rank`` of the k anchors must lie within tau, so
                # the rank-th smallest distance is the least passing tau.
                rank = next(c for c in range(1, k + 1) if c / k >= tp_fraction)
                threshold[rows] = np.sort(stack, axis=1)[:, rank - 1]
            cores.append(_FrameArrays(anchors=anchors, gt_vis=gv, dist=dist, dx=dx,
                                      dz=dz, groups=tuple(groups),
                                      tp_threshold=threshold))
        return cores

    return _frame_blocks(frames, anchors.size, lambda f: (*f[0], *f[1]), score)


def _cost_caps(config: PointwiseConfig, taus) -> np.ndarray:
    """The per-anchor cost cap ``cap_multiplier * tau`` of each threshold.

    Raises ConfigError for a cap that is not finite: a ground truth
    without a visible anchor costs the cap against every prediction, so
    an infinite cap would leave no feasible assignment.
    """
    caps = [config.cap_multiplier * tau for tau in taus]
    for tau, cap in zip(taus, caps):
        if not math.isfinite(cap):
            raise ConfigError(
                f"cost cap cap_multiplier * tau = {config.cap_multiplier!r} "
                f"* {tau!r} is not finite"
            )
    return np.array(caps)


def _cost_stack(arrays: _FrameArrays, caps: np.ndarray) -> np.ndarray:
    """``(T, Ng, Np)`` cost matrices, one per cap of ``caps``.

    Each group's ``(G, k, Np)`` stack is capped at every cap at once and
    summed over its k anchors.  Each (k, Np) slab lies in memory as a
    ground truth's (Np, k) selection of ``dist`` does, so NumPy sums it in
    the same order: the means are bit for bit the per-row
    ``.mean(axis=1)`` at each cap.
    """
    cost = np.empty((caps.size, arrays.n_gt, arrays.n_pred))
    cost[...] = caps[:, None, None]
    for rows, stack in arrays.groups:
        capped = np.minimum(stack, caps[:, None, None, None])
        cost[:, rows] = capped.sum(axis=2) / stack.shape[1]
    return cost


# ---------------------------------------------------------------------------
# public pair/frame operations
# ---------------------------------------------------------------------------


def pointwise_match(
    gt_lanes: list[Lane3D],
    pred_lanes: list[Lane3D],
    config: PointwiseConfig | None = None,
) -> MatchResult:
    """Cost-minimal one-to-one assignment of anchor-aligned lanes.

    All lanes must already sit on the same y-anchor grid.  Rows of the
    returned assignment are ground-truth indices.
    """
    config = config or PointwiseConfig()
    if not gt_lanes or not pred_lanes:
        return MatchResult(pairs=(), total_cost=0.0)
    caps = _cost_caps(config, [config.tau_dist])
    anchors = _shared_anchors(gt_lanes + pred_lanes)
    arrays = _frame_arrays(gt_lanes, pred_lanes, anchors, config.tp_fraction)
    return hungarian(_cost_stack(arrays, caps)[0])


def pointwise_tp(
    gt: Lane3D, pred: Lane3D, config: PointwiseConfig | None = None
) -> bool:
    """75%-rule acceptance for one matched, anchor-aligned pair."""
    config = config or PointwiseConfig()
    anchors = _shared_anchors([gt, pred])
    arrays = _frame_arrays([gt], [pred], anchors, config.tp_fraction)
    return bool(arrays.tp_threshold[0, 0] <= config.tau_dist)


def xz_errors(
    matched_pairs: list[tuple[Lane3D, Lane3D]],
    config: PointwiseConfig | None = None,
) -> tuple[float | None, float | None, float | None, float | None]:
    """(E_x near, E_x far, E_z near, E_z far) over accepted pairs.

    Means of |delta x| and |delta z| across visible ground-truth anchors
    whose y falls in each range; a range containing no anchors reports
    None.
    """
    config = config or PointwiseConfig()
    sums = [0.0] * 4
    counts = [0] * 4
    for gt, pred in matched_pairs:
        anchors = _shared_anchors([gt, pred])
        arrays = _frame_arrays([gt], [pred], anchors, config.tp_fraction)
        _accumulate_errors(arrays, [(0, 0)], config, sums, counts)
    return tuple(
        (s / c if c else None) for s, c in zip(sums, counts)
    )


def _accumulate_errors(
    arrays: _FrameArrays,
    pairs,
    config: PointwiseConfig,
    sums: list[float],
    counts: list[int],
) -> None:
    """Add each pair's |dx| and |dz| sums over its ground truth's visible
    anchors in the near and far ranges to ``sums`` (E_x near, E_x far,
    E_z near, E_z far), one pair at a time in order, and the anchor
    counts to ``counts``."""
    near, far = _range_masks(arrays.anchors, config)
    ranges = (arrays.gt_vis & near, arrays.gt_vis & far)  # (Ng, J) each
    sizes = [sel.sum(axis=1).tolist() for sel in ranges]
    slots = [(arrays.dx, 0), (arrays.dx, 1), (arrays.dz, 0), (arrays.dz, 1)]
    for i, j in pairs:
        for slot, (grid, r) in enumerate(slots):
            if sizes[r][i]:
                sums[slot] += float(grid[i, j][ranges[r][i]].sum())
                counts[slot] += sizes[r][i]


# ---------------------------------------------------------------------------
# frame reports
# ---------------------------------------------------------------------------


# Thresholds gated per array pass: bounds the (taus, G, k, Np) capped
# stacks of one frame for long threshold lists.
_TAU_CHUNK = 64


def _gate_frame(
    arrays: _FrameArrays, taus: np.ndarray, caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One frame's matched pairs at every threshold of ``taus``.

    Returns ``(rows, cols, accepted, costs)``, each ``(T, min(Ng, Np))``:
    the pairs of the matching at cost cap ``caps[t]``, sorted by ground
    truth, whether each pair's TP threshold is ``<= taus[t]``, and each
    pair's entry of the cost matrix it was matched on.  The cost matrices
    of up to ``_TAU_CHUNK`` thresholds are built and matched in one pass.
    """
    parts = []
    for start in range(0, taus.size, _TAU_CHUNK):
        chunk = slice(start, start + _TAU_CHUNK)
        cost = _cost_stack(arrays, caps[chunk])
        rows, cols = _assign_stack(cost)
        accepted = arrays.tp_threshold[rows, cols] <= taus[chunk, None]
        costs = cost[np.arange(cost.shape[0])[:, None], rows, cols]
        parts.append((rows, cols, accepted, costs))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(part) for part in zip(*parts))


def openlane_report(
    frames,
    config: PointwiseConfig | None = None,
    grid: SampleGrid | None = None,
    frame_ids=None,
) -> MetricReport:
    """Pointwise protocol over ``(gt_lanes, pred_lanes)`` frames.

    Lanes are resampled onto ``grid.y_anchors`` before matching.  The
    four range errors are returned in ``extra_stats`` (absent ranges as
    None); counts follow the 75% rule.
    """
    config = config or PointwiseConfig()
    grid = grid or SampleGrid()
    ids = _frame_ids(frames, frame_ids)
    anchors = np.asarray(grid.y_anchors, dtype=float)
    caps = _cost_caps(config, [config.tau_dist])
    taus = np.array([config.tau_dist])

    counts = []
    sums = [0.0] * 4
    n_anchors = [0] * 4
    for arrays in _frame_cores(frames, anchors, config.tp_fraction):
        rows, cols, accepted, costs = _gate_frame(arrays, taus, caps)
        tp_pairs = list(zip(rows[0][accepted[0]].tolist(),
                            cols[0][accepted[0]].tolist()))
        tp = len(tp_pairs)
        counts.append((tp, arrays.n_pred - tp, arrays.n_gt - tp,
                       costs[0][accepted[0]].tolist()))
        _accumulate_errors(arrays, tp_pairs, config, sums, n_anchors)
    names = ("e_x_near", "e_x_far", "e_z_near", "e_z_far")
    errors = {k: (s / c if c else None) for k, s, c in zip(names, sums, n_anchors)}
    return _assemble("openlane", ids, counts, "e_xz", [], extra_stats=errors)


def pointwise_sweep(
    frames,
    taus,
    config: PointwiseConfig | None = None,
    grid: SampleGrid | None = None,
) -> tuple[tuple[float, float, float, float], ...]:
    """(tau, precision, recall, f1) rows re-gating cached frame arrays.

    Each frame's anchor arrays are the core: visible-anchor distances
    grouped by visible count and each pair's TP threshold.  The gate takes
    every threshold of a frame in one call: it caps each group's
    distances at every ``cap_multiplier * tau`` at once, so one reduction
    per group gives the cost matrices of all thresholds; it checks the
    matching's row-minima certificate on the whole stack, solving only
    the matrices it fails on one by one, since the cost cap scales with
    tau and can change the matching; and it compares the matched pairs'
    TP thresholds with each tau.  So each row equals the standalone
    report at that threshold.
    """
    config = config or PointwiseConfig()
    grid = grid or SampleGrid()
    taus = _tau_list(taus)
    caps = _cost_caps(config, taus)
    thresholds = np.array(taus)
    anchors = np.asarray(grid.y_anchors, dtype=float)
    cores = _frame_cores(frames, anchors, config.tp_fraction)

    def gate(arrays: _FrameArrays) -> np.ndarray:
        tp = np.count_nonzero(_gate_frame(arrays, thresholds, caps)[2], axis=1)
        return np.column_stack((tp, arrays.n_pred - tp, arrays.n_gt - tp))

    return _sweep(cores, gate, taus)
