"""Metric report containers and the frame plumbing of every protocol.

Besides the report types, this module holds what the protocol modules
share: the frame-id and tau-list checks, the block driver of every
command (``_blockwise``: a block of frames is scored together, and again
frame by frame if it raises), every protocol's cut and gather
(``_frame_blocks``), the assembly of a ``MetricReport`` from per-frame
counts (``_assemble``) and the one threshold-sweep loop (``_sweep``).
Every protocol splits its work in two: per-frame *cores* hold what does
not depend on the swept threshold, and a *gate* turns a core into the
frame's counts and errors at a threshold.  A report is ``_assemble``
over each core gated at the configured threshold; a sweep hands each
core's gate every threshold in one call, so each row equals the
standalone report there.  Every protocol evaluates its frames in order
on the calling thread.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import _visible_points

__all__ = ["FrameStats", "MetricReport", "prf", "ordering_hash"]


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, and F1 with the zero-denominator convention.

    An undefined ratio (no predictions, or no ground truths) is reported
    as 0, and F1 is 0 whenever precision + recall is 0.
    """
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def ordering_hash(
    frame_ids: list[str], gt_counts: list[int], pred_counts: list[int]
) -> str:
    """Content hash of the evaluation ordering.

    Digests the frame sequence and each frame's lane counts so a report
    records exactly which ordering produced it (prediction iteration
    order is semantically significant for the bidirectional protocol).
    """
    digest = hashlib.sha256()
    for fid, ng, n_pred in zip(frame_ids, gt_counts, pred_counts):
        digest.update(f"{fid}:{ng}:{n_pred}\n".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class FrameStats:
    """Per-frame counts plus the error of each accepted pair."""

    frame_id: str
    tp: int
    fp: int
    fn: int
    pair_errors: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        return {
            "frame_id": self.frame_id,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "pair_errors": list(self.pair_errors),
        }


@dataclass(frozen=True)
class MetricReport:
    """Aggregated evaluation outcome of one protocol run.

    ``error_stat`` is the protocol's headline error (mean unilateral CD
    over accepted pairs, mean bidirectional CD, worst-case statistic, or
    pointwise errors) and is ``None`` when no pair qualified to define
    it.  ``sweep_rows`` carries ``(tau, precision, recall, f1)`` rows
    when the report wraps a threshold sweep.
    """

    protocol: str
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    error_name: str
    error_stat: float | None
    per_frame: tuple[FrameStats, ...] = ()
    variant: str | None = None
    extra_stats: dict = field(default_factory=dict)
    ordering: str = ""
    sweep_rows: tuple[tuple[float, float, float, float], ...] | None = None

    def __post_init__(self):
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValueError("counts must be non-negative")

    def as_dict(self) -> dict:
        out = {
            "format_version": 1,
            "protocol": self.protocol,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "error_name": self.error_name,
            "error_stat": self.error_stat,
            "per_frame": [f.as_dict() for f in self.per_frame],
            "ordering_hash": self.ordering,
        }
        if self.variant is not None:
            out["variant"] = self.variant
        if self.extra_stats:
            out["extra_stats"] = dict(self.extra_stats)
        if self.sweep_rows is not None:
            out["sweep"] = [list(row) for row in self.sweep_rows]
        return out


# ---------------------------------------------------------------------------
# frame plumbing shared by the protocols
# ---------------------------------------------------------------------------


def _frame_ids(frames, frame_ids) -> list[str]:
    """The given ids, one per frame, or ``"0"``, ``"1"``, ... by default."""
    if frame_ids is None:
        return [str(i) for i in range(len(frames))]
    ids = list(frame_ids)
    if len(ids) != len(frames):
        raise ValueError(f"{len(ids)} frame ids for {len(frames)} frames")
    return ids


def _tau_list(taus) -> list[float]:
    """A sweep's thresholds as floats: at least one, each > 0."""
    taus = [float(t) for t in taus]
    if not taus:
        raise ConfigError("tau sweep list is empty")
    if any(not t > 0 for t in taus):
        raise ConfigError(f"tau values must be > 0, got {taus}")
    return taus


# Lanes times their largest point count (input or resampled) per frame
# block: bounds the memory of one block of any protocol's lane arrays.
_BLOCK_POINTS = 1 << 13


def _blockwise(blocks, score):
    """Every frame's result, block by block: the one driver of every
    command.  ``score(block)`` gives a list of one result per frame of a
    block (a list of frames).  A block that raises is scored again one
    frame at a time, so the error raised is that of the first frame that
    fails on its own, after every frame before it is scored."""
    for block in blocks:
        try:
            results = score(block)
        except Exception:
            if len(block) == 1:
                raise
            results = [r for frame in block for r in score([frame])]
        yield from results


def _frame_blocks(frames, n: int, scored, score, *columns):
    """Every frame's result of ``score``, block by block (``_blockwise``).

    The cut: consecutive frames whose scored lanes (``scored(frame)``),
    times the largest of their point counts and ``n``, stay within
    ``_BLOCK_POINTS``; a frame over the bound forms a block alone.  The
    gather, inside the scored block, is one ``_visible_points`` call,
    which raises for the first lane short of 2 visible points.  Then
    ``score(block, points, first, at, *values)`` gets the block's frames,
    their scored lanes' visible points, lane i on rows
    ``first[i]:first[i + 1]`` and frame f's lanes ``at[f]:at[f + 1]``,
    and the block's share of each of ``columns`` (one value per frame)."""
    def gathered(rows):
        block, block_lanes, *values = zip(*rows)
        at = [0, *itertools.accumulate(map(len, block_lanes))]
        points, counts = _visible_points([lane for lanes in block_lanes
                                          for lane in lanes])
        return score(block, points, np.concatenate([[0], np.cumsum(counts)]), at,
                     *values)

    def cut():
        rows, size, width = [], 0, n
        for frame, *values in zip(frames, *columns):
            lanes = scored(frame)
            frame_width = max([n, *(len(lane.points) for lane in lanes)])
            if rows and (size + len(lanes)) * max(width, frame_width) > _BLOCK_POINTS:
                yield rows
                rows, size, width = [], 0, n
            rows.append((frame, lanes, *values))
            size += len(lanes)
            width = max(width, frame_width)
        if rows:
            yield rows

    return _blockwise(cut(), gathered)


def _assemble(
    protocol: str,
    frame_ids: list[str],
    frame_counts,
    error_name: str,
    error_values: list[float] | None = None,
    variant: str | None = None,
    aggregate: str = "mean",
    extra_stats: dict | None = None,
) -> MetricReport:
    """A report from each frame's ``(tp, fp, fn, pair_errors)``.

    Sums the per-frame counts and aggregates the error values, which
    default to every frame's pair errors in frame order.  The error
    statistic is the mean (``math.fsum``) or the max of the error
    values, and ``None`` when there are none.
    """
    stats = [
        FrameStats(frame_id=fid, tp=tp, fp=fp, fn=fn, pair_errors=tuple(errors))
        for fid, (tp, fp, fn, errors) in zip(frame_ids, frame_counts)
    ]
    if error_values is None:
        error_values = [e for s in stats for e in s.pair_errors]
    tp = sum(s.tp for s in stats)
    fp = sum(s.fp for s in stats)
    fn = sum(s.fn for s in stats)
    precision, recall, f1 = prf(tp, fp, fn)
    if error_values:
        if aggregate == "max":
            error_stat = max(error_values)
        else:
            error_stat = math.fsum(error_values) / len(error_values)
    else:
        error_stat = None
    return MetricReport(
        protocol=protocol,
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        error_name=error_name,
        error_stat=error_stat,
        per_frame=tuple(stats),
        variant=variant,
        extra_stats=extra_stats or {},
        ordering=ordering_hash(
            [s.frame_id for s in stats],
            [s.tp + s.fn for s in stats],
            [s.tp + s.fp for s in stats],
        ),
    )


def _sweep(cores, gate, taus) -> tuple[tuple[float, float, float, float], ...]:
    """``(tau, precision, recall, f1)`` rows, one per threshold of the
    checked list ``taus``.  ``gate(core)`` gives one frame's
    ``(tp, fp, fn)`` at every threshold of ``taus`` in one call."""
    totals = np.zeros((len(taus), 3), dtype=np.int64)
    for core in cores:
        totals += gate(core)
    return tuple((tau, *prf(*counts)) for tau, counts in zip(taus, totals.tolist()))
