"""Minimum-cost bipartite matching with a deterministic tie-break.

``hungarian`` returns a one-to-one assignment of ``min(n, m)`` pairs with
minimum total cost.  Among equally cheap assignments it returns the one
whose pair list, sorted by row, is lexicographically smallest — lowest
row index first, then lowest column index.  ``inf`` entries mark
forbidden pairs; an assignment is infeasible if every completion of the
required size uses one.

The solver works in exact integer arithmetic.  Every float is a dyadic
rational, so the costs are scaled to Python ints without rounding, and
the matrix is padded to square with zero-cost dummy rows or columns
that take the highest indices.  The tie-break is part of those
integers: every entry is multiplied by ``(m + 1) ** n`` and row ``r``'s
column adds the digit ``col * (m + 1) ** (n - 1 - r)``, a dummy column
the digit ``m``.  Read with an unmatched row as column ``m``, two pair
lists compare as their digit vectors do, and the digits of a whole
assignment sum to less than one unit of scaled cost.  So the encoded
matrix has a single optimum: the cheapest assignment with the smallest
pair list.  One shortest-augmenting-path solve (Jonker & Volgenant,
*Computing* 1987; the rectangular form in Crouse, IEEE TAES 2016) finds
it.  ``total_cost`` is the ``math.fsum`` of the chosen entries.

A certificate is checked on the float matrices first, a whole
``(T, n, m)`` stack at once (``_row_minima``).  Orient them so that rows
are the shorter side.  If every row's minimum is finite, strictly below
the rest of its row and in a column no other row's minimum uses, taking
each row's minimum is the unique optimum: the sum of the row minima is
a lower bound on every full assignment, reached only by that one.
Being unique, it is also the lexicographically smallest, so it is
returned without the exact solve.  Any tie, ``-0.0`` against ``0.0``
included, sends the matrix to the solver.  ``_assign_stack`` checks the
stack and solves only the matrices that fail; ``hungarian`` is its
stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleAssignment

__all__ = ["MatchResult", "hungarian"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a bipartite matching.

    ``pairs`` lists ``(row, column)`` assignments sorted by row;
    ``total_cost`` is the exact sum of the selected entries, correctly
    rounded (``math.fsum``).  The mapping is injective on both sides.
    """

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    @property
    def assignment(self) -> dict[int, int]:
        """Row index -> column index for every matched row."""
        return dict(self.pairs)

    @property
    def matched_rows(self) -> frozenset[int]:
        return frozenset(r for r, _ in self.pairs)

    @property
    def matched_cols(self) -> frozenset[int]:
        return frozenset(c for _, c in self.pairs)


def hungarian(cost) -> MatchResult:
    """Minimum-cost assignment of ``min(n, m)`` row/column pairs.

    ``cost`` is an ``n x m`` matrix; ``inf`` marks forbidden pairs.
    Raises NoFeasibleAssignment when no full-size assignment avoids the
    forbidden entries, and ValueError on NaN or non-matrix input.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {c.shape}")
    if np.isnan(c).any():
        raise ValueError("cost matrix contains NaN")
    if (c == -np.inf).any():
        raise ValueError("cost matrix contains -inf")
    rows, cols = _assign_stack(c[None])
    pairs = tuple(zip(rows[0].tolist(), cols[0].tolist()))
    return MatchResult(pairs=pairs,
                       total_cost=math.fsum(c[r, col] for r, col in pairs))


def _row_minima(stack: np.ndarray):
    """The certificate over a ``(T, n, m)`` stack of NaN-free matrices.

    Returns ``(certified, rows, cols)``: ``certified[t]`` tells whether
    matrix t passes, and ``rows[t]``, ``cols[t]`` hold its ``min(n, m)``
    row-minima pairs sorted by row, which mean nothing where it fails.
    With ``n <= m`` each row must own a finite minimum that no other entry
    of the row equals, in a column of its own; with ``n > m`` the same
    holds for the columns.
    """
    flip = stack.shape[1] > stack.shape[2]
    t = stack.transpose(0, 2, 1) if flip else stack
    size, lines = t.shape[:2]
    mins = t.min(axis=2, keepdims=True)
    hits = t == mins
    # Every line hits its minimum, so ``lines`` hits in all means one per
    # line, and hits in ``lines`` columns mean no column is shared.
    certified = (
        (mins.reshape(size, lines) < np.inf).all(axis=1)
        & (hits.reshape(size, -1).sum(axis=1) == lines)
        & (hits.any(axis=1).sum(axis=1) == lines)
    )
    picks = hits.argmax(axis=2)
    if not flip:
        return certified, np.tile(np.arange(lines), (size, 1)), picks
    order = picks.argsort(axis=1)
    return certified, np.take_along_axis(picks, order, axis=1), order


def _assign_stack(stack: np.ndarray):
    """``hungarian``'s pairs for every matrix of a ``(T, n, m)`` stack
    without NaN or ``-inf``.

    Returns ``(rows, cols)``, each ``(T, min(n, m))``: matrix t's pairs
    sorted by row.  The certificate is checked on the whole stack at once,
    and only the matrices it fails on are solved exactly, one by one.
    """
    if 0 in stack.shape[1:]:
        none = np.zeros((stack.shape[0], 0), dtype=np.intp)
        return none, none
    certified, rows, cols = _row_minima(stack)
    for t in np.flatnonzero(~certified).tolist():
        rows[t], cols[t] = _exact_pairs(stack[t])
    return rows, cols


def _exact_pairs(c: np.ndarray) -> np.ndarray:
    """The rows and columns, as a ``(2, min(n, m))`` array, of the one
    optimum of ``c``'s encoded integer costs."""
    n, m = c.shape
    allowed = np.isfinite(c)
    col4row = _augment(_exact_costs(c, allowed))
    pairs = [(r, col) for r, col in enumerate(col4row[:n]) if col < m]
    if not all(allowed[r, col] for r, col in pairs):
        raise NoFeasibleAssignment(
            "every full-size assignment uses a forbidden (inf) pair"
        )
    return np.array(pairs).T


def _exact_costs(c: np.ndarray, allowed: np.ndarray) -> list[list[int]]:
    """``c`` as exact integers with the tie-break encoded, padded with
    zero rows/columns to square.

    Every float is a dyadic rational, ``num / 2**k``, so shifting each
    numerator up to the largest denominator scales all entries by one
    power of two, exactly.  Each entry is then multiplied by
    ``(m + 1) ** n`` and gets its row's digit for its column (see the
    module docstring): costs that differ still differ by more than any
    two assignments' digit sums, and equal costs are ordered by pair
    list.  A forbidden entry costs more than the spread of every
    all-finite total, so an assignment that avoids forbidden pairs, when
    one exists, is always the cheaper.
    """
    n, m = c.shape
    size = max(n, m)
    ratios = [[x.as_integer_ratio() for x in line]
              for line in np.where(allowed, c, 0.0).tolist()]
    bits = max(den for line in ratios for _, den in line).bit_length()
    scale = (m + 1) ** n
    places = [(m + 1) ** (n - 1 - r) for r in range(n)]
    work = [[(num << (bits - den.bit_length())) * scale + col * place
             for col, (num, den) in enumerate(line)] + [m * place] * (size - m)
            for line, place in zip(ratios, places)]
    forbidden = 2 * sum(abs(x) for line in work for x in line) + 1
    for r, col in np.argwhere(~allowed).tolist():
        work[r][col] = forbidden
    work.extend([0] * size for _ in range(size - n))
    return work


def _augment(cost: list[list[int]]):
    """Shortest augmenting paths on a square integer matrix.

    Each row in turn joins the matching along a shortest path in the
    reduced costs ``cost - u - v`` (a Dijkstra scan over columns), after
    which the duals are moved so that every reduced cost stays >= 0 and
    every matched pair's is 0.  Returns ``col4row``, an optimal
    assignment.
    """
    size = len(cost)
    u = [0] * size
    v = [0] * size
    col4row = [-1] * size
    row4col = [-1] * size
    for start in range(size):
        dist = [math.inf] * size
        via = [-1] * size
        rows_seen = []
        cols_seen = []
        todo = list(range(size))
        row, reach, sink = start, 0, -1
        while sink < 0:
            rows_seen.append(row)
            base = reach - u[row]
            line = cost[row]
            best, pick = math.inf, -1
            for k, col in enumerate(todo):
                d = base + line[col] - v[col]
                if d < dist[col]:
                    dist[col] = d
                    via[col] = row
                else:
                    d = dist[col]
                if d < best or (d == best and row4col[col] < 0):
                    best, pick = d, k
            reach = best
            col = todo[pick]
            todo[pick] = todo[-1]
            todo.pop()
            cols_seen.append(col)
            if row4col[col] < 0:
                sink = col
            else:
                row = row4col[col]
        u[start] += reach
        for row in rows_seen[1:]:
            u[row] += reach - dist[col4row[row]]
        for col in cols_seen:
            v[col] -= reach - dist[col]
        col = sink
        while True:
            row = via[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == start:
                break
    return col4row
