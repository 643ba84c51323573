"""Tests for minimum-cost matching against an exhaustive oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lane3d import matching
from lane3d.errors import NoFeasibleAssignment
from lane3d.matching import MatchResult, hungarian


def oracle(cost):
    """Exhaustive minimum with the same (total, pair-list) ordering.

    Enumerates every injective assignment of min(n, m) pairs, skipping
    forbidden (inf) entries, and returns the one minimizing exact total
    cost with ties broken by the row-sorted pair list.
    """
    c = np.asarray(cost, dtype=float)
    n, m = c.shape
    size = min(n, m)
    best = None
    for rows in itertools.combinations(range(n), size):
        for cols in itertools.permutations(range(m), size):
            if any(not np.isfinite(c[r, k]) for r, k in zip(rows, cols)):
                continue
            pairs = tuple(sorted(zip(rows, cols)))
            total = math.fsum(c[r, k] for r, k in pairs)
            key = (total, pairs)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return MatchResult(pairs=best[1], total_cost=best[0])


class TestHungarianExamples:
    def test_two_by_two_diagonal(self):
        result = hungarian([[1, 2], [2, 1]])
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == 2.0

    def test_single_row(self):
        result = hungarian([[3, 1, 2]])
        assert result.pairs == ((0, 1),)
        assert result.total_cost == 1.0

    def test_all_ties_pick_identity(self):
        result = hungarian([[1, 1], [1, 1]])
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == 2.0

    def test_tie_broken_by_column_then_row(self):
        # Both anti-diagonal and diagonal cost 4; identity is
        # lexicographically smaller.
        result = hungarian([[2, 2], [2, 2]])
        assert result.pairs == ((0, 0), (1, 1))
        # A cheaper anti-diagonal must win over lexicographic preference.
        result = hungarian([[2, 1], [1, 2]])
        assert result.pairs == ((0, 1), (1, 0))

    def test_empty_matrix(self):
        result = hungarian(np.zeros((0, 3)))
        assert result.pairs == ()
        assert result.total_cost == 0.0

    def test_more_rows_than_columns(self):
        result = hungarian([[5.0], [1.0], [3.0]])
        assert result.pairs == ((1, 0),)
        assert result.total_cost == 1.0

    def test_assignment_mapping(self):
        result = hungarian([[1, 2], [2, 1]])
        assert result.assignment == {0: 0, 1: 1}
        assert result.matched_rows == {0, 1}
        assert result.matched_cols == {0, 1}


class TestHungarianOracle:
    def test_random_square_matrices(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            c = rng.uniform(-5.0, 5.0, size=(k, k))
            got = hungarian(c)
            want = oracle(c)
            assert got.pairs == want.pairs
            assert got.total_cost == want.total_cost

    def test_random_rectangular_matrices(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            c = rng.uniform(0.0, 10.0, size=(n, m))
            got = hungarian(c)
            want = oracle(c)
            assert got.pairs == want.pairs
            assert got.total_cost == want.total_cost

    def test_random_tie_heavy_matrices(self):
        # Small-integer entries create many exact ties; the deterministic
        # tie-break must match the oracle's pair-list ordering.
        rng = np.random.default_rng(53)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            c = rng.integers(0, 3, size=(n, m)).astype(float)
            got = hungarian(c)
            want = oracle(c)
            assert got.pairs == want.pairs
            assert got.total_cost == want.total_cost

    def test_random_matrices_with_forbidden_pairs(self):
        rng = np.random.default_rng(59)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(300):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            c = rng.uniform(0.0, 10.0, size=(n, m))
            mask = rng.random(size=(n, m)) < 0.4
            c[mask] = np.inf
            want = oracle(c)
            if want is None:
                infeasible_seen += 1
                with pytest.raises(NoFeasibleAssignment):
                    hungarian(c)
            else:
                feasible_seen += 1
                got = hungarian(c)
                assert got.pairs == want.pairs
                assert got.total_cost == want.total_cost
        assert feasible_seen > 50
        assert infeasible_seen > 20


class TestHungarianProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            c = rng.uniform(0.0, 10.0, size=(k, k))
            base = hungarian(c)
            perm = rng.permutation(k)
            shuffled = hungarian(c[:, perm])
            mapped = {(r, int(perm[k2])) for r, k2 in shuffled.pairs}
            assert mapped == set(base.pairs)
            assert shuffled.total_cost == base.total_cost

    def test_injective_both_sides(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            c = rng.integers(0, 2, size=(n, m)).astype(float)
            result = hungarian(c)
            rows = [r for r, _ in result.pairs]
            cols = [k for _, k in result.pairs]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)
            assert len(result.pairs) == min(n, m)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            hungarian([[1.0, float("nan")], [0.0, 1.0]])

    def test_negative_inf_rejected(self):
        with pytest.raises(ValueError):
            hungarian([[1.0, -np.inf], [0.0, 1.0]])

    def test_all_forbidden_row(self):
        with pytest.raises(NoFeasibleAssignment):
            hungarian([[np.inf, np.inf], [1.0, 2.0]])

    def test_forbidden_avoided_when_possible(self):
        c = np.array([[np.inf, 1.0], [1.0, 0.0]])
        result = hungarian(c)
        assert result.pairs == ((0, 1), (1, 0))
        assert result.total_cost == 2.0


# ---------------------------------------------------------------------------
# differential test against the SciPy-based solver that hungarian replaced
# ---------------------------------------------------------------------------


def scipy_hungarian(cost) -> MatchResult:
    """The former ``hungarian``: SciPy's optimum, then a fix-and-resolve
    pass that pins each row to its smallest column whose completion still
    reaches the optimal ``math.fsum`` total."""
    c = np.asarray(cost, dtype=float)
    n, m = c.shape
    if n == 0 or m == 0:
        return MatchResult(pairs=(), total_cost=0.0)
    allowed = np.isfinite(c)
    if allowed.all():
        work = c
    else:
        finite_scale = float(np.abs(c[allowed]).sum()) if allowed.any() else 0.0
        work = np.where(allowed, c, 2.0 * finite_scale + 1.0)

    def solve(sub):
        rows, cols = linear_sum_assignment(sub)
        return list(zip(rows.tolist(), cols.tolist()))

    def completes(fixed, rows, cols, target):
        values = [work[r, k] for r, k in fixed]
        if rows and cols:
            sub = work[np.ix_(rows, cols)]
            values += [sub[i, j] for i, j in solve(sub)]
        return len(values) == min(n, m) and math.fsum(values) == target

    base = solve(work)
    if not all(allowed[r, k] for r, k in base):
        raise NoFeasibleAssignment("every full-size assignment is forbidden")
    target = math.fsum(work[r, k] for r, k in base)
    fixed = []
    free_cols = list(range(m))
    for row in range(n):
        if len(fixed) == min(n, m):
            break
        for col in free_cols:
            if allowed[row, col] and completes(
                fixed + [(row, col)], list(range(row + 1, n)),
                [x for x in free_cols if x != col], target,
            ):
                fixed.append((row, col))
                free_cols.remove(col)
                break
    return MatchResult(pairs=tuple(fixed),
                       total_cost=math.fsum(c[r, k] for r, k in fixed))


def outcome(solver, cost):
    try:
        result = solver(cost)
    except NoFeasibleAssignment:
        return "infeasible"
    return result.pairs, result.total_cost


def random_shape(rng, low=1, high=8):
    return int(rng.integers(low, high)), int(rng.integers(low, high))


def integer_ties(rng, shape):
    return rng.integers(0, 3, size=shape).astype(float)


def quarter_ties(rng, shape):
    return rng.choice([0.0, 0.25, 0.5], size=shape)


def capped(rng, shape):
    # openlane: mean capped distances, and cost_cap for a gt row with no
    # visible anchor
    cap = 1.5
    c = np.minimum(rng.uniform(0.0, 2.0 * cap, size=shape), cap)
    c[rng.random(shape[0]) < 0.3] = cap
    return c


def negative_iou(rng, shape):
    # once/mbd match -iou, and most lane pairs do not overlap at all
    return -np.where(rng.random(shape) < 0.7, 0.0, rng.random(shape))


def with_forbidden(rng, shape):
    c = rng.uniform(0.0, 10.0, size=shape)
    c[rng.random(shape) < 0.4] = np.inf
    return c


class TestAgreesWithScipySolver:
    @pytest.mark.parametrize("make, seed", [
        (integer_ties, 71), (quarter_ties, 73), (capped, 79),
        (negative_iou, 83), (with_forbidden, 89),
    ])
    def test_random_small_matrices(self, make, seed):
        rng = np.random.default_rng(seed)
        shapes = {"tall": 0, "wide": 0, "infeasible": 0}
        for _ in range(400):
            n, m = random_shape(rng)
            c = make(rng, (n, m))
            want = outcome(scipy_hungarian, c)
            assert outcome(hungarian, c) == want, c
            shapes["tall"] += n > m
            shapes["wide"] += n < m
            shapes["infeasible"] += want == "infeasible"
        assert shapes["tall"] > 50 and shapes["wide"] > 50
        if make is with_forbidden:
            assert shapes["infeasible"] > 20

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrices(self, shape):
        c = np.zeros(shape)
        assert outcome(hungarian, c) == outcome(scipy_hungarian, c)

    @pytest.mark.parametrize("shape", [(20, 20), (30, 25), (25, 30),
                                       (40, 12), (12, 40)])
    def test_large_matrices(self, shape):
        rng = np.random.default_rng(97 + sum(shape))
        for make in (integer_ties, capped, negative_iou, with_forbidden):
            c = make(rng, shape)
            assert outcome(hungarian, c) == outcome(scipy_hungarian, c)
        c = rng.uniform(-5.0, 5.0, size=shape)
        assert outcome(hungarian, c) == outcome(scipy_hungarian, c)


def exact_oracle(cost):
    """The exhaustive oracle with totals compared as exact rationals."""
    c = np.asarray(cost, dtype=float)
    n, m = c.shape
    size = min(n, m)
    best = None
    for rows in itertools.combinations(range(n), size):
        for cols in itertools.permutations(range(m), size):
            pairs = tuple(sorted(zip(rows, cols)))
            key = (sum(Fraction(c[r, k]) for r, k in pairs), pairs)
            if best is None or key < best:
                best = key
    return best


def test_magnitude_spread_is_decided_exactly():
    # Entries from 1e-300 to 1e300 and the smallest subnormal: many
    # different assignments share one rounded total, and only exact
    # integer scaling tells them apart.
    rng = np.random.default_rng(101)
    scipy_not_exact = 0
    for _ in range(200):
        n, m = random_shape(rng, 1, 6)
        c = rng.choice([-1.0, 1.0], size=(n, m)) * 10.0 ** rng.uniform(
            -300.0, 300.0, size=(n, m))
        c[rng.random((n, m)) < 0.2] = 5e-324
        optimum, pairs = exact_oracle(c)
        got = hungarian(c)
        assert got.pairs == pairs
        assert got.total_cost == math.fsum(c[r, k] for r, k in pairs)
        old = scipy_hungarian(c).pairs
        if old != pairs:
            # The old solver compared rounded totals, so it could settle
            # for an assignment that is not exactly optimal.
            assert sum(Fraction(c[r, k]) for r, k in old) > optimum
            scipy_not_exact += 1
    assert scipy_not_exact > 0


def test_totals_equal_after_rounding_are_not_a_tie():
    # The diagonal sums to 2 + 2**-52, which rounds to the anti-diagonal's
    # exact 2.0; the old solver took the diagonal as a lexicographic tie.
    c = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]])
    assert scipy_hungarian(c).pairs == ((0, 0), (1, 1))
    result = hungarian(c)
    assert result.pairs == ((0, 1), (1, 0))
    assert result.total_cost == 2.0


# ---------------------------------------------------------------------------
# row-minima certificate
# ---------------------------------------------------------------------------


@pytest.fixture
def solves(monkeypatch):
    """Records the size of every matrix that reaches the exact solve."""
    sizes = []
    real = matching._augment

    def spy(cost):
        sizes.append(len(cost))
        return real(cost)

    monkeypatch.setattr(matching, "_augment", spy)
    return sizes


def certified(rng, shape, low=1.0, high=10.0):
    """Entries in [low, high), except that each line of the shorter side
    gets a smaller entry of its own, in a line of the longer side no
    other gets."""
    n, m = shape
    t = rng.uniform(low, high, size=(min(n, m), max(n, m)))
    lines = rng.permutation(t.shape[1])[:t.shape[0]]
    t[np.arange(t.shape[0]), lines] = rng.uniform(-low, 0.99 * low, t.shape[0])
    return t.T if n > m else t


def assert_exact_optimum(c):
    _, pairs = exact_oracle(c)
    got = hungarian(c)
    assert got.pairs == pairs
    assert got.total_cost == math.fsum(c[r, k] for r, k in pairs)


class TestRowMinimaCertificate:
    @pytest.mark.parametrize("shape", [
        (1, 1), (3, 3), (5, 5),  # square
        (1, 4), (2, 5), (3, 5),  # wide
        (4, 1), (5, 2), (5, 3),  # tall
    ])
    def test_certified_matrices_skip_the_exact_solve(self, solves, shape):
        rng = np.random.default_rng(103 + 7 * shape[0] + shape[1])
        for _ in range(40):
            c = certified(rng, shape)
            assert_exact_optimum(c)
            assert hungarian(c).pairs == oracle(c).pairs
        assert solves == []

    @pytest.mark.parametrize("c", [
        # a row minimum tied within its row
        [[1.0, 1.0, 2.0], [3.0, 0.5, 4.0]],
        # -0.0 against 0.0 is a tie too
        [[-0.0, 0.0, 2.0], [3.0, 4.0, 1.0]],
        [[0.0, -0.0], [1.0, 2.0]],
        # two rows sharing their argmin
        [[0.0, 1.0, 5.0], [0.5, 2.0, 5.0]],
        # tall: a column minimum tied, then two columns sharing a row
        [[1.0, 4.0], [1.0, 0.0], [3.0, 2.0]],
        [[0.0, 0.5], [2.0, 3.0], [1.0, 1.0]],
        # a subnormal tie
        [[5e-324, 5e-324], [1.0, 2.0]],
    ])
    def test_near_misses_take_the_exact_solve(self, solves, c):
        c = np.array(c)
        assert_exact_optimum(c)
        assert hungarian(c).pairs == oracle(c).pairs
        assert solves == [max(c.shape)] * 2

    def test_all_inf_row_still_raises(self, solves):
        with pytest.raises(NoFeasibleAssignment):
            hungarian([[np.inf, np.inf], [1.0, 2.0]])
        with pytest.raises(NoFeasibleAssignment):
            hungarian([[np.inf, np.inf, np.inf], [0.0, 1.0, 2.0]])
        assert solves == [2, 3]
        # a tall matrix's all-inf row that no column's minimum needs
        c = [[0.0, np.inf], [np.inf, np.inf], [1.0, 0.0]]
        assert hungarian(c).pairs == ((0, 0), (2, 1)) == oracle(c).pairs
        assert solves == [2, 3]

    def test_extreme_magnitudes(self, solves):
        # subnormals and 1e+-300 entries: the certificate compares the
        # floats themselves, so it holds exactly whenever it is taken
        rng = np.random.default_rng(107)
        taken = 0
        for _ in range(200):
            n, m = random_shape(rng, 1, 5)
            c = rng.choice([-1.0, 1.0], size=(n, m)) * 10.0 ** rng.uniform(
                -300.0, 300.0, size=(n, m))
            c[rng.random((n, m)) < 0.3] = 5e-324
            before = len(solves)
            assert_exact_optimum(c)
            taken += len(solves) == before
        assert 20 < taken < 180
        solves.clear()
        c = np.array([[5e-324, 1e-300], [1e300, 0.0]])
        assert_exact_optimum(c)
        assert solves == []


@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3)])
def test_stack_checks_its_certificate_once(monkeypatch, solves, shape):
    # Matrices that fail the certificate are solved exactly, with no
    # second check of their own.
    checks = []
    real = matching._row_minima

    def spy(stack):
        checks.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(matching, "_row_minima", spy)
    rng = np.random.default_rng(109 + sum(shape))
    stack = np.array([certified(rng, shape) if t % 2 else integer_ties(rng, shape)
                      for t in range(8)])
    rows, cols = matching._assign_stack(stack)
    assert checks == [stack.shape]
    assert 0 < len(solves) <= 4
    for t, c in enumerate(stack):
        assert tuple(zip(rows[t].tolist(), cols[t].tolist())) == oracle(c).pairs
