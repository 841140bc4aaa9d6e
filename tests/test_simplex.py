"""Exact simplex engine vs hand-worked cases and scipy's HiGHS.

The cases are written as dense matrices for readability and handed to the
solver as sparse rows through _rows.
"""
import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from lambdaprime.simplex import (
    Infeasible,
    SimplexResult,
    Unbounded,
    solve_canonical,
    walk_canonical,
)


def _rows(A):
    """Sparse (column, coefficient) rows of a dense matrix; zeros left out."""
    return [tuple((j, v) for j, v in enumerate(row) if v) for row in A]


def test_single_variable_upper_bound():
    res = solve_canonical([-1], _rows([[1]]), [1])
    assert res.x == [1]
    assert res.value == -1
    assert res.dual_ub == [-1]


def test_classic_two_variable_lp():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    res = solve_canonical([-3, -5], _rows([[1, 0], [0, 2], [3, 2]]), [4, 12, 18])
    assert res.x == [2, 6]
    assert res.value == -36
    assert res.dual_ub == [0, Fraction(-3, 2), -1]


def test_degenerate_vertex():
    # three constraints meet at (1, 1); optimum is degenerate
    res = solve_canonical(
        [-1, -1], _rows([[1, 0], [0, 1], [1, 1]]), [1, 1, 2]
    )
    assert res.value == -2
    assert res.x == [1, 1]


def test_negative_rhs_needs_phase_one():
    # x >= 2 written as -x <= -2, minimize x
    res = solve_canonical([1], _rows([[-1]]), [-2])
    assert res.x == [2]
    assert res.value == 2
    # value(b) = -b here, so the marginal is -1
    assert res.dual_ub == [-1]


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_canonical([1], _rows([[1], [-1]]), [1, -3])


def test_unbounded():
    with pytest.raises(Unbounded):
        solve_canonical([-1], _rows([[-1]]), [0])


def test_fractional_data():
    res = solve_canonical(
        [Fraction(-1, 3), Fraction(-1, 7)],
        _rows([[Fraction(1, 2), 1], [1, Fraction(1, 5)]]),
        [Fraction(3, 4), Fraction(2, 3)],
    )
    # cross-check against scipy below; here just the invariants
    assert all(v >= 0 for v in res.x)
    assert res.value == Fraction(-1, 3) * res.x[0] + Fraction(-1, 7) * res.x[1]


def test_duals_satisfy_strong_duality_on_known_lp():
    c = [2, 3, 4]
    A = [[1, 1, 1], [-2, 0, -1], [0, -1, -3]]
    b = [10, -4, -6]
    res = solve_canonical(c, _rows(A), b)
    assert sum(u * bi for u, bi in zip(res.dual_ub, b)) == res.value


def _random_lp(rng, nvars, nrows):
    c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nvars)]
    A = [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvars)]
        for _ in range(nrows)
    ]
    b = [Fraction(rng.randint(-4, 10), rng.randint(1, 3)) for _ in range(nrows)]
    return c, A, b


@pytest.mark.parametrize("seed", range(40))
def test_matches_scipy_on_random_lps(seed):
    rng = random.Random(1000 + seed)
    nvars = rng.randint(1, 6)
    nrows = rng.randint(1, 8)
    c, A, b = _random_lp(rng, nvars, nrows)
    # sparsify: a seeded share of zero entries, so some rows come out empty
    for row in A:
        for j in range(nvars):
            if rng.random() < 0.4:
                row[j] = Fraction(0)
    cf = [float(v) for v in c]
    Af = [[float(v) for v in row] for row in A]
    bf = [float(v) for v in b]
    # presolve off: on a sparse unbounded LP (seed 35, where x = 0 is
    # feasible) HiGHS presolve reports "infeasible"; plain simplex does not
    ref = linprog(cf, A_ub=Af, b_ub=bf, bounds=(0, None), method="highs",
                  options={"presolve": False})

    if ref.status == 2:
        with pytest.raises(Infeasible):
            solve_canonical(c, _rows(A), b)
        return
    if ref.status == 3:
        with pytest.raises(Unbounded):
            solve_canonical(c, _rows(A), b)
        return
    assert ref.status == 0
    res = solve_canonical(c, _rows(A), b)
    assert abs(float(res.value) - ref.fun) < 1e-7
    # primal feasibility, exactly
    for row, bi in zip(A, b):
        assert sum(ai * xi for ai, xi in zip(row, res.x)) <= bi
    assert all(xi >= 0 for xi in res.x)
    # strong duality, exactly
    assert sum(u * bi for u, bi in zip(res.dual_ub, b)) == res.value
    assert all(u <= 0 for u in res.dual_ub)
    # dual feasibility: c - A^T u >= 0 componentwise
    for j in range(len(c)):
        reduced = c[j] - sum(A[i][j] * res.dual_ub[i] for i in range(len(b)))
        assert reduced >= 0


def test_result_reports_pivot_count():
    res = solve_canonical([-1, -2], _rows([[1, 1]]), [3])
    assert isinstance(res, SimplexResult)
    assert res.pivots >= 1


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_canonical([1, 2], [((2, 1),)], [1])
    with pytest.raises(ValueError):
        solve_canonical([1], [((0, 1),)], [1, 2])


def test_negative_column_rejected():
    # as a list index, -1 would silently address the tableau's last column
    with pytest.raises(ValueError):
        solve_canonical([1, 2], [((0, 1), (-1, 1))], [1])


def test_repeated_column_rejected():
    with pytest.raises(ValueError):
        solve_canonical([1, 2], [((1, 1), (0, 2), (1, 3))], [1])


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        solve_canonical([1, 2], [((0, 1), (1, 0.5))], [1])


def _assert_certificate(A, b, c, x, u):
    """x and the marginals u prove each other optimal for min c.x, Ax <= b."""
    value = sum(ci * xi for ci, xi in zip(c, x))
    assert all(sum(ai * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(A, b))
    assert all(xi >= 0 for xi in x) and all(ui <= 0 for ui in u)
    assert sum(ui * bi for ui, bi in zip(u, b)) == value
    for j in range(len(c)):
        assert c[j] - sum(A[i][j] * u[i] for i in range(len(b))) >= 0


@pytest.mark.parametrize("seed", range(30))
def test_walk_tiles_unit_interval_with_certified_vertices(seed):
    rng = random.Random(2000 + seed)
    nvars = rng.randint(1, 5)
    A = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(0, 5))]
    b = [rng.choice((0, 0, 1, 2)) for _ in A]  # zero rhs makes degenerate vertices
    # x <= 1 keeps every lam bounded
    A += [[int(i == j) for i in range(nvars)] for j in range(nvars)]
    b += [1] * nvars
    c0 = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(nvars)]
    c1 = [Fraction(rng.randint(-6, 3), rng.randint(1, 3)) for _ in range(nvars)]
    ranges = list(walk_canonical(c0, c1, _rows(A), b))
    assert ranges[0].lo == 0 and ranges[-1].hi == 1
    for prev, cur in zip(ranges, ranges[1:]):
        assert prev.hi == cur.lo and prev.x != cur.x and prev.pivots < cur.pivots
    for r in ranges:
        assert r.lo < r.hi and set(r.dual_ub) == {r.lo, r.hi}
        for lam in (r.lo, (r.lo + r.hi) / 2, r.hi):
            c = [a + lam * d for a, d in zip(c0, c1)]
            value = sum(ci * xi for ci, xi in zip(c, r.x))
            assert value == solve_canonical(c, _rows(A), b).value
        for lam, u in r.dual_ub.items():
            _assert_certificate(A, b, [a + lam * d for a, d in zip(c0, c1)], r.x, u)


def test_walk_needs_optimal_slack_basis():
    with pytest.raises(ValueError):
        next(walk_canonical([1], [-1], [((0, 1),)], [-1]))
    with pytest.raises(ValueError):
        next(walk_canonical([-1], [0], [((0, 1),)], [1]))
    with pytest.raises(ValueError):
        next(walk_canonical([1, 0], [-1], [((0, 1),)], [1]))


def test_walk_unbounded_beyond_breakpoint():
    # min (1 - 2 lam) x with no upper bound: unbounded for lam > 1/2
    with pytest.raises(Unbounded):
        list(walk_canonical([1], [-2], [((0, -1),)], [0]))
