"""Exact simplex engine vs hand-worked cases and scipy's HiGHS.

The cases are written as dense matrices for readability and handed to the
solver as sparse rows through _rows.
"""
import copy
import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from lambdaprime.simplex import (
    Infeasible,
    SimplexError,
    SimplexResult,
    Unbounded,
    solve_canonical,
    _Tableau,
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


def test_infeasible_with_negative_cost_fails_in_the_feasibility_pass():
    # a negative cost: the dual simplex reads every reduced cost as 0
    with pytest.raises(Infeasible, match="cannot be made feasible"):
        solve_canonical([-1], _rows([[1], [-1]]), [1, -3])


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


@pytest.mark.parametrize("c, rows, b, slope", [
    ([1, 2], [((0, 1),)], [0.5], None),
    ([1, 0.5], [((0, 1),)], [1], None),
    ([1, 2], [((0, 1),)], [1], [0, -0.5]),
], ids=["rhs", "cost", "slope"])
def test_float_entries_rejected_by_the_tableau(c, rows, b, slope):
    with pytest.raises(TypeError):
        _Tableau(c, rows, b, slope=slope)


@pytest.mark.parametrize("seed", range(10))
def test_int_rows_give_the_tableau_of_their_fractions(seed):
    # ints are used as given (an all-int row has scale 1), and must build
    # the tableau the same values give as Fractions; the rows mix int rows,
    # a row with fractions, and negative right-hand sides
    rng = random.Random(4000 + seed)
    nvars = rng.randint(1, 5)
    A = [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(rng.randint(1, 5))]
    b = [rng.randint(-3, 3) for _ in A]
    A.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)])
    b.append(Fraction(rng.randint(-3, 3), 2))
    c = [rng.randint(-5, 5) for _ in range(nvars)]
    slope = [rng.randint(-5, 5) for _ in range(nvars)]

    def as_fractions(values):
        return [Fraction(v) for v in values]

    def setup(tab):
        return tab.T, tab.z, tab.z1, tab.row_scale, tab.basis, tab.sigma_c

    for sl in (None, slope):
        ints = _Tableau(c, _rows(A), b, slope=sl)
        fracs = _Tableau(as_fractions(c), _rows([as_fractions(r) for r in A]),
                         as_fractions(b), slope=sl and as_fractions(sl))
        assert setup(ints) == setup(fracs)
        assert ints.row_scale[:-1] == [1] * (len(A) - 1)


def test_constructor_writes_each_row_scaled_by_hand():
    # each starting row over the lcm of its denominators, its slack basic,
    # delta 1: rows (1/2, 0, 1/3 | -1/4), (-1, 2, 0 | 3), (0, 2/3, 0 | 1/2)
    tab = _Tableau([1, Fraction(-2, 3), 3],
                   [((0, Fraction(1, 2)), (2, Fraction(1, 3))), ((1, 2), (0, -1)),
                    ((1, Fraction(2, 3)),)],
                   [Fraction(-1, 4), 3, Fraction(1, 2)])
    assert tab.row_scale == [12, 1, 6]
    assert tab.T == [[6, 0, 4, -3], [-1, 2, 0, 3], [0, 4, 0, 3]]
    assert (tab.basis, tab.cols, tab.delta) == ([3, 4, 5], [0, 1, 2], 1)
    assert (tab.z, tab.sigma_c, tab.nrows, tab.flipped) == ([3, -2, 9, 0], 3, 3, set())


@pytest.mark.parametrize("rows, b, slope, upper", [
    ([((0, 1),)], [1], [0], None),
    ([((0, 1),)], [1, 2], None, None),
    ([((0, 1),), ((1, 1),)], [1], None, None),
    ([((0, 1),)], [1], None, [1]),
], ids=["short-slope", "long-b", "short-b", "upper"])
def test_tableau_shape_mismatch_rejected(rows, b, slope, upper):
    with pytest.raises(ValueError):
        _Tableau([1, 2], rows, b, slope=slope, upper=upper)


def _assert_certificate(A, b, c, x, u):
    """x and the marginals u prove each other optimal for min c.x, Ax <= b."""
    value = sum(ci * xi for ci, xi in zip(c, x))
    assert all(sum(ai * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(A, b))
    assert all(xi >= 0 for xi in x) and all(ui <= 0 for ui in u)
    assert sum(ui * bi for ui, bi in zip(u, b)) == value
    for j in range(len(c)):
        assert c[j] - sum(A[i][j] * u[i] for i in range(len(b))) >= 0


def _random_walk_lp(rng):
    """c0, c1, A, b of a random walk_canonical input, bounded on [0, 1]."""
    nvars = rng.randint(1, 5)
    A = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(0, 5))]
    b = [rng.choice((0, 0, 1, 2)) for _ in A]  # zero rhs makes degenerate vertices
    # x <= 1 keeps every lam bounded
    A += [[int(i == j) for i in range(nvars)] for j in range(nvars)]
    b += [1] * nvars
    c0 = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(nvars)]
    c1 = [Fraction(rng.randint(-6, 3), rng.randint(1, 3)) for _ in range(nvars)]
    return c0, c1, A, b


def _dot(c, x):
    return sum(ci * xi for ci, xi in zip(c, x))


@pytest.mark.parametrize("seed", range(30))
def test_walk_tiles_unit_interval_with_certified_vertices(seed):
    c0, c1, A, b = _random_walk_lp(random.Random(2000 + seed))
    ranges = list(walk_canonical(c0, c1, _rows(A), b))
    assert ranges[0].lo == 0 and ranges[-1].hi == 1
    for prev, cur in zip(ranges, ranges[1:]):
        assert prev.hi == cur.lo and prev.x != cur.x and prev.pivots < cur.pivots
        # the slope c1.x strictly falls: each range is its own value piece
        assert _dot(c1, cur.x) < _dot(c1, prev.x)
    for r in ranges:
        assert r.lo < r.hi and set(r.dual_ub) == {r.lo, r.hi}
        for lam in (r.lo, (r.lo + r.hi) / 2, r.hi):
            c = [a + lam * d for a, d in zip(c0, c1)]
            value = _dot(c, r.x)
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


def _dense(tab):
    """tab's rows z, z1 (when live) and T spread over every variable label,
    the right-hand side last: the stored columns, and each basic column
    delta times the unit vector of its row."""
    width = tab.nvars + tab.nrows

    def spread(row, r=None):
        out = [0] * width + [row[-1]]
        for j, v in zip(tab.cols, row):
            out[j] = v
        if r is not None:
            out[tab.basis[r]] = tab.delta
        return out

    rows = [spread(tab.z)] + ([] if tab.z1 is None else [spread(tab.z1)])
    return rows + [spread(row, r) for r, row in enumerate(tab.T)]


def _dense_pivot(rows, tr, col, delta):
    """The dense integer Gauss-Jordan (Bareiss) update over every entry of
    every row of rows, on the pivot row tr at column col: the reference
    that _Tableau.pivot must match integer for integer. Returns the new
    delta."""
    piv = tr[col]
    for row in rows:
        if row is tr:
            continue
        f = row[col]
        if f == 0:
            if piv != delta:
                for j, v in enumerate(row):
                    if v:
                        row[j] = v * piv // delta
            continue
        for j, v in enumerate(row):
            row[j] = (v * piv - f * tr[j]) // delta
    if piv < 0:
        for row in rows:
            for j, v in enumerate(row):
                if v:
                    row[j] = -v
    return abs(piv)


def _random_phase1_lp(rng):
    """c, A, b with negative rhs entries, which the dual simplex pivots
    away on negative entries, and equality rows written as two opposite
    inequalities, which make degenerate vertices."""
    nvars = rng.randint(1, 5)
    A, b = [], []
    for _ in range(rng.randint(1, 4)):
        row = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               if rng.random() < 0.6 else Fraction(0) for _ in range(nvars)]
        bi = Fraction(rng.randint(-3, 6), rng.randint(1, 2))
        A.append(row)
        b.append(bi)
        if rng.random() < 0.5:
            A.append([-v for v in row])
            b.append(-bi)
    c = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvars)]
    return c, A, b


def _state(tab):
    """The tableau by variable label, not by stored position: each row
    under its basic variable, each entry under its nonbasic variable, the
    right-hand side under "rhs"."""
    def by_label(row):
        return dict(zip(tab.cols + ["rhs"], row))

    return ({bv: by_label(row) for bv, row in zip(tab.basis, tab.T)},
            by_label(tab.z), None if tab.z1 is None else by_label(tab.z1),
            tab.delta)


def test_pivot_matches_dense_bareiss_update(monkeypatch):
    branches = set()
    real = _Tableau.pivot

    def checked(tab, r, col):
        piv, delta = tab.T[r][col], tab.delta
        if piv < 0:
            branches.add("piv < 0")
        elif piv != delta:
            branches.add("piv != delta")
        elif any(row[col] == 0 for row in tab._all_rows()):
            branches.add("piv == delta, some f == 0")
        ref, basis = _dense(tab), tab.basis[:]
        basis[r] = tab.cols[col]
        ref_delta = _dense_pivot(ref, ref[len(ref) - tab.nrows + r],
                                 tab.cols[col], delta)
        real(tab, r, col)
        assert (_dense(tab), tab.delta, tab.basis) == (ref, ref_delta, basis)

    monkeypatch.setattr(_Tableau, "pivot", checked)
    for seed in range(40):
        c, A, b = _random_phase1_lp(random.Random(3000 + seed))
        try:
            solve_canonical(c, _rows(A), b)
        except SimplexError:
            pass  # infeasible or unbounded: the pivots before it were checked
    for seed in range(10):
        c0, c1, A, b = _random_walk_lp(random.Random(2000 + seed))
        list(walk_canonical(c0, c1, _rows(A), b))
    assert branches == {"piv < 0", "piv != delta", "piv == delta, some f == 0"}


def _assert_condensed(tab):
    """Each stored row holds one entry per nonbasic variable and the
    right-hand side; the stored columns and the rows name every variable
    once."""
    assert sorted(tab.cols + tab.basis) == list(range(tab.nvars + tab.nrows))
    assert all(len(row) == len(tab.cols) + 1 for row in tab._all_rows())


def test_every_row_stores_one_entry_per_nonbasic_variable(corpus, monkeypatch):
    from lambdaprime.lp import lp_curve, solve_lp
    from lambdaprime.sensitivity import eps_range

    seen = set()
    for name in ("pivot", "flip", "add_row"):
        def checked(tab, *args, real=getattr(_Tableau, name), name=name):
            real(tab, *args)
            _assert_condensed(tab)
            seen.add(name)

        monkeypatch.setattr(_Tableau, name, checked)
    for _, g in corpus:
        if g.n > 6:
            continue
        lam = Fraction(1, 3)
        eps_range(solve_lp(g, lam), lam, Fraction(1, 2), g)
        lp_curve(g)
    assert seen == {"pivot", "flip", "add_row"}


def test_add_row_leaves_every_held_row_unchanged(corpus, monkeypatch):
    # z, z1 and each row of T keep their object and every entry: a cut
    # writes its own row only
    from lambdaprime.lp import lp_curve, solve_lp

    walked = set()
    real = _Tableau.add_row

    def checked(tab, coeffs, bi):
        held = list(tab._all_rows())
        before = copy.deepcopy(held)
        real(tab, coeffs, bi)
        after = list(tab._all_rows())
        assert all(a is b for a, b in zip(held, after)) and after[:-1] == before
        walked.add(tab.z1 is not None)

    monkeypatch.setattr(_Tableau, "add_row", checked)
    for _, g in corpus:
        if g.n <= 7:
            solve_lp(g, Fraction(1, 3))
            lp_curve(g)
    assert walked == {False, True}


# -- tie-breaks rank variables by label, not by stored position ------------


def _first_step(tab, run, bland):
    """The (row, column) that run's step picks first under bland; no pivot
    is made."""
    picked = []
    tab._pivot_until = lambda step, lam: picked.append(step(bland))
    run()
    return picked[0]


def test_primal_ties_enter_the_lowest_label():
    # min x0 - x1 s.t. x0 <= 1, x1 <= 1: once x0 enters row 0, its slack
    # (label 2) is stored in column 0 and ties x1 (label 1, column 1) at
    # reduced cost -1; Dantzig's tie-break and Bland's rule both take x1
    for bland in (False, True):
        tab = _Tableau([1, -1], _rows([[1, 0], [0, 1]]), [1, 1])
        tab.pivot(0, 0)
        assert tab.cols == [2, 1] and tab.z[:-1] == [-1, -1]
        r, col = _first_step(tab, tab._run, bland)
        assert (tab.cols[col], tab.basis[r]) == (1, 3)


def test_dual_ratio_ties_enter_the_lowest_label():
    # min -x0 + x1/2 s.t. x0 <= 1, 2 x0 - x1 <= -1: once x0 enters row 0,
    # row 1 is infeasible and its slack-of-row-0 column (label 2, column 0)
    # ties x1 (label 1, column 1) in the ratio test, at lam = 0 (ratios
    # 2/2 and 1/1) and with every cost read as 0; x1 enters both times
    for lam in (Fraction(0), None):
        tab = _Tableau([-1, Fraction(1, 2)], _rows([[1, 0], [2, -1]]), [1, -1])
        tab.pivot(0, 0)
        assert tab.cols == [2, 1] and tab.T[1] == [-2, -1, -3]
        r, col = _first_step(tab, lambda: tab.dual_run(lam), False)
        assert (r, tab.cols[col]) == (1, 1)


def test_walk_ties_enter_the_lowest_label(monkeypatch):
    # min (1 - 2 lam)(x0 + x1), x <= 1 as bounds, with the cut x0 >= 1 at
    # lam = 0: the dual simplex enters x0 in the cut's row, and the cut's
    # slack (label 2) is stored in column 0 with x0's costs, so at lam = 1/2
    # it ties x1 (label 1, column 1); the walk enters x1
    entered = []
    real = _Tableau._leaving

    def leaving(tab, col):
        entered.append((tab.cols[:], tab.cols[col]))
        return real(tab, col)

    monkeypatch.setattr(_Tableau, "_leaving", leaving)
    ranges = list(walk_canonical(
        [1, 1], [-2, -2], [], [], upper=[1, 1],
        cuts=lambda xi, d: [(((0, -1),), -1)] if xi[0] < d else []))
    assert entered[0] == ([2, 1], 1)
    assert [(r.lo, r.hi, r.x) for r in ranges] == [
        (0, Fraction(1, 2), [1, 0]), (Fraction(1, 2), 1, [1, 1])]


# -- growing one tableau: appended rows ----------------------------------


def _rebuilt(given, basis, flipped):
    """The tableau built anew on given = [c, rows, b, slope, upper],
    the columns in flipped complemented, and pivoted into basis."""
    c, rows, b, slope, upper = given
    ref = _Tableau(c, rows, b, slope=slope, upper=upper)
    for j in sorted(flipped):  # every column is nonbasic in a new tableau
        ref.flip(ref.cols.index(j))
    for j in basis:
        if j not in ref.basis:
            # basis is nonsingular, so some row whose basic variable leaves
            # has a nonzero entry in j's column
            col = ref.cols.index(j)
            r = next(i for i, bv in enumerate(ref.basis)
                     if bv not in basis and ref.T[i][col])
            ref.pivot(r, col)
    return ref


def _assert_rebuilt(tab):
    ref = _rebuilt(tab.given, tab.basis, tab.flipped)
    assert _state(tab) == _state(ref)
    assert (tab.row_scale, tab.flipped) == (ref.row_scale, ref.flipped)


@pytest.fixture
def growth_checked(monkeypatch):
    """Checks every appended row against the tableau rebuilt from scratch
    on the same rows in the same basis; returns the kinds appended. Each
    tableau records what it was given."""
    appended = []
    real_init, real_row = _Tableau.__init__, _Tableau.add_row

    def init(tab, c, rows, b, slope=None, upper=None):
        real_init(tab, c, rows, b, slope, upper)
        tab.given = [list(c), [list(row) for row in rows], list(b), slope, upper]

    def add_row(tab, coeffs, bi):
        real_row(tab, coeffs, bi)
        if not hasattr(tab, "given"):  # a row the constructor writes
            return
        tab.given[1].append(list(coeffs))
        tab.given[2].append(bi)
        _assert_rebuilt(tab)
        appended.append("row")

    monkeypatch.setattr(_Tableau, "__init__", init)
    monkeypatch.setattr(_Tableau, "add_row", add_row)
    return appended


def test_grown_tableau_equals_the_rebuilt_one(corpus, growth_checked):
    from lambdaprime.lp import lp_curve, solve_lp
    from lambdaprime.sensitivity import eps_range

    for name, g in corpus:
        if g.n > 6:
            continue
        lam = Fraction(1, 3)
        sol = solve_lp(g, lam)
        eps_range(sol, lam, Fraction(1, 2), g)
        lp_curve(g)
    assert set(growth_checked) == {"row"}


def _random_cut_lp(rng):
    """c, A, b with every x in [0, 2] feasible for A's first rows, and more
    rows (b >= 0, so x = 0 stays feasible) held back as cuts."""
    nvars = rng.randint(2, 5)
    A = [[int(i == j) for i in range(nvars)] for j in range(nvars)]
    b = [2] * nvars
    cuts = []
    for _ in range(rng.randint(1, 6)):
        row = [Fraction(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(nvars)]
        cuts.append((row, Fraction(rng.randint(0, 6), rng.randint(1, 2))))
    c = [Fraction(rng.randint(-6, 2), rng.randint(1, 3)) for _ in range(nvars)]
    return c, A, b, cuts


@pytest.mark.parametrize("seed", range(30))
def test_solve_with_cuts_matches_every_row(seed, growth_checked):
    # rows held back until a vertex breaks them: the dual simplex must land
    # on the optimum of the LP over every row
    c, A, b, cuts = _random_cut_lp(random.Random(5000 + seed))
    held = []

    def violated(xi, d):
        x = [Fraction(v, d) for v in xi]
        new = [(row, bi) for row, bi in cuts
               if (row, bi) not in held and _dot(row, x) > bi]
        held.extend(new)
        return [(_rows([row])[0], bi) for row, bi in new]

    res = solve_canonical(c, _rows(A), b, cuts=violated)
    full = solve_canonical(c, _rows(A + [row for row, _ in cuts]),
                           b + [bi for _, bi in cuts])
    assert res.value == full.value
    assert len(res.dual_ub) == len(A) + len(held)
    rows = A + [row for row, _ in held]
    _assert_certificate(rows, b + [bi for _, bi in held], c, res.x, res.dual_ub)
    assert all(_dot(row, res.x) <= bi for row, bi in cuts)


def test_cut_that_empties_the_lp_is_infeasible():
    # x >= 1 by phase 1, then the cut x <= 1/2
    with pytest.raises(Infeasible):
        solve_canonical([1], _rows([[-1]]), [-1],
                        cuts=lambda xi, d: [(((0, 1),), Fraction(1, 2))])


def test_listing_a_row_the_vertex_keeps_is_refused():
    with pytest.raises(SimplexError, match="does not cut off"):
        solve_canonical([-1], _rows([[1]]), [1], cuts=lambda xi, d: [(((0, 1),), 2)])
    with pytest.raises(SimplexError, match="does not cut off"):
        list(walk_canonical([0], [-1], _rows([[1]]), [1],
                            cuts=lambda xi, d: [(((0, 1),), 1)]))


def test_unsolved_tableau_with_negative_rhs_takes_a_row():
    # one column layout from the start: a negative right-hand side is just
    # a negative entry, so the tableau can grow before it is solved
    tab = _Tableau([1], _rows([[-1]]), [-1])
    tab.add_row(((0, 1),), 3)
    tab.given = [[1], _rows([[-1], [1]]), [-1, 3], None, None]
    assert tab.nrows == 2
    _assert_rebuilt(tab)
    tab.solve()
    assert tab.result().x == [1]


@pytest.mark.parametrize("seed", range(30))
def test_walk_with_cuts_matches_every_row(seed, growth_checked):
    # the walk from the box rows alone, each other row held back until a
    # vertex breaks it: the dual simplex at lo keeps every piece's line
    c0, c1, A, b = _random_walk_lp(random.Random(2000 + seed))
    nbox = len(c0)
    cuts, box = list(zip(A[:-nbox], b[:-nbox])), A[-nbox:]
    held = []

    def violated(xi, d):
        x = [Fraction(v, d) for v in xi]
        new = [(row, bi) for row, bi in cuts
               if (row, bi) not in held and _dot(row, x) > bi]
        held.extend(new)
        return [(_rows([row])[0], bi) for row, bi in new]

    def pieces(ranges):
        return [(r.lo, r.hi, _dot(c0, r.x), _dot(c1, r.x)) for r in ranges]

    ranges = list(walk_canonical(c0, c1, _rows(box), [1] * nbox, cuts=violated))
    assert pieces(ranges) == pieces(walk_canonical(c0, c1, _rows(A), b))
    for r in ranges:
        assert all(_dot(row, r.x) <= bi for row, bi in cuts)


def test_beale_cycling_example_ends_without_repeating_a_basis():
    # Beale (1955) built this LP to cycle under Dantzig's rule; with the
    # ratio test's lowest-basic-index tie-break it reaches the optimum in 6
    # pivots and no basis repeats, so it never reaches the stall guard
    c = [Fraction(-3, 4), 20, Fraction(-1, 2), 6]
    A = [[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3],
         [0, 0, 1, 0]]
    tab = _Tableau(c, _rows(A), [0, 0, 1])
    bases, pivot = [], tab.pivot

    def recorded(r, col):
        pivot(r, col)
        bases.append(frozenset(tab.basis))

    tab.pivot = recorded
    tab.solve()
    assert tab.result().value == Fraction(-5, 4)
    assert tab.result().x == [1, 0, 1, 0]
    assert len(bases) == len(set(bases)) == 6


def _bland_flags(labels):
    """The bland flag _pivot_until hands its step before each pivot of
    min -x1 s.t. x0 + x1 <= 1, the k-th pivot entering the variable
    labels[k] (label 2 is the slack), wherever its column is stored."""
    tab = _Tableau([0, -1], _rows([[1, 1]]), [1])
    seen = []

    def step(bland):
        if len(seen) == len(labels):
            return None
        seen.append(bland)
        return 0, tab.cols.index(labels[len(seen) - 1])

    tab._pivot_until(step, Fraction(0))
    assert tab.pivots == len(labels)
    return seen


def test_stalled_objective_switches_to_bland_for_good():
    # swapping x0 and the slack never moves the objective from 0: the switch
    # comes on the pivot after the limit 3*(rows + vars) + 20, and stays on
    # once x1 moves the objective to -1 and back, and through a new stall
    limit = 3 * (1 + 2) + 20
    flags = _bland_flags([0, 2] * 20 + [1, 2] * 2 + [0, 2])
    assert flags == [False] * (limit + 1) + [True] * (len(flags) - limit - 1)


def test_moving_objective_never_switches_to_bland():
    # swapping x1 and the slack moves the objective between 0 and -1
    assert _bland_flags([1, 2] * 50) == [False] * 100


def test_feasibility_pass_enters_the_lowest_index_negative_entry():
    # x0 - x1 - x2 <= -1: at lam = 0 the ratios 5 and 1 pick x2, while the
    # zero-cost pass (lam None) ties them and takes x1
    def tableau():
        return _Tableau([0, 5, 1], _rows([[1, -1, -1]]), [-1])

    tab = tableau()
    tab.dual_run(None)
    assert tab.basis == [1] and tab.pivots == 1
    tab = tableau()
    tab.dual_run(Fraction(0))
    assert tab.basis == [2] and tab.pivots == 1


# -- bounded columns: x_j <= u_j as a bound, not a row ---------------------


def _bound_rows(A, b, upper):
    """A and b with each bound of upper written out as a row x_j <= u, in
    column order: the LP that solve_canonical(..., upper=upper) solves."""
    unit = [[int(i == j) for i in range(len(upper))]
            for j, u in enumerate(upper) if u is not None]
    return A + unit, b + [u for u in upper if u is not None]


def test_single_variable_bound_is_a_flip():
    res = solve_canonical([-1], [], [], upper=[1])
    assert (res.x, res.value, res.dual_ub) == ([1], -1, [-1])
    assert (res.pivots, res.flips) == (0, 1)


@pytest.mark.parametrize("upper", [[-1], [Fraction(1, 2)], [1.0], [1, 1]],
                         ids=["negative", "fraction", "float", "length"])
def test_bad_bound_rejected(upper):
    with pytest.raises(ValueError):
        solve_canonical([1], _rows([[1]]), [1], upper=upper)


def test_bounds_solve_the_lp_with_bound_rows():
    # random LPs, some columns bounded by an int and some free: the same
    # value and status as the LP with x <= u written as rows, and every
    # dual, bound marginals included, proves the vertex optimal for it
    seen = set()
    for seed in range(80):
        rng = random.Random(7000 + seed)
        nvars = rng.randint(1, 6)
        c, A, b = _random_lp(rng, nvars, rng.randint(0, 6))
        upper = [rng.choice((None, 0, 1, 2, 3)) for _ in range(nvars)]
        A2, b2 = _bound_rows(A, b, upper)
        try:
            full = solve_canonical(c, _rows(A2), b2)
        except (Infeasible, Unbounded) as exc:
            with pytest.raises(type(exc)):
                solve_canonical(c, _rows(A), b, upper=upper)
            seen.add(type(exc).__name__)
            continue
        res = solve_canonical(c, _rows(A), b, upper=upper)
        assert res.value == full.value, seed
        assert len(res.dual_ub) == len(b2)
        _assert_certificate(A2, b2, c, res.x, res.dual_ub)
        if res.flips:
            seen.add("flip")
        if any(res.dual_ub[len(b):]):
            seen.add("bound marginal")
    assert seen == {"Infeasible", "Unbounded", "flip", "bound marginal"}


@pytest.mark.parametrize("seed", range(30))
def test_bounded_walk_tiles_like_the_walk_with_bound_rows(seed):
    # some of the box rows x <= 1 become bounds (1 or 2): the same value
    # pieces on the same lam-intervals, and every dual a certificate
    rng = random.Random(8000 + seed)
    c0, c1, A, b = _random_walk_lp(rng)
    nvars = len(c0)
    upper = [rng.choice((None, 1, 1, 2)) for _ in range(nvars)]
    box = [j for j, u in enumerate(upper) if u is None]
    A = A[:-nvars] + [A[len(A) - nvars + j] for j in box]
    b = b[:-nvars] + [1] * len(box)
    A2, b2 = _bound_rows(A, b, upper)

    def pieces(ranges):
        return [(r.lo, r.hi, _dot(c0, r.x), _dot(c1, r.x)) for r in ranges]

    ranges = list(walk_canonical(c0, c1, _rows(A), b, upper=upper))
    assert pieces(ranges) == pieces(walk_canonical(c0, c1, _rows(A2), b2))
    for r in ranges:
        for lam, u in r.dual_ub.items():
            _assert_certificate(A2, b2, [a + lam * d for a, d in zip(c0, c1)], r.x, u)


def test_flip_twice_restores_the_tableau():
    flipped = 0
    for seed in range(20):
        rng = random.Random(9000 + seed)
        nvars = rng.randint(1, 5)
        c, A, b = _random_lp(rng, nvars, rng.randint(1, 4))
        upper = [rng.choice((None, 1, 2)) for _ in range(nvars)]
        tab = _Tableau(c, _rows(A), b, upper=upper)
        try:
            tab.solve()
        except SimplexError:
            pass  # a flip needs a nonbasic column, not an optimal basis
        for j in tab.upper:
            if j in tab.basis:
                continue
            before, x = copy.deepcopy((_state(tab), tab.flipped)), tab._x()
            tab.flip(tab.cols.index(j))
            assert tab._x()[j] == upper[j] - x[j]
            tab.flip(tab.cols.index(j))
            assert (_state(tab), tab.flipped) == before and tab._x() == x
            flipped += 1
    assert flipped


def test_cut_on_complemented_columns_equals_the_rebuilt_one(growth_checked,
                                                            monkeypatch):
    # _random_cut_lp's rows x <= 2 as bounds: each row cut in is written with
    # the complemented columns negated, as growth_checked checks
    complemented = []
    checked_row = _Tableau.add_row

    def add_row(tab, coeffs, bi):
        complemented.append(bool(tab.flipped))
        checked_row(tab, coeffs, bi)

    monkeypatch.setattr(_Tableau, "add_row", add_row)
    for seed in range(30):
        c, A, b, cuts = _random_cut_lp(random.Random(5000 + seed))
        held = []

        def violated(xi, d):
            x = [Fraction(v, d) for v in xi]
            new = [(row, bi) for row, bi in cuts
                   if (row, bi) not in held and _dot(row, x) > bi]
            held.extend(new)
            return [(_rows([row])[0], bi) for row, bi in new]

        res = solve_canonical(c, [], [], cuts=violated, upper=b)
        full = solve_canonical(c, _rows(A + [row for row, _ in cuts]),
                               b + [bi for _, bi in cuts])
        assert res.value == full.value
        rows, rhs = _bound_rows([row for row, _ in held],
                                [bi for _, bi in held], b)
        _assert_certificate(rows, rhs, c, res.x, res.dual_ub)
    assert any(complemented)


def test_dual_simplex_repairs_a_basic_variable_above_its_bound():
    # min x0 + 2 x1 s.t. x0 + x1 >= 3, x0 <= 1: pivoting x0 into the row
    # puts it at 3, above its bound; the dual simplex complements it and
    # x1 enters, which leaves x0 at its bound
    tab = _Tableau([1, 2], _rows([[-1, -1]]), [-3], upper=[1, None])
    tab.pivot(0, 0)
    assert tab.basis == [0] and tab.T[0][-1] > tab.delta * 1
    tab.dual_run(Fraction(0))
    res = tab.result()
    assert (res.x, res.value, tab.basis, tab.flipped) == ([1, 2], 5, [1], {0})
    _assert_certificate([[-1, -1], [1, 0]], [-3, 1], [1, 2], res.x, res.dual_ub)
    # with x0 + x1 <= 2 too, no point is left
    tab = _Tableau([1, 2], _rows([[-1, -1], [0, 1]]), [-3, 1], upper=[1, None])
    with pytest.raises(Infeasible):
        tab.dual_run(Fraction(0))
