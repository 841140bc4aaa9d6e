"""Metric LP relaxation: structure, exact solves, value curve."""
import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaprime.exact import exact_opt_curve
from lambdaprime import lp as lp_module
from lambdaprime import simplex
from lambdaprime.graphs import gen_gnp, gen_path, gen_ring, gen_star, make_graph
from lambdaprime.lp import build_lp, lp_curve, solve_lp
from lambdaprime.objectives import CostLine
from lambdaprime.serialize import solution_to_dict


def test_build_lp_shapes():
    assert build_lp(make_graph(2, [(0, 1)]), Fraction(1, 2)).num_vars == 1
    assert build_lp(make_graph(2, [(0, 1)]), Fraction(1, 2)).num_rows == 1
    p3 = build_lp(gen_star(3), Fraction(1, 2))
    assert p3.num_vars == 3
    assert p3.num_rows == 3 + 3
    p8 = build_lp(gen_ring(3), Fraction(1, 8))
    assert p8.num_vars == 28
    assert p8.num_rows == 3 * 56 + 28


def test_build_lp_triangle_rows_n3():
    p = build_lp(gen_star(3), Fraction(1, 4))
    # pairs are (0,1), (0,2), (1,2); one row per isolated pair
    assert p.rows[0] == ((0, 1), (1, -1), (2, -1))
    assert p.rows[1] == ((0, -1), (1, 1), (2, -1))
    assert p.rows[2] == ((0, -1), (1, -1), (2, 1))
    assert p.rows[3:] == (((0, 1),), ((1, 1),), ((2, 1),))
    assert p.b == (0, 0, 0, 1, 1, 1)
    assert p.constant == Fraction(3, 4)


def test_build_lp_costs():
    g = gen_star(3)  # edges (0,1), (0,2); non-edge (1,2)
    p = build_lp(g, Fraction(1, 3))
    assert p.c == (Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3))


def test_build_lp_domain():
    with pytest.raises(ValueError):
        build_lp(gen_star(3), Fraction(3, 2))
    with pytest.raises(ValueError):
        build_lp(gen_star(3), Fraction(-1, 2))


def test_ring8_value_at_first_breakpoint():
    s = solve_lp(gen_ring(3), Fraction(1, 8))
    assert s.value == Fraction(7, 2)
    assert s.value == s.line.value_at(Fraction(1, 8))


def test_star5_half_integral_solution():
    s = solve_lp(gen_star(5), Fraction(3, 10))
    assert s.value == Fraction(13, 5)
    assert (s.line.P, s.line.N) == (2, 2)
    # center-leaf distances 1/2, leaf-leaf distances 1
    assert sorted(s.x) == [Fraction(1, 2)] * 4 + [1] * 6


def test_duals_are_certificates():
    g = gen_gnp(6, 0.5, seed=3)
    s = solve_lp(g, Fraction(2, 7))
    assert all(u < 0 for _, u in s.dual)
    prob = build_lp(g, Fraction(2, 7))
    assert sum(u * prob.b[r] for r, u in s.dual) + prob.constant == s.value


def _broken_rows(x, n, tol):
    """The rows of build_lp that x breaks, found from the triples and the box:
    per triple t, row 3t + s for the s-th distance above the sum of the
    other two, then one row per entry above 1."""
    idx = lp_module.pair_index(n)[1]
    out = []
    for t, (i, j, k) in enumerate(combinations(range(n), 3)):
        a, b, c = x[idx[(i, j)]], x[idx[(i, k)]], x[idx[(j, k)]]
        for s, (u, v, w) in enumerate([(a, b, c), (b, a, c), (c, a, b)]):
            if u > v + w + tol:
                out.append(3 * t + s)
    base = 3 * len(list(combinations(range(n), 3)))
    return out + [base + p for p, v in enumerate(x) if v > 1 + tol]


# 0, 1/2 or 1 moved by k/q, q one of four large pairwise coprime
# denominators: such entries sit within 2e-6 of a tight triangle or box
# row, over a common denominator of up to 142 bits
_BIG_PRIMES = (1_000_003, 998_244_353, 1_000_000_007, 2**61 - 1)
_EXACT_ENTRIES = st.one_of(
    st.sampled_from([Fraction(v) for v in (
        "-1/3", "0", "1/7", "1/6", "1/3", "2/5", "1/2", "3/5", "2/3", "5/6",
        "1", "8/7", "3/2")]),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.builds(lambda base, k, q: base + Fraction(k, q),
              st.sampled_from([0, Fraction(1, 2), 1]), st.integers(-2, 2),
              st.sampled_from(_BIG_PRIMES)))
# k/8 plus an offset: no sum of three offsets lies within 2e-9 of +-1e-8, so
# the tolerance, not the rounding, decides every compare
_FLOAT_ENTRIES = st.builds(lambda k, d: k / 8 + d, st.integers(-2, 10),
                           st.sampled_from([0.0, 4e-9, -4e-9, 3e-8, -3e-8]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_row_evaluation_flags_the_broken_triangle_and_box_rows(data):
    n = data.draw(st.integers(1, 8))
    exact = data.draw(st.booleans())
    x = tuple(data.draw(_EXACT_ENTRIES if exact else _FLOAT_ENTRIES)
              for _ in range(n * (n - 1) // 2))
    g = make_graph(n, [])
    prob = build_lp(g, 0)
    tol = 0 if exact else 1e-8
    broken = _broken_rows(x, n, tol)
    xi, d = lp_module._scaled(x, exact)
    assert lp_module._violated_rows(n, xi, d, tol) == broken
    lam = Fraction(1, 2)
    line = lp_module._line_of_x(g, xi, d, exact)
    sol = lp_module.LpSolution(n, lam, x, line.value_at(lam), line, (), exact)
    if broken or any(v < -tol for v in x):
        with pytest.raises(ValueError):
            lp_module.check_solution(sol, g)
    else:
        lp_module.check_solution(sol, g)


@pytest.mark.parametrize("x, match", [
    ((Fraction(8, 7), Fraction(1), Fraction(1)), "x <= 1 fails"),
    ((Fraction(-1, 7), Fraction(0), Fraction(0)), r"outside \[0, 1\]"),
    ((1 + 2e-8, 1.0, 1.0), "x <= 1 fails"),
    ((-2e-8, 0.0, 0.0), r"outside \[0, 1\]"),
    # above 1 by 2^-61 alone, in the box row of pair (1, 2): 3 triangle rows + 2
    ((1, 1, 1 + Fraction(1, 2**61 - 1)), "^x <= 1 fails at row 5$"),
], ids=["exact_above_1", "exact_below_0", "float_above_1", "float_below_0",
        "exact_just_above_1"])
def test_check_solution_rejects_entries_outside_the_box(x, match):
    g = gen_star(3)
    exact = not isinstance(x[0], float)
    line = lp_module._line_of_x(g, *lp_module._scaled(x, exact), exact)
    sol = lp_module.LpSolution(3, Fraction(1, 2), x, line.value_at(Fraction(1, 2)),
                               line, (), exact)
    with pytest.raises(ValueError, match=match):
        lp_module.check_solution(sol, g)


def test_dual_infeasible_certificate_rejected(monkeypatch):
    real = lp_module.solve_canonical

    def forged(c, rows, b, **grow):
        res = real(c, rows, b, **grow)
        dual_ub = list(res.dual_ub)
        # the last row is a triangle cut with rhs 0, so b.y (strong duality)
        # is unchanged while A^T y exceeds c on two pairs
        assert len(dual_ub) > len(c)
        dual_ub[-1] -= 10
        return dataclasses.replace(res, dual_ub=dual_ub)

    monkeypatch.setattr(lp_module, "solve_canonical", forged)
    with pytest.raises(ValueError):
        solve_lp(gen_star(4), Fraction(1, 3))


@pytest.mark.parametrize("extra, match", [
    ([(-1, Fraction(-1))], "outside the LP"),
    ([("num_rows", Fraction(-1))], "outside the LP"),
    ([(0, Fraction(0))], "u >= 0"),
    # the two entries cancel, so only the sign of each shows
    ([(0, Fraction(1)), (0, Fraction(-1))], "u >= 0"),
], ids=["row_minus_one", "row_num_rows", "zero_u", "positive_u"])
def test_certificate_pair_outside_the_format_rejected(extra, match):
    g = gen_star(4)
    s = solve_lp(g, Fraction(1, 3))
    prob = build_lp(g, s.lam)
    lp_module.check_certificate(prob, s.dual, s.value)
    extra = [(prob.num_rows if r == "num_rows" else r, u) for r, u in extra]
    with pytest.raises(ValueError, match=match):
        lp_module.check_certificate(prob, s.dual + tuple(extra), s.value)


def _check_certificate_in_fractions(prob, dual, value):
    """The reference check_certificate must agree with: Fraction sums."""
    aty = [0] * prob.num_vars
    bu = 0
    for r, u in dual:
        if not 0 <= r < prob.num_rows:
            raise ValueError("dual certificate names row %s outside the LP" % (r,))
        if u >= 0:
            raise ValueError("dual certificate has an entry u >= 0")
        for var, coeff in prob.rows[r]:
            aty[var] += coeff * u
        bu += prob.b[r] * u
    if any(a > ci for a, ci in zip(aty, prob.c)):
        raise ValueError("dual certificate infeasible")
    if bu + prob.constant != value:
        raise ValueError("dual certificate does not prove optimality")


def _verdict(check, *args):
    try:
        check(*args)
    except ValueError as e:
        return str(e)
    return None


_DUAL_ENTRIES = st.fractions(min_value=-3, max_value=0, max_denominator=12)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_integer_certificate_check_matches_fractions(data):
    g = data.draw(_small_graphs())
    lam = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
    sol = solve_lp(g, lam)
    prob = build_lp(g, lam)
    dual, value = list(sol.dual), sol.value
    change = data.draw(st.sampled_from(
        ["none", "random", "sign", "row", "value"]))
    if change == "random" and prob.num_rows:
        rows = st.integers(0, prob.num_rows - 1)
        dual = data.draw(st.lists(st.tuples(rows, _DUAL_ENTRIES), max_size=8))
    elif change == "sign" and dual:
        k = data.draw(st.integers(0, len(dual) - 1))
        dual[k] = (dual[k][0], data.draw(st.sampled_from([0, -1])) * dual[k][1])
    elif change == "row":
        r = data.draw(st.sampled_from([-1, prob.num_rows, prob.num_rows + 5]))
        dual.insert(data.draw(st.integers(0, len(dual))), (r, Fraction(-1, 3)))
    elif change == "value":
        value += Fraction(data.draw(st.sampled_from([-1, 1])),
                          data.draw(st.integers(1, 50)))
    got = _verdict(lp_module.check_certificate, prob, tuple(dual), value)
    assert got == _verdict(_check_certificate_in_fractions, prob, tuple(dual), value)
    if change == "none":
        assert got is None
    elif change in ("row", "value") or (change == "sign" and dual):
        assert got is not None


def test_feasible_but_not_optimal_x_rejected(monkeypatch):
    # all-ones x is feasible on star4, but its line (3, 0) has value 3 at
    # every lambda while the LP optimum at 1/3 is at most 2 (and 0 at 0):
    # the real duals cannot prove it, so both exact paths must refuse it
    g = gen_star(4)
    assert solve_lp(g, Fraction(1, 3)).value <= 2
    ones = [Fraction(1)] * 6
    real_solve = lp_module.solve_canonical
    real_walk = lp_module.walk_canonical

    def forged_solve(c, rows, b, **grow):
        return dataclasses.replace(real_solve(c, rows, b, **grow), x=ones)

    def forged_walk(*args, **grow):
        ranges = list(real_walk(*args, **grow))
        first, last = ranges[0], ranges[-1]
        # one vertex range over [0, 1] with the real duals at both ends
        yield first._replace(hi=Fraction(1), x=ones, dual_ub={
            Fraction(0): first.dual_ub[Fraction(0)],
            Fraction(1): last.dual_ub[Fraction(1)]})

    monkeypatch.setattr(lp_module, "solve_canonical", forged_solve)
    monkeypatch.setattr(lp_module, "walk_canonical", forged_walk)
    with pytest.raises(ValueError):
        solve_lp(g, Fraction(1, 3))
    with pytest.raises(ValueError):
        lp_curve(g)


def test_lp_lower_bounds_partitions():
    rng = random.Random(5)
    for seed in (1, 2):
        g = gen_gnp(6, 0.6, seed=seed)
        curve, _ = exact_opt_curve(g)
        for _ in range(4):
            lam = Fraction(rng.randint(1, 19), 20)
            assert solve_lp(g, lam).value <= curve.value_at(lam)


def test_lp_tight_where_integral():
    # blocks of 4 are LP-optimal for the 8-ring at its breakpoint
    g = gen_ring(3)
    curve, _ = exact_opt_curve(g)
    assert solve_lp(g, Fraction(1, 8)).value == curve.value_at(Fraction(1, 8))


def test_ring8_curve_pieces():
    c = lp_curve(gen_ring(3))
    got = [(p.line.P, p.line.N, p.lo, p.hi) for p in c.pieces]
    assert got == [
        (0, 28, 0, Fraction(1, 8)),
        (2, 12, Fraction(1, 8), Fraction(1, 6)),
        (Fraction(8, 3), 8, Fraction(1, 6), Fraction(1, 3)),
        (4, 4, Fraction(1, 3), 1),
    ]


def test_star5_curve_pieces():
    c = lp_curve(gen_star(5))
    got = [(p.line.P, p.line.N, p.lo, p.hi) for p in c.pieces]
    assert got == [(0, 10, 0, Fraction(1, 4)), (2, 2, Fraction(1, 4), 1)]


def test_curve_matches_pointwise_solves():
    rng = random.Random(11)
    for seed in (4, 9):
        g = gen_gnp(6, 0.5, seed=seed)
        c = lp_curve(g)
        for _ in range(3):
            lam = Fraction(rng.randint(1, 29), 30)
            assert c.value_at(lam) == solve_lp(g, lam).value


def test_curve_piece_tags_are_solutions():
    c = lp_curve(gen_path(5))
    for p in c.pieces:
        sol = p.tag
        assert sol.line == p.line
        assert sol.value == p.line.value_at(sol.lam)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    return make_graph(n, [p for p in pairs if draw(st.booleans())])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_small_graphs())
def test_curve_agrees_with_solve_lp_everywhere_that_matters(g):
    c = lp_curve(g)
    mids = [(p.lo + p.hi) / 2 for p in c.pieces]
    for lam in [Fraction(0), Fraction(1)] + c.breakpoints + mids:
        assert c.value_at(lam) == solve_lp(g, lam).value, lam
    for p in c.pieces:
        assert p.tag.line == p.line
        assert p.tag.lam == p.lo


@pytest.mark.parametrize("g, line", [
    (make_graph(1, []), CostLine(0, 0)),
    (make_graph(2, []), CostLine(0, 0)),
    (make_graph(2, [(0, 1)]), CostLine(0, 1)),
    (make_graph(5, []), CostLine(0, 0)),
    (make_graph(5, combinations(range(5), 2)), CostLine(0, 10)),
], ids=["n1", "n2", "n2_edge", "edgeless5", "k5"])
def test_one_piece_curves(g, line):
    c = lp_curve(g)
    assert [(p.line, p.lo, p.hi) for p in c.pieces] == [(line, 0, 1)]


def test_curve_certified_at_ends_and_breakpoints(monkeypatch):
    real = lp_module.check_certificate
    seen = []

    def recording(prob, y, value):
        seen.append(prob.lam)
        return real(prob, y, value)

    monkeypatch.setattr(lp_module, "check_certificate", recording)
    c = lp_curve(gen_ring(3))
    assert len(c.breakpoints) == 3
    assert {Fraction(0), Fraction(1), *c.breakpoints} <= set(seen)


@pytest.mark.parametrize("where", ["zero", "breakpoint", "one"])
def test_corrupted_curve_dual_rejected(monkeypatch, where):
    g = gen_ring(3)
    lam = {"zero": Fraction(0), "one": Fraction(1),
           "breakpoint": lp_curve(g).breakpoints[0]}[where]
    real = lp_module.walk_canonical

    def forged(*args, **grow):
        for rng in real(*args, **grow):
            if lam in rng.dual_ub:
                # one marginal 10 lower: on a box row b.y moves, on a triangle
                # cut (rhs 0) A^T y exceeds c on two pairs
                y = list(rng.dual_ub[lam])
                y[-1] -= 10
                rng.dual_ub[lam] = y
            yield rng

    monkeypatch.setattr(lp_module, "walk_canonical", forged)
    with pytest.raises(ValueError):
        lp_curve(g)


def test_walk_missing_a_piece_rejected(monkeypatch):
    # ring8's walk without its (8/3, 8) range on [1/6, 1/3]: every other
    # range's vertex is still optimal at its start and the dual at 1 still
    # holds, but the pieces no longer tile [0, 1]
    g = gen_ring(3)
    assert lp_curve(g).value_at(Fraction(1, 4)) == Fraction(14, 3)
    real = lp_module.walk_canonical

    def forged(*args, **grow):
        for rng in real(*args, **grow):
            line = lp_module._line_of_x(g, *lp_module._scaled(rng.x))
            if line != CostLine(Fraction(8, 3), 8):
                yield rng

    monkeypatch.setattr(lp_module, "walk_canonical", forged)
    with pytest.raises(ValueError, match="gap/overlap between pieces"):
        lp_curve(g)


def test_walk_stretching_a_range_rejected(monkeypatch):
    # ring8's first range stretched over the second: its vertex is still
    # optimal at 0, but its line misses the LP value at the stretched end
    g = gen_ring(3)
    real = lp_module.walk_canonical

    def forged(*args, **grow):
        ranges = list(real(*args, **grow))
        ranges[:2] = [ranges[0]._replace(hi=ranges[1].hi)]
        yield from ranges

    monkeypatch.setattr(lp_module, "walk_canonical", forged)
    with pytest.raises(ValueError, match="discontinuity"):
        lp_curve(g)


def test_empty_walk_rejected(monkeypatch):
    monkeypatch.setattr(lp_module, "walk_canonical", lambda *args, **grow: iter(()))
    with pytest.raises(ValueError, match="at least one piece"):
        lp_curve(gen_ring(3))


def test_solution_reports_pivots_outside_its_value():
    s = solve_lp(gen_star(5), Fraction(3, 10))
    assert s.pivots > 0
    assert dataclasses.replace(s, pivots=0) == s
    assert "pivots" not in solution_to_dict(s)
    tag_pivots = [p.tag.pivots for p in lp_curve(gen_star(5)).pieces]
    assert tag_pivots == sorted(set(tag_pivots)) and tag_pivots[-1] > 0


@pytest.mark.parametrize("name, lam, pivots", [
    ("gnp7_05", Fraction(1, 5), 11),
    ("gnp7_05", Fraction(1, 3), 21),
    ("gnp8_03", Fraction(1, 5), 67),
    ("gnp8_03", Fraction(1, 3), 138),
])
def test_pivot_path_is_pinned(corpus, name, lam, pivots):
    # the dense Bareiss kernel's counts over every row of the LP: a kernel
    # change that alters the pivot path, not just its speed, moves them
    prob = build_lp(dict(corpus)[name], lam)
    assert simplex.solve_canonical(prob.c, prob.rows, prob.b).pivots == pivots


def _recording_cuts(cuts, appended):
    """cuts, noting how many rows each call lists."""
    def recorded(xi, d):
        new = cuts(xi, d)
        appended.append(len(new))
        return new
    return recorded


@pytest.mark.parametrize("name, lam, cut_calls, kept, pivots, flips", [
    ("gnp7_05", Fraction(1, 5), 2, 18, 8, 7),
    ("gnp7_05", Fraction(1, 3), 2, 18, 11, 7),
    ("gnp8_03", Fraction(1, 5), 2, 16, 11, 17),
    ("gnp8_03", Fraction(1, 3), 2, 16, 13, 17),
])
def test_lazy_solve_is_pinned(corpus, monkeypatch, name, lam, cut_calls, kept,
                              pivots, flips):
    # solve_lp's one growing tableau: one solve from no rows, the calls of
    # its cuts (the last lists nothing), the triangle rows appended, every
    # pivot, and the bound flips, which are not pivots
    solves, appended, results = [], [], []
    real = lp_module.solve_canonical

    def recording(c, rows, b, cuts, upper):
        solves.append((len(rows), upper))
        results.append(real(c, rows, b, cuts=_recording_cuts(cuts, appended),
                            upper=upper))
        return results[-1]

    monkeypatch.setattr(lp_module, "solve_canonical", recording)
    g = dict(corpus)[name]
    sol = solve_lp(g, lam)
    assert solves == [(0, [1] * (g.n * (g.n - 1) // 2))]  # x <= 1 as bounds
    assert (len(appended), appended[-1], sum(appended), sol.pivots,
            results[0].flips) == (cut_calls, 0, kept, pivots, flips)


def _count_pivots(monkeypatch, method="pivot"):
    """The column of every call of _Tableau.pivot (or of flip), in order."""
    calls = []
    real = getattr(simplex._Tableau, method)

    def counted(tab, *args):
        calls.append(args[-1])
        real(tab, *args)

    monkeypatch.setattr(simplex._Tableau, method, counted)
    return calls


def _full_walk(g):
    """The kernel's walk over every row of g's LP, not lp_curve's lazy one."""
    prob = build_lp(g, 0)
    return list(simplex.walk_canonical(
        prob.c, [-1] * prob.num_vars, prob.rows, prob.b))


def test_ring8_walk_pivots_are_pinned(monkeypatch):
    calls = _count_pivots(monkeypatch)
    ranges = _full_walk(gen_ring(3))
    assert len(calls) == 97
    assert [rng.pivots for rng in ranges] == [30, 54, 68, 90]


def test_ring8_lazy_walk_is_pinned(monkeypatch):
    # lp_curve's one walk: from no rows and 28 bounds, cut at each new vertex
    calls = _count_pivots(monkeypatch)
    flips = _count_pivots(monkeypatch, "flip")
    walked, appended = [], []
    real = lp_module.walk_canonical

    def recording(c0, c1, rows, b, cuts, upper):
        walked.append((len(rows), upper))
        return real(c0, c1, rows, b, cuts=_recording_cuts(cuts, appended),
                    upper=upper)

    monkeypatch.setattr(lp_module, "walk_canonical", recording)
    c = lp_curve(gen_ring(3))
    assert walked == [(0, [1] * 28)]
    # two cuts at lam = 0, then none at the four ranges' vertices
    assert appended == [8, 24, 0, 0, 0, 0]
    assert sum(appended) == 32  # of 168 triangle rows
    assert (len(calls), len(flips)) == (50, 21)
    assert [p.tag.pivots for p in c.pieces] == [20, 25, 39, 47]


def test_lazy_curve_matches_the_full_walk(corpus, cache):
    for name, g in corpus:
        full = [(rng.lo, rng.hi, lp_module._line_of_x(g, *lp_module._scaled(rng.x)))
                for rng in _full_walk(g)]
        lazy = [(p.lo, p.hi, p.line) for p in cache.lp_curve(name, g).pieces]
        assert lazy == full, name


def test_cut_back_onto_the_same_line_extends_its_piece():
    # at lam = 2/7 the walk leaves the piece of line P = 7, N = 31 for a
    # vertex that breaks triangle rows; after the cut the dual simplex lands
    # on another vertex of that same line, which must extend the piece from
    # 1/4 rather than start a second one (PwlCurve refuses equal lines)
    c = lp_curve(gen_gnp(12, 0.5, seed=0))
    assert [(p.lo, p.hi, p.line) for p in c.pieces[3:5]] == [
        (Fraction(1, 4), Fraction(5, 17), CostLine(7, 31)),
        (Fraction(5, 17), Fraction(1, 3), CostLine(Fraction(19, 2), Fraction(45, 2))),
    ]
    assert len(c.pieces) == 8


def test_curve_without_separation_rejected(monkeypatch):
    # with no row ever added, the walk stops at its box-only vertices, which
    # break triangle rows: the proof against the full LP must refuse them
    monkeypatch.setattr(lp_module, "_separate", lambda xi, d, prob: [])
    with pytest.raises(ValueError, match="triangle inequality fails"):
        lp_curve(gen_ring(3))


def test_solve_without_separation_rejected(monkeypatch):
    # with no row ever added, solve_lp stops at its box-only vertex, which
    # breaks triangle rows: the proof against the full LP must refuse it
    monkeypatch.setattr(lp_module, "_separate", lambda xi, d, prob: [])
    with pytest.raises(ValueError, match="triangle inequality fails"):
        solve_lp(gen_ring(3), Fraction(1, 5))


def _cuts_spied(monkeypatch, check):
    """Route the cuts of solve_lp and lp_curve through check(kind, xi, d),
    before the real callback; returns the calls, (kind, rows listed), in
    order."""
    calls = []

    def spying(module, name, kind):
        real = getattr(module, name)

        def call(*args, cuts, **kw):
            def recorded(xi, d):
                check(kind, xi, d)
                new = cuts(xi, d)
                calls.append((kind, len(new)))
                return new
            return real(*args, cuts=recorded, **kw)
        monkeypatch.setattr(module, name, call)

    spying(lp_module, "solve_canonical", "solve")
    spying(lp_module, "walk_canonical", "walk")
    return calls


def test_cuts_read_the_tableau_vertex_as_integers(corpus, monkeypatch):
    # every cuts(xi, d) call of solve_lp, lp_curve and eps_range: xi over d
    # is the Fraction vertex of the tableau being cut, and the separation
    # on it names the rows it names on x scaled over its own denominators
    from lambdaprime.sensitivity import eps_range

    tableaux = []
    real_init = simplex._Tableau.__init__

    def init(tab, *args, **kw):
        real_init(tab, *args, **kw)
        tableaux.append(tab)

    def check(kind, xi, d):
        tab, n = tableaux[-1], g.n
        assert all(type(v) is int for v in xi) and type(d) is int and d >= 1
        assert d == tab.delta
        x = [Fraction(v, d) for v in xi]
        assert x == tab._x()
        prob = build_lp(g, 0)
        assert lp_module._separate(xi, d, prob) == lp_module._violated_rows(
            n, *lp_module._scaled(x), box=False)

    monkeypatch.setattr(simplex._Tableau, "__init__", init)
    calls = _cuts_spied(monkeypatch, check)
    lam = Fraction(1, 3)
    for name, g in corpus:
        if g.n > 7:
            continue
        eps_range(solve_lp(g, lam), lam, Fraction(1, 2), g)
        lp_curve(g)
    assert {kind for kind, listed in calls if listed} == {"solve", "walk"}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_separation_does_not_depend_on_the_scale(data):
    # x = xi / d read over k*d: the tableau's delta, not the lcm of x's
    # denominators, is the scale the cuts see
    n = data.draw(st.integers(3, 7))
    xi = [data.draw(st.integers(0, 12)) for _ in range(n * (n - 1) // 2)]
    d, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 10**6))
    prob = build_lp(make_graph(n, []), 0)
    assert lp_module._separate([k * v for v in xi], k * d, prob) \
        == lp_module._separate(xi, d, prob)


def test_line_from_the_integer_vertex_is_checked_against_x(corpus, cache, monkeypatch):
    # every lp_curve range's line is read from the tableau's integers; the
    # proof reads it again from x, so a line the integers get wrong fails
    for name, g in corpus:
        for p in cache.lp_curve(name, g).pieces:
            assert p.line == p.tag.line == lp_module._line_of_x(
                g, *lp_module._scaled(p.tag.x)), name
    real = lp_module._proven
    proven = []

    def spy(*args):
        proven.append(args)
        return real(*args)

    monkeypatch.setattr(lp_module, "_proven", spy)
    g = gen_ring(3)
    lp_curve(g)
    solve_lp(g, Fraction(1, 5))
    assert len(proven) == 4 + 1 + 1  # each range, the last again at 1, solve_lp
    for g, lam, vertex, keep, dual_ub in proven:
        assert lp_module._line_of_x(g, vertex.xi, vertex.delta) \
            == lp_module._line_of_x(g, *lp_module._scaled(vertex.x))
        xi = [vertex.xi[0] + 1] + vertex.xi[1:]  # x unchanged, N one 1/delta less
        forged = (vertex._replace(xi=xi) if isinstance(vertex, simplex.VertexRange)
                  else dataclasses.replace(vertex, xi=xi))
        with pytest.raises(ValueError, match="^cost line at lambda=.* is not the line of x$"):
            real(g, lam, forged, keep, dual_ub)


def test_fraction_vertices_are_built_for_results_only(monkeypatch):
    # _Tableau._x builds the Fraction vertex: once per range of ring8's
    # lp_curve, once per solve_lp (ORLP's three included), never in a cut round
    from lambdaprime.sensitivity import eps_range

    built, seen = [], []  # seen: how many were built at each cuts call
    real_x = simplex._Tableau._x

    def counted(tab):
        built.append(tab.pivots)
        return real_x(tab)

    monkeypatch.setattr(simplex._Tableau, "_x", counted)
    calls = _cuts_spied(monkeypatch, lambda kind, xi, d: seen.append(len(built)))
    g = gen_ring(3)
    assert len(lp_curve(g).pieces) == len(built) == 4
    # the walk's cuts at lam = 0 list 8 rows, then 24, then none: only
    # then is the first range's vertex built
    assert list(zip(calls, seen)) == [
        (("walk", 8), 0), (("walk", 24), 0), (("walk", 0), 0),
        (("walk", 0), 1), (("walk", 0), 2), (("walk", 0), 3)]
    sol = solve_lp(g, Fraction(1, 5))
    assert len(built) == 5
    eps_range(sol, Fraction(1, 5), Fraction(1, 2), g)
    assert len(built) == 8
    # every cuts call that lists rows is followed by one with no build between
    for i, ((kind, listed), b) in enumerate(zip(calls, seen)):
        if listed:
            assert calls[i + 1][0] == kind and seen[i + 1] == b
    assert {kind for kind, listed in calls if listed} == {"walk", "solve"}


@pytest.mark.parametrize("lam", [Fraction(1, 5), Fraction(1, 3), Fraction(3, 5)])
def test_lazy_solve_matches_the_full_lp(corpus, lam):
    for name, g in corpus:
        prob = build_lp(g, lam)
        full = simplex.solve_canonical(prob.c, prob.rows, prob.b)
        line = lp_module._line_of_x(g, *lp_module._scaled(full.x))
        sol = solve_lp(g, lam)
        assert (sol.value == sol.line.value_at(lam) == full.value + prob.constant
                == line.value_at(lam)), name


def test_float_mode_reports_highs_iterations():
    assert solve_lp(gen_ring(3), Fraction(1, 5), mode="float").pivots > 0


def test_float_mode_tracks_exact():
    g = gen_ring(3)
    for lam in (Fraction(1, 8), Fraction(1, 5), Fraction(2, 5)):
        fx = solve_lp(g, lam, mode="float")
        assert not fx.exact
        assert abs(fx.value - float(solve_lp(g, lam).value)) < 1e-8


def test_float_mode_star():
    fx = solve_lp(gen_star(5), Fraction(3, 10), mode="float")
    assert abs(fx.value - 2.6) < 1e-9


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_separation_line_and_first_broken_row_match_the_brute_force(data):
    # exact entries only, >= 0 as every simplex vertex is
    n = data.draw(st.integers(3, 8))
    pairs = list(combinations(range(n), 2))
    x = tuple(abs(data.draw(_EXACT_ENTRIES)) for _ in pairs)
    g = make_graph(n, [p for p in pairs if data.draw(st.booleans())])
    broken = _broken_rows(x, n, 0)
    n_tri = 3 * len(list(combinations(range(n), 3)))
    # _separate: the triangle rows alone, in build_lp order
    assert lp_module._separate(*lp_module._scaled(x), build_lp(g, 0)) == [
        r for r in broken if r < n_tri]
    # the line from the scaled integers equals the one of Fraction sums
    line = lp_module._line_of_x(g, *lp_module._scaled(x))
    edge_sum = sum((v for v, p in zip(x, pairs) if p in g.edges), Fraction(0))
    assert line == CostLine(edge_sum, len(x) - sum(x))
    assert all(type(v) is Fraction for v in (line.P, line.N))
    lam = Fraction(1, 3)
    sol = lp_module.LpSolution(n, lam, x, line.value_at(lam), line, ())
    if not broken:
        lp_module.check_solution(sol, g)
        return
    # check_solution names the first broken row
    r = broken[0]
    kind = "triangle inequality" if r < n_tri else "x <= 1"
    with pytest.raises(ValueError, match="^%s fails at row %d$" % (kind, r)):
        lp_module.check_solution(sol, g)


@pytest.mark.parametrize("g", [
    make_graph(2, [(0, 1)]), make_graph(2, []), make_graph(1, []),
], ids=["edge", "edgeless", "n1"])
def test_float_mode_without_triangle_rows_matches_exact(g):
    # n < 3 has no triangle rows, n = 1 no variables either
    lam = Fraction(1, 3)
    fx, ex = solve_lp(g, lam, mode="float"), solve_lp(g, lam)
    assert ex.value == (lam if g.m else 0)
    assert abs(fx.value - float(ex.value)) < 1e-9
    assert fx.x == tuple(float(v) for v in ex.x)


@pytest.mark.parametrize("g", [gen_gnp(7, 0.5, seed=3), gen_ring(3), make_graph(2, [(0, 1)])],
                         ids=["gnp7", "ring8", "n2"])
def test_float_mode_hands_highs_the_sparse_triangle_rows(g, monkeypatch):
    # HiGHS reads build_lp's triangle rows as one sparse matrix, no dense copy
    import scipy.optimize
    import scipy.sparse

    seen = []
    linprog = scipy.optimize.linprog

    def spy(c, **kw):
        seen.append(kw)
        return linprog(c, **kw)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    lam = Fraction(1, 3)
    solve_lp(g, lam, mode="float")
    [kw] = seen
    a_ub, prob = kw["A_ub"], build_lp(g, lam)
    n_tri = 3 * len(list(combinations(range(g.n), 3)))
    assert scipy.sparse.issparse(a_ub)
    assert a_ub.shape == (n_tri, g.n * (g.n - 1) // 2) == (n_tri, prob.num_vars)
    assert list(a_ub.getnnz(axis=1)) == [3] * n_tri
    csr = scipy.sparse.csr_matrix(a_ub)
    assert [tuple(zip(csr[r].indices.tolist(), csr[r].data.tolist())) for r in range(n_tri)] \
        == list(prob.rows[:n_tri])
    assert list(kw["b_ub"]) == [0] * n_tri
    assert kw["bounds"] == (0, 1)


def test_one_proof_builds_the_metric_rows_once():
    g = gen_gnp(6, 0.5, seed=3)
    sol = solve_lp(g, Fraction(2, 7))
    lp_module._metric_rows.cache_clear()
    lp_module._triples.cache_clear()
    lp_module.pair_index.cache_clear()
    prob = lp_module.verify_certificate(sol, g)
    info = lp_module._metric_rows.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert prob.rows is lp_module._metric_rows(g.n)[0]
    # the pairs and their index too, shared read-only with rounding
    assert lp_module.pair_index.cache_info().misses == 1
    pairs, idx = lp_module.pair_index(g.n)
    assert prob.pairs is pairs
    with pytest.raises(TypeError):
        idx[(0, 1)] = 5
    # the triples too, once for the rows and the pass over x alike
    assert lp_module._triples.cache_info().misses == 1
    for t, triple in enumerate(lp_module._triples(g.n)):
        for s in range(3):
            row = prob.rows[3 * t + s]
            assert [var for var, _ in row] == list(triple)
            assert [coeff for _, coeff in row] == [1 if q == s else -1 for q in range(3)]


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        solve_lp(gen_star(3), Fraction(1, 2), mode="rounded")
