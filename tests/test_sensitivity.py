"""Optimal and approximate lambda ranges against the exact value curve."""
import dataclasses
from fractions import Fraction

import pytest

from lambdaprime import lp, sensitivity
from lambdaprime.graphs import gen_gnp, gen_ring, gen_star
from lambdaprime.lp import lp_curve, solve_lp
from lambdaprime.objectives import CostLine, objective_shift
from lambdaprime.rationals import GUARD
from lambdaprime.simplex import solve_canonical
from lambdaprime.sensitivity import (
    LambdaInterval,
    eps_range,
    orlp,
    verify_certificate,
)


def test_interval_invariants():
    iv = LambdaInterval(Fraction(1, 4), Fraction(1, 2), Fraction(1, 10))
    assert iv.kind == "eps-approximate"
    assert LambdaInterval(Fraction(1, 3), Fraction(1, 3)).kind == "optimal"
    assert iv.contains(Fraction(1, 3))
    assert not iv.contains(Fraction(3, 5))
    with pytest.raises(ValueError):
        LambdaInterval(Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        LambdaInterval(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        LambdaInterval(Fraction(1, 2), Fraction(1))


def test_covered_ends_honor_clamps():
    iv = LambdaInterval(GUARD, Fraction(1, 2), lo_clamped=True)
    assert iv.covered_lo() == 0
    assert iv.covered_hi() == Fraction(1, 2)
    iv2 = LambdaInterval(Fraction(1, 2), 1 - GUARD, hi_clamped=True)
    assert iv2.covered_hi() == 1


@pytest.mark.parametrize(
    "g", [gen_ring(3), gen_star(5), gen_gnp(7, 0.5, seed=2)],
    ids=["ring8", "star5", "gnp7"],
)
def test_zero_eps_ranges_recover_curve_pieces(g):
    curve = lp_curve(g)
    for piece in curve.pieces:
        mid = (piece.lo + piece.hi) / 2
        sol = solve_lp(g, mid)
        assert sol.line == piece.line
        iv = eps_range(sol, mid, 0, g)
        assert iv.lo == (GUARD if piece.lo == 0 else piece.lo)
        assert iv.hi == (1 - GUARD if piece.hi == 1 else piece.hi)
        assert iv.lo_clamped == (piece.lo == 0)
        assert iv.hi_clamped == (piece.hi == 1)


def test_nesting_in_eps():
    g = gen_gnp(6, 0.6, seed=1)
    lam0 = Fraction(2, 5)
    sol = solve_lp(g, lam0)
    prev = None
    for eps in (0, Fraction(1, 10), Fraction(1, 2), 2):
        iv = eps_range(sol, lam0, eps, g)
        if prev is not None:
            assert iv.lo <= prev.lo and prev.hi <= iv.hi
        prev = iv


def test_approximation_holds_on_interval():
    g = gen_gnp(6, 0.5, seed=4)
    lam0 = Fraction(1, 3)
    eps = Fraction(1, 4)
    sol = solve_lp(g, lam0)
    iv = eps_range(sol, lam0, eps, g)
    for lam in (iv.lo, (iv.lo + iv.hi) / 2, iv.hi):
        assert sol.line.value_at(lam) <= (1 + eps) * solve_lp(g, lam).value


def test_sharpness_just_beyond_endpoints():
    g = gen_gnp(6, 0.5, seed=4)
    lam0 = Fraction(1, 3)
    eps = Fraction(1, 4)
    sol = solve_lp(g, lam0)
    iv = eps_range(sol, lam0, eps, g)
    if not iv.hi_clamped:
        lam = iv.hi + GUARD
        assert sol.line.value_at(lam) > (1 + eps) * solve_lp(g, lam).value
    if not iv.lo_clamped:
        lam = iv.lo - GUARD
        assert sol.line.value_at(lam) > (1 + eps) * solve_lp(g, lam).value
    assert not (iv.lo_clamped and iv.hi_clamped)


def test_huge_eps_clamps_both_ends():
    # a P=0 line keeps the ratio finite all the way down to lambda = 0
    g = gen_star(4)
    lam0 = Fraction(1, 4)
    sol = solve_lp(g, lam0)
    assert sol.line.P == 0
    iv = eps_range(sol, lam0, 10 ** 6, g)
    assert iv.lo_clamped and iv.hi_clamped
    assert iv.lo == GUARD and iv.hi == 1 - GUARD


def test_huge_eps_with_positive_p_line_has_floor():
    # away from the first piece the backward limit is structurally positive:
    # the line's value at 0 is P > 0 while the LP optimum vanishes
    g = gen_star(4)
    lam0 = Fraction(1, 2)
    sol = solve_lp(g, lam0)
    assert sol.line.P > 0
    iv = eps_range(sol, lam0, 10 ** 6, g)
    assert not iv.lo_clamped and iv.lo > 0
    assert iv.hi_clamped


def test_star_forward_range_reaches_half():
    g = gen_star(5)
    lam0 = Fraction(3, 8)
    sol = solve_lp(g, lam0)
    theta, clamped = orlp(sol, 1, lam0, 0, g)
    # the half-integral line stays optimal through 1/2 and on to the edge
    assert clamped
    assert lam0 + theta >= Fraction(1, 2)
    iv = eps_range(sol, lam0, 0, g)
    assert iv.lo == Fraction(1, 4)
    assert not iv.lo_clamped


def test_scaled_objective_matches_at_zero_eps():
    g = gen_gnp(6, 0.5, seed=7)
    lam0 = Fraction(1, 4)
    sol = solve_lp(g, lam0)
    assert eps_range(sol, lam0, 0, g, objective="lamcc") == eps_range(
        sol, lam0, 0, g
    )
    iv_small = eps_range(sol, lam0, Fraction(1, 8), g, objective="lamcc")
    iv_big = eps_range(sol, lam0, Fraction(1, 2), g, objective="lamcc")
    assert iv_big.lo <= iv_small.lo and iv_small.hi <= iv_big.hi


@pytest.mark.parametrize("g,unclamped", [
    (gen_gnp(6, 0.5, seed=7), 4), (gen_star(5), 4), (gen_ring(3), 6),
], ids=["gnp6", "star5", "ring8"])
def test_scaled_objective_ranges_are_sharp(g, unclamped):
    # criterion 07's probe with both sides shifted by lam*m: at the ends of
    # the lamcc range the shifted line is within (1+eps) of the shifted LP,
    # GUARD past an unclamped end it is not
    curve = lp_curve(g)

    def excess(line, lam, eps):
        return line.value_at(lam) - lam * g.m - (1 + eps) * (
            curve.value_at(lam) - lam * g.m)

    ends = 0
    for lam0 in (Fraction(1, 4), Fraction(2, 5)):
        sol = solve_lp(g, lam0)
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            iv = eps_range(sol, lam0, eps, g, objective="lamcc")
            assert excess(sol.line, iv.lo, eps) <= 0
            assert excess(sol.line, iv.hi, eps) <= 0
            if not iv.hi_clamped:
                probe = iv.hi + min(GUARD, (1 - iv.hi) / 2)
                assert excess(sol.line, probe, eps) > 0
                ends += 1
            if not iv.lo_clamped:
                probe = iv.lo - min(GUARD, iv.lo / 2)
                assert excess(sol.line, probe, eps) > 0
                ends += 1
    assert ends == unclamped


def test_input_validation():
    g = gen_star(4)
    lam0 = Fraction(1, 3)
    sol = solve_lp(g, lam0)
    with pytest.raises(ValueError):
        orlp(sol, 2, lam0, 0, g)
    with pytest.raises(ValueError):
        orlp(sol, 1, lam0, Fraction(-1, 2), g)
    with pytest.raises(ValueError):
        orlp(sol, 1, Fraction(1, 4), 0, g)  # lambda mismatch
    with pytest.raises(ValueError):
        orlp(sol, 1, lam0, 0, g, objective="modularity")
    fsol = solve_lp(g, lam0, mode="float")
    with pytest.raises(ValueError):
        orlp(fsol, 1, fsol.lam, 0, g)


def test_corrupted_certificates_rejected():
    g = gen_star(4)
    lam0 = Fraction(1, 3)
    sol = solve_lp(g, lam0)
    bad_dual = dataclasses.replace(sol, dual=())  # the all-zero certificate
    with pytest.raises(ValueError):
        verify_certificate(bad_dual, g)
    bad_value = dataclasses.replace(sol, value=sol.value + 1)
    with pytest.raises(ValueError):
        verify_certificate(bad_value, g)
    bad_x = dataclasses.replace(sol, x=tuple(Fraction(2) for _ in sol.x))
    with pytest.raises(ValueError):
        verify_certificate(bad_x, g)
    # same value at lam0, but not the line of x
    bad_line = dataclasses.replace(
        sol, line=CostLine(sol.line.P + 1, sol.line.N - 1 / lam0))
    assert bad_line.line.value_at(lam0) == sol.value
    with pytest.raises(ValueError):
        verify_certificate(bad_line, g)
    with pytest.raises(ValueError):
        orlp(bad_line, 1, lam0, 0, g)


def _orlp_in_theta(xstar, s, lam0, eps, g, objective):
    """ORLP's LP with the step theta as its variable, the reference orlp's
    LP in lambda must agree with: substituting lam = lam0 + s*theta maps one
    onto the other, but for theta >= 0, which the LP in lambda leaves out."""
    prob = verify_certificate(xstar, g)
    q_eff = len(prob.pairs) - objective_shift(objective, g.m)
    theta_col = prob.num_rows
    cap = (1 - lam0) if s > 0 else lam0
    A = [[] for _ in range(prob.num_vars)]
    for r, coeffs in enumerate(prob.rows):
        for var, coeff in coeffs:
            A[var].append((r, -coeff))
    for row in A:
        row.append((theta_col, s))
    b = list(prob.c)
    A.append([(r, (1 + eps) * bi) for r, bi in enumerate(prob.b) if bi] + [
        (theta_col, -s * (eps * q_eff + sum(xstar.x)))])
    b.append(eps * lam0 * q_eff - (xstar.value - prob.constant))
    A.append(((theta_col, 1),))
    b.append(cap)
    res = solve_canonical([0] * prob.num_rows + [-1], A, b)
    theta = res.x[theta_col]
    clamped = theta == cap
    if clamped:
        theta = max(Fraction(0), cap - GUARD)
    return theta, clamped


def test_orlp_in_lambda_matches_orlp_in_theta(corpus):
    graphs = [g for _, g in corpus if g.n <= 7]
    assert len(graphs) == 18
    clamps = set()
    for g in graphs:
        for lam0 in (Fraction(1, 4), Fraction(3, 5)):
            sol = solve_lp(g, lam0)
            for eps in (0, Fraction(1, 4), Fraction(1, 2)):
                for objective in ("lamprime", "lamcc"):
                    for s in (1, -1):
                        got = orlp(sol, s, lam0, eps, g, objective)
                        assert got == _orlp_in_theta(sol, s, lam0, eps, g, objective)
                        clamps.add((s, got[1]))
    assert clamps == {(1, True), (1, False), (-1, True), (-1, False)}


def test_orlp_matches_orlp_in_theta_through_cut_solves(corpus, monkeypatch):
    # ORLP's Newton steps, each a solve_lp whose tableau grows by the
    # triangle rows its vertex breaks, against _orlp_in_theta, the LP in
    # theta over every row of the metric LP: theta and the clamp in both
    # directions; priced counts the triangle rows those solves cut
    priced = []
    real = lp._separate

    def counted(wi, d, prob):
        new = real(wi, d, prob)
        priced.append(len(new))
        return new

    monkeypatch.setattr(lp, "_separate", counted)
    graphs = [g for _, g in corpus if g.n <= 8]
    assert len(graphs) == 24
    most_priced = 0
    for g in graphs:
        for lam0 in (Fraction(1, 5), Fraction(3, 5)):
            sol = solve_lp(g, lam0)
            for eps in (0, Fraction(1, 2)):
                for objective in ("lamprime", "lamcc"):
                    for s in (1, -1):
                        priced.clear()
                        got = orlp(sol, s, lam0, eps, g, objective)
                        most_priced = max(most_priced, sum(priced))
                        assert got == _orlp_in_theta(sol, s, lam0, eps, g, objective)
    assert most_priced > 0


@pytest.mark.slow
def test_orlp_matches_orlp_in_theta_where_more_rows_are_cut(corpus):
    # the larger corpus graphs, whose LPs cut more triangle rows, against
    # the LP over every column of the LP in t: 7 graphs, 56 calls
    graphs = [g for _, g in corpus if g.n >= 9]
    assert len(graphs) == 7
    for g in graphs:
        for lam0 in (Fraction(1, 5), Fraction(3, 5)):
            sol = solve_lp(g, lam0)
            for eps in (0, Fraction(1, 2)):
                for s in (1, -1):
                    got = orlp(sol, s, lam0, eps, g)
                    assert got == _orlp_in_theta(sol, s, lam0, eps, g, "lamprime")


def _excess(line, lam, eps, g, objective):
    """g(lam) of the sensitivity docstring: line less (1+eps) times the LP
    value at lam, both shifted by lam*m' for the objective."""
    m = objective_shift(objective, g.m)
    return line.value_at(lam) - lam * m - (1 + eps) * (solve_lp(g, lam).value - lam * m)


def test_range_ends_are_roots_or_clamps(corpus):
    # a range's end is where x* is exactly (1+eps) times the LP optimum; a
    # clamped end's edge has x* within (1+eps) of it
    ends = clamps = 0
    for _, g in corpus:
        if g.n > 8:
            continue
        for lam0 in (Fraction(1, 5), Fraction(3, 5)):
            sol = solve_lp(g, lam0)
            for eps in (0, Fraction(1, 2)):
                for objective in ("lamprime", "lamcc"):
                    iv = eps_range(sol, lam0, eps, g, objective)
                    for end, edge, clamped in ((iv.lo, 0, iv.lo_clamped),
                                               (iv.hi, 1, iv.hi_clamped)):
                        if clamped:
                            assert _excess(sol.line, edge, eps, g, objective) <= 0
                            clamps += 1
                        else:
                            assert _excess(sol.line, end, eps, g, objective) == 0
                            ends += 1
    assert ends and clamps


def test_newton_queries_close_in_on_the_end(corpus, monkeypatch):
    # after the solve at the edge every query lies strictly nearer lam0
    # than the one before, none beyond the end returned, the last at it
    queries = []
    real = sensitivity.solve_lp

    def spy(g, lam):
        queries.append(lam)
        return real(g, lam)

    monkeypatch.setattr(sensitivity, "solve_lp", spy)
    newton = 0
    for _, g in corpus:
        if g.n > 7:
            continue
        for lam0 in (Fraction(1, 5), Fraction(3, 5)):
            sol = solve_lp(g, lam0)
            for eps in (0, Fraction(1, 2)):
                for s in (1, -1):
                    queries.clear()
                    theta, clamped = orlp(sol, s, lam0, eps, g)
                    assert queries[0] == (1 if s > 0 else 0)
                    if clamped:
                        assert len(queries) == 1
                        continue
                    steps = [s * (lam - lam0) for lam in queries]
                    assert all(a > b for a, b in zip(steps, steps[1:]))
                    assert steps[-1] == theta
                    newton += len(queries) - 1
    assert newton
    # ring8 at 1/5: the edge 1 clamps; from the edge 0 one Newton step
    # lands on the end 4/51
    g = gen_ring(3)
    queries.clear()
    eps_range(solve_lp(g, Fraction(1, 5)), Fraction(1, 5), Fraction(1, 2), g)
    assert queries == [1, 0, Fraction(4, 51)]


def test_overshoot_is_refused(monkeypatch):
    # an edge solve whose value is too low puts the Newton step past the
    # end of the range; the true solve there has x* better than (1+eps)
    # times the optimum, which the proof rules out
    g = gen_ring(3)
    lam0, eps = Fraction(1, 5), Fraction(1, 2)
    sol = solve_lp(g, lam0)
    theta, clamped = orlp(sol, -1, lam0, eps, g)
    assert not clamped
    mid = lam0 - theta / 2
    # a line 1 below the optimum at 0, on which h_0's root is mid
    low = CostLine(solve_lp(g, 0).value - 1,
                   (sol.line.value_at(mid) / (1 + eps) - solve_lp(g, 0).value + 1) / mid)
    real = sensitivity.solve_lp

    def forged(g, lam):
        got = real(g, lam)
        if lam == 0:
            got = dataclasses.replace(got, value=low.P, line=low)
        return got

    monkeypatch.setattr(sensitivity, "solve_lp", forged)
    with pytest.raises(AssertionError, match="passed the end"):
        orlp(sol, -1, lam0, eps, g)
