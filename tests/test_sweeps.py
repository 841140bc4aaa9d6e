"""Cover-family construction and certification."""
import functools
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaprime import sweeps
from lambdaprime.curves import envelope_of
from lambdaprime.graphs import gen_gnp, gen_path, gen_ring, gen_star, make_graph
from lambdaprime.lp import LpSolution, lp_curve
from lambdaprime.objectives import CostLine, objective_shift
from lambdaprime.rationals import GUARD, ceil_log, floor_log
from lambdaprime.sensitivity import LambdaInterval, eps_range, orlp
from lambdaprime.serialize import family_from_dict, family_to_dict
from lambdaprime.sweeps import (
    CoverFamily,
    CoverMember,
    certify_cover,
    family_envelope,
    forward_factor,
    geometric_schedule,
    sweep_fe,
    sweep_febe,
    sweep_geometric,
    _greedy_cover,
    _transfer_interval,
)


def test_schedule_frozen_example():
    assert geometric_schedule(8, 1) == [F(1, 16), F(1, 4), F(1), F(1, 2)]


def test_schedule_length_bound():
    for n in (2, 3, 5, 8, 13, 40):
        for eps in (F(1, 4), F(1, 2), 1, 3):
            sched = geometric_schedule(n, eps)
            assert len(sched) <= floor_log(1 + eps, n) + 2
            assert sched[0] == F(4, n * n)
            assert sched[-1] == 1 / (1 + eps)
            # interior points grow by exactly (1+eps)^2
            for a, b in zip(sched, sched[1:-1]):
                assert b == a * (1 + eps) ** 2


def test_schedule_never_repeats_its_last_point():
    # 4(1+eps)^(2j+1) = n^2: the last geometric point is already 1/(1+eps)
    assert geometric_schedule(4, 3) == [F(1, 4)]
    assert geometric_schedule(16, 3) == [F(1, 64), F(1, 4)]
    g = gen_path(4)
    fam = sweep_geometric(g, 3)
    assert len(fam.members) == fam.lp_solve_count == 1
    assert certify_cover(fam, g).ok


@pytest.mark.parametrize(
    "g,make",
    [(make_graph(4, []), lambda g: sweep_geometric(g, F(1, 2))),
     (make_graph(4, []), lambda g: sweep_febe(g, F(1, 2))),
     (make_graph(3, [(0, 1)]), lambda g: sweep_geometric(g, F(1, 2), objective="lamcc"))],
    ids=["edgeless_geometric", "edgeless_febe", "lamcc_one_edge"],
)
def test_certify_cover_counts_zero_over_zero_as_one(g, make):
    # LP and envelope are both 0 at every audit point: each ratio is 0/0,
    # which counts as 1, so the worst is 1 at the first audited point
    fam = make(g)
    rep = certify_cover(fam, g)
    assert rep.ok and rep.gap is None and rep.member_fail is None
    assert rep.worst_ratio == 1
    assert rep.worst_lambda == fam.domain[0]


def test_schedule_huge_eps_two_points():
    assert len(geometric_schedule(9, 1000)) == 2


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        geometric_schedule(1, 1)
    with pytest.raises(ValueError):
        geometric_schedule(8, 0)


def test_geometric_cover_ring8():
    g = gen_ring(3)
    fam = sweep_geometric(g, 1)
    assert len(fam.members) == 4
    assert fam.lp_solve_count == 4
    assert fam.domain == (F(1, 16), F(1))
    assert fam.algo == "geometric"
    assert fam.coverage_gap() is None
    rep = certify_cover(fam, g)
    assert rep.ok
    assert rep.gap is None
    assert 1 <= rep.worst_ratio <= 2


def test_certify_cover_ring8_on_wider_and_narrower_domains():
    g = gen_ring(3)
    fam = sweep_geometric(g, 1)
    # at 0 both the LP value and member 0's line (P = 0) vanish: the point is
    # skipped, and only the uncovered [0, 1/32) fails the report
    assert fam.members[0].solution.line.P == 0
    rep = certify_cover(replace(fam, domain=(F(0), F(1))), g)
    assert not rep.ok
    assert rep.gap == (F(0), F(1, 32))
    assert rep.member_fail is None and rep.worst_ratio <= rep.bound
    # without member 0 the envelope is positive where the LP value is 0
    with pytest.raises(ValueError, match="^LP value vanishes at 0; ratio undefined$"):
        certify_cover(replace(fam, domain=(F(0), F(1)), members=fam.members[1:]), g)
    # on [1/2, 1] member 0, wholly below 1/2, is not held to the domain (its
    # line 28*lam exceeds twice the LP value 6 at 1/2): the report is ok
    assert fam.members[0].interval.covered_hi() < F(1, 2)
    assert fam.members[0].solution.line.value_at(F(1, 2)) > 2 * lp_curve(g).value_at(F(1, 2))
    rep = certify_cover(replace(fam, domain=(F(1, 2), F(1))), g)
    assert rep.ok and rep.gap is None and rep.member_fail is None


@pytest.mark.parametrize(
    "g",
    [gen_star(5), gen_path(6), gen_gnp(7, 0.5, seed=2)],
    ids=["star5", "path6", "gnp7"],
)
def test_geometric_cover_certifies(g):
    fam = sweep_geometric(g, F(1, 2))
    rep = certify_cover(fam, g)
    assert rep.ok
    assert rep.worst_ratio <= F(3, 2)
    # every member stays near-optimal at its own solve point
    assert rep.worst_ratio >= 1


def test_geometric_cover_n2_degenerate_domain():
    g = make_graph(2, [(0, 1)])
    fam = sweep_geometric(g, 1)
    assert fam.domain[0] == fam.domain[1] == 1
    assert fam.coverage_gap() is None
    rep = certify_cover(fam, g)
    assert rep.ok
    assert rep.points_checked == 1


def test_geometric_cover_scaled_objective():
    g = gen_ring(3)
    fam = sweep_geometric(g, 1, objective="lamcc")
    assert fam.objective == "lamcc"
    assert fam.domain == (fam.members[0].interval.lo, fam.members[-1].interval.hi)
    assert fam.coverage_gap() is None
    rep = certify_cover(fam, g)
    assert rep.ok
    assert rep.worst_ratio <= 2


def test_geometric_rejects_bad_inputs():
    g = gen_star(4)
    with pytest.raises(ValueError):
        sweep_geometric(g, 0)
    with pytest.raises(ValueError):
        sweep_geometric(g, 1, objective="modularity")


def test_fe_ring8_frozen():
    g = gen_ring(3)
    fam = sweep_fe(g, 1)
    assert fam.algo == "fe"
    assert len(fam.members) == 2
    assert fam.lp_solve_count == 2
    m0, m1 = fam.members
    assert (m0.interval.lo, m0.interval.hi) == (F(1, 32), F(2, 5))
    assert not m0.interval.hi_clamped
    # chain is exact: next member's backward reach lands on the last frontier
    assert m1.interval.lo == F(2, 5)
    assert m1.interval.hi == 1 - GUARD and m1.interval.hi_clamped
    assert fam.coverage_gap() is None


def _orlp_spy(monkeypatch):
    calls = []
    real = sweeps.orlp

    def spy(sol, s, lam0, eps, g):
        calls.append(lam0)
        return real(sol, s, lam0, eps, g)

    monkeypatch.setattr(sweeps, "orlp", spy)
    return calls


def test_fe_ring8_asks_orlp_only_short_of_one(monkeypatch):
    # at 4/5, (1+eps)*lam0 = 8/5 reaches 1: the transfer interval is the end
    calls = _orlp_spy(monkeypatch)
    fam = sweep_fe(gen_ring(3), 1)
    assert calls == [F(1, 16)]
    assert fam.members[1].interval == _transfer_interval(F(4, 5), 1)


@pytest.mark.parametrize("eps", [F(1, 4), F(1, 2), F(1)])
def test_fe_runs_orlp_exactly_where_transfer_stops_short_of_one(corpus, monkeypatch, eps):
    calls = _orlp_spy(monkeypatch)
    for _, g in corpus:
        calls.clear()
        fam = sweep_fe(g, eps)
        lams = [m.solution.lam for m in fam.members]
        assert calls == [lam for lam in lams if (1 + eps) * lam < 1]
        for m in fam.members:
            if (1 + eps) * m.solution.lam >= 1:
                assert m.interval == _transfer_interval(m.solution.lam, eps)


@pytest.mark.parametrize(
    "g,eps",
    [
        (gen_ring(3), F(1, 2)),
        (gen_star(7), F(1, 4)),
        (gen_path(6), F(1, 2)),
        (gen_gnp(7, 0.5, seed=2), F(1, 2)),
    ],
    ids=["ring8", "star7", "path6", "gnp7"],
)
def test_fe_size_bound_and_certifies(g, eps):
    fam = sweep_fe(g, eps)
    assert len(fam.members) <= ceil_log(1 + eps, g.n)
    assert fam.coverage_gap() is None
    rep = certify_cover(fam, g)
    assert rep.ok
    # frontier pushes grow fast: consecutive unclamped frontiers gain (1+eps)^2
    ivs = [m.interval for m in fam.members]
    for a, b in zip(ivs, ivs[1:]):
        if not a.hi_clamped and not b.hi_clamped and b.lo == a.hi:
            assert b.hi >= (1 + eps) ** 2 * a.hi


def test_fe_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sweep_fe(gen_star(4), 0)
    with pytest.raises(ValueError):
        sweep_fe(make_graph(2, [(0, 1)]), 1)


def _brute_min_cover_size(widened, domain):
    """Smallest subset of intervals covering [lo, hi], by exhaustion."""
    lo, hi = domain
    for k in range(1, len(widened) + 1):
        for combo in itertools.combinations(widened, k):
            cur = lo
            for iv in sorted(combo, key=lambda v: v.covered_lo()):
                if iv.covered_lo() > cur:
                    break
                cur = max(cur, iv.covered_hi())
            if cur >= hi:
                return k
    return len(widened)


@pytest.mark.parametrize(
    "g,eps",
    [(gen_ring(3), 1), (gen_gnp(7, 0.5, seed=2), F(1, 2))],
    ids=["ring8", "gnp7"],
)
def test_febe_is_minimum_subcover(g, eps):
    fe = sweep_fe(g, eps)
    febe = sweep_febe(g, eps)
    assert febe.algo == "febe"
    assert len(febe.members) <= len(fe.members)
    assert febe.lp_solve_count == fe.lp_solve_count
    assert febe.coverage_gap() is None
    assert certify_cover(febe, g).ok
    # chosen members reuse FE solve points
    fe_keys = {(m.solution.lam, m.solution.line) for m in fe.members}
    assert all((m.solution.lam, m.solution.line) in fe_keys for m in febe.members)
    # independent brute-force widening must not beat the greedy pick
    widened = []
    for m in fe.members:
        theta_b, cl_b = orlp(m.solution, -1, m.solution.lam, eps, g)
        widened.append(
            replace(
                m.interval,
                lo=m.solution.lam - theta_b,
                lo_clamped=cl_b,
            )
        )
    assert len(febe.members) == _brute_min_cover_size(widened, febe.domain)


def test_febe_star_families_are_tiny():
    for n in (5, 6, 7):
        febe = sweep_febe(gen_star(n), F(1, 4))
        assert len(febe.members) <= 3
        assert febe.coverage_gap() is None


def test_febe_never_larger_than_fe_at_small_eps():
    g = gen_star(6)
    assert len(sweep_febe(g, F(1, 10)).members) <= len(sweep_fe(g, F(1, 10)).members)


def test_family_envelope_matches_members():
    g = gen_star(5)
    fam = sweep_geometric(g, 1)
    env = family_envelope(fam)
    lam = fam.members[1].solution.lam
    vals = [m.solution.line.value_at(lam) for m in fam.members]
    assert env.value_at(lam) == min(vals)


def test_forward_factor_contiguous_chain():
    ivs = [
        LambdaInterval(F(1, 32), F(1, 8), 1),
        LambdaInterval(F(1, 8), F(1, 2), 1),
        LambdaInterval(F(1, 2), F(999, 1000), 1, hi_clamped=True),
    ]
    ws, p = forward_factor(ivs, 1)
    assert ws == [1, 1, 1]
    assert p == 0


def test_forward_factor_single_member():
    ws, p = forward_factor([LambdaInterval(F(1, 8), F(1, 2), 1)], 1)
    assert ws == [2]
    assert p == 1


def test_forward_factor_overlap_contributes_nothing():
    ivs = [
        LambdaInterval(F(1, 32), F(1, 4), 1),
        LambdaInterval(F(1, 8), F(1, 2), 1, hi_clamped=True),
    ]
    ws, p = forward_factor(ivs, 1)
    assert ws[0] == F(1, 2)
    assert ws[1] == 1
    assert p == 0


def test_forward_factor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        forward_factor([], 1)
    with pytest.raises(ValueError):
        forward_factor([LambdaInterval(F(1, 8), F(1, 2), 1)], 0)


def _exact_ranges(fam, g):
    return [eps_range(m.solution, m.solution.lam, 0, g) for m in fam.members]


def test_fe_size_bound_from_subcover_with_startup_term():
    # The w-gap accounting alone misses the frontier's climb from the domain
    # floor up to the first subcover member's exact-optimal range; that prefix
    # costs up to ceil(log_{(1+eps)^2}(lo_1/floor)) extra solves.
    cases = [
        (gen_star(4), F(1, 2)),
        (gen_star(6), F(1, 4)),
        (gen_ring(3), F(1)),
        (gen_ring(3), F(1, 2)),
        (gen_path(6), F(1, 2)),
        (gen_path(7), F(1)),
    ]
    for g, eps in cases:
        fe = sweep_fe(g, eps)
        febe = sweep_febe(g, eps)
        ranges = _exact_ranges(febe, g)
        _, p = forward_factor(ranges, eps)
        lo0 = ranges[0].covered_lo()
        floor = febe.domain[0]
        startup = ceil_log((1 + eps) ** 2, lo0 / floor) if lo0 > floor else 0
        bound = (F(p, 2) + 1) * len(febe.members) + startup
        assert len(fe.members) <= bound, (g.n, eps)


def test_fe_exceeds_plain_subcover_bound_on_small_star():
    # Frozen counterexample: without the startup term, (p/2+1)*|subcover|
    # undercounts FE here (the single best solution's exact-optimal range
    # starts at 1/3, above the 1/4 domain floor the frontier enters at).
    g = gen_star(4)
    fe = sweep_fe(g, F(1, 2))
    febe = sweep_febe(g, F(1, 2))
    ranges = _exact_ranges(febe, g)
    _, p = forward_factor(ranges, F(1, 2))
    assert (len(fe.members), len(febe.members), p) == (2, 1, 0)
    assert ranges[0].lo == F(1, 3) and febe.domain[0] == F(1, 4)


def test_member_stretched_past_its_range_fails_its_own_audit():
    # ring8's geometric cover with member 0, solved at 1/16, stretched
    # through 1: the envelope of all the members still passes, but member
    # 0's own line is 7/3 times the LP value at 1/2 and 7/2 times it at 1
    g = gen_ring(3)
    fam = sweep_geometric(g, 1)
    curve = lp_curve(g)
    assert certify_cover(fam, g, curve=curve).member_fail is None
    first = fam.members[0]
    assert first.solution.lam == F(1, 16)
    line = first.solution.line
    assert line.value_at(F(1, 2)) == F(7, 3) * curve.value_at(F(1, 2))
    assert line.value_at(1) == F(7, 2) * curve.value_at(1)
    stretched = replace(first, interval=replace(first.interval, hi=F(1, 2),
                                                hi_clamped=True))
    rep = certify_cover(replace(fam, members=(stretched,) + fam.members[1:]),
                        g, curve=curve)
    assert rep.gap is None and 1 <= rep.worst_ratio <= rep.bound == 2
    assert rep.member_fail == (0, F(1))
    assert not rep.ok


def _clipped(mem, fam):
    return (max(fam.domain[0], mem.interval.covered_lo()),
            min(fam.domain[1], mem.interval.covered_hi()))


def _over(mem, fam, curve, shift_m, lam):
    return (mem.solution.line.value_at(lam) - lam * shift_m
            > (1 + fam.eps) * (curve.value_at(lam) - lam * shift_m))


def _fails_at_a_breakpoint(mem, fam, curve, shift_m):
    """The member audit written out over every point that can decide it: both
    ends of the member's interval within the domain and every LP-curve
    breakpoint inside."""
    lo, hi = _clipped(mem, fam)
    at = {lo, hi}.union(b for b in curve.breakpoints if lo < b < hi)
    return lo <= hi and any(_over(mem, fam, curve, shift_m, lam) for lam in at)


@functools.lru_cache(maxsize=None)
def _stretch_case(name, algo):
    g = {"ring8": gen_ring(3), "star6": gen_star(6), "path7": gen_path(7),
         "gnp7_3": gen_gnp(7, 0.3, seed=5), "gnp8_3": gen_gnp(8, 0.3, seed=2),
         "gnp8_5": gen_gnp(8, 0.5, seed=1), "gnp7_8": gen_gnp(7, 0.8, seed=3)}[name]
    if algo == "febe":
        return g, sweep_febe(g, F(1, 2)), lp_curve(g)
    return g, sweep_geometric(g, F(1, 2), objective=algo), lp_curve(g)


# FEBE keeps one member on path7 and gnp7_8, admissible on the whole domain,
# so no stretch can fail there: those two graphs run geometric covers only
@pytest.mark.parametrize(
    "name,algo",
    [(name, "lamprime") for name in ("ring8", "star6", "path7", "gnp7_3",
                                     "gnp8_5", "gnp7_8")]
    + [(name, "lamcc") for name in ("ring8", "gnp7_3", "gnp7_8")]
    + [(name, "febe") for name in ("ring8", "star6", "gnp7_3", "gnp8_3",
                                   "gnp8_5")],
)
def test_member_audit_at_its_ends_matches_the_breakpoint_rule(name, algo):
    # stretch or shrink one member to a seeded interval, its ends drawn from
    # the curve's breakpoints, the domain ends, the solve points and random
    # fractions, clamped or not: checking the member's two ends gives the
    # verdict that checking every breakpoint inside gives too
    g, fam, curve = _stretch_case(name, algo)
    shift_m = objective_shift(fam.objective, g.m)
    rng = random.Random("%s/%s" % (name, algo))
    ends = sorted({b for b in curve.breakpoints if 0 < b < 1}
                  | {v for v in fam.domain if 0 < v < 1}
                  | {F(m.solution.lam) for m in fam.members})
    fails = 0
    for _ in range(30):
        i = rng.randrange(len(fam.members))
        lo, hi = sorted(rng.choice(ends) if rng.random() < 0.5
                        else F(rng.randrange(1, 60), 60) for _ in range(2))
        first = fam.members[i]
        iv = replace(first.interval, lo=lo, hi=hi, lo_clamped=rng.random() < 0.3,
                     hi_clamped=rng.random() < 0.3)
        others = fam.members[:i] + fam.members[i + 1:]
        members = tuple(sorted(others + (replace(first, interval=iv),),
                               key=lambda m: (m.interval.lo, m.interval.hi)))
        stretched = replace(fam, members=members)
        rep = certify_cover(stretched, g, curve=curve)
        failing = [j for j, m in enumerate(members)
                   if _fails_at_a_breakpoint(m, stretched, curve, shift_m)]
        fails += bool(failing)
        assert (rep.member_fail is None) == (not failing)
        assert rep.ok == (rep.gap is None and rep.worst_ratio <= rep.bound
                          and not failing)
        if failing:
            # reported at the lower end if it fails, else at the upper one
            j, lam = rep.member_fail
            assert j == failing[0]
            lo, hi = _clipped(members[j], stretched)
            assert lam == (lo if _over(members[j], stretched, curve, shift_m, lo)
                           else hi)
    assert fails  # the draws reach members that fail their own audit


def test_certify_reports_gap_for_truncated_family():
    g = gen_star(5)
    fam = sweep_geometric(g, 1)
    broken = replace(fam, members=fam.members[:1])
    rep = certify_cover(broken, g)
    assert not rep.ok
    assert rep.gap == (F(8, 25), 1)


def test_greedy_cover_gap_ends_inside_the_domain():
    # the next interval starts past the domain's end, at 7/10
    taken, gap = _greedy_cover([LambdaInterval(F(7, 10), F(8, 10))], F(1, 5), F(1, 2))
    assert (taken, gap) == ([], (F(1, 5), F(1, 2)))


def test_certify_rejects_foreign_graph():
    fam = sweep_geometric(gen_star(5), 1)
    with pytest.raises(ValueError):
        certify_cover(fam, gen_ring(3))


def test_family_requires_ordered_members():
    fam = sweep_geometric(gen_star(5), 1)
    with pytest.raises(ValueError):
        CoverFamily(
            tuple(reversed(fam.members)),
            fam.eps,
            fam.domain,
            fam.lp_solve_count,
        )


def _family_of(members, fam):
    return CoverFamily(tuple(members), fam.eps, fam.domain, fam.lp_solve_count)


def test_equal_members_apart_in_a_run_of_equal_lo_are_found():
    fam = sweep_geometric(gen_star(5), 1)
    a = fam.members[0]
    iv = a.interval
    assert iv.lo < iv.hi
    b = CoverMember(a.solution, replace(iv, hi=(iv.lo + iv.hi) / 2))  # only hi differs
    x = list(a.solution.x)
    x[0] += F(1, 7)
    c = CoverMember(replace(a.solution, x=tuple(x)), iv)  # only one x entry differs
    assert len(_family_of([a, b, c], fam).members) == 3
    for members in ([a, b, a], [b, a, c, a], [a, b, c, b]):
        with pytest.raises(ValueError, match="^members must be distinct$"):
            _family_of(members, fam)


def test_cover_family_hashes_no_member(monkeypatch):
    def unhashable(sol):
        raise AssertionError("a member's solution was hashed")

    monkeypatch.setattr(LpSolution, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(sweep_geometric(gen_star(4), 1).members[0].solution)
    g = gen_ring(3)
    fam = sweep_febe(g, F(1, 2))
    d = json.loads(json.dumps(family_to_dict(fam)))
    assert family_to_dict(family_from_dict(d, g.n)) == d  # the dual is not stored


def _line_through(p, q):
    slope = (q[1] - p[1]) / (q[0] - p[0])
    return CostLine(p[1] - slope * p[0], slope)


def test_line_below_curve_near_one_breakpoint_fails_audit():
    # a member line passing just under the LP curve's kink at 1/6 and above
    # it elsewhere: only that breakpoint shows a ratio below 1
    g = gen_ring(3)
    fam = sweep_geometric(g, 1)
    curve = lp_curve(g)
    a, b, c = F(1, 8), F(1, 6), F(1, 3)
    assert curve.breakpoints == [a, b, c]
    assert b not in family_envelope(fam).breakpoints
    # no member with x has such a line, so raise the kink of the curve the
    # audit is given instead; the genuine envelope touches the LP curve at b
    kink = (b, curve.value_at(b) + F(1, 1000))
    raised = envelope_of([
        curve.pieces[0].line,
        _line_through((a, curve.value_at(a)), kink),
        _line_through(kink, (c, curve.value_at(c))),
        curve.pieces[-1].line,
    ])
    assert raised.breakpoints == curve.breakpoints
    rep = certify_cover(fam, g, curve=raised)
    assert not rep.ok
    assert rep.worst_ratio <= 2 and rep.gap is None
    # a forged member without x never reaches the audit
    line = CostLine(curve.value_at(b) - F(1, 1000) - 10 * b, F(10))
    forged = LpSolution(g.n, b, (), line.value_at(b), line, ())
    members = sorted(fam.members + (CoverMember(forged, LambdaInterval(b, b, 1)),),
                     key=lambda m: m.interval.lo)
    with pytest.raises(ValueError, match="wrong length"):
        certify_cover(replace(fam, members=tuple(members)), g, curve=curve)


def _tamper(sol, field, pick, delta):
    if field == "P":
        return replace(sol, line=replace(sol.line, P=sol.line.P + delta))
    if field == "N":
        return replace(sol, line=replace(sol.line, N=sol.line.N + delta))
    if field == "value":
        return replace(sol, value=sol.value + delta)
    x = list(sol.x)
    x[pick % len(x)] += delta
    return replace(sol, x=tuple(x))


@functools.lru_cache(maxsize=None)
def _tamper_case(name):
    g = {"ring8": gen_ring(3), "star5": gen_star(5)}[name]
    return g, sweep_geometric(g, 1), lp_curve(g)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    name=st.sampled_from(["ring8", "star5"]),
    field=st.sampled_from(["P", "N", "value", "x"]),
    pick=st.integers(min_value=0, max_value=10 ** 6),
    delta=st.fractions(min_value=-2, max_value=2, max_denominator=64).filter(bool),
)
def test_tampered_member_fails_certification(name, field, pick, delta):
    g, fam, curve = _tamper_case(name)
    assert certify_cover(fam, g, curve=curve).ok
    i = pick % len(fam.members)
    members = list(fam.members)
    members[i] = replace(members[i], solution=_tamper(members[i].solution, field,
                                                      pick, delta))
    try:
        rep = certify_cover(replace(fam, members=tuple(members)), g, curve=curve)
    except ValueError:
        return
    assert not rep.ok


@functools.lru_cache(maxsize=None)
def _audit_case(name):
    if name == "ring8_geometric":
        g = gen_ring(3)
        fam = sweep_geometric(g, 1)
    elif name == "star5_febe":
        g = gen_star(5)
        fam = sweep_febe(g, F(1, 2))
    else:
        g = gen_gnp(7, 0.5, seed=2)
        fam = sweep_geometric(g, 1, objective="lamcc")
    curve = lp_curve(g)
    return g, fam, curve, family_envelope(fam), certify_cover(fam, g, curve=curve)


def _audit_ratio(g, fam, curve, env, lam):
    shift = lam * g.m if fam.objective == "lamcc" else 0
    return (env.value_at(lam) - shift) / (curve.value_at(lam) - shift)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    name=st.sampled_from(["ring8_geometric", "star5_febe", "gnp7_lamcc"]),
    t=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 4),
)
def test_audit_bounds_ratio_on_whole_domain(name, t):
    g, fam, curve, env, rep = _audit_case(name)
    assert rep.ok
    lo, hi = fam.domain
    worst = _audit_ratio(g, fam, curve, env, rep.worst_lambda)
    assert worst == rep.worst_ratio
    assert _audit_ratio(g, fam, curve, env, lo + t * (hi - lo)) <= worst


def _covered(intervals, lam):
    return any(iv.covered_lo() <= lam <= iv.covered_hi() for iv in intervals)


def _probes(intervals, lo, hi):
    """Points of [lo, hi] deciding its coverage: coverage is constant between
    consecutive interval ends, so the ends and the midpoints between them
    suffice."""
    ends = {lo, hi}
    ends.update(e for iv in intervals for e in (iv.covered_lo(), iv.covered_hi())
                if lo <= e <= hi)
    ends = sorted(ends)
    return ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]


def _union_covers(intervals, lo, hi):
    return all(_covered(intervals, lam) for lam in _probes(intervals, lo, hi))


_unit = st.fractions(min_value=0, max_value=1, max_denominator=12)
_inner = _unit.filter(lambda v: 0 < v < 1)
_interval = st.builds(
    lambda a, b, lc, hc: LambdaInterval(min(a, b), max(a, b), 1, lc, hc),
    _inner, _inner, st.booleans(), st.booleans(),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    intervals=st.lists(_interval, max_size=6),
    ends=st.tuples(_unit, _unit),
)
def test_greedy_cover_is_minimum_or_finds_a_gap(intervals, ends):
    lo, hi = sorted(ends)
    taken, gap = _greedy_cover(intervals, lo, hi)
    assert (gap is None) == _union_covers(intervals, lo, hi)
    if lo == hi:
        # a one-point domain: no gap exactly when some interval contains it
        assert (gap is None) == _covered(intervals, lo)
        assert gap is not None or len(taken) == 1
        return
    if gap is not None:
        a, b = gap
        assert lo <= a < b <= hi
        inner = [lam for lam in _probes(intervals, a, b) if a < lam < b]
        assert inner and not any(_covered(intervals, lam) for lam in inner)
        return
    assert _union_covers([intervals[i] for i in taken], lo, hi)
    smallest = next(k for k in range(len(intervals) + 1)
                    if any(_union_covers(c, lo, hi)
                           for c in itertools.combinations(intervals, k)))
    assert len(taken) == smallest
