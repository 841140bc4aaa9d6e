"""Cover families: small sets of LP solutions that stay near-optimal across
the whole lambda range.

Three constructions:

* sweep_geometric solves at a fixed geometric schedule. A solution from
  lambda_s keeps ratio lambda'/lambda_s when reused at lambda' > lambda_s
  (and symmetrically below), so it certifiably covers
  [lambda_s/(1+eps), (1+eps)*lambda_s] with factor 1+eps. The scaled
  objective uses the same transfer argument in gamma = lambda/(1-lambda).

* sweep_fe walks a frontier. Each member, solved at lambda0, starts from
  the transfer interval [lambda0/(1+eps), (1+eps)*lambda0] above. Where
  that stops short of 1, orlp (s=+1) pushes its end forward as far as the
  sensitivity range allows. Where it reaches 1, orlp could only clamp: by
  the transfer argument, and as the LP value is nondecreasing, the member's
  line at 1 is at most LP(lambda0)/lambda0 <= LP(1)/lambda0 <= (1+eps)*LP(1),
  so reuse covers [lambda0, 1). The next member is solved at (1+eps)
  times the end, or at the end when that reaches 1.

* sweep_febe re-runs orlp backward on every FE member to get its full
  approximate range, then greedily keeps a minimum subfamily that still
  covers the domain.

certify_cover re-checks any family from scratch: every member's x against
its recorded line and value, exact interval coverage, an exact
worst-ratio audit at the breakpoints of the LP curve and of the member
envelope, which bounds the ratio everywhere, and each member's line
against (1+eps) times the LP value on the member's own interval (see
certify_cover).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .analytic import lamcc_schedule
from .curves import PwlCurve, envelope_of
from .graphs import Graph
from .lp import LpSolution, check_solution, lp_curve, solve_lp
from .objectives import objective_shift
from .rationals import GUARD, ceil_log, floor_log, rat
from .sensitivity import LambdaInterval, orlp


@dataclass(frozen=True)
class CoverMember:
    solution: LpSolution
    interval: LambdaInterval


@dataclass(frozen=True)
class CoverFamily:
    members: tuple  # CoverMember, ordered by interval.lo
    eps: Fraction
    domain: tuple  # (lo, hi)
    lp_solve_count: int
    objective: str = "lamprime"
    algo: str = ""

    def __post_init__(self):
        objective_shift(self.objective, 0)  # rejects an unknown objective
        if not self.members:
            raise ValueError("a cover family needs at least one member")
        if self.eps < 0:
            raise ValueError("epsilon must be >= 0")
        los = [m.interval.lo for m in self.members]
        if los != sorted(los):
            raise ValueError("members must be ordered by interval.lo")
        if not 0 <= self.domain[0] <= self.domain[1] <= 1:
            raise ValueError("domain must have 0 <= lo <= hi <= 1")
        if len(set(self.members)) < len(self.members):
            raise ValueError("members must be distinct")

    def coverage_gap(self):
        """First uncovered subinterval of the domain, or None."""
        return _greedy_cover([m.interval for m in self.members], *self.domain)[1]


def _greedy_cover(intervals, lo, hi):
    """(taken, gap): a minimum cover of [lo, hi] by intervals, or its first gap.

    From cur = lo, take the interval reaching furthest past cur among those
    starting at or before it (the earliest index on ties), until cur >= hi
    and one is taken (a one-point domain needs an interval containing it).
    taken lists the indices chosen. When no interval serves, gap is (cur,
    the next covered_lo, clipped to hi); otherwise gap is None.
    """
    taken, cur = [], lo
    while cur < hi or not taken:
        reach = [i for i, iv in enumerate(intervals) if iv.covered_lo() <= cur]
        best = max(reach, key=lambda i: intervals[i].covered_hi(), default=None)
        if best is None or intervals[best].covered_hi() < cur or (
                intervals[best].covered_hi() == cur < hi):
            later = [iv.covered_lo() for iv in intervals if iv.covered_lo() > cur]
            return taken, (cur, min(later + [hi]))
        taken.append(best)
        cur = intervals[best].covered_hi()
    return taken, None


def family_envelope(family: CoverFamily) -> PwlCurve:
    """Lower envelope of the member cost lines over [0, 1]."""
    return envelope_of([m.solution.line for m in family.members])


def _transfer_interval(lam_solve, eps):
    """Interval certified for a solution solved at lam_solve by cost-line reuse."""
    lo = lam_solve / (1 + eps)
    hi_raw = (1 + eps) * lam_solve
    if hi_raw >= 1:
        return LambdaInterval(lo, 1 - GUARD, eps, hi_clamped=True)
    return LambdaInterval(lo, hi_raw, eps)


def geometric_schedule(n, eps):
    """Raw solve points: 4/n^2 growing by (1+eps)^2, then 1/(1+eps) last.

    4/n^2 is the threshold below which one cluster is already optimal.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    lam = Fraction(4, n * n)
    q = floor_log((1 + eps) ** 2, 1 / lam) + 1
    out = [lam]
    for _ in range(q - 1):
        lam *= (1 + eps) ** 2
        out.append(lam)
    if out[-1] != 1 / (1 + eps):
        out.append(1 / (1 + eps))
    return out


def sweep_geometric(g: Graph, eps, objective="lamprime") -> CoverFamily:
    eps = rat(eps)  # both schedules reject eps <= 0
    objective_shift(objective, g.m)  # rejects an unknown objective before solving
    if objective == "lamprime":
        sched = geometric_schedule(g.n, eps)
        points = [min(lam, 1 - GUARD) for lam in sched]
        intervals = [_transfer_interval(lam, eps) for lam in points]
        domain = (sched[0], Fraction(1))
    else:
        points = lamcc_schedule(g.n, eps)
        # each point covers up to its neighbours; the end points repeat
        ends = points[:1] + points + points[-1:]
        intervals = [LambdaInterval(a, b, eps) for a, b in zip(ends, ends[2:])]
        domain = (points[0], points[-1])
    members = [CoverMember(solve_lp(g, lam), iv) for lam, iv in zip(points, intervals)]
    members.sort(key=lambda m: (m.interval.lo, m.interval.hi))
    return CoverFamily(
        tuple(members), eps, domain, len(members), objective, "geometric"
    )


def sweep_fe(g: Graph, eps) -> CoverFamily:
    """Frontier extension: greedy forward pushes with sensitivity certificates."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("the frontier step needs epsilon > 0")
    if g.n < 3:
        raise ValueError("frontier sweep needs n >= 3")
    domain = (Fraction(4, g.n * g.n), Fraction(1))
    lam0, members = domain[0], []
    while True:
        sol = solve_lp(g, lam0)
        iv = _transfer_interval(lam0, eps)
        if not iv.hi_clamped:
            theta, clamped = orlp(sol, 1, lam0, eps, g)
            iv = replace(iv, hi=lam0 + theta, hi_clamped=clamped)
        members.append(CoverMember(sol, iv))
        if iv.hi_clamped:
            break
        lam0 = iv.hi if (1 + eps) * iv.hi >= 1 else (1 + eps) * iv.hi
    return CoverFamily(tuple(members), eps, domain, len(members), "lamprime", "fe")


def sweep_febe(g: Graph, eps) -> CoverFamily:
    """FE followed by backward widening and a greedy minimum subcover."""
    fe = sweep_fe(g, eps)
    widened = []
    for mem in fe.members:
        lam_i = rat(mem.solution.lam)
        theta_b, cl_b = orlp(mem.solution, -1, lam_i, fe.eps, g)
        iv = replace(mem.interval, lo=lam_i - theta_b, lo_clamped=cl_b)
        widened.append(CoverMember(mem.solution, iv))
    taken, gap = _greedy_cover([m.interval for m in widened], *fe.domain)
    if gap is not None:
        raise AssertionError("frontier cover has a gap at %s" % gap[0])
    chosen = sorted((widened[i] for i in taken),
                    key=lambda m: (m.interval.lo, m.interval.hi))
    return CoverFamily(
        tuple(chosen), fe.eps, fe.domain, fe.lp_solve_count, "lamprime", "febe"
    )


def forward_factor(family, eps):
    """Forward ratios w_i between consecutive ranges and p = max ceil-log.

    family is a sequence of LambdaIntervals. w_i = lo_{i+1}/hi_i for all but
    the last range, w_last = 1/hi_last; overlaps give w < 1 and contribute
    nothing through the max with 0.
    """
    if not family:
        raise ValueError("empty family")
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    ws = []
    for i, iv in enumerate(family):
        beta = iv.covered_hi()
        if i + 1 < len(family):
            ws.append(family[i + 1].covered_lo() / beta)
        else:
            ws.append(1 / beta)
    p = 0
    for w in ws:
        if w > 1:
            p = max(p, ceil_log(1 + eps, w))
    return ws, p


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    gap: object  # None or (lo, hi)
    worst_ratio: Fraction
    worst_lambda: Fraction
    bound: Fraction
    points_checked: int
    # None, or (i, lam): member i's line exceeds bound times the LP value at
    # lam, inside the member's own interval
    member_fail: object = None


def certify_cover(family: CoverFamily, g: Graph, curve=None):
    """Re-check a family from scratch: members, coverage and the worst ratio.

    Every member must pass check_solution, so its line is realized by a
    feasible x and lies on or above the LP curve. The audit
    then evaluates envelope/curve exactly at the ends lo_d and hi_d of the
    closed domain (lam = 1 included, and a one-point domain is its one
    point) and at every breakpoint of either curve between them, and nothing
    else. Between two consecutive audit points both curves are affine, say
    a + b*lam and c + d*lam (for lamcc both are shifted by -lam*m, which
    keeps them affine). Where the LP value c + d*lam is positive at both ends
    it is positive in between (the curve is concave), so the ratio has
    derivative (b*c - a*d)/(c + d*lam)^2 of one sign: it is monotone there,
    and its extremes over the whole domain sit at audit points. A ratio below
    1 means a member line dips below the curve; it fails the audit. Once
    every member has passed check_solution, no file input can cause it
    against the LP curve: the check stays as a guard. A point where both
    values are 0 (an edgeless graph, or lamcc on a disjoint union of
    cliques) counts as ratio 1, as `round` counts it, so worst_lambda is always
    a point that was audited.

    Each member is then held to its own interval: its line must stay at or
    below bound times the LP value on [covered_lo, covered_hi] within the
    domain, or a family whose envelope passes could still hand a member
    out where it is no (1+eps)-approximation. The excess of line over bound
    times curve is an affine function minus a concave one, so convex (the
    lamcc shift is affine too), and a convex function on an interval is at
    most the larger of its values at the two ends: the ends suffice, and a
    failing member is reported at lo if lo fails, else at hi.
    """
    for mem in family.members:
        check_solution(mem.solution, g)
    gap = family.coverage_gap()
    lo_d, hi_d = family.domain
    bound = 1 + family.eps
    if curve is None:
        curve = lp_curve(g)
    env = family_envelope(family)
    points = {lo_d, hi_d}
    points.update(
        b for b in curve.breakpoints + env.breakpoints if lo_d <= b <= hi_d
    )
    shift_m = objective_shift(family.objective, g.m)
    worst = Fraction(0)
    worst_lam = lo_d
    below = False
    for lam in sorted(points):
        lpv = curve.value_at(lam) - lam * shift_m
        mv = env.value_at(lam) - lam * shift_m
        if lpv == 0:
            if mv != 0:
                raise ValueError("LP value vanishes at %s; ratio undefined" % lam)
            ratio = Fraction(1)  # 0/0: the envelope meets the curve, as in round
        else:
            ratio = mv / lpv
        below = below or ratio < 1
        if ratio > worst:
            worst, worst_lam = ratio, lam
    member_fail = None
    for i, mem in enumerate(family.members):
        lo = max(lo_d, mem.interval.covered_lo())
        hi = min(hi_d, mem.interval.covered_hi())
        if lo > hi:
            continue
        over = [lam for lam in (lo, hi)
                if mem.solution.line.value_at(lam) - lam * shift_m
                > bound * (curve.value_at(lam) - lam * shift_m)]
        if over:
            member_fail = (i, over[0])
            break
    ok = gap is None and worst <= bound and not below and member_fail is None
    return CoverReport(ok, gap, worst, worst_lam, bound, len(points), member_fail)
