"""Sensitivity analysis of LP solutions along the lambda axis.

For a solution x* optimal at lam0, orlp() finds the largest step theta so
that x* stays a (1+eps)-approximation of the LP optimum at lam0 + s*theta.
Write L(lam) = P + lam*N for the cost line of x*, LP(lam) for the LP value
and m' = objective_shift(objective, m), so that the objective is the
lamprime value less lam*m'. Then x* is a (1+eps)-approximation at lam,
L - lam*m' <= (1+eps)*(LP - lam*m'), exactly when

    g(lam) = L(lam) - (1+eps)*LP(lam) + eps*lam*m' <= 0.

LP is concave (a minimum of lines), so g is convex, and
g(lam0) = -eps*(LP(lam0) - lam0*m') <= 0, as both objectives are >= 0 on
the metric polytope. So x* is admissible on an interval around lam0, whose
end in direction s is the root of g between lam0 and the domain edge e
(e = 1 for s = +1, 0 for s = -1), or e itself when g(e) <= 0.

orlp finds that end by Newton's method over solve_lp, the one proven LP
solve (Dinkelbach, Management Science 13, 1967). It solves the LP at e;
g(e) <= 0 clamps the range to the edge. Otherwise, with L_k the line of
the last solve, made at lam_k, it steps to the root of the line

    h_k(lam) = L(lam) - (1+eps)*L_k(lam) + eps*lam*m'

and solves the LP there, until g is 0 at the solve's lam. The end is exact:

- h_k <= g everywhere, as L_k, the line of a feasible x, is >= LP; they
  meet at lam_k, where L_k is the optimum. So h_k(lam0) <= g(lam0) <= 0 <
  g(lam_k) = h_k(lam_k): h_k is strictly monotone, its root lam_{k+1} lies
  from lam0 up to but short of lam_k, and g(lam_{k+1}) >= h_k(lam_{k+1})
  = 0. A solve with g < 0 there breaks the proof, and orlp raises
  AssertionError.
- Sound: when g(lam_{k+1}) = 0, g is convex and <= 0 at both lam0 and
  lam_{k+1}, so it is <= 0 between them.
- Maximal: past lam_{k+1}, away from lam0, g >= h_k > 0.
- Finite: the iterates move strictly towards lam0, and a line has one root,
  so no line repeats; the lines are those of the LP's vertices.

Every LP(lam) read is a solve_lp solution, proven by verify_certificate, and
x*'s own by verify_certificate on entry, so each end of a range is proven.
With eps = 0 this recovers the exact optimal range of x*. A clamped end
records that the range runs into the domain edge; callers treat it as
coverage through that edge, and theta stops GUARD short of it.

The same end is the optimum of an LP in theta, over the duals of the
metric LP's rows with one epsilon row. The tests keep that LP,
_orlp_in_theta, as the reference orlp must agree with.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .lp import LpSolution, solve_lp, verify_certificate
from .objectives import objective_shift
from .rationals import GUARD, rat


@dataclass(frozen=True)
class LambdaInterval:
    lo: Fraction
    hi: Fraction
    eps: Fraction = Fraction(0)
    lo_clamped: bool = False
    hi_clamped: bool = False

    def __post_init__(self):
        if not 0 < self.lo <= self.hi < 1:
            raise ValueError("need 0 < lo <= hi < 1")

    @property
    def kind(self):
        return "optimal" if self.eps == 0 else "eps-approximate"

    def contains(self, lam):
        return self.lo <= lam <= self.hi

    def covered_lo(self):
        """Left end for coverage purposes; a clamp reaches the domain edge."""
        return Fraction(0) if self.lo_clamped else self.lo

    def covered_hi(self):
        return Fraction(1) if self.hi_clamped else self.hi


def orlp(xstar: LpSolution, s: int, lam0, eps, g: Graph, objective="lamprime"):
    """Largest admissible step from lam0 in direction s; (theta, clamped)."""
    verify_certificate(xstar, g)
    if s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    lam0 = rat(lam0)
    eps = rat(eps)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    if rat(xstar.lam) != lam0:
        raise ValueError("x* was not solved at lambda0")
    m = objective_shift(objective, g.m)

    e = 1 if s > 0 else 0  # the domain edge the step runs towards
    lam = Fraction(e)
    while True:
        opt = solve_lp(g, lam).line  # L_k, the LP's optimum at lam
        a = xstar.line.P - (1 + eps) * opt.P  # h_k(lam) = a + b*lam
        b = xstar.line.N - (1 + eps) * opt.N + eps * m
        gap = a + b * lam  # the docstring's g(lam), as h_k(lam) = g(lam)
        if lam == e and gap <= 0:  # stop GUARD short of the edge
            return max(Fraction(0), s * (e - lam0) - GUARD), True
        if gap == 0:
            return s * (lam - lam0), False
        if gap < 0:
            raise AssertionError("Newton step passed the end of the range")
        lam = -a / b


def eps_range(xstar: LpSolution, lam0, eps, g: Graph, objective="lamprime"):
    """Interval around lam0 where x* is a (1+eps)-approximation."""
    lam0 = rat(lam0)
    t_fwd, c_fwd = orlp(xstar, 1, lam0, eps, g, objective=objective)
    t_bwd, c_bwd = orlp(xstar, -1, lam0, eps, g, objective=objective)
    return LambdaInterval(
        lo=lam0 - t_bwd,
        hi=lam0 + t_fwd,
        eps=rat(eps),
        lo_clamped=c_bwd,
        hi_clamped=c_fwd,
    )
