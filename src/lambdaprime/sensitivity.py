"""Sensitivity analysis of LP solutions along the lambda axis.

For a solution x* optimal at lam0, orlp() finds the largest step theta so
that x* stays a (1+eps)-approximation of the LP optimum at lam0 + s*theta.
The trick is to search for a dual vector u <= 0 of the rows A x <= b
feasible at the cost c(lam) of a new lambda (A^T u <= c(lam), where
c_p(lam) = [p in E] - lam) whose certified value still nearly matches the
value of x* there. With y = -u and lam itself as the variables:

    maximize s*lam
    s.t.     -(A^T y)_p + lam <= [p in E]                     every pair p
             (1+eps) b.y - lam (eps*Q + sum x*) <= -P
             lam <= 1                                          (s = +1 only)
             y >= 0, lam >= 0

where P is the P of x*'s line and Q the number of pairs. The step is
theta = s*(lam* - lam0). Writing lam = lam0 + s*theta turns this into the
LP in theta (pair rows -(A^T y)_p + s*theta <= c_p(lam0), the same epsilon
row, 0 <= theta <= distance to the domain edge) except for theta >= 0, and
that bound is redundant: x*'s own certificate (y*, lam0) is feasible (its
epsilon row reads -eps * value <= 0, and lamprime and lamcc values are
>= 0), so the optimum has s*lam* >= s*lam0. In lam, every pair row has
integer data and a right-hand side >= 0, so the epsilon row is the only one
with fractions and the only one that can need a phase-1 artificial.

Weak duality makes any feasible (y, lam) a proof; LP duality at the true
endpoint makes the bound tight, and concavity of the LP value curve makes the
approximate region an interval. With eps = 0 this recovers the exact optimal
range of x*. Reaching lam* = 1 (s = +1) or 0 (s = -1) records that the range
runs into the domain edge; callers treat a clamped endpoint as coverage
through that edge. orlp starts from lp.verify_certificate, the one proof of
an exact solution, and builds its LP from the rows of the LP that proof
returns.

The scaled objective lamcc (value shifted by -lambda*m) only changes the
constant Q to Q - objective_shift(objective, m) in the epsilon row.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .lp import LpSolution, verify_certificate
from .objectives import objective_shift
from .rationals import GUARD, rat
from .simplex import solve_canonical


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
    prob = verify_certificate(xstar, g)
    if s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    lam0 = rat(lam0)
    eps = rat(eps)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    if rat(xstar.lam) != lam0:
        raise ValueError("x* was not solved at lambda0")
    q_eff = len(prob.pairs) - objective_shift(objective, g.m)

    lam_col = prob.num_rows  # columns: y, then lam
    # pair rows: -(A^T y)_p + lam <= [p in E], the LP rows transposed
    A = [[] for _ in range(prob.num_vars)]
    for r, coeffs in enumerate(prob.rows):
        for var, coeff in coeffs:
            A[var].append((r, -coeff))
    for row in A:
        row.append((lam_col, 1))
    b = [int(g.has_edge(*p)) for p in prob.pairs]
    # epsilon row, flipped to <=
    A.append([(r, (1 + eps) * bi) for r, bi in enumerate(prob.b) if bi] + [
        (lam_col, -(eps * q_eff + sum(rat(v) for v in xstar.x)))
    ])
    b.append(-xstar.line.P)
    if s > 0:  # the domain edge lam <= 1; lam >= 0 is the variable's own bound
        A.append(((lam_col, 1),))
        b.append(1)

    obj = [0] * prob.num_rows + [-s]
    res = solve_canonical(obj, A, b)
    lam = res.x[lam_col]
    if -s * lam != res.value:
        raise AssertionError("inconsistent ORLP optimum")
    theta = s * (lam - lam0)
    clamped = lam == (1 if s > 0 else 0)
    if clamped:  # stop GUARD short of the domain edge
        theta = max(Fraction(0), theta - GUARD)
    return theta, clamped


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
