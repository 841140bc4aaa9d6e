"""Sensitivity analysis of LP solutions along the lambda axis.

For a solution x* optimal at lam0, orlp() finds the largest step theta so
that x* stays a (1+eps)-approximation of the LP optimum at lam0 + s*theta.
The trick is to search for a dual vector u <= 0 of the rows A x <= b
feasible at the cost c(lam) of a new lambda (A^T u <= c(lam), where
c_p(lam) = [p in E] - lam) whose certified value still nearly matches the
value of x* there. With y = -u, and the new lambda written as
lam = e - s*t, where e = 1 for s = +1 and e = 0 for s = -1, so that t >= 0
is the distance of lam from the domain edge the step runs towards:

    minimize t
    s.t.     -(A^T y)_p - s*t <= [p in E] - e                 every pair p
             (1+eps) b.y - s*eps_lam*t <= b_eps
             y >= 0, t >= 0

where b_eps = -P - e*eps_lam, eps_lam = -(eps*Q + sum x*), P is the P of
x*'s line and Q the number of pairs. The step is
theta = s*(lam* - lam0) = s*(e - s*t* - lam0). This is the LP in theta
(pair rows -(A^T y)_p + s*theta <= c_p(lam0), the same epsilon row,
0 <= theta <= distance to the domain edge) except for theta >= 0, and that
bound is redundant: x*'s own certificate (y*, lam0) is feasible (its
epsilon row reads -eps * value <= 0, and lamprime and lamcc values are
>= 0), so the optimum has s*lam* >= s*lam0.

orlp solves the LP dual of this LP, in w_p >= 0 (one per pair row) and
nu = (1+eps)*mu >= 0 (mu the epsilon row's dual):

    minimize sum_p ([p in E] - e)*w_p + b_eps/(1+eps)*nu
    s.t.     A_r w - b_r*nu <= 0                        every row r of A
             s*(sum_p w_p + eps_lam/(1+eps)*nu) <= 1
             w >= 0, nu >= 0

and t* = -value. Each column y_r of the LP in t is the row of A it came
from, homogenized: a triangle row reads A_r w <= 0, the box row of p
w_p - nu <= 0 (nu's scale keeps it integer), and the column t gives the
last row. Every right-hand side is >= 0, so the slack basis is feasible
and the dual simplex has nothing to do; w = 0 shows t* >= 0. The last
row's marginal is -t*, and as every other right-hand side is 0 it equals
the value: orlp checks that.

Few triangle rows ever bind, so the LP grows by cuts in one tableau, as
every exact LP here does: it starts from every box row and the triangle
rows x*'s certificate names, and solve_canonical's cuts callback lists the
triangle rows its optimum w violates (lp._separate, the separation of the
primal solves), which are appended for the dual simplex to restore
feasibility. The callback reads the optimum as the tableau holds it, (w,
nu) as integers xi over delta, of which _separate reads only w, so no
round of cuts builds a Fraction. The starting rows keep the LP bounded:
(y*, lam0) is feasible for the LP in t over the same columns (with the
box rows alone that LP can be infeasible, and its dual unbounded). Once w
violates none, w is feasible for the dual over every row of A, and
optimal there as it is optimal over fewer rows: t*, theta and the clamp
are those of the full LP, not merely sound bounds.

Weak duality makes any feasible (y, lam) a proof; LP duality at the true
endpoint makes the bound tight, and concavity of the LP value curve makes the
approximate region an interval. With eps = 0 this recovers the exact optimal
range of x*. Reaching t* = 0, lam* = 1 (s = +1) or 0 (s = -1), records
that the range runs into the domain edge; callers treat a clamped endpoint
as coverage through that edge. orlp starts from lp.verify_certificate, the
one proof of an exact solution, and builds its LP from the rows of the LP
that proof returns.

The scaled objective lamcc (value shifted by -lambda*m) only changes the
constant Q to Q - objective_shift(objective, m) in the epsilon row.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .lp import LpSolution, _box, _separate, verify_certificate
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

    e = 1 if s > 0 else 0  # the domain edge: lam = e - s*t, t >= 0
    # sum x* is Q - N, as verify_certificate checked the line of x*
    eps_lam = -(eps * q_eff + len(prob.pairs) - xstar.line.N)
    b_eps = -xstar.line.P - e * eps_lam  # the epsilon row's right-hand side
    nu = prob.num_vars  # the column after w, one w_p per pair
    c = [int(g.has_edge(*p)) - e for p in prob.pairs] + [b_eps / (1 + eps)]

    # rows A_r w - b_r*nu <= 0: the triangle rows x*'s certificate names, so
    # that the LP is bounded, and every box row; then t's row
    keep = sorted({r for r, _ in xstar.dual if not prob.b[r]}) + _box(prob.n)
    rows = [prob.rows[r] + (((nu, -prob.b[r]),) if prob.b[r] else ())
            for r in keep]
    rows.append([(p, s) for p in range(nu)] + [(nu, s * eps_lam / (1 + eps))])
    t_row = len(keep)

    def cuts(xi, d):
        return [(prob.rows[r], 0) for r in _separate(xi, d, prob)]

    res = solve_canonical(c, rows, [0] * t_row + [1], cuts=cuts)
    if res.dual_ub[t_row] != res.value:
        raise AssertionError("inconsistent ORLP optimum")
    t = -res.value
    theta = s * (e - s * t - lam0)
    clamped = t == 0
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
