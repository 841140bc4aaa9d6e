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
             (1+eps) b.y - s*eps_lam*t <= -P - e*eps_lam
             y >= 0, t >= 0

where eps_lam = -(eps*Q + sum x*), P is the P of x*'s line and Q the number
of pairs. The step is theta = s*(lam* - lam0) = s*(e - s*t* - lam0). This
is the LP in theta (pair rows -(A^T y)_p + s*theta <= c_p(lam0), the same
epsilon row, 0 <= theta <= distance to the domain edge) except for
theta >= 0, and that bound is redundant: x*'s own certificate (y*, lam0) is
feasible (its epsilon row reads -eps * value <= 0, and lamprime and lamcc
values are >= 0), so the optimum has s*lam* >= s*lam0. The pair rows have
integer data, and no cost is negative, so the slack basis is dual feasible:
the dual simplex that makes it feasible ends optimal.

Few of the y columns are ever nonzero, so orlp solves this LP by column
generation in one tableau: solve_canonical's columns callback prices the
left-out columns at each optimum, and the priced ones are appended, written
in the current basis through the slack columns (B^-1 a), for the primal
simplex to go on from the last basis. The LP starts with the y of every box
row and of the triangle rows x*'s certificate names, so (y*, lam0) is
feasible from the start (with the box rows alone the LP can be infeasible).
A left-out triangle column y_r has cost 0 and meets only the pair rows,
with -A_r, so its reduced cost is sum_p A_rp u_p = -A_r w, where u <= 0 are
the pair-row duals and w = -u: the columns of negative reduced cost are
exactly the triangle rows that w violates (A_r w > 0 = b_r), found by
lp._separate, the separation of the primal solves. Once w violates none,
every column of the full LP has reduced cost >= 0 at the last basis, so
that basis is optimal there too: t*, theta and the clamp are those of the
full LP, not merely sound bounds.

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
    b = [int(g.has_edge(*p)) - e for p in prob.pairs]
    # sum x* is Q - N, as verify_certificate checked the line of x*
    eps_lam = -(eps * q_eff + len(prob.pairs) - xstar.line.N)
    b.append(-xstar.line.P - e * eps_lam)  # the epsilon row

    # y columns: the triangle rows x*'s certificate names (b = 0), so that
    # (y*, lam0) is feasible from the start, and every box row; then t
    keep = sorted({r for r, _ in xstar.dual if not prob.b[r]}) + _box(prob.n)
    t_col = len(keep)
    # pair rows: -(A^T y)_p - s*t <= [p in E] - e, the LP rows transposed
    A = [[] for _ in range(prob.num_vars)]
    for col, r in enumerate(keep):
        for var, coeff in prob.rows[r]:
            A[var].append((col, -coeff))
    for row in A:
        row.append((t_col, -s))
    # epsilon row, flipped to <=
    A.append([(col, (1 + eps) * prob.b[r]) for col, r in enumerate(keep)
              if prob.b[r]] + [(t_col, -s * eps_lam)])

    def columns(dual_ub):
        # the pair-row duals u <= 0 price every left-out column; a triangle
        # column meets the pair rows alone
        w = [-u for u in dual_ub[:prob.num_vars]]
        return [(0, [(var, -coeff) for var, coeff in prob.rows[r]])
                for r in _separate(w, prob)]

    res = solve_canonical([0] * t_col + [1], A, b, columns=columns)
    t = res.x[t_col]
    if t != res.value:
        raise AssertionError("inconsistent ORLP optimum")
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
