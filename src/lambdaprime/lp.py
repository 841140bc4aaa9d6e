"""Metric LP relaxation of the clustering objective.

Variables are pairwise "distances" x_ij in [0,1] over the lex-ordered pairs
of an n-node graph. The program is

    min  sum_E (1-lam) x_ij + sum_nonE (-lam) x_ij + lam*C(n,2)
    s.t. x_ik + x_jk - x_ij >= 0   for every triple and isolated pair
         -x_ij >= -1
         x >= 0

whose objective equals P + lam*N with P = sum of x over edges and
N = sum over all pairs of (1 - x_ij). Integral x encode partitions, so the
optimum lower-bounds the best clustering at every lam.

LpProblem keeps the rows sparse, three entries per triangle row, and the exact
mode hands them to the in-package simplex in that form. Each side of the
optimality proof is checked in one place: check_solution owns the primal side
(box, triangles, the cost line of x and the value on it), and
check_certificate only the dual side (y >= 0, A^T y <= c, b.y = value).
solve_lp offers that exact rational mode and a float mode (scipy HiGHS with
tightened tolerances) for larger graphs. lp_curve recovers the full
piecewise-linear value curve exactly: the cost c0 - lam*1 is affine in lam,
so one parametric simplex walk over [0, 1] visits an optimal vertex of every
piece, and the curve is the lower envelope of their cost lines.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .curves import PwlCurve, envelope_of
from .graphs import Graph
from .objectives import CostLine
from .rationals import rat
from .simplex import solve_canonical, walk_canonical


@dataclass(frozen=True)
class LpProblem:
    """min c.x + constant  s.t. each row . x >= rhs, x >= 0.

    Each row is a tuple of (var, coeff) pairs listing its nonzeros.
    """

    n: int
    lam: Fraction
    pairs: tuple  # lex-ordered (i, j)
    c: tuple  # objective coefficient per pair
    rows: tuple  # tuple of ((var, coeff), ...) in fixed order
    rhs: tuple
    constant: Fraction

    @property
    def num_vars(self):
        return len(self.pairs)

    @property
    def num_rows(self):
        return len(self.rows)


def pair_index(n):
    """Map lex-ordered pairs to variable indices."""
    pairs = list(combinations(range(n), 2))
    return pairs, {p: k for k, p in enumerate(pairs)}


def build_lp(g: Graph, lam) -> LpProblem:
    lam = rat(lam)
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    pairs, idx = pair_index(g.n)
    c = tuple(
        (1 - lam) if g.has_edge(*p) else -lam for p in pairs
    )
    rows = []
    rhs = []
    for i, j, k in combinations(range(g.n), 3):
        ij, ik, jk = idx[(i, j)], idx[(i, k)], idx[(j, k)]
        # one row per isolated pair of the triple
        rows.append(((ij, -1), (ik, 1), (jk, 1)))
        rows.append(((ij, 1), (ik, -1), (jk, 1)))
        rows.append(((ij, 1), (ik, 1), (jk, -1)))
        rhs.extend((Fraction(0), Fraction(0), Fraction(0)))
    for p in range(len(pairs)):
        rows.append(((p, -1),))
        rhs.append(Fraction(-1))
    q = Fraction(len(pairs))
    return LpProblem(
        n=g.n,
        lam=lam,
        pairs=tuple(pairs),
        c=c,
        rows=tuple(rows),
        rhs=tuple(rhs),
        constant=lam * q,
    )


@dataclass(frozen=True)
class LpSolution:
    n: int
    lam: object  # Fraction (exact) or float
    x: tuple  # per lex pair
    value: object
    line: CostLine
    dual: tuple  # y >= 0 for the >=-form rows
    exact: bool = True
    # simplex pivots that reached x (0 when unknown); not part of the value
    pivots: int = field(default=0, compare=False)


def check_solution(sol: LpSolution, g: Graph):
    """Raise ValueError unless sol is a point of g's metric LP as recorded.

    Checks n, the length of x, the box 0 <= x <= 1 and every triangle
    inequality; for an exact solution also that x realizes the stored cost
    line and that the line takes the stored value at sol.lam. Returns the
    pair index map of g.
    """
    tol = 0 if sol.exact else 1e-8
    n = g.n
    if sol.n != n:
        raise ValueError("solution is for n=%d, graph has n=%d" % (sol.n, n))
    if len(sol.x) != n * (n - 1) // 2:
        raise ValueError("solution vector has wrong length")
    x = sol.x
    for v in x:
        if v < -tol or v > 1 + tol:
            raise ValueError("entry %s outside [0, 1]" % (v,))
    idx = pair_index(n)[1]
    for i, j, k in combinations(range(n), 3):
        a, b, c = x[idx[(i, j)]], x[idx[(i, k)]], x[idx[(j, k)]]
        if a > b + c + tol or b > a + c + tol or c > a + b + tol:
            raise ValueError("triangle inequality fails at (%d,%d,%d)" % (i, j, k))
    if sol.exact:
        if _line_of_x(g, x, idx) != sol.line:
            raise ValueError("cost line at lambda=%s is not the line of x" % sol.lam)
        if sol.line.value_at(sol.lam) != sol.value:
            raise ValueError("value at lambda=%s is not on the cost line" % sol.lam)
    return idx


def check_certificate(prob: LpProblem, y, value):
    """Raise ValueError unless y proves that value is at most the optimum of prob.

    y must have one entry per row, be dual feasible (y >= 0 and A^T y <= c)
    and attain value: b.y + constant = value. With a feasible x of that
    value (check_solution) this proves value optimal.
    """
    if len(y) != prob.num_rows:
        raise ValueError("dual certificate has %d entries, need %d"
                         % (len(y), prob.num_rows))
    if any(v < 0 for v in y):
        raise ValueError("dual certificate has a negative entry")
    aty = [0] * prob.num_vars
    for coeffs, yi in zip(prob.rows, y):
        if yi:
            for var, coeff in coeffs:
                aty[var] += coeff * yi
    if any(a > ci for a, ci in zip(aty, prob.c)):
        raise ValueError("dual certificate infeasible")
    if sum(yi * bi for yi, bi in zip(y, prob.rhs)) + prob.constant != value:
        raise ValueError("dual certificate does not prove optimality")


def _line_of_x(g: Graph, x, idx):
    p = sum(x[idx[e]] for e in g.sorted_edges())
    npairs = len(x)
    nval = npairs - sum(x)
    return CostLine(p, nval)


def solve_lp(g: Graph, lam, mode="exact") -> LpSolution:
    """Solve the metric LP at one lambda; exact Fractions or HiGHS floats."""
    if mode == "exact":
        return _solve_exact(g, lam)
    if mode == "float":
        return _solve_float(g, lam)
    raise ValueError("mode must be 'exact' or 'float'")


def _le_form(prob: LpProblem):
    """prob's rows flipped to A x <= b; every b is 0 or 1, so the slack
    basis is feasible."""
    return ([tuple((j, -coeff) for j, coeff in row) for row in prob.rows],
            [-v for v in prob.rhs])


def _solve_exact(g: Graph, lam) -> LpSolution:
    prob = build_lp(g, lam)
    res = solve_canonical(prob.c, *_le_form(prob))
    _, idx = pair_index(g.n)
    sol = LpSolution(
        n=g.n, lam=prob.lam, x=tuple(res.x), value=res.value + prob.constant,
        line=_line_of_x(g, res.x, idx), dual=tuple(-u for u in res.dual_ub),
        exact=True, pivots=res.pivots,
    )
    check_solution(sol, g)
    check_certificate(prob, sol.dual, sol.value)
    return sol


_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _solve_float(g: Graph, lam) -> LpSolution:
    from scipy.optimize import linprog

    prob = build_lp(g, lam)
    lamf = float(prob.lam)
    nv = prob.num_vars
    cf = [float(v) for v in prob.c]
    # triangle rows only; box handled via bounds
    n_tri = prob.num_rows - nv
    Gf = []
    for row in prob.rows[:n_tri]:
        dense = [0.0] * nv
        for j, coeff in row:
            dense[j] = -float(coeff)
        Gf.append(dense)
    hf = [0.0] * n_tri
    res = linprog(cf, A_ub=Gf, b_ub=hf, bounds=(0, 1), method="highs",
                  options=_HIGHS_OPTS)
    if res.status != 0:
        raise AssertionError("HiGHS failed: %s" % res.message)
    _, idx = pair_index(g.n)
    x = tuple(min(1.0, max(0.0, float(v))) for v in res.x)
    dual_tri = tuple(-float(u) for u in res.ineqlin.marginals)
    dual_ub = tuple(max(0.0, -float(u)) for u in res.upper.marginals)
    sol = LpSolution(
        n=g.n, lam=lamf, x=x, value=float(res.fun) + lamf * len(prob.pairs),
        line=_line_of_x(g, x, idx), dual=dual_tri + dual_ub, exact=False,
    )
    check_solution(sol, g)
    return sol


def lp_curve(g: Graph) -> PwlCurve:
    """Exact piecewise-linear LP value curve on [0, 1].

    The cost is c0 - lam*1 (c0 is 1 on edges, 0 elsewhere), so one
    walk_canonical from the slack basis, optimal at lam = 0, visits an
    optimal vertex of every piece. Each distinct cost line is tagged with
    the solution at the start of its first vertex range. The result is
    gated like a single exact solve: check_solution on every tag, so each
    line is realized by a feasible x and bounds the curve from above, and
    check_certificate at 0, 1 and every breakpoint, so the curve is a lower
    bound there; by concavity it is one between them too.
    """
    prob = build_lp(g, 0)  # prob.c is c0
    _, idx = pair_index(g.n)
    tags = {}  # cost line -> solution at the start of its first vertex range
    duals = {}  # lam -> marginals of the <= rows at lam
    for rng in walk_canonical(prob.c, [-1] * prob.num_vars, *_le_form(prob)):
        duals.update(rng.dual_ub)
        line = _line_of_x(g, rng.x, idx)
        if line not in tags:
            tags[line] = LpSolution(
                n=g.n, lam=rng.lo, x=tuple(rng.x), value=line.value_at(rng.lo),
                line=line, dual=tuple(-u for u in duals[rng.lo]), exact=True,
                pivots=rng.pivots,
            )
    for sol in tags.values():
        check_solution(sol, g)
    curve = envelope_of(list(tags), (0, 1), tags=list(tags.values()))
    for lam in [curve.domain_lo] + curve.breakpoints + [curve.domain_hi]:
        check_certificate(build_lp(g, lam), [-u for u in duals[lam]],
                          curve.value_at(lam))
    return curve
