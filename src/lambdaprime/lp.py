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
mode hands them to the in-package simplex in that form; check_certificate
then checks the primal point and the dual vector against the same rows.
solve_lp offers that exact rational mode and a float mode (scipy HiGHS with
tightened tolerances) for larger graphs. lp_curve recovers the full
piecewise-linear value curve exactly: a chord search collects optimal
solutions, and the curve is the lower envelope of their cost lines.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .curves import PwlCurve, envelope_of
from .graphs import Graph
from .objectives import CostLine
from .rationals import rat
from .simplex import solve_canonical


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


def check_metric(x, n, tol=0):
    """Raise ValueError unless x (per lex pair) obeys every triangle inequality."""
    _, idx = pair_index(n)
    for i, j, k in combinations(range(n), 3):
        a, b, c = x[idx[(i, j)]], x[idx[(i, k)]], x[idx[(j, k)]]
        if a > b + c + tol or b > a + c + tol or c > a + b + tol:
            raise ValueError("triangle inequality fails at (%d,%d,%d)" % (i, j, k))


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
    for v in sol.x:
        if v < -tol or v > 1 + tol:
            raise ValueError("entry %s outside [0, 1]" % (v,))
    check_metric(sol.x, n, tol)
    idx = pair_index(n)[1]
    if sol.exact:
        if _line_of_x(g, sol.x, idx) != sol.line:
            raise ValueError("cost line at lambda=%s is not the line of x" % sol.lam)
        if sol.line.value_at(sol.lam) != sol.value:
            raise ValueError("value at lambda=%s is not on the cost line" % sol.lam)
    return idx


def check_certificate(prob: LpProblem, x, y, value):
    """Raise ValueError unless x and y prove that value is the optimum of prob.

    x must be feasible (x >= 0 and every >= row, which covers the triangles
    and x <= 1), y dual feasible (y >= 0 and A^T y <= c), and both must
    attain value: c.x + constant = value = b.y + constant.
    """
    if any(v < 0 for v in x):
        raise ValueError("x has a negative entry")
    for coeffs, bi in zip(prob.rows, prob.rhs):
        if sum(coeff * x[var] for var, coeff in coeffs) < bi:
            raise ValueError("x violates a constraint")
    if any(v < 0 for v in y):
        raise ValueError("dual certificate has a negative entry")
    aty = [0] * prob.num_vars
    for coeffs, yi in zip(prob.rows, y):
        if yi:
            for var, coeff in coeffs:
                aty[var] += coeff * yi
    if any(a > ci for a, ci in zip(aty, prob.c)):
        raise ValueError("dual certificate infeasible")
    if sum(ci * xi for ci, xi in zip(prob.c, x)) + prob.constant != value:
        raise ValueError("value is not the objective at x")
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


def _solve_exact(g: Graph, lam) -> LpSolution:
    prob = build_lp(g, lam)
    # flip to <= form; all rhs become 0 or 1, so the slack basis is feasible
    G = [tuple((j, -coeff) for j, coeff in row) for row in prob.rows]
    h = [-v for v in prob.rhs]
    res = solve_canonical(prob.c, G, h)
    _, idx = pair_index(g.n)
    line = _line_of_x(g, res.x, idx)
    value = res.value + prob.constant
    if line.value_at(prob.lam) != value:
        raise AssertionError("objective decomposition mismatch")
    y = tuple(-u for u in res.dual_ub)
    check_certificate(prob, res.x, y, value)
    return LpSolution(
        n=g.n, lam=prob.lam, x=tuple(res.x), value=value, line=line, dual=y,
        exact=True,
    )


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
    check_metric(x, g.n, tol=1e-8)
    line = _line_of_x(g, x, idx)
    value = float(res.fun) + lamf * len(prob.pairs)
    dual_tri = tuple(-float(u) for u in res.ineqlin.marginals)
    dual_ub = tuple(max(0.0, -float(u)) for u in res.upper.marginals)
    return LpSolution(
        n=g.n, lam=lamf, x=x, value=value, line=line,
        dual=dual_tri + dual_ub, exact=False,
    )


def lp_value_at(x: LpSolution, lam):
    """Value of an existing solution's cost line at a different lambda."""
    return x.line.value_at(lam)


def lp_optimum(g: Graph, lam, mode="exact"):
    """Convenience: solve and return only the optimal value."""
    return solve_lp(g, lam, mode=mode).value


def lp_curve(g: Graph, lo=0, hi=1) -> PwlCurve:
    """Exact piecewise-linear LP value curve on [lo, hi].

    Chord search: solve both ends of [a, b]; if their cost lines differ, solve
    where they cross. If that value lies on the lines, concavity certifies
    both pieces; otherwise recurse into both halves. Every solution's line
    bounds the curve from above, so the curve is the lower envelope of the
    lines found, each piece tagged with the earliest solution in lambda order
    whose line it is. Solver calls grow with the number of pieces, not with
    any sampling density.
    """
    lo, hi = rat(lo), rat(hi)
    if not 0 <= lo < hi <= 1:
        raise ValueError("need 0 <= lo < hi <= 1")
    sols = {lo: _solve_exact(g, lo), hi: _solve_exact(g, hi)}

    def chord(a, b):
        la, lb = sols[a].line, sols[b].line
        if la == lb:
            return
        lx = la.intersect(lb)
        if not a < lx < b:
            return
        sm = _solve_exact(g, lx)
        if sm.value == la.value_at(lx):
            return
        sols[lx] = sm
        chord(a, lx)
        chord(lx, b)

    chord(lo, hi)
    tags = [sols[lam] for lam in sorted(sols)]
    return envelope_of([s.line for s in tags], (lo, hi), tags=tags)
