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
check_certificate only the dual side (y >= 0, A^T y <= c, b.y = value);
verify_certificate runs both, the one proof every exact solution passes.
solve_lp offers that exact rational mode and a float mode (scipy HiGHS with
tightened tolerances) for larger graphs. lp_curve recovers the full
piecewise-linear value curve exactly: the cost c0 - lam*1 is affine in lam,
so one parametric simplex walk over [0, 1] visits the pieces in order, and
each of its vertex ranges is one piece. Few triangle rows ever bind, so the
walk is a cutting-plane loop for the metric polytope (Grotschel &
Wakabayashi, Math. Programming 45, 1989): it starts from the box rows and
adds the triangle rows its vertices violate until they violate none. Each
piece is still proven by verify_certificate against the full build_lp, so
the proof does not depend on which rows the walk kept.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .curves import PwlCurve, PwlPiece
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
    # simplex pivots that reached x, HiGHS iterations in float mode (0 when
    # unknown); not part of the value
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
    for _, triple in _violated_triangles(x, n, tol):
        raise ValueError("triangle inequality fails at (%d,%d,%d)" % triple)
    if sol.exact:
        if _line_of_x(g, x, idx) != sol.line:
            raise ValueError("cost line at lambda=%s is not the line of x" % sol.lam)
        if sol.line.value_at(sol.lam) != sol.value:
            raise ValueError("value at lambda=%s is not on the cost line" % sol.lam)
    return idx


def _violated_triangles(x, n, tol=0):
    """Yield (row, (i, j, k)) for each triangle row of build_lp that x
    violates by more than tol, in build_lp's row order."""
    idx = pair_index(n)[1]
    for t, (i, j, k) in enumerate(combinations(range(n), 3)):
        a, b, c = x[idx[(i, j)]], x[idx[(i, k)]], x[idx[(j, k)]]
        # rows 3t, 3t+1, 3t+2 isolate ij, ik and jk, as in build_lp
        if a > b + c + tol:
            yield 3 * t, (i, j, k)
        if b > a + c + tol:
            yield 3 * t + 1, (i, j, k)
        if c > a + b + tol:
            yield 3 * t + 2, (i, j, k)


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


def verify_certificate(xstar: LpSolution, g: Graph):
    """Prove exact x* optimal at its lambda: check_solution on x, then
    check_certificate of its dual against build_lp(g, lam), returned."""
    if not xstar.exact:
        raise ValueError("an optimality proof needs an exact solution")
    check_solution(xstar, g)
    prob = build_lp(g, xstar.lam)
    check_certificate(prob, [rat(v) for v in xstar.dual], rat(xstar.value))
    return prob


def _proven(g: Graph, lam, x, dual_ub, pivots) -> LpSolution:
    """x at lam on the line of x, dual -dual_ub, once verify_certificate passes."""
    line = _line_of_x(g, x, pair_index(g.n)[1])
    sol = LpSolution(
        n=g.n, lam=lam, x=tuple(x), value=line.value_at(lam), line=line,
        dual=tuple(-u for u in dual_ub), exact=True, pivots=pivots,
    )
    verify_certificate(sol, g)
    return sol


def _solve_exact(g: Graph, lam) -> LpSolution:
    prob = build_lp(g, lam)
    res = solve_canonical(prob.c, *_le_form(prob))
    return _proven(g, prob.lam, res.x, res.dual_ub, res.pivots)


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
        pivots=int(res.nit),
    )
    check_solution(sol, g)
    return sol


def _separate(ranges, n):
    """The triangle rows of build_lp that some range's vertex violates."""
    return {row for rng in ranges for row, _ in _violated_triangles(rng.x, n)}


def lp_curve(g: Graph) -> PwlCurve:
    """Exact piecewise-linear LP value curve on [0, 1].

    The cost is c0 - lam*1 (c0 is 1 on edges, 0 elsewhere), so one
    walk_canonical from the slack basis, optimal at lam = 0, visits the
    curve's pieces in order: each VertexRange is one piece.

    The walk keeps only the triangle rows it needs, by the cutting-plane
    loop for the metric polytope (Grotschel & Wakabayashi, Math.
    Programming 45, 1989): it starts from the box rows alone, and after
    each walk adds every triangle row that some range's vertex violates,
    then walks again, until no vertex violates a row. Its rows are the kept
    triangle rows in build_lp order, then the box rows, so keep maps each
    walked row to its row of the full LP.

    The proof does not depend on which rows were kept. Each range's vertex
    is proven by verify_certificate at the range's lo (the last also at 1)
    against the full build_lp(g, lam), with the walk's dual zero-extended to
    the omitted rows: check_solution checks x against every triangle row,
    and check_certificate the extended dual against every row. PwlCurve
    requires the pieces to tile [0, 1] continuously in strictly concave
    order, so each line, feasible and so on or above the concave LP value,
    meets it at both ends of its piece: the curve is the LP value.
    """
    prob = build_lp(g, 0)  # prob.c is c0
    rows, b = _le_form(prob)
    box = list(range(prob.num_rows - prob.num_vars, prob.num_rows))
    kept = []  # triangle rows, in build_lp order
    while True:
        keep = kept + box
        ranges = list(walk_canonical(prob.c, [-1] * prob.num_vars,
                                     [rows[i] for i in keep], [b[i] for i in keep]))
        # a vertex satisfies its walk's rows, so the cuts are new rows; a
        # vertex that breaks a kept row is left to the proof to refuse
        cuts = _separate(ranges, g.n).difference(kept)
        if not cuts:
            break
        kept = sorted(cuts.union(kept))

    def proven(rng, lam):
        dual_ub = [0] * prob.num_rows
        for i, u in zip(keep, rng.dual_ub[lam]):
            dual_ub[i] = u
        return _proven(g, lam, rng.x, dual_ub, rng.pivots)

    pieces = []
    for rng in ranges:
        sol = proven(rng, rng.lo)
        pieces.append(PwlPiece(sol.line, rng.lo, rng.hi, sol))
    curve = PwlCurve(tuple(pieces), Fraction(0), Fraction(1))
    proven(ranges[-1], Fraction(1))
    return curve
