"""Metric LP relaxation of the clustering objective.

Variables are pairwise "distances" x_ij in [0,1] over the lex-ordered pairs
of an n-node graph. The program is

    min  sum_E (1-lam) x_ij + sum_nonE (-lam) x_ij + lam*C(n,2)
    s.t. x_ij - x_ik - x_jk <= 0   for every triple and isolated pair
         x_ij <= 1
         x >= 0

whose objective equals P + lam*N with P = sum of x over edges and
N = sum over all pairs of (1 - x_ij). Integral x encode partitions, so the
optimum lower-bounds the best clustering at every lam.

LpProblem holds it as the simplex's A x <= b with sparse integer rows, which
the exact simplex, the parametric walk and HiGHS all read as they are. Each side of the optimality proof is checked in one place:
check_solution owns the primal side (x >= 0, A x <= b, the cost line of x and
the value on it), and check_certificate only the dual side (sparse u < 0,
A^T u <= c, b.u = value); verify_certificate runs both, the one proof every
exact solution passes. solve_lp offers that exact rational mode and a float
mode (scipy HiGHS with tightened tolerances) for larger graphs. lp_curve
recovers the full piecewise-linear value curve exactly: the cost c0 - lam*1 is
affine in lam, so one parametric simplex walk over [0, 1] visits the pieces in
order, and each of its vertex ranges is one piece.

Few triangle rows ever bind, so every exact LP over them grows one tableau
from no rows at all (Grotschel & Wakabayashi, Math. Programming 45, 1989):
x <= 1 is a bound on each column of the simplex, not a row (upper=1), and
solve_lp and lp_curve hand the simplex a cuts callback (_cuts), which lists
the triangle rows a vertex violates; the simplex appends them to its
tableau and re-optimizes from the basis it has, by the dual simplex. An
exact solve_lp is one solve_canonical call and reports every pivot of its
tableau. Each solution is still proven by verify_certificate against the
full build_lp, box rows included: the simplex's marginal of each bound
x_p <= 1 is the dual of the box row of p. So the proof does not depend on
which rows the tableau holds.

A point is read against the metric polytope in one integer pass, shared by
check_solution, the separation (_separate, for every cut) and the cost
line of x (_line_of_x). Each reads x as integers xi over one scale d. The
cuts and the line of each solution the simplex returns read its vertex as
the tableau holds it, over its delta, so a round of cuts builds no
Fraction; check_solution scales an exact x once over the lcm of
its denominators (_scaled), so the proof does not trust the tableau's
integers. _violated_rows then walks the cached triples (ij, ik, jk) of
_triples(n), the list _metric_rows builds its rows from, with three
integer compares per triple for rows 3t, 3t+1 and 3t+2 and one compare per
box row against the scale. A float x (HiGHS) is read as it is, with a
tolerance of 1e-8.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from types import MappingProxyType

from .curves import PwlCurve, PwlPiece
from .graphs import Graph
from .objectives import CostLine
from .rationals import rat
from .simplex import solve_canonical, walk_canonical


@dataclass(frozen=True)
class LpProblem:
    """min c.x + constant  s.t.  A x <= b, x >= 0: the simplex's form.

    rows[i] lists the nonzeros of row i of A as (var, coeff) pairs; per
    triple t, rows 3t, 3t+1 and 3t+2 bound x_ij, x_ik and x_jk by the sum of
    the other two (b = 0), then one row x_p <= 1 per pair (b = 1).
    """

    n: int
    lam: Fraction
    pairs: tuple  # lex-ordered (i, j)
    c: tuple  # objective coefficient per pair
    rows: tuple  # tuple of ((var, coeff), ...) in fixed order
    b: tuple  # 0 or 1 per row
    constant: Fraction

    @property
    def num_vars(self):
        return len(self.pairs)

    @property
    def num_rows(self):
        return len(self.rows)


@lru_cache(maxsize=8)
def pair_index(n):
    """The lex-ordered pairs of n nodes (a tuple) and the read-only map from
    each pair to its variable index; built once per n and shared."""
    pairs = tuple(combinations(range(n), 2))
    return pairs, MappingProxyType({p: k for k, p in enumerate(pairs)})


@lru_cache(maxsize=8)
def _triples(n):
    """Per triple t of nodes i < j < k, the variables (ij, ik, jk): row 3t+s
    of the metric LP on n nodes bounds the s-th by the sum of the other two.

    Built once per n and shared by _metric_rows and _violated_rows."""
    idx = pair_index(n)[1]
    return tuple((idx[(i, j)], idx[(i, k)], idx[(j, k)])
                 for i, j, k in combinations(range(n), 3))


@lru_cache(maxsize=8)
def _metric_rows(n):
    """The rows A x <= b of the metric polytope on n nodes, as in LpProblem.

    Built once per n and shared: the rows and b are immutable tuples."""
    rows = []
    for ij, ik, jk in _triples(n):
        rows.append(((ij, 1), (ik, -1), (jk, -1)))
        rows.append(((ij, -1), (ik, 1), (jk, -1)))
        rows.append(((ij, -1), (ik, -1), (jk, 1)))
    nv = n * (n - 1) // 2
    rows.extend(((p, 1),) for p in range(nv))
    return tuple(rows), (0,) * (len(rows) - nv) + (1,) * nv


def build_lp(g: Graph, lam) -> LpProblem:
    lam = rat(lam)
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    pairs = pair_index(g.n)[0]
    on, off = 1 - lam, -lam
    c = tuple(on if p in g.edges else off for p in pairs)
    rows, b = _metric_rows(g.n)
    return LpProblem(
        n=g.n,
        lam=lam,
        pairs=pairs,
        c=c,
        rows=rows,
        b=b,
        constant=lam * len(pairs),
    )


@dataclass(frozen=True)
class LpSolution:
    n: int
    lam: object  # Fraction (exact) or float
    x: tuple  # per lex pair
    value: object
    line: CostLine
    # ((row, u), ...): the nonzero marginals u < 0 of b (min convention),
    # a certificate for check_certificate; () for a float solution
    dual: tuple
    exact: bool = True
    # simplex pivots that reached x, every pivot of an exact solve_lp's one
    # growing tableau; HiGHS iterations in float mode (0 when unknown); not
    # part of the value
    pivots: int = field(default=0, compare=False)


def check_solution(sol: LpSolution, g: Graph):
    """Raise ValueError unless sol is a point of g's metric LP as recorded.

    Checks n, the length of x, x >= 0 and every row A x <= b of the LP
    (triangles and x <= 1); for an exact solution also that x realizes the
    stored cost line and that the line takes the stored value at sol.lam.
    """
    n = g.n
    if sol.n != n:
        raise ValueError("solution is for n=%d, graph has n=%d" % (sol.n, n))
    if len(sol.x) != n * (n - 1) // 2:
        raise ValueError("solution vector has wrong length")
    x = sol.x
    xi, d = _scaled(x, sol.exact)
    tol = 0 if sol.exact else 1e-8
    for v, entry in zip(xi, x):
        if v < -tol:
            raise ValueError("entry %s outside [0, 1]" % (entry,))
    rows = _metric_rows(n)[0]
    for r in _violated_rows(n, xi, d, tol):
        raise ValueError("%s fails at row %d" % (
            "x <= 1" if len(rows[r]) == 1 else "triangle inequality", r))
    if sol.exact:
        if _line_of_x(g, xi, d) != sol.line:
            raise ValueError("cost line at lambda=%s is not the line of x" % sol.lam)
        if sol.line.value_at(sol.lam) != sol.value:
            raise ValueError("value at lambda=%s is not on the cost line" % sol.lam)


def _scaled(x, exact=True):
    """x over one scale, (xi, d) with x = xi / d: an exact x as integers over
    the lcm d of its denominators, so every bound on it is an integer
    compare; a float x as it is, over d = 1."""
    if not exact:
        return x, 1
    d = lcm(*{v.denominator for v in x})
    return [v.numerator * (d // v.denominator) for v in x], d


def _violated_rows(n, xi, d, tol=0, box=True):
    """The rows of the metric LP on n nodes that x = xi / d (_scaled) breaks
    by more than tol, in build_lp order: row 3t+s when the s-th variable of
    triple t exceeds the sum of the other two, then, with box, the row
    x_p <= 1 of each pair p with xi_p > d. One pass over _triples(n), three
    compares a triple."""
    triples, out = _triples(n), []
    for t, (ij, ik, jk) in enumerate(triples):
        a, b, c = xi[ij], xi[ik], xi[jk]
        if a > b + c + tol:
            out.append(3 * t)
        if b > a + c + tol:
            out.append(3 * t + 1)
        if c > a + b + tol:
            out.append(3 * t + 2)
    if box:
        base, top = 3 * len(triples), d + tol
        out.extend(base + p for p, v in enumerate(xi) if v > top)
    return out


def check_certificate(prob: LpProblem, dual, value):
    """Raise ValueError unless dual proves that value is at most the optimum of prob.

    dual lists (row, u) pairs, every row it omits having u = 0. It must be
    dual feasible for the rows A x <= b: each row one of prob's, each u < 0,
    and A^T u <= c; and attain value: b.u + constant = value. With a feasible
    x of that value (check_solution) this proves value optimal.

    u and c are scaled once by d, the lcm of the denominators of every u and
    of lam (c is 1 - lam or -lam), so both sides are integer sums and
    compares.
    """
    d = lcm(prob.lam.denominator, *(u.denominator for _, u in dual))
    aty = [0] * prob.num_vars
    bu = 0
    for r, u in dual:
        if not 0 <= r < prob.num_rows:
            raise ValueError("dual certificate names row %s outside the LP" % (r,))
        if u >= 0:
            raise ValueError("dual certificate has an entry u >= 0")
        u = u.numerator * (d // u.denominator)
        for var, coeff in prob.rows[r]:
            aty[var] += coeff * u
        bu += prob.b[r] * u
    if any(a > ci.numerator * (d // ci.denominator) for a, ci in zip(aty, prob.c)):
        raise ValueError("dual certificate infeasible")
    if Fraction(bu, d) + prob.constant != value:
        raise ValueError("dual certificate does not prove optimality")


def _line_of_x(g: Graph, xi, d, exact=True):
    """The cost line of x = xi / d (_scaled): P sums x over the edges of g
    and N sums 1 - x over every pair; for an exact x each is one Fraction of
    integer sums."""
    p = sum(v for v, e in zip(xi, pair_index(g.n)[0]) if e in g.edges)
    nval = len(xi) * d - sum(xi)
    if not exact:
        return CostLine(p, nval)
    return CostLine(Fraction(p, d), Fraction(nval, d))


def solve_lp(g: Graph, lam, mode="exact") -> LpSolution:
    """Solve the metric LP at one lambda; exact Fractions or HiGHS floats."""
    if mode == "exact":
        return _solve_exact(g, lam)
    if mode == "float":
        return _solve_float(g, lam)
    raise ValueError("mode must be 'exact' or 'float'")


def verify_certificate(xstar: LpSolution, g: Graph):
    """Prove exact x* optimal at its lambda: check_solution on x, then
    check_certificate of its dual against build_lp(g, lam), returned."""
    if not xstar.exact:
        raise ValueError("an optimality proof needs an exact solution")
    check_solution(xstar, g)
    prob = build_lp(g, xstar.lam)
    check_certificate(prob, xstar.dual, xstar.value)
    return prob


def _proven(g: Graph, lam, vertex, keep, dual_ub) -> LpSolution:
    """The simplex's vertex (a SimplexResult or VertexRange) at lam, once
    verify_certificate passes. Its line is read from the tableau's integers
    vertex.xi over vertex.delta; check_solution reads it again from x.
    dual_ub holds a marginal per row held, then one per bound x_p <= 1: its
    dual pairs row keep[i] of the LP with each nonzero row marginal and the
    box row of p with each nonzero bound marginal."""
    x = vertex.x
    line = _line_of_x(g, vertex.xi, vertex.delta)
    rows = keep[:len(dual_ub) - len(x)] + _box(g.n)
    sol = LpSolution(
        n=g.n, lam=lam, x=tuple(x), value=line.value_at(lam), line=line,
        dual=tuple((r, u) for r, u in zip(rows, dual_ub) if u), exact=True,
        pivots=vertex.pivots,
    )
    verify_certificate(sol, g)
    return sol


def _solve_exact(g: Graph, lam) -> LpSolution:
    """One vertex of one growing tableau, proven against the full LP: the
    solve starts from no rows, x <= 1 as a bound on every column, and
    appends each triangle row its vertex breaks (_cuts), so its one
    solve_canonical call reports every pivot."""
    prob = build_lp(g, lam)
    keep = []
    res = solve_canonical(prob.c, [], [], cuts=_cuts(prob, keep),
                          upper=[1] * prob.num_vars)
    return _proven(g, prob.lam, res, keep, res.dual_ub)


_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _solve_float(g: Graph, lam) -> LpSolution:
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    prob = build_lp(g, lam)
    lamf = float(prob.lam)
    # the triangle rows as they are, 3 nonzeros each; the box x <= 1 is bounds
    tri = prob.rows[:prob.num_rows - prob.num_vars]
    a_ub = csr_matrix(([a for r in tri for _, a in r], [j for r in tri for j, _ in r],
                       range(0, 3 * len(tri) + 1, 3)), (len(tri), prob.num_vars), dtype=float)
    # HiGHS refuses an empty c (n = 1)
    x, fun, nit = (), 0.0, 0
    if prob.num_vars:
        res = linprog([float(v) for v in prob.c], A_ub=a_ub, b_ub=prob.b[:len(tri)],
                      bounds=(0, 1), method="highs", options=_HIGHS_OPTS)
        if res.status != 0:
            raise AssertionError("HiGHS failed: %s" % res.message)
        x = tuple(min(1.0, max(0.0, float(v))) for v in res.x)
        fun, nit = float(res.fun), int(res.nit)
    sol = LpSolution(
        n=g.n, lam=lamf, x=x, value=fun + lamf * len(prob.pairs),
        line=_line_of_x(g, x, 1, exact=False), dual=(), exact=False, pivots=nit,
    )
    check_solution(sol, g)
    return sol


def _box(n):
    """The indices of the rows x_p <= 1 of the metric LP on n nodes, which
    the exact solves hold as bounds."""
    base = 3 * len(_triples(n))
    return list(range(base, base + n * (n - 1) // 2))


def _separate(xi, d, prob):
    """The triangle rows of prob that the point x = xi / d violates, in
    build_lp order. It reads only the pair entries of xi, and any scale d
    gives the same rows."""
    return _violated_rows(prob.n, xi, d, box=False)


def _cuts(prob, keep):
    """The simplex's cuts for prob: the triangle rows a vertex, integers xi
    over the tableau's delta, breaks.

    keep lists the row of prob behind each row of the tableau; every cut
    is appended to it, so it names the rows of every dual the tableau
    reports, whose length is the number of rows held at the time.
    """
    def cuts(xi, d):
        new = _separate(xi, d, prob)
        keep.extend(new)
        return [(prob.rows[r], prob.b[r]) for r in new]
    return cuts


def lp_curve(g: Graph) -> PwlCurve:
    """Exact piecewise-linear LP value curve on [0, 1].

    The cost is c0 - lam*1 (c0 is 1 on edges, 0 elsewhere), so one
    walk_canonical from x = 0, optimal at lam = 0, visits the curve's
    pieces in order: each VertexRange is one piece.

    The walk starts from no rows, x <= 1 as a bound on every column, and
    grows its one tableau: at each new vertex it appends the triangle rows
    the vertex breaks (_cuts) and re-optimizes at the same lam by the dual
    simplex before it goes on, so every range's vertex satisfies the full
    LP. keep maps each row of the tableau to its row of the full LP.

    The proof does not depend on which rows were kept. Each range's vertex
    is proven by verify_certificate at the range's lo (the last also at 1)
    against the full build_lp(g, lam), its dual naming each walked row by
    its row of the full LP and each bound by its box row: check_solution
    checks x against every row, and check_certificate the dual against the
    rows it names. PwlCurve
    requires the pieces to tile [0, 1] continuously in strictly concave
    order, so each line, feasible and so on or above the concave LP value,
    meets it at both ends of its piece: the curve is the LP value.
    """
    prob = build_lp(g, 0)  # prob.c is c0
    keep = []
    ranges = list(walk_canonical(prob.c, [-1] * prob.num_vars, [], [],
                                 cuts=_cuts(prob, keep), upper=[1] * prob.num_vars))
    pieces = []
    for rng in ranges:
        sol = _proven(g, rng.lo, rng, keep, rng.dual_ub[rng.lo])
        pieces.append(PwlPiece(sol.line, rng.lo, rng.hi, sol))
    curve = PwlCurve(tuple(pieces), Fraction(0), Fraction(1))
    last = ranges[-1]
    _proven(g, Fraction(1), last, keep, last.dual_ub[Fraction(1)])
    return curve
