"""Exact simplex for small sparse LPs, used by the LP relaxation and the
sensitivity machinery.

Canonical form:   min c.x   s.t.  A x <= b,  0 <= x <= u

where a column may have no bound u.

Each row of A is a sequence of (column, coefficient) pairs; a column the row
leaves out has coefficient zero. All arithmetic is exact: entries are ints or
rationals, and floats are refused. The tableau is kept fraction-free: each
row is scaled to integers up front by the lcm of its coefficient and
right-hand-side denominators, the objective by the lcm of its denominators.
Int entries are used as given, so an all-int row has scale 1 and costs no
conversion; only the other entries pass through Fraction. Every pivot
applies the integer Gauss-Jordan update

    T'[i][j] = (T[i][j]*T[r][c] - T[i][c]*T[r][j]) // delta

where delta is the previous pivot element; the division is exact (tableau
entries stay minors of the integer input), and the true tableau is T/delta
throughout. Python ints make this ~30x faster than a Fraction tableau.

A pivot touches only the entries the update can change, and the skipped
ones keep exactly the integers the full update would give. A negative pivot
is handled by negating the pivot row first, which negates the update of
every other row and keeps delta positive. Then when T[r][c] == delta, as in
most pivots (the dual simplex's negative ones included),
v*T[r][c]//delta == v, so a row with T[i][c] == 0 keeps every entry, and a
row with T[i][c] != 0 changes only in the columns where the pivot row is
nonzero. Otherwise every row is rescaled, but a position where both T[i][j]
and T[r][j] are zero stays zero.

One driver, _pivot_until, runs both the primal simplex (_run) and the dual
simplex (dual_run; Lemke, NRLQ 1, 1954); each only picks the next pivot.
Pivot choice is Dantzig's rule with deterministic lowest-index tie-breaks.
The driver watches the objective and, once it stalls, switches the rule to
Bland's for good, which restores the termination guarantee on degenerate
problems. The tableau starts from the slack basis, a negative right-hand
side included, and dual_run makes it feasible: at lam = 0 when every cost
is >= 0, so that it ends optimal, else with every reduced cost read as 0.
The primal simplex then goes on to the optimum.

One tableau can grow, for an LP too large to write out whose rows or
columns a caller lists as they are needed: add_row appends a row in the
current basis with its slack basic, and dual_run restores feasibility;
add_column appends a column as B^-1 a, read off the slack columns, for the
primal simplex to go on. Both give exactly the integers of a tableau built
with the row or column from the start and pivoted into the same basis.
solve_canonical and walk_canonical grow their tableau through callbacks
(cuts, columns).

A bound x_j <= u, u an int, is no row of the tableau (Dantzig's
upper-bounding technique, Econometrica 23, 1955). A column at its bound is
complemented, x_j = u - x'_j, so every nonbasic column still sits at 0 and
the pivot rules keep their form. Complementing is exact in integers: a
nonbasic column is negated in every row and u times it leaves the
right-hand sides (flip), and a basic variable's row is negated with delta
back in its basic column and delta*u added on the right (_complement_row).
The ratio test then has three outcomes: a basic variable falls to 0 (a
pivot), a bounded basic variable rises to its bound (complemented, then
a pivot), or the entering column reaches its own bound (a flip, no pivot).
The dual simplex also reads a bounded basic variable above its bound as
infeasible, and complements it before the usual row step.

walk_canonical solves a whole family min (c0 + lam*c1).x over lam in [0, 1]
in one tableau (parametric cost ranging): the tableau carries a second cost
row for c1, and each pivot moves to the next basis along lam.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .rationals import rat


class SimplexError(Exception):
    pass


class Infeasible(SimplexError):
    pass


class Unbounded(SimplexError):
    pass


@dataclass
class SimplexResult:
    x: list  # optimal point, Fractions
    value: Fraction
    # marginals of b, then of each bounded column's x_j <= u_j in column
    # order; <= 0, nonzero only for binding rows and bounds (min convention)
    dual_ub: list
    pivots: int
    flips: int = 0  # bound flips: a column moved to its other bound, no pivot


class VertexRange(NamedTuple):
    """One vertex of walk_canonical and its lam-interval: one value piece."""

    lo: Fraction
    hi: Fraction
    x: list  # the vertex, Fractions
    dual_ub: dict  # lo and hi -> marginals of b, then of the bounds, at that lam
    pivots: int  # pivots from the slack basis to the vertex


_MAX_PIVOTS = 500_000


def _exact(v):
    """v itself if it is an int, else rat(v): a Fraction, floats refused."""
    return v if isinstance(v, int) else rat(v)


def _scaled(v, s):
    """The integer v*s, for s a multiple of v's denominator."""
    return v.numerator * (s // v.denominator)


def _entries(coeffs, hi, what, index):
    """coeffs as (index, exact value) pairs, each index once and in [0, hi)."""
    a = [(j, _exact(v)) for j, v in coeffs]
    if len({j for j, _ in a}) < len(a):
        raise ValueError("%s repeats a %s" % (what, index))
    if not all(0 <= j < hi for j, _ in a):
        raise ValueError("%s has a %s outside [0, %d)" % (what, index, hi))
    return a


class _Tableau:
    def __init__(self, c, rows, b, slope=None, upper=None):
        nrows, nvars = len(rows), len(c)
        c = [_exact(v) for v in c]
        slope = None if slope is None else [_exact(v) for v in slope]
        self.sigma_c = lcm(*(v.denominator for v in c + (slope or []))) if c else 1
        zrow = [_scaled(v, self.sigma_c) for v in c]

        self.nvars = nvars
        self.nrows = nrows
        b = [_exact(v) for v in b]
        ncols = nvars + nrows + 1
        self.rhs_col = ncols - 1
        self.row_scale = []
        self.T = []
        self.basis = []
        for i, coeffs in enumerate(rows):
            a = _entries(coeffs, nvars, "row %d" % i, "column")
            s = lcm(b[i].denominator, *(v.denominator for _, v in a))
            self.row_scale.append(s)
            row = [0] * ncols
            for j, v in a:
                row[j] = _scaled(v, s)
            row[nvars + i] = 1
            row[self.rhs_col] = _scaled(b[i], s)
            self.T.append(row)
            self.basis.append(nvars + i)

        z = [0] * ncols
        z[:nvars] = zrow
        self.z = z
        self.z1 = None  # cost-slope row, live only in walk_canonical
        if slope is not None:
            self.z1 = [0] * ncols
            self.z1[:nvars] = [_scaled(v, self.sigma_c) for v in slope]
        self.delta = 1
        self.pivots = 0
        # the bound u of each bounded structural column (x_j <= u), in
        # column order; a column in flipped is complemented, x_j = u - x'_j
        self.upper = {}
        if upper is not None and len(upper) != nvars:
            raise ValueError("upper and c disagree on column count")
        for j, u in enumerate(upper or ()):
            if u is None:
                continue
            if not isinstance(u, int) or u < 0:
                raise ValueError("bound of column %d is not an int >= 0" % j)
            self.upper[j] = u
        self.flipped = set()
        self.flips = 0

    # -- pivoting -------------------------------------------------------

    def _all_rows(self):
        yield self.z
        if self.z1 is not None:
            yield self.z1
        yield from self.T

    def pivot(self, r, col):
        tr = self.T[r]
        piv = tr[col]
        if piv == 0:
            raise SimplexError("zero pivot")
        delta = self.delta
        if piv < 0:
            # negate the pivot row first: the update below then yields every
            # other row negated too, and delta stays positive
            tr[:] = [-t for t in tr]
            piv = -piv
        if piv == delta:
            # only the pivot row's nonzero columns of rows with f != 0 change;
            # (v*delta - f*t)//delta is exact, so it equals v - f*t//delta
            nz = [(j, t) for j, t in enumerate(tr) if t]
            for row in self._all_rows():
                f = row[col]
                if f and row is not tr:
                    for j, t in nz:
                        row[j] -= f * t // delta
        else:
            for row in self._all_rows():
                if row is tr:
                    continue
                f = row[col]
                if f:
                    row[:] = [(v * piv - f * t) // delta if v or t else 0
                              for v, t in zip(row, tr)]
                else:
                    row[:] = [v * piv // delta if v else 0 for v in row]
        self.delta = piv
        self.basis[r] = col
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")

    def flip(self, col):
        """Move the nonbasic bounded column col to its other bound: in
        x' = u - x, its column is negated in every row and u*T[i][col]
        leaves each right-hand side, exact as u is an int. A second flip
        undoes the first."""
        u, rhs = self.upper[col], self.rhs_col
        for row in self._all_rows():
            t = row[col]
            if t:
                row[col] = -t
                row[rhs] -= u * t
        self.flipped ^= {col}
        self.flips += 1

    def _complement_row(self, r):
        """Write row r's basic variable x, bounded by u, as x' = u - x: the
        row is negated, delta goes back in the basic column and delta*u is
        added on the right. No other row holds the basic column."""
        tr, bv = self.T[r], self.basis[r]
        tr[:] = [-t for t in tr]
        tr[bv] = self.delta
        tr[self.rhs_col] += self.delta * self.upper[bv]
        self.flipped ^= {bv}

    def _leaving(self, col):
        """The ratio test as col enters: how far col rises before a basic
        variable falls to 0 (T[r][col] > 0, ratio T[r][rhs]/T[r][col]), a
        bounded basic variable rises to its bound u (T[r][col] < 0, ratio
        (delta*u - T[r][rhs])/-T[r][col]) or col reaches its own bound
        (ratio u). The least ratio wins, the lowest basic index on ties,
        where col's own bound ranks by col's index.

        Returns the row to pivot on, its basic variable complemented first
        when it leaves at its bound, or None when col's own bound comes
        first: col flips. Raises Unbounded when nothing bounds col."""
        T, basis, rhs_col, ub = self.T, self.basis, self.rhs_col, self.upper
        best_r = best_up = best_idx = None
        if col in ub:
            best_num, best_den, best_idx = ub[col], 1, col
        for r in range(self.nrows):
            a = T[r][col]
            up = a < 0
            if up:
                u = ub.get(basis[r])
                if u is None:
                    continue
                num, a = self.delta * u - T[r][rhs_col], -a
            elif a:
                num = T[r][rhs_col]
            else:
                continue
            if best_idx is None or num * best_den < best_num * a or (
                num * best_den == best_num * a and basis[r] < best_idx
            ):
                best_r, best_up, best_num, best_den, best_idx = r, up, num, a, basis[r]
        if best_idx is None:
            raise Unbounded("column %d unbounded" % col)
        if best_up:
            self._complement_row(best_r)
        return best_r

    def _exchange(self, r, col):
        """Pivot col in at row r, or flip col when r is None."""
        if r is None:
            self.flip(col)
        else:
            self.pivot(r, col)

    def _reduced(self, lam):
        """(z0, z1, q, p), q >= 0: q times column j's reduced cost at lam is
        z0[j]*q + z1[j]*p. lam None reads every cost as 0 (q = p = 0)."""
        if lam is None:
            return self.z, self.z, 0, 0
        if self.z1 is None:
            return self.z, self.z, lam.denominator, 0
        return self.z, self.z1, lam.denominator, lam.numerator

    def _pivot_until(self, step, lam):
        """Pivot at step(bland)'s (row, column), or flip the column when the
        row is None, until step returns None. Once the objective at lam
        stalls for more than 3*(rows + vars) + 20 steps, bland is True for
        good: step must then keep Bland's rule."""
        z0, z1, q, p = self._reduced(lam)
        rhs = self.rhs_col
        stall, bland = 0, False
        stall_limit = 3 * (self.nrows + self.nvars) + 20
        last_obj = (z0[rhs] * q + z1[rhs] * p, self.delta)
        while True:
            rc = step(bland)
            if rc is None:
                return
            self._exchange(*rc)
            cur = (z0[rhs] * q + z1[rhs] * p, self.delta)
            if cur[0] * last_obj[1] == last_obj[0] * cur[1]:
                stall += 1
                bland = bland or stall > stall_limit
            else:
                stall, last_obj = 0, cur

    # -- phases ---------------------------------------------------------

    def _run(self):
        """Primal simplex: Dantzig's rule enters the most negative reduced
        cost, Bland's the first negative one, lowest index on ties."""
        z, n = self.z, self.nvars + self.nrows

        def step(bland):
            best, col = 0, None
            for j in range(n):
                if z[j] < best:
                    best, col = z[j], j
                    if bland:
                        break
            if col is None:
                return None
            return self._leaving(col), col

        self._pivot_until(step, Fraction(0))

    def solve(self):
        """The dual simplex to a feasible basis, an optimal one when no cost
        is negative, then the primal simplex to the optimum."""
        self.dual_run(None if any(v < 0 for v in self.z) else Fraction(0))
        self._run()

    # -- growth ---------------------------------------------------------

    def add_row(self, coeffs, bi):
        """Append the row coeffs.x <= bi with its new slack basic.

        The row is scaled by the lcm s of its denominators and written in the
        current basis: with a_j its coefficients and r_j the row where column
        j is basic, the fraction-free row is s*(delta*a - sum_j a_j*T[r_j])
        over the basic structural columns j, delta in its own slack column,
        and s*(delta*bi - sum_j a_j*T[r_j][rhs]) = s*delta*(bi - a.x) on the
        right. It is zero on every basic column, so it is the row a tableau
        built with it from the start would show in this basis, and its
        right-hand side is negative exactly when the vertex breaks it. On a
        complemented column, x_j = u - x'_j, the row holds -a_j and a_j*u
        moves to the right.
        """
        a = _entries(coeffs, self.nvars, "row %d" % self.nrows, "column")
        bi = _exact(bi)
        if self.flipped:  # a_j*x_j = a_j*u - a_j*x'_j on complemented columns
            bi -= sum(v * self.upper[j] for j, v in a if j in self.flipped)
            a = [(j, -v if j in self.flipped else v) for j, v in a]
        s = lcm(bi.denominator, *(v.denominator for _, v in a))
        slack = self.rhs_col
        for row in self._all_rows():
            row.insert(slack, 0)
        self.rhs_col += 1
        delta = self.delta
        new = [0] * (self.rhs_col + 1)
        where = {col: r for r, col in enumerate(self.basis)}
        for j, v in a:
            v = _scaled(v, s)
            new[j] += delta * v
            r = where.get(j)
            if r is not None:  # cancels new[j] and leaves j's basic row behind
                for k, t in enumerate(self.T[r]):
                    if t:
                        new[k] -= v * t
        new[slack] = delta
        new[self.rhs_col] += delta * _scaled(bi, s)
        self.T.append(new)
        self.basis.append(slack)
        self.row_scale.append(s)
        self.nrows += 1

    def add_column(self, cost, coeffs):
        """Append a structural column of the given cost, its entries given
        as (row, coefficient) pairs, after the last structural column.

        In every row the column is B^-1 a, read off the slack columns: row i
        was scaled by s_i, so the column's entries are s_i*a_i in the
        starting tableau, where slack i's column is the unit vector, and by
        linearity its fraction-free column today is sum_i s_i*a_i*T[.][slack
        i]; the cost row adds delta*sigma_c*cost.
        Every s_i*a_i and sigma_c*cost must be an integer: the row scales are
        fixed when the tableau is built.
        """
        a = _entries(coeffs, self.nrows, "column %d" % self.nvars, "row")
        cost = _exact(cost)
        if any(self.row_scale[i] % v.denominator for i, v in a) or \
                self.sigma_c % cost.denominator:
            raise ValueError("column %d is not integral over the row scales"
                             % self.nvars)
        a = [(self.nvars + i, _scaled(v, self.row_scale[i])) for i, v in a]
        for row in self._all_rows():
            v = sum(t * row[k] for k, t in a)
            if row is self.z:
                v += self.delta * _scaled(cost, self.sigma_c)
            row.insert(self.nvars, v)
        self.basis = [col + (col >= self.nvars) for col in self.basis]
        self.nvars += 1
        self.rhs_col += 1

    def dual_run(self, lam=Fraction(0)):
        """Dual simplex at lam: pivot until every basic variable lies within
        its bounds, keeping every reduced cost z0 + lam*z1 at lam >= 0. lam
        None reads every reduced cost as 0: that pass only restores
        feasibility, for a basis that is not dual feasible.

        A row is infeasible when its right-hand side is negative, or when
        its basic variable is bounded by u and the right-hand side exceeds
        delta*u; complementing that variable (x' = u - x) turns the excess
        into the negative right-hand side delta*u - T[r][rhs]. The leaving
        row is the most negative right-hand side so read, lowest basic index
        on ties, complemented first in the second case; the entering column
        minimizes the ratio of its reduced cost at lam to -T[r][j] over
        T[r][j] < 0, lowest index on ties. No such column means the rows
        and bounds have no feasible point.

        Termination: complementing a basic variable moves neither the basis
        nor the objective, and a pivot with a positive ratio strictly raises
        the objective at lam, so no basis recurs across such a rise. Under
        _pivot_until's bland, the infeasible row of lowest basic index
        leaves, whichever bound it breaks: Bland's rule for the dual. With
        lam None every ratio is 0, so every candidate column ties and the
        lowest index enters, as that rule asks.
        """
        z0, z1, q, p = self._reduced(lam)
        T, basis, rhs, ub = self.T, self.basis, self.rhs_col, self.upper
        n = self.nvars + self.nrows

        def step(bland):
            r = best = None
            for i, row in enumerate(T):
                v = row[rhs]
                if v >= 0:
                    u = ub.get(basis[i])
                    if u is None:
                        continue
                    v = self.delta * u - v
                    if v >= 0:
                        continue
                if r is None or (basis[i] < basis[r] if bland or v == best
                                 else v < best):
                    r, best = i, v
            if r is None:
                return None
            if T[r][rhs] > 0:
                self._complement_row(r)
            tr = T[r]
            col = best_d = best_a = None
            for j in range(n):
                a = tr[j]
                if a < 0:
                    d = z0[j] * q + z1[j] * p
                    # d/-a < best_d/-best_a, cross-multiplied
                    if col is None or d * best_a > best_d * a:
                        col, best_d, best_a = j, d, a
            if col is None:
                raise Infeasible("row %d cannot be made feasible" % r)
            return r, col

        self._pivot_until(step, lam)

    # -- extraction -----------------------------------------------------

    def _x(self):
        """The vertex, each entry over delta: T[r][rhs] for a basic column,
        0 for a nonbasic one, and u*delta minus that for a complemented one."""
        v = [0] * self.nvars
        for r, bv in enumerate(self.basis):
            if bv < self.nvars:
                v[bv] = self.T[r][self.rhs_col]
        for j in self.flipped:
            v[j] = self.upper[j] * self.delta - v[j]
        return [Fraction(t, self.delta) for t in v]

    def _duals(self, lam=Fraction(0)):
        """Marginals of b, then of each bounded column's x_j <= u_j in
        column order, for the cost c + lam*slope (min convention). A bound's
        marginal is minus the reduced cost of its column when complemented
        (the column sits at u), else 0."""
        z0, z1, q, p = self._reduced(lam)
        den = q * self.delta * self.sigma_c
        return [
            Fraction(-(z0[j] * q + z1[j] * p) * s, den)
            for j, s in enumerate(self.row_scale, start=self.nvars)
        ] + [
            Fraction(-(z0[j] * q + z1[j] * p), den) if j in self.flipped
            else Fraction(0) for j in self.upper
        ]

    def result(self) -> SimplexResult:
        value = Fraction(-self.z[self.rhs_col], self.delta) / self.sigma_c
        return SimplexResult(self._x(), value, self._duals(), self.pivots,
                             self.flips)


def _cut(tab, new, lam=Fraction(0)):
    """Append the rows new, each (coeffs, bi), that tab's vertex breaks,
    then restore feasibility by the dual simplex at lam."""
    for coeffs, bi in new:
        tab.add_row(coeffs, bi)
        if tab.T[-1][tab.rhs_col] >= 0:
            raise SimplexError("row %d does not cut off the vertex" % (tab.nrows - 1))
    tab.dual_run(lam)


def solve_canonical(c, rows, b, cuts=None, columns=None, upper=None) -> SimplexResult:
    """min c.x subject to A x <= b, 0 <= x <= upper; exact rationals throughout.

    rows[i] lists the nonzeros of row i of A as (column, coefficient) pairs.
    upper, if given, has one entry per column: an int bound u >= 0 on x_j,
    or None for no bound. A bound is no row of the tableau: a column at its
    bound is complemented (x_j = u - x'_j), so that every nonbasic column
    still sits at 0, and dual_ub ends with one marginal per bounded column.

    cuts and columns let a caller start from part of a larger LP and grow
    it in the one tableau. At each optimum x, cuts(x) lists rows
    (coeffs, bi) that x breaks: they are appended with their slacks basic
    (add_row), and the dual simplex restores feasibility. Once it lists
    none, columns(dual_ub) lists columns (cost, coeffs), coeffs over the
    rows so far as (row, coefficient) pairs, of negative reduced cost: they
    are appended (add_column), and the primal simplex goes on. When neither
    lists anything the tableau is optimal for every row and column it holds.
    x then has one entry per column and dual_ub one per row, each in the
    order added, then one per bounded column; pivots counts every pivot of
    the tableau and flips every bound flip, which is not a pivot. A listed row
    that x satisfies, or a listed column that does not price out, raises
    SimplexError: the loop would not move.
    """
    if len(rows) != len(b):
        raise ValueError("rows and b disagree on row count")
    tab = _Tableau(c, rows, b, upper=upper)
    tab.solve()
    while True:
        new = cuts(tab._x()) if cuts is not None else ()
        if new:
            _cut(tab, new)
            continue
        new = columns(tab._duals()) if columns is not None else ()
        if not new:
            return tab.result()
        for cost, coeffs in new:
            tab.add_column(cost, coeffs)
            if tab.z[tab.nvars - 1] >= 0:
                raise SimplexError("column %d does not price out" % (tab.nvars - 1))
        tab._run()


def walk_canonical(c0, c1, rows, b, cuts=None, upper=None):
    """The optimal vertices of min (c0 + lam*c1).x s.t. A x <= b,
    0 <= x <= upper as lam runs over [0, 1], in order: one VertexRange per
    vertex that is optimal on an interval of positive width. Their
    intervals tile [0, 1]. upper bounds columns as in solve_canonical, and
    each dual ends with the bounds' marginals.

    Parametric cost ranging (Gass & Saaty, NRLQ 2, 1955). Needs b >= 0 and
    c0 >= 0, so that the slack basis is feasible and optimal at lam = 0. The
    tableau keeps the reduced costs of c0 and c1 as two rows z0 and z1; the
    reduced cost of column j at lam is z0[j] + lam*z1[j], so a basis optimal
    at lo stays optimal up to hi = min z0[j]/-z1[j] over the columns with
    z1[j] < 0 (basic columns have z0 = z1 = 0). The walk enters the column
    that attains hi, lowest index on ties, picks the leaving row with the
    ratio test, or flips the column when its own bound comes first, and
    repeats from lam = hi until hi reaches 1. Consecutive
    bases whose vertices have the same c0.x and c1.x, read off the cost
    rows, make one VertexRange, of the first such vertex; a dual is
    computed once per range, at its lo, and once more at 1.

    The ranges are the optimal value function's pieces: every pivot or flip
    enters a column with z1[j] < 0, so one that moves x strictly lowers
    c1.x, and the slope c1.x strictly falls from range to range.

    cuts grows the LP during the walk, as in solve_canonical: each new
    vertex x, before it becomes a range, is handed to cuts(x). The rows it
    breaks are appended and the dual simplex at lo, with its ratio test on
    z0 + lo*z1, restores feasibility while keeping the basis optimal at lo;
    the walk then goes on from lo. Every range's vertex so satisfies every
    row cuts could list, and is optimal for the rows held on its range. The
    dual simplex can land on another vertex of the range's own line: the
    range's vertex, feasible for the new rows, stays optimal at lo, so the
    new vertex costs no less at lo and, optimal just beyond lo, has no
    larger c1.x; with the same c1.x it is on the same line, and the range
    goes on. So the slope still falls strictly from range to range. A
    dual has one entry per row held when it was computed, in the order
    added.

    Termination under degeneracy: pivoting in a column of zero reduced cost
    at lam keeps every reduced cost at lam, and so does a flip of it, which
    only negates that column's own zero reduced cost (its z1 turns > 0); a
    basic variable leaving at its bound is complemented first, which moves
    no reduced cost. So while hi == lo the candidates are exactly the
    columns of zero reduced cost at lo with z1[j] < 0. Taking the lowest
    index among them, with the ratio test's lowest-basic-index tie-break, is
    Bland's rule for min c1.x over the face of lo-optimal points, which
    cannot cycle; it ends at a basis whose hi exceeds lo. lam
    never decreases, and a basis (with its complemented columns) once left
    at hi is not optimal beyond hi, so none repeats while the rows stay the
    same. Each call of cuts appends at least one row the vertex breaks, so
    not one the tableau holds: from a finite family of rows that happens
    finitely often.
    """
    if len(rows) != len(b) or len(c0) != len(c1):
        raise ValueError("rows, b, c0 and c1 disagree on their lengths")
    if any(rat(v) < 0 for v in b) or any(rat(v) < 0 for v in c0):
        raise ValueError("the slack basis must be optimal at lam = 0")
    tab = _Tableau(c0, rows, b, slope=c1, upper=upper)
    z0, z1 = tab.z, tab.z1
    lo = Fraction(0)
    cur = None  # the vertex being walked; its hi is not known yet
    line = None  # c0.x and c1.x of cur's vertex, times -sigma_c
    while True:
        col = None
        for j in range(tab.nvars + tab.nrows):
            # z0[j]/-z1[j] < z0[col]/-z1[col], cross-multiplied
            if z1[j] < 0 and (col is None or z0[j] * z1[col] > z0[col] * z1[j]):
                col = j
        hi = Fraction(1)
        if col is not None:
            hi = min(Fraction(z0[col], -z1[col]), hi)
        if hi > lo:
            costs = (Fraction(z0[tab.rhs_col], tab.delta),
                     Fraction(z1[tab.rhs_col], tab.delta))
            if costs != line:
                x = tab._x()
                new = cuts(x) if cuts is not None else ()
                if new:
                    _cut(tab, new, lo)
                    continue
                y = tab._duals(lo)
                if cur is not None:
                    cur.dual_ub[lo] = y
                    yield cur._replace(hi=lo)
                cur = VertexRange(lo, None, x, {lo: y}, tab.pivots)
                line = costs
        if hi == 1:
            cur.dual_ub[hi] = tab._duals(hi)
            yield cur._replace(hi=hi)
            return
        tab._exchange(tab._leaving(col), col)
        lo = hi
