"""Exact simplex for small sparse LPs: the solves and the parametric walk of
the metric LP relaxation, on which the sensitivity ranges build.

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

The tableau is condensed (a dictionary, as in lrs; Avis 2000): every basic
column is delta times a unit vector, so it is not stored. Each row belongs
to a basic variable (basis) and stores one entry per nonbasic variable
(cols) and the right-hand side, last. Variables carry labels: 0..nvars-1
the structural columns, then one slack per row. A pivot on row r and stored
column c swaps the labels basis[r] and cols[c], and column c becomes the
leaving variable's column: b in row r, where b is delta (or -delta once the
row is negated, below), and -T[i][c]*b/delta in every other row, the update
above with 0 for the leaving column's entry off row r. Every stored integer
is the one the full tableau would hold, so every division stays exact.
Columns are stored in the order of the pivots that put them there, so every
tie-break ranks variables by label, never by position: the pivot path is
the full tableau's.

A pivot touches only the entries the update can change, and the skipped
ones keep exactly the integers the full update would give. A negative pivot
is handled by negating the pivot row first, which negates the update of
every other row and keeps delta positive. Then when T[r][c] == delta, as in
most pivots (the dual simplex's negative ones included),
v*T[r][c]//delta == v, so a row with T[i][c] == 0 keeps every entry, and a
row with T[i][c] != 0 changes only in the stored columns where the pivot
row is nonzero. Otherwise every row is rescaled, but a position where both
T[i][j] and T[r][j] are zero stays zero.

One driver, _pivot_until, runs both the primal simplex (_run) and the dual
simplex (dual_run; Lemke, NRLQ 1, 1954); each only picks the next pivot.
One dual ratio test (_entering) picks the dual simplex's entering column
and the walk's next breakpoint.
Pivot choice is Dantzig's rule with deterministic lowest-label tie-breaks.
The driver watches the objective and, once it stalls, switches the rule to
Bland's for good, which restores the termination guarantee on degenerate
problems. The tableau starts from the slack basis, a negative right-hand
side included, and dual_run makes it feasible: at lam = 0 when every cost
is >= 0, so that it ends optimal, else with every reduced cost read as 0.
The primal simplex then goes on to the optimum.

Every row enters the tableau through add_row, the starting rows too: it
writes a row in the current basis with its slack basic, and in the slack
basis the constructor starts from that is the row scaled by its lcm. One
tableau can so grow, for an LP too large to write out whose rows a caller
lists as they are needed: add_row writes the new row alone, and dual_run
restores feasibility. It gives exactly the integers of a tableau built with
the row from the start and pivoted into the same basis. solve_canonical and
walk_canonical grow their tableau through one callback, cuts(xi, delta),
which reads the vertex as the tableau holds it: integers xi over delta.
Fractions are built only for what the two return (SimplexResult,
VertexRange), never for a round of cuts.

A bound x_j <= u, u an int, is no row of the tableau (Dantzig's
upper-bounding technique, Econometrica 23, 1955). A column at its bound is
complemented, x_j = u - x'_j, so every nonbasic column still sits at 0 and
the pivot rules keep their form. Complementing is exact in integers: a
nonbasic variable's stored column is negated and u times it leaves the
right-hand sides (flip), and a basic variable's row is negated, its
unstored basic column staying delta, and delta*u is added on the right
(_complement_row). The ratio test then has three outcomes: a basic
variable falls to 0 (a pivot), a bounded basic variable rises to its bound
(complemented, then a pivot), or the entering column reaches its own bound
(a flip, no pivot).
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
    flips: int  # bound flips: a column moved to its other bound, no pivot
    xi: list  # x as the tableau held it: x[j] = xi[j] / delta, integers
    delta: int


class VertexRange(NamedTuple):
    """One vertex of walk_canonical and its lam-interval: one value piece."""

    lo: Fraction
    hi: Fraction
    x: list  # the vertex, Fractions
    dual_ub: dict  # lo and hi -> marginals of b, then of the bounds, at that lam
    pivots: int  # pivots from the slack basis to the vertex
    xi: list  # the vertex as the tableau held it, x[j] = xi[j] / delta
    delta: int


_MAX_PIVOTS = 500_000
_ZERO = Fraction(0)  # one shared zero for every zero entry of x and of a dual


def _exact(v):
    """v itself if it is an int, else rat(v): a Fraction, floats refused."""
    return v if isinstance(v, int) else rat(v)


def _scaled(v, s):
    """The integer v*s, for s a multiple of v's denominator."""
    return v.numerator * (s // v.denominator)


def _entries(coeffs, hi, what):
    """coeffs as (column, exact value) pairs, each column once and in [0, hi)."""
    a = [(j, _exact(v)) for j, v in coeffs]
    if len({j for j, _ in a}) < len(a):
        raise ValueError("%s repeats a column" % what)
    if not all(0 <= j < hi for j, _ in a):
        raise ValueError("%s has a column outside [0, %d)" % (what, hi))
    return a


class _Tableau:
    def __init__(self, c, rows, b, slope=None, upper=None):
        nvars = len(c)
        if len(rows) != len(b):
            raise ValueError("rows and b disagree on row count")
        if slope is not None and len(slope) != nvars:
            raise ValueError("slope and c disagree on column count")
        if upper is not None and len(upper) != nvars:
            raise ValueError("upper and c disagree on column count")
        c = [_exact(v) for v in c]
        slope = None if slope is None else [_exact(v) for v in slope]
        self.sigma_c = lcm(*(v.denominator for v in c + (slope or []))) if c else 1
        self.z = [_scaled(v, self.sigma_c) for v in c] + [0]
        self.z1 = None  # cost-slope row, live only in walk_canonical
        if slope is not None:
            self.z1 = [_scaled(v, self.sigma_c) for v in slope] + [0]

        self.nvars = nvars
        self.nrows = 0
        # the variable of each stored column, then of each row: labels
        # 0..nvars-1 are the structural columns, nvars + i is row i's slack
        self.cols = list(range(nvars))
        self.basis = []
        self.row_scale = []
        self.T = []
        self.delta = 1
        self.pivots = 0
        # the bound u of each bounded structural column (x_j <= u), by
        # label; a label in flipped is complemented, x_j = u - x'_j
        self.upper = {}
        for j, u in enumerate(upper or ()):
            if u is None:
                continue
            if not isinstance(u, int) or u < 0:
                raise ValueError("bound of column %d is not an int >= 0" % j)
            self.upper[j] = u
        self.flipped = set()
        self.flips = 0
        self._label_maps = None  # _labels(), until the next pivot
        for coeffs, bi in zip(rows, b):
            self.add_row(coeffs, bi)

    # -- pivoting -------------------------------------------------------

    def _all_rows(self):
        """The cost rows, then the constraint rows, as one list."""
        if self.z1 is None:
            return [self.z, *self.T]
        return [self.z, self.z1, *self.T]

    def _labels(self):
        """(at, where): the stored column of each nonbasic label and the row
        of each basic structural column. Built once and kept until the next
        pivot: a flip or a complemented row moves no label, and a row added
        makes a slack basic."""
        if self._label_maps is None:
            self._label_maps = (
                {j: k for k, j in enumerate(self.cols)},
                {j: r for r, j in enumerate(self.basis) if j < self.nvars})
        return self._label_maps

    def pivot(self, r, col):
        """Enter the variable of stored column col in row r: the leaving
        variable takes its column, whose entry in row r is delta (-delta
        when the row is negated) and 0 in the other rows before the
        update."""
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
            tr[col] = -delta
        else:
            tr[col] = delta
        if piv == delta:
            # only the pivot row's nonzero columns of rows with f != 0 change;
            # (v*delta - f*t)//delta is exact, so it equals v - f*t//delta,
            # which is v - f*t when delta is 1
            nz = [(j, t) for j, t in enumerate(tr) if t]
            for row in self._all_rows():
                f = row[col]
                if f and row is not tr:
                    row[col] = 0
                    if delta == 1:
                        for j, t in nz:
                            row[j] -= f * t
                    else:
                        for j, t in nz:
                            row[j] -= f * t // delta
        else:
            for row in self._all_rows():
                if row is tr:
                    continue
                f = row[col]
                if f:
                    row[col] = 0
                    row[:] = [(v * piv - f * t) // delta if v or t else 0
                              for v, t in zip(row, tr)]
                else:
                    row[:] = [v * piv // delta if v else 0 for v in row]
        self.delta = piv
        self.basis[r], self.cols[col] = self.cols[col], self.basis[r]
        self._label_maps = None
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")

    def flip(self, col):
        """Move the bounded variable of stored column col to its other
        bound: in x' = u - x, its column is negated in every row and
        u*T[i][col] leaves each right-hand side, exact as u is an int. A
        second flip undoes the first."""
        j = self.cols[col]
        u = self.upper[j]
        for row in self._all_rows():
            t = row[col]
            if t:
                row[col] = -t
                row[-1] -= u * t
        self.flipped ^= {j}
        self.flips += 1

    def _complement_row(self, r):
        """Write row r's basic variable x, bounded by u, as x' = u - x: the
        row is negated, which keeps its implicit basic column delta, and
        delta*u is added on the right."""
        tr, bv = self.T[r], self.basis[r]
        tr[:] = [-t for t in tr]
        tr[-1] += self.delta * self.upper[bv]
        self.flipped ^= {bv}

    def _leaving(self, col):
        """The ratio test as column col enters: how far it rises before a
        basic variable falls to 0 (T[r][col] > 0, ratio T[r][rhs]/T[r][col]),
        a bounded basic variable rises to its bound u (T[r][col] < 0, ratio
        (delta*u - T[r][rhs])/-T[r][col]) or col reaches its own bound
        (ratio u). The least ratio wins, the lowest basic label on ties,
        where col's own bound ranks by col's label.

        Returns the row to pivot on, its basic variable complemented first
        when it leaves at its bound, or None when col's own bound comes
        first: col flips. Raises Unbounded when nothing bounds col."""
        basis, ub = self.basis, self.upper
        best_r = best_up = best_idx = None
        label = self.cols[col]
        if label in ub:
            best_num, best_den, best_idx = ub[label], 1, label
        for r, row in enumerate(self.T):
            a = row[col]
            up = a < 0
            if up:
                u = ub.get(basis[r])
                if u is None:
                    continue
                num, a = self.delta * u - row[-1], -a
            elif a:
                num = row[-1]
            else:
                continue
            if best_idx is None or num * best_den < best_num * a or (
                num * best_den == best_num * a and basis[r] < best_idx
            ):
                best_r, best_up, best_num, best_den, best_idx = r, up, num, a, basis[r]
        if best_idx is None:
            raise Unbounded("column %d unbounded" % label)
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

    def _entering(self, row, lam):
        """The dual ratio test on row: among the stored columns j with
        row[j] < 0, the one of least reduced cost at lam over -row[j],
        lowest label on ties; None when there is none."""
        z0, z1, q, p = self._reduced(lam)
        cols = self.cols
        col = best_d = best_a = None
        for j in range(self.nvars):
            a = row[j]
            if a < 0:
                d = z0[j] * q + z1[j] * p
                if col is None:
                    col, best_d, best_a = j, d, a
                    continue
                # d/-a < best_d/-best_a, cross-multiplied
                new, old = d * best_a, best_d * a
                if new > old or (new == old and cols[j] < cols[col]):
                    col, best_d, best_a = j, d, a
        return col

    def _pivot_until(self, step, lam):
        """Pivot at step(bland)'s (row, column), or flip the column when the
        row is None, until step returns None. Once the objective at lam
        stalls for more than 3*(rows + vars) + 20 steps, bland is True for
        good: step must then keep Bland's rule."""
        z0, z1, q, p = self._reduced(lam)
        stall, bland = 0, False
        stall_limit = 3 * (self.nrows + self.nvars) + 20
        last_obj = (z0[-1] * q + z1[-1] * p, self.delta)
        while True:
            rc = step(bland)
            if rc is None:
                return
            self._exchange(*rc)
            cur = (z0[-1] * q + z1[-1] * p, self.delta)
            if cur[0] * last_obj[1] == last_obj[0] * cur[1]:
                stall += 1
                bland = bland or stall > stall_limit
            else:
                stall, last_obj = 0, cur

    # -- phases ---------------------------------------------------------

    def _run(self):
        """Primal simplex: Dantzig's rule enters the most negative reduced
        cost, Bland's the negative one of lowest label, lowest label on
        ties."""
        z, cols = self.z, self.cols

        def step(bland):
            best, col = 0, None
            for j in range(self.nvars):
                v = z[j]
                if v < 0 and (col is None or (
                        cols[j] < cols[col] if bland or v == best else v < best)):
                    best, col = v, j
            if col is None:
                return None
            return self._leaving(col), col

        self._pivot_until(step, _ZERO)

    def solve(self):
        """The dual simplex to a feasible basis, an optimal one when no cost
        is negative, then the primal simplex to the optimum."""
        self.dual_run(None if any(v < 0 for v in self.z) else _ZERO)
        self._run()

    # -- growth ---------------------------------------------------------

    def add_row(self, coeffs, bi):
        """Append the row coeffs.x <= bi with its new slack basic; no other
        row changes.

        The row is scaled by the lcm s of its denominators and written in the
        current basis: with a_j its coefficients and r_j the row where column
        j is basic, the fraction-free row is s*(delta*a - sum_j a_j*T[r_j])
        over the basic structural columns j, with s*(delta*bi - sum_j
        a_j*T[r_j][rhs]) = s*delta*(bi - a.x) on the right. It is zero on
        every basic column, so it stores one entry per nonbasic column as
        every row does: the row a tableau built with it from the start would
        show in this basis, and its right-hand side is negative exactly when
        the vertex breaks it. On a complemented column, x_j = u - x'_j, the
        row holds -a_j and a_j*u moves to the right. The label maps
        (_labels) serve every row of a batch, as none moves a label: the
        constructor's starting rows, or a batch of cuts.
        """
        a = _entries(coeffs, self.nvars, "row %d" % self.nrows)
        bi = _exact(bi)
        if self.flipped:  # a_j*x_j = a_j*u - a_j*x'_j on complemented columns
            bi -= sum(v * self.upper[j] for j, v in a if j in self.flipped)
            a = [(j, -v if j in self.flipped else v) for j, v in a]
        s = lcm(bi.denominator, *(v.denominator for _, v in a))
        delta = self.delta
        new = [0] * (self.nvars + 1)
        at, where = self._labels()
        for j, v in a:
            v = _scaled(v, s)
            k = at.get(j)
            if k is not None:
                new[k] += delta * v
            else:  # j is basic: its row leaves v times itself behind
                for k, t in enumerate(self.T[where[j]]):
                    if t:
                        new[k] -= v * t
        new[-1] += delta * _scaled(bi, s)
        self.T.append(new)
        self.basis.append(self.nvars + self.nrows)
        self.row_scale.append(s)
        self.nrows += 1

    def dual_run(self, lam=_ZERO):
        """Dual simplex at lam: pivot until every basic variable lies within
        its bounds, keeping every reduced cost z0 + lam*z1 at lam >= 0. lam
        None reads every reduced cost as 0: that pass only restores
        feasibility, for a basis that is not dual feasible.

        A row is infeasible when its right-hand side is negative, or when
        its basic variable is bounded by u and the right-hand side exceeds
        delta*u; complementing that variable (x' = u - x) turns the excess
        into the negative right-hand side delta*u - T[r][rhs]. The leaving
        row is the most negative right-hand side so read, lowest basic label
        on ties, complemented first in the second case; the entering column
        minimizes the ratio of its reduced cost at lam to -T[r][j] over
        T[r][j] < 0, lowest label on ties. No such column means the rows
        and bounds have no feasible point.

        Termination: complementing a basic variable moves neither the basis
        nor the objective, and a pivot with a positive ratio strictly raises
        the objective at lam, so no basis recurs across such a rise. Under
        _pivot_until's bland, the infeasible row of lowest basic label
        leaves, whichever bound it breaks: Bland's rule for the dual. With
        lam None every ratio is 0, so every candidate column ties and the
        lowest label enters, as that rule asks.
        """
        T, basis, ub = self.T, self.basis, self.upper

        def step(bland):
            r = best = None
            for i, row in enumerate(T):
                v = row[-1]
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
            if T[r][-1] > 0:
                self._complement_row(r)
            col = self._entering(T[r], lam)
            if col is None:
                raise Infeasible("row %d cannot be made feasible" % r)
            return r, col

        self._pivot_until(step, lam)

    # -- extraction -----------------------------------------------------

    def _xi(self):
        """The vertex as the tableau holds it, each entry an integer over
        delta: T[r][rhs] for a basic column, 0 for a nonbasic one, and
        u*delta minus that for a complemented one."""
        v = [0] * self.nvars
        for r, bv in enumerate(self.basis):
            if bv < self.nvars:
                v[bv] = self.T[r][-1]
        for j in self.flipped:
            v[j] = self.upper[j] * self.delta - v[j]
        return v

    def _x(self):
        """The vertex as Fractions, _xi() over delta; built for results only."""
        d = self.delta
        return [Fraction(t, d) if t else _ZERO for t in self._xi()]

    def _duals(self, lam=_ZERO):
        """Marginals of b, then of each bounded column's x_j <= u_j in
        column order, for the cost c + lam*slope (min convention): minus the
        reduced cost of row i's slack, and of a bounded column when it is
        complemented and nonbasic (the column sits at u); 0 for a basic
        variable."""
        z0, z1, q, p = self._reduced(lam)
        den = q * self.delta * self.sigma_c
        at, _ = self._labels()

        def marginal(j, s):
            k = at.get(j)
            if k is None:
                return _ZERO
            d = z0[k] * q + z1[k] * p
            return Fraction(-d * s, den) if d else _ZERO

        rows = enumerate(self.row_scale, start=self.nvars)
        return [marginal(j, s) for j, s in rows] + [
            marginal(j, 1) if j in self.flipped else _ZERO for j in self.upper]

    def result(self) -> SimplexResult:
        value = Fraction(-self.z[-1], self.delta * self.sigma_c)
        return SimplexResult(self._x(), value, self._duals(), self.pivots,
                             self.flips, self._xi(), self.delta)


def _cut(tab, new, lam=_ZERO):
    """Append the rows new, each (coeffs, bi), that tab's vertex breaks,
    then restore feasibility by the dual simplex at lam."""
    for coeffs, bi in new:
        tab.add_row(coeffs, bi)
        if tab.T[-1][-1] >= 0:
            raise SimplexError("row %d does not cut off the vertex" % (tab.nrows - 1))
    tab.dual_run(lam)


def solve_canonical(c, rows, b, cuts=None, upper=None) -> SimplexResult:
    """min c.x subject to A x <= b, 0 <= x <= upper; exact rationals throughout.

    rows[i] lists the nonzeros of row i of A as (column, coefficient) pairs.
    upper, if given, has one entry per column: an int bound u >= 0 on x_j,
    or None for no bound. A bound is no row of the tableau: a column at its
    bound is complemented (x_j = u - x'_j), so that every nonbasic column
    still sits at 0, and dual_ub ends with one marginal per bounded column.

    cuts lets a caller start from part of a larger LP and grow it in the one
    tableau. At each optimum x, cuts(xi, delta) is handed x as the tableau
    holds it, x[j] = xi[j] / delta with xi a list of ints (which it must
    leave as it is) and delta >= 1, and lists rows (coeffs, bi) that x
    breaks: they are appended with their slacks basic (add_row), and the
    dual simplex restores feasibility. When it lists none the tableau is
    optimal for every row it holds, and only then is x built as Fractions,
    for the result, which keeps xi and delta too. dual_ub then has one
    entry per row, in the order added, then one per bounded column; pivots
    counts every pivot of the tableau and flips every bound flip, which is
    not a pivot. A listed row that x satisfies raises SimplexError: the
    loop would not move.
    """
    tab = _Tableau(c, rows, b, upper=upper)
    tab.solve()
    while True:
        new = cuts(tab._xi(), tab.delta) if cuts is not None else ()
        if not new:
            return tab.result()
        _cut(tab, new)


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
    at lo stays optimal up to hi = min z0[j]/-z1[j] over the stored columns
    with z1[j] < 0 (basic columns have z0 = z1 = 0): the dual simplex's
    ratio test (_entering) on the row z1 at lam = 0. The walk enters the
    column that attains hi, lowest label on ties, picks the leaving row with
    the ratio test, or flips the column when its own bound comes first, and
    repeats from lam = hi until hi reaches 1. lo and hi are kept as integer
    ratios, and become Fractions only where a range starts or ends.
    Consecutive bases whose vertices have the same c0.x and c1.x, read off
    the cost rows, make one VertexRange, of the first such vertex; a dual is
    computed once per range, at its lo, and once more at 1.

    The ranges are the optimal value function's pieces: every pivot or flip
    enters a column with z1[j] < 0, so one that moves x strictly lowers
    c1.x, and the slope c1.x strictly falls from range to range.

    cuts grows the LP during the walk, as in solve_canonical: each new
    vertex x, before it becomes a range, is handed to cuts(xi, delta) as
    the integers the tableau holds; it is built as Fractions only once it
    becomes a range, which keeps xi and delta too. The rows cuts lists
    are appended and the dual simplex at lo, with its ratio test on
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
    label among them, with the ratio test's lowest-basic-label tie-break, is
    Bland's rule for min c1.x over the face of lo-optimal points, which
    cannot cycle; it ends at a basis whose hi exceeds lo. lam
    never decreases, and a basis (with its complemented columns) once left
    at hi is not optimal beyond hi, so none repeats while the rows stay the
    same. Each call of cuts appends at least one row the vertex breaks, so
    not one the tableau holds: from a finite family of rows that happens
    finitely often.
    """
    tab = _Tableau(c0, rows, b, slope=c1, upper=upper)
    z0, z1 = tab.z, tab.z1
    if any(row[-1] < 0 for row in tab.T) or any(v < 0 for v in z0):
        raise ValueError("the slack basis must be optimal at lam = 0")
    lo_num, lo_den = 0, 1  # lo, a Fraction only where a range starts
    cur = None  # the vertex being walked; its hi is not known yet
    line = None  # z0[rhs], z1[rhs] and delta at cur's vertex
    while True:
        col = tab._entering(z1, _ZERO)
        hi_num, hi_den = 1, 1
        if col is not None and z0[col] < -z1[col]:
            hi_num, hi_den = z0[col], -z1[col]
        if hi_num * lo_den > lo_num * hi_den:
            costs = (z0[-1], z1[-1], tab.delta)
            if line is None or costs[0] * line[2] != line[0] * costs[2] or \
                    costs[1] * line[2] != line[1] * costs[2]:
                lo = Fraction(lo_num, lo_den)
                xi = tab._xi()
                new = cuts(xi, tab.delta) if cuts is not None else ()
                if new:
                    _cut(tab, new, lo)
                    continue
                y = tab._duals(lo)
                if cur is not None:
                    cur.dual_ub[lo] = y
                    yield cur._replace(hi=lo)
                cur = VertexRange(lo, None, tab._x(), {lo: y}, tab.pivots,
                                  xi, tab.delta)
                line = costs
        if hi_num == hi_den:
            hi = Fraction(1)
            cur.dual_ub[hi] = tab._duals(hi)
            yield cur._replace(hi=hi)
            return
        tab._exchange(tab._leaving(col), col)
        lo_num, lo_den = hi_num, hi_den
