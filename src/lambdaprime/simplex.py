"""Exact simplex for small sparse LPs, used by the LP relaxation and the
sensitivity machinery.

Canonical form:   min c.x   s.t.  A x <= b,  x >= 0

Each row of A is a sequence of (column, coefficient) pairs; a column the row
leaves out has coefficient zero. All arithmetic is exact. The tableau is kept
fraction-free: each row is scaled to integers up front by the lcm of its
coefficient and right-hand-side denominators, the objective by the lcm of its
denominators, and every pivot applies the
integer Gauss-Jordan update

    T'[i][j] = (T[i][j]*T[r][c] - T[i][c]*T[r][j]) // delta

where delta is the previous pivot element; the division is exact (tableau
entries stay minors of the integer input), and the true tableau is T/delta
throughout. Python ints make this ~30x faster than a Fraction tableau.

Pivot choice is Dantzig's rule with deterministic lowest-index tie-breaks,
falling back to Bland's rule permanently once the objective stalls, which
restores the termination guarantee on degenerate problems. Rows with negative
right-hand sides get phase-1 artificials.

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
    dual_ub: list  # marginals of b, <= 0 for binding <= rows (min convention)
    pivots: int


class VertexRange(NamedTuple):
    """One vertex of walk_canonical and the lam-interval where it is optimal."""

    lo: Fraction
    hi: Fraction
    x: list  # the vertex, Fractions
    dual_ub: dict  # lo and hi -> marginals of b at that lam (min convention)
    pivots: int  # pivots from the slack basis to the vertex


_MAX_PIVOTS = 500_000


class _Tableau:
    def __init__(self, c, rows, b, slope=None):
        nrows, nvars = len(rows), len(c)
        c = [rat(v) for v in c]
        slope = None if slope is None else [rat(v) for v in slope]
        self.sigma_c = lcm(*(v.denominator for v in c + (slope or []))) if c else 1
        zrow = [int(v * self.sigma_c) for v in c]

        self.nvars = nvars
        self.nrows = nrows
        b = [rat(v) for v in b]
        self.n_art = sum(bi < 0 for bi in b)
        self.art_start = nvars + nrows
        ncols = nvars + nrows + self.n_art + 1
        self.rhs_col = ncols - 1
        self.row_scale = []
        self.T = []
        self.basis = []
        next_art = self.art_start
        for i, coeffs in enumerate(rows):
            a = [(j, rat(v)) for j, v in coeffs]
            if len({j for j, _ in a}) < len(a):
                raise ValueError("row %d repeats a column" % i)
            if not all(0 <= j < nvars for j, _ in a):
                raise ValueError("row %d has a column outside [0, %d)" % (i, nvars))
            s = lcm(b[i].denominator, *(v.denominator for _, v in a))
            self.row_scale.append(s)
            # rows with negative rhs are negated and get a phase-1 artificial
            sign = -1 if b[i] < 0 else 1
            row = [0] * ncols
            for j, v in a:
                row[j] = sign * int(v * s)
            row[nvars + i] = sign
            if sign < 0:
                row[next_art] = 1
                self.basis.append(next_art)
                next_art += 1
            else:
                self.basis.append(nvars + i)
            row[self.rhs_col] = sign * int(b[i] * s)
            self.T.append(row)

        z = [0] * ncols
        z[:nvars] = zrow
        self.z = z
        self.z1 = None  # cost-slope row, live only in walk_canonical
        if slope is not None:
            self.z1 = [0] * ncols
            self.z1[:nvars] = [int(v * self.sigma_c) for v in slope]
        self.w = None  # phase-1 objective, live only during phase 1
        self.delta = 1
        self.pivots = 0

    # -- pivoting -------------------------------------------------------

    def _all_rows(self):
        yield self.z
        if self.z1 is not None:
            yield self.z1
        if self.w is not None:
            yield self.w
        yield from self.T

    def pivot(self, r, col):
        T = self.T
        piv = T[r][col]
        if piv == 0:
            raise SimplexError("zero pivot")
        delta = self.delta
        tr = T[r]
        for row in self._all_rows():
            if row is tr:
                continue
            f = row[col]
            if f == 0:
                if piv != delta:
                    for j, v in enumerate(row):
                        if v:
                            row[j] = v * piv // delta
                continue
            for j, v in enumerate(row):
                row[j] = (v * piv - f * tr[j]) // delta
        self.delta = piv
        self.basis[r] = col
        if self.delta < 0:
            for row in self._all_rows():
                for j, v in enumerate(row):
                    if v:
                        row[j] = -v
            self.delta = -self.delta
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")

    def _entering(self, objrow, allowed_hi, bland):
        if bland:
            for j in range(allowed_hi):
                if objrow[j] < 0:
                    return j
            return None
        best, best_j = 0, None
        for j in range(allowed_hi):
            v = objrow[j]
            if v < best:
                best, best_j = v, j
        return best_j

    def _leaving(self, col):
        T = self.T
        rhs_col = self.rhs_col
        best_r = None
        best_num = best_den = None
        best_key = None
        for r in range(self.nrows):
            a = T[r][col]
            if a <= 0:
                continue
            num = T[r][rhs_col]
            if best_r is None or num * best_den < best_num * a or (
                num * best_den == best_num * a and self.basis[r] < best_key
            ):
                best_r, best_num, best_den = r, num, a
                best_key = self.basis[r]
        return best_r

    def _run(self, objrow, allowed_hi):
        stall = 0
        stall_limit = 3 * (self.nrows + self.nvars) + 20
        bland = False
        last_obj = (objrow[self.rhs_col], self.delta)
        while True:
            col = self._entering(objrow, allowed_hi, bland)
            if col is None:
                return
            r = self._leaving(col)
            if r is None:
                raise Unbounded("column %d unbounded" % col)
            self.pivot(r, col)
            cur = (objrow[self.rhs_col], self.delta)
            if cur[0] * last_obj[1] == last_obj[0] * cur[1]:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
                last_obj = cur

    # -- phases ---------------------------------------------------------

    def solve(self):
        if self.n_art:
            w = [0] * (self.rhs_col + 1)
            for i in range(self.nrows):
                if self.basis[i] >= self.art_start:
                    for j, v in enumerate(self.T[i]):
                        w[j] -= v
            for k in range(self.n_art):
                w[self.art_start + k] = 0
            self.w = w
            self._run(w, self.art_start)
            if w[self.rhs_col] != 0:
                raise Infeasible(
                    "phase 1 optimum %s" % Fraction(-w[self.rhs_col], self.delta)
                )
            for r in range(self.nrows):
                if self.basis[r] >= self.art_start:
                    # kick the artificial out via the row's own slack column
                    scol = self.nvars + r
                    if self.T[r][scol] == 0:
                        raise SimplexError("cannot remove artificial from basis")
                    self.pivot(r, scol)
            self.w = None
            for row in self._all_rows():
                del row[self.art_start : self.rhs_col]
            self.rhs_col = self.art_start
        self._run(self.z, self.nvars + self.nrows)

    # -- extraction -----------------------------------------------------

    def _x(self):
        x = [Fraction(0)] * self.nvars
        for r, bv in enumerate(self.basis):
            if bv < self.nvars:
                x[bv] = Fraction(self.T[r][self.rhs_col], self.delta)
        return x

    def _duals(self, lam=Fraction(0)):
        """Marginals of b for the cost c + lam*slope (min convention)."""
        p, q = lam.numerator, lam.denominator
        z, z1 = self.z, self.z1 or [0] * len(self.z)
        den = q * self.delta * self.sigma_c
        return [
            Fraction(-(z[j] * q + p * z1[j]) * s, den)
            for j, s in enumerate(self.row_scale, start=self.nvars)
        ]

    def result(self) -> SimplexResult:
        value = Fraction(-self.z[self.rhs_col], self.delta) / self.sigma_c
        return SimplexResult(self._x(), value, self._duals(), self.pivots)


def solve_canonical(c, rows, b) -> SimplexResult:
    """min c.x subject to A x <= b, x >= 0; exact rationals throughout.

    rows[i] lists the nonzeros of row i of A as (column, coefficient) pairs.
    """
    if len(rows) != len(b):
        raise ValueError("rows and b disagree on row count")
    tab = _Tableau(c, rows, b)
    tab.solve()
    return tab.result()


def walk_canonical(c0, c1, rows, b):
    """The optimal vertices of min (c0 + lam*c1).x s.t. A x <= b, x >= 0 as
    lam runs over [0, 1], in order: one VertexRange per vertex that is
    optimal on an interval of positive width. Their intervals tile [0, 1].

    Parametric cost ranging (Gass & Saaty, NRLQ 2, 1955). Needs b >= 0 and
    c0 >= 0, so that the slack basis is feasible and optimal at lam = 0. The
    tableau keeps the reduced costs of c0 and c1 as two rows z0 and z1; the
    reduced cost of column j at lam is z0[j] + lam*z1[j], so a basis optimal
    at lo stays optimal up to hi = min z0[j]/-z1[j] over the columns with
    z1[j] < 0 (basic columns have z0 = z1 = 0). The walk enters the column
    that attains hi, lowest index on ties, picks the leaving row with the
    ratio test, and repeats from lam = hi until hi reaches 1. Consecutive
    bases with the same vertex make one VertexRange; a dual is computed
    once per vertex, at its lo, and once more at 1.

    Termination under degeneracy: pivoting in a column of zero reduced cost
    at lam keeps every reduced cost at lam, so while hi == lo the candidates
    are exactly the columns of zero reduced cost at lo with z1[j] < 0. Taking
    the lowest index among them, with the ratio test's lowest-basic-index
    tie-break, is Bland's rule for min c1.x over the face of lo-optimal
    points, which cannot cycle; it ends at a basis whose hi exceeds lo. lam
    never decreases, and a basis once left at hi is not optimal beyond hi,
    so no basis repeats.
    """
    if len(rows) != len(b) or len(c0) != len(c1):
        raise ValueError("rows, b, c0 and c1 disagree on their lengths")
    if any(rat(v) < 0 for v in b) or any(rat(v) < 0 for v in c0):
        raise ValueError("the slack basis must be optimal at lam = 0")
    tab = _Tableau(c0, rows, b, slope=c1)
    z0, z1 = tab.z, tab.z1
    ncols = tab.nvars + tab.nrows
    lo = Fraction(0)
    cur = None  # the vertex being walked; its hi is not known yet
    while True:
        col = None
        for j in range(ncols):
            # z0[j]/-z1[j] < z0[col]/-z1[col], cross-multiplied
            if z1[j] < 0 and (col is None or z0[j] * z1[col] > z0[col] * z1[j]):
                col = j
        hi = Fraction(1)
        if col is not None:
            hi = min(Fraction(z0[col], -z1[col]), hi)
        if hi > lo:
            x = tab._x()
            if cur is None or x != cur.x:
                y = tab._duals(lo)
                if cur is not None:
                    cur.dual_ub[lo] = y
                    yield cur._replace(hi=lo)
                cur = VertexRange(lo, None, x, {lo: y}, tab.pivots)
        if hi == 1:
            cur.dual_ub[hi] = tab._duals(hi)
            yield cur._replace(hi=hi)
            return
        r = tab._leaving(col)
        if r is None:
            raise Unbounded("column %d unbounded beyond lam=%s" % (col, hi))
        tab.pivot(r, col)
        lo = hi
