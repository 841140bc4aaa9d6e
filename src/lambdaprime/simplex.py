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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


_MAX_PIVOTS = 500_000


class _Tableau:
    def __init__(self, c, rows, b):
        nrows, nvars = len(rows), len(c)
        c = [rat(v) for v in c]
        self.sigma_c = lcm(*(v.denominator for v in c)) if c else 1
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
        self.w = None  # phase-1 objective, live only during phase 1
        self.delta = 1
        self.pivots = 0

    # -- pivoting -------------------------------------------------------

    def _all_rows(self):
        yield self.z
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

    def result(self) -> SimplexResult:
        x = [Fraction(0)] * self.nvars
        for r, bv in enumerate(self.basis):
            if bv < self.nvars:
                x[bv] = Fraction(self.T[r][self.rhs_col], self.delta)
        value = Fraction(-self.z[self.rhs_col], self.delta) / self.sigma_c
        duals = []
        for i in range(self.nrows):
            zi = Fraction(self.z[self.nvars + i], self.delta)
            duals.append(-zi * self.row_scale[i] / self.sigma_c)
        return SimplexResult(x, value, duals, self.pivots)


def solve_canonical(c, rows, b) -> SimplexResult:
    """min c.x subject to A x <= b, x >= 0; exact rationals throughout.

    rows[i] lists the nonzeros of row i of A as (column, coefficient) pairs.
    """
    if len(rows) != len(b):
        raise ValueError("rows and b disagree on row count")
    tab = _Tableau(c, rows, b)
    tab.solve()
    return tab.result()
