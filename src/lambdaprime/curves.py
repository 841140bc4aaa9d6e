"""Concave piecewise-linear value curves and exact lower envelopes of lines.

OPT(lam) and LP(lam) are concave, increasing, piecewise-linear: the lower
envelope of the CostLines of all candidate solutions. Pieces are kept as
(line, [lo, hi]) with exact rational breakpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .objectives import CostLine
from .rationals import rat


@dataclass(frozen=True)
class PwlPiece:
    line: CostLine
    lo: Fraction
    hi: Fraction
    tag: object = None  # representative payload (clustering, solution, ...)


@dataclass(frozen=True)
class PwlCurve:
    """Pieces tile [domain_lo, domain_hi]; concavity is checked on build."""

    pieces: tuple
    domain_lo: Fraction
    domain_hi: Fraction

    def __post_init__(self):
        ps = self.pieces
        if not ps:
            raise ValueError("curve needs at least one piece")
        if ps[0].lo != self.domain_lo or ps[-1].hi != self.domain_hi:
            raise ValueError("pieces do not span the stated domain")
        for i, p in enumerate(ps):
            if p.lo > p.hi:
                raise ValueError("empty piece interval")
            if i:
                q = ps[i - 1]
                if q.hi != p.lo:
                    raise ValueError("gap/overlap between pieces %d and %d" % (i - 1, i))
                if q.line.value_at(p.lo) != p.line.value_at(p.lo):
                    raise ValueError("discontinuity at %s" % p.lo)
                if not (q.line.N > p.line.N and q.line.P < p.line.P):
                    raise ValueError("pieces not strictly concave-ordered")

    @property
    def breakpoints(self) -> list:
        return [p.hi for p in self.pieces[:-1]]

    def value_at(self, lam) -> Fraction:
        return self.piece_at(lam).line.value_at(lam)

    def piece_at(self, lam) -> PwlPiece:
        lam = rat(lam)
        if not (self.domain_lo <= lam <= self.domain_hi):
            raise ValueError("lambda %s outside curve domain" % lam)
        lo, hi = 0, len(self.pieces) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.pieces[mid].hi < lam:
                lo = mid + 1
            else:
                hi = mid
        return self.pieces[lo]


def lower_hull(lines):
    """(hull, xs): the lines of min_i (P_i + x*N_i) over all real x.

    `lines` are tuples (P, N, ...) of ints or Fractions. hull lists the lines
    on the envelope, slopes strictly descending; xs[j] = (num, den), den > 0,
    is where hull[j] and hull[j+1] cross, at x = num/den, strictly ascending.
    The sort is by slope descending, then P, and stable, so among lines of
    one slope the least P stays, the earliest in input order on ties; a line
    active at one point at most is dropped. Crossings are left unreduced and
    compared by cross-multiplication, so the hull is exact.
    """
    hull = []
    xs = []
    for line in sorted(lines, key=lambda t: (-t[1], t[0])):
        P, N = line[0], line[1]
        if hull and hull[-1][1] == N:
            continue  # same slope, larger P or later
        while hull:
            num, den = P - hull[-1][0], hull[-1][1] - N
            if xs and num * xs[-1][1] <= xs[-1][0] * den:
                hull.pop()
                xs.pop()
                continue
            xs.append((num, den))
            break
        hull.append(line)
    return hull, xs


def envelope_of(lines, domain=(Fraction(0), Fraction(1)), tags=None) -> PwlCurve:
    """Exact lower envelope min_i (P_i + lam*N_i) over a closed rational domain.

    The pieces are those of `lower_hull` clipped to the domain, so ties
    prefer the earliest line in input order: duplicate (P, N) lines keep the
    first, and a line active only at a single point contributes no piece.
    """
    lo, hi = rat(domain[0]), rat(domain[1])
    if lo >= hi:
        raise ValueError("domain must have positive width")
    items = list(lines)
    if not items:
        raise ValueError("need at least one line")
    if tags is None:
        tags = range(len(items))
    elif len(tags) != len(items):
        raise ValueError("%d tags for %d lines" % (len(tags), len(items)))

    hull, xs = lower_hull([(ln.P, ln.N, ln, tag) for ln, tag in zip(items, tags)])
    cuts = [lo] + [min(max(Fraction(num, den), lo), hi) for num, den in xs] + [hi]
    # xs ascends, so the clipped hull pieces tile [lo, hi] (positive width)
    pieces = [PwlPiece(line, a, b, tag)
              for (_, _, line, tag), a, b in zip(hull, cuts, cuts[1:]) if a < b]
    return PwlCurve(tuple(pieces), lo, hi)
