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


def envelope_of(lines, domain=(Fraction(0), Fraction(1)), tags=None) -> PwlCurve:
    """Exact lower envelope min_i (P_i + lam*N_i) over a closed rational domain.

    Ties prefer the earliest line in input order: duplicate (P, N) lines keep
    the first, and a line active only at a single point contributes no piece.
    """
    lo, hi = rat(domain[0]), rat(domain[1])
    if lo >= hi:
        raise ValueError("domain must have positive width")
    items = list(lines)
    if not items:
        raise ValueError("need at least one line")
    if tags is None:
        tags = list(range(len(items)))

    # one candidate per slope: smallest P wins, earliest input index on ties;
    # scan order is slope descending (the active slope of a lower envelope of
    # lines decreases as lambda grows)
    order = sorted(range(len(items)), key=lambda i: (-items[i].N, items[i].P, i))
    cand = []
    for i in order:
        if cand and items[cand[-1]].N == items[i].N:
            continue
        cand.append(i)

    hull = []  # line indices on the envelope, slopes descending
    xs = []  # xs[j] = crossing of hull[j] and hull[j+1]
    for i in cand:
        while hull:
            x = items[hull[-1]].intersect(items[i])
            if xs and x <= xs[-1]:
                hull.pop()
                xs.pop()
                continue
            break
        if hull:
            xs.append(items[hull[-1]].intersect(items[i]))
        hull.append(i)

    pieces = []
    for j, idx in enumerate(hull):
        start = xs[j - 1] if j > 0 else None
        end = xs[j] if j < len(xs) else None
        p_lo = lo if start is None else max(start, lo)
        p_hi = hi if end is None else min(end, hi)
        if p_lo < p_hi:
            pieces.append(PwlPiece(items[idx], p_lo, p_hi, tags[idx]))
    # xs is strictly increasing, so the hull pieces tile the real line and
    # [lo, hi] (positive width) meets one of them in positive length
    return PwlCurve(tuple(pieces), lo, hi)
