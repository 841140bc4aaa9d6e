"""Round fractional LP solutions to clusterings by deterministic region growing.

The LP values x_ij form a metric of "how separated" two nodes are. Region
growing repeatedly picks the lowest-index unclustered node as pivot, sweeps
candidate ball radii r < 1/2 around it in the metric, and cuts the ball whose
boundary is cheapest relative to the LP volume it encloses. The seed term
value/n in the volume keeps early balls from being judged on an empty
denominator and is what yields the usual O(log n) cut guarantee.

Everything is deterministic: ties in the radius sweep go to the smaller
radius, pivots are chosen by index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .lp import LpSolution, check_solution, pair_index
from .objectives import Clustering, lamprime_score, objective_shift
from .sweeps import CoverFamily

_HALF = Fraction(1, 2)


def round_region_growing(x: LpSolution, g: Graph) -> Clustering:
    """Cut cheapest-boundary balls in the LP metric until all nodes are placed."""
    check_solution(x, g)
    idx = pair_index(g.n)[1]
    seed = x.value / g.n
    edges = g.sorted_edges()
    unclustered = set(range(g.n))
    blocks = []
    while unclustered:
        pivot = min(unclustered)
        dist = {
            j: x.x[idx[(min(pivot, j), max(pivot, j))]]
            for j in unclustered
            if j != pivot
        }
        dist[pivot] = 0
        radii = sorted({d for d in dist.values() if d < _HALF})
        best = None
        for r in radii:
            ball = {j for j in unclustered if dist[j] <= r}
            cut = 0
            vol = seed
            for u, v in edges:
                if u in ball and v in ball:
                    vol += x.x[idx[(u, v)]]
                elif u in ball and v in unclustered:
                    cut += 1
                    vol += r - dist[u]
                elif v in ball and u in unclustered:
                    cut += 1
                    vol += r - dist[v]
            if vol != 0:
                ratio = cut / vol
            else:
                ratio = math.inf if cut else Fraction(0)
            # strict < keeps the smallest radius on ties
            if best is None or ratio < best[0]:
                best = (ratio, ball)
        blocks.append(sorted(best[1]))
        unclustered -= best[1]
    return Clustering.from_blocks(blocks, g.n)


@dataclass(frozen=True)
class RoundedMember:
    """One rounded cover member with its quality diagnostics at the solve point."""

    clustering: Clustering
    interval: object  # LambdaInterval carried over from the cover
    lam: object
    score: object
    lp_value: object
    ratio: object


def build_clustering_family(cover: CoverFamily, g: Graph) -> list:
    """Round every cover member; report score/LP ratios at the solve points."""
    shift = objective_shift(cover.objective, g.m)
    out = []
    for mem in cover.members:
        sol = mem.solution
        c = round_region_growing(sol, g)
        score = lamprime_score(c, g, sol.lam) - sol.lam * shift
        lpv = sol.value - sol.lam * shift
        if lpv == 0:
            ratio = Fraction(1) if score == 0 else math.inf
        else:
            ratio = score / lpv
        out.append(RoundedMember(c, mem.interval, sol.lam, score, lpv, ratio))
    return out
