"""Brute-force ground truth on small graphs.

Enumerates all set partitions (restricted-growth strings), builds the exact
OPT(lam) lower envelope with one representative clustering per piece, and
computes the scaled sparsest cut

    lam* = min_S cut(S) / (|S| |S~|)

below which the single cluster is optimal. Everything here is exponential and
capped at n <= PARTITION_CAP nodes.
"""
from __future__ import annotations

from fractions import Fraction

from .curves import PwlCurve, envelope_of
from .graphs import Graph
from .objectives import Clustering, CostLine

PARTITION_CAP = 12  # Bell(12) ~ 4.2e6


def _iter_rgs(n: int):
    """Yield every restricted-growth string of length n, lexicographically.

    a[0] = 0 and a[i] <= 1 + max(a[0..i-1]); one string per set partition.
    The yielded list is reused between steps — copy before storing.
    """
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[0..i-1])
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = max(b[j - 1], a[j - 1] + 1)


def enumerate_partitions(g: Graph, n_max: int = PARTITION_CAP):
    """Every partition of g's nodes exactly once, deterministic order."""
    if g.n > n_max:
        raise ValueError("n=%d exceeds enumeration cap %d" % (g.n, n_max))
    for rgs in _iter_rgs(g.n):
        yield Clustering(tuple(rgs))


def exact_opt_curve(g: Graph):
    """(PwlCurve of OPT(lam) on (0,1), family of representative clusterings).

    The envelope is built incrementally: per negative-mass N we keep only the
    best (lowest-P, earliest-enumerated) line, at most C(n,2)+1 candidates,
    then take their exact lower envelope. family[i] realizes pieces[i].
    """
    if g.n > PARTITION_CAP:
        raise ValueError("n=%d exceeds enumeration cap %d" % (g.n, PARTITION_CAP))
    n = g.n
    edges = sorted(g.edges)
    # best[N] = (P, order_index, rgs copy)
    best = {}
    order = 0
    for rgs in _iter_rgs(n):
        cut = 0
        for u, v in edges:
            if rgs[u] != rgs[v]:
                cut += 1
        sizes = [0] * n
        for a in rgs:
            sizes[a] += 1
        npairs = sum(s * (s - 1) // 2 for s in sizes if s > 1)
        cur = best.get(npairs)
        if cur is None or cut < cur[0]:
            best[npairs] = (cut, order, list(rgs))
        order += 1
    entries = sorted(best.items(), key=lambda kv: kv[1][1])  # enumeration order
    lines = [CostLine(Fraction(p), Fraction(nn)) for nn, (p, _, _) in entries]
    clusterings = [Clustering(tuple(rgs)) for _, (_, _, rgs) in entries]
    curve = envelope_of(lines, domain=(Fraction(0), Fraction(1)), tags=clusterings)
    family = [piece.tag for piece in curve.pieces]
    return curve, family


def scaled_sparsest_cut(g: Graph):
    """(lam*, argmin node set S). Exhaustive over 2^(n-1)-1 bipartitions."""
    if g.n > PARTITION_CAP:
        raise ValueError("n=%d exceeds enumeration cap %d" % (g.n, PARTITION_CAP))
    if g.n < 2:
        raise ValueError("sparsest cut needs at least 2 nodes")
    n = g.n
    edge_masks = [(1 << u) | (1 << v) for u, v in sorted(g.edges)]
    best = None
    best_set = None
    # fix node 0 inside S to visit each bipartition once
    for mask in range(1, 1 << (n - 1)):
        s_mask = (mask << 1) | 1
        size = s_mask.bit_count()
        if size == n:
            continue
        cut = 0
        for em in edge_masks:
            inter = em & s_mask
            if inter != 0 and inter != em:
                cut += 1
        val = Fraction(cut, size * (n - size))
        if best is None or val < best:
            best = val
            best_set = s_mask
    assert best_set is not None
    s_nodes = frozenset(i for i in range(n) if best_set >> i & 1)
    return best, s_nodes
