"""Brute-force ground truth on small graphs.

Enumerates all set partitions (restricted-growth strings, Knuth TAOCP 4A
7.2.1.5), builds the exact OPT(lam) lower envelope on [0, 1] with one
representative clustering per piece, and computes the scaled sparsest cut

    lam* = min_S cut(S) / (|S| |S~|)

below which the single cluster is optimal. Everything here is exponential and
capped at n <= PARTITION_CAP nodes.

`exact_opt_curve` does not score partitions one by one: it walks the tree of
restricted-growth strings depth first, in the same lexicographic order as
`_iter_rgs`, and carries the cut and the co-clustered pair count down the
walk, so each partition costs one step at its last node. Per pair count N it
keeps the least cut, replaced only by a strictly smaller one, so the
representative of N is the first partition in enumeration order with that
cut. `enumerate_partitions` is the brute-force ground truth it is tested
against.
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
    """(PwlCurve of OPT(lam) on [0, 1], family of representative clusterings).

    A depth-first walk over the restricted-growth strings places nodes
    0, 1, ... in turn, trying clusters 0..k in increasing order, so it meets
    the partitions in the order of `_iter_rgs`, which is the lexicographic
    order of their labels. The cut P and the co-clustered pair count N ride
    down the walk: node i in cluster c adds |back[i]| - cnt[c] to P
    (back[i]: i's neighbours below i, cnt[c]: how many of them are in c, counted
    once per tree node) and sizes[c] to N; the last node scores all of its
    choices in one loop. Per N we keep the least P, replaced only by a
    strictly smaller one, so each N's representative is the first partition
    with that least P. The exact lower envelope of these at most C(n,2)+1
    lines, taken in enumeration order, gives the curve; family[i] realizes
    pieces[i].
    """
    if g.n > PARTITION_CAP:
        raise ValueError("n=%d exceeds enumeration cap %d" % (g.n, PARTITION_CAP))
    n = g.n
    back = [[] for _ in range(n)]
    for u, v in g.edges:
        back[v].append(u)
    a = [0] * n
    sizes = [0] * n
    best = [g.m + 1] * (n * (n - 1) // 2 + 1)  # least P per N; m + 1 = none yet
    reps = {}  # N -> labels of its first partition with P = best[N]

    def place(i, k, cut, pairs):
        # nodes 0..i-1 are placed in clusters 0..k-1, with this cut and N
        cnt = [0] * (k + 1)
        for u in back[i]:
            cnt[a[u]] += 1
        cut += len(back[i])
        if i == n - 1:
            for c in range(k + 1):
                p = cut - cnt[c]
                nn = pairs + sizes[c]
                if p < best[nn]:
                    best[nn] = p
                    a[i] = c
                    reps[nn] = tuple(a)
            return
        for c in range(k + 1):
            a[i] = c
            s = sizes[c]
            sizes[c] = s + 1
            place(i + 1, k + (c == k), cut - cnt[c], pairs + s)
            sizes[c] = s

    place(0, 0, 0, 0)
    entries = sorted((rgs, nn) for nn, rgs in reps.items())  # enumeration order
    lines = [CostLine(Fraction(best[nn]), Fraction(nn)) for _, nn in entries]
    clusterings = [Clustering(rgs) for rgs, _ in entries]
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
