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
cut.

The walk is a branch and bound with Russian-doll suffix bounds (Verfaillie,
Lemaitre & Schiex, AAAI 1996). Each node has a concave lower bound f on the
lines of the partitions below it, made of the placed part and of OPT on the
unplaced suffix, which the same walk finds first on the suffixes n-3, ..., 2
(no walk reads OPT of 1..n-1; see `_walk`). A node is cut when f >= E, the
envelope of the lines found so far, at x = 0, at x = 1 and at every
breakpoint of E between; E is linear between those points, so f >= E on all
of [0, 1]. A line cut that way can be a piece of the final envelope only
where it equals E on an interval, that is, only if it is a line found earlier
in enumeration order, whose representative stays.

The walk also breaks twin symmetry. Nodes t < i with N(t) - {i} = N(i) - {t}
can swap without changing any cut or pair count, so the walk places each
twin class in nondecreasing cluster order: node i tries only the clusters
from that of its nearest earlier twin on. A partition it skips has the same
line as its swap, which comes earlier in enumeration order. So the pieces,
lines and representatives are those of the full enumeration.
`enumerate_partitions` is the brute-force ground truth it is tested against.
"""
from __future__ import annotations

from fractions import Fraction

from .curves import envelope_of, lower_hull
from .graphs import Graph
from .objectives import Clustering, CostLine

# Bell(12) ~ 4.2e6 partitions. That bounds the walk of exact_opt_curve but is
# not its cost: with its bound and its twin rule the top walk scores 3600 of
# them on a G(12, 1/2), 592 on star12 and 7034 on K6,6. The cap also guards
# enumerate_partitions and scaled_sparsest_cut, which visit every partition or
# bipartition.
PARTITION_CAP = 12


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


def _envelope_points(lines):
    """Checkpoints of the lower envelope E of integer lines (P, N) on [0, 1].

    A list of (p, q, e) with q > 0, ascending in x = p/q: x = 0, every
    breakpoint of E strictly inside (0, 1), then x = 1; e = q * E(x). E is
    linear between consecutive points, so a concave function that is at least
    E at every point is at least E on all of [0, 1]. Integers only: the
    crossings of `lower_hull` are kept unreduced.
    """
    return _checkpoints(*lower_hull(lines))


def _checkpoints(hull, xs):
    """`_envelope_points` of the lines whose `lower_hull` is (hull, xs)."""
    pts = [(0, 1, min(P for P, _ in hull))]
    pts += [(num, den, P * den + N * num)
            for (P, N), (num, den) in zip(hull, xs) if 0 < num < den]
    pts.append((1, 1, min(P + N for P, N in hull)))
    return pts


def _twins(fwd, back):
    """twin[i]: the nearest t < i with N(t) - {i} == N(i) - {t}, else -1.

    Swapping such t and i maps the graph onto itself. All leaves of a star
    are twins, and so are the nodes of a clique or isolated nodes.
    """
    nbrs = [set(f).union(b) for f, b in zip(fwd, back)]
    twin = [-1] * len(nbrs)
    for i in range(len(nbrs)):
        for t in range(i - 1, -1, -1):
            if nbrs[t] - {i} == nbrs[i] - {t}:
                twin[i] = t
                break
    return twin


def _walk(fwd, back, twin, s, opt, reps=None):
    """Lines (P, N): the least cut per pair count over partitions of s..n-1.

    The walk of `exact_opt_curve` on the subgraph induced by s..n-1, as a
    branch and bound. Per N found, P is the least cut among the partitions
    the walk visits, and every line of the envelope is among them. With
    `reps` (s = 0 only) it records, per improved N, the labels of the
    partition; without, it finds values only and starts from the lines of
    partitions it has not visited, which are not first in enumeration order:
    the singleton line (m, 0), and node s alone beside each line (P, N) of
    opt[s+1], that is (P + |fwd[s]|, N). Each is the line of a partition of
    s..n-1, so E stays above OPT, nothing below OPT is cut, and the lines
    found have OPT as their envelope on [0, 1]; a lower E from the start
    only cuts more. The walk above reads opt[s] only through its minima,
    which are OPT, so its cuts do not change.

    Suffix walks run for s = n-3 down to 2 only. Walk s bounds nodes i > s,
    and the top walk reaches node 1 once, before any leaf, while E is still
    empty: no walk reads opt[1].

    At a node where s..i-1 are placed and at least three nodes remain, every
    completion costs at least

        f(x) = cut + x*pairs + sum_{j >= i} (b_j - gain_j(x)) + opt[i](x),
        gain_j(x) = max(0, max_c (cnt_j[c] - x*sizes[c])),

    where b_j and cnt_j[c] count j's placed neighbours in all and in cluster
    c: j pays its placed edges, less those into the cluster it joins, plus x
    per placed node there, and the pairs and cuts among i..n-1 cost at least
    their own OPT, opt[i]. f is concave and the envelope E of the lines found
    so far is linear between its checkpoints, so f >= E at every checkpoint
    means every line below the node is >= E on [0, 1], and the node is cut.
    With fewer than three nodes to go the leaf loop costs less than the bound.

    E is kept as its hull lines, the lines of `lower_hull`. A leaf that
    lowers the least cut at N and dips below E at a checkpoint rebuilds E
    from the hull plus the new line; `lower_hull` drops the old line at N,
    parallel to it and above. A line off the hull lies above E; the new line
    lies below the old line at N and, where it does not dip, above E on
    [0, 1]. So the lines left out never reach E on [0, 1], and the
    checkpoints are those of every line found so far.

    Twin symmetry is pruned too: with t = twin[i] among s..i-1, node i tries
    only the clusters c >= a[t]. A partition with a[i] < a[t] has the same
    (P, N) as the one with t and i swapped, since the swap is an automorphism.
    The swapped partition comes earlier in enumeration order: they agree
    before t, and at t it has the label a[i] < a[t], which an earlier node
    already holds. So the walk has already found that line, or the bound has
    already cut it as >= E; either way the pruned partition is never the
    first with its least cut at N and never lowers E. So E before each
    visited node, the cuts, and every piece, line and representative stay
    those of the walk without the rule. The suffix walks use the same twins:
    twins in the graph stay twins in every induced subgraph that holds both.
    """
    n = len(fwd)
    last = n - 1
    cnt = [[0] * n for _ in range(n)]  # cnt[j][c]: j's placed neighbours in c
    b = [sum(1 for u in back[i] if u >= s) for i in range(n)]
    m = sum(b)
    cross = [0] * (n + 1)  # cross[i]: edges from s..i-1 to i..n-1
    for i in range(s, n):
        cross[i + 1] = cross[i] - b[i] + len(fwd[i])
    rows = [[cnt[j] for j in range(i, n) if any(s <= u < i for u in back[j])]
            for i in range(n)]
    frows = [[cnt[j] for j in fwd[i]] for i in range(n)]
    a = [0] * n
    sizes = [0] * n
    best = [m + 1] * ((n - s) * (n - s - 1) // 2 + 1)
    hull = []  # E's lines: the lower hull of the lines found so far
    env = []  # E's checkpoints, as _envelope_points gives them
    th = [None] * n  # th[i]: beaten's thresholds for node i, None when stale

    def rebuild(lines):
        hull[:], xs = lower_hull(lines)
        env[:] = _checkpoints(hull, xs)
        env.insert(0, env.pop())  # x = 1 first: cnt_j[c] <= sizes[c], no gains
        th[:] = [None] * n

    def beaten(i, k, base, pairs):
        # is f >= E at every checkpoint? (nodes s..i-1 in k clusters)
        ts = th[i]
        if ts is None:  # q*(E - opt[i]) at each checkpoint p/q
            ts = th[i] = [(p, q, e - min([P * q + N * p for P, N in opt[i]]))
                          for p, q, e in env]
        cr = cross[i]  # no sum of gains exceeds the placed edges of i..n-1
        joins = None  # per j >= i: (cnt_j[c], sizes[c]) where cnt_j[c] > 0
        for p, q, t in ts:
            slack = base * q + pairs * p - t
            if slack >= q * cr:
                continue
            if slack < 0:
                return False
            if joins is None:
                joins = [[(v, sizes[c]) for c, v in enumerate(r[:k]) if v]
                         for r in rows[i]]
            for js in joins:
                gain = 0
                for v, z in js:
                    d = v * q - p * z
                    if d > gain:
                        gain = d
                slack -= gain
                if slack < 0:
                    return False
        return True

    def place(i, k, cut, pairs):
        # nodes s..i-1 are placed in clusters 0..k-1, with this cut and N
        ci = cnt[i]
        t = twin[i]
        lo = a[t] if t >= s else 0  # twins go in nondecreasing clusters
        if i == last:
            cut += b[i]
            for c in range(lo, k + 1):
                p = cut - ci[c]
                nn = pairs + sizes[c]
                if p < best[nn]:
                    best[nn] = p
                    if reps is not None:
                        a[i] = c
                        reps[nn] = tuple(a)
                    if not env or any([p * den + nn * num < e
                                       for num, den, e in env]):
                        rebuild(hull + [(p, nn)])
            return
        if env and s < i < n - 2 and beaten(i, k, cut + cross[i], pairs):
            return
        cut += b[i]
        fr = frows[i]
        for c in range(lo, k + 1):
            a[i] = c
            for r in fr:
                r[c] += 1
            z = sizes[c]
            sizes[c] = z + 1
            place(i + 1, k + (c == k), cut - ci[c], pairs + z)
            sizes[c] = z
            for r in fr:
                r[c] -= 1

    if reps is None:
        best[0] = m
        for P, N in opt[s + 1]:  # node s alone beside the next suffix's lines
            best[N] = min(best[N], P + len(fwd[s]))
        rebuild([(P, N) for N, P in enumerate(best) if P <= m])
    place(s, 0, 0, 0)
    return [(P, N) for N, P in enumerate(best) if P <= m]


def exact_opt_curve(g: Graph):
    """(PwlCurve of OPT(lam) on [0, 1], family of representative clusterings).

    A depth-first walk over the restricted-growth strings places nodes
    0, 1, ... in turn, trying clusters 0..k in increasing order, so it meets
    the partitions in the order of `_iter_rgs`, which is the lexicographic
    order of their labels. The cut P and the co-clustered pair count N ride
    down the walk: node i in cluster c adds |back[i]| - cnt[c] to P
    (back[i]: i's neighbours below i, cnt[c]: how many of them are in c, kept
    per node as neighbours are placed and undone) and sizes[c] to N; the last
    node scores all of its choices in one loop. Per N we keep the least P,
    replaced only by a strictly smaller one, so each N's representative is
    the first partition with that least P. The exact lower envelope of these
    at most C(n,2)+1 lines, one per N, gives the curve; family[i] realizes
    pieces[i].

    The walk skips every subtree whose lower bound is at least the envelope
    of the lines found before it, checked at the envelope's breakpoints, and
    every subtree that puts a node in a lower cluster than its nearest
    earlier twin (see `_walk` and the module notes): a skipped partition can
    only repeat an earlier line, so no piece, line or representative changes.
    The bound needs OPT of each suffix i..n-1, got from the same walk, values
    only, on i = n-3 down to 2, each seeded with the lines of the next (see
    `_walk`). The clusterings are built for the hull lines only.
    """
    if g.n > PARTITION_CAP:
        raise ValueError("n=%d exceeds enumeration cap %d" % (g.n, PARTITION_CAP))
    n = g.n
    fwd = [[] for _ in range(n)]
    back = [[] for _ in range(n)]
    for u, v in g.edges:
        fwd[u].append(v)
        back[v].append(u)
    opt = [()] * n  # opt[i]: lines whose minimum is OPT on the nodes i..n-1
    twin = _twins(fwd, back)
    for s in range(n - 3, 1, -1):  # opt[1] would go unread
        opt[s] = _walk(fwd, back, twin, s, opt)
    reps = {}  # N -> labels of the first partition with the least cut at N
    hull, _ = lower_hull(_walk(fwd, back, twin, 0, opt, reps))
    curve = envelope_of([CostLine(Fraction(P), Fraction(N)) for P, N in hull],
                        tags=[Clustering(reps[N]) for _, N in hull])
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
