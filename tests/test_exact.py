from collections import Counter
from fractions import Fraction

import pytest

from lambdaprime import exact
from lambdaprime.curves import envelope_of, lower_hull
from lambdaprime.exact import (
    _checkpoints, _envelope_points, _twins, enumerate_partitions,
    exact_opt_curve, scaled_sparsest_cut,
)
from lambdaprime.graphs import (
    gen_gnp, gen_path, gen_ring, gen_star, is_connected, make_graph,
)
from lambdaprime.objectives import Clustering, CostLine, lamprime_score

L = Fraction


def bell(n):
    # Bell-number recurrence via the Bell triangle
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


@pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (4, 15), (6, 203)])
def test_partition_counts(n, count):
    g = make_graph(n, []) if n > 1 else make_graph(1, [])
    parts = list(enumerate_partitions(g))
    assert len(parts) == count == bell(n)
    assert len(set(parts)) == count  # no duplicates
    assert parts[0] == Clustering((0,) * n)  # single cluster first


def test_partition_count_n10_matches_recurrence():
    g = make_graph(10, [])
    assert sum(1 for _ in enumerate_partitions(g)) == bell(10) == 115975


def test_partition_cap():
    g = make_graph(5, [])
    with pytest.raises(ValueError):
        list(enumerate_partitions(g, n_max=4))


def test_sparsest_cut_ring():
    lam, s = scaled_sparsest_cut(gen_ring(3))
    assert lam == L(2, 16) == L(1, 8)
    assert len(s) in (4,)  # balanced split of the 8-ring


def test_sparsest_cut_star():
    for n in range(3, 9):
        lam, s = scaled_sparsest_cut(gen_star(n))
        assert lam == L(1, n - 1)


def test_sparsest_cut_complete_k4():
    g = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    lam, _ = scaled_sparsest_cut(g)
    assert lam == L(1)


def test_sparsest_cut_disconnected_zero():
    g = make_graph(4, [(0, 1), (2, 3)])
    lam, s = scaled_sparsest_cut(g)
    assert lam == L(0)


def test_star5_family():
    g = gen_star(5)
    curve, family = exact_opt_curve(g)
    assert len(family) == 4  # n-1
    sizes = [sorted(map(len, c.blocks()), reverse=True) for c in family]
    assert sizes == [[5], [4, 1], [3, 1, 1], [2, 1, 1, 1]]
    # center always in the big cluster
    for c in family:
        big = max(c.blocks(), key=len)
        assert 0 in big
    assert curve.breakpoints == [L(1, 4), L(1, 3), L(1, 2)]
    assert curve.value_at(L(3, 10)) == L(14, 5)  # 2.8 at lam=0.3


def test_ring8_special_lambda():
    g = gen_ring(3)
    curve, family = exact_opt_curve(g)
    assert curve.value_at(L(1, 8)) == L(7, 2)
    # blocks of 4 achieve the optimum at lam = 1/8
    c = Clustering.from_blocks([[0, 1, 2, 3], [4, 5, 6, 7]])
    assert lamprime_score(c, g, L(1, 8)) == L(7, 2)
    assert curve.breakpoints[0] == L(1, 8)


def test_sparsest_cut_can_be_node_zero_alone():
    # K3 on {1, 2, 3} plus the edge 0-1: only S = {0} reaches 1/3
    g = make_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    assert scaled_sparsest_cut(g) == (L(1, 3), frozenset({0}))
    assert scaled_sparsest_cut(make_graph(2, [(0, 1)])) == (L(1), frozenset({0}))
    assert scaled_sparsest_cut(make_graph(2, [])) == (L(0), frozenset({0}))


def test_first_breakpoint_is_sparsest_cut():
    graphs = [gen_ring(3), gen_star(6), gen_path(6), gen_gnp(7, 0.5, seed=4),
              make_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])]
    # seeded draws, some of whose sparsest cuts split node 0 off alone
    graphs += [g for n in range(3, 9) for seed in range(40)
               if is_connected(g := gen_gnp(n, 0.5, seed=seed))]
    for g in graphs:
        lam_star, _ = scaled_sparsest_cut(g)
        curve, family = exact_opt_curve(g)
        if curve.breakpoints:
            assert curve.breakpoints[0] == lam_star, g
        else:
            assert lam_star >= 1
        # single cluster is the first representative on connected graphs
        assert family[0].num_clusters == 1


def test_family_bound_and_monotone_lines():
    import random

    rng = random.Random(5)
    for _ in range(12):
        n = rng.randrange(4, 8)
        g = gen_gnp(n, 0.55, seed=rng.randrange(10**6))
        if g.m == 0:
            continue
        curve, family = exact_opt_curve(g)
        c_mistakes = curve.pieces[-1].line.P
        assert len(family) <= c_mistakes + 1 <= g.m or c_mistakes == 0
        ps = [p.line.P for p in curve.pieces]
        ns = [p.line.N for p in curve.pieces]
        assert ps == sorted(ps) and len(set(ps)) == len(ps)
        assert ns == sorted(ns, reverse=True) and len(set(ns)) == len(ns)


def test_last_piece_cliques_beyond_m_over_m_plus_1():
    for g in [gen_star(5), gen_path(5), gen_ring(2), gen_gnp(6, 0.5, seed=8)]:
        if g.m == 0:
            continue
        curve, family = exact_opt_curve(g)
        threshold = L(g.m, g.m + 1)
        assert curve.pieces[-1].hi == 1
        assert curve.pieces[-1].lo <= threshold
        last = family[-1]
        for block in last.blocks():
            for i, u in enumerate(block):
                for v in block[i + 1 :]:
                    assert g.has_edge(u, v), (g, block)


def test_complete_graph_single_piece():
    g = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    curve, family = exact_opt_curve(g)
    assert len(family) == 1
    assert family[0].num_clusters == 1


def test_exact_curve_matches_direct_minimum():
    import random

    rng = random.Random(17)
    for _ in range(6):
        n = rng.randrange(4, 7)
        g = gen_gnp(n, 0.6, seed=rng.randrange(10**6))
        curve, _ = exact_opt_curve(g)
        for _ in range(15):
            lam = L(rng.randrange(1, 100), 100)
            best = min(
                lamprime_score(c, g, lam) for c in enumerate_partitions(g)
            )
            assert curve.value_at(lam) == best


def brute_best(g):
    """N -> (least cut P, enumeration index, clustering), the first with P.

    Every partition in `enumerate_partitions` order, its cut and co-clustered
    pair count recomputed from scratch.
    """
    best = {}
    for order, c in enumerate(enumerate_partitions(g)):
        a = c.assignment
        cut = sum(1 for u, v in g.edges if a[u] != a[v])
        npairs = sum(s * (s - 1) // 2 for s in Counter(a).values())
        if npairs not in best or cut < best[npairs][0]:
            best[npairs] = (cut, order, c)
    return best


def brute_opt_curve(g):
    """The OPT curve by the per-partition loop, the oracle for the walk.

    Per N the least P of `brute_best`, the first in enumeration order among
    equals; the lines go to the envelope in the enumeration order of their
    representatives.
    """
    best = brute_best(g)
    entries = sorted((order, L(p), L(nn), c) for nn, (p, order, c) in best.items())
    lines = [CostLine(p, nn) for _, p, nn, _ in entries]
    curve = envelope_of(lines, domain=(L(0), L(1)), tags=[c for *_, c in entries])
    return curve, [piece.tag for piece in curve.pieces]


def assert_matches_brute_force(g):
    curve, family = exact_opt_curve(g)
    want, want_family = brute_opt_curve(g)
    got = [(p.lo, p.hi, p.line, p.tag) for p in curve.pieces]
    assert got == [(p.lo, p.hi, p.line, p.tag) for p in want.pieces], g
    assert family == want_family, g


@pytest.mark.parametrize(
    "g",
    [make_graph(1, []), make_graph(2, []), make_graph(2, [(0, 1)]),
     gen_ring(3), gen_star(9), gen_path(9)],
    ids=["n1", "n2_empty", "n2_edge", "ring8", "star9", "path9"],
)
def test_walk_matches_brute_force_named(g):
    assert_matches_brute_force(g)


def test_walk_matches_brute_force_gnp():
    # 96 seeded G(n, p): n = 2..9, p in {0.2, 0.4, 0.6, 0.9}, three seeds each
    for n in range(2, 10):
        for p in (0.2, 0.4, 0.6, 0.9):
            for seed in range(3):
                assert_matches_brute_force(gen_gnp(n, p, seed=100 * n + seed))


def complete_bipartite(a, b):
    return make_graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def complete_multipartite(*sizes):
    parts, first = [], 0
    for z in sizes:
        parts.append(range(first, first + z))
        first += z
    return make_graph(first, [(u, v) for i, a in enumerate(parts)
                              for b in parts[i + 1:] for u in a for v in b])


def clique_edges(nodes):
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]


def twin_pairs():
    # a 4-cycle of pairs {2t, 2t+1}: both nodes of a pair have the same
    # neighbours outside it; pairs 0 and 2 are joined inside, 1 and 3 not
    edges = [(2 * t, 2 * t + 1) for t in (0, 2)]
    for t in range(4):
        u = (t + 1) % 4
        edges += [(2 * t + x, 2 * u + y) for x in (0, 1) for y in (0, 1)]
    return make_graph(8, [(min(e), max(e)) for e in edges])


# graphs with many partitions per line: the bound prunes at f = E, so only
# the first-in-order rule keeps each piece's representative; in the twin-rich
# ones most partitions are also pruned as twin swaps of earlier ones
TIE_GRAPHS = [complete_bipartite(3, 4), complete_bipartite(4, 4),
     make_graph(8, clique_edges(range(4)) + clique_edges(range(4, 8)) + [(3, 4)]),
     make_graph(8, clique_edges(range(5))),
     make_graph(8, []), make_graph(8, clique_edges(range(8))),
     make_graph(9, [(0, i) for i in range(1, 9)] + [(3, 7)]),
     make_graph(8, [(i, 7) for i in range(7)]),
     twin_pairs(),
     complete_multipartite(2, 3, 3),
     # leaves 1..8 of hub 0, with the pendant pairs 2-5 and 4-7 joined
     make_graph(9, [(0, i) for i in range(1, 9)] + [(2, 5), (4, 7)]),
     # true twins (a K4 on the even nodes) and false twins (the odd nodes)
     make_graph(8, clique_edges(range(0, 8, 2))),
     # a broom: the path 0-1-2-3 with the leaves 4..8 on node 3
     make_graph(9, [(0, 1), (1, 2), (2, 3)] + [(3, i) for i in range(4, 9)])]
TIE_IDS = ["K3_4", "K4_4", "two_K4_bridged", "K5_3_isolated", "edgeless8", "K8",
           "star9_leaf_edge", "star8_hub_last", "twin_pairs", "K2_3_3",
           "star_pendant_pairs", "K4_4_isolated", "broom9"]


@pytest.mark.parametrize("g", TIE_GRAPHS, ids=TIE_IDS)
def test_walk_matches_brute_force_ties(g):
    assert_matches_brute_force(g)


def spy_walks(monkeypatch, g):
    """exact_opt_curve(g) with every `_walk` call logged as (s, its lines)."""
    calls = []
    walk = exact._walk

    def spy(fwd, back, twin, s, opt, reps=None):
        lines = walk(fwd, back, twin, s, opt, reps)
        calls.append((s, lines))
        return lines

    monkeypatch.setattr(exact, "_walk", spy)
    exact_opt_curve(g)
    return calls


@pytest.mark.parametrize(
    "g,want",
    [(gen_gnp(10, L(1, 2), seed=3), [7, 6, 5, 4, 3, 2, 0]),
     (gen_gnp(5, L(1, 2), seed=3), [2, 0]),
     (make_graph(1, []), [0]), (make_graph(2, [(0, 1)]), [0]),
     (gen_path(3), [0]), (gen_ring(2), [0])],
    ids=["gnp10", "gnp5", "n1", "n2", "path3", "ring4"],
)
def test_walk_starts(monkeypatch, g, want):
    # no suffix walk for node 1: the top walk reaches it once, before any
    # leaf, and the suffix walk s bounds only nodes after s
    assert [s for s, _ in spy_walks(monkeypatch, g)] == want


def assert_suffix_walks_are_opt(monkeypatch, g):
    # each seeded values-only walk s has OPT of the subgraph on s..n-1 as the
    # lower envelope of its lines on [0, 1]
    for s, lines in spy_walks(monkeypatch, g):
        if s:
            sub = make_graph(g.n - s, [(u - s, v - s) for u, v in g.edges if u >= s])
            want = [(P, N) for N, (P, _, _) in brute_best(sub).items()]
            assert _envelope_points(lines) == _envelope_points(want), (g, s)


def test_suffix_walks_match_brute_force_gnp(monkeypatch):
    for n in range(2, 10):
        for p in (0.2, 0.4, 0.6, 0.9):
            for seed in range(3):
                assert_suffix_walks_are_opt(monkeypatch, gen_gnp(n, p, seed=100 * n + seed))


@pytest.mark.parametrize("g", TIE_GRAPHS, ids=TIE_IDS)
def test_suffix_walks_match_brute_force_ties(monkeypatch, g):
    assert_suffix_walks_are_opt(monkeypatch, g)


def twin_list(g):
    fwd = [[] for _ in range(g.n)]
    back = [[] for _ in range(g.n)]
    for u, v in g.edges:
        fwd[u].append(v)
        back[v].append(u)
    return _twins(fwd, back)


@pytest.mark.parametrize(
    "g,want",
    [(gen_star(6), [-1, -1, 1, 2, 3, 4]),
     (make_graph(5, clique_edges(range(5))), [-1, 0, 1, 2, 3]),
     (gen_path(5), [-1] * 5),
     (complete_bipartite(3, 3), [-1, 0, 1, -1, 3, 4])],
    ids=["star6", "K5", "path5", "K3_3"],
)
def test_twins_nearest_earlier(g, want):
    assert twin_list(g) == want


def assert_checkpoints_match_envelope(lines):
    pts = _envelope_points(lines)
    curve = envelope_of([CostLine(L(P), L(N)) for P, N in lines])
    xs = [curve.domain_lo] + [piece.hi for piece in curve.pieces]
    assert all(q > 0 for _, q, _ in pts), lines
    assert [L(p, q) for p, q, _ in pts] == xs, lines
    assert [L(e, q) for _, q, e in pts] == [curve.value_at(x) for x in xs], lines


@pytest.mark.parametrize(
    "lines",
    [[(3, 2)],
     [(1, 4), (0, 4), (2, 1), (2, 1), (5, 1)],  # duplicate slopes and lines
     [(0, 4), (1, 2), (2, 0)],  # three lines through (1/2, 2)
     [(0, 4), (1, 2), (2, 0), (1, 3), (3, 0)],
     [(3, 4), (1, 2)],  # crossing at x = -1
     [(1, 2), (3, 1)],  # crossing at x = 2
     [(0, 3), (0, 1)],  # crossing at x = 0
     [(1, 3), (3, 1)],  # crossing at x = 1
     [(0, 6), (9, 0), (1, 4), (2, 3), (5, 1), (4, 2)]],
    ids=["single", "duplicate_slopes", "three_concurrent", "concurrent_and_more",
         "cross_below_0", "cross_above_1", "cross_at_0", "cross_at_1", "six_lines"],
)
def test_envelope_points_named(lines):
    assert_checkpoints_match_envelope(lines)


def test_envelope_points_random():
    import random

    rng = random.Random(24)
    for _ in range(400):
        lines = [(rng.randrange(-3, 8), rng.randrange(0, 7))
                 for _ in range(rng.randrange(1, 9))]
        assert_checkpoints_match_envelope(lines)


@pytest.mark.parametrize("every", [True, False], ids=["every_line", "below_e_only"])
def test_kept_hull_random(every):
    # the walk's E: on a line that lowers its N's least cut, and (as in the
    # walk) only if it dips below E at a checkpoint, the hull is rebuilt from
    # the kept hull plus the new line; lines off the hull stay above E, so
    # the checkpoints are those of every line so far
    import random

    rng = random.Random(28)
    for _ in range(300):
        best, hull, pts = {}, [], None
        for _ in range(rng.randrange(1, 16)):
            P, N = rng.randrange(-3, 12), rng.randrange(0, 9)
            if N in best and best[N] <= P:
                continue
            best[N] = P
            if every or pts is None or any(P * q + N * p < e for p, q, e in pts):
                hull, xs = lower_hull(hull + [(P, N)])
                pts = _checkpoints(hull, xs)
            assert pts == _envelope_points([(P, N) for N, P in best.items()]), best


def test_walk_gnp12_pinned():
    # the walk's curve on a connected G(12, 1/2); test_walk_matches_brute_force_gnp12
    # (slow) checks the same graph against the per-partition loop
    g = gen_gnp(12, L(1, 2), seed=0)
    curve, family = exact_opt_curve(g)
    got = [(p.lo, p.hi, p.line.P, p.line.N) for p in curve.pieces]
    assert got == [
        (L(0), L(2, 11), 0, 66), (L(2, 11), L(3, 16), 2, 55),
        (L(3, 16), L(1, 4), 5, 39), (L(1, 4), L(3, 10), 7, 31),
        (L(3, 10), L(2, 5), 10, 21), (L(2, 5), L(1, 2), 12, 16),
        (L(1, 2), L(1), 14, 12),
    ]
    assert [c.assignment for c in family] == [
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
        (0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 1, 1),
        (0, 1, 0, 1, 1, 2, 0, 0, 0, 2, 1, 1),
        (0, 0, 1, 0, 2, 3, 0, 1, 1, 0, 2, 2),
        (0, 1, 2, 0, 3, 4, 0, 2, 2, 0, 3, 3),
    ]
    assert [p.tag for p in curve.pieces] == family


def test_star12_at_the_cap():
    # criterion 02's block sizes at n = PARTITION_CAP = 12
    n = 12
    curve, family = exact_opt_curve(gen_star(n))
    assert len(curve.pieces) == len(family) == n - 1
    for j, c in enumerate(family):
        blocks = sorted(c.blocks(), key=len, reverse=True)
        assert len(blocks[0]) == n - j
        assert 0 in blocks[0]
        assert all(len(b) == 1 for b in blocks[1:])


@pytest.mark.slow
def test_walk_matches_brute_force_gnp12():
    g = gen_gnp(12, L(1, 2), seed=0)
    assert is_connected(g)
    assert_matches_brute_force(g)


@pytest.mark.slow
def test_walk_matches_brute_force_k66():
    # every node has five twins: K6,6 at the cap, as pruned by the twin rule
    assert_matches_brute_force(complete_bipartite(6, 6))
