"""Clustering objectives over a resolution parameter.

The primary score is

    lamprime(C, lam) = sum_S ( cut(S)/2 + lam * C(|S|,2) )

for a partition C, i.e. a penalty of 1 per cut edge plus lam per co-clustered
pair. Its sibling lamcc is lamprime - lam*m (see objective_shift): it charges
(1-lam) per cut edge and lam per co-clustered *non*-edge. Any fixed solution
(integral or fractional) reduces to a CostLine (P, N) whose value at lam is
P + lam*N, which is what all the sweep machinery manipulates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .rationals import rat


@dataclass(frozen=True)
class CostLine:
    """Objective of one fixed solution as a linear function of lam."""

    P: Fraction  # positive-mistake mass: sum of x over edges
    N: Fraction  # negative-mistake mass: sum of (1 - x) over all pairs

    def value_at(self, lam) -> Fraction:
        return self.P + rat(lam) * self.N


@dataclass(frozen=True)
class Clustering:
    """Partition of 0..n-1; assignment[i] is node i's cluster id.

    Ids are contiguous from 0 in order of first appearance, so equal
    partitions compare equal.
    """

    assignment: tuple

    def __post_init__(self):
        relabel = {}
        for a in self.assignment:
            if a not in relabel:
                relabel[a] = len(relabel)
        canon = tuple(relabel[a] for a in self.assignment)
        if canon != tuple(self.assignment):
            object.__setattr__(self, "assignment", canon)

    @classmethod
    def from_blocks(cls, blocks, n=None):
        label = {}
        for cid, block in enumerate(blocks):
            for node in block:
                if node in label:
                    raise ValueError("node %r in two blocks" % (node,))
                label[node] = cid
        if n is None:
            n = len(label)
        if sorted(label) != list(range(n)):
            raise ValueError("blocks do not partition 0..%d" % (n - 1))
        return cls(tuple(label[i] for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def num_clusters(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0

    def blocks(self) -> list:
        out = [[] for _ in range(self.num_clusters)]
        for node, cid in enumerate(self.assignment):
            out[cid].append(node)
        return out

    def together(self, u: int, v: int) -> bool:
        return self.assignment[u] == self.assignment[v]


def _check_partition(c: Clustering, g: Graph):
    if c.n != g.n:
        raise ValueError("clustering covers %d nodes, graph has %d" % (c.n, g.n))


def _check_lambda(lam) -> Fraction:
    lam = rat(lam)
    if not (0 < lam < 1):
        raise ValueError("lambda must lie in (0,1), got %s" % lam)
    return lam


def line_of(x, g: Graph) -> CostLine:
    """CostLine of a Clustering or of a fractional pair->value mapping.

    A clustering is the 0/1 case: x_uv = 0 iff u, v share a cluster.
    """
    if isinstance(x, Clustering):
        _check_partition(x, g)
        cut = sum(1 for u, v in g.edges if not x.together(u, v))
        together_pairs = sum(
            sz * (sz - 1) // 2 for sz in map(len, x.blocks())
        )
        return CostLine(Fraction(cut), Fraction(together_pairs))
    P = Fraction(0)
    N = Fraction(0)
    for u, v in g.pairs():
        val = rat(x[(u, v)])
        if not (0 <= val <= 1):
            raise ValueError("x[%r] = %s outside [0,1]" % ((u, v), val))
        if g.has_edge(u, v):
            P += val
        N += 1 - val
    return CostLine(P, N)


def objective_shift(objective, m: int) -> int:
    """The s in objective = lamprime - lam*s: 0 for lamprime, m for lamcc."""
    if objective not in ("lamprime", "lamcc"):
        raise ValueError("objective must be 'lamprime' or 'lamcc'")
    return m if objective == "lamcc" else 0


def lamprime_score(c: Clustering, g: Graph, lam) -> Fraction:
    lam = _check_lambda(lam)
    return line_of(c, g).value_at(lam)


def lamcc_score(c: Clustering, g: Graph, lam) -> Fraction:
    """(1-lam) per cut edge + lam per co-clustered non-edge."""
    lam = _check_lambda(lam)
    _check_partition(c, g)
    cut = sum(1 for u, v in g.edges if not c.together(u, v))
    together_nonedges = 0
    for block in c.blocks():
        sz = len(block)
        inner_pairs = sz * (sz - 1) // 2
        inner_edges = sum(
            1 for i, u in enumerate(block) for v in block[i + 1 :] if g.has_edge(u, v)
        )
        together_nonedges += inner_pairs - inner_edges
    return (1 - lam) * cut + lam * together_nonedges


def weighted_lamprime_score(c: Clustering, g: Graph, weights, lam) -> Fraction:
    """Cut edges cost 1; a co-clustered pair (i,j) costs lam * pi(i) * pi(j)."""
    lam = _check_lambda(lam)
    _check_partition(c, g)
    pi = {}
    for node in range(g.n):
        if node not in weights:
            raise ValueError("missing weight for node %d" % node)
        w = rat(weights[node])
        if w <= 0:
            raise ValueError("weight for node %d must be positive" % node)
        pi[node] = w
    cut = sum(1 for u, v in g.edges if not c.together(u, v))
    negative = Fraction(0)
    for block in c.blocks():
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                negative += pi[u] * pi[v]
    return cut + lam * negative


def degree_weights(g: Graph) -> dict:
    """pi(v) = deg(v): degree weighting for the node-weighted objective."""
    return {v: Fraction(d) for v, d in enumerate(g.degrees())}
