"""Simple undirected graphs: representation, generators, edge-list I/O.

Nodes are 0-based integers. Edges are unordered pairs stored as (u, v) with
u < v. The file format is one "u v" line per edge, '#' comments, and an
optional "n <count>" header that fixes the node count (needed for isolated
nodes); without a header n = max index + 1.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset = field(default_factory=frozenset)  # of (u, v) with u < v

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError("self-loop %r" % (e,))
            if not (0 <= u < v < self.n):
                raise ValueError("bad edge %r for n=%d" % (e, self.n))

    @property
    def m(self) -> int:
        return len(self.edges)

    def pairs(self):
        """All unordered pairs (u, v), u < v, in lexicographic order."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def degrees(self) -> list:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def neighbors(self) -> list:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def sorted_edges(self) -> list:
        return sorted(self.edges)


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from an iterable of pairs, normalizing orientation."""
    es = set()
    for u, v in edges:
        if u == v:
            raise ValueError("self-loop (%d, %d)" % (u, v))
        if u > v:
            u, v = v, u
        es.add((u, v))
    return Graph(n, frozenset(es))


def cut_size(g: Graph, s) -> int:
    """Number of edges with exactly one endpoint in s."""
    s = set(s)
    return sum(1 for u, v in g.edges if (u in s) != (v in s))


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    adj = g.neighbors()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def gen_ring(k: int) -> Graph:
    """Cycle on n = 2^k nodes, node i adjacent to (i+1) mod n. Requires k >= 2."""
    if k < 2:
        raise ValueError("ring generator needs k >= 2")
    n = 2**k
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def gen_star(n: int) -> Graph:
    """Star on n nodes: node 0 is the center. Requires n >= 3."""
    if n < 3:
        raise ValueError("star generator needs n >= 3")
    return make_graph(n, ((0, i) for i in range(1, n)))


def gen_path(n: int) -> Graph:
    """Path 0-1-...-(n-1). Requires n >= 2."""
    if n < 2:
        raise ValueError("path generator needs n >= 2")
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def gen_gnp(n: int, p, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed.

    Pairs are visited in lexicographic order; p may be a float or Fraction.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    rng = random.Random(seed)
    p = float(p)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def parse_edgelist(text: str) -> Graph:
    header_n = None
    edges = set()
    max_idx = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if header_n is not None:
                raise ValueError("line %d: duplicate n header" % lineno)
            if len(parts) != 2:
                raise ValueError("line %d: malformed header %r" % (lineno, raw))
            try:
                header_n = int(parts[1])
            except ValueError:
                raise ValueError("line %d: non-integer n in %r" % (lineno, raw))
            if header_n < 1:
                raise ValueError("line %d: n must be positive" % lineno)
            continue
        if len(parts) != 2:
            raise ValueError("line %d: expected 'u v', got %r" % (lineno, raw))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError("line %d: non-integer endpoint in %r" % (lineno, raw))
        if u < 0 or v < 0:
            raise ValueError("line %d: negative node index" % lineno)
        if u == v:
            raise ValueError("line %d: self-loop %d" % (lineno, u))
        if u > v:
            u, v = v, u
        if (u, v) in edges:
            raise ValueError("line %d: duplicate edge (%d, %d)" % (lineno, u, v))
        edges.add((u, v))
        max_idx = max(max_idx, v)
    if header_n is not None:
        if max_idx >= header_n:
            raise ValueError("edge index %d exceeds declared n=%d" % (max_idx, header_n))
        n = header_n
    else:
        if max_idx < 0:
            raise ValueError("empty edge list without an n header")
        n = max_idx + 1
    return Graph(n, frozenset(edges))


def format_edgelist(g: Graph) -> str:
    lines = ["n %d" % g.n]
    lines.extend("%d %d" % e for e in g.sorted_edges())
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edgelist(fh.read())


def save_graph(g: Graph, path) -> None:
    from .serialize import atomic_write_text  # serialize imports graphs
    atomic_write_text(path, format_edgelist(g))
