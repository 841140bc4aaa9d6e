"""The three benchmark workloads: corpus, one op, and its reference check.

Graphs are generated here, not by lambdaprime, and handed to the package as
edge-list files. Each random stratum (n, p) has a pool of connected G(n, p)
draws; a run's seed orders each pool, so the same seed always gives the same
op sequence and every op that any seed can produce has a digest in
baseline.json. Pools are small enough that a run goes through its whole pool
at least once: runs of different seeds then time nearly the same mix of ops,
and their medians differ by the host's noise rather than by which graphs
the seed happened to draw.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from time import perf_counter

import lambdaprime.cli
import lambdaprime.graphs
import lambdaprime.lp

import oracles


@dataclass(frozen=True)
class Op:
    key: str  # unique within the workload, e.g. "gnp7_05.k03/febe"
    graph: str
    algo: str = ""


class OpError(Exception):
    pass


def connected_gnp(n, p, pool_index):
    """The first connected G(n, p) draw of this pool slot."""
    base = 1_000_003 * n + 10_007 * round(10 * p) + 97 * pool_index
    for attempt in range(1000):
        rng = random.Random(base * 1000 + attempt)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        if is_connected(n, edges):
            return edges
    raise RuntimeError("no connected G(%d, %s) draw" % (n, p))


def is_connected(n, edges):
    adj = {u: set() for u in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    return len(seen) == n


def ring(n):
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def star(n):
    return {(0, i) for i in range(1, n)}


def path(n):
    return {(i, i + 1) for i in range(n - 1)}


def interleave(a, b):
    """a[0], b[0], a[1], b[1], ...: a run cut short mid-round keeps its mix."""
    out = []
    for i in range(max(len(a), len(b))):
        out += a[i:i + 1] + b[i:i + 1]
    return out


def call_cli(argv):
    """lambdaprime.cli.main in-process; raises OpError on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lambdaprime.cli.main(argv)
    if rc != 0:
        raise OpError("%s exited %s: %s" % (" ".join(argv[:3]), rc, err.getvalue().strip()))


class Workload:
    name = ""
    strata = ()  # (n, p) with a pool each
    pool = 16  # connected draws per stratum
    fixed = {}  # graph name -> (n, edges factory)
    warmup = ("path6", 6, path)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.graphs = {}  # name -> (n, edges, path)
        self._lp = {}

    # -- set-up ---------------------------------------------------------

    def setup(self):
        """Build the corpus, write every graph file, run one warm-up op."""
        os.makedirs(self.workdir, exist_ok=True)
        for n, p in self.strata:
            for k in range(self.pool):
                self._add(self.stratum(n, p) + ".k%02d" % k, n, connected_gnp(n, p, k))
        for name, (n, factory) in self.fixed.items():
            self._add(name, n, factory(n))
        name, n, factory = self.warmup
        self._add(name, n, factory(n))
        for op in self.round_ops([name]):
            problems, _ = self.check(op, self.run(op))
            if problems:
                raise RuntimeError("warm-up op %s failed: %s" % (op.key, problems[0]))

    @staticmethod
    def stratum(n, p):
        return "gnp%d_%02d" % (n, round(10 * p))

    def _add(self, name, n, edges):
        path_ = os.path.join(self.workdir, name + ".txt")
        lines = ["n %d" % n] + ["%d %d" % e for e in sorted(edges)]
        with open(path_, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.graphs[name] = (n, frozenset(edges), path_)

    # -- op sequence ----------------------------------------------------

    def rounds(self):
        """Yield (round index, op) forever.

        Round r takes the r-th graph of a seeded permutation of each stratum's
        pool, so a run visits distinct pool graphs before repeating any, and
        runs of different seeds differ in which graphs they see and in what
        order rather than in how often a costly graph recurs.
        """
        rng = random.Random(self.seed)
        perms = [rng.sample(range(self.pool), self.pool) for _ in self.strata]
        r = 0
        while True:
            drawn = [self.stratum(n, p) + ".k%02d" % perm[r % self.pool]
                     for (n, p), perm in zip(self.strata, perms)]
            for op in self.round_ops(interleave(drawn, list(self.fixed))):
                yield r, op
            r += 1

    def round_ops(self, names):
        return [Op(name, name) for name in names]

    def all_ops(self):
        """Every op any seed can produce (for recording digests)."""
        names = [self.stratum(n, p) + ".k%02d" % k
                 for n, p in self.strata for k in range(self.pool)]
        return self.round_ops(names + list(self.fixed))

    def file(self, op, suffix):
        return os.path.join(self.workdir, op.key.replace("/", "-") + suffix)

    def highs(self, graph):
        if graph not in self._lp:
            n, edges, _ = self.graphs[graph]
            self._lp[graph] = oracles.HighsLp(n, edges)
        return self._lp[graph]

    # -- per workload ---------------------------------------------------

    def run(self, op):
        """Execute one op (timed); returns a dict of what check() needs and,
        for multi-command ops, each command's wall time in seconds."""
        raise NotImplementedError

    def check(self, op, result):
        """(problems, output digest) from the reference checks."""
        raise NotImplementedError


class Pipeline(Workload):
    """sweep -> verify cover -> round through the CLI, per graph and algorithm."""

    name = "pipeline"
    strata = ((7, 0.3), (7, 0.5), (7, 0.8))
    pool = 4
    fixed = {"ring7": (7, ring), "star7": (7, star), "path7": (7, path)}
    algos = ("febe", "geometric")

    def round_ops(self, names):
        return [Op(name + "/" + algo, name, algo) for name in names for algo in self.algos]

    def run(self, op):
        gpath = self.graphs[op.graph][2]
        cover, rounded = self.file(op, ".cover.json"), self.file(op, ".rounded.json")
        stages = (
            ("sweep", ["sweep", "--graph", gpath, "--epsilon", "1/2",
                       "--algo", op.algo, "--out", cover]),
            ("verify", ["verify", "cover", "--cover", cover, "--graph", gpath]),
            ("round", ["round", "--cover", cover, "--graph", gpath, "--out", rounded]),
        )
        times = {}
        for stage, argv in stages:
            t = perf_counter()
            call_cli(argv)
            times[stage] = perf_counter() - t
        return times

    def check(self, op, result):
        n, edges, _ = self.graphs[op.graph]
        with open(self.file(op, ".cover.json")) as fh:
            cover = json.load(fh)
        with open(self.file(op, ".rounded.json")) as fh:
            rounded = json.load(fh)
        problems = oracles.check_cover(n, edges, cover, self.highs(op.graph))
        problems += oracles.check_rounded(n, edges, cover, rounded)
        canon = {
            "cover": [{k: m.get(k) for k in ("lambda", "P", "N", "value", "interval", "x")}
                      for m in cover.get("members", [])],
            "rounded": [{k: r.get(k) for k in ("assignment", "score")} for r in rounded],
        }
        return problems, oracles.digest(canon)


class LpCurve(Workload):
    """lambdaprime.lp.lp_curve on one graph: exact chord search, no ORLP or I/O."""

    name = "lp-curve"
    strata = ((7, 0.3), (7, 0.5))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.loaded = {}  # graph name -> lambdaprime Graph read from its file

    def _add(self, name, n, edges):
        super()._add(name, n, edges)
        self.loaded[name] = lambdaprime.graphs.load_graph(self.graphs[name][2])

    def run(self, op):
        return {"curve": lambdaprime.lp.lp_curve(self.loaded[op.graph])}

    def check(self, op, result):
        pieces = [(p.lo, p.hi, p.line.P, p.line.N) for p in result["curve"].pieces]
        problems = oracles.check_lp_curve(pieces, self.highs(op.graph))
        return problems, oracles.digest([[str(v) for v in p] for p in pieces])


class OptCurve(Workload):
    """`curve exact` through the CLI: partition enumeration, no LP at all."""

    name = "opt-curve"
    strata = ((10, 0.3), (10, 0.5))
    pool = 8
    fixed = {"star10": (10, star)}

    def run(self, op):
        call_cli(["curve", "exact", "--graph", self.graphs[op.graph][2],
                  "--out", self.file(op, ".csv")])
        return {}

    def check(self, op, result):
        n, edges, _ = self.graphs[op.graph]
        pieces = oracles.read_pieces_csv(self.file(op, ".csv"))
        with open(self.file(op, ".family.json")) as fh:
            family = json.load(fh)
        samples = oracles.read_samples_csv(self.file(op, ".samples.csv"))
        rng = random.Random("%d/%s" % (self.seed, op.key))
        problems = oracles.check_opt_curve(n, edges, pieces, family, samples, rng,
                                           star=op.graph.startswith("star"))
        canon = {"pieces": [[str(v) for v in p] for p in pieces], "family": family,
                 "samples": [[str(v) for v in s] for s in samples]}
        return problems, oracles.digest(canon)


WORKLOADS = {w.name: w for w in (Pipeline, LpCurve, OptCurve)}
