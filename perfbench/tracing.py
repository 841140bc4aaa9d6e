"""Spans and counters recorded from outside lambdaprime.

A Tracer wraps the public functions of each package module for the duration
of one op and restores the originals afterwards, so timed runs execute the
package untouched. A function imported by name into another module is wrapped
there too (`cli.certify_cover`, `sweeps.orlp`, ...), since the importing
module calls its own binding. `solve_canonical` is wrapped separately at its
two call sites: `lp` (primal solves) and `sensitivity` (ORLP solves).

Spans are kept in memory: name, start, end, parent span. A layer's self time
is its span time minus the time of its direct child spans; its busy time is
the time of its spans not nested in another span of the same name.
"""
from __future__ import annotations

import importlib
import math
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

import lambdaprime

def _max_bits(values):
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _note_simplex(name):
    def note(tr, result, args, solves0):
        tr.stats[name + ".pivots"] += result.pivots
        tr.stats[name + ".rows"] += len(args[1])
        tr.stats[name + ".cols"] += len(args[0])
        bits = _max_bits(list(result.x) + list(result.dual_ub))
        tr.maxima[name + ".max_bits"] = max(tr.maxima[name + ".max_bits"], bits)
    return note


def _note_orlp(tr, result, args, solves0):
    tr.stats["sensitivity.orlp.clamped"] += bool(result[1])


def _note_lp_curve(tr, result, args, solves0):
    tr.stats["lp.lp_curve.pieces"] += len(result.pieces)
    tr.stats["lp.lp_curve.solves"] += tr.solves() - solves0


def _note_sweep(tr, result, args, solves0):
    tr.stats["sweeps.members"] += len(result.members)
    tr.stats["sweeps.solves"] += tr.solves() - solves0


def _note_certify(tr, result, args, solves0):
    tr.stats["sweeps.certify_cover.points"] += result.points_checked


def _note_rounding(tr, result, args, solves0):
    for rm in result:
        ratio = float(rm.ratio)
        if ratio > tr.maxima["rounding.ratio_max"]:
            tr.maxima["rounding.ratio_max"] = ratio


def _note_write(tr, result, args, solves0):
    tr.stats["serialize.bytes_written"] += len(args[1].encode())


_SERIALIZE = ("write_json", "read_json", "atomic_write_text", "write_curve_csv",
              "write_samples_csv", "family_to_dict", "family_from_dict",
              "clustering_family_to_list", "assignments_to_list")


def _layer_table():
    """(module, attribute, span name, note) for every wrapped function."""
    m = {name: importlib.import_module("lambdaprime." + name) for name in (
        "cli", "lp", "sensitivity", "sweeps", "curves", "exact", "rounding",
        "serialize", "graphs")}
    table = [
        (m["cli"], "main", "cli.main", None),
        (m["graphs"], "load_graph", "graphs.load_graph", None),
        (m["sweeps"], "sweep_febe", "sweeps.sweep_febe", _note_sweep),
        (m["sweeps"], "sweep_geometric", "sweeps.sweep_geometric", _note_sweep),
        (m["sweeps"], "certify_cover", "sweeps.certify_cover", _note_certify),
        (m["sensitivity"], "orlp", "sensitivity.orlp", _note_orlp),
        (m["sensitivity"], "verify_certificate", "sensitivity.verify_certificate", None),
        (m["lp"], "lp_curve", "lp.lp_curve", _note_lp_curve),
        # the exact path of solve_lp; lp_curve calls it directly
        (m["lp"], "_solve_exact", "lp.solve_lp", None),
        (m["lp"], "build_lp", "lp.build_lp", None),
        (m["curves"], "envelope_of", "curves.envelope_of", None),
        (m["exact"], "exact_opt_curve", "exact.exact_opt_curve", None),
        (m["rounding"], "build_clustering_family", "rounding.build_clustering_family",
         _note_rounding),
        (m["rounding"], "round_region_growing", "rounding.round_region_growing", None),
    ]
    for fn in _SERIALIZE:
        table.append((m["serialize"], fn, "serialize",
                      _note_write if fn == "atomic_write_text" else None))
    return table, m


def binding_sites():
    """[(module, attr, original, span name, note)] covering every import by name."""
    table, m = _layer_table()
    mods = [importlib.import_module(info.name) for info in
            pkgutil.iter_modules(lambdaprime.__path__, "lambdaprime.")]
    sites = []
    for owner, attr, name, note in table:
        orig = getattr(owner, attr)
        for mod in mods:
            for a, v in vars(mod).items():
                if v is orig:
                    sites.append((mod, a, orig, name, note))
    # one function, two layers: the span name follows the call site
    solve_canonical = m["lp"].solve_canonical
    sites.append((m["lp"], "solve_canonical", solve_canonical, "simplex.primal",
                  _note_simplex("simplex.primal")))
    sites.append((m["sensitivity"], "solve_canonical", solve_canonical, "simplex.orlp",
                  _note_simplex("simplex.orlp")))
    sites.append((m["exact"], "_iter_rgs", m["exact"]._iter_rgs, None, None))
    return sites


class Tracer:
    """Spans and counters of one traced op; a context manager that installs
    wrappers at the given binding sites and restores the originals on exit."""

    def __init__(self, sites, op_id):
        self.sites = sites
        self.op_id = op_id
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.calls = Counter()
        self.stats = Counter()
        self.maxima = defaultdict(float)
        self._installed = []

    def solves(self):
        """Exact LPs solved so far: primal solves plus ORLP solves."""
        return self.calls["simplex.primal"] + self.calls["simplex.orlp"]

    def _wrap(self, fn, name, note):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, 0.0, 0.0, parent]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.calls[name] += 1
            solves0 = tracer.solves()
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if note is not None:
                note(tracer, result, args, solves0)
            return result

        return traced

    def _count_partitions(self, fn):
        tracer = self

        def counted(n):
            k = 0
            try:
                for a in fn(n):
                    k += 1
                    yield a
            finally:
                tracer.stats["exact.partitions"] += k

        return counted

    def __enter__(self):
        for mod, attr, orig, name, note in self.sites:
            if name is None:
                wrapper = self._count_partitions(orig)
            else:
                wrapper = self._wrap(orig, name, note)
            setattr(mod, attr, wrapper)
            self._installed.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()
        return False

    def times(self):
        """(self seconds, busy seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s, busy_s = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy_s[name] += t1 - t0
        return self_s, busy_s


def layer_metrics(tracers):
    """Per-layer metrics summed over the given traced ops."""
    self_s, busy_s = defaultdict(float), defaultdict(float)
    calls, stats, maxima = Counter(), Counter(), defaultdict(float)
    for tr in tracers:
        s, b = tr.times()
        for k, v in s.items():
            self_s[k] += v
        for k, v in b.items():
            busy_s[k] += v
        calls.update(tr.calls)
        stats.update(tr.stats)
        for k, v in tr.maxima.items():
            maxima[k] = max(maxima[k], v)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer, width in (("simplex.primal", "rows"), ("simplex.orlp", "cols")):
        out[layer + ".calls"] = calls[layer]
        out[layer + ".busy_s"] = busy_s[layer]
        out[layer + ".pivots"] = stats[layer + ".pivots"]
        out[layer + "." + width] = ratio(stats[layer + "." + width], calls[layer])
        out[layer + ".max_bits"] = maxima[layer + ".max_bits"]
    out["sensitivity.orlp.self_s"] = self_s["sensitivity.orlp"]
    out["sensitivity.orlp.clamped_share"] = ratio(
        stats["sensitivity.orlp.clamped"], calls["sensitivity.orlp"])
    out["sensitivity.verify_certificate.busy_s"] = busy_s["sensitivity.verify_certificate"]
    out["lp.build_lp.busy_s"] = busy_s["lp.build_lp"]
    out["lp.solve_lp.self_s"] = self_s["lp.solve_lp"]
    out["lp.lp_curve.calls"] = calls["lp.lp_curve"]
    out["lp.lp_curve.self_s"] = self_s["lp.lp_curve"]
    out["lp.lp_curve.solves_per_piece"] = ratio(
        stats["lp.lp_curve.solves"], stats["lp.lp_curve.pieces"])
    out["sweeps.sweep_febe.self_s"] = self_s["sweeps.sweep_febe"]
    out["sweeps.sweep_geometric.self_s"] = self_s["sweeps.sweep_geometric"]
    out["sweeps.members_per_solve"] = ratio(stats["sweeps.members"], stats["sweeps.solves"])
    out["sweeps.certify_cover.self_s"] = self_s["sweeps.certify_cover"]
    out["sweeps.certify_cover.points"] = stats["sweeps.certify_cover.points"]
    out["exact.exact_opt_curve.busy_s"] = busy_s["exact.exact_opt_curve"]
    out["exact.partitions"] = stats["exact.partitions"]
    out["curves.envelope_of.calls"] = calls["curves.envelope_of"]
    out["curves.envelope_of.busy_s"] = busy_s["curves.envelope_of"]
    out["rounding.build_clustering_family.busy_s"] = busy_s["rounding.build_clustering_family"]
    out["rounding.round_region_growing.busy_s"] = busy_s["rounding.round_region_growing"]
    ratio_max = maxima["rounding.ratio_max"]
    out["rounding.ratio_max"] = ratio_max if math.isfinite(ratio_max) else -1.0
    out["serialize.busy_s"] = busy_s["serialize"]
    out["serialize.bytes_written"] = stats["serialize.bytes_written"]
    out["graphs.load_graph.busy_s"] = busy_s["graphs.load_graph"]
    out["cli.main.self_s"] = self_s["cli.main"]
    out["trace.self_sum_s"] = sum(self_s.values())
    return out
