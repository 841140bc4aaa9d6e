"""Benchmark of lambdaprime: one workload, one seed, one process.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the package is imported from its `src/`
directory. With --trace 0 the run times ops (closed loop, one op at a time,
tracing off; rounds of ops start until --seconds have passed, and a started
round is finished) and reports the end-to-end metrics. Times are
reported relative to the host's current speed: after every op the run times a
fixed exact computation of its own (reference.py), and each op's wall time is
divided by the mean of the reference times around it, which cancels most of
the drift of a shared host's speed. Op times are in reference units (ref);
set-up time is in seconds at REF_S seconds per reference solve. The raw
seconds behind them are in the `info` line. With --trace 1
it runs each op once untraced and once traced, and reports per-layer metrics
of the first round's traced ops. Every op's outputs are checked by the
reference checks in oracles.py; a failed check counts the op as failed. The
last line of standard output is the JSON result; a human-readable summary and
an `info` JSON line precede it, and the same record is written under
.perfbench_out/.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one thread per process: BLAS and OpenMP pools would share the 2 cores with
# the op being timed
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3

#: an op's time is divided by the mean of the reference times taken this
#: many places before and after it (the two next to it included)
REF_WINDOW = 1

#: untimed reference solves before the first timing
REF_WARMUP = 3

#: setup_s is set-up time in reference units times this: seconds on a host
#: where one reference solve takes REF_S (near its median on the machine the
#: baseline was taken on, where it varies between 7 and 17 ms)
REF_S = 0.010

END_TO_END = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simplex.primal.calls": "count",
    "simplex.primal.busy_s": "s",
    "simplex.primal.pivots": "count",
    "simplex.primal.rows": "rows",
    "simplex.primal.max_bits": "bits",
    "simplex.orlp.calls": "count",
    "simplex.orlp.busy_s": "s",
    "simplex.orlp.pivots": "count",
    "simplex.orlp.cols": "cols",
    "simplex.orlp.max_bits": "bits",
    "sensitivity.orlp.self_s": "s",
    "sensitivity.orlp.clamped_share": "share",
    "sensitivity.verify_certificate.busy_s": "s",
    "lp.build_lp.busy_s": "s",
    "lp.solve_lp.self_s": "s",
    "lp.lp_curve.calls": "count",
    "lp.lp_curve.self_s": "s",
    "lp.lp_curve.solves_per_piece": "ratio",
    "sweeps.sweep_febe.self_s": "s",
    "sweeps.sweep_geometric.self_s": "s",
    "sweeps.members_per_solve": "ratio",
    "sweeps.certify_cover.self_s": "s",
    "sweeps.certify_cover.points": "count",
    "exact.exact_opt_curve.busy_s": "s",
    "exact.partitions": "count",
    "curves.envelope_of.calls": "count",
    "curves.envelope_of.busy_s": "s",
    "rounding.build_clustering_family.busy_s": "s",
    "rounding.round_region_growing.busy_s": "s",
    "rounding.ratio_max": "ratio",
    "serialize.busy_s": "s",
    "serialize.bytes_written": "bytes",
    "graphs.load_graph.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.sweep_p50_s": "s",
    "cli.verify_p50_s": "s",
    "trace.overhead_ops_per_min": "1/min",
    "trace.unattributed_share": "share",
    "digest.changed_ops": "count",
}

MEDIAN_NOTE = ("timings are medians: a run has too few ops to put ten samples "
               "beyond any higher percentile")

IMPORT_ONLY = "import sys; sys.path[:0] = %r; import workloads" % [SRC, HERE]


def import_package():
    """Import lambdaprime from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "lambdaprime", "__init__.py")):
        sys.exit("perfbench: no lambdaprime package under %s" % SRC)
    sys.path.insert(0, SRC)
    import lambdaprime

    if os.path.dirname(os.path.abspath(lambdaprime.__file__)) != os.path.join(SRC, "lambdaprime"):
        sys.exit("perfbench: imported lambdaprime from %s, not %s" % (lambdaprime.__file__, SRC))


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append("%s: %s" % (op.key, problems[0]))
        return not problems


def execute(wl, op, tally, digests):
    """Run one op (timed) and check it (untimed); returns (seconds, result, ok)."""
    t = perf_counter()
    try:
        result = wl.run(op)
    except Exception as exc:
        dt = perf_counter() - t
        traceback.print_exc(file=sys.stderr)
        return dt, None, tally.record(op, ["%s: %s" % (type(exc).__name__, exc)])
    dt = perf_counter() - t
    try:
        problems, digest = wl.check(op, result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems, digest = ["check raised %s: %s" % (type(exc).__name__, exc)], None
    digests[op.key] = digest
    return dt, result, tally.record(op, problems)


def stage_median(results, stage):
    vals = [r[stage] for r in results if r is not None and stage in r]
    return statistics.median(vals) if vals else 0.0


def fresh_import_s():
    """Wall time of a new interpreter importing lambdaprime, scipy and the workloads."""
    t = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_ONLY], check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t


def timed_run(wl, seconds, tally, digests, ref):
    """Closed loop of whole rounds of ops, each op followed by one reference solve."""
    first = len(ref.samples)
    ref.time()  # refs[i] is taken just before op i, refs[i + 1] just after
    deadline = perf_counter() + seconds
    times, last_round = [], 0
    for r, op in wl.rounds():
        if r != last_round and perf_counter() >= deadline:
            break
        last_round = r
        dt, _, ok = execute(wl, op, tally, digests)
        times.append((op.key, dt, ok))
        ref.time()
    if not ref.correct():
        sys.exit("perfbench: the reference solve gave a wrong answer")
    refs = ref.samples[first:]
    costs = []  # op wall time / reference time around it
    for i, (_, dt, _) in enumerate(times):
        costs.append(dt / statistics.mean(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 2]))
    ok_costs = [c for c, (_, _, ok) in zip(costs, times) if ok]
    ok_times = [dt for _, dt, ok in times if ok]
    total = sum(dt for _, dt, _ in times)
    metrics = {
        "ops_per_kref": 1000.0 * len(ok_costs) / sum(costs) if costs else 0.0,
        "op_p50_ref": statistics.median(ok_costs) if ok_costs else 0.0,
    }
    seconds_view = {
        "ops_per_min": 60.0 * len(ok_times) / total if total else 0.0,
        "op_p50_s": statistics.median(ok_times) if ok_times else 0.0,
        "ref_p50_s": statistics.median(refs),
        "ref_mean_s": statistics.mean(refs),
    }
    samples = {"ops": len(times), "ok_ops": len(ok_times), "timed_wall_s": total,
               "refs": len(refs), "ref_wall_s": sum(refs)}
    return metrics, samples, [t + (c,) for t, c in zip(times, costs)], seconds_view


def traced_run(wl, seconds, tally, digests):
    from tracing import Tracer, binding_sites, layer_metrics

    sites = binding_sites()
    deadline = perf_counter() + seconds
    first_round, results, times = [], [], []
    untraced_s = traced_s = first_round_s = 0.0
    pairs = 0
    for r, op in wl.rounds():
        if r > 0 and perf_counter() >= deadline:
            break
        dt_u, result, ok_u = execute(wl, op, tally, digests)
        results.append(result)
        with Tracer(sites, op.key) as tr:
            dt_t, _, ok_t = execute(wl, op, tally, digests)
        times.append((op.key, dt_u, ok_u, dt_t, ok_t))
        untraced_s += dt_u
        traced_s += dt_t
        pairs += 1
        if r == 0:
            first_round.append(tr)
            first_round_s += dt_t
    metrics = layer_metrics(first_round)
    self_sum = metrics.pop("trace.self_sum_s")
    metrics["cli.sweep_p50_s"] = stage_median(results, "sweep")
    metrics["cli.verify_p50_s"] = stage_median(results, "verify")
    metrics["trace.overhead_ops_per_min"] = 60.0 * pairs / traced_s - 60.0 * pairs / untraced_s
    metrics["trace.unattributed_share"] = 1.0 - self_sum / first_round_s
    samples = {"op_pairs": pairs, "first_round_ops": len(first_round)}
    spans = {tr.op_id: tr.spans for tr in first_round}
    return metrics, samples, times, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    import workloads
    from reference import Reference

    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    import_s = perf_counter() - _T0
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-s%d-p%d"
                           % (args.workload, args.seed, os.getpid()))
    tally, digests = Tally(), {}
    setups, imports, seconds_view = [], [], None
    ref = Reference()
    for _ in range(REF_WARMUP):
        ref.time()
    ref.samples.clear()
    try:
        for _ in range(SETUP_REPEATS):
            if not args.trace:
                ref.time()
                imports.append(fresh_import_s())
            t = perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            wl.setup()
            setups.append(perf_counter() - t)
        if args.trace:
            metrics, samples, times, spans = traced_run(wl, args.seconds, tally, digests)
            units = PER_LAYER
        else:
            metrics, samples, times, seconds_view = timed_run(wl, args.seconds, tally,
                                                              digests, ref)
            # set-up = a new process importing the package, plus the corpus and
            # warm-up; both are repeated and the median of their sums is
            # divided by the mean of every reference time of the run (a second
            # of set-up holds too few to follow the host from moment to moment)
            # and reported in seconds at REF_S
            setup_s = statistics.median(i + s for i, s in zip(imports, setups))
            metrics["setup_s"] = REF_S * setup_s / statistics.mean(ref.samples)
            seconds_view["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units, spans = END_TO_END, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)["digests"].get(args.workload, {})
    changed = sorted(k for k, d in digests.items() if k in baseline and d != baseline[k])
    unknown = sorted(k for k in digests if k not in baseline)
    if args.trace:  # over the first round, like every per-layer count
        metrics["digest.changed_ops"] = sum(k in spans for k in changed)
    missing = set(units) ^ set(metrics)
    if missing:
        sys.exit("perfbench: metric set mismatch: %s" % sorted(missing))

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "loadavg": list(os.getloadavg()), "import_s": import_s, "setup_repeats_s": setups,
        "fresh_import_s": imports,
        "in_seconds": seconds_view,
        "samples": samples, "statistic": MEDIAN_NOTE,
        "digests": {"compared": len(digests) - len(unknown), "changed": changed,
                    "unknown": unknown},
        "failures": tally.messages,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"info": info, "result": result, "ops": times, "spans": spans}, fh)

    for k in units:
        print("%-42s %14.6g %s" % (k, metrics[k], units[k]))
    for k, v in (seconds_view or {}).items():
        print("%-42s %14.6g (in seconds, not compared)" % (k, v))
    print("attempted %d, failed %d; %s" % (tally.attempted, tally.failed, MEDIAN_NOTE))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
