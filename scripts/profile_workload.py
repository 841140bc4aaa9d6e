"""Sampling profile of one benchmark workload.

    python3 scripts/profile_workload.py --workload pipeline --seconds 20

Run from any directory; the package is imported from the checkout's `src/`,
and the workload (its corpus and its ops) from `perfbench/workloads.py`,
which is only read. The workload is set up as the benchmark sets it up,
then every op of its pool runs, pass after pass, until --seconds of wall
time have passed (a started pass is finished). The reference checks are not
run.

A CPU-time timer of this process (signal.ITIMER_PROF, every INTERVAL_S
seconds of CPU) samples the Python stack. Unlike cProfile, sampling adds no
cost per call, so the shares of small, often called functions are not
inflated. The report gives, by function, the self share (samples with the
function on top) and the inclusive share (samples with it anywhere on the
stack), then the share of samples inside fractions.py (anything it calls,
such as its ABC checks, included) by the line of src/lambdaprime that
called into it.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
from collections import Counter
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lambdaprime") + os.sep

#: CPU seconds between two samples asked of the timer; the kernel's timer
#: tick may space them further apart
INTERVAL_S = 0.001

#: rows printed per table
TOP = 25


class Sampler:
    """The SIGPROF handler: counts, per sample, the function on top of the
    stack, every function on it, and, for a sample inside fractions.py, the
    package line that called into it."""

    def __init__(self):
        self.samples = 0
        self.self_counts = Counter()
        self.incl_counts = Counter()
        self.fraction_lines = Counter()
        self._busy = False  # a signal during the handler is not a sample

    def __call__(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self._sample(frame)
        finally:
            self._busy = False

    def _sample(self, frame):
        stack = []  # the op's frames: this script's own are left out
        while frame is not None and frame.f_code.co_filename != __file__:
            stack.append((frame.f_code, frame.f_lineno))
            frame = frame.f_back
        labels = [_label(code) for code, _ in stack] or ["(between ops)"]
        self.samples += 1
        self.self_counts[labels[0]] += 1
        self.incl_counts.update(set(labels))
        for i, (code, line) in enumerate(stack):
            if code.co_filename.startswith(PACKAGE):
                if any(os.path.basename(c.co_filename) == "fractions.py"
                       for c, _ in stack[:i]):
                    self.fraction_lines["%s (line %d)" % (labels[i], line)] += 1
                break


def _label(code):
    """file:function, the file relative to src/ for the package."""
    name = getattr(code, "co_qualname", code.co_name)  # co_qualname: 3.11+
    path = code.co_filename
    if path.startswith(PACKAGE):
        path = "lambdaprime/" + path[len(PACKAGE):]
    else:
        path = os.path.basename(path)
    return "%s:%s" % (path, name)


def _workloads():
    """perfbench/workloads.py, imported with the checkout's package."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    return workloads


def _table(title, counts, total):
    lines = ["", title]
    for label, k in counts.most_common(TOP):
        lines.append("  %6.1f%%  %s" % (100 * k / total, label))
    return lines


def profile(workload_class, seconds):
    """(sampler, passes, ops, CPU seconds) for one run of a workload."""
    sampler = Sampler()
    with tempfile.TemporaryDirectory() as workdir:
        w = workload_class(0, workdir)
        w.setup()
        pool = w.all_ops()
        passes = 0
        old = signal.signal(signal.SIGPROF, sampler)
        t0, cpu0 = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            while passes == 0 or perf_counter() - t0 < seconds:
                for op in pool:
                    w.run(op)
                passes += 1
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, old)
        cpu = process_time() - cpu0
    return sampler, passes, passes * len(pool), cpu


def main(argv=None):
    workloads = _workloads().WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    sampler, passes, ops, cpu = profile(workloads[args.workload], args.seconds)
    total = max(sampler.samples, 1)
    inside = sum(sampler.fraction_lines.values())
    lines = ["%s: %d passes, %d ops, %d samples in %.2f CPU s"
             % (args.workload, passes, ops, sampler.samples, cpu)]
    lines += _table("self share by function", sampler.self_counts, total)
    lines += _table("inclusive share by function", sampler.incl_counts, total)
    lines += _table("inside fractions.py: %.1f%% of samples, by calling line"
                    % (100 * inside / total), sampler.fraction_lines, total)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
