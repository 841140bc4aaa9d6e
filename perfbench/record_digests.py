"""Record the output digest of every op a workload can run into baseline.json.

    python3 perfbench/record_digests.py pipeline lp-curve opt-curve

Run it on the commit whose outputs are the reference. Also prints each op's
wall time, which shows the spread of op costs within a workload.
"""
import json
import os
import shutil
import sys
import tempfile

import run


def main(names):
    run.import_package()
    import workloads

    path = os.path.join(run.HERE, "baseline.json")
    for name in names:
        workdir = tempfile.mkdtemp(prefix=".perfbench-digests-", dir=run.ROOT)
        try:
            wl = workloads.WORKLOADS[name](0, workdir)
            wl.setup()
            tally, digests = run.Tally(), {}
            for op in wl.all_ops():
                dt, _, ok = run.execute(wl, op, tally, digests)
                print("%s %s %.3f %s" % (name, op.key, dt, "ok" if ok else "FAILED"), flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if tally.failed:
            sys.exit("%s: %d ops failed: %s" % (name, tally.failed, tally.messages))
        with open(path) as fh:
            baseline = json.load(fh)
        baseline.setdefault("digests", {})[name] = dict(sorted(digests.items()))
        with open(path, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
