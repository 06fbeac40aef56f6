#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

Runs each workload at its full size (BENCHMARK.json's run_seconds) on the
given seeds with the reference checks off, and stores per data seed the
per-rerun metrics, raw.csv digests, sweep-point metrics and CLI outputs in
reference.json. Run it only on a commit whose outputs are the reference:
the check then holds every later commit to them.

    python3 perfbench/make_reference.py --seeds 0 1 2 3 4 5 6 7 8 9 10
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from run import HERE, ROOT, pin_threads


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", default=None)
    args = p.parse_args()
    pin_threads()
    import workloads

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    for workload in args.workloads or workloads.WORKLOADS:
        sizes = workloads.full_sizes(workload, seconds)
        for seed in args.seeds:
            work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
            out = workloads.run(workload, seed, sizes, None, work)
            if out.failed:
                print(f"{workload} seed {seed}: not recorded, {out.problems}", file=sys.stderr)
                return 1
            entry = reference.setdefault(workload, {})
            for key, values in out.record.items():
                entry.setdefault(key, {}).update(values)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: recorded; wall {out.wall.raw_s:.3f} s, "
                  f"setup {out.raw_setup_s:.3f} s", flush=True)
    with contextlib.suppress(OSError):
        (ROOT / ".perfbench_work").rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
