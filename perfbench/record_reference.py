"""Record the reference outputs the benchmark checks against.

Usage: python3 perfbench/record_reference.py [--size full|tiny] [WORKLOAD ...]

Runs each workload once per input variant (theory has one; sim and tune
have workloads.VARIANTS) through the same worker as the benchmark and writes
perfbench/reference/<size>/<workload>-<variant>.json.gz. Run it on the
commit whose outputs are the reference; the committed files were recorded
at commit 2fba75e, whose src/ is the package's first implementation.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys
import time

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES))
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    env = run.child_env(None)
    work_dir = run.OUT_ROOT / "record"
    for workload in args.workloads:
        variants = 1 if workload == "theory" else workloads.VARIANTS
        for seed in range(variants):
            shutil.rmtree(work_dir, ignore_errors=True)
            spec = workloads.prepare(workload, seed, args.size, work_dir / "inputs")
            rep = run.run_worker(spec, work_dir / "rep", False, env,
                                 time.perf_counter() + 600.0)
            if any(code != 0 for code in rep["exits"].values()):
                raise SystemExit(f"{workload} variant {seed}: exits {rep['exits']}")
            path = workloads.reference_path(spec)
            path.parent.mkdir(parents=True, exist_ok=True)
            content = workloads.record(spec, work_dir / "rep" / "out")
            path.write_bytes(gzip.compress(json.dumps(content).encode(), mtime=0))
            print(f"{path.relative_to(run.ROOT)}: {rep['wall_s']:.2f} s", file=sys.stderr)
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
