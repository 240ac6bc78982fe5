"""Single-threaded BLAS reference beside the gated numbers (not gated).

Usage: python3 perfbench/blas_reference.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs each workload twice with tracing off: once in the environment the
gated runs use (no BLAS thread count set), once with OPENBLAS_NUM_THREADS=1
in every child's environment. Prints both sets of end-to-end metrics side by
side and writes .perfbench_out/results/blas_reference.json.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    records = {}
    for workload in args.workloads:
        records[workload] = {
            "gated": run.run(workload, args.seed, args.seconds, False),
            "blas_1_thread": run.run(workload, args.seed, args.seconds, False,
                                     env_overrides={"OPENBLAS_NUM_THREADS": "1"}),
        }
    print(f"{'workload':8s} {'metric':12s} {'gated':>12s} {'1 thread':>12s} unit")
    for workload, pair in records.items():
        for name in pair["gated"]["metrics"]:
            print(f"{workload:8s} {name:12s} {pair['gated']['metrics'][name]:12.5g} "
                  f"{pair['blas_1_thread']['metrics'][name]:12.5g} {run.unit(name)}")
        threads = [lib.get("threads") for lib in
                   pair["blas_1_thread"]["environment"]["blas_runtime"]]
        print(f"{workload:8s} correct: {pair['gated']['correct']} / "
              f"{pair['blas_1_thread']['correct']}; 1-thread run used {threads} threads")
    results = run.OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "blas_reference.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
