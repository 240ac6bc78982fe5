"""subridge benchmark: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload theory|sim|tune --seed N \\
        --seconds S --trace 0|1

The harness writes the workload's inputs from the seed, measures set-up time
(a fresh interpreter importing subridge and building the workload's AR(1)
model, repeated and reduced to the median), then runs repetitions of the
workload, each in a fresh worker process, for about S seconds. Every
repetition's outputs are checked against the reference recorded at commit
2fba75e, and against the first repetition's bytes.

With --trace 0 the last stdout line is the JSON result with the end-to-end
metrics; with --trace 1 repetitions alternate untraced and traced, and the
result carries the per-layer metrics of the traced ones, the tracing
overhead, and the failure counts by reason. A fuller record, including the
machine, BLAS and thread environment, goes to
.perfbench_out/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 9  # measured fresh-interpreter set-ups per run, after one warm-up
MIN_REPS = 2  # the byte-identity check needs a second repetition
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_CODE = {
    "theory": "import subridge; subridge.ar1_model(0.5, p_ref=500)",
    "sim": "import subridge; subridge.ar1_model(0.5, p_ref=400)",
    "tune": "import subridge",
}


class BenchmarkError(RuntimeError):
    """The harness could not run the workload at all."""


def child_env(overrides: dict | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(overrides or {})
    return env


def measure_setup(workload: str, env: dict, deadline: float) -> list[float]:
    """Wall time of SETUP_RUNS + 1 fresh interpreters doing the workload's
    set-up, measured from process start to exit; the first one also writes
    the bytecode caches and is reported separately."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE[workload]],
                                env=env, cwd=ROOT)
        # A blocking wait sees the exit at once; subprocess's wait with a
        # timeout polls at up to 50 ms intervals, which would blur the time.
        watchdog = threading.Timer(max(deadline - started, 1.0), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - started)
        if code != 0:
            raise BenchmarkError(f"set-up exited with code {code}")
    return times


def run_worker(spec: dict, rep_dir: Path, traced: bool, env: dict, deadline: float) -> dict:
    rep_dir.mkdir(parents=True)
    spec_path, result_path = rep_dir / "spec.json", rep_dir / "result.json"
    spec_path.write_text(json.dumps({**spec, "out": str(rep_dir / "out"), "trace": traced}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env, cwd=ROOT, stdout=sys.stderr,
        timeout=max(deadline - time.perf_counter(), 1.0))
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in workloads.output_files(out).items()}


def machine_environment(env: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        env_overrides: dict | None = None) -> dict:
    """Run the benchmark for one workload; return the full record."""
    if not (ROOT / "src" / "subridge" / "__init__.py").is_file():
        raise BenchmarkError(f"no subridge sources under {ROOT / 'src'}")
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    env = child_env(env_overrides)
    work_dir = OUT_ROOT / "runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        spec = workloads.prepare(workload, seed, size, work_dir / "inputs")
        bytes_read = sum(os.path.getsize(spec[key]) for key in ("config", "data")
                         if key in spec)
        reference_file = workloads.reference_path(spec)
        if not reference_file.is_file():
            raise BenchmarkError(f"missing reference {reference_file}")
        reference = json.loads(gzip.decompress(reference_file.read_bytes()))
        load_before = os.getloadavg()
        setup = measure_setup(workload, env, deadline)

        reps, failures, first_digests = [], Counter(), None
        measure_start = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_dir = work_dir / f"rep{len(reps)}"
            rep = run_worker(spec, rep_dir, traced, env, deadline)
            rep["traced"] = traced
            reps.append(rep)
            out = rep_dir / "out"
            failures.update(workloads.check(spec, rep["exits"], out, reference))
            rep_digests = digests(out)
            if first_digests is None:
                first_digests = rep_digests
                rep["bytes_written"] = sum(
                    p.stat().st_size for p in out.rglob("*")
                    if p.is_file() and p.name != "curves.json")
            elif rep_digests != first_digests:
                failures["nondeterministic"] += 1
            shutil.rmtree(out)
            elapsed = time.perf_counter() - measure_start
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
        measured_s = time.perf_counter() - measure_start
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = workloads.attempted(spec) * len(reps)
    failed = min(sum(failures.values()), attempted)
    plain = [r for r in reps if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        layers = {key: statistics.median(r["layers"][key] for r in traced_reps)
                  for key in traced_reps[0]["layers"]}
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = wall
        layers["trace.overhead_s"] = traced_wall - wall
        layers["cli.bytes_read"] = bytes_read
        layers["cli.bytes_written"] = reps[0]["bytes_written"]
        for reason in workloads.FAILURE_REASONS:
            layers[f"check.failed.{reason}"] = failures[reason]
        metrics = layers
    else:
        metrics = {
            "setup_s": statistics.median(setup[1:]),
            "wall_s": wall,
            "work_per_s": workloads.work_items(spec) / wall,
            # Identical repetitions' peaks differ by ~12 MB with the timing
            # of allocator and BLAS buffer growth; the smallest is the
            # memory the work needs.
            "peak_rss_mb": min(r["peak_rss_mb"] for r in plain),
        }
    return {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "seconds": seconds, "variant": spec["variant"],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": dict(failures),
        "metrics": metrics,
        "samples": {"setup_s": setup, "wall_s": [r["wall_s"] for r in reps],
                    "traced": [r["traced"] for r in reps],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
                    "probe": [r["probe"] for r in reps],
                    "measured_s": measured_s},
        "environment": {**machine_environment(env), **reps[0]["environment"],
                        "loadavg_before": load_before, "loadavg_after": load_after,
                        "env_overrides": env_overrides or {}},
    }


def unit(name: str) -> str:
    """The unit of a metric, from its name."""
    if name == "work_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".ms_per_member"):
        return "ms"
    if name.endswith(".solves_per_call"):
        return "count/call"
    if name.endswith("_per_member"):
        return "count/member"
    if name.endswith((".s", "_s")):
        return "s"
    if name.startswith("cli.bytes"):
        return "B"
    return "count"


def result_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in record["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    line = result_line(record)
    for name, metric in line["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    if record["failures"]:
        print(f"failures by reason: {record['failures']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
