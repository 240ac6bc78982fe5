"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds the workload spec from workloads.prepare() plus `out` (the
output directory) and `trace` (whether to record spans). The worker imports
subridge from the checkout's `src/`, times the repetition from its first
operation to its last output, and writes RESULT_JSON. Each repetition gets
its own process, as each CLI command a user runs does, so no in-process
cache carries over from one repetition to the next.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_runtime() -> list[dict]:
    """Each loaded OpenBLAS library with the thread count it is using."""
    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_threads is None:
                continue
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            entry["threads"] = get_threads()
            if get_config is not None:
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                entry["config"] = get_config().decode()
            break
        libs.append(entry)
    return libs


def machine_probe() -> dict:
    """Median times of two fixed kernels, taken before the repetition, so
    that a slow machine or a BLAS thread swing shows in the record: a
    100 x 400 gram product (BLAS) and a pure-Python loop."""
    import numpy as np

    X = np.random.default_rng(0).standard_normal((100, 400))
    gram, loop = [], []
    for _ in range(5):
        started = time.perf_counter()
        X @ X.T
        gram.append(time.perf_counter() - started)
        started = time.perf_counter()
        sum(i * i for i in range(100_000))
        loop.append(time.perf_counter() - started)
    return {"gram_100x400_ms": 1e3 * statistics.median(gram),
            "python_loop_ms": 1e3 * statistics.median(loop)}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS before it is queried
    import subridge
    import workloads

    if not Path(subridge.__file__).resolve().is_relative_to(SRC):
        print(f"subridge imported from {subridge.__file__}, not {SRC}", file=sys.stderr)
        return 3

    probe = machine_probe()
    recorder = None
    if spec["trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    started = time.perf_counter()
    exits = workloads.execute(spec, Path(spec["out"]))
    wall_s = time.perf_counter() - started
    if recorder is not None:
        recorder.uninstall()

    result = {
        "wall_s": wall_s,
        "exits": exits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe": probe,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "subridge": subridge.__version__,
            "blas_build": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "blas_runtime": blas_runtime(),
        },
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics(wall_s)
    Path(result_path).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
