"""Apply a module-level function to items in worker processes, each running
the BLAS in one thread.

`map_in_workers(fn, items, workers)` starts `workers` interpreters (one
per usable CPU and at most one per item, unless given) as
`python -m subridge._worker`. Item i goes to worker i mod `workers`, which
applies fn to its items in order; the results come back in item order.
Every worker runs the BLAS in one thread, so a result does not depend on
the number of workers, the CPU count or the caller's thread settings.

A worker reads the pickled (fn, items) on stdin and writes one pickled
record per item to its stdout, which it first moves off file descriptor 1
so that nothing else writes to it. Workers are started with `subprocess`,
not `multiprocessing`, so the caller's `__main__` is never re-imported: a
script without an `if __name__ == "__main__"` guard may call this.

Nothing imports this module at package import; callers import it when they
first map.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

__all__ = ["BLAS_THREADS", "WorkerError", "map_in_workers", "worker_count"]

BLAS_THREADS = 1
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_STDERR_TAIL_BYTES = 2000


class WorkerError(RuntimeError):
    """A worker process ended without returning the results of its items."""


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in a worker, chained as the
    cause of its re-raise in the caller."""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(n_items: int) -> int:
    """Workers for n_items independent items: one per usable CPU, at most
    one per item, at least one."""
    return max(1, min(n_items, _usable_cpus()))


def _child_env() -> dict[str, str]:
    """The caller's environment with one BLAS thread, and this package's
    root leading PYTHONPATH so the worker imports the same subridge."""
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in _THREAD_VARIABLES})
    root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _read_records(stream) -> list:
    """The records a worker wrote, up to the first one it did not finish."""
    stream.seek(0)
    records = []
    while True:
        try:
            records.append(pickle.load(stream))
        except (EOFError, pickle.UnpicklingError):
            return records


def _stderr_tail(stream) -> str:
    stream.seek(0, os.SEEK_END)
    stream.seek(max(0, stream.tell() - _STDERR_TAIL_BYTES))
    return stream.read().decode(errors="replace").strip()


def map_in_workers(fn, items, workers: int | None = None) -> list:
    """[fn(item) for item in items], computed in `workers` worker processes
    (by default `worker_count(len(items))`).

    fn must be picklable, that is a module-level function (or a
    `functools.partial` of one), and so must the items and results. The
    first item in item order whose call raised re-raises here with the
    exception's type and message, its worker traceback chained as the
    cause. A worker that ends before returning an item's result, or exits
    with a nonzero code, raises WorkerError with the exit code and the tail
    of its stderr. Every worker has ended and been waited for when this
    returns or raises; on an error in the caller they are killed first.
    """
    items = list(items)
    workers = workers or worker_count(len(items))
    env = _child_env()
    started, files = [], []  # (process, stdout, stderr) per worker; temp files
    try:
        for j in range(workers):
            for _ in range(3):
                files.append(tempfile.TemporaryFile())
            payload, out, err = files[-3:]
            pickle.dump((fn, items[j::workers]), payload)
            payload.seek(0)
            proc = subprocess.Popen([sys.executable, "-m", "subridge._worker"],
                                    stdin=payload, stdout=out, stderr=err, env=env)
            started.append((proc, out, err))
        for proc, _, _ in started:
            proc.wait()
        records = [_read_records(out) for _, out, _ in started]
        results = []
        for i in range(len(items)):
            j, position = i % workers, i // workers
            if position >= len(records[j]):
                raise _died(j, *started[j])
            status, *value = records[j][position]
            if status == "raise":
                exc, text = value
                raise exc from _WorkerTraceback(text)
            results.append(value[0])
        for j, worker in enumerate(started):
            if worker[0].returncode != 0:
                raise _died(j, *worker)
        return results
    finally:
        for proc, _, _ in started:
            proc.kill()  # a no-op once the worker has been waited for
            proc.wait()
        for fh in files:
            fh.close()


def _died(j: int, proc, out, err) -> WorkerError:
    return WorkerError(f"worker {j} exited with code {proc.returncode}; "
                       f"its stderr ends with:\n{_stderr_tail(err)}")


def _raise_record(exc: Exception, text: str) -> bytes:
    """A pickled record of exc that the caller can load, or of a
    RuntimeError with its type and message when exc does not pickle."""
    try:
        data = pickle.dumps(("raise", exc, text))
        pickle.loads(data)
        return data
    except Exception:
        stand_in = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        return pickle.dumps(("raise", stand_in, text))


def _main() -> int:
    results = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray writes to stdout go to stderr, not the results
    fn, items = pickle.load(sys.stdin.buffer)
    with results:
        for item in items:
            try:
                record = pickle.dumps(("ok", fn(item)))
            except Exception as exc:
                results.write(_raise_record(exc, traceback.format_exc()))
                break
            results.write(record)
            results.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_main())
