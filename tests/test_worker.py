import math
import os
import signal
import subprocess
import sys
import time

import pytest

from subridge import _worker


@pytest.fixture
def started(monkeypatch):
    """Every worker process map_in_workers starts during the test."""
    procs = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return procs


def assert_all_waited(procs, count):
    assert len(procs) == count
    assert all(proc.returncode is not None for proc in procs)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_item_order(started, workers):
    assert _worker.map_in_workers(str, range(7), workers) == [
        str(i) for i in range(7)]
    assert_all_waited(started, workers)


def test_worker_count_is_usable_cpus_capped_by_items(monkeypatch):
    monkeypatch.setattr(_worker, "_usable_cpus", lambda: 3)
    assert [_worker.worker_count(n) for n in (0, 1, 2, 3, 10)] == [1, 1, 2, 3, 3]


def test_workers_run_one_blas_thread_and_import_this_package():
    env = _worker._child_env()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[name] == "1"
    root = env["PYTHONPATH"].split(os.pathsep)[0]
    assert _worker.__file__.startswith(root)


def test_stray_stdout_does_not_reach_the_results(started):
    assert _worker.map_in_workers(print, ["noise", "more noise"], 1) == [None, None]


@pytest.mark.parametrize("fn, items, error, message", [
    (math.sqrt, [4.0, -1.0, 9.0], ValueError, "math domain error"),
    (math.sqrt, [4.0, "a"], TypeError, "must be real number, not str"),
    # Items 1 and 2 both fail, in different workers: item order decides.
    (int, ["1", "x", "y"], ValueError, "invalid literal for int.*'x'"),
], ids=["value-error", "type-error", "first-in-item-order"])
def test_worker_exception_reraises_with_type_and_message(started, fn, items,
                                                         error, message):
    with pytest.raises(error, match=message) as info:
        _worker.map_in_workers(fn, items, 2)
    assert isinstance(info.value.__cause__, _worker._WorkerTraceback)
    assert_all_waited(started, 2)


def test_killed_worker_raises(started):
    with pytest.raises(_worker.WorkerError, match=f"code {-signal.SIGKILL}"):
        _worker.map_in_workers(signal.raise_signal, [signal.SIGKILL], 1)
    assert_all_waited(started, 1)


def test_exited_worker_reports_its_stderr(started):
    with pytest.raises(_worker.WorkerError, match="code 1(.|\n)*worker gave up"):
        _worker.map_in_workers(sys.exit, ["worker gave up"], 1)
    assert_all_waited(started, 1)


def test_failure_in_the_caller_kills_started_workers(monkeypatch, started):
    real_popen = subprocess.Popen  # the recording class

    def second_fails(*args, **kwargs):
        if started:
            raise OSError("cannot start another worker")
        return real_popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", second_fails)
    begun = time.perf_counter()
    with pytest.raises(OSError, match="cannot start another worker"):
        _worker.map_in_workers(time.sleep, [60, 60], 2)
    assert time.perf_counter() - begun < 30
    assert_all_waited(started, 1)
    assert started[0].returncode == -signal.SIGKILL
