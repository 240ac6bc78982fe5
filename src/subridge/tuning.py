"""GCV-driven tuning: subsample-size selection, a ridge baseline, and the
penalty extrapolation estimator.

Subsample tuning fits an M-member ensemble at every size in a coarse grid
and picks the GCV minimizer; because implicit regularization from
subsampling trades off against the explicit penalty along a linear contour,
the selected size also recovers an equivalent ridge penalty by linear
extrapolation between the sizes tuned with and without a penalty.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import ensemble as ens

__all__ = [
    "TuneResult",
    "subsample_grid",
    "tune_k",
    "lambda_hat",
    "tune_lambda",
]


@dataclass(frozen=True)
class TuneResult:
    """Outcome of GCV subsample tuning, and how the grid was fitted: the
    worker processes, the BLAS threads of each, each grid size's fit
    seconds (in path order) as timed in its worker, and the members solved
    by each path summed over the grid (`ensemble.solve_counts`)."""

    k_hat: int
    gcv_at_k_hat: float
    path: tuple[tuple[int, float], ...]
    lam: float
    M: int
    # The averaged coefficients of the ensemble at k_hat, so callers need
    # not refit it.
    coef: np.ndarray = field(compare=False, repr=False)
    degenerate_cells: tuple[int, ...] = field(default=())
    workers: int = field(default=1, compare=False)
    blas_threads_per_worker: int = field(default=1, compare=False)
    fit_seconds: tuple[float, ...] = field(default=(), compare=False, repr=False)
    solve_counts: dict[str, int] = field(default_factory=dict, compare=False,
                                         repr=False)


def subsample_grid(n: int, nu: float = 0.5) -> list[int]:
    """Candidate subsample sizes {0, k0, 2 k0, ...} with k0 = floor(n^nu),
    always including n itself."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < nu < 1:
        raise ValueError("nu must lie in (0, 1)")
    k0 = int(math.floor(n**nu))
    grid = list(range(0, n + 1, k0))
    if grid[-1] != n:
        grid.append(n)
    return grid


def _tune_cell(data: ens.Dataset, lam: float, M: int, seed: int, k: int):
    """Grid size k in this process: the GCV value of its ensemble, whether
    the GCV denominator degenerated, the averaged coefficients, the seconds
    the fit and its GCV took, and its members solved by each path. The
    members stay here."""
    before = ens.solve_counts()
    started = time.perf_counter()
    fit = ens.ensemble_fit(data, k, M, lam, seed)
    report = ens.gcv(fit, data)
    seconds = time.perf_counter() - started
    counts = {key: n - before[key] for key, n in ens.solve_counts().items()}
    return report.value, report.degenerate, fit.coef, seconds, counts


def tune_k(
    data: ens.Dataset, lam: float, grid: list[int], M: int, seed: int
) -> TuneResult:
    """Select the subsample size minimizing GCV over the grid.

    Degenerate GCV denominators are kept in the path as +inf and flagged.
    Ties break towards the smallest k. The result keeps the averaged
    coefficients of the ensemble at k_hat.

    The grid sizes are fitted in worker processes, one per usable CPU and
    at most one per size, each with one BLAS thread (`subridge._worker`):
    the i-th smallest size goes to worker i mod W, and each size returns
    only its GCV value, its degeneracy flag and its averaged coefficients.
    Every size is computed under the same BLAS setting, so the result is
    the same for any worker count, CPU count or caller BLAS thread setting.
    The arguments are checked before any worker starts.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be finite and nonnegative")
    if M < 1:
        raise ValueError("M must be at least 1")
    sizes = sorted(set(grid))
    if not sizes:
        raise ValueError("empty subsample grid")
    if sizes[0] < 0 or sizes[-1] > data.n:
        raise ValueError(f"subsample sizes must lie in [0, n] = [0, {data.n}]")
    from ._worker import BLAS_THREADS, map_in_workers, worker_count

    workers = worker_count(len(sizes))
    cells = map_in_workers(partial(_tune_cell, data, lam, M, seed), sizes, workers)
    values, degenerate, coefs, seconds, counts = zip(*cells)
    path = tuple(zip(sizes, values))
    # min() compares (gcv, k), so ties go to the smallest k.
    gcv_hat, k_hat = min((value, k) for k, value in path)
    return TuneResult(
        k_hat=k_hat, gcv_at_k_hat=gcv_hat, path=path, lam=lam, M=M,
        coef=coefs[sizes.index(k_hat)],
        degenerate_cells=tuple(k for k, flag in zip(sizes, degenerate) if flag),
        workers=workers, blas_threads_per_worker=BLAS_THREADS,
        fit_seconds=seconds,
        solve_counts={key: sum(c[key] for c in counts) for key in counts[0]},
    )


def lambda_hat(k_hat_0: int, k_hat_lambda: int, lam: float, n: int) -> float:
    """Equivalent full-data penalty by extrapolating the line through the
    tuned sizes at penalty 0 and at penalty lam."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if k_hat_lambda <= k_hat_0:
        raise ValueError("extrapolation undefined: k_hat_lambda <= k_hat_0")
    return lam * (n - k_hat_0) / (k_hat_lambda - k_hat_0)


def tune_lambda(
    data: ens.Dataset, lambda_grid
) -> tuple[float, float, ens.EnsembleFit]:
    """Baseline ridge tuning: single full-data fit per penalty, GCV argmin.

    Returns (lambda, gcv, fit), where fit is the one-member full-data
    ensemble at the selected penalty. The whole penalty path reuses one
    spectral decomposition of the design. Ties break towards the smallest
    penalty.
    """
    penalties = sorted(set(float(v) for v in lambda_grid))
    if not penalties:
        raise ValueError("empty penalty grid")
    X, y, n = data.X, data.y, data.n
    solver = ens._RidgeSolver(data)
    best = None
    for lam in penalties:
        if not 0.0 <= lam < math.inf:
            raise ValueError("penalties must be finite and nonnegative")
        coef, df = solver.spectral(lam)
        resid = y - X @ coef
        denom = (1.0 - df / n) ** 2
        value = (
            math.inf if denom < ens.DEGENERATE_DENOMINATOR
            else float(np.mean(resid**2)) / denom
        )
        if best is None or value < best[1]:
            best = (lam, value, coef, df)
    lam, value, coef, df = best
    rows = np.arange(n)
    member = ens.Member(indices=rows, coef=coef, trace_contribution=df)
    fit = ens.EnsembleFit(lam=lam, k=n, members=(member,), coef=coef,
                          union_indices=rows)
    return lam, value, fit
