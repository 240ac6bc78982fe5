"""GCV-driven tuning: subsample-size selection, a ridge baseline, and the
penalty extrapolation estimator.

Subsample tuning fits an M-member ensemble at every size in a coarse grid
and picks the GCV minimizer; because implicit regularization from
subsampling trades off against the explicit penalty along a linear contour,
the selected size also recovers an equivalent ridge penalty by linear
extrapolation between the sizes tuned with and without a penalty.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

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
    """Outcome of GCV subsample tuning."""

    k_hat: int
    gcv_at_k_hat: float
    path: tuple[tuple[int, float], ...]
    lam: float
    M: int
    degenerate_cells: tuple[int, ...] = field(default=())
    # The ensemble fitted at k_hat, kept so callers need not refit it.
    fit: ens.EnsembleFit | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> str:
        payload = {
            "k_hat": self.k_hat,
            "gcv_at_k_hat": self.gcv_at_k_hat,
            "lambda": self.lam,
            "M": self.M,
            "path": [[k, g] for k, g in self.path],
            "degenerate_cells": list(self.degenerate_cells),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def path_to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "gcv"])
            for k, g in self.path:
                writer.writerow([k, repr(float(g))])


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


def tune_k(
    data: ens.Dataset, lam: float, grid: list[int], M: int, seed: int
) -> TuneResult:
    """Select the subsample size minimizing GCV over the grid.

    Degenerate GCV denominators are kept in the path as +inf and flagged.
    Ties break towards the smallest k. The result keeps the fit at k_hat.
    """
    path = []
    degenerate = []
    best = None  # (gcv, k, fit), compared as min() compares (gcv, k)
    for k in sorted(set(grid)):
        fit = ens.ensemble_fit(data, k, M, lam, seed)
        report = ens.gcv(fit, data)
        if report.degenerate:
            degenerate.append(k)
        path.append((k, report.value))
        if best is None or (report.value, k) < best[:2]:
            best = (report.value, k, fit)
    gcv_hat, k_hat, fit_hat = best
    return TuneResult(
        k_hat=k_hat, gcv_at_k_hat=gcv_hat, path=tuple(path),
        lam=lam, M=M, degenerate_cells=tuple(degenerate), fit=fit_hat,
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
    X, y, n = data.X, data.y, data.n
    solver = ens._RidgeSolver(X, y)
    best = None
    for lam in sorted(set(float(v) for v in lambda_grid)):
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
