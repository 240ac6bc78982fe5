"""Seeded Monte Carlo experiments under the AR(1) data model.

A run sweeps a grid of (subsample size k, penalty, ensemble size M) cells
over independent dataset replicates, recording the empirical GCV, training,
out-of-bag and fresh-test errors next to their theoretical limits. Output is
deterministic given the configuration, including the master seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from . import ensemble as ens
from .risk import asymptotic_risk, gcv_limit_finite_M
from .spectra import ModelSpec, ar1_model, check_rho_ar1

__all__ = ["SimConfig", "SimResult", "generate_ar1", "run_experiment"]

@dataclass(frozen=True)
class SimConfig:
    """Declarative description of one experiment sweep."""

    phi: float
    p: int
    k_grid: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    M_list: tuple[int, ...]
    reps: int
    rho_ar1: float = 0.5
    sigma2: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not (self.k_grid and self.lambda_grid and self.M_list):
            raise ValueError("grids must be non-empty")
        if min(self.k_grid) < 0:
            raise ValueError("k_grid values must be nonnegative")
        if min(self.M_list) < 1:
            raise ValueError("M_list values must be at least 1")
        if not all(0.0 <= lam < math.inf for lam in self.lambda_grid):
            raise ValueError("lambda_grid values must be finite and nonnegative")
        if not 0 < self.phi < math.inf:
            raise ValueError("phi must be positive and finite")
        if self.p < 5:
            raise ValueError("p must be at least 5 (the signal spans five "
                             "eigenvectors)")
        if not 0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and nonnegative")
        check_rho_ar1(self.rho_ar1)
        if max(self.k_grid) > self.n:
            raise ValueError("k_grid exceeds n = floor(p / phi)")

    @property
    def n(self) -> int:
        return int(math.floor(self.p / self.phi))

    @classmethod
    def from_mapping(cls, items: dict[str, str]) -> "SimConfig":
        """Build a config from flat string key/value pairs (config files).

        k_grid, lambda_grid and M_list are comma-separated lists. A value
        that does not convert is a ValueError that names its key.
        """
        def listed(convert):
            return lambda raw: tuple(convert(v) for v in raw.split(","))

        parsers = {
            "phi": float, "p": int, "k_grid": listed(int),
            "lambda_grid": listed(float), "M_list": listed(int), "reps": int,
            "rho_ar1": float, "sigma2": float, "master_seed": int,
        }
        kwargs = {}
        for key, raw in items.items():
            if key not in parsers:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = parsers[key](raw)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(kwargs)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**kwargs)


@dataclass
class SimResult:
    """Tidy per-(rep, cell) rows plus across-rep aggregates, and how the
    replicates ran: the worker processes, the BLAS threads of each, each
    replicate's fit and score seconds as timed in its worker, and the
    members solved by each path and the seconds of those solves, summed
    over replicates (`ensemble.solve_counts`, `ensemble.solve_seconds`)."""

    config: SimConfig
    rows: list[dict] = field(default_factory=list)
    workers: int = 1
    blas_threads_per_worker: int = 1
    replicate_seconds: list[dict] = field(default_factory=list)
    solve_counts: dict[str, int] = field(default_factory=dict)
    solve_seconds: dict[str, float] = field(default_factory=dict)

    def aggregate(self) -> list[dict]:
        cells: dict[tuple, list[dict]] = {}
        for row in self.rows:
            cells.setdefault((row["k"], row["lambda"], row["M"]), []).append(row)
        out = []
        for (k, lam, M), group in cells.items():
            ok = [r for r in group if r["error"] == ""]
            agg = {"k": k, "lambda": lam, "M": M, "n_ok": len(ok),
                   "phis": group[0]["phis"],
                   "risk_theory": group[0]["risk_theory"],
                   "gcv_theory": group[0]["gcv_theory"]}
            for col, out_name in (("gcv", "gcv"), ("test_risk", "test_risk"),
                                  ("oob_error", "oob")):
                vals = np.array([r[col] for r in ok], dtype=float)
                vals = vals[np.isfinite(vals)]
                if vals.size:
                    agg[f"{out_name}_mean"] = float(np.mean(vals))
                    agg[f"{out_name}_stderr"] = (
                        float(np.std(vals, ddof=1) / math.sqrt(vals.size))
                        if vals.size > 1 else 0.0
                    )
                else:
                    agg[f"{out_name}_mean"] = math.nan
                    agg[f"{out_name}_stderr"] = math.nan
            out.append(agg)
        return out


def generate_ar1(
    n: int, p: int, rho_ar1: float, sigma2: float, seed
) -> tuple[ens.Dataset, np.ndarray]:
    """Draw a dataset with AR(1)-correlated Gaussian features.

    Rows of X are N(0, Sigma) with Sigma_ij = rho_ar1^|i-j|, rho_ar1 in
    [0, 1), p >= 5; the signal is `ar1_model`'s beta0, equal weight on the
    top five eigenvectors of Sigma; noise is N(0, sigma2). Deterministic
    given the seed.

    X is one (n, p) standard normal draw Z, turned in place, column by
    column, by the AR(1) recursion
    x_j = rho_ar1 * x_{j-1} + sqrt(1 - rho_ar1^2) * z_j into Z L', with L
    the Cholesky factor of Sigma. No BLAS call forms X, so its bytes do not
    depend on the BLAS thread count. The noise continues the generator's
    stream after Z.
    """
    if not 0 <= sigma2 < math.inf:
        raise ValueError("sigma2 must be finite and nonnegative")
    if p < 5:
        raise ValueError("p must be at least 5 (the signal spans five "
                         "eigenvectors)")
    _, _, beta0 = ar1_model(rho_ar1, p_ref=p)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    scale = math.sqrt(1.0 - rho_ar1 * rho_ar1)
    for j in range(1, p):
        X[:, j] *= scale
        X[:, j] += rho_ar1 * X[:, j - 1]
    y = X @ beta0 + (
        math.sqrt(sigma2) * rng.standard_normal(n) if sigma2 > 0 else 0.0
    )
    return ens.Dataset(X, np.asarray(y, dtype=float)), beta0


def _theory_for_cell(
    model: ModelSpec, phi: float, phis: float, lam: float, M: int
) -> tuple[float, float]:
    try:
        risk = asymptotic_risk(lam, phi, phis, model, M=M).risk
        gcv_lim = gcv_limit_finite_M(lam, phi, phis, model, M=M)
    except ValueError:
        return math.nan, math.nan
    return risk, gcv_lim


# Per-cell numerical failures: recorded in the row, never fatal.
_NUMERICAL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


def _record_failure(row: dict, exc: BaseException) -> None:
    """NaN fit columns, and the exception's class and message, such as
    `LinAlgError: singular`, in `error`."""
    message = str(exc)
    error = f"{type(exc).__name__}: {message}" if message else type(exc).__name__
    row.update(gcv=math.nan, train_error=math.nan, oob_error=math.nan,
               test_risk=math.nan, error=error)


def _draw(config: SimConfig, rep: int, stream: int) -> ens.Dataset:
    """Replicate rep's training (stream 0) or test (stream 1) design."""
    data, _ = generate_ar1(
        config.n, config.p, config.rho_ar1, config.sigma2,
        np.random.SeedSequence((config.master_seed, rep, stream)),
    )
    return data


def _fit_replicate(config: SimConfig, rep: int, cells, theory):
    """Fit every cell on replicate rep's training design: its rows, and the
    averaged coefficients of each cell that fitted (None where it failed).
    The design is dropped on return."""
    data = _draw(config, rep, 0)
    rows, coefs = [], []
    for cell_index, (k, lam, M) in enumerate(cells):
        phis, risk_theory, gcv_theory = theory[(k, lam, M)]
        row = {
            "rep": rep, "k": k, "lambda": lam, "M": M, "phis": phis,
            "risk_theory": risk_theory, "gcv_theory": gcv_theory,
            "error": "",
        }
        coef = None
        try:
            seed = int(
                np.random.SeedSequence(
                    (config.master_seed, rep, 2 + cell_index)
                ).generate_state(1)[0]
            )
            fit = ens.ensemble_fit(data, k, M, lam, seed)
            report = ens.gcv(fit, data)
            row["gcv"] = report.value
            row["train_error"] = report.numerator
            try:
                row["oob_error"] = ens.oob_error(fit, data)
            except ens.UndefinedOobError:
                row["oob_error"] = math.nan
            coef = fit.coef
        except _NUMERICAL_ERRORS as exc:
            # A numerical failure is recorded and the run continues;
            # any other exception is a bug and propagates.
            _record_failure(row, exc)
        rows.append(row)
        coefs.append(coef)
    return rows, coefs


def _score_replicate(config: SimConfig, rep: int, rows, coefs) -> None:
    """Fill test_risk from replicate rep's test design, drawn only now: the
    mean squared residual of each cell's coefficients, which is
    conditional_risk of the cell's fit."""
    test = _draw(config, rep, 1)
    for row, coef in zip(rows, coefs):
        if coef is None:
            continue
        try:
            row["test_risk"] = ens._mean_squared_residual(test, coef)
        except _NUMERICAL_ERRORS as exc:
            _record_failure(row, exc)


def _plan(config: SimConfig):
    """The sweep's cells in order, and each cell's (phis, risk_theory,
    gcv_theory)."""
    p = config.p
    model, _, _ = ar1_model(config.rho_ar1, p_ref=p, sigma2=config.sigma2)
    cells = [
        (k, lam, M)
        for k in config.k_grid
        for lam in config.lambda_grid
        for M in config.M_list
    ]
    theory = {}
    for k, lam, M in cells:
        phis = p / k if k > 0 else math.inf
        theory[(k, lam, M)] = (phis,) + _theory_for_cell(
            model, config.phi, phis, lam, M
        )
    return cells, theory


def _run_replicate(config: SimConfig, rep: int):
    """Replicate rep in this process: its rows, the seconds it spent
    fitting and scoring, its members solved by each path, and the seconds
    of those solves."""
    cells, theory = _plan(config)
    before, before_s = ens.solve_counts(), ens.solve_seconds()
    started = time.perf_counter()
    rows, coefs = _fit_replicate(config, rep, cells, theory)
    fitted = time.perf_counter()
    _score_replicate(config, rep, rows, coefs)
    scored = time.perf_counter()
    counts = {key: n - before[key] for key, n in ens.solve_counts().items()}
    seconds = {key: s - before_s[key] for key, s in ens.solve_seconds().items()}
    return rows, fitted - started, scored - fitted, counts, seconds


def run_experiment(config: SimConfig) -> SimResult:
    """Run the sweep described by the config.

    Per-cell numerical failures (ValueError, ArithmeticError, LinAlgError)
    are recorded in the `error` column and do not abort the run; any other
    exception propagates. Seeds are derived from (master_seed, rep, cell
    index), so cell order and parallelism do not affect the draws.

    Replicates run in worker processes, one per usable CPU and at most one
    per replicate, each with one BLAS thread (`subridge._worker`); the rows
    come back in rep order. Every replicate, the theory columns included,
    is computed under the same BLAS setting, so the rows are the same for
    any worker count, CPU count or caller BLAS thread setting.

    A replicate fits every cell on its training design and keeps only each
    cell's averaged coefficients; the test design is drawn after the
    training design is dropped, so a worker holds one design at a time.
    """
    from ._worker import BLAS_THREADS, map_in_workers, worker_count

    workers = worker_count(config.reps)
    replicates = map_in_workers(
        partial(_run_replicate, config), range(config.reps), workers
    )
    result = SimResult(config=config, workers=workers,
                       blas_threads_per_worker=BLAS_THREADS,
                       solve_counts=dict.fromkeys(ens.solve_counts(), 0),
                       solve_seconds=dict.fromkeys(ens.solve_seconds(), 0.0))
    for rep, (rows, fit_s, score_s, counts, seconds) in enumerate(replicates):
        result.rows.extend(rows)
        result.replicate_seconds.append(
            {"rep": rep, "fit_s": fit_s, "score_s": score_s}
        )
        for key, n in counts.items():
            result.solve_counts[key] += n
        for key, s in seconds.items():
            result.solve_seconds[key] += s
    return result
