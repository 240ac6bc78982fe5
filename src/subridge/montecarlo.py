"""Seeded Monte Carlo experiments under the AR(1) data model.

A run sweeps a grid of (subsample size k, penalty, ensemble size M) cells
over independent dataset replicates, recording the empirical GCV, training,
out-of-bag and fresh-test errors next to their theoretical limits. Output is
deterministic given the configuration, including the master seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import ensemble as ens
from .risk import asymptotic_risk, gcv_limit_finite_M
from .spectra import ModelSpec, ar1_model

__all__ = ["SimConfig", "SimResult", "generate_ar1", "run_experiment"]

TIDY_COLUMNS = [
    "rep", "k", "lambda", "M", "phis",
    "gcv", "train_error", "oob_error", "test_risk",
    "risk_theory", "gcv_theory", "error",
]
AGG_COLUMNS = [
    "k", "lambda", "M", "phis",
    "gcv_mean", "gcv_stderr", "test_risk_mean", "test_risk_stderr",
    "oob_mean", "oob_stderr", "risk_theory", "gcv_theory", "n_ok",
]


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
        if self.phi <= 0 or self.p < 1:
            raise ValueError("phi must be positive and p at least 1")
        if max(self.k_grid) > self.n:
            raise ValueError("k_grid exceeds n = floor(p / phi)")

    @property
    def n(self) -> int:
        return int(math.floor(self.p / self.phi))

    @classmethod
    def from_mapping(cls, items: dict[str, str]) -> "SimConfig":
        """Build a config from flat string key/value pairs (config files).

        k_grid, lambda_grid and M_list are comma-separated lists.
        """
        known = {
            "phi": float, "p": int, "reps": int, "rho_ar1": float,
            "sigma2": float, "master_seed": int,
        }
        kwargs = {}
        for key, raw in items.items():
            if key == "k_grid":
                kwargs[key] = tuple(int(v) for v in raw.split(","))
            elif key == "lambda_grid":
                kwargs[key] = tuple(float(v) for v in raw.split(","))
            elif key == "M_list":
                kwargs[key] = tuple(int(v) for v in raw.split(","))
            elif key in known:
                kwargs[key] = known[key](raw)
            else:
                raise ValueError(f"unknown config key {key!r}")
        missing = {"phi", "p", "k_grid", "lambda_grid", "M_list", "reps"} - set(kwargs)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**kwargs)


@dataclass
class SimResult:
    """Tidy per-(rep, cell) rows plus across-rep aggregates."""

    config: SimConfig
    rows: list[dict] = field(default_factory=list)

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

    def to_tidy_csv(self, path) -> None:
        _write_csv(path, TIDY_COLUMNS, self.rows)

    def to_aggregate_csv(self, path) -> None:
        _write_csv(path, AGG_COLUMNS, self.aggregate())


def _format(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(float(value))
    return str(value)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format(row.get(c, "")) for c in columns])


@lru_cache(maxsize=8)
def _ar1_cache(rho_ar1: float, p: int, sigma2: float):
    model, cov, beta0 = ar1_model(rho_ar1, p_ref=p, sigma2=sigma2)
    chol = np.linalg.cholesky(cov)
    return model, chol, beta0


def generate_ar1(
    n: int, p: int, rho_ar1: float, sigma2: float, seed
) -> tuple[ens.Dataset, np.ndarray]:
    """Draw a dataset with AR(1)-correlated Gaussian features.

    Rows of X are N(0, Sigma) with Sigma_ij = rho_ar1^|i-j|; the signal puts
    equal weight on the top five eigenvectors of Sigma; noise is
    N(0, sigma2). Deterministic given the seed.
    """
    if not 0 <= rho_ar1 < 1:
        raise ValueError("rho_ar1 must lie in [0, 1)")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    _, chol, beta0 = _ar1_cache(rho_ar1, p, sigma2)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) @ chol.T
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


def run_experiment(config: SimConfig) -> SimResult:
    """Run the sweep described by the config.

    Per-cell numerical failures (ValueError, ArithmeticError, LinAlgError)
    are recorded in the `error` column and do not abort the run; any other
    exception propagates. Seeds are derived from (master_seed, rep, cell
    index), so cell order and parallelism do not affect the draws.
    """
    n, p = config.n, config.p
    model, _, _ = _ar1_cache(config.rho_ar1, p, config.sigma2)
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

    result = SimResult(config=config)
    for rep in range(config.reps):
        data, _ = generate_ar1(
            n, p, config.rho_ar1, config.sigma2,
            np.random.SeedSequence((config.master_seed, rep, 0)),
        )
        test, _ = generate_ar1(
            n, p, config.rho_ar1, config.sigma2,
            np.random.SeedSequence((config.master_seed, rep, 1)),
        )
        for cell_index, (k, lam, M) in enumerate(cells):
            phis, risk_theory, gcv_theory = theory[(k, lam, M)]
            row = {
                "rep": rep, "k": k, "lambda": lam, "M": M, "phis": phis,
                "risk_theory": risk_theory, "gcv_theory": gcv_theory,
                "error": "",
            }
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
                row["test_risk"] = ens.conditional_risk(fit, test)
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                # A numerical failure is recorded and the run continues;
                # any other exception is a bug and propagates.
                row.update(gcv=math.nan, train_error=math.nan,
                           oob_error=math.nan, test_risk=math.nan,
                           error=type(exc).__name__)
            result.rows.append(row)
    return result
