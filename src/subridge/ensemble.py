"""Finite-sample subsample ridge ensembles and their GCV statistic.

An ensemble averages M ridge (or ridgeless) fits, each computed on a uniform
random size-k subset of the rows. The module provides the member solver, the
subset sampler, training / out-of-bag errors of the averaged predictor, the
GCV estimate built from per-member smoothing-matrix traces, and an
experimental bias-corrected variant of GCV for small M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .risk import _two_member_train_weights

__all__ = [
    "Dataset",
    "Member",
    "EnsembleFit",
    "GcvReport",
    "CorrectedGcv",
    "UndefinedOobError",
    "ridge_fit",
    "sample_subsets",
    "ensemble_fit",
    "training_error",
    "oob_error",
    "gcv",
    "predict",
    "conditional_risk",
    "corrected_gcv",
]

DEGENERATE_DENOMINATOR = 1e-12


class UndefinedOobError(ValueError):
    """Every observation appears in some subsample: no out-of-bag set."""


@dataclass(frozen=True)
class Dataset:
    """Design matrix (rows = observations) and response vector."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p and y length n")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("empty dataset")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite entries in data")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Member:
    """One fitted ensemble member.

    trace_contribution is tr(M_l Sigma_l) — the member's effective degrees
    of freedom — which lies in [0, min(k, p)].
    """

    indices: np.ndarray
    coef: np.ndarray
    trace_contribution: float


@dataclass(frozen=True)
class EnsembleFit:
    """An M-member subsample ridge ensemble."""

    lam: float
    k: int
    members: tuple[Member, ...]
    coef: np.ndarray
    union_indices: np.ndarray

    @property
    def M(self) -> int:
        return len(self.members)

    @property
    def is_null(self) -> bool:
        return self.k == 0

    def mean_trace(self) -> float:
        if not self.members:
            return 0.0
        return float(np.mean([m.trace_contribution for m in self.members]))

    def summary(self) -> dict:
        return {
            "lambda": self.lam,
            "k": self.k,
            "M": self.M,
            "mean_trace_contribution": self.mean_trace(),
            "union_size": int(self.union_indices.size),
            "coef_norm": float(np.linalg.norm(self.coef)),
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)

    def coef_to_csv(self, path) -> None:
        np.savetxt(path, self.coef, delimiter=",", header="coef", comments="")


@dataclass(frozen=True)
class GcvReport:
    """GCV statistic with its ingredients and a degeneracy flag."""

    numerator: float
    denominator: float
    value: float
    mean_trace: float
    union_size: int
    degenerate: bool = False


@dataclass(frozen=True)
class CorrectedGcv:
    """Bias-corrected GCV for small ensembles (experimental)."""

    value: float
    a1: float
    a2: float
    fallback: bool
    plain_gcv: float


def _solve_member(X_sub: np.ndarray, y_sub: np.ndarray, lam: float):
    """Coefficients and effective degrees of freedom of one ridge fit.

    Uses the smaller of the two gram matrices; for lam = 0 the min-norm
    least-squares solution, whose degrees of freedom equal the design rank.
    """
    k, p = X_sub.shape
    primal = k >= p
    gram = X_sub.T @ X_sub if primal else X_sub @ X_sub.T
    e, Q = np.linalg.eigh(gram)
    e = np.clip(e, 0.0, None)
    rhs = X_sub.T @ y_sub if primal else y_sub
    if lam == 0.0:
        # Min-norm solution: drop singular values below the relative cutoff.
        s = np.sqrt(e)
        keep = s > max(k, p) * np.finfo(float).eps * (s[-1] if s.size else 0.0)
        inv = np.where(keep, 1.0, 0.0) / np.where(keep, e, 1.0)
        z = Q @ (inv * (Q.T @ rhs))
        df = float(np.count_nonzero(keep))
    else:
        shift = k * lam
        z = Q @ ((Q.T @ rhs) / (e + shift))
        df = float(np.sum(e / (e + shift)))
    coef = z if primal else X_sub.T @ z
    return coef, df


def ridge_fit(X_sub: np.ndarray, y_sub: np.ndarray, lam: float) -> np.ndarray:
    """Solve (X'X/k + lam I) beta = X'y/k; lam = 0 gives the min-norm
    (ridgeless) solution via the pseudo-inverse."""
    X_sub = np.asarray(X_sub, dtype=float)
    y_sub = np.asarray(y_sub, dtype=float)
    if not (np.isfinite(X_sub).all() and np.isfinite(y_sub).all()):
        raise ValueError("non-finite entries in data")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    coef, _ = _solve_member(X_sub, y_sub, lam)
    return coef


def sample_subsets(n: int, k: int, M: int, seed: int) -> list[np.ndarray]:
    """M independent uniform size-k subsets of range(n), sorted.

    Each member's subset comes from its own generator seeded by
    (seed, member index), so serial and parallel fits agree.
    """
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if M < 1:
        raise ValueError("M must be at least 1")
    subsets = []
    for i in range(M):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        subsets.append(np.sort(rng.choice(n, size=k, replace=False)))
    return subsets


def ensemble_fit(data: Dataset, k: int, M: int, lam: float, seed: int) -> EnsembleFit:
    """Fit M independent subsample ridge members and average them.

    k = 0 returns the null fit: zero coefficients and an empty union.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if k == 0:
        return EnsembleFit(
            lam=lam, k=0, members=(),
            coef=np.zeros(data.p), union_indices=np.empty(0, dtype=int),
        )
    subsets = sample_subsets(data.n, k, M, seed)
    members = []
    for idx in subsets:
        coef, df = _solve_member(data.X[idx], data.y[idx], lam)
        members.append(Member(indices=idx, coef=coef, trace_contribution=df))
    averaged = np.mean([m.coef for m in members], axis=0)
    union = np.unique(np.concatenate(subsets))
    return EnsembleFit(lam=lam, k=k, members=tuple(members),
                       coef=averaged, union_indices=union)


def predict(fit: EnsembleFit, X_new: np.ndarray) -> np.ndarray:
    return np.asarray(X_new, dtype=float) @ fit.coef


def training_error(fit: EnsembleFit, data: Dataset) -> float:
    """Mean squared residual of the averaged predictor over the union of
    subsamples; over all rows for the null fit."""
    idx = fit.union_indices
    if idx.size == 0:
        return float(np.mean(data.y**2))
    resid = data.y[idx] - data.X[idx] @ fit.coef
    return float(np.mean(resid**2))


def oob_error(fit: EnsembleFit, data: Dataset) -> float:
    """Mean squared residual over rows outside every subsample."""
    mask = np.ones(data.n, dtype=bool)
    mask[fit.union_indices] = False
    if not mask.any():
        raise UndefinedOobError("subsamples cover every observation")
    resid = data.y[mask] - data.X[mask] @ fit.coef
    return float(np.mean(resid**2))


def gcv(fit: EnsembleFit, data: Dataset) -> GcvReport:
    """GCV statistic: union training error over the squared trace factor
    (1 - mean member trace / union size)^2."""
    numerator = training_error(fit, data)
    size = int(fit.union_indices.size) or data.n
    mean_trace = fit.mean_trace()
    denominator = (1.0 - mean_trace / size) ** 2
    degenerate = denominator < DEGENERATE_DENOMINATOR
    value = math.inf if degenerate else numerator / denominator
    return GcvReport(numerator, denominator, value, mean_trace, size, degenerate)


def conditional_risk(fit: EnsembleFit, test_data: Dataset) -> float:
    """Mean squared prediction error on held-out pairs: the Monte Carlo
    estimate of the conditional risk."""
    resid = test_data.y - predict(fit, test_data.X)
    return float(np.mean(resid**2))


def corrected_gcv(
    fit_M: EnsembleFit,
    data: Dataset,
    fit_1: EnsembleFit,
    fit_2: EnsembleFit,
) -> CorrectedGcv:
    """Bias-corrected GCV for small M (experimental).

    Returns (a1 * training error + a2 * out-of-bag error) / denominator,
    with weights solving a 2x2 plug-in system built so that the limit of the
    corrected statistic is the true M-member risk. The auxiliary one- and
    two-member fits supply out-of-bag risk estimates. A numerically singular
    system falls back to plain GCV with the fallback flag set.
    """
    if fit_M.M < 2:
        raise ValueError("correction requires M >= 2")
    plain = gcv(fit_M, data)
    k, M_count = fit_M.k, fit_M.M
    x = k / data.n
    ell_hat = 1.0 - fit_M.mean_trace() / k
    try:
        r1_hat = oob_error(fit_1, data)
        r2_hat = oob_error(fit_2, data)
        oob_m = oob_error(fit_M, data)
    except UndefinedOobError:
        return CorrectedGcv(plain.value, math.nan, math.nan, True, plain.value)

    cover = 1.0 - (1.0 - x) ** M_count
    c1 = x / cover
    c2 = (1.0 - (1.0 - x) ** 2) / cover
    d1_hat = ell_hat * ell_hat
    d_m_hat = plain.denominator
    # Two-member training error on R_1 and R_2 (R_inf = 2 R_2 - R_1).
    on_r1, on_rinf = _two_member_train_weights(ell_hat, x)
    b1, b2 = on_r1 - on_rinf, 2.0 * on_rinf

    a_mat = np.array([
        [c1 * d1_hat + 1.0 - c1, 1.0],
        [c2 * b1 * r1_hat + (c2 * b2 + 1.0 - c2) * r2_hat, r2_hat],
    ])
    rhs = np.array([d_m_hat, d_m_hat * r2_hat])
    if (
        d_m_hat < DEGENERATE_DENOMINATOR
        or abs(np.linalg.det(a_mat)) < 1e-12 * max(1.0, np.abs(a_mat).max() ** 2)
    ):
        return CorrectedGcv(plain.value, math.nan, math.nan, True, plain.value)
    a1, a2 = np.linalg.solve(a_mat, rhs)
    value = (a1 * training_error(fit_M, data) + a2 * oob_m) / d_m_hat
    return CorrectedGcv(float(value), float(a1), float(a2), False, plain.value)
