"""Finite-sample subsample ridge ensembles and their GCV statistic.

An ensemble averages M ridge (or ridgeless) fits, each computed on a uniform
random size-k subset of the rows. The module provides the member solver, the
subset sampler, training / out-of-bag errors of the averaged predictor, and
the GCV estimate built from per-member smoothing-matrix traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Dataset",
    "Member",
    "EnsembleFit",
    "GcvReport",
    "UndefinedOobError",
    "sample_subsets",
    "ensemble_fit",
    "training_error",
    "oob_error",
    "gcv",
    "predict",
    "conditional_risk",
]

DEGENERATE_DENOMINATOR = 1e-12


class UndefinedOobError(ValueError):
    """Every observation appears in some subsample: no out-of-bag set."""


@dataclass(frozen=True)
class Dataset:
    """Design matrix (rows = observations) and response vector.

    X and y are held as read-only views: the normal equations of all rows
    are formed on first use and kept for every later fit, so the data must
    not change.
    """

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
        object.__setattr__(self, "X", X.view())
        object.__setattr__(self, "y", y.view())
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def _full_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(X'X, X'y) over all rows, read-only; see _RidgeSolver."""
        gram, rhs = self.X.T @ self.X, self.X.T @ self.y
        gram.setflags(write=False)
        rhs.setflags(write=False)
        return gram, rhs


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

    def mean_trace(self) -> float:
        if not self.members:
            return 0.0
        return float(np.mean([m.trace_contribution for m in self.members]))


@dataclass(frozen=True)
class GcvReport:
    """GCV statistic with its ingredients and a degeneracy flag."""

    numerator: float
    denominator: float
    value: float
    mean_trace: float
    union_size: int
    degenerate: bool = False


# Smallest Cholesky pivot ratio min(diag L)^2 / max(diag L)^2 for which a
# member away from the square shape (a ridge member, or a ridgeless one with
# |k - p| > 0.1 p) is solved directly instead of through its
# eigendecomposition. The direct and the spectral solve are each accurate to
# about cond(A) * eps relative, so they agree to that. Every pivot lies
# between the extreme eigenvalues of A, so the ratio is at least 1 / cond(A);
# on members drawn from the benchmark's sim and tune inputs (|k - p| > 0.1 p)
# cond(A) stayed below 130 / ratio. A member that passes therefore has
# cond(A) below about 1.3e5, and the two paths differ by about 3e-11: 30
# times inside the benchmark's 1e-9 fit tolerance. A rank-deficient gram
# gives a ratio near eps, or the factorization raises. A near-square
# ridgeless gram is ill conditioned by nature (its smallest eigenvalue nears
# 0 as k -> p), so it is not held to this ratio but certified full rank
# instead; see `_RidgeSolver.solve`.
MIN_PIVOT_RATIO = 1e-3

_SOLVE_COUNTS = {"cholesky": 0, "certified": 0, "spectral": 0, "rank_deficient": 0}


def solve_counts() -> dict[str, int]:
    """Members solved so far in this process, by path: the pivot-checked
    Cholesky solve, the certified near-square ridgeless solve, and the
    spectral fallback; and the ridgeless members whose min-norm solution
    kept fewer eigenvalues than the gram has rows (rank-deficient). A caller
    reads its own work as the change between two calls."""
    return dict(_SOLVE_COUNTS)


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L' x = b by blocked forward and back substitution.

    numpy has no triangular solve, and a general solve of L L' would factor
    it again; substituting in blocks of 64 rows costs a few small solves and
    matrix-vector products instead.
    """
    m, block = L.shape[0], 64
    starts = range(0, m, block)
    w = np.empty_like(b)
    for i in starts:
        j = min(i + block, m)
        w[i:j] = np.linalg.solve(L[i:j, i:j], b[i:j] - L[i:j, :i] @ w[:i])
    x = np.empty_like(b)
    for i in reversed(starts):
        j = min(i + block, m)
        x[i:j] = np.linalg.solve(L[i:j, i:j].T, w[i:j] - L[j:, i:j].T @ x[j:])
    return x


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 by the blocked forward substitution of `_cholesky_solve`, run on
    the identity. Block row i of L^-1 is zero right of its diagonal block,
    so each step solves only the columns left of that edge."""
    m, block = L.shape[0], 64
    W = np.zeros_like(L)
    for i in range(0, m, block):
        j = min(i + block, m)
        rhs = -(L[i:j, :i] @ W[:i, :j])
        rhs[:, i:] += np.eye(j - i)
        W[i:j, :j] = np.linalg.solve(L[i:j, i:j], rhs)
    return W


class _RidgeSolver:
    """Ridge fits of the rows `rows` of a dataset (all rows when None): a
    design of k rows and p columns.

    Solves (X'X + k lam I) beta = X'y in the smaller gram: X'X when k >= p
    (primal), else XX' (dual, beta = X'z). A primal member that holds more
    than half the rows (2k > n) takes its gram and rhs from the dataset's
    full ones minus those of the n - k rows it leaves out, X'X - Xc'Xc and
    X'y - Xc'yc, which costs (n - k) p^2 flops instead of k p^2; with k = n
    it uses the full ones as they are. The cancellation error, about
    eps ||X'X|| <= 2 eps ||X_S'X_S||, lies far inside the rank cutoff and
    the pivot check and the full-rank certificate below. `solve` answers
    one penalty by a direct solve when a Cholesky factor shows the gram well
    conditioned, or, for a near-square ridgeless member, shows that the
    rank cutoff of `spectral` would keep every eigenvalue; otherwise it goes
    through the eigendecomposition. `spectral` always uses the
    eigendecomposition, computed on first use and kept, so a penalty path
    costs one `eigh`. Each returns (coef, df), where df is the trace of the
    smoothing matrix; at lam = 0 it is the min-norm (ridgeless) solution and
    df is the numerical rank.
    """

    def __init__(self, data: Dataset, rows: np.ndarray | None = None):
        n, self.p = data.X.shape
        self.k = n if rows is None else len(rows)
        self.primal = self.k >= self.p
        self.X = None  # a dual member's rows, for beta = X'z
        if self.primal and 2 * self.k > n:
            self.gram, self.rhs = data._full_gram
            if self.k < n:
                left_out = np.ones(n, dtype=bool)
                left_out[rows] = False
                X_out = data.X[left_out]
                self.gram = self.gram - X_out.T @ X_out
                self.rhs = self.rhs - X_out.T @ data.y[left_out]
        else:
            X = data.X if rows is None else data.X[rows]
            y = data.y if rows is None else data.y[rows]
            if self.primal:
                self.gram, self.rhs = X.T @ X, X.T @ y
            else:
                self.X, self.gram, self.rhs = X, X @ X.T, y
        self._spectrum = None

    def _coef(self, z: np.ndarray) -> np.ndarray:
        return z if self.primal else self.X.T @ z

    def solve(self, lam: float):
        """(coef, df) at one penalty, by the first path that applies:

        - A failed Cholesky factorization goes to `spectral`.
        - A near-square ridgeless member (|k - p| <= 0.1 p) is solved as
          z = W'(W rhs) with W = L^-1 and df = m when 1 / ||W||_F^2 exceeds
          the rank cutoff of `spectral` taken at tr(A). Since
          lambda_min(A) >= 1 / ||W||_F^2 (tr(A^-1) = ||W||_F^2) and
          lambda_max(A) <= tr(A), the cutoff would then keep every
          eigenvalue, and both paths compute A^-1 rhs, each to about
          cond(A) * eps. Otherwise it goes to `spectral`; so it does, without
          forming W, when a pivot L_ii^2 is at most the cutoff, because
          lambda_min(A) <= min L_ii^2.
        - Any other member goes to `spectral` when its pivot ratio is below
          MIN_PIVOT_RATIO, and is solved from L otherwise.
        """
        k, p = self.k, self.p
        m = self.gram.shape[0]
        shift = k * lam
        A = self.gram + shift * np.eye(m) if lam else self.gram
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            return self._fallback(lam)
        pivots = np.diag(L) ** 2
        if lam == 0.0 and abs(k - p) <= 0.1 * p:
            cutoff = max(k, p) * np.finfo(float).eps * np.trace(A)
            if not pivots.min() > cutoff:
                return self._fallback(lam)
            # A^-1 = W'W with W = L^-1, so tr(A^-1) = ||W||_F^2.
            W = _lower_inverse(L)
            if not 1.0 / np.vdot(W, W) > cutoff:
                return self._fallback(lam)
            _SOLVE_COUNTS["certified"] += 1
            return self._coef(W.T @ (W @ self.rhs)), float(m)
        if not pivots.min() >= MIN_PIVOT_RATIO * pivots.max():
            return self._fallback(lam)
        _SOLVE_COUNTS["cholesky"] += 1
        if lam == 0.0:
            return self._coef(_cholesky_solve(L, self.rhs)), float(m)
        W = _lower_inverse(L)
        return self._coef(W.T @ (W @ self.rhs)), float(m - shift * np.vdot(W, W))

    def _fallback(self, lam: float):
        """`spectral` for a member `solve` could not answer, counted."""
        coef, df = self.spectral(lam)
        _SOLVE_COUNTS["spectral"] += 1
        if lam == 0.0 and df < self.gram.shape[0]:
            _SOLVE_COUNTS["rank_deficient"] += 1
        return coef, df

    def spectral(self, lam: float):
        """(coef, df) at one penalty from the kept eigendecomposition."""
        if self._spectrum is None:
            e, Q = np.linalg.eigh(self.gram)
            e = np.clip(e, 0.0, None)
            self._spectrum = e, Q, Q.T @ self.rhs
        e, Q, qt_rhs = self._spectrum
        if lam == 0.0:
            # Min-norm solution: drop eigenvalues below the relative cutoff.
            # It applies to the eigenvalues themselves, which carry noise of
            # about eps * e_max, so exactly collinear columns are dropped.
            e_max = e[-1] if e.size else 0.0
            keep = e > max(self.k, self.p) * np.finfo(float).eps * e_max
            inv = np.where(keep, 1.0, 0.0) / np.where(keep, e, 1.0)
            z = Q @ (inv * qt_rhs)
            df = float(np.count_nonzero(keep))
        else:
            shift = self.k * lam
            z = Q @ (qt_rhs / (e + shift))
            df = float(np.sum(e / (e + shift)))
        return self._coef(z), df


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
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be finite and nonnegative")
    if M < 1:
        raise ValueError("M must be at least 1")
    if k == 0:
        return EnsembleFit(
            lam=lam, k=0, members=(),
            coef=np.zeros(data.p), union_indices=np.empty(0, dtype=int),
        )
    subsets = sample_subsets(data.n, k, M, seed)
    members = []
    for idx in subsets:
        coef, df = _RidgeSolver(data, idx).solve(lam)
        members.append(Member(indices=idx, coef=coef, trace_contribution=df))
    averaged = np.mean([m.coef for m in members], axis=0)
    in_union = np.zeros(data.n, dtype=bool)
    for idx in subsets:
        in_union[idx] = True
    return EnsembleFit(lam=lam, k=k, members=tuple(members),
                       coef=averaged, union_indices=np.flatnonzero(in_union))


def predict(fit: EnsembleFit, X_new: np.ndarray) -> np.ndarray:
    return np.asarray(X_new, dtype=float) @ fit.coef


def _mean_squared_residual(data: Dataset, coef: np.ndarray, rows=None) -> float:
    """Mean of (y - X coef)^2 over the rows `rows`, an index array or a
    boolean mask (all rows when None). Every row's residual is formed and
    the wanted ones are taken, so no rows of X are copied."""
    resid = data.y - data.X @ coef
    return float(np.mean((resid if rows is None else resid[rows]) ** 2))


def training_error(fit: EnsembleFit, data: Dataset) -> float:
    """Mean squared residual of the averaged predictor over the union of
    subsamples; over all rows for the null fit."""
    idx = fit.union_indices
    return _mean_squared_residual(data, fit.coef, idx if idx.size else None)


def oob_error(fit: EnsembleFit, data: Dataset) -> float:
    """Mean squared residual over rows outside every subsample, taken from
    the residuals of all rows, so no rows of X are copied."""
    mask = np.ones(data.n, dtype=bool)
    mask[fit.union_indices] = False
    if not mask.any():
        raise UndefinedOobError("subsamples cover every observation")
    return _mean_squared_residual(data, fit.coef, mask)


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
    return _mean_squared_residual(test_data, fit.coef)

