"""Discrete spectral measures and population model descriptions.

The limiting eigenvalue law of the feature covariance and the law of the
signal's squared projections onto its eigenvectors are both represented as
finite sets of weighted atoms, so every integral downstream is an exact
weighted sum. The fixed point's integrals against H read a Gauss rule of
the measure instead, which agrees with those sums to rounding and has far
fewer nodes than a smooth spectrum has atoms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SpectralMeasure",
    "ModelSpec",
    "NullSignalError",
    "ar1_model",
    "isotropic_model",
    "signal_measure",
]

WEIGHT_TOL = 1e-12


class NullSignalError(ValueError):
    """Signal vector is identically zero."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite discrete probability measure on (0, inf).

    Atoms are stored sorted by descending eigenvalue. Weights must sum to 1.
    """

    values: np.ndarray
    weights: np.ndarray
    # Memo of fixed_point.solve_v's one-cell results on this measure. It
    # lives and dies with the instance, so no key can outlive its measure.
    _solves: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or values.shape != weights.shape:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if values.size == 0:
            raise ValueError("measure needs at least one atom")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(weights)):
            raise ValueError("non-finite atom")
        if np.any(values <= 0):
            raise ValueError("eigenvalue atoms must be strictly positive")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        order = np.argsort(-values)
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "weights", weights[order])
        self.values.setflags(write=False)
        self.weights.setflags(write=False)

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, weights) of the measure's Gauss rule, built on first use;
        see :func:`_gauss_rule`. Read-only, like the atoms."""
        rule = _gauss_rule(self.values, self.weights)
        for array in rule:
            array.setflags(write=False)
        return rule

    def integrate(self, f) -> float:
        """Exact integral of ``f`` against the measure."""
        return float(np.sum(self.weights * f(self.values)))

    def mean(self) -> float:
        return float(np.sum(self.weights * self.values))


def _gauss_rule(values: np.ndarray,
                weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the measure sum_i weights_i delta(values_i), with the
    values sorted in descending order, as a SpectralMeasure stores them.

    The fixed point's integrands r/(1+xr), r/(1+xr)^2 and (xr/(1+xr))^2,
    x >= 0, are analytic in r off (-inf, 0], so on atoms in [a, b] the
    error of an n-node Gauss rule falls like rho0^(-2n), with
    rho0 = (sqrt(b) + sqrt(a)) / (sqrt(b) - sqrt(a)) the Bernstein ellipse
    through 0. n = ceil(30 ln 2 / ln rho0) + 4 puts that bound at 2^-60,
    below rounding; rho0 = inf, where sqrt(b) rounds to sqrt(a), gives 4. A measure with one distinct atom (the isotropic model,
    AR(1) at rho = 0) is one node carrying the exact sum (math.fsum) of the
    weights, and any other measure with at most n atoms is returned as it
    is. Otherwise repeated atoms are merged, with their weights summed
    exactly, and a measure with at most n distinct atoms is returned as
    those.

    Beyond n distinct atoms, Lanczos on their diagonal matrix from the
    square roots of their weights, with full reorthogonalization, builds
    the n x n Jacobi matrix; it stops early at a residual at the atoms'
    rounding, where the Krylov space is spent (atoms a few ulps apart).
    The nodes are the matrix's eigenvalues, clamped to [a, b], and the
    weights the squares of its eigenvectors' first components (Golub and
    Welsch, 1969). The sums run in numpy's own loops rather than BLAS, so
    the rule's bytes do not depend on the BLAS thread count.
    """
    b, a = values[0], values[-1]
    if a == b:
        return values[:1], np.array([math.fsum(weights)])
    root_b, root_a = math.sqrt(b), math.sqrt(a)
    # Atoms an ulp apart can have equal square roots: no ellipse bounds the
    # error then, and rho0 = inf asks for the fewest nodes.
    rho0 = (root_b + root_a) / (root_b - root_a) if root_b > root_a else math.inf
    n = math.ceil(30.0 * math.log(2.0) / math.log(rho0)) + 4
    if values.size <= n:
        return values, weights
    starts = np.flatnonzero(np.diff(values, prepend=math.inf))
    distinct, mass = values[starts], weights
    if distinct.size < values.size:
        mass = np.array([math.fsum(part) for part in np.split(weights, starts[1:])])
        if distinct.size <= n:
            return distinct, mass

    basis = np.empty((n, distinct.size))
    alpha, beta = np.empty(n), np.empty(n)
    q = np.sqrt(mass / np.sum(mass))
    breakdown = distinct.size * np.finfo(float).eps * b
    for j in range(n):
        basis[j] = q
        w = distinct * q
        alpha[j] = np.einsum("i,i", q, w)
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= np.einsum("j,ji->i", np.einsum("ji,i->j", basis[:j + 1], w),
                           basis[:j + 1])
        beta[j] = math.sqrt(np.einsum("i,i", w, w))
        if beta[j] <= breakdown:
            n = j + 1
            break
        q = w / beta[j]
    jacobi = (np.diag(alpha[:n]) + np.diag(beta[:n - 1], 1)
              + np.diag(beta[:n - 1], -1))
    nodes, vectors = np.linalg.eigh(jacobi)
    return np.clip(nodes, a, b), vectors[0] ** 2


@dataclass(frozen=True)
class ModelSpec:
    """Population description: eigenvalue law H, signal law G, rho^2, sigma^2."""

    H: SpectralMeasure
    G: SpectralMeasure
    rho2: float
    sigma2: float

    def __post_init__(self):
        if not (0 <= self.rho2 < math.inf and 0 <= self.sigma2 < math.inf):
            raise ValueError("rho2 and sigma2 must be finite and nonnegative")

    @property
    def null_risk(self) -> float:
        """Risk of the zero predictor: sigma^2 + rho^2 * int r dG."""
        return self.sigma2 + self.rho2 * self.G.mean()


def signal_measure(
    beta0: np.ndarray, eigenvectors: np.ndarray, eigenvalues: np.ndarray
) -> tuple[SpectralMeasure, float]:
    """Squared-projection law of a signal vector onto an eigenbasis.

    Returns the measure G putting weight (beta0' w_i)^2 / ||beta0||^2 at
    eigenvalue r_i, together with rho2 = ||beta0||^2. Atoms with zero weight
    are dropped.
    """
    beta0 = np.asarray(beta0, dtype=float)
    W = np.asarray(eigenvectors, dtype=float)
    r = np.asarray(eigenvalues, dtype=float)
    if not np.allclose(W.T @ W, np.eye(W.shape[1]), atol=1e-10):
        raise ValueError("eigenvectors must be orthonormal")
    rho2 = float(beta0 @ beta0)
    if rho2 == 0.0:
        raise NullSignalError("beta0 is zero; the signal law is undefined")
    proj2 = (beta0 @ W) ** 2 / rho2
    # Drop numerically-zero atoms (rounding dust from exact orthogonality).
    keep = proj2 > WEIGHT_TOL * proj2.max()
    # squared projections may not sum exactly to 1 in floating point
    w = proj2[keep]
    return SpectralMeasure(values=r[keep], weights=w / w.sum()), rho2


def check_rho_ar1(rho_ar1: float) -> None:
    """Reject an AR(1) correlation outside [0, 1) or NaN. rho_ar1 = 0 gives
    the identity covariance (0.0 ** 0 == 1)."""
    if not 0.0 <= rho_ar1 < 1.0:
        raise ValueError("rho_ar1 must lie in [0, 1)")


def ar1_covariance(rho_ar1: float, p: int) -> np.ndarray:
    """Toeplitz covariance with entries rho_ar1 ** |i - j|."""
    check_rho_ar1(rho_ar1)
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return (rho_ar1 ** np.arange(p))[lags]


# AR(1) spectra kept per process, keyed by (rho_ar1, p_ref). One entry
# holds the p_ref x p_ref covariance (2 MB at p_ref = 500) and the measures.
AR1_CACHE_SIZE = 4


@lru_cache(maxsize=AR1_CACHE_SIZE)
def _ar1_spectrum(rho_ar1: float, p_ref: int):
    """(H, G, rho2, covariance, beta0) of the AR(1) model; the arrays are
    read-only, since every caller shares them."""
    cov = ar1_covariance(rho_ar1, p_ref)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    beta0 = eigvecs[:, -5:].sum(axis=1) / 5.0
    H = SpectralMeasure(values=eigvals, weights=np.full(p_ref, 1.0 / p_ref))
    G = SpectralMeasure(values=eigvals[-5:], weights=np.full(5, 0.2))
    cov.setflags(write=False)
    beta0.setflags(write=False)
    return H, G, 0.2, cov, beta0


def ar1_model(
    rho_ar1: float, p_ref: int = 500, sigma2: float = 1.0
) -> tuple[ModelSpec, np.ndarray, np.ndarray]:
    """AR(1) population model.

    The covariance has entries rho_ar1^|i-j|, and H is its eigenvalue law
    (p_ref atoms). The signal is the sum of the top five eigenvectors scaled
    by 1/5, so G is weight 1/5 on each of H's five largest atoms and
    rho2 = 1/5, both stated exactly; the returned beta0, built from `eigh`'s
    eigenvectors, has squared norm 1/5 only up to their rounding.

    Returns (model, covariance, beta0). The spectrum is computed once per
    (rho_ar1, p_ref) in a process (the last AR1_CACHE_SIZE pairs are kept),
    so models that differ only in sigma2 share one H, G, covariance and
    beta0; the returned arrays are read-only.

    Note: rho2 here is ||beta0||^2, the signal energy entering the risk
    formulas. A different convention measures signal strength by
    beta0' Sigma beta0, whose large-p limit is
    (1 - rho_ar1^2) / (5 (1 - rho_ar1)^2); that quantity equals the
    null-predictor excess risk rho2 * int r dG and is kept distinct.
    """
    if p_ref < 5:
        raise ValueError("p_ref must be at least 5 (the signal spans five "
                         "eigenvectors)")
    # One key, and one float covariance, for rho_ar1 = 0, 0.0 and -0.0.
    H, G, rho2, cov, beta0 = _ar1_spectrum(float(rho_ar1) + 0.0,
                                           operator.index(p_ref))
    return ModelSpec(H=H, G=G, rho2=rho2, sigma2=sigma2), cov, beta0


def isotropic_model(rho2: float, sigma2: float) -> ModelSpec:
    """Identity covariance: H and G are a single atom at 1."""
    atom = SpectralMeasure(values=np.array([1.0]), weights=np.array([1.0]))
    return ModelSpec(H=atom, G=atom, rho2=rho2, sigma2=sigma2)
