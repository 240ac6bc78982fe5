"""Discrete spectral measures and population model descriptions.

The limiting eigenvalue law of the feature covariance and the law of the
signal's squared projections onto its eigenvectors are both represented as
finite sets of weighted atoms, so every integral downstream is an exact
weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralMeasure",
    "ModelSpec",
    "NullSignalError",
    "SingularCovarianceError",
    "ar1_model",
    "isotropic_model",
    "empirical_spectrum",
    "signal_measure",
]

WEIGHT_TOL = 1e-12


class SingularCovarianceError(ValueError):
    """Covariance matrix with a non-positive eigenvalue."""


class NullSignalError(ValueError):
    """Signal vector is identically zero."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite discrete probability measure on (0, inf).

    Atoms are stored sorted by descending eigenvalue. Weights must sum to 1.
    """

    values: np.ndarray
    weights: np.ndarray

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

    def integrate(self, f) -> float:
        """Exact integral of ``f`` against the measure."""
        return float(np.sum(self.weights * f(self.values)))

    def mean(self) -> float:
        return float(np.sum(self.weights * self.values))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())


@dataclass(frozen=True)
class ModelSpec:
    """Population description: eigenvalue law H, signal law G, rho^2, sigma^2."""

    H: SpectralMeasure
    G: SpectralMeasure
    rho2: float
    sigma2: float

    def __post_init__(self):
        if self.rho2 < 0 or self.sigma2 < 0:
            raise ValueError("rho2 and sigma2 must be nonnegative")

    @property
    def null_risk(self) -> float:
        """Risk of the zero predictor: sigma^2 + rho^2 * int r dG."""
        return self.sigma2 + self.rho2 * self.G.mean()


def empirical_spectrum(covariance: np.ndarray) -> SpectralMeasure:
    """Eigenvalue law of a symmetric positive definite matrix, weight 1/p each."""
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):
        raise ValueError("covariance must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals.min() <= 0:
        raise SingularCovarianceError(
            f"covariance has eigenvalue {eigvals.min():.3e} <= 0"
        )
    p = eigvals.size
    return SpectralMeasure(values=eigvals, weights=np.full(p, 1.0 / p))


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


def ar1_covariance(rho_ar1: float, p: int) -> np.ndarray:
    """Toeplitz covariance with entries rho_ar1 ** |i - j|."""
    if not 0.0 < rho_ar1 < 1.0:
        raise ValueError("rho_ar1 must lie in (0, 1)")
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return (rho_ar1 ** np.arange(p))[lags]


def ar1_model(
    rho_ar1: float, p_ref: int = 500, sigma2: float = 1.0
) -> tuple[ModelSpec, np.ndarray, np.ndarray]:
    """AR(1) population model.

    The covariance has entries rho_ar1^|i-j|; the signal is the average of the
    top five eigenvectors scaled by 1/5, so rho2 = ||beta0||^2 = 1/5 exactly.
    H is the empirical eigenvalue law (p_ref atoms); G puts weight 1/5 on each
    of the five largest eigenvalues.

    Returns (model, covariance, beta0).

    Note: rho2 here is ||beta0||^2, the signal energy entering the risk
    formulas. A different convention measures signal strength by
    beta0' Sigma beta0, whose large-p limit is
    (1 - rho_ar1^2) / (5 (1 - rho_ar1)^2); that quantity equals the
    null-predictor excess risk rho2 * int r dG and is kept distinct.
    """
    if p_ref < 5:
        raise ValueError("p_ref must be at least 5 (the signal spans five "
                         "eigenvectors)")
    cov = ar1_covariance(rho_ar1, p_ref)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    beta0 = eigvecs[:, -5:].sum(axis=1) / 5.0
    H = SpectralMeasure(values=eigvals, weights=np.full(p_ref, 1.0 / p_ref))
    G, rho2 = signal_measure(beta0, eigvecs, eigvals)
    model = ModelSpec(H=H, G=G, rho2=rho2, sigma2=sigma2)
    return model, cov, beta0


def isotropic_model(rho2: float, sigma2: float) -> ModelSpec:
    """Identity covariance: H and G are a single atom at 1."""
    atom = SpectralMeasure(values=np.array([1.0]), weights=np.array([1.0]))
    return ModelSpec(H=atom, G=atom, rho2=rho2, sigma2=sigma2)
