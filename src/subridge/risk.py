"""Asymptotic risk and GCV limits for subsample ridge ensembles.

Every quantity here is a deterministic limit under proportional asymptotics:
the data aspect ratio p/n converges to ``phi``, the per-member subsample
aspect ratio p/k converges to ``phis >= phi``, and the spectrum of the
feature covariance converges to the measure carried by a
:class:`~subridge.spectra.ModelSpec`.

The module exposes the bias/variance decomposition of the M-member ensemble
risk, the deterministic limits of the ensemble training error and of the
generalized cross-validation (GCV) statistic, the penalty/subsample
equivalence contour, and one-dimensional optimizers over the penalty and the
subsample aspect ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixed_point import (
    BLOCK_CELLS,
    DivergentVarianceError,
    FixedPointSolution,
    _solve_block,
    _tilde_c_values,
    _tilde_v_values,
    solve_v,
    tilde_c,
)
from .spectra import ModelSpec, SpectralMeasure

__all__ = [
    "RiskDecomposition",
    "ContourPoint",
    "asymptotic_risk",
    "gcv_denominator_limit",
    "training_error_limit",
    "gcv_limit",
    "gcv_limit_finite_M",
    "inconsistency_gap",
    "contour_lambda_for_phis",
    "equivalence_path",
    "optimal_lambda",
    "optimal_subsample",
    "risk_surface",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RiskDecomposition:
    """Limiting risk of an M-member ensemble, split into components."""

    lam: float
    phi: float
    phis: float
    M: float
    sigma2: float
    bias: float
    variance: float

    @property
    def risk(self) -> float:
        return self.sigma2 + self.bias + self.variance


@dataclass(frozen=True)
class ContourPoint:
    """One point on a penalty/subsample equivalence segment."""

    t: float
    lam: float
    phis: float
    risk: float


def _validate_aspects(lam: float, phi: float, phis: float) -> None:
    if phi <= 0:
        raise ValueError("phi must be positive")
    if phis < phi:
        raise ValueError("phis must be at least phi")
    if lam < 0:
        raise ValueError("lam must be nonnegative")


@dataclass(frozen=True)
class _Solved:
    """One solved (lam, phis) pair: the fixed point (v, ell, Ahat) and the
    bias constant c~. Every limit at that pair derives from this record."""

    sol: FixedPointSolution
    c_tilde: float


def _solve(lam: float, phis: float, model: ModelSpec) -> _Solved:
    sol = solve_v(lam, phis, model.H)
    return _Solved(sol, tilde_c(lam, phis, model.G, sol=sol))


def _bias_variance(phi, phis, M, a_hat, c_tilde, model: ModelSpec):
    """Bias and variance of the M-member ensemble, elementwise over floats or
    arrays. The caller checks the self component (vartheta = phis) for
    divergence; the cross component (vartheta = phi <= phis) then converges."""

    def component(vartheta):
        vt = _tilde_v_values(vartheta, a_hat)
        return model.rho2 * (1.0 + vt) * c_tilde, model.sigma2 * vt

    b_self, v_self = component(phis)
    if M == 1:
        return b_self, v_self
    b_cross, v_cross = component(phi)
    w = 1.0 / M
    return w * b_self + (1.0 - w) * b_cross, w * v_self + (1.0 - w) * v_cross


def _decomposition(
    point: _Solved, phi: float, M: float, model: ModelSpec
) -> RiskDecomposition:
    sol = point.sol
    if 1.0 - sol.theta * sol.scaled_second_moment <= 0.0:
        raise DivergentVarianceError(
            f"vartheta = {sol.theta} at or above the interpolation threshold"
        )
    bias, variance = _bias_variance(
        phi, sol.theta, M, sol.scaled_second_moment, point.c_tilde, model)
    return RiskDecomposition(sol.lam, phi, sol.theta, M, model.sigma2, bias, variance)


def asymptotic_risk(
    lam: float, phi: float, phis: float, model: ModelSpec, M: float = math.inf
) -> RiskDecomposition:
    """Limiting out-of-sample risk of the M-member subsample ridge ensemble.

    ``phis = inf`` (subsample size negligible next to p) and ``lam = inf``
    both collapse to the null predictor, whose risk is
    ``sigma2 + rho2 * int r dG``.
    """
    _validate_aspects(lam, phi, phis)
    if M < 1:
        raise ValueError("M must be at least 1")
    if math.isinf(phis) or math.isinf(lam):
        return RiskDecomposition(
            lam, phi, phis, M,
            sigma2=model.sigma2, bias=model.rho2 * model.G.mean(), variance=0.0,
        )
    return _decomposition(_solve(lam, phis, model), phi, M, model)


def _denominator(ell: float, phi: float, phis: float) -> float:
    return ((phis - phi) / phis + (phi / phis) * ell) ** 2


def gcv_denominator_limit(
    lam: float, phi: float, phis: float, H: SpectralMeasure
) -> float:
    """Limit of the squared GCV denominator for the full ensemble."""
    _validate_aspects(lam, phi, phis)
    return _denominator(solve_v(lam, phis, H).ell, phi, phis)


def _two_member_train_weights(ell: float, x: float) -> tuple[float, float]:
    """Coefficients (on R_1 and R_inf) of the limiting two-member training
    error, as functions of ell and the subsample fraction x = phi/phis."""
    d = 2.0 - x
    on_r1 = 0.5 * ((1.0 - x) + ell * ell) / d
    on_rinf = 0.5 * (2.0 * ell * (1.0 - x) + ell * ell * x) / d
    return on_r1, on_rinf


def _training_error(point: _Solved, phi: float, M: float, model: ModelSpec) -> float:
    phis, ell = point.sol.theta, point.sol.ell
    r1 = _decomposition(point, phi, 1, model).risk
    if M == 1:
        return ell * ell * r1
    rinf = _decomposition(point, phi, math.inf, model).risk
    on_r1, on_rinf = _two_member_train_weights(ell, phi / phis)
    t2 = on_r1 * r1 + on_rinf * rinf
    if M == 2:
        return t2
    if math.isinf(M):
        t1 = ell * ell * r1
        r2 = 0.5 * (r1 + rinf)
        c1 = phi / phis
        c2 = 2.0 * phi * (2.0 * phis - phi) / phis**2
        return (
            c2 * t2
            + 2.0 * (phis - phi) ** 2 / phis**2 * r2
            - c1 * t1
            - (phis - phi) / phis * r1
        )
    raise ValueError("closed form available only for M in {1, 2, inf}")


def training_error_limit(
    lam: float, phi: float, phis: float, model: ModelSpec, M: float
) -> float:
    """Limit of the ensemble training error over the union of subsamples.

    Available in closed form for M in {1, 2, inf}; the residuals of distinct
    members are correlated through subsample overlap, which is what couples
    the M = 2 and M = inf expressions to both R_1 and R_inf.
    """
    _validate_aspects(lam, phi, phis)
    if math.isinf(phis) or math.isinf(lam):
        # Null predictor: training and test errors coincide.
        return model.null_risk
    return _training_error(_solve(lam, phis, model), phi, M, model)


def gcv_limit(lam: float, phi: float, phis: float, model: ModelSpec) -> float:
    """Limit of the full-ensemble GCV statistic (training error over squared
    denominator). Coincides with the full-ensemble risk."""
    _validate_aspects(lam, phi, phis)
    point = _solve(lam, phis, model)
    if math.isinf(phis):
        num = model.null_risk  # null predictor
    else:
        num = _training_error(point, phi, math.inf, model)
    return num / _denominator(point.sol.ell, phi, phis)


def gcv_limit_finite_M(
    lam: float, phi: float, phis: float, model: ModelSpec, M: float
) -> float:
    """Limit of the GCV statistic computed from an M-member ensemble.

    For finite M the union of subsamples covers only part of the data, and
    the limit blends training errors and risks of one- and two-member
    ensembles. It equals the M-member risk when phis = phi, and converges to
    the full-ensemble risk as M grows, but is inflated at intermediate M
    with subsampling.
    """
    _validate_aspects(lam, phi, phis)
    if math.isinf(M):
        return gcv_limit(lam, phi, phis, model)
    if M < 1 or M != int(M):
        raise ValueError("M must be a positive integer or inf")
    if math.isinf(phis) or math.isinf(lam):
        return model.null_risk
    point = _solve(lam, phis, model)
    x = phi / phis
    cover = 1.0 - (1.0 - x) ** M  # limiting covered fraction |union| / n
    e = {}
    for j in (1, 2):
        c_j = (1.0 - (1.0 - x) ** j) / cover
        t_j = _training_error(point, phi, j, model)
        r_j = _decomposition(point, phi, j, model).risk
        e[j] = c_j * t_j + (1.0 - c_j) * r_j
    if M == 1:
        numerator = e[1]
    else:
        numerator = 2.0 * e[2] - e[1] + (2.0 / M) * (e[1] - e[2])
    u = x / cover
    denominator = (1.0 - u * (1.0 - point.sol.ell)) ** 2
    if denominator == 0.0:
        # Only possible when ell = 0 and the union is a single subsample
        # (M = 1 or phis = phi); the ell^2 factor then cancels exactly
        # against the numerator, leaving the M-member risk.
        return _decomposition(point, phi, M, model).risk
    return numerator / denominator


def inconsistency_gap(phi: float, phis: float, model: ModelSpec) -> float:
    """Excess of the two-member ridgeless GCV limit over the true two-member
    risk. Strictly positive whenever phis > phi, so GCV computed from a small
    ensemble is not a consistent risk estimate under subsampling."""
    if not phis > phi:
        raise ValueError("gap is defined for proper subsampling, phis > phi")
    estimate = gcv_limit_finite_M(0.0, phi, phis, model, M=2)
    actual = asymptotic_risk(0.0, phi, phis, model, M=2).risk
    return estimate - actual


def contour_lambda_for_phis(phi: float, phis_bar: float, H: SpectralMeasure) -> float:
    """Full-data penalty equivalent to ridgeless fitting at aspect phis_bar.

    The segment from (lam_bar, phis = phi) to (0, phis_bar) parameterized by
    ((1 - t) * lam_bar, phi + t * (phis_bar - phi)) has constant
    full-ensemble risk.
    """
    if not phis_bar >= phi:
        raise ValueError("phis_bar must be at least phi")
    sol = solve_v(0.0, phis_bar, H)
    if not sol.finite:
        # Interpolating members (phis_bar < 1): equivalent penalty is zero.
        return 0.0
    v = sol.v
    integral = float(np.sum(H.weights * H.values / (1.0 + v * H.values)))
    return (phis_bar - phi) * integral


def equivalence_path(
    phi: float, phis_bar: float, model: ModelSpec, num: int = 11
) -> list[ContourPoint]:
    """Sample the equivalence segment and evaluate the full-ensemble risk at
    each point. The risk column is constant up to solver tolerance."""
    lam_bar = contour_lambda_for_phis(phi, phis_bar, model.H)
    points = []
    for t in np.linspace(0.0, 1.0, num):
        lam = (1.0 - t) * lam_bar
        phis = phi + t * (phis_bar - phi)
        risk = asymptotic_risk(lam, phi, phis, model).risk
        points.append(ContourPoint(float(t), float(lam), float(phis), risk))
    return points


def _golden_section(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Locate the minimizer of a unimodal f on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _minimize_on_grid(f, grid: np.ndarray) -> tuple[float, float]:
    """Coarse scan followed by golden-section refinement between the grid
    neighbours of the best point. Returns (argmin, min)."""
    values = np.array([f(x) for x in grid])
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if lo == hi:
        return float(grid[i]), float(values[i])
    xstar = _golden_section(f, float(lo), float(hi))
    fstar = f(xstar)
    if fstar <= values[i]:
        return xstar, fstar
    return float(grid[i]), float(values[i])


def optimal_lambda(
    phi: float,
    phis: float,
    model: ModelSpec,
    M: float = math.inf,
    lam_grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """Penalty minimizing the M-member ensemble risk at fixed aspects.

    Returns (lam, risk); lam may be 0 or inf (null predictor) when a
    boundary wins.
    """

    def f(lam):
        return asymptotic_risk(lam, phi, phis, model, M=M).risk

    if lam_grid is None:
        lam_grid = np.concatenate(([0.0], np.logspace(-6, 4, 81)))
    lam_grid = np.asarray(lam_grid, dtype=float)
    if phis == 1.0:
        lam_grid = lam_grid[lam_grid > 0.0]  # ridgeless excluded at aspect 1
    best_lam, best_risk = _minimize_on_grid(f, lam_grid)
    null = model.null_risk
    if null < best_risk:
        return math.inf, null
    return best_lam, best_risk


def optimal_subsample(
    lam: float,
    phi: float,
    model: ModelSpec,
    M: float = math.inf,
    phis_max: float = 1e4,
) -> tuple[float, float]:
    """Subsample aspect ratio minimizing the M-member ensemble risk at a
    fixed penalty. Returns (phis, risk); phis may be inf (null predictor)."""

    def f(phis):
        return asymptotic_risk(lam, phi, phis, model, M=M).risk

    grid = np.geomspace(max(phi, 1e-8), phis_max, 161)
    if lam == 0.0:
        # The risk blows up at aspect 1 without a penalty; search each side.
        grid = grid[np.abs(grid - 1.0) > 1e-8]
        candidates = [g for g in (grid[grid < 1.0], grid[grid > 1.0]) if len(g)]
    else:
        candidates = [grid]
    best_phis, best_risk = math.inf, model.null_risk
    for g in candidates:
        phis, risk = _minimize_on_grid(f, g)
        if risk < best_risk:
            best_phis, best_risk = phis, risk
    return best_phis, best_risk


def risk_surface(
    phi: float,
    lam_grid: np.ndarray,
    phis_grid: np.ndarray,
    model: ModelSpec,
    M: float = math.inf,
) -> np.ndarray:
    """Risk on the product grid, shaped (len(lam_grid), len(phis_grid)).

    Grid points outside the theory's domain (phis below phi, or the
    excluded ridgeless point at aspect 1, or a divergent-variance regime)
    are returned as NaN rather than raising: exactly the cells where
    :func:`asymptotic_risk` raises ValueError. The fixed point is solved in
    blocks of at most BLOCK_CELLS cells.
    """
    lam = np.asarray(lam_grid, dtype=float)
    phis = np.asarray(phis_grid, dtype=float)
    out = np.full((lam.size, phis.size), np.nan)
    if not (phi > 0 and M >= 1):
        return out
    lam_cells, phis_cells = (a.ravel() for a in np.meshgrid(lam, phis, indexing="ij"))
    risk = out.ravel()
    valid = (phis_cells >= phi) & (lam_cells >= 0.0)
    null = valid & (np.isinf(phis_cells) | np.isinf(lam_cells))
    risk[null] = model.null_risk
    cells = np.flatnonzero(
        valid & ~null & ~((lam_cells == 0.0) & (phis_cells == 1.0)))
    for start in range(0, cells.size, BLOCK_CELLS):
        block = cells[start:start + BLOCK_CELLS]
        lam_b, phis_b = lam_cells[block], phis_cells[block]
        v, _, a_hat = _solve_block(lam_b, phis_b, model.H)
        ok = 1.0 - phis_b * a_hat > 0.0
        bias, variance = _bias_variance(
            phi, phis_b[ok], M, a_hat[ok], _tilde_c_values(v[ok], model.G), model)
        risk[block[ok]] = model.sigma2 + bias + variance
    return out
