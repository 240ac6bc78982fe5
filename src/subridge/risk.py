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
subsample aspect ratio. The scalar limits share one prologue, under which
every limit of the null predictor (lam = inf or phis = inf) is its risk, and
one GCV formula serves every M, inf included. The risk surface, the
optimizers and the equivalence segment share one evaluator, `_risk_cells`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixed_point import (
    DivergentVarianceError,
    FixedPointSolution,
    _block_cells,
    _solve_block,
    _tilde_c_values,
    solve_v,
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
    "surface_nan_reasons",
]

# After a grid scan, the optimizers zoom in on the best point's bracket with
# _ZOOM_POINTS cells per step until it is under _XTOL relative.
_ZOOM_POINTS = 17
_XTOL = 1e-10


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


def _check_phi(phi: float) -> None:
    if not 0 < phi < math.inf:
        raise ValueError("phi must be positive and finite")


def _validate_aspects(lam: float, phi: float, phis: float) -> None:
    _check_phi(phi)
    if not phis >= phi:
        raise ValueError("phis must be at least phi")
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")


@dataclass(frozen=True)
class _Solved:
    """One solved (lam, phis) cell: its fixed point and bias constant c~."""

    sol: FixedPointSolution
    c_tilde: float


def _is_ensemble_size(M: float) -> bool:
    return M >= 1 and (M == math.inf or M == int(M))


def _cell_step(phis, v, a_hat, G: SpectralMeasure):
    """The bias constant c~ of solved cells, one or a block, and whether their
    self variance converges: 1 - phis * Ahat > 0."""
    return _tilde_c_values(v, G), 1.0 - phis * a_hat > 0.0


def _solve_cell(lam, phi, phis, model: ModelSpec, M) -> _Solved | None:
    """The prologue of every scalar limit: check (lam, phi, phis) and M, then
    solve the cell once, raising DivergentVarianceError where its variance
    diverges. None stands for the null predictor (lam = inf or phis = inf),
    which fits nothing: every limit of it is its risk."""
    _validate_aspects(lam, phi, phis)
    if not _is_ensemble_size(M):
        raise ValueError("M must be a positive integer or inf")
    if math.isinf(phis) or math.isinf(lam):
        return None
    sol = solve_v(lam, phis, model.H)
    (c_tilde,), converges = _cell_step(
        phis, np.array([sol.v]), sol.scaled_second_moment, model.G)
    if not converges:
        raise DivergentVarianceError(
            f"vartheta = {phis} at or above the interpolation threshold")
    return _Solved(sol, float(c_tilde))


def _bias_variance(phi, phis, M, a_hat, c_tilde, model: ModelSpec):
    """Bias and variance of the M-member ensemble, elementwise over floats or
    arrays. The caller checks the self component (vartheta = phis) for
    divergence; the cross component (vartheta = phi <= phis) then converges.
    Each reads vtilde = vartheta*A / (v^-2 - vartheta*A), A = int r^2 (1+vr)^-2 dH,
    as vartheta*Ahat / (1 - vartheta*Ahat), regular at v = +inf."""

    def component(vartheta):
        vt = vartheta * a_hat / (1.0 - vartheta * a_hat)
        return model.rho2 * (1.0 + vt) * c_tilde, model.sigma2 * vt

    b_self, v_self = component(phis)
    if M == 1:
        return b_self, v_self
    b_cross, v_cross = component(phi)
    w = 1.0 / M
    return w * b_self + (1.0 - w) * b_cross, w * v_self + (1.0 - w) * v_cross


def _decomposition(point: _Solved, phi: float, M: float,
                   model: ModelSpec) -> RiskDecomposition:
    sol = point.sol
    bias, variance = _bias_variance(
        phi, sol.theta, M, sol.scaled_second_moment, point.c_tilde, model)
    return RiskDecomposition(sol.lam, phi, sol.theta, M, model.sigma2, bias, variance)


def asymptotic_risk(
    lam: float, phi: float, phis: float, model: ModelSpec, M: float = math.inf
) -> RiskDecomposition:
    """Limiting out-of-sample risk of the M-member subsample ridge ensemble.

    M is a positive integer or inf. ``phis = inf`` (subsample size
    negligible next to p) and ``lam = inf`` both collapse to the null
    predictor, whose risk is ``sigma2 + rho2 * int r dG``.
    """
    point = _solve_cell(lam, phi, phis, model, M)
    if point is None:
        return RiskDecomposition(
            lam, phi, phis, M,
            sigma2=model.sigma2, bias=model.rho2 * model.G.mean(), variance=0.0,
        )
    return _decomposition(point, phi, M, model)


def _risk_cells(
    phi: float, lam: np.ndarray, phis: np.ndarray, model: ModelSpec,
    M: float = math.inf,
) -> np.ndarray:
    """Risk per (lam, phis) cell of two 1-d arrays.

    The risk is NaN exactly where :func:`asymptotic_risk` raises
    ValueError: phis below phi, the excluded ridgeless point at aspect 1,
    a divergent variance, or any M but a positive integer or inf.
    A cell's bits do not depend on the block that solves it, so each
    equals :func:`asymptotic_risk`'s."""
    risk = np.full(lam.shape, np.nan)
    if not (phi > 0 and _is_ensemble_size(M)):
        return risk
    valid = (phis >= phi) & (lam >= 0.0)
    null = valid & (np.isinf(phis) | np.isinf(lam))
    risk[null] = model.null_risk
    cells = np.flatnonzero(valid & ~null & ~((lam == 0.0) & (phis == 1.0)))
    size = _block_cells(model.H)
    for start in range(0, cells.size, size):
        block = cells[start:start + size]
        phis_b = phis[block]
        v, _, a_hat = _solve_block(lam[block], phis_b, model.H)
        c_tilde, ok = _cell_step(phis_b, v, a_hat, model.G)
        bias, variance = _bias_variance(
            phi, phis_b[ok], M, a_hat[ok], c_tilde[ok], model)
        risk[block[ok]] = model.sigma2 + bias + variance
    return risk


def _left_out(x: float, M: float) -> float:
    """Share (1 - x)^M of the data that no member of an M-member ensemble
    trains on, with x = phi/phis: exactly 0 at M = inf."""
    return 0.0 if math.isinf(M) else (1.0 - x) ** M


def _gcv_denominator(ell: float, x: float, M: float) -> float:
    """Squared denominator of the M-member GCV limit, u = x over the cover."""
    u = x / (1.0 - _left_out(x, M))
    return (1.0 - u * (1.0 - ell)) ** 2


def gcv_denominator_limit(
    lam: float, phi: float, phis: float, H: SpectralMeasure
) -> float:
    """Limit of the squared GCV denominator for the full ensemble; 1.0 for
    the null predictor (lam = inf or phis = inf)."""
    _validate_aspects(lam, phi, phis)
    if math.isinf(phis) or math.isinf(lam):
        return 1.0
    return _gcv_denominator(solve_v(lam, phis, H).ell, phi / phis, math.inf)


def _training_error(point: _Solved, phi: float, M: float, model: ModelSpec) -> float:
    """Limit of the M-member ensemble's training error over the union of its
    subsamples. M = 1 (ell^2 R_1) and M = 2 (the two-member weights) have
    closed forms. Every other M, inf included, blends them with the one- and
    two-member risks: with x = phi/phis and q = 1 - x the union covers
    1 - q^M of the data, of which j members train on (1 - q^j) / cover and
    leave out (q^j - q^M) / cover. Blending t_j and R_j by those shares into
    e_j gives 2 e_2 - e_1 + (2/M)(e_1 - e_2). The left-out share is formed
    as written, not as 1 minus the other, so the error, ~q^2 R_inf near
    phis = phi, keeps its digits.
    """
    ell = point.sol.ell
    r1 = _decomposition(point, phi, 1, model).risk
    t1 = ell * ell * r1
    if M == 1:
        return t1
    x = phi / point.sol.theta
    rinf = _decomposition(point, phi, math.inf, model).risk
    d = 2.0 - x
    on_r1 = 0.5 * ((1.0 - x) + ell * ell) / d  # the two-member weights
    on_rinf = 0.5 * (2.0 * ell * (1.0 - x) + ell * ell * x) / d
    t2 = on_r1 * r1 + on_rinf * rinf
    if M == 2:
        return t2
    r2 = _decomposition(point, phi, 2, model).risk
    q = 1.0 - x
    q_M = _left_out(x, M)
    cover = 1.0 - q_M
    e1, e2 = (((1.0 - q ** j) * t + (q ** j - q_M) * r) / cover
              for j, t, r in ((1, t1, r1), (2, t2, r2)))
    return 2.0 * e2 - e1 + (2.0 / M) * (e1 - e2)


def training_error_limit(
    lam: float, phi: float, phis: float, model: ModelSpec, M: float
) -> float:
    """Limit of the ensemble training error over the union of subsamples,
    for a positive integer M or M = inf.

    M = 1 and M = 2 have closed forms; every other M blends them with the
    one- and two-member risks over the share of the union each covers. The
    residuals of distinct members are correlated through subsample overlap,
    which couples every M >= 2 to both R_1 and R_inf.
    """
    point = _solve_cell(lam, phi, phis, model, M)
    if point is None:
        return model.null_risk
    return _training_error(point, phi, M, model)


def gcv_limit(lam: float, phi: float, phis: float, model: ModelSpec) -> float:
    """Limit of the full-ensemble GCV statistic, :func:`gcv_limit_finite_M`
    at M = inf. Coincides with the full-ensemble risk."""
    return gcv_limit_finite_M(lam, phi, phis, model, math.inf)


def gcv_limit_finite_M(
    lam: float, phi: float, phis: float, model: ModelSpec, M: float
) -> float:
    """Limit of the GCV statistic computed from an M-member ensemble.

    One formula serves every M, inf included: the union training error of
    :func:`training_error_limit` over (1 - u (1 - ell))^2, with u = phi/phis
    over the union's cover 1 - (1 - phi/phis)^M, which is 1 at M = inf. The
    limit equals the M-member risk when phis = phi (also at lam = 0, where
    both terms vanish), and converges to the full-ensemble risk as M grows,
    but is inflated at intermediate M with subsampling.
    """
    point = _solve_cell(lam, phi, phis, model, M)
    if point is None:
        return model.null_risk
    denominator = _gcv_denominator(point.sol.ell, phi / phis, M)
    if denominator == 0.0:
        # Only possible when ell = 0 and the union is a single subsample
        # (M = 1 or phis = phi); the ell^2 factor then cancels exactly
        # against the numerator, leaving the M-member risk.
        return _decomposition(point, phi, M, model).risk
    return _training_error(point, phi, M, model) / denominator


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
    full-ensemble risk. lam_bar = (phis_bar - phi) int r/(1 + vr) dH, and at
    lam = 0 the fixed point gives that integral as 1/(v phis_bar).
    """
    _check_phi(phi)
    if not phis_bar >= phi:
        raise ValueError("phis_bar must be at least phi")
    if math.isinf(phis_bar):
        return math.inf  # the null predictor
    # Interpolating members (phis_bar < 1, v = inf) give a zero penalty.
    return (phis_bar - phi) / (phis_bar * solve_v(0.0, phis_bar, H).v)


def equivalence_path(
    phi: float, phis_bar: float, model: ModelSpec, num: int = 11
) -> list[ContourPoint]:
    """Sample the equivalence segment and evaluate the full-ensemble risk at
    each point. The risk column is constant up to solver tolerance."""
    lam_bar = contour_lambda_for_phis(phi, phis_bar, model.H)
    t = np.linspace(0.0, 1.0, num)
    # Exact ends: at phis_bar = inf no end multiplies inf by 0.
    lam = np.multiply(1.0 - t, lam_bar, out=np.zeros(num), where=t < 1.0)
    phis = phi + np.multiply(t, phis_bar - phi, out=np.zeros(num), where=t > 0.0)
    risk = _risk_cells(phi, lam, phis, model)
    return [ContourPoint(*map(float, cell)) for cell in zip(t, lam, phis, risk)]


def _zoom_min(risk_at, grid: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(argmin, min) of risk_at from its values on a sorted grid. Each step
    evaluates one linspace of the bracket between the best point's
    neighbours, until the bracket is under _XTOL relative."""
    i = int(np.nanargmin(values))
    best_x, best_r = grid[i], values[i]
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    while hi - lo > _XTOL * max(1.0, abs(lo) + abs(hi)):
        x = np.linspace(lo, hi, _ZOOM_POINTS)
        r = risk_at(x)
        j = int(np.nanargmin(r))
        if r[j] < best_r:
            best_x, best_r = x[j], r[j]
        lo, hi = x[max(j - 1, 0)], x[min(j + 1, x.size - 1)]
    return float(best_x), float(best_r)


def optimal_lambda(phi: float, phis: float, model: ModelSpec) -> tuple[float, float]:
    """Penalty minimizing the full-ensemble risk at fixed aspects.

    Returns (lam, risk); lam may be 0 or inf (null predictor) when a
    boundary wins.
    """
    _validate_aspects(0.0, phi, phis)

    def risk_at(lam):
        return _risk_cells(phi, lam, np.full(lam.shape, float(phis)), model)

    grid = np.concatenate(([0.0], np.logspace(-6, 4, 81)))
    if phis == 1.0:
        grid = grid[grid > 0.0]  # ridgeless excluded at aspect 1
    best_lam, best_risk = _zoom_min(risk_at, grid, risk_at(grid))
    null = model.null_risk
    if null < best_risk:
        return math.inf, null
    return best_lam, best_risk


def optimal_subsample(lam: float, phi: float, model: ModelSpec) -> tuple[float, float]:
    """Subsample aspect ratio minimizing the full-ensemble risk at a fixed
    penalty. Returns (phis, risk); phis may be inf (null predictor)."""
    _validate_aspects(lam, phi, phi)

    def risk_at(phis):
        return _risk_cells(phi, np.full(phis.shape, float(lam)), phis, model)

    grid = np.geomspace(max(phi, 1e-8), 1e4, 161)
    if lam == 0.0:
        # Aspect 1 is excluded without a penalty; search each side. The
        # side above 1 opens at 1 itself, whose NaN cell nanargmin skips, so
        # the zoom reaches an optimum inside the first grid cell above 1.
        grid = grid[np.abs(grid - 1.0) > 1e-8]
        if phi <= 1.0:
            grid = np.insert(grid, np.searchsorted(grid, 1.0), 1.0)
        sides = [grid < 1.0, grid >= 1.0]
    else:
        sides = [np.ones(grid.size, dtype=bool)]
    values = risk_at(grid)
    best_phis, best_risk = math.inf, model.null_risk
    for side in sides:
        if side.any():
            phis, risk = _zoom_min(risk_at, grid[side], values[side])
            if risk < best_risk:
                best_phis, best_risk = phis, risk
    return best_phis, best_risk


def risk_surface(
    phi: float, lam_grid: np.ndarray, phis_grid: np.ndarray, model: ModelSpec,
    M: float = math.inf,
) -> np.ndarray:
    """Risk on the product grid, shaped (len(lam_grid), len(phis_grid)).

    Grid points outside the theory's domain are NaN rather than raising,
    as in :func:`_risk_cells`, whose one call solves every cell, so each
    cell equals :func:`asymptotic_risk`'s and a repeated lam repeats its
    row bit for bit.
    """
    lam = np.ravel(np.asarray(lam_grid, dtype=float))
    phis = np.ravel(np.asarray(phis_grid, dtype=float))
    risk = _risk_cells(phi, np.repeat(lam, phis.size),
                       np.tile(phis, lam.size), model, M)
    return risk.reshape(lam.size, phis.size)


def surface_nan_reasons(
    phi: float, lam_grid: np.ndarray, phis_grid: np.ndarray, surface: np.ndarray
) -> dict[str, int]:
    """Count of the NaN cells of a :func:`risk_surface` by reason, for
    lam >= 0: phis below phi, the excluded ridgeless point at aspect 1, and
    (every other NaN cell) a divergent variance."""
    lam = np.asarray(lam_grid, dtype=float)[:, None]
    phis = np.asarray(phis_grid, dtype=float)[None, :]
    nan = np.isnan(surface)
    below = nan & (phis < phi)
    excluded = nan & ~below & (lam == 0.0) & (phis == 1.0)
    return {
        "phis_below_phi": int(below.sum()),
        "excluded_boundary": int(excluded.sum()),
        "divergent_variance": int((nan & ~below & ~excluded).sum()),
    }
