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
every limit of the null predictor (lam = inf or phis = inf) is its risk and
every other cell is solved once per process (the last SOLVE_MEMO_SIZE cells
are kept). One closed form in 1/M gives the union training error, and one
GCV formula divides it, for every M, inf included. The risk surface, the
optimizers and the equivalence segment share one evaluator, `_risk_cells`,
which keeps nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fixed_point import (
    DivergentVarianceError,
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
# Solved cells the scalar limits keep per process; the least recently used
# is dropped first.
SOLVE_MEMO_SIZE = 1024


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
    """One solved (lam, phis) cell, as its caller gave it: ell = lam * v,
    the scaled second moment Ahat and the bias constant c~."""

    lam: float
    phis: float
    ell: float
    a_hat: float
    c_tilde: float


def _check_ensemble_size(M: float) -> None:
    if not (M >= 1 and (M == math.inf or M == int(M))):
        raise ValueError("M must be a positive integer or inf")


def _cell_step(phis, v, a_hat, G: SpectralMeasure):
    """The bias constant c~ of solved cells, one or a block, and whether their
    self variance converges: 1 - phis * Ahat > 0."""
    return _tilde_c_values(v, G), 1.0 - phis * a_hat > 0.0


@lru_cache(maxsize=SOLVE_MEMO_SIZE)
def _solved_cell(lam: float, phis: float, H: SpectralMeasure,
                 G: SpectralMeasure) -> tuple[float, float, float]:
    """(ell, Ahat, c~) of one regular cell, raising DivergentVarianceError
    where its variance diverges. A cell that raises is not remembered."""
    sol = solve_v(lam, phis, H)
    (c_tilde,), converges = _cell_step(
        phis, np.array([sol.v]), sol.scaled_second_moment, G)
    if not converges:
        raise DivergentVarianceError(
            f"vartheta = {phis} at or above the interpolation threshold")
    return sol.ell, sol.scaled_second_moment, float(c_tilde)


def _solve_cell(lam, phi, phis, model: ModelSpec, M) -> _Solved | None:
    """The prologue of every scalar limit: check (lam, phi, phis) and M, then
    read the solved cell from `_solved_cell`, which measures key by
    identity. None stands for the null predictor (lam = inf or phis = inf),
    which fits nothing: every limit of it is its risk."""
    _validate_aspects(lam, phi, phis)
    _check_ensemble_size(M)
    if math.isinf(phis) or math.isinf(lam):
        return None
    # One entry, with ell = +0.0, for lam = 0, 0.0 and -0.0.
    return _Solved(lam, phis,
                   *_solved_cell(float(lam) + 0.0, phis, model.H, model.G))


def _bias_variance(phi, phis, M, a_hat, c_tilde, model: ModelSpec):
    """Bias and variance of the M-member ensemble, elementwise over floats or
    arrays: 1/M of the self component (vartheta = phis), which the caller
    checks for divergence, and 1 - 1/M of the cross one (vartheta = phi <=
    phis), which then converges; at M = 1 the sum has the self one's bits.
    Each reads vtilde = vartheta*A / (v^-2 - vartheta*A), A = int r^2 (1+vr)^-2 dH,
    as vartheta*Ahat / (1 - vartheta*Ahat), regular at v = +inf."""

    def component(vartheta):
        vt = vartheta * a_hat / (1.0 - vartheta * a_hat)
        return model.rho2 * (1.0 + vt) * c_tilde, model.sigma2 * vt

    b_self, v_self = component(phis)
    b_cross, v_cross = component(phi)
    w = 1.0 / M
    return w * b_self + (1.0 - w) * b_cross, w * v_self + (1.0 - w) * v_cross


def _decomposition(point: _Solved, phi: float, M: float,
                   model: ModelSpec) -> RiskDecomposition:
    bias, variance = _bias_variance(
        phi, point.phis, M, point.a_hat, point.c_tilde, model)
    return RiskDecomposition(point.lam, phi, point.phis, M, model.sigma2,
                             bias, variance)


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
    """Risk per (lam, phis) cell of two 1-d arrays, for a valid phi and M.

    The risk is NaN exactly where :func:`asymptotic_risk` raises
    ValueError: phis below phi, lam negative, the excluded ridgeless point
    at aspect 1, or a divergent variance. A cell's bits do not depend on
    the block that solves it, so each equals :func:`asymptotic_risk`'s."""
    risk = np.full(lam.shape, np.nan)
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
    """Squared denominator ((1 - u) + u ell)^2 of the M-member GCV limit, u = x
    over the cover: two nonnegative terms, so nothing cancels as u -> 1, and
    at ell = 0 the bits of 1 - u."""
    u = x / (1.0 - _left_out(x, M))
    return ((1.0 - u) + u * ell) ** 2


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
    """Limit T_M of the M-member union training error, one form in 1/M for
    every M, inf included. With x = phi/phis, q = 1 - x and ell = lam v,

        T_M (1 - q^M) = (R_1/M) (q - q^M + x ell^2)
                        + (1 - 1/M) R_inf ((q + x ell)^2 - q^M).

    That is the share blend 2 e_2 - e_1 + (2/M)(e_1 - e_2) of the one- and
    two-member errors on the cover 1 - q^M, with R_2 = (R_1 + R_inf)/2,
    collapsed by xq + q^2 = q and q^2 + 2xq ell + x^2 ell^2 = (q + x ell)^2.
    It is ell^2 R_1 at M = 1 (times x/(1 - q), the cover's rounding), the
    two-member weights at M = 2 and R_inf (q + x ell)^2 at M = inf, where
    the GCV denominator is (q + x ell)^2. Near phis = phi nothing cancels."""
    ell = point.ell
    x = phi / point.phis
    q = 1.0 - x
    q_M = _left_out(x, M)
    r1 = _decomposition(point, phi, 1, model).risk
    rinf = _decomposition(point, phi, math.inf, model).risk
    w = 1.0 / M
    return (w * r1 * (q - q_M + x * ell * ell)
            + (1.0 - w) * rinf * ((q + x * ell) ** 2 - q_M)) / (1.0 - q_M)


def training_error_limit(
    lam: float, phi: float, phis: float, model: ModelSpec, M: float
) -> float:
    """Limit of the ensemble training error over the union of subsamples, for
    a positive integer M or M = inf: one closed form in 1/M (`_training_error`).
    The residuals of distinct members are correlated through subsample
    overlap, which couples every M >= 2 to both R_1 and R_inf."""
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
    :func:`training_error_limit` over ((1 - u) + u ell)^2, with u = phi/phis
    over the union's cover 1 - (1 - phi/phis)^M, which is 1 at M = inf. The
    limit equals the M-member risk when phis = phi (also at lam = 0, where
    both terms vanish), and converges to the full-ensemble risk as M grows,
    but is inflated at intermediate M with subsampling.
    """
    point = _solve_cell(lam, phi, phis, model, M)
    if point is None:
        return model.null_risk
    denominator = _gcv_denominator(point.ell, phi / phis, M)
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

    A phi or an M that every cell would reject raises the scalar limits'
    ValueError. Other grid points outside the theory's domain are NaN
    rather than raising, as in :func:`_risk_cells`, whose one call solves
    every cell, so each cell equals :func:`asymptotic_risk`'s and a
    repeated lam repeats its row bit for bit.
    """
    _check_phi(phi)
    _check_ensemble_size(M)
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
