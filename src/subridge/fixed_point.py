"""Scalar fixed point governing the asymptotic behaviour of ridge ensembles.

For a penalty ``lam >= 0`` and an aspect ratio ``theta``, v solves

    1/v = lam + theta * int r / (1 + v r) dH(r),

with the boundary conventions v = +inf at (lam = 0, theta < 1) and v = 0 at
theta = +inf. The continuously extended product ell = lam * v and the
rescaled second moment v^2 * int r^2 (1 + v r)^-2 dH stay finite in every
regime and are what downstream formulas consume. Every integral against
H here reads its Gauss rule (``H._rule``, see ``spectra._gauss_rule``),
which matches the atom sums to rounding with fewer nodes.

One Newton core solves a block of (lam, theta) cells at once, started at
x = 0; the scalar :func:`solve_v` runs it on a one-cell block. Its sums
over nodes run in numpy's einsum loop, which rounds a row alike in any
block, so a cell depends only on (lam, theta, H).
:func:`newton_counts` reports the core's work in the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import SpectralMeasure

__all__ = [
    "FixedPointSolution",
    "ExcludedBoundaryError",
    "DivergentVarianceError",
    "FixedPointConvergenceError",
    "solve_v",
]

RESIDUAL_TOL = 1e-12
MAX_ITER = 200
# Largest cells x nodes of H's Gauss rule solved together: the core's
# temporaries hold that many doubles. Unblocked, an 81 x 100 grid on a
# spectrum that does not compress (500 nodes) adds ~144 MB of peak memory,
# while blocks of 256 such cells add none measurable.
BLOCK_BUDGET = 256 * 500


class ExcludedBoundaryError(ValueError):
    """The pair (lam = 0, theta = 1) is outside the theory's domain."""


class DivergentVarianceError(ValueError):
    """vartheta at or above the interpolation threshold: variance diverges."""


class FixedPointConvergenceError(RuntimeError):
    """The Newton core stalled or left a residual above RESIDUAL_TOL."""


@dataclass(frozen=True)
class FixedPointSolution:
    """Solved fixed point for one (lam, theta) pair.

    v may be +inf (ridgeless, theta < 1); ell and scaled_second_moment are
    its finite continuous extensions.
    """

    lam: float
    theta: float
    v: float
    ell: float
    scaled_second_moment: float


_NEWTON_COUNTS = {"blocks": 0, "cells": 0, "cell_steps": 0}


def newton_counts() -> dict[str, int]:
    """The Newton core's work so far in this process: blocks solved, cells
    and cell-steps (active cells summed over steps). A caller reads its own
    work as the change between two calls."""
    return dict(_NEWTON_COUNTS)


def _block_cells(H: SpectralMeasure) -> int:
    """Most cells a block on H holds: BLOCK_BUDGET over H's rule nodes, >= 1."""
    return max(1, BLOCK_BUDGET // H._rule[0].size)


def _newton(lam: np.ndarray, theta: np.ndarray, H: SpectralMeasure) -> np.ndarray:
    """Roots of F(x) = lam x + theta int xr/(1+xr) dH - 1, one per cell.

    F is increasing and concave with F(0) = -1, so Newton steps started at
    x = 0 rise monotonically to the root; a cell is done once its step no
    longer moves x forward, which happens when rounding reaches the root.
    Cells must be regular: theta finite, and lam > 0 or theta > 1.

    With q = 1/(1+xr), F(x) = x s - 1 with s = lam + theta int r q dH, and
    F'(x) = lam + theta int r q^2 dH, so one (cells x nodes) buffer serves
    both integrals, each read from H's Gauss rule. The step at which a cell
    stops evaluates s at its final x, which is the right-hand side of
    1/v = s that the RESIDUAL_TOL check compares with 1/x.
    """
    nodes, weights = H._rule
    wr = weights * nodes
    x = np.zeros(lam.shape)
    rhs = np.empty(lam.shape)
    active = np.arange(lam.size)
    steps = 0
    for _ in range(MAX_ITER):
        xa, la, ta = x[active], lam[active], theta[active]
        steps += active.size
        q = np.multiply.outer(xa, nodes)
        q += 1.0
        np.reciprocal(q, out=q)
        s = la + ta * np.einsum("ij,j->i", q, wr)
        F = xa * s - 1.0
        q *= q
        x_new = xa - F / (la + ta * np.einsum("ij,j->i", q, wr))
        moved = x_new > xa
        x[active[moved]] = x_new[moved]
        rhs[active[~moved]] = s[~moved]
        active = active[moved]
        if not active.size:
            break
    _NEWTON_COUNTS["blocks"] += 1
    _NEWTON_COUNTS["cells"] += lam.size
    _NEWTON_COUNTS["cell_steps"] += steps
    if active.size:
        i = active[0]
        raise FixedPointConvergenceError(
            f"Newton still moving after {MAX_ITER} steps at "
            f"lam = {float(lam[i])!r}, theta = {float(theta[i])!r}"
        )

    lhs = 1.0 / x
    # A root beyond the float range overflows to x = inf with residual 0.
    small = np.abs(lhs - rhs) <= RESIDUAL_TOL * np.maximum(lhs, 1.0)
    bad = np.flatnonzero(~(np.isfinite(x) & small))
    if bad.size:
        i = bad[0]
        raise FixedPointConvergenceError(
            f"v = {float(x[i])!r} with residual {abs(lhs[i] - rhs[i]):.3e} at "
            f"lam = {float(lam[i])!r}, theta = {float(theta[i])!r}"
        )
    return x


def _scaled_second_moment(x: np.ndarray, H: SpectralMeasure) -> np.ndarray:
    """int (x r / (1 + x r))^2 dH per cell, monotone in x with limit 1,
    from H's Gauss rule."""
    nodes, weights = H._rule
    t = np.multiply.outer(x, nodes)
    return np.einsum("ij,j->i", (t / (1.0 + t)) ** 2, weights)


def _solve_block(
    lam: np.ndarray, theta: np.ndarray, H: SpectralMeasure
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, ell, scaled second moment) for up to _block_cells(H) cells.

    Same conventions and errors as :func:`solve_v`; one offending cell
    raises for the block.
    """
    if lam.size > _block_cells(H):
        raise ValueError(f"a block on H holds at most {_block_cells(H)} cells")
    if not np.all((lam >= 0.0) & (lam < math.inf)):
        raise ValueError("lam must be finite and nonnegative")
    if not np.all(theta > 0.0):
        raise ValueError("theta must be positive")
    if np.any((lam == 0.0) & (theta == 1.0)):
        raise ExcludedBoundaryError("lam = 0 with theta = 1 is excluded")

    # theta = inf keeps v = ell = Ahat = 0.
    v, ell, a_hat = np.zeros(lam.shape), np.zeros(lam.shape), np.zeros(lam.shape)
    interpolating = (lam == 0.0) & (theta < 1.0)
    v[interpolating] = math.inf
    ell[interpolating] = 1.0 - theta[interpolating]
    a_hat[interpolating] = 1.0
    regular = ~interpolating & (theta < math.inf)
    if regular.any():
        x = _newton(lam[regular], theta[regular], H)
        v[regular] = x
        ell[regular] = lam[regular] * x
        a_hat[regular] = _scaled_second_moment(x, H)
    return v, ell, a_hat


def solve_v(lam: float, theta: float, H: SpectralMeasure) -> FixedPointSolution:
    """Solve the fixed-point equation for v(-lam; theta).

    Handles the boundary regimes: theta = +inf gives v = 0; lam = 0 with
    theta < 1 gives v = +inf with ell = 1 - theta; lam = 0 with theta = 1
    is excluded.
    """
    v, ell, a_hat = _solve_block(np.array([lam], dtype=float),
                                 np.array([theta], dtype=float), H)
    return FixedPointSolution(lam, theta, v=float(v[0]), ell=float(ell[0]),
                              scaled_second_moment=float(a_hat[0]))


def _tilde_c_values(v: np.ndarray, G: SpectralMeasure) -> np.ndarray:
    """Bias constant ctilde(-lam; theta) = int r (1 + v r)^-2 dG per cell:
    0 where v = +inf, int r dG where v = 0."""
    q = 1.0 / (1.0 + np.multiply.outer(v, G.values))
    return np.einsum("ij,j->i", q * q, G.weights * G.values)
