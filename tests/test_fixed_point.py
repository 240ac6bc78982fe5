import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subridge import (
    ExcludedBoundaryError,
    ModelSpec,
    SpectralMeasure,
    ar1_model,
    asymptotic_risk,
    gcv_limit_finite_M,
    isotropic_model,
    solve_v,
)
import subridge.fixed_point
from subridge.fixed_point import (
    BLOCK_BUDGET,
    RESIDUAL_TOL,
    DivergentVarianceError,
    FixedPointConvergenceError,
    _block_cells,
    _newton,
    _solve_block,
    newton_counts,
)
from subridge.risk import SOLVE_MEMO_SIZE, _solved_cell

ISO = isotropic_model(1.0, 1.0)


def random_measure(draw_values, draw_weights):
    w = np.asarray(draw_weights, dtype=float)
    return SpectralMeasure(values=np.asarray(draw_values), weights=w / w.sum())


measures = st.integers(1, 6).flatmap(
    lambda size: st.tuples(
        st.lists(st.floats(0.05, 20.0), min_size=size, max_size=size),
        st.lists(st.floats(0.1, 1.0), min_size=size, max_size=size),
    )
).map(lambda vw: random_measure(*vw))


class TestClosedForms:
    def test_isotropic_ridgeless_overparameterized(self):
        # 1/v = 2/(1+v)  =>  v = 1
        assert solve_v(0.0, 2.0, ISO.H).v == pytest.approx(1.0, abs=1e-12)

    def test_unit_penalty_unit_aspect(self):
        # v(1+v) = 1  =>  v = (sqrt(5)-1)/2
        expected = (math.sqrt(5.0) - 1.0) / 2.0
        assert solve_v(1.0, 1.0, ISO.H).v == pytest.approx(expected, abs=1e-12)

    def test_quadratic_oracle(self):
        # lam=0.1, theta=0.5: v^2 - 4v - 10 = 0 => v = (4 + sqrt(56)) / 2
        expected = (4.0 + math.sqrt(56.0)) / 2.0
        sol = solve_v(0.1, 0.5, ISO.H)
        assert sol.v == pytest.approx(expected, abs=1e-10)
        assert sol.ell == pytest.approx(0.1 * expected, abs=1e-10)


class TestBoundaries:
    def test_ridgeless_underparameterized_diverges(self):
        sol = solve_v(0.0, 0.5, ISO.H)
        assert math.isinf(sol.v)
        assert sol.ell == pytest.approx(0.5)
        assert sol.scaled_second_moment == pytest.approx(1.0)

    def test_infinite_aspect_gives_zero(self):
        sol = solve_v(1.0, math.inf, ISO.H)
        assert sol.v == 0.0 and sol.ell == 0.0

    def test_excluded_boundary(self):
        with pytest.raises(ExcludedBoundaryError):
            solve_v(0.0, 1.0, ISO.H)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            solve_v(-0.1, 2.0, ISO.H)


@settings(max_examples=60, deadline=None)
@given(measures, st.floats(1e-4, 10.0), st.floats(0.05, 20.0))
def test_fixed_point_residual(H, lam, theta):
    sol = solve_v(lam, theta, H)
    assert 0.0 < sol.v < 1.0 / lam
    lhs = 1.0 / sol.v
    rhs = lam + theta * H.integrate(lambda r: r / (1.0 + sol.v * r))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


@settings(max_examples=40, deadline=None)
@given(measures, st.floats(1e-3, 5.0), st.floats(0.1, 10.0))
# Atoms whose square roots round equal.
@example(random_measure([0.1, np.nextafter(0.1, 1.0)], [1.0, 1.0]), 1.0, 1.0)
def test_v_decreasing_in_penalty_and_aspect(H, lam, theta):
    v = solve_v(lam, theta, H).v
    assert solve_v(lam * 1.5, theta, H).v < v
    assert solve_v(lam, theta * 1.5, H).v < v


tiny_penalties = st.floats(-12.0, 1.0).map(lambda e: 10.0 ** e)
wide_aspects = st.floats(math.log10(0.05), 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None)
@given(measures, tiny_penalties, wide_aspects)
def test_residual_at_tiny_penalty_and_huge_aspect(H, lam, theta):
    sol = solve_v(lam, theta, H)
    assert 0.0 < sol.v < 1.0 / lam
    lhs = 1.0 / sol.v
    rhs = lam + theta * H.integrate(lambda r: r / (1.0 + sol.v * r))
    assert abs(lhs - rhs) <= RESIDUAL_TOL * max(1.0, lhs)


def test_block_matches_scalar_solves():
    # A cell's bits depend only on (lam, theta, H): every regime at once,
    # the cells shuffled into blocks of seeded random sizes, each equal to
    # its one-cell solve, on three atoms and on a 34-node Gauss rule. The
    # cells at lam = 1e-300, theta = 1 have roots where F is flat to
    # rounding.
    rng = np.random.default_rng(27)
    lam = np.tile([0.0, 1e-300, 1e-9, 0.2, 3.0], 100)
    theta = np.repeat(np.geomspace(0.1, 1e4, 100), 5)
    theta[::9] = math.inf
    theta[1:50:5] = 1.0
    for H in (SpectralMeasure(values=np.array([0.3, 1.0, 4.0]),
                              weights=np.array([0.2, 0.5, 0.3])),
              ar1_model(0.5, p_ref=500)[0].H):
        order = rng.permutation(lam.size)
        cuts = np.cumsum(rng.integers(1, 120, lam.size))
        v, ell, a_hat = np.empty((3, lam.size))
        for block in np.split(order, cuts[cuts < lam.size]):
            v[block], ell[block], a_hat[block] = _solve_block(
                lam[block], theta[block], H)
        for i in range(lam.size):
            sol = solve_v(lam[i], theta[i], H)
            assert (v[i], ell[i], a_hat[i]) == (
                sol.v, sol.ell, sol.scaled_second_moment), (lam[i], theta[i])


def test_block_limit_enforced():
    # BLOCK_BUDGET bounds cells x nodes; 128,001 = 3 x 42,667.
    H = SpectralMeasure(values=np.array([0.3, 1.0, 4.0]),
                        weights=np.array([0.2, 0.5, 0.3]))
    assert BLOCK_BUDGET + 1 == 3 * 42_667
    assert _block_cells(H) == 42_666
    cells = np.ones(42_667)
    with pytest.raises(ValueError, match="at most 42666 cells"):
        _solve_block(cells, cells, H)
    v, _, _ = _solve_block(cells[1:], cells[1:], H)
    assert (v == solve_v(1.0, 1.0, H).v).all()


def test_root_beyond_float_range_raises():
    # v ~ (1 - theta) / lam overflows for a subnormal penalty.
    with np.errstate(all="ignore"), pytest.raises(FixedPointConvergenceError):
        solve_v(5e-324, 0.5, ISO.H)


def test_non_finite_penalty_rejected():
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_v(lam, 2.0, ISO.H)


# Every regime: interpolating (v = inf), ridgeless phis > 1, ridge on both
# sides of aspect 1, the null predictor (phis = inf, never solved), and a
# zero penalty given as 0.0, -0.0 and 0: seven cells, five of them solved.
MEMO_CELLS = [(0.0, 0.5), (0.0, 2.0), (0.1, 0.5), (0.1, 3.0), (1.0, math.inf),
              (-0.0, 2.0), (0, 2), (1e-9, 1.0)]


def copy_measure(H):
    return SpectralMeasure(values=H.values.copy(), weights=H.weights.copy())


class TestSolveMemo:
    """The scalar limits remember each solved cell in `risk._solved_cell`,
    keyed by (lam, phis, H, G); solve_v, which it calls on a miss, keeps
    no state."""

    H = SpectralMeasure(values=np.array([0.3, 1.0, 4.0]),
                        weights=np.array([0.2, 0.5, 0.3]))

    def model(self):
        """A model on new measures, so no cell of it is remembered yet."""
        return ModelSpec(H=copy_measure(self.H), G=copy_measure(self.H),
                         rho2=1.0, sigma2=1.0)

    def test_warm_memo_equals_a_fresh_solve(self):
        _solved_cell.cache_clear()
        warm = self.model()
        for lam, phis in MEMO_CELLS:
            asymptotic_risk(lam, 0.5, phis, warm)
        assert _solved_cell.cache_info().currsize == 5
        for lam, phis in MEMO_CELLS:
            for M in (1, 2, math.inf):
                misses = _solved_cell.cache_info().misses
                hit = asymptotic_risk(lam, 0.5, phis, warm, M=M)
                gcv = gcv_limit_finite_M(lam, 0.5, phis, warm, M)
                assert _solved_cell.cache_info().misses == misses
                fresh = asymptotic_risk(lam, 0.5, phis, self.model(), M=M)
                for field in dataclasses.fields(fresh):
                    got, want = getattr(hit, field.name), getattr(fresh, field.name)
                    assert got == want, (lam, phis, M, field.name)
                    assert type(got) is type(want)
                    assert math.copysign(1.0, got) == math.copysign(1.0, want)
                want = gcv_limit_finite_M(lam, 0.5, phis, self.model(), M)
                assert gcv.hex() == want.hex(), (lam, phis, M)

    def test_excluded_boundary_raises_on_every_call(self):
        # Neither an excluded cell nor a divergent one (Ahat rounds to 1,
        # see test_surface_nan_reasons_count_each_reason) is remembered.
        _solved_cell.cache_clear()
        model = self.model()
        for _ in range(3):
            with pytest.raises(ExcludedBoundaryError):
                asymptotic_risk(0.0, 0.5, 1.0, model)
            with pytest.raises(DivergentVarianceError):
                asymptotic_risk(1e-300, 0.5, 1.0, ISO)
        info = _solved_cell.cache_info()
        assert (info.misses, info.currsize) == (6, 0)

    def test_memo_size_is_bounded(self):
        assert _solved_cell.cache_info().maxsize == SOLVE_MEMO_SIZE == 1024

    def test_memo_is_per_measure(self):
        # Equal atoms on two measures share no entry; models that differ
        # only in sigma2 share their measures' entries.
        _solved_cell.cache_clear()
        m1, m2 = self.model(), self.model()
        assert repr(m1.H) == repr(m2.H) and m1.H != m2.H
        asymptotic_risk(0.1, 0.5, 3.0, m1)
        asymptotic_risk(0.1, 0.5, 3.0, m2)
        asymptotic_risk(0.1, 0.5, 3.0, dataclasses.replace(m1, sigma2=4.0))
        info = _solved_cell.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_solve_v_keeps_no_state():
    # Each call runs the Newton core, and the measure holds only its atoms
    # and its Gauss rule.
    H = copy_measure(TestSolveMemo.H)
    before = newton_counts()
    first, second = solve_v(0.1, 3.0, H), solve_v(0.1, 3.0, H)
    assert first == second
    assert newton_counts()["blocks"] - before["blocks"] == 2
    assert sorted(vars(H)) == ["_rule", "values", "weights"]


class TestNewtonFailures:
    # _newton checks the residual it evaluated at each cell's final step;
    # every way it can fail still raises (an overflow to inf: see
    # test_root_beyond_float_range_raises).
    H = SpectralMeasure(values=np.array([0.3, 1.0, 4.0]),
                        weights=np.array([0.2, 0.5, 0.3]))
    lam = np.geomspace(1e-3, 3.0, 12)
    theta = np.linspace(0.2, 5.0, 12)

    def test_stall_raises(self, monkeypatch):
        monkeypatch.setattr(subridge.fixed_point, "MAX_ITER", 2)
        with pytest.raises(FixedPointConvergenceError, match="still moving"):
            _newton(self.lam, self.theta, self.H)

    def test_residual_above_tolerance_raises(self, monkeypatch):
        # With a zero tolerance, any cell whose final 1/x and
        # lam + theta int r/(1 + xr) dH differ in the last bits fails.
        monkeypatch.setattr(subridge.fixed_point, "RESIDUAL_TOL", 0.0)
        with pytest.raises(FixedPointConvergenceError, match="with residual"):
            _newton(self.lam, self.theta, self.H)


class TestNewtonCounts:
    H = SpectralMeasure(values=np.array([0.3, 1.0, 4.0]),
                        weights=np.array([0.2, 0.5, 0.3]))
    lam = np.array([0.0, 1e-6, 0.2, 3.0])
    theta = np.array([2.0, 0.7, 1.0, 40.0])

    def delta(self, *args):
        before = newton_counts()
        result = _newton(*args)
        after = newton_counts()
        return result, {key: after[key] - before[key] for key in after}

    def test_counts_blocks_cells_and_steps(self):
        # Each cell takes the steps it takes alone, so the block's
        # cell-steps are the sum of its cells'.
        _, counts = self.delta(self.lam, self.theta, self.H)
        alone = [self.delta(self.lam[i:i + 1], self.theta[i:i + 1], self.H)[1]
                 for i in range(self.lam.size)]
        assert counts == {"blocks": 1, "cells": 4,
                          "cell_steps": sum(c["cell_steps"] for c in alone)}
        assert all(c["cell_steps"] >= 2 for c in alone)

    def test_failed_solve_still_counts(self, monkeypatch):
        monkeypatch.setattr(subridge.fixed_point, "MAX_ITER", 1)
        before = newton_counts()
        with pytest.raises(FixedPointConvergenceError):
            _newton(self.lam, self.theta, self.H)
        after = newton_counts()
        assert after["blocks"] - before["blocks"] == 1
        assert after["cell_steps"] - before["cell_steps"] == 4

    def test_counts_are_a_copy(self):
        counts = newton_counts()
        counts["blocks"] += 100
        assert newton_counts()["blocks"] == counts["blocks"] - 100


class TestGaussRule:
    # The Newton core and the scaled second moment read H's Gauss rule
    # (spectra._gauss_rule); the roots still solve the atoms' equation.
    # Every regime but the excluded point: v = inf, ridgeless theta > 1,
    # tiny to large penalties, aspects up to 1e6.
    lam = np.repeat([0.0, 1e-8, 1e-3, 0.1, 1.0, 30.0], 40)
    theta = np.tile(np.geomspace(0.05, 1e6, 40), 6)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_roots_from_the_rule_solve_the_atom_equation(self, rho):
        H = ar1_model(rho, p_ref=500)[0].H
        assert H._rule[0].size < H.values.size
        v, _, a_hat = _solve_block(self.lam, self.theta, H)
        for i in np.flatnonzero(np.isfinite(v)):
            x = v[i]
            lhs = 1.0 / x
            rhs = self.lam[i] + self.theta[i] * H.integrate(
                lambda r: r / (1.0 + x * r))
            assert abs(lhs - rhs) <= RESIDUAL_TOL * max(1.0, lhs)
            assert a_hat[i] == pytest.approx(
                H.integrate(lambda r: (x * r / (1.0 + x * r)) ** 2),
                rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("atoms", [{1.0: 250, 2.0: 250},
                                       {3.0: 100, 1.0: 100, 0.5: 300}])
    def test_roots_of_repeated_atoms_match_the_merged_measure(self, atoms):
        values = np.repeat(list(atoms), list(atoms.values()))
        H = SpectralMeasure(values=values,
                            weights=np.full(values.size, 1 / values.size))
        merged = SpectralMeasure(
            values=np.array(list(atoms)),
            weights=np.array(list(atoms.values())) / values.size)
        for got, want in zip(_solve_block(self.lam, self.theta, H),
                             _solve_block(self.lam, self.theta, merged)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
