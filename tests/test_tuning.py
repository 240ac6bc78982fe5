import math
from functools import partial

import numpy as np
import pytest

from subridge import (
    _worker,
    optimal_subsample,
    Dataset,
    ar1_model,
    ensemble_fit,
    gcv,
    gcv_limit,
    generate_ar1,
    lambda_hat,
    optimal_lambda,
    subsample_grid,
    tune_k,
    tune_lambda,
)


class TestSubsampleGrid:
    def test_square_root_increment(self):
        assert subsample_grid(100, 0.5) == list(range(0, 101, 10))

    def test_small_n(self):
        assert subsample_grid(10, 0.5) == [0, 3, 6, 9, 10]

    def test_spans_range_with_bounded_gaps(self):
        for n in (17, 64, 300):
            grid = subsample_grid(n, 0.5)
            k0 = int(math.floor(n**0.5))
            assert grid[0] == 0 and grid[-1] == n
            assert max(np.diff(grid)) <= k0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            subsample_grid(1, 0.5)
        with pytest.raises(ValueError):
            subsample_grid(100, 1.5)


class TestLambdaHat:
    def test_endpoint_case(self):
        assert lambda_hat(0, 1000, 0.5, 1000) == pytest.approx(0.5)

    def test_arithmetic_example(self):
        assert lambda_hat(200, 600, 0.5, 1000) == pytest.approx(1.0)

    def test_undefined_extrapolation(self):
        with pytest.raises(ValueError):
            lambda_hat(600, 600, 0.5, 1000)

    def test_theory_level_geometry(self):
        # With the data-driven sizes replaced by argmins of the GCV limit,
        # the penalized optimum uses a larger subsample than the ridgeless
        # one, and extrapolating the tuning contour linearly in the aspect
        # ratio recovers the optimal full-data penalty. The k-space
        # extrapolation of lambda_hat is a heuristic: the contour is linear
        # in p/k, not in k, so it systematically overshoots.
        model, _, _ = ar1_model(0.5, p_ref=300)
        phi, n = 0.1, 10_000
        p = int(phi * n)
        lam_star, _ = optimal_lambda(phi, phi, model)
        lam_probe = 0.3 * lam_star

        def k_argmin(lam):
            grid = [k for k in subsample_grid(n, 0.5) if k > 0]
            vals = []
            for k in grid:
                phis = p / k
                if lam == 0.0 and abs(phis - 1.0) < 1e-9:
                    continue
                vals.append((gcv_limit(lam, phi, phis, model), k))
            return min(vals)[1]

        k0 = k_argmin(0.0)
        k_lam = k_argmin(lam_probe)
        assert k_lam > k0
        estimate = lambda_hat(k0, k_lam, lam_probe, n)
        assert estimate > lam_star
        # Aspect-space extrapolation through the continuous argmins is exact.
        phis0, _ = optimal_subsample(0.0, phi, model)
        phis_lam, _ = optimal_subsample(lam_probe, phi, model)
        aspect_estimate = lam_probe * (phis0 - phi) / (phis0 - phis_lam)
        assert abs(aspect_estimate - lam_star) <= 1e-3 * lam_star


class TestTuneK:
    def test_pure_noise_selects_null(self):
        rng = np.random.default_rng(30)
        n = 400
        X = rng.standard_normal((n, 10))
        data = Dataset(X, rng.standard_normal(n))
        result = tune_k(data, 0.0, subsample_grid(n, 0.5), M=10, seed=1)
        assert result.k_hat == 0
        assert result.gcv_at_k_hat == pytest.approx(1.0, abs=0.2)

    def test_noiseless_signal_interpolates(self):
        rng = np.random.default_rng(31)
        n, p = 200, 20
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        data = Dataset(X, X @ beta)
        result = tune_k(data, 0.0, subsample_grid(n, 0.5), M=10, seed=2)
        assert result.gcv_at_k_hat <= 1e-6

    def test_tie_breaks_to_smallest_k(self):
        rng = np.random.default_rng(32)
        data = Dataset(rng.standard_normal((50, 5)), rng.standard_normal(50))
        result = tune_k(data, 0.1, [10, 20, 30], M=4, seed=3)
        best = min(g for _, g in result.path)
        candidates = [k for k, g in result.path if g == best]
        assert result.k_hat == min(candidates)

    def test_degenerate_cells_flagged_not_selected(self):
        rng = np.random.default_rng(33)
        n, p = 60, 30
        X = rng.standard_normal((n, p))
        data = Dataset(X, X @ rng.standard_normal(p) + rng.standard_normal(n))
        # k = p at lambda = 0: single interpolating member, degenerate GCV.
        result = tune_k(data, 0.0, [0, 30, 60], M=1, seed=4)
        assert 30 in result.degenerate_cells
        assert result.k_hat != 30

    def test_counts_members_by_path(self):
        # At lambda = 0 and p = 30: k = 10 is a dual and k = 60 a primal
        # Cholesky member, k = 30 a square one that the certificate takes.
        rng = np.random.default_rng(39)
        data = Dataset(rng.standard_normal((60, 30)), rng.standard_normal(60))
        result = tune_k(data, 0.0, [0, 10, 30, 60], M=2, seed=4)
        assert result.solve_counts == {
            "cholesky": 4, "certified": 2, "spectral": 0, "rank_deficient": 0}

    def test_keeps_the_fit_at_k_hat(self):
        # The coefficients at k_hat are those of a refit of the same
        # ensemble in a worker, which runs the BLAS as tune_k's workers do.
        rng = np.random.default_rng(38)
        X = rng.standard_normal((80, 6))
        data = Dataset(X, X @ rng.standard_normal(6) + rng.standard_normal(80))
        result = tune_k(data, 0.0, [0, 20, 40, 80], M=3, seed=6)
        assert result.k_hat > 0
        assert (result.k_hat, result.gcv_at_k_hat) in result.path
        [refit] = _worker.map_in_workers(
            partial(ensemble_fit, data, result.k_hat, 3, 0.0), [6])
        np.testing.assert_array_equal(result.coef, refit.coef)
        assert gcv(refit, data).value == result.gcv_at_k_hat

    @pytest.mark.parametrize("lam, grid, M, message", [
        (math.nan, [0, 10], 2, "lam must be finite and nonnegative"),
        (-1.0, [0, 10], 2, "lam must be finite and nonnegative"),
        (0.0, [0, 10], 0, "M must be at least 1"),
        (0.0, [], 2, "empty subsample grid"),
        (0.0, [-1, 10], 2, r"subsample sizes must lie in \[0, n\] = \[0, 30\]"),
        (0.0, [0, 31], 2, r"subsample sizes must lie in \[0, n\] = \[0, 30\]"),
    ], ids=["nan-lambda", "negative-lambda", "M-0", "empty-grid", "k-below-0",
            "k-above-n"])
    def test_rejects_bad_arguments_before_any_worker(self, monkeypatch, lam, grid,
                                                     M, message):
        def no_workers(fn, items, workers=None):
            raise AssertionError("tune_k started workers")

        monkeypatch.setattr(_worker, "map_in_workers", no_workers)
        rng = np.random.default_rng(42)
        data = Dataset(rng.standard_normal((30, 4)), rng.standard_normal(30))
        with pytest.raises(ValueError, match=message):
            tune_k(data, lam, grid, M=M, seed=0)


class TestTuneLambda:
    def test_huge_penalty_grid(self):
        rng = np.random.default_rng(35)
        data = Dataset(rng.standard_normal((50, 5)), rng.standard_normal(50))
        lam, value, _ = tune_lambda(data, [1e9])
        assert lam == 1e9
        assert value == pytest.approx(np.mean(data.y**2), rel=1e-4)

    def test_path_matches_per_penalty_refits(self):
        rng = np.random.default_rng(36)
        n, p = 60, 12
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        data = Dataset(X, X @ beta + rng.standard_normal(n))
        grid = [0.01, 0.1, 1.0]
        refit_values = {}
        for lam in grid:
            fit = ensemble_fit(data, n, 1, lam, seed=0)
            refit_values[lam] = gcv(fit, data).value
        lam_best, value_best, _ = tune_lambda(data, grid)
        assert value_best == pytest.approx(refit_values[lam_best], abs=1e-10)
        assert value_best == pytest.approx(min(refit_values.values()), abs=1e-10)

    def test_matches_direct_coefficients(self):
        rng = np.random.default_rng(37)
        n, p = 40, 50  # overparameterized branch
        X = rng.standard_normal((n, p))
        data = Dataset(X, rng.standard_normal(n))
        lam_best, value, _ = tune_lambda(data, [0.5])
        coef = ensemble_fit(Dataset(X, data.y), n, 1, 0.5, seed=0).coef
        resid = data.y - X @ coef
        e = np.linalg.eigvalsh(X @ X.T)
        df = np.sum(e / (e + n * 0.5))
        expected = np.mean(resid**2) / (1.0 - df / n) ** 2
        assert value == pytest.approx(expected, rel=1e-10)

    def test_returns_the_fit_at_the_selected_penalty(self):
        rng = np.random.default_rng(39)
        n, p = 60, 12
        X = rng.standard_normal((n, p))
        data = Dataset(X, X @ rng.standard_normal(p) + rng.standard_normal(n))
        lam_best, value, fit = tune_lambda(data, [0.0, 0.01, 0.1, 1.0])
        assert fit.lam == lam_best and fit.k == n and fit.M == 1
        np.testing.assert_array_equal(fit.union_indices, np.arange(n))
        refit = ensemble_fit(data, n, 1, lam_best, seed=0)
        np.testing.assert_allclose(fit.coef, refit.coef, rtol=1e-10)
        assert gcv(fit, data).value == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_bad_penalty_in_grid(self, bad):
        rng = np.random.default_rng(40)
        data = Dataset(rng.standard_normal((30, 4)), rng.standard_normal(30))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            tune_lambda(data, [0.1, bad, 1.0])

    def test_rejects_empty_grid(self):
        rng = np.random.default_rng(41)
        data = Dataset(rng.standard_normal((30, 4)), rng.standard_normal(30))
        with pytest.raises(ValueError, match="empty penalty grid"):
            tune_lambda(data, [])


def test_tuned_risk_close_to_baseline_monte_carlo():
    # Subsample tuning at lambda = 0 and ridge tuning at k = n land within a
    # few percent of each other in test risk (single desk-scale replicate).
    n, p = 600, 60
    data, _ = generate_ar1(n, p, 0.5, 1.0, seed=40)
    test, _ = generate_ar1(n, p, 0.5, 1.0, seed=41)
    grid = subsample_grid(n, 0.5)
    result = tune_k(data, 0.0, grid, M=25, seed=42)
    fit = ensemble_fit(data, result.k_hat, 25, 0.0, seed=42)
    risk_k = np.mean((test.y - test.X @ fit.coef) ** 2)
    _, _, base = tune_lambda(data, np.logspace(-3, 1, 12))
    risk_lam = np.mean((test.y - test.X @ base.coef) ** 2)
    assert abs(risk_k - risk_lam) <= 0.10 * risk_lam
