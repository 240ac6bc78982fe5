import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subridge import (
    SimConfig,
    ar1_covariance,
    conditional_risk,
    ensemble_fit,
    gcv,
    generate_ar1,
    run_experiment,
)
from subridge import _worker
from subridge import ensemble as ens
from subridge import montecarlo as mc

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestGenerateAr1:
    def test_noiseless_response(self):
        data, beta0 = generate_ar1(50, 10, 0.5, 0.0, seed=0)
        np.testing.assert_allclose(data.y, data.X @ beta0, atol=1e-12)

    def test_deterministic_given_seed(self):
        a, _ = generate_ar1(20, 5, 0.5, 1.0, seed=42)
        b, _ = generate_ar1(20, 5, 0.5, 1.0, seed=42)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_sample_covariance_concentrates(self):
        n, p = 100_000, 5
        data, _ = generate_ar1(n, p, 0.5, 1.0, seed=1)
        sample_cov = data.X.T @ data.X / n
        err = np.linalg.norm(sample_cov - ar1_covariance(0.5, p))
        # Wishart concentration: entrywise std error ~ 1/sqrt(n).
        assert err <= 3.0 * p / math.sqrt(n)

    def test_invalid_parameters(self):
        for rho, sigma2, message in [
            (1.5, 1.0, r"rho_ar1 must lie in \[0, 1\)"),
            (-0.1, 1.0, r"rho_ar1 must lie in \[0, 1\)"),
            (math.nan, 1.0, r"rho_ar1 must lie in \[0, 1\)"),
            (0.5, -1.0, "sigma2 must be finite and nonnegative"),
            (0.5, math.nan, "sigma2 must be finite and nonnegative"),
            (0.5, math.inf, "sigma2 must be finite and nonnegative"),
        ]:
            with pytest.raises(ValueError, match=message):
                generate_ar1(10, 5, rho, sigma2, seed=0)

    def test_rho_zero_draws_isotropic_features(self):
        data, beta0 = generate_ar1(30, 6, 0.0, 0.0, seed=3)
        Z = np.random.default_rng(3).standard_normal((30, 6))
        np.testing.assert_array_equal(data.X, Z)  # the Cholesky factor is I
        assert beta0 @ beta0 == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("n, p, block_bytes", [
        (1000, 40, 8 * 40 * 64),    # 64-row blocks, 40 rows left over
        (97, 30, 8 * 30 * 10 + 5),  # 10-row blocks, 7 rows left over
        (25, 12, 8),                # a block holds less than one row
    ], ids=["several-blocks", "remainder", "one-row-blocks"])
    def test_blocked_draw_is_one_draw_of_the_stream(self, monkeypatch, n, p,
                                                    block_bytes):
        # The blocks take the generator's normals in order: X is the single
        # (n, p) draw times the Cholesky factor, up to the rounding of the
        # block products (BLAS may order a row's sums differently in a
        # smaller product), and the noise continues the same stream.
        monkeypatch.setattr(mc, "_DRAW_BLOCK_BYTES", block_bytes)
        sigma2 = 0.7
        data, beta0 = generate_ar1(n, p, 0.5, sigma2, seed=11)
        rng = np.random.default_rng(11)
        _, chol, _ = mc._ar1_cache(0.5, p, sigma2)
        expected = rng.standard_normal((n, p)) @ chol.T
        np.testing.assert_allclose(data.X, expected, rtol=0, atol=1e-14)
        noise = math.sqrt(sigma2) * rng.standard_normal(n)
        np.testing.assert_array_equal(data.y, data.X @ beta0 + noise)


def small_config(**overrides):
    base = dict(
        phi=0.5, p=20, k_grid=(10, 20), lambda_grid=(0.1,),
        M_list=(3,), reps=2, rho_ar1=0.5, sigma2=1.0, master_seed=5,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_n_from_aspect(self):
        assert small_config().n == 40

    def test_k_grid_cannot_exceed_n(self):
        with pytest.raises(ValueError):
            small_config(k_grid=(41,))

    def test_from_mapping_round_trip(self):
        items = {
            "phi": "0.5", "p": "20", "k_grid": "10,20",
            "lambda_grid": "0.1", "M_list": "3", "reps": "2",
            "master_seed": "5",
        }
        config = SimConfig.from_mapping(items)
        assert config == small_config()

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            SimConfig.from_mapping({"phi": "0.5", "bogus": "1"})

    def test_from_mapping_reports_missing_keys(self):
        with pytest.raises(ValueError, match="missing config keys"):
            SimConfig.from_mapping({"phi": "0.5"})


class TestRunExperiment:
    def test_single_cell_matches_direct_computation(self):
        config = small_config(k_grid=(40,), M_list=(1,), reps=1)
        result = run_experiment(config)
        assert len(result.rows) == 1
        row = result.rows[0]
        data, _ = generate_ar1(
            config.n, config.p, 0.5, 1.0,
            np.random.SeedSequence((config.master_seed, 0, 0)),
        )
        seed = int(
            np.random.SeedSequence((config.master_seed, 0, 2)).generate_state(1)[0]
        )
        fit = ensemble_fit(data, 40, 1, 0.1, seed)
        assert row["gcv"] == pytest.approx(gcv(fit, data).value, rel=1e-12)

    def test_rows_and_theory_columns(self):
        result = run_experiment(small_config())
        assert len(result.rows) == 4  # 2 reps x 2 k-values
        for row in result.rows:
            assert math.isfinite(row["risk_theory"])
            assert math.isfinite(row["gcv_theory"])
            assert row["error"] == ""

    def test_excluded_boundary_marked_not_fatal(self):
        # k = p at lambda = 0 sits on the excluded boundary: the theory
        # columns are nan but the sweep still completes.
        config = small_config(k_grid=(20,), lambda_grid=(0.0,), reps=1)
        row = run_experiment(config).rows[0]
        assert math.isnan(row["risk_theory"])
        assert math.isfinite(row["train_error"])

    def test_rows_come_back_in_rep_order(self, monkeypatch):
        monkeypatch.setattr(_worker, "_usable_cpus", lambda: 2)
        result = run_experiment(small_config(reps=5))
        assert [row["rep"] for row in result.rows] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert result.workers == 2 and result.blas_threads_per_worker == 1
        assert [t["rep"] for t in result.replicate_seconds] == [0, 1, 2, 3, 4]
        assert all(t["fit_s"] > 0 and t["score_s"] > 0
                   for t in result.replicate_seconds)

    def test_counts_members_by_path(self):
        # At lambda = 0 and p = 20, k = 10 is a dual Cholesky member and
        # k = 20 a square one that the certificate takes; 2 reps x 3 members.
        result = run_experiment(small_config(lambda_grid=(0.0,)))
        assert result.solve_counts == {
            "cholesky": 6, "certified": 6, "spectral": 0, "rank_deficient": 0}
        counts = mc._run_replicate(small_config(lambda_grid=(0.0,)), 0)[3]
        assert counts == {
            "cholesky": 3, "certified": 3, "spectral": 0, "rank_deficient": 0}

    def test_script_without_main_guard_can_run_it(self, tmp_path):
        # Workers start `python -m subridge._worker`, so the calling script
        # is never imported again.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from subridge import SimConfig, run_experiment\n"
            "config = SimConfig(phi=0.5, p=20, k_grid=(10,), lambda_grid=(0.1,),\n"
            "                   M_list=(3,), reps=3)\n"
            "print(len(run_experiment(config).rows))\n"
        )
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3\n"

    # Monkeypatches do not reach worker processes, so the tests below patch
    # the library and run one replicate in this process, as a worker does.

    def test_numerical_failure_is_recorded(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(ens, "ensemble_fit", fail)
        rows = mc._run_replicate(small_config(reps=1), 0)[0]
        assert [row["error"] for row in rows] == ["LinAlgError: singular"] * 2
        assert all(math.isnan(row["gcv"]) for row in rows)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a member solver")

        monkeypatch.setattr(ens, "ensemble_fit", broken)
        with pytest.raises(TypeError, match="bug in a member solver"):
            mc._run_replicate(small_config(reps=1), 0)

    def test_test_risk_is_conditional_risk_of_the_fit(self):
        # test_risk is scored after the training design is dropped, from
        # the cell's averaged coefficients alone; it must equal scoring the
        # fit itself on the replicate's test design.
        config = small_config(k_grid=(0, 10, 20, 40), lambda_grid=(0.0, 0.1),
                              M_list=(1, 3))
        rows = iter(run_experiment(config).rows)
        for rep in range(config.reps):
            data, test = (generate_ar1(
                config.n, config.p, 0.5, 1.0,
                np.random.SeedSequence((config.master_seed, rep, stream)),
            )[0] for stream in (0, 1))
            cells = [(k, lam, M) for k in config.k_grid
                     for lam in config.lambda_grid for M in config.M_list]
            for cell_index, (k, lam, M) in enumerate(cells):
                seed = int(np.random.SeedSequence(
                    (config.master_seed, rep, 2 + cell_index)
                ).generate_state(1)[0])
                fit = ensemble_fit(data, k, M, lam, seed)
                row = next(rows)
                assert (row["rep"], row["k"], row["lambda"], row["M"]) == (
                    rep, k, lam, M)
                assert row["test_risk"] == conditional_risk(fit, test)
                assert row["gcv"] == gcv(fit, data).value
        assert next(rows, None) is None

    def test_scoring_failure_fills_the_row_with_nan(self, monkeypatch):
        # Scoring takes the mean over every row of the test design; the
        # training error of a k > 0 cell passes its union's rows.
        original = ens._mean_squared_residual

        def fail_on_test(data, coef, rows=None):
            if rows is None:
                raise FloatingPointError("overflow")
            return original(data, coef, rows)

        monkeypatch.setattr(ens, "_mean_squared_residual", fail_on_test)
        rows = mc._run_replicate(small_config(reps=1), 0)[0]
        assert [row["error"] for row in rows] == ["FloatingPointError: overflow"] * 2
        for row in rows:
            for column in ("gcv", "train_error", "oob_error", "test_risk"):
                assert math.isnan(row[column])

    def test_one_design_alive_at_a_time(self):
        # A replicate holds one design plus one cell's scratch: the previous
        # replicate's designs are gone, the test draw waits for the training
        # design to go, X is drawn in blocks, and the training and
        # out-of-bag errors copy no rows of X. One cost scales with the
        # cell, not the design, and is kept small here: the fit keeps M k
        # member indices. A worker runs its replicates one after another,
        # as here.
        config = SimConfig(
            phi=0.05, p=200, k_grid=(3600, 4000), lambda_grid=(0.1,),
            M_list=(2,), reps=2, master_seed=3,
        )
        design_bytes = config.n * config.p * 8  # 6.4 MB; a draw block is 1 MB
        # First-use imports and the cached theory are not a replicate's memory.
        mc._run_replicate(config, 0)
        rows = []
        tracemalloc.start()
        try:
            for rep in range(config.reps):
                rows += mc._run_replicate(config, rep)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(row["error"] == "" for row in rows)
        assert peak < 1.6 * design_bytes

    def test_aggregate_shape(self):
        agg = run_experiment(small_config()).aggregate()
        assert len(agg) == 2
        for cell in agg:
            assert cell["n_ok"] == 2
            assert cell["gcv_stderr"] >= 0.0


def test_mean_gcv_tracks_theory():
    # Desk-scale sweep: empirical mean GCV within 3 standard errors of the
    # finite-M GCV limit for moderate M.
    config = SimConfig(
        phi=0.25, p=100, k_grid=(80, 200), lambda_grid=(0.1,),
        M_list=(10,), reps=8, rho_ar1=0.5, sigma2=1.0, master_seed=17,
    )
    for cell in run_experiment(config).aggregate():
        band = 3.0 * cell["gcv_stderr"] + 0.03 * cell["gcv_theory"]
        assert abs(cell["gcv_mean"] - cell["gcv_theory"]) <= band
