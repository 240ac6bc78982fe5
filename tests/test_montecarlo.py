import math

import numpy as np
import pytest

from subridge import (
    SimConfig,
    ar1_covariance,
    ensemble_fit,
    gcv,
    generate_ar1,
    run_experiment,
)
from subridge import ensemble as ens


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
        with pytest.raises(ValueError):
            generate_ar1(10, 5, 1.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_ar1(10, 5, 0.5, -1.0, seed=0)


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

    def test_reproducible_bytes(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            result = run_experiment(small_config())
            path = tmp_path / f"{tag}.csv"
            result.to_tidy_csv(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_excluded_boundary_marked_not_fatal(self):
        # k = p at lambda = 0 sits on the excluded boundary: the theory
        # columns are nan but the sweep still completes.
        config = small_config(k_grid=(20,), lambda_grid=(0.0,), reps=1)
        row = run_experiment(config).rows[0]
        assert math.isnan(row["risk_theory"])
        assert math.isfinite(row["train_error"])

    def test_numerical_failure_is_recorded(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(ens, "ensemble_fit", fail)
        rows = run_experiment(small_config(reps=1)).rows
        assert [row["error"] for row in rows] == ["LinAlgError"] * 2
        assert all(math.isnan(row["gcv"]) for row in rows)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a member solver")

        monkeypatch.setattr(ens, "ensemble_fit", broken)
        with pytest.raises(TypeError, match="bug in a member solver"):
            run_experiment(small_config(reps=1))

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
