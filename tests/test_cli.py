import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subridge import _worker, ar1_model, generate_ar1, isotropic_model, risk_surface
from subridge import ensemble as ens
from subridge.cli import (
    TIDY_COLUMNS,
    _atomic_write,
    _load_csv_dataset,
    _parse_csv,
    _surface_chunks,
    _write_csv,
    main,
)


def run_cli(args):
    return main([str(a) for a in args])


def module_env(**overrides):
    """The environment for `python -m subridge` on this checkout's sources."""
    env = dict(os.environ, **overrides)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class TestTheorySurface:
    def test_writes_surface_and_manifest(self, tmp_path):
        rc = run_cli([
            "theory-surface", "--phi", 0.1, "--lambda", "0:0.5:3",
            "--phis", "0.1:4:5", "--p-ref", 60, "--out-dir", tmp_path,
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "surface.csv")))
        assert len(rows) == 15
        markers = json.loads((tmp_path / "surface_markers.json").read_text())
        assert markers["risk_at_lambda_star"] == pytest.approx(
            markers["risk_at_phis_star"], abs=1e-8
        )
        manifest = json.loads(
            (tmp_path / "theory_surface_manifest.json").read_text()
        )
        for out in manifest["outputs"]:
            assert (tmp_path / out).exists() or out.startswith(str(tmp_path))

    def test_single_cell_grid(self, tmp_path):
        rc = run_cli([
            "theory-surface", "--phi", 0.5, "--lambda", "0.3",
            "--phis", "2.0", "--p-ref", 60, "--out-dir", tmp_path,
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "surface.csv")))
        assert len(rows) == 1
        assert np.isfinite(float(rows[0]["risk"]))

    def test_excluded_boundary_warns_and_writes_nan(self, tmp_path, capsys):
        rc = run_cli([
            "theory-surface", "--phi", 0.5, "--lambda", "0:0:1",
            "--phis", "0.2:1.0:2", "--p-ref", 60, "--out-dir", tmp_path,
        ])
        assert rc == 0
        assert "warning" in capsys.readouterr().err
        rows = list(csv.DictReader(open(tmp_path / "surface.csv")))
        assert any(row["risk"] == "nan" for row in rows)

    def test_surface_csv_round_trips_risk_surface(self, tmp_path):
        rc = run_cli([
            "theory-surface", "--phi", 0.5, "--lambda", "0:0.5:3",
            "--phis", "0.2:2:4", "--p-ref", 60, "--out-dir", tmp_path,
        ])
        assert rc == 0
        with open(tmp_path / "surface.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["lambda", "phis", "risk"]
        table = np.array([[float(v) for v in row] for row in rows])
        lam, phis = np.linspace(0, 0.5, 3), np.linspace(0.2, 2, 4)
        model, _, _ = ar1_model(0.5, p_ref=60, sigma2=1.0)
        expected = risk_surface(0.5, lam, phis, model)
        assert np.isnan(expected).any()  # phis < phi: written as `nan`
        np.testing.assert_array_equal(table[:, 0], np.repeat(lam, 4))
        np.testing.assert_array_equal(table[:, 1], np.tile(phis, 3))
        np.testing.assert_array_equal(table[:, 2], expected.ravel())

    def test_rho_zero_is_the_isotropic_model(self, tmp_path):
        # AR(1) with rho = 0 is the identity covariance; its signal spans
        # five eigenvectors at 1/5 each, so rho^2 = 0.2.
        rc = run_cli([
            "theory-surface", "--phi", 0.5, "--lambda", "0:0.5:3",
            "--phis", "0.2:4:5", "--p-ref", 60, "--rho-ar1", 0,
            "--out-dir", tmp_path,
        ])
        assert rc == 0
        with open(tmp_path / "surface.csv", newline="") as fh:
            _, *rows = list(csv.reader(fh))
        risk = np.array([float(row[2]) for row in rows]).reshape(3, 5)
        expected = risk_surface(0.5, np.linspace(0, 0.5, 3),
                                np.linspace(0.2, 4, 5), isotropic_model(0.2, 1.0))
        np.testing.assert_array_equal(np.isnan(risk), np.isnan(expected))
        np.testing.assert_allclose(risk, expected, rtol=1e-12, atol=0)

    def test_single_inf_is_the_null_predictor(self, tmp_path):
        rc = run_cli([
            "theory-surface", "--phi", 0.5, "--lambda", "inf",
            "--phis", "1:2:2", "--p-ref", 60, "--out-dir", tmp_path,
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "surface.csv")))
        model, _, _ = ar1_model(0.5, p_ref=60, sigma2=1.0)
        assert [row["lambda"] for row in rows] == ["inf", "inf"]
        assert [float(row["risk"]) for row in rows] == [model.null_risk] * 2

    @pytest.mark.parametrize("flag, grid", [
        ("--lambda", "1:0:-3"), ("--lambda", "nan"), ("--lambda", "0:inf:3"),
        ("--phis", "0:nan:3"), ("--phis", "-inf:1:3"),
    ], ids=["negative-count", "nan", "inf-end", "nan-end", "negative-inf-end"])
    def test_bad_grid_syntax_exits_nonzero(self, tmp_path, capsys, flag, grid):
        grids = {"--lambda": "0.1", "--phis": "1:2:3", flag: grid}
        with pytest.raises(SystemExit) as exc:
            run_cli(["theory-surface", "--phi", 0.1, "--out-dir", tmp_path / "out"]
                    + [f"{name}={value}" for name, value in grids.items()])
        assert exc.value.code == 2
        assert (f"argument {flag}: expected `lo:hi:count` or a single number, "
                f"got {grid!r}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, grid, message", [
        ("--lambda", "-1:1:3", "expected nonnegative penalties"),
        ("--lambda", "-0.5", "expected nonnegative penalties"),
        ("--phis", "-2:4:3", "expected positive aspect ratios"),
        ("--phis", "0:4:3", "expected positive aspect ratios"),
        ("--phis", "0", "expected positive aspect ratios"),
    ], ids=["negative-lambda-end", "negative-lambda", "negative-phis-end",
            "zero-phis-end", "zero-phis"])
    def test_grid_outside_the_domain_exits_2(self, tmp_path, capsys, flag, grid,
                                             message):
        grids = {"--lambda": "0.1", "--phis": "1:2:3", flag: grid}
        with pytest.raises(SystemExit) as exc:
            run_cli(["theory-surface", "--phi", 0.1, "--out-dir", tmp_path / "out"]
                    + [f"{name}={value}" for name, value in grids.items()])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}, got {grid!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_cells_counted_by_reason(self, tmp_path, capsys):
        # rho = 0 and p_ref = 8: eight atoms at 1, weight 1/8 each. phis =
        # 0.25 lies below phi (valid input, NaN cells), (0, 1) is the
        # excluded boundary, and (1e-300, 1) has a divergent variance
        # (Ahat rounds to 1).
        rc = run_cli([
            "theory-surface", "--phi", 0.5, "--rho-ar1", 0, "--p-ref", 8,
            "--lambda", "0:1e-300:2", "--phis", "0.25:1:4", "--out-dir", tmp_path,
        ])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: 4 grid cell(s) outside the theory's domain written as "
            "nan: 2 with phis < phi, 1 at the excluded lambda = 0, phis = 1, "
            "1 with divergent variance\n")
        manifest = json.loads(
            (tmp_path / "theory_surface_manifest.json").read_text())
        assert manifest["nan_cells"] == {
            "phis_below_phi": 2, "excluded_boundary": 1, "divergent_variance": 1}
        rows = list(csv.DictReader(open(tmp_path / "surface.csv")))
        assert [row["risk"] == "nan" for row in rows] == [
            True, False, False, True, True, False, False, True]

    def test_no_nan_cells_no_warning(self, tmp_path, capsys):
        rc = run_cli(["theory-surface", "--phi", 0.5, "--lambda", "0.1:1:3",
                      "--phis", "0.5:4:4", "--p-ref", 20, "--out-dir", tmp_path])
        assert rc == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads(
            (tmp_path / "theory_surface_manifest.json").read_text())
        assert set(manifest["nan_cells"].values()) == {0}

    def test_surface_csv_bytes_match_per_cell_formatting(self, tmp_path):
        # The rows are built from .tolist() values; numpy scalars formatted
        # cell by cell give the same bytes.
        lam, phis = np.linspace(0, 2, 9), np.linspace(0.1, 10, 12)
        rc = run_cli(["theory-surface", "--phi", 0.1, "--lambda", "0:2:9",
                      "--phis", "0.1:10:12", "--p-ref", 60, "--out-dir", tmp_path])
        assert rc == 0
        model, _, _ = ar1_model(0.5, p_ref=60, sigma2=1.0)
        surface = risk_surface(0.1, lam, phis, model)
        expected = tmp_path / "expected.csv"
        _write_csv(expected, ["lambda", "phis", "risk"], (
            (lam[i], phis[j], surface[i, j])
            for i in range(lam.size) for j in range(phis.size)))
        assert (tmp_path / "surface.csv").read_bytes() == expected.read_bytes()

    def test_surface_chunks_match_the_cell_by_cell_formatter(self, tmp_path):
        # The previous formatter: csv.writer over repr(float(v)) per cell.
        # The grid holds -0.0, a phis printed as 0.30000000000000004, NaN
        # and infinite risks, and risks printed as 1e-05 and 1e+16.
        lam = np.array([-0.0, 1e-05, 0.5, 1e+16])
        phis = np.array([0.1 + 0.2, 1.0, 2.5])
        surface = np.array([[np.nan, 1e-05, 1e+16],
                            [-0.0, math.inf, 1.2345678901234567],
                            [0.1 + 0.2, np.nan, 3.0],
                            [1e300, 5e-324, 2.0]])
        path = tmp_path / "surface.csv"
        _write_csv(path, ["lambda", "phis", "risk"],
                   chunks=_surface_chunks(lam, phis, surface))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["lambda", "phis", "risk"])
        for i in range(lam.size):
            for j in range(phis.size):
                writer.writerow([repr(float(v))
                                 for v in (lam[i], phis[j], surface[i, j])])
        assert path.read_bytes() == expected.getvalue().encode()
        text = path.read_text()
        for cell in ("-0.0,", "0.30000000000000004", ",nan\n", "1e-05",
                     "1e+16", ",inf\n"):
            assert cell in text

    def test_text_cells_keep_csv_quoting(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [[1, 0.5, 'ValueError: a, "b"\nc'], [2, math.nan, ""]]
        _write_csv(path, ["k", "x", "error"], rows)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [
                ["k", "x", "error"], ["1", "0.5", 'ValueError: a, "b"\nc'],
                ["2", "nan", ""]]

    def test_manifest_records_newton_work(self, tmp_path):
        rc = run_cli(["theory-surface", "--phi", 0.5, "--lambda", "0:1:6",
                      "--phis", "0.25:4:8", "--p-ref", 20, "--out-dir", tmp_path])
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "theory_surface_manifest.json").read_text())
        work = manifest["fixed_point"]
        assert set(work) == {"surface", "markers", "rule"}
        # 20 atoms need no compression: the rule is H itself.
        assert work["rule"] == {"atoms": 20, "nodes": 20}
        # 6 lambda rows of 8 phis: phis = 0.25 < phi in each row, and at
        # lambda = 0 the interpolating cell phis = 0.79 is closed-form. The
        # 41 cells left are one block.
        surface = work["surface"]
        assert set(surface) == {"blocks", "cells", "cell_steps", "seconds"}
        assert surface["blocks"] == 1 and surface["cells"] == 6 * 7 - 1
        assert surface["cell_steps"] >= surface["cells"]
        assert work["markers"]["blocks"] > 0
        for stage in ("surface", "markers"):
            assert work[stage]["seconds"] >= 0.0

    def test_manifest_records_the_gauss_rule_of_h(self, tmp_path):
        # The default spectrum, AR(1) rho = 0.5 with p_ref = 500, compresses
        # to 34 nodes.
        rc = run_cli(["theory-surface", "--phi", 0.5, "--lambda", "0.1",
                      "--phis", "2", "--out-dir", tmp_path])
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "theory_surface_manifest.json").read_text())
        assert manifest["fixed_point"]["rule"] == {"atoms": 500, "nodes": 34}

    def test_equivalence_segment_for_an_optimum_just_above_aspect_1(self,
                                                                    tmp_path):
        # rho = 0 is the isotropic model with rho2 = 1/5; sigma2 = 0.05
        # gives SNR 4 at phi = 0.1, where phis* = 1.0277 lies below the
        # first grid point above 1 of the optimizer's scan.
        rc = run_cli(["theory-surface", "--phi", 0.1, "--rho-ar1", 0,
                      "--sigma2", 0.05, "--p-ref", 20, "--lambda", "0:1:3",
                      "--phis", "0.1:4:4", "--out-dir", tmp_path])
        assert rc == 0
        markers = json.loads((tmp_path / "surface_markers.json").read_text())
        b = 1.0 + 0.1 + 0.1 * 0.05 / 0.2
        assert markers["phis_star"] == pytest.approx(
            0.5 * (b + math.sqrt(b * b - 0.4)), rel=1e-6)
        assert markers["risk_at_phis_star"] == pytest.approx(
            markers["risk_at_lambda_star"], rel=1e-12)
        segment = markers["equivalence_segment"]
        assert len(segment) == 11
        assert segment[-1]["phis"] == pytest.approx(markers["phis_star"])
        for point in segment:
            assert point["risk"] == pytest.approx(
                markers["risk_at_lambda_star"], rel=1e-10)


SIM_CONFIG_ERRORS = [
    ("k_grid = -5,10", "k_grid values must be nonnegative"),
    ("M_list = 0", "M_list values must be at least 1"),
    ("lambda_grid = -1", "lambda_grid values must be finite and nonnegative"),
    ("lambda_grid = nan", "lambda_grid values must be finite and nonnegative"),
    ("sigma2 = nan", "sigma2 must be finite and nonnegative"),
    ("sigma2 = inf", "sigma2 must be finite and nonnegative"),
    ("phi = nan", "phi must be positive and finite"),
    ("phi = inf", "phi must be positive and finite"),
    ("rho_ar1 = 1", "rho_ar1 must lie in [0, 1)"),
    ("rho_ar1 = -0.5", "rho_ar1 must lie in [0, 1)"),
    ("rho_ar1 = nan", "rho_ar1 must lie in [0, 1)"),
    ("p = 3", "p must be at least 5 (the signal spans five eigenvectors)"),
    # A value that does not convert names its key.
    ("p = abc", "p: invalid literal for int() with base 10: 'abc'"),
    ("reps = 2.5", "reps: invalid literal for int() with base 10: '2.5'"),
    ("k_grid = 10,x", "k_grid: invalid literal for int() with base 10: 'x'"),
]


class TestSim:
    CONFIG = (
        "# minimal sweep\n"
        "phi = 0.5\np = 20\nk_grid = 10,20\nlambda_grid = 0.1\n"
        "M_list = 3\nreps = 2\nmaster_seed = 5\n"
    )

    def test_minimal_run(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(self.CONFIG)
        rc = run_cli(["sim", "--config", cfg, "--out-dir", tmp_path / "out"])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "sim_tidy.csv").exists()
        assert (out / "sim_aggregate.csv").exists()
        manifest = json.loads((out / "sim_manifest.json").read_text())
        assert manifest["master_seed"] == 5

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(self.CONFIG)
        blobs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert run_cli(["sim", "--config", cfg, "--out-dir", out]) == 0
            blobs.append((out / "sim_tidy.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.txt"
        cfg.write_text(self.CONFIG.replace("reps = 2", "reps = 4"))
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_worker, "_usable_cpus", lambda: workers)
            out = tmp_path / f"w{workers}"
            assert run_cli(["sim", "--config", cfg, "--out-dir", out]) == 0
            manifest = json.loads((out / "sim_manifest.json").read_text())
            assert manifest["workers"] == workers
            assert manifest["blas_threads_per_worker"] == 1
            assert [t["rep"] for t in manifest["replicate_seconds"]] == [0, 1, 2, 3]
            # 4 reps x 2 cells x 3 members, every one a ridge Cholesky solve.
            assert manifest["solve_counts"] == {
                "cholesky": 24, "certified": 0, "spectral": 0,
                "rank_deficient": 0}
            seconds = manifest["solve_seconds"]
            assert seconds["cholesky"] >= 0
            assert seconds["certified"] == seconds["spectral"] == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("sim_tidy.csv", "sim_aggregate.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_same_bytes_for_any_caller_blas_threads(self, tmp_path):
        # At p = 300 the theory's spectrum H computed with two BLAS threads
        # differs in the last bits from one computed with one thread; every
        # replicate and the theory run in workers with one BLAS thread,
        # whatever the caller's setting.
        cfg = tmp_path / "config.txt"
        cfg.write_text("phi = 0.5\np = 300\nk_grid = 100,600\nlambda_grid = 0.1\n"
                       "M_list = 2\nreps = 2\nmaster_seed = 4\n")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "subridge", "sim", "--config", str(cfg),
                 "--out-dir", str(out)], capture_output=True, text=True,
                timeout=120, env=module_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("sim_tidy.csv", "sim_aggregate.csv")])
        assert outputs[0] == outputs[1]

    def test_tidy_header_and_nan_at_excluded_cell(self, tmp_path):
        # k = p at lambda = 0 sits on the excluded boundary: the theory
        # columns are nan and spelled so.
        cfg = tmp_path / "config.txt"
        cfg.write_text("phi = 0.5\np = 20\nk_grid = 20\nlambda_grid = 0\n"
                       "M_list = 3\nreps = 1\n")
        assert run_cli(["sim", "--config", cfg, "--out-dir", tmp_path]) == 0
        with open(tmp_path / "sim_tidy.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header == TIDY_COLUMNS
        cells = dict(zip(header, row))
        assert cells["risk_theory"] == cells["gcv_theory"] == "nan"
        assert cells["error"] == "" and math.isfinite(float(cells["gcv"]))

    def test_isotropic_features_run(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(self.CONFIG + "rho_ar1 = 0\n")
        assert run_cli(["sim", "--config", cfg, "--out-dir", tmp_path]) == 0
        with open(tmp_path / "sim_tidy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert row["error"] == ""
            assert math.isfinite(float(row["test_risk"]))
            assert math.isfinite(float(row["risk_theory"]))

    def test_parse_error_has_line_context(self, tmp_path, capsys):
        cfg = tmp_path / "broken.txt"
        cfg.write_text("phi = 0.5\nnot a key value pair\n")
        rc = run_cli(["sim", "--config", cfg, "--out-dir", tmp_path])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", SIM_CONFIG_ERRORS,
                             ids=[line for line, _ in SIM_CONFIG_ERRORS])
    def test_value_every_cell_rejects_is_a_config_error(self, tmp_path, capsys,
                                                         line, message):
        key = line.split(" = ")[0]
        kept = [c for c in self.CONFIG.splitlines()
                if not c.startswith(f"{key} = ")]
        cfg = tmp_path / "bad.txt"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        rc = run_cli(["sim", "--config", cfg, "--out-dir", tmp_path / "out"])
        assert rc == 2
        assert capsys.readouterr().err == f"config error in {cfg}: {message}\n"
        out = tmp_path / "out"
        assert not out.exists()

    def test_unknown_key_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(self.CONFIG + "mystery = 1\n")
        rc = run_cli(["sim", "--config", cfg, "--out-dir", tmp_path])
        assert rc == 2
        assert "mystery" in capsys.readouterr().err


def write_dataset_csv(path, n=120, p=12, seed=0):
    data, _ = generate_ar1(n, p, 0.5, 1.0, seed=seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(p)] + ["target"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in data.X[i]]
                            + [repr(float(data.y[i]))])
    return data


class TestTune:
    def test_round_trip_and_outputs(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        data = write_dataset_csv(csv_path)
        rc = run_cli([
            "tune", "--data", csv_path, "--target", "target",
            "--M", 5, "--seed", 3, "--out-dir", tmp_path,
        ])
        assert rc == 0
        result = json.loads((tmp_path / "tune_result.json").read_text())
        assert result["k_hat"] in [k for k, _ in result["path"]]
        assert result["holdout_mse"] > 0
        assert result["baseline_holdout_mse"] > 0
        # Serialization identity: the CSV loader must reproduce X exactly.
        rows = list(csv.reader(open(csv_path)))
        loaded = np.array([[float(v) for v in r[:-1]] for r in rows[1:]])
        np.testing.assert_allclose(loaded, data.X, atol=1e-12)

    def test_serialization_round_trip(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path)
        rc = run_cli([
            "tune", "--data", csv_path, "--target", "target", "--lambda", 0.1,
            "--M", 3, "--seed", 5, "--no-baseline", "--out-dir", tmp_path,
        ])
        assert rc == 0
        result = json.loads((tmp_path / "tune_result.json").read_text())
        with open(tmp_path / "tune_path.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["k", "gcv"]
        assert [[int(k), float(g)] for k, g in rows] == result["path"]
        assert [result["k_hat"], result["gcv_at_k_hat"]] in result["path"]

    def test_manifest_counts_the_baseline_eigh(self, tmp_path):
        # The baseline's penalty path costs one eigh, recorded apart from
        # the grid's members, which stay M per nonzero grid size.
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path)
        for flags, eighs in (([], 1), (["--no-baseline"], 0)):
            out = tmp_path / f"eighs{eighs}"
            assert run_cli(["tune", "--data", csv_path, "--target", "target",
                            "--M", 3, "--seed", 4, "--out-dir", out, *flags]) == 0
            manifest = json.loads((out / "tune_manifest.json").read_text())
            result = json.loads((out / "tune_result.json").read_text())
            assert manifest["baseline_solve_counts"] == {
                "cholesky": 0, "certified": 0, "spectral": eighs,
                "rank_deficient": 0}
            counts = manifest["solve_counts"]
            assert counts["cholesky"] + counts["certified"] + counts["spectral"] \
                == 3 * sum(1 for k, _ in result["path"] if k > 0)
            assert manifest["solve_seconds"].keys() == {
                "cholesky", "certified", "spectral"}

    def test_fits_each_ensemble_once(self, tmp_path, monkeypatch):
        # The holdout predictions reuse tune_k's coefficients at k_hat and
        # tune_lambda's baseline fit: one ensemble per grid point, no refit.
        # The grid is mapped in this process so that the fits are counted.
        fitted = []
        original = ens.ensemble_fit

        def counted(data, k, M, lam, seed):
            fitted.append((k, M))
            return original(data, k, M, lam, seed)

        monkeypatch.setattr(ens, "ensemble_fit", counted)
        monkeypatch.setattr(_worker, "map_in_workers",
                            lambda fn, items, workers=None: [fn(i) for i in items])
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path)
        rc = run_cli([
            "tune", "--data", csv_path, "--target", "target",
            "--M", 5, "--seed", 3, "--out-dir", tmp_path,
        ])
        assert rc == 0
        result = json.loads((tmp_path / "tune_result.json").read_text())
        assert fitted == [(k, 5) for k, _ in result["path"]]

    def test_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_worker, "_usable_cpus", lambda: workers)
            out = tmp_path / f"w{workers}"
            assert run_cli(["tune", "--data", csv_path, "--target", "target",
                            "--M", 3, "--seed", 2, "--out-dir", out]) == 0
            manifest = json.loads((out / "tune_manifest.json").read_text())
            result = json.loads((out / "tune_result.json").read_text())
            assert manifest["workers"] == workers
            assert manifest["blas_threads_per_worker"] == 1
            assert [t["k"] for t in manifest["grid_seconds"]] == [
                k for k, _ in result["path"]]
            counts = manifest["solve_counts"]
            assert counts["cholesky"] + counts["certified"] + counts["spectral"] \
                == 3 * sum(1 for k, _ in result["path"] if k > 0)
            outputs.append([(out / name).read_bytes()
                            for name in ("tune_path.csv", "tune_result.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_same_bytes_for_any_caller_blas_threads(self, tmp_path):
        # At n = 600, p = 100 (300 training rows), the grid sizes near p
        # fitted in the caller's process differ in the last bits between
        # one and two BLAS threads: k = 102 gave GCV 41.370691662347845
        # with one and 41.370691662385774 with two, and k = 119 and 153
        # differed too. Every size is fitted in a worker with one BLAS
        # thread, whatever the caller's setting. The baseline fields and
        # the holdout error are computed in the caller, under its setting.
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, n=600, p=100)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "subridge", "tune", "--data", str(csv_path),
                 "--target", "target", "--M", "2", "--seed", "1", "--no-baseline",
                 "--out-dir", str(out)], capture_output=True, text=True,
                timeout=120, env=module_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            result = json.loads((out / "tune_result.json").read_text())
            outputs.append(((out / "tune_path.csv").read_bytes(),
                            result["k_hat"], result["gcv_at_k_hat"]))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags, message", [
        (["--M", 0], "M must be at least 1"),
        (["--lambda", "nan"], "lam must be finite and nonnegative"),
    ], ids=["M-0", "lambda-nan"])
    def test_bad_number_rejected_before_any_worker(self, tmp_path, capsys,
                                                   monkeypatch, flags, message):
        def no_workers(fn, items, workers=None):
            raise AssertionError("tune_k started workers")

        monkeypatch.setattr(_worker, "map_in_workers", no_workers)
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, n=60, p=5)
        rc = run_cli(["tune", "--data", csv_path, "--target", "target", *flags,
                      "--out-dir", tmp_path / "out"])
        assert rc == 2
        assert capsys.readouterr().err == f"subridge tune: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_constant_target_selects_null(self, tmp_path):
        csv_path = tmp_path / "flat.csv"
        rng = np.random.default_rng(1)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["a", "b", "y"])
            for _ in range(60):
                writer.writerow([repr(rng.normal()), repr(rng.normal()), "3.0"])
        rc = run_cli([
            "tune", "--data", csv_path, "--target", "y",
            "--M", 4, "--no-baseline", "--out-dir", tmp_path,
        ])
        assert rc == 0
        result = json.loads((tmp_path / "tune_result.json").read_text())
        assert result["k_hat"] == 0
        assert result["holdout_mse"] == pytest.approx(0.0, abs=1e-20)

    def test_missing_target_column(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, n=20, p=6)
        rc = run_cli(["tune", "--data", csv_path, "--target", "nope",
                      "--out-dir", tmp_path])
        assert rc == 2
        assert "target column" in capsys.readouterr().err

    def test_non_numeric_cell(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,y\n1.0,2.0\nhello,3.0\n4.0,5.0\n6.0,7.0\n")
        rc = run_cli(["tune", "--data", csv_path, "--target", "y",
                      "--out-dir", tmp_path])
        assert rc == 2
        assert "non-numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, capsys, cell):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(f"a,y\n1.0,2.0\n3.0,4.0\n{cell},3.0\n4.0,5.0\n6.0,7.0\n")
        rc = run_cli(["tune", "--data", csv_path, "--target", "y",
                      "--out-dir", tmp_path])
        assert rc == 2
        assert f"{csv_path}:4: non-finite cell" in capsys.readouterr().err


def float_reference(path, target):
    """The loader's contract, cell by cell: csv records through float()."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    t = header.index(target)
    table = [[float(v) for v in row] for row in rows]
    return (np.array([[v for i, v in enumerate(r) if i != t] for r in table]),
            np.array([r[t] for r in table]))


def assert_bit_identical(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


FOUR_ROWS = "1,2\n3,4\n5,6\n7,8\n"


class TestCsvLoader:
    @pytest.mark.parametrize("body, message", [
        ("a,y\n1.0,2.0\n3.0,x\n4.0,5.0\n6.0,7.0\n", "{path}:3: non-numeric cell"),
        ("a,y\n1,2\n3\n" + FOUR_ROWS, "{path}:3: expected 2 fields"),
        ("a,y\n1,2\n3,4,5\n" + FOUR_ROWS, "{path}:3: expected 2 fields"),
        ("a,y\n1,2\n\n" + FOUR_ROWS, "{path}:3: expected 2 fields"),
        ("a,y\n\n", "{path}:2: expected 2 fields"),
        ("a,y\n" + FOUR_ROWS + "\n", "{path}:6: expected 2 fields"),
        ("a,y\n", "{path}: need a header row and at least one data row"),
        ("", "{path}: need a header row and at least one data row"),
        ("a,y\n1,2\n3,4\n5,6\n", "{path}: need at least 4 rows, found 3"),
        ("a,b\n" + FOUR_ROWS,
         "{path}: target column 'y' not in header ['a', 'b']"),
    ], ids=["non-numeric", "short-row", "long-row", "blank-line-inside",
            "blank-body", "blank-line-at-end", "header-only", "empty-file",
            "three-rows", "missing-target"])
    @pytest.mark.filterwarnings("error")
    def test_rejected_with_line_context(self, tmp_path, capsys, body, message):
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(body.encode())
        rc = run_cli(["tune", "--data", csv_path, "--target", "y",
                      "--out-dir", tmp_path / "out"])
        assert rc == 2
        assert capsys.readouterr().err == message.format(path=csv_path) + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body", [
        'a,y,b\n"1.5","-2","3e2"\n"4",5,"6.25"\n7,"8",9\n"10","11","12"\n',
        "a,y,b\n 1.5 ,\t-2, 3e2\n4 , 5,6.25 \n7,8 ,9\n 10,11,12\n",
        "a,y,b\r\n1.5,-2,3e2\r\n4,5,6.25\r\n7,8,9\r\n10,11,12\r\n",
        "a,y,b\n1_000,-2,3e2\n4,5_0.5,6.25\n7,8,9\n10,11,12\n",
    ], ids=["quoted", "space-padded", "crlf", "underscore"])
    def test_accepts_what_float_accepts(self, tmp_path, body):
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(body.encode())
        X, y, names = _load_csv_dataset(str(csv_path), "y")
        X_ref, y_ref = float_reference(csv_path, "y")
        assert names == ["a", "b"]
        assert_bit_identical(X, X_ref)
        assert_bit_identical(y, y_ref)

    def test_numpy_parse_is_bit_identical_to_float(self, tmp_path):
        rng = np.random.default_rng(12)
        scale = 10.0 ** rng.integers(-300, 300, (60, 8))
        values = rng.standard_normal((60, 8)) * scale
        cells = [[repr(float(v)) for v in row] for row in values]
        cells[0][:6] = ["-0.0", "1e308", "5e-324", "2.2250738585072e-309",
                        "0.10000000000000001", "1.7976931348623157e308"]
        cells[1] = [format(float(v), ".17g") for v in values[1]]
        csv_path = tmp_path / "data.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"x{j}" for j in range(7)] + ["y"])
            writer.writerows(cells)
        parsed = _parse_csv(str(csv_path), "y")
        assert parsed is not None  # taken by the numpy parse
        X_ref, y_ref = float_reference(csv_path, "y")
        assert_bit_identical(parsed[1][:, :-1], X_ref)
        assert_bit_identical(parsed[1][:, -1], y_ref)
        X, y, _ = _load_csv_dataset(str(csv_path), "y")
        assert_bit_identical(X, X_ref)
        assert_bit_identical(y, y_ref)

    def test_peak_memory_is_a_small_multiple_of_the_arrays(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, n=2000, p=50)
        tracemalloc.start()
        try:
            X, y, _ = _load_csv_dataset(str(csv_path), "target")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.shape == (2000, 50)
        assert peak < 4 * (X.nbytes + y.nbytes)


SURFACE_ARGS = ["theory-surface", "--phi", 0.5, "--lambda", "0:0.5:3",
                "--phis", "1:4:3", "--p-ref", 60]


USAGE_ERRORS = [
    ("tune", ["--M", 0], "M must be at least 1"),
    ("tune", ["--nu", 2], "nu must lie in (0, 1)"),
    ("tune", ["--lambda", -1], "lam must be finite and nonnegative"),
    ("tune", ["--lambda", "nan"], "lam must be finite and nonnegative"),
    ("theory-surface", ["--phi", -1], "phi must be positive and finite"),
    ("theory-surface", ["--p-ref", 3],
     "p_ref must be at least 5 (the signal spans five eigenvectors)"),
    ("theory-surface", ["--rho-ar1", 1.5], "rho_ar1 must lie in [0, 1)"),
    ("theory-surface", ["--sigma2", -1],
     "rho2 and sigma2 must be finite and nonnegative"),
    ("tune", ["--holdout", "inf"], "holdout must lie in (0, 1)"),
    ("tune", ["--holdout", "nan"], "holdout must lie in (0, 1)"),
    ("theory-surface", ["--sigma2", "nan"],
     "rho2 and sigma2 must be finite and nonnegative"),
    ("theory-surface", ["--phi", "inf"], "phi must be positive and finite"),
    ("theory-surface", ["--phi", 0], "phi must be positive and finite"),
]


@pytest.mark.parametrize(
    "command, flags, message", USAGE_ERRORS,
    ids=[f"{command}-flags{i}" for i, (command, _, _) in enumerate(USAGE_ERRORS)])
def test_out_of_range_number_is_a_usage_error(tmp_path, capsys, command, flags,
                                              message):
    if command == "tune":
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, n=60, p=5)
        args = ["tune", "--data", csv_path, "--target", "target"]
    else:
        args = SURFACE_ARGS
    out = tmp_path / "out"
    rc = run_cli(args + flags + ["--out-dir", out])
    assert rc == 2
    assert capsys.readouterr().err == f"subridge {command}: {message}\n"
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    env = module_env()
    args = [str(a) for a in SURFACE_ARGS + ["--out-dir", tmp_path]]
    proc = subprocess.run([sys.executable, "-m", "subridge", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "surface.csv").exists()
    proc = subprocess.run([sys.executable, "-m", "subridge", "theory-surface",
                           "--phi", "-1", "--lambda", "0.1", "--phis", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "subridge theory-surface: phi must be positive and finite\n"


class TestAtomicWrite:
    def test_run_leaves_no_temp_file(self, tmp_path):
        rc = run_cli([
            "theory-surface", "--phi", 0.5, "--lambda", "0:0.5:2",
            "--phis", "0.5:2:3", "--p-ref", 20, "--out-dir", tmp_path,
        ])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "surface.csv", "surface_markers.json", "theory_surface_manifest.json"]

    def test_failed_writer_removes_temp_and_keeps_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def failing(path):
            path.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            _atomic_write(target, failing)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "old\n"

    def test_temp_names_are_unique(self, tmp_path):
        seen = []
        for _ in range(2):
            _atomic_write(tmp_path / "out.csv",
                          lambda p: (seen.append(p.name), p.write_text("x")))
        assert seen[0] != seen[1]
        assert all(name.startswith("out.csv.") for name in seen)


def test_library_modules_bind_no_csv_or_json():
    # subridge.cli writes every output file; the library returns data only.
    bound = {
        name: sorted({"csv", "json"} & vars(importlib.import_module(
            f"subridge.{name}")).keys())
        for name in ("montecarlo", "tuning", "risk", "ensemble", "fixed_point",
                     "spectra")
    }
    assert bound == {name: [] for name in bound}


class TestVerify:
    def test_subset_run(self, capsys):
        rc = run_cli(["verify", "--only", "fixed-point,risk-closed-forms"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 criteria passed" in out

    def test_unknown_criterion(self, capsys):
        rc = run_cli(["verify", "--only", "no-such-check"])
        assert rc == 2

    def test_json_output(self, capsys):
        # contour-extension's errors come from numpy arithmetic; its verdict
        # must still serialize.
        rc = run_cli(["verify", "--json", "--only",
                      "fixed-point,risk-closed-forms,contour-extension"])
        results = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [r["name"] for r in results] == [
            "fixed-point", "risk-closed-forms", "contour-extension"]
        for r in results:
            assert r.keys() == {"name", "passed", "detail", "seconds"}
            assert r["passed"] is True and r["seconds"] >= 0.0

    def test_json_carries_the_traceback_of_a_raising_criterion(self, capsys,
                                                               monkeypatch):
        from subridge import verify

        def broken_criterion():
            raise ZeroDivisionError("planted failure")

        monkeypatch.setitem(verify.REGISTRY, "fixed-point", broken_criterion)
        rc = run_cli(["verify", "--json", "--only", "fixed-point"])
        (result,) = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert result["passed"] is False
        assert result["detail"] == "raised ZeroDivisionError: planted failure"
        assert result["traceback"].startswith("Traceback (most recent call last)")
        assert "broken_criterion" in result["traceback"]
        assert result["traceback"].rstrip().endswith(
            "ZeroDivisionError: planted failure")
