import csv
import json
import tracemalloc

import numpy as np
import pytest

from subridge import ensemble as ens
from subridge import generate_ar1
from subridge.cli import _atomic_write, _load_csv_dataset, _parse_csv, main


def run_cli(args):
    return main([str(a) for a in args])


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

    def test_bad_grid_syntax_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli([
                "theory-surface", "--phi", 0.1, "--lambda", "1:0:-3",
                "--phis", "1", "--out-dir", tmp_path,
            ])


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

    def test_parse_error_has_line_context(self, tmp_path, capsys):
        cfg = tmp_path / "broken.txt"
        cfg.write_text("phi = 0.5\nnot a key value pair\n")
        rc = run_cli(["sim", "--config", cfg, "--out-dir", tmp_path])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "k_grid = -5,10", "M_list = 0", "lambda_grid = -1", "lambda_grid = nan",
    ])
    def test_value_every_cell_rejects_is_a_config_error(self, tmp_path, capsys,
                                                         line):
        key = line.split(" = ")[0]
        kept = [c for c in self.CONFIG.splitlines() if not c.startswith(key)]
        cfg = tmp_path / "bad.txt"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        rc = run_cli(["sim", "--config", cfg, "--out-dir", tmp_path / "out"])
        assert rc == 2
        assert f"config error in {cfg}: {key} values must be" in (
            capsys.readouterr().err)
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

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

    def test_fits_each_ensemble_once(self, tmp_path, monkeypatch):
        # The holdout predictions reuse tune_k's fit at k_hat and
        # tune_lambda's baseline fit: one ensemble per grid point, no refit.
        fitted = []
        original = ens.ensemble_fit

        def counted(data, k, M, lam, seed):
            fitted.append((k, M))
            return original(data, k, M, lam, seed)

        monkeypatch.setattr(ens, "ensemble_fit", counted)
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path)
        rc = run_cli([
            "tune", "--data", csv_path, "--target", "target",
            "--M", 5, "--seed", 3, "--out-dir", tmp_path,
        ])
        assert rc == 0
        result = json.loads((tmp_path / "tune_result.json").read_text())
        assert fitted == [(k, 5) for k, _ in result["path"]]

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


@pytest.mark.parametrize("command, flags", [
    ("tune", ["--M", 0]),
    ("tune", ["--nu", 2]),
    ("tune", ["--lambda", -1]),
    ("tune", ["--lambda", "nan"]),
    ("theory-surface", ["--phi", -1]),
    ("theory-surface", ["--p-ref", 3]),
    ("theory-surface", ["--rho-ar1", 1.5]),
    ("theory-surface", ["--sigma2", -1]),
])
def test_out_of_range_number_is_a_usage_error(tmp_path, capsys, command, flags):
    if command == "tune":
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, n=60, p=5)
        args = ["tune", "--data", csv_path, "--target", "target"]
    else:
        args = SURFACE_ARGS
    out = tmp_path / "out"
    rc = run_cli(args + flags + ["--out-dir", out])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"subridge {command}: " in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


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


class TestVerify:
    def test_subset_run(self, capsys):
        rc = run_cli(["verify", "--only", "fixed-point,risk-closed-forms"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 criteria passed" in out

    def test_unknown_criterion(self, capsys):
        rc = run_cli(["verify", "--only", "no-such-check"])
        assert rc == 2
