"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks of their outputs against a reference recorded at commit 2fba75e.

Each workload loads a different layer of subridge:

* theory: three `subridge theory-surface` commands (the phi values in an
  order drawn from the seed) and 800 finite-M GCV-limit curve points (in an
  order drawn from the seed). The values are fixed, so one recorded
  reference covers every seed; the order exercises any cache a later engine
  keeps across calls.
* sim: one `subridge sim` command whose master seed is one of VARIANTS
  recorded seeds, picked by the workload seed.
* tune: one `subridge tune` command on an AR(1) CSV generated by this file
  (not by subridge) from one of VARIANTS recorded seeds.

`prepare()` runs in the harness process and writes the inputs. `execute()`
runs in a fresh worker process that has imported subridge from the
checkout's `src/`. `check()` runs in the harness process and compares a
repetition's output directory with the reference.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import regime

WORKLOADS = ("theory", "sim", "tune")
FAILURE_REASONS = ("exit", "row_error", "mismatch", "missing", "nondeterministic")
VARIANTS = 8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Theory values must match the reference to 1e-12 relative (the gate of
# ROADMAP aim 2), or 1e-12 absolute for the GCV limits that are exactly 0
# (every risk is in units of sigma^2 = 1). The optimizer positions (lambda*,
# phis* and the equivalence segment's coordinates, which are built from
# phis*) come from golden-section searches. Comparing risks near a flat
# minimum locates it only to about sqrt(eps) relative, so a last-digit change
# of the risk can move them: running the BLAS in one thread instead of two
# moved phis* by 2.4e-8. They are held to 1e-6; their risks stay at 1e-12.
THEORY_RTOL = 1e-12
THEORY_ATOL = 1e-12
POSITION_RTOL = 1e-6
# Fitted quantities (GCV, training/OOB/test errors, holdout MSE) may differ
# between two valid factorizations of a member's gram matrix by about
# cond(gram) * eps. Re-solving the members of the recorded sim and tune
# inputs by Cholesky or by SVD least squares instead of `eigh` moved checked
# values by at most 2e-14 relative, except in square ridgeless cells
# (|k - p| <= 0.1 p, lambda = 0), where near-singular members moved them by
# up to 2.6e-5 (README.md, "Tolerances"). Each tolerance is more than 30
# times the largest change seen in its cells.
FIT_RTOL = 1e-9
FIT_RTOL_SQUARE_RIDGELESS = 1e-3


def fit_rtol(k: int, p: int, lam: float) -> float:
    if regime(k, p, lam) == "square_ridgeless":
        return FIT_RTOL_SQUARE_RIDGELESS
    return FIT_RTOL


SIZES = {
    "full": {
        "theory": {"phis": (0.1, 0.5, 1.5), "lambda": "0:2:81", "phis_hi": 10.0,
                   "phis_count": 100, "curve_phi": 0.1,
                   "curve_M": (1, 2, 5, 10, 20, 50, 100, math.inf),
                   "curve_phis": (0.1, 10.0, 50), "curve_lambda": (0.0, 0.1)},
        "sim": {"phi": "0.1", "p": "400", "k_grid": "100,250,400,1600",
                "lambda_grid": "0,0.1", "M_list": "5,25", "reps": "2",
                "rho_ar1": "0.5"},
        "tune": {"n": 4000, "p": 200, "rho_ar1": 0.5, "M": 50},
    },
    # Seconds-long versions of the same workloads for the benchmark's tests.
    "tiny": {
        "theory": {"phis": (0.5,), "lambda": "0:2:5", "phis_hi": 10.0,
                   "phis_count": 6, "curve_phi": 0.1,
                   "curve_M": (1, 2, math.inf),
                   "curve_phis": (0.1, 10.0, 4), "curve_lambda": (0.0, 0.1)},
        "sim": {"phi": "0.2", "p": "20", "k_grid": "10,20,40",
                "lambda_grid": "0,0.1", "M_list": "2,3", "reps": "1",
                "rho_ar1": "0.5"},
        "tune": {"n": 120, "p": 6, "rho_ar1": 0.5, "M": 3},
    },
}
THEORY_MODEL = {"rho_ar1": 0.5, "p_ref": 500, "sigma2": 1.0}


# -- inputs ---------------------------------------------------------------

def prepare(workload: str, seed: int, size: str, inputs: Path) -> dict:
    """Write the workload's inputs for `seed` under `inputs`; return the
    spec the worker executes."""
    inputs.mkdir(parents=True, exist_ok=True)
    cfg = SIZES[size][workload]
    rng = np.random.default_rng(seed)
    variant = seed % VARIANTS
    if workload == "theory":
        phis = [float(phi) for phi in rng.permutation(np.array(cfg["phis"]))]
        points = _curve_points(cfg)
        order = rng.permutation(len(points))
        return {"workload": workload, "size": size, "variant": 0,
                "phis": phis, "curve_points": [points[i] for i in order]}
    if workload == "sim":
        config = inputs / "sim.conf"
        lines = [f"{key} = {value}" for key, value in cfg.items()]
        lines.append(f"master_seed = {variant}")
        config.write_text("\n".join(lines) + "\n")
        return {"workload": workload, "size": size, "variant": variant,
                "config": str(config)}
    data = inputs / "tune.csv"
    _write_ar1_csv(data, cfg["n"], cfg["p"], cfg["rho_ar1"], variant)
    return {"workload": workload, "size": size, "variant": variant,
            "data": str(data), "M": cfg["M"]}


def _curve_points(cfg) -> list[list[float]]:
    lo, hi, count = cfg["curve_phis"]
    return [[lam, float(phis), M]
            for M in cfg["curve_M"]
            for phis in np.geomspace(lo, hi, count)
            for lam in cfg["curve_lambda"]]


def _write_ar1_csv(path: Path, n: int, p: int, rho: float, seed: int) -> None:
    """Rows x ~ N(0, Sigma), Sigma_ij = rho^|i-j|; y = x'beta + N(0, 1)
    with beta ~ N(0, I/(4 p)). Generated here so the inputs do not depend on
    the code under test."""
    rng = np.random.default_rng(np.random.SeedSequence((20230426, seed)))
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    chol = np.linalg.cholesky(rho ** lags)
    X = rng.standard_normal((n, p)) @ chol.T
    beta = rng.standard_normal(p) / (2.0 * math.sqrt(p))
    y = X @ beta + rng.standard_normal(n)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(p)] + ["y"])
        for row, target in zip(X.tolist(), y.tolist()):
            writer.writerow([repr(v) for v in row] + [repr(target)])


def work_items(spec: dict) -> int:
    """Units of work one repetition delivers, fixed by the workload: risk
    evaluations (surface cells plus curve points) for theory, ensemble
    members requested (sum of M over fitted cells) for sim and tune."""
    cfg = SIZES[spec["size"]][spec["workload"]]
    if spec["workload"] == "theory":
        lam_count = int(cfg["lambda"].split(":")[2])
        return len(cfg["phis"]) * lam_count * cfg["phis_count"] + len(spec["curve_points"])
    if spec["workload"] == "sim":
        n_k = len(cfg["k_grid"].split(","))
        n_lam = len(cfg["lambda_grid"].split(","))
        sum_M = sum(int(M) for M in cfg["M_list"].split(","))
        return n_k * n_lam * sum_M * int(cfg["reps"])
    # tune: the ensemble at every nonzero k of the grid, the refit at k_hat,
    # and the one-member full-data ridge baseline.
    return (len(_tune_grid(cfg)) - 1) * cfg["M"] + cfg["M"] + 1


def _tune_grid(cfg) -> set[int]:
    """`subridge tune`'s default grid {0, k0, 2 k0, ..., n_train}, with
    k0 = floor(sqrt(n_train)) and the default holdout of one half."""
    n_train = cfg["n"] - int(round(0.5 * cfg["n"]))
    k0 = int(math.floor(n_train ** 0.5))
    return set(range(0, n_train + 1, k0)) | {n_train}


# -- execution (worker process) --------------------------------------------

def execute(spec: dict, out: Path) -> dict:
    """Run one repetition through subridge's public entry points. Returns
    each command's exit code; outputs, including the curve points and any
    error a point raised, go to files under `out`."""
    from subridge import ar1_model, gcv_limit_finite_M
    from subridge.cli import main

    out.mkdir(parents=True, exist_ok=True)
    exits = {}
    if spec["workload"] == "theory":
        cfg = SIZES[spec["size"]]["theory"]
        for phi in spec["phis"]:
            exits[f"phi={phi!r}"] = _cli(main, [
                "theory-surface", "--phi", repr(phi), "--lambda", cfg["lambda"],
                "--phis", f"{phi!r}:{cfg['phis_hi']!r}:{cfg['phis_count']}",
                "--out-dir", str(out / f"phi={phi!r}")])
        model, _, _ = ar1_model(THEORY_MODEL["rho_ar1"], p_ref=THEORY_MODEL["p_ref"],
                                sigma2=THEORY_MODEL["sigma2"])
        curves = []
        for lam, phis, M in spec["curve_points"]:
            try:
                value = gcv_limit_finite_M(lam, cfg["curve_phi"], phis, model, M=M)
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                value = type(exc).__name__
            curves.append([lam, phis, M, value])
        (out / "curves.json").write_text(json.dumps(curves) + "\n")
    elif spec["workload"] == "sim":
        exits["sim"] = _cli(main, ["sim", "--config", spec["config"],
                                   "--out-dir", str(out)])
    else:
        exits["tune"] = _cli(main, [
            "tune", "--data", spec["data"], "--target", "y", "--M", str(spec["M"]),
            "--seed", str(spec["variant"]), "--out-dir", str(out)])
    return exits


def _cli(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


# -- checks (harness process) ----------------------------------------------

def attempted(spec: dict) -> int:
    """Operations one repetition attempts: each CLI command, plus each curve
    point (theory), each tidy row (sim) or each tuning-path row (tune)."""
    cfg = SIZES[spec["size"]][spec["workload"]]
    if spec["workload"] == "theory":
        return len(cfg["phis"]) + len(spec["curve_points"])
    if spec["workload"] == "sim":
        cells = (len(cfg["k_grid"].split(",")) * len(cfg["lambda_grid"].split(","))
                 * len(cfg["M_list"].split(",")))
        return 1 + cells * int(cfg["reps"])
    return 1 + len(_tune_grid(cfg))


def reference_path(spec: dict) -> Path:
    return REFERENCE_DIR / spec["size"] / f"{spec['workload']}-{spec['variant']}.json.gz"


def check(spec: dict, exits: dict, out: Path, reference: dict) -> Counter:
    """Failures of one repetition by reason: `exit` (a command returned
    nonzero), `row_error` (a sim row or curve point reports an error),
    `mismatch` (an output disagrees with the reference), `missing` (an
    output file is absent or unreadable). The harness adds
    `nondeterministic` (outputs differ from the first repetition's bytes)."""
    failures = Counter()
    for code in exits.values():
        if code != 0:
            failures["exit"] += 1
    if failures and spec["workload"] != "theory":
        return failures  # the one command failed: there is nothing to check
    try:
        if spec["workload"] == "theory":
            _check_theory(spec, exits, out, reference, failures)
        elif spec["workload"] == "sim":
            _check_sim(spec, out, reference, failures)
        else:
            _check_tune(spec, out, reference, failures)
    except (OSError, ValueError, KeyError, IndexError):
        failures["missing"] += 1
    return +failures  # drops reasons that counted nothing


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(b) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= max(rtol * abs(b), atol)


def _theory_close(a: float, b: float) -> bool:
    return _close(a, b, THEORY_RTOL, THEORY_ATOL)


def _check_theory(spec, exits, out, reference, failures) -> None:
    for phi in spec["phis"]:
        key = f"phi={phi!r}"
        if exits[key] != 0:
            continue
        ref = reference["surfaces"][key]
        with open(out / key / "surface.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [[float(v) for v in row] for row in rows]
        ok = len(values) == len(ref) and all(
            _theory_close(a, b) for got, want in zip(values, ref)
            for a, b in zip(got, want))
        markers = json.loads((out / key / "surface_markers.json").read_text())
        ok = ok and _markers_close(markers, reference["markers"][key])
        failures["mismatch"] += not ok
    want = {tuple(point[:3]): point[3] for point in reference["curves"]}
    curves = json.loads((out / "curves.json").read_text())
    for lam, phis, M, value in curves:
        if isinstance(value, str):
            failures["row_error"] += 1
        elif not _theory_close(value, want[(lam, phis, M)]):
            failures["mismatch"] += 1
    failures["mismatch"] += len(spec["curve_points"]) - len(curves)


def _markers_close(got, want, key: str = "") -> bool:
    """Risks to THEORY_RTOL, optimizer positions to POSITION_RTOL."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_markers_close(got[k], want[k], k) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_markers_close(g, w, key) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        if "risk" in key:
            return _theory_close(float(got), want)
        return _close(float(got), want, POSITION_RTOL)
    return got == want


SIM_THEORY_COLUMNS = ("risk_theory", "gcv_theory")
SIM_FIT_COLUMNS = ("gcv", "train_error", "oob_error", "test_risk")
SIM_KEY = ("rep", "k", "lambda", "M")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sim(spec, out, reference, failures) -> None:
    p = int(SIZES[spec["size"]]["sim"]["p"])
    rows = _read_csv(out / "sim_tidy.csv")
    want = {tuple(r[c] for c in SIM_KEY): r for r in reference["tidy"]}
    seen = set()
    for row in rows:
        key = tuple(row[c] for c in SIM_KEY)
        ref = want.get(key)
        seen.add(key)
        if row["error"]:
            failures["row_error"] += 1
        elif ref is None or not _row_close(row, ref, p):
            failures["mismatch"] += 1
    failures["mismatch"] += len(set(want) - seen)
    agg = _read_csv(out / "sim_aggregate.csv")
    if not _aggregate_close(agg, reference["aggregate"], p):
        failures["mismatch"] += 1


def _row_rtol(row, p) -> float:
    return fit_rtol(int(row["k"]), p, float(row["lambda"]))


def _row_close(row, ref, p) -> bool:
    rtol = _row_rtol(ref, p)
    return (row["phis"] == ref["phis"] and row["error"] == ref["error"]
            and all(_theory_close(float(row[c]), float(ref[c]))
                    for c in SIM_THEORY_COLUMNS)
            and all(_close(float(row[c]), float(ref[c]), rtol)
                    for c in SIM_FIT_COLUMNS))


def _aggregate_close(rows, ref_rows, p) -> bool:
    """Means to the cell's fit tolerance; a standard error to that tolerance
    of its mean, since the spread of two nearly equal values has no
    relative precision."""
    if len(rows) != len(ref_rows):
        return False
    for row, ref in zip(rows, ref_rows):
        if any(row[c] != ref[c] for c in ("k", "lambda", "M", "phis", "n_ok")):
            return False
        if not all(_theory_close(float(row[c]), float(ref[c]))
                   for c in SIM_THEORY_COLUMNS):
            return False
        rtol = _row_rtol(ref, p)
        for stat in ("gcv", "test_risk", "oob"):
            mean, ref_mean = float(row[f"{stat}_mean"]), float(ref[f"{stat}_mean"])
            err, ref_err = float(row[f"{stat}_stderr"]), float(ref[f"{stat}_stderr"])
            if not _close(mean, ref_mean, rtol):
                return False
            if math.isfinite(ref_mean) and abs(err - ref_err) > rtol * abs(ref_mean):
                return False
    return True


def _check_tune(spec, out, reference, failures) -> None:
    p = SIZES[spec["size"]]["tune"]["p"]
    result = json.loads((out / "tune_result.json").read_text())
    ref = reference["result"]
    exact = ("k_hat", "M", "lambda", "degenerate_cells", "baseline_lambda",
             "train_rows", "holdout_rows")
    at_k_hat = fit_rtol(ref["k_hat"], p, ref["lambda"])
    at_baseline = fit_rtol(ref["train_rows"], p, ref["baseline_lambda"])
    close = {"gcv_at_k_hat": at_k_hat, "holdout_mse": at_k_hat,
             "baseline_gcv": at_baseline, "baseline_holdout_mse": at_baseline}
    if (any(result.get(c) != ref[c] for c in exact)
            or not all(_close(float(result[c]), float(ref[c]), rtol)
                       for c, rtol in close.items())):
        failures["mismatch"] += 1
    path = _read_csv(out / "tune_path.csv")
    ref_path = {r["k"]: float(r["gcv"]) for r in reference["path"]}
    for row in path:
        want = ref_path.pop(row["k"], None)
        rtol = fit_rtol(int(row["k"]), p, ref["lambda"])
        if want is None or not _close(float(row["gcv"]), want, rtol):
            failures["mismatch"] += 1
    failures["mismatch"] += len(ref_path)


def record(spec: dict, out: Path) -> dict:
    """Reference content of one repetition's outputs (see record_reference.py)."""
    if spec["workload"] == "theory":
        surfaces, markers = {}, {}
        for phi in spec["phis"]:
            key = f"phi={phi!r}"
            with open(out / key / "surface.csv", newline="") as fh:
                surfaces[key] = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
            markers[key] = json.loads((out / key / "surface_markers.json").read_text())
        curves = sorted(json.loads((out / "curves.json").read_text()),
                        key=lambda point: point[:3])
        return {"surfaces": surfaces, "markers": markers, "curves": curves}
    if spec["workload"] == "sim":
        return {"tidy": _read_csv(out / "sim_tidy.csv"),
                "aggregate": _read_csv(out / "sim_aggregate.csv")}
    return {"result": json.loads((out / "tune_result.json").read_text()),
            "path": _read_csv(out / "tune_path.csv")}


def output_files(out: Path) -> dict[str, bytes]:
    """Every output file of a repetition except the manifests, which record
    wall-clock time."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and not p.name.endswith("_manifest.json")}
