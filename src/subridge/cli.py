"""Command-line entry points.

Subcommands:
  theory-surface  risk landscape over a (penalty, subsample-aspect) grid
  sim             seeded Monte Carlo sweep from a key=value config file
  tune            GCV subsample tuning on a CSV dataset, with ridge baseline
  verify          run the built-in verification suite

Every command writes a JSON run manifest next to its outputs. This module
writes every output file, atomically (temp + rename), through two writers:
`_write_csv` (a header row, LF line endings, floats as `repr` so they parse
back exactly, `nan`/`inf` spelled so) and `_write_json` (indent 2, sorted
keys, trailing newline). The library modules return data only.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
import uuid
from pathlib import Path

import numpy as np

from . import __version__
from . import ensemble as ens
from .fixed_point import newton_counts
from .montecarlo import SimConfig, run_experiment
from .risk import (
    equivalence_path,
    optimal_lambda,
    optimal_subsample,
    risk_surface,
    surface_nan_reasons,
)
from .spectra import ar1_model
from .tuning import subsample_grid, tune_k, tune_lambda

__all__ = ["main"]


def _atomic_write(path: Path, writer) -> None:
    """Write via a uniquely named sibling temp file and rename into place, so
    runs writing into one directory never share a temp file. The temp file
    is removed if the writer fails."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only if the writer or rename failed


TIDY_COLUMNS = [
    "rep", "k", "lambda", "M", "phis",
    "gcv", "train_error", "oob_error", "test_risk",
    "risk_theory", "gcv_theory", "error",
]
AGG_COLUMNS = [
    "k", "lambda", "M", "phis",
    "gcv_mean", "gcv_stderr", "test_risk_mean", "test_risk_stderr",
    "oob_mean", "oob_stderr", "risk_theory", "gcv_theory", "n_ok",
]


def _write_csv(path: Path, columns, rows=(), chunks=()) -> None:
    """A header row, then one row per sequence of cells in `rows` (a float as
    `repr(float(v))`, anything else as `str(v)`, quoted where csv needs it),
    then each text of `chunks`: whole rows already formatted so, from
    numeric cells, which need no quoting."""
    def write(tmp):
        with open(tmp, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(
                [repr(float(v)) if isinstance(v, float) else str(v) for v in row]
                for row in rows
            )
            fh.writelines(chunks)
    _atomic_write(path, write)


def _surface_chunks(lam_grid: np.ndarray, phis_grid: np.ndarray,
                    surface: np.ndarray):
    """surface.csv's (lambda, phis, risk) rows as `_write_csv` chunks, one
    per lambda. Each lambda and phis is formatted once, each risk once."""
    phis_text = [f",{phis!r}," for phis in phis_grid.tolist()]
    for lam, risks in zip(map(repr, lam_grid.tolist()), surface.tolist()):
        yield "".join([lam + phis + risk + "\n"
                       for phis, risk in zip(phis_text, map(repr, risks))])


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, lambda p: p.write_text(text, newline="\n"))


def _manifest(out_dir: Path, command: str, config: dict, seed, outputs, started,
              **run_info):
    payload = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "artifact_version": __version__,
        "outputs": [str(p) for p in outputs],
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
        **run_info,
    }
    _write_json(out_dir / f"{command.replace('-', '_')}_manifest.json", payload)


def _fit_info(result) -> dict:
    """The worker processes, their BLAS threads and the member solves by
    path (count, and seconds to the millisecond) of a sim or tune run."""
    return {
        "workers": result.workers,
        "blas_threads_per_worker": result.blas_threads_per_worker,
        "solve_counts": result.solve_counts,
        "solve_seconds": {key: round(s, 3)
                          for key, s in result.solve_seconds.items()},
    }


def _parse_grid(text: str) -> np.ndarray:
    """Parse `lo:hi:count` (inclusive linear grid with finite ends) or a
    single number, which may be `inf`; NaN is rejected either way."""
    parts = text.split(":")
    try:
        if len(parts) == 1 and not math.isnan(value := float(parts[0])):
            return np.array([value])
        if len(parts) == 3:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count >= 1 and -math.inf < lo <= hi < math.inf:
                return np.linspace(lo, hi, count)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected `lo:hi:count` or a single number, got {text!r}"
    )


def _parse_lambda_grid(text: str) -> np.ndarray:
    """A `_parse_grid` grid of penalties, all nonnegative."""
    grid = _parse_grid(text)
    if grid[0] < 0.0:
        raise argparse.ArgumentTypeError(
            f"expected nonnegative penalties, got {text!r}")
    return grid


def _parse_phis_grid(text: str) -> np.ndarray:
    """A `_parse_grid` grid of subsample aspect ratios, all positive. One
    below phi is valid and gives NaN cells."""
    grid = _parse_grid(text)
    if grid[0] <= 0.0:
        raise argparse.ArgumentTypeError(
            f"expected positive aspect ratios, got {text!r}")
    return grid


def _parse_config_file(path: str) -> dict[str, str]:
    items = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise SystemExit(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in items:
            raise SystemExit(f"{path}:{lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def _out_dir(args) -> Path:
    """The output directory, created on the command's first write so that
    rejected input leaves none behind."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


NAN_REASON_TEXT = {
    "phis_below_phi": "with phis < phi",
    "excluded_boundary": "at the excluded lambda = 0, phis = 1",
    "divergent_variance": "with divergent variance",
}


def cmd_theory_surface(args) -> int:
    started = time.perf_counter()
    model, _, _ = ar1_model(args.rho_ar1, p_ref=args.p_ref, sigma2=args.sigma2)
    lam_grid, phis_grid = args.lam, args.phis
    # Everything is computed before the first output is written, so a
    # rejected argument leaves no partial output behind.
    marks = [(newton_counts(), time.perf_counter())]
    surface = risk_surface(args.phi, lam_grid, phis_grid, model)
    marks.append((newton_counts(), time.perf_counter()))
    phis_star, r_sub = optimal_subsample(0.0, args.phi, model)
    lam_star, r_lam = optimal_lambda(args.phi, args.phi, model)
    segment = []
    if math.isfinite(phis_star) and phis_star > args.phi:
        segment = [
            {"t": pt.t, "lambda": pt.lam, "phis": pt.phis, "risk": pt.risk}
            for pt in equivalence_path(args.phi, phis_star, model, 11)
        ]
    marks.append((newton_counts(), time.perf_counter()))
    # The Newton core's work and the seconds for each output file, and the
    # size of the Gauss rule of H it read.
    fixed_point = {
        name: {**{key: end[key] - start[key] for key in end},
               "seconds": round(ended - began, 3)}
        for name, (start, began), (end, ended) in zip(
            ("surface", "markers"), marks, marks[1:])
    }
    fixed_point["rule"] = {"atoms": model.H.values.size,
                           "nodes": model.H._rule[0].size}

    nan_cells = surface_nan_reasons(args.phi, lam_grid, phis_grid, surface)
    if any(nan_cells.values()):
        reasons = ", ".join(f"{count} {NAN_REASON_TEXT[reason]}"
                            for reason, count in nan_cells.items() if count)
        print(f"warning: {sum(nan_cells.values())} grid cell(s) outside the "
              f"theory's domain written as nan: {reasons}", file=sys.stderr)

    out = _out_dir(args)
    surface_path = out / "surface.csv"
    _write_csv(surface_path, ["lambda", "phis", "risk"],
               chunks=_surface_chunks(lam_grid, phis_grid, surface))
    markers_path = out / "surface_markers.json"
    _write_json(markers_path, {
        "phi": args.phi,
        "lambda_star": lam_star, "risk_at_lambda_star": r_lam,
        "phis_star": phis_star, "risk_at_phis_star": r_sub,
        "equivalence_segment": segment,
    })

    config = {
        "phi": args.phi, "rho_ar1": args.rho_ar1, "sigma2": args.sigma2,
        "p_ref": args.p_ref, "lambda_grid": [float(v) for v in lam_grid],
        "phis_grid": [float(v) for v in phis_grid],
    }
    _manifest(out, "theory-surface", config, None,
              [surface_path, markers_path], started, nan_cells=nan_cells,
              fixed_point=fixed_point)
    return 0


def cmd_sim(args) -> int:
    started = time.perf_counter()
    items = _parse_config_file(args.config)
    try:
        config = SimConfig.from_mapping(items)
    except ValueError as exc:
        print(f"config error in {args.config}: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    out = _out_dir(args)
    tidy_path = out / "sim_tidy.csv"
    agg_path = out / "sim_aggregate.csv"
    _write_csv(tidy_path, TIDY_COLUMNS,
               ([row[c] for c in TIDY_COLUMNS] for row in result.rows))
    _write_csv(agg_path, AGG_COLUMNS,
               ([row[c] for c in AGG_COLUMNS] for row in result.aggregate()))
    _manifest(out, "sim", items, config.master_seed, [tidy_path, agg_path], started,
              **_fit_info(result),
              replicate_seconds=[
                  {"rep": t["rep"], "fit_s": round(t["fit_s"], 3),
                   "score_s": round(t["score_s"], 3)}
                  for t in result.replicate_seconds
              ])
    return 0


def _parse_csv(path: str, target: str):
    """(header, table) from one numpy parse of the body into a float array,
    or None when the file needs `_scan_csv`.

    np.loadtxt reads each cell with the same string-to-double conversion as
    float(), so the values agree bit for bit, but it skips blank lines and
    rejects cells float() accepts (`1_000`, non-ASCII digits). The table is
    kept only when every line gave one full row of finite values and there
    are enough rows; any other file is left to `_scan_csv`, which reports
    the offending line or reads what float() accepts. So is a body whose
    first line is missing or blank, on which np.loadtxt would warn that it
    found no data.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        first = next(fh, "")
        if header is None or not first.strip() or target not in header:
            return None
        lines = 0

        def body():
            nonlocal lines
            for line in itertools.chain((first,), fh):
                lines += 1
                yield line

        try:
            table = np.loadtxt(body(), delimiter=",", comments=None,
                               quotechar='"', ndmin=2)
        except ValueError:
            return None
    if (table.shape != (lines, len(header)) or lines < 4
            or not np.isfinite(table).all()):
        return None
    return header, table


def _scan_csv(path: str, target: str):
    """(header, table) read cell by cell with float(); exits with the first
    problem, naming its line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise SystemExit(f"{path}: need a header row and at least one data row")
    header = rows[0]
    if target not in header:
        raise SystemExit(f"{path}: target column {target!r} not in header {header}")
    table = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise SystemExit(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise SystemExit(f"{path}:{lineno}: non-numeric cell")
        if not all(map(math.isfinite, values)):
            raise SystemExit(f"{path}:{lineno}: non-finite cell")
        table.append(values)
    if len(table) < 4:
        raise SystemExit(f"{path}: need at least 4 rows, found {len(table)}")
    return header, np.array(table, dtype=float)


def _load_csv_dataset(path: str, target: str):
    """(X, y, feature names) from a numeric CSV with a header row. The
    cells go straight into one float array, about 8 bytes each."""
    try:
        header, table = _parse_csv(path, target) or _scan_csv(path, target)
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    t_idx = header.index(target)
    feature_names = [h for i, h in enumerate(header) if i != t_idx]
    return np.delete(table, t_idx, axis=1), table[:, t_idx].copy(), feature_names


def cmd_tune(args) -> int:
    started = time.perf_counter()
    if not 0 < args.holdout < 1:
        raise ValueError("holdout must lie in (0, 1)")
    if args.seed < 0:
        raise ValueError("seed must be nonnegative")
    X, y, _ = _load_csv_dataset(args.data, args.target)
    n = len(y)
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(n)
    n_hold = int(round(args.holdout * n))
    if not 0 < n_hold < n:
        raise SystemExit("holdout fraction leaves an empty split")
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]

    # Gather each split once and drop the full array before fitting; the
    # splits are standardized in place with training-split statistics only.
    train_X, hold_X = X[train_idx], X[hold_idx]
    del X
    mu = train_X.mean(axis=0)
    sd = train_X.std(axis=0)
    sd[sd == 0] = 1.0
    for part in (train_X, hold_X):
        part -= mu
        part /= sd
    y_mu = y[train_idx].mean()
    train = ens.Dataset(train_X, y[train_idx] - y_mu)
    hold_y = y[hold_idx]

    grid = subsample_grid(train.n, args.nu)
    result = tune_k(train, args.lam, grid, args.M, args.seed)
    pred = hold_X @ result.coef + y_mu
    holdout_mse = float(np.mean((hold_y - pred) ** 2))

    baseline_lam = baseline_gcv = baseline_mse = None
    before = ens.solve_counts()
    if not args.no_baseline:
        lam_grid = np.concatenate(([0.0], np.logspace(-4, 2, 25)))
        baseline_lam, baseline_gcv, base_fit = tune_lambda(train, lam_grid)
        base_pred = ens.predict(base_fit, hold_X) + y_mu
        baseline_mse = float(np.mean((hold_y - base_pred) ** 2))
    baseline_counts = {key: n - before[key] for key, n in ens.solve_counts().items()}

    out = _out_dir(args)
    result_path = out / "tune_result.json"
    _write_json(result_path, {
        "k_hat": result.k_hat,
        "gcv_at_k_hat": result.gcv_at_k_hat,
        "lambda": result.lam,
        "M": result.M,
        "path": [list(point) for point in result.path],
        "degenerate_cells": list(result.degenerate_cells),
        "holdout_mse": holdout_mse,
        "baseline_lambda": baseline_lam,
        "baseline_gcv": baseline_gcv,
        "baseline_holdout_mse": baseline_mse,
        "train_rows": int(train.n),
        "holdout_rows": int(n_hold),
    })
    path_path = out / "tune_path.csv"
    _write_csv(path_path, ["k", "gcv"], result.path)
    config = {
        "data": args.data, "target": args.target, "lambda": args.lam,
        "M": args.M, "nu": args.nu, "holdout": args.holdout,
    }
    _manifest(out, "tune", config, args.seed, [result_path, path_path], started,
              **_fit_info(result),
              grid_seconds=[
                  {"k": k, "fit_s": round(seconds, 3)}
                  for (k, _), seconds in zip(result.path, result.fit_seconds)
              ],
              baseline_solve_counts=baseline_counts)
    print(f"k_hat = {result.k_hat}, holdout MSE = {holdout_mse:.6g}"
          + (f", baseline MSE = {baseline_mse:.6g}" if baseline_mse is not None
             else ""))
    return 0


def cmd_verify(args) -> int:
    from .verify import format_table, run_criteria

    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",")]
    try:
        results = run_criteria(only)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "seconds": r.seconds,
             **({"traceback": r.traceback} if r.traceback else {})}
            for r in results
        ], indent=2))
    else:
        print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subridge",
        description="Subsample ridge ensembles: asymptotic theory, "
                    "simulation, and GCV tuning.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_surface = sub.add_parser(
        "theory-surface", help="risk landscape over a (lambda, phis) grid"
    )
    p_surface.add_argument("--phi", type=float, required=True)
    p_surface.add_argument("--rho-ar1", type=float, default=0.5)
    p_surface.add_argument("--sigma2", type=float, default=1.0)
    p_surface.add_argument("--p-ref", type=int, default=500,
                           help="dimension of the reference spectrum")
    p_surface.add_argument("--lambda", dest="lam", type=_parse_lambda_grid,
                           required=True, metavar="LO:HI:COUNT")
    p_surface.add_argument("--phis", type=_parse_phis_grid, required=True,
                           metavar="LO:HI:COUNT")
    p_surface.add_argument("--out-dir", default=".")
    p_surface.set_defaults(func=cmd_theory_surface)

    p_sim = sub.add_parser("sim", help="seeded Monte Carlo sweep")
    p_sim.add_argument("--config", required=True,
                       help="flat key = value config file")
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_sim)

    p_tune = sub.add_parser("tune", help="GCV subsample tuning on CSV data")
    p_tune.add_argument("--data", required=True, help="CSV with header row")
    p_tune.add_argument("--target", required=True, help="target column name")
    p_tune.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_tune.add_argument("--M", type=int, default=50)
    p_tune.add_argument("--nu", type=float, default=0.5)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--holdout", type=float, default=0.5)
    p_tune.add_argument("--no-baseline", action="store_true",
                        help="skip the tuned-ridge baseline")
    p_tune.add_argument("--out-dir", default=".")
    p_tune.set_defaults(func=cmd_tune)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--only", action="append", metavar="NAME[,NAME...]",
                          help="restrict to the named criteria")
    p_verify.add_argument("--json", action="store_true",
                          help="print a JSON list with each criterion's name, "
                               "passed, detail and seconds, and the traceback "
                               "of one that raised")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except ValueError as exc:
        # Out-of-range numbers are rejected by the library's own checks.
        print(f"subridge {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
