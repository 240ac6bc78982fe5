"""End-to-end verification suite.

Each criterion is a zero-argument callable returning (passed, detail). The
registry drives both the `verify` CLI subcommand and the acceptance test
module, so there is exactly one implementation of every check. Expected
values are frozen here; nothing is recomputed from the code under test
except the quantities being checked.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import ensemble as ens
from .montecarlo import SimConfig, generate_ar1, run_experiment
from .risk import (
    asymptotic_risk,
    contour_lambda_for_phis,
    equivalence_path,
    gcv_limit,
    optimal_lambda,
    optimal_subsample,
)
from .spectra import ar1_model, isotropic_model
from .fixed_point import solve_v
from .tuning import subsample_grid, tune_lambda

__all__ = ["CriterionResult", "REGISTRY", "run_criteria", "format_table"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    traceback: str | None = None  # the text of the exception it raised


def _iso_atom():
    return isotropic_model(rho2=1.0, sigma2=1.0)


def criterion_fixed_point():
    """Closed-form fixed points on the isotropic spectrum."""
    model = _iso_atom()
    errs = []
    v1 = solve_v(0.0, 2.0, model.H).v
    errs.append(abs(v1 - 1.0))
    v2 = solve_v(1.0, 1.0, model.H).v
    errs.append(abs(v2 - (math.sqrt(5.0) - 1.0) / 2.0))
    sol3 = solve_v(0.1, 0.5, model.H)
    v3_expect = (4.0 + math.sqrt(56.0)) / 2.0
    errs.append(abs(sol3.ell - 0.1 * v3_expect))
    worst = max(errs)
    return worst <= 1e-10, f"max closed-form error {worst:.2e} (tol 1e-10)"


def criterion_risk_closed_forms():
    """Isotropic ensemble risk closed forms."""
    model = _iso_atom()
    r_a = asymptotic_risk(0.0, 2.0, 2.0, model, M=1).risk
    r_b = asymptotic_risk(0.0, 0.5, 2.0, model, M=math.inf).risk
    e_a = abs(r_a - 2.5)
    e_b = abs(r_b - 10.0 / 7.0)
    worst = max(e_a, e_b)
    return worst <= 1e-10, (
        f"|R1(0;2,2)-2.5|={e_a:.2e}, |Rinf(0;0.5,2)-10/7|={e_b:.2e} (tol 1e-10)"
    )


def criterion_gcv_risk_identity():
    """Full-ensemble GCV limit equals the full-ensemble risk.

    The limit is computed as union training error over GCV denominator, as
    at every M. At M = inf those are R_inf (q + x ell)^2 and (q + x ell)^2,
    x = phi/phis, q = 1 - x, so the identity holds by construction of the
    closed form; `tests/test_risk.py` holds that closed form to the share
    blend it was derived from, in 40-digit decimal."""
    model, _, _ = ar1_model(0.5, p_ref=500)
    rng = np.random.default_rng(3)
    worst = 0.0
    count = 0
    while count < 100:
        phi = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0)))
        phis = float(phi * 10.0 ** rng.uniform(0.0, math.log10(10.0 / phi)))
        if phis < phi:
            continue
        lam = 0.0 if rng.random() < 0.3 else float(10.0 ** rng.uniform(-2, 0.5))
        if lam == 0.0 and abs(phis - 1.0) < 0.05:
            continue
        risk = asymptotic_risk(lam, phi, phis, model, M=math.inf).risk
        err = abs(gcv_limit(lam, phi, phis, model) - risk) / max(1.0, risk)
        worst = max(worst, err)
        count += 1
    return worst <= 1e-10, f"max |gcv_limit - risk| over 100 tuples {worst:.2e}"


def criterion_penalty_subsample_equivalence():
    """Tuned subsampling, tuned penalty, and the joint tuning agree, and the
    risk is constant along the connecting segment."""
    model, _, _ = ar1_model(0.5, p_ref=500)
    details = []
    ok = True
    for phi in (0.1, 0.5, 2.0):
        phis_star, r_sub = optimal_subsample(0.0, phi, model)
        lam_star, r_lam = optimal_lambda(phi, phi, model)
        gap = abs(r_sub - r_lam)
        ok &= gap <= 1e-6
        # Joint minimum over both knobs.
        grid = list(np.geomspace(phi, 50.0, 30)) + [math.inf]
        if math.isfinite(phis_star):
            grid.append(phis_star)
        joint = min(optimal_lambda(phi, g, model)[1] if math.isfinite(g)
                    else model.null_risk for g in grid)
        ok &= abs(joint - r_sub) <= 1e-6 and abs(joint - r_lam) <= 1e-6
        # Constant risk along the equivalence segment.
        seg_target = phis_star if math.isfinite(phis_star) else 2.0 * max(phi, 1.0)
        if seg_target > phi:
            risks = [pt.risk for pt in equivalence_path(phi, seg_target, model, 11)]
            spread = max(risks) - min(risks)
            ok &= spread < 1e-8
        else:
            spread = 0.0
        details.append(f"phi={phi}: axis gap {gap:.1e}, segment spread {spread:.1e}")
    return ok, "; ".join(details)


def criterion_contour_extension():
    """Risk is invariant between (lam_bar, phi) and ridgeless at phis_bar."""
    model, _, _ = ar1_model(0.5, p_ref=500)
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    while count < 20:
        phi = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(3.0)))
        phis_bar = float(phi * 10.0 ** rng.uniform(0.02, 1.0))
        if abs(phis_bar - 1.0) < 0.05 or phis_bar <= phi:
            continue
        lam_bar = contour_lambda_for_phis(phi, phis_bar, model.H)
        r_ridge = asymptotic_risk(lam_bar, phi, phi, model).risk
        r_sub = asymptotic_risk(0.0, phi, phis_bar, model).risk
        worst = max(worst, abs(r_ridge - r_sub) / max(1.0, r_sub))
        count += 1
    iso = _iso_atom()
    spot = contour_lambda_for_phis(0.5, 2.0, iso.H)
    spot_err = abs(spot - 0.75)
    passed = bool(worst <= 1e-10 and spot_err <= 1e-10)
    return passed, (
        f"max risk mismatch over 20 pairs {worst:.2e}; "
        f"isotropic lam_bar(0.5, 2) error {spot_err:.2e}"
    )


def _dense_smoother_trace(data, subsets, lam):
    """Mean trace of the densely built member smoothing matrices of the
    ensemble on `subsets` at penalty lam."""
    total = 0.0
    for idx in subsets:
        Xi = data.X[idx]
        k = Xi.shape[0]
        sigma_hat = Xi.T @ Xi / k
        if lam > 0:
            m_mat = np.linalg.inv(sigma_hat + lam * np.eye(data.p))
        else:
            m_mat = np.linalg.pinv(sigma_hat)
        total += float(np.trace(Xi @ m_mat @ Xi.T)) / k
    return total / len(subsets)


def criterion_trace_identity():
    """Dense smoothing-matrix trace equals the mean member trace."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 61))
        p = int(rng.integers(2, 31))
        k = int(rng.integers(1, n + 1))
        M = int(rng.integers(1, 9))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        data = ens.Dataset(X, y)
        for lam in (0.0, 0.3):
            seed = int(rng.integers(2**31))
            fit = ens.ensemble_fit(data, k, M, lam, seed)
            dense = _dense_smoother_trace(
                data, ens.sample_subsets(n, k, M, seed), lam)
            worst = max(worst, abs(dense - fit.mean_trace))
    return worst <= 1e-8, f"max trace mismatch {worst:.2e} (tol 1e-8)"


def criterion_gcv_consistency_trend():
    """|GCV - fresh-test risk| shrinks with dimension at fixed ratios."""
    phis_targets = (4.0, 2.5, 1.6, 0.625, 0.4, 0.25, 0.16, 0.125)
    gaps = {}
    risk_level = {}
    for p in (100, 200, 400):
        k_grid = tuple(int(round(p / t)) for t in phis_targets)
        config = SimConfig(
            phi=0.1, p=p, k_grid=k_grid, lambda_grid=(0.0,),
            M_list=(100,), reps=20, rho_ar1=0.5, sigma2=1.0, master_seed=7,
        )
        rows = run_experiment(config).rows
        gaps[p] = float(np.mean([
            abs(r["gcv"] - r["test_risk"]) for r in rows
        ]))
        risk_level[p] = float(np.mean([r["test_risk"] for r in rows]))
    decreasing = gaps[100] > gaps[200] > gaps[400]
    small = gaps[400] <= 0.05 * risk_level[400]
    detail = (
        f"mean |gcv - risk|: p=100 {gaps[100]:.4f}, p=200 {gaps[200]:.4f}, "
        f"p=400 {gaps[400]:.4f}; p=400 level {risk_level[400]:.4f}"
    )
    return decreasing and small, detail


def criterion_two_member_inconsistency():
    """Two-member ridgeless GCV versus its finite-M limit and gap.

    Isotropic, sigma2 = rho2 = 1, phi = 0.5, phis = 2, lambda = 0; write
    c = k/n = phi/phis = 1/4. Each member is ridgeless with phis > 1, so it
    interpolates its own subsample. On the union of the two subsamples the
    ensemble residual is zero on the overlap (a fraction c of each subsample)
    and half of the other member's held-out error elsewhere, so the union
    training error tends to R_1 (1 - c) / (2 (2 - c)). Each member's trace is
    k and the union has k (2 - c) points, so the trace fraction tends to
    1 / (2 - c). Hence GCV_2 tends to R_1 (2 - c) / (2 (1 - c)) = 35/12, and
    with R_2 = (R_1 + R_inf) / 2 the gap GCV_2 - R_2 tends to
    (R_1 / (1 - c) - R_inf) / 2 = 20/21, where R_1 = 2.5 and R_inf = 10/7
    (both frozen in `risk-closed-forms`). These agree with
    gcv_limit_finite_M(0, 0.5, 2, M=2) and inconsistency_gap(0.5, 2).

    Earlier versions encoded 6.25 and 30/7, which are what the same formulas
    give with c and 1 - c swapped. The M = 100 condition checks that the
    inconsistency vanishes as the ensemble grows.
    """
    p, n, k, reps = 200, 400, 100, 30
    gcv2, risk2, gcv100, risk100 = [], [], [], []
    beta0 = np.zeros(p)
    beta0[0] = 1.0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((8, rep)))
        X = rng.standard_normal((n, p))
        y = X @ beta0 + rng.standard_normal(n)
        data = ens.Dataset(X, y)
        Xt = rng.standard_normal((n, p))
        test = ens.Dataset(Xt, Xt @ beta0 + rng.standard_normal(n))
        seed = int(rng.integers(2**31))
        fit2 = ens.ensemble_fit(data, k, 2, 0.0, seed)
        gcv2.append(ens.gcv(fit2, data).value)
        risk2.append(ens.conditional_risk(fit2, test))
        fit100 = ens.ensemble_fit(data, k, 100, 0.0, seed)
        gcv100.append(ens.gcv(fit100, data).value)
        risk100.append(ens.conditional_risk(fit100, test))
    mean2 = float(np.mean(gcv2))
    se2 = float(np.std(gcv2, ddof=1) / math.sqrt(reps))
    gap2 = mean2 - float(np.mean(risk2))
    target_value = 35.0 / 12.0
    target_gap = 20.0 / 21.0
    mean100_gap = abs(float(np.mean(gcv100)) - float(np.mean(risk100)))
    level100 = float(np.mean(risk100))
    ok_value = abs(mean2 - target_value) <= 3.0 * se2
    ok_gap = abs(gap2 - target_gap) <= 0.25 * target_gap
    ok_large = mean100_gap < 0.10 * level100
    detail = (
        f"mean gcv(M=2) {mean2:.4f} +- {se2:.4f} vs 35/12 = {target_value:.4f}; "
        f"gap {gap2:.4f} vs 20/21 = {target_gap:.4f}; "
        f"M=100 gap {mean100_gap:.4f} vs 10% of {level100:.4f}"
    )
    return ok_value and ok_gap and ok_large, detail


def _tuning_replicate(rep):
    """One replicate of `tuning-end-to-end`: the test risks of the
    GCV-selected k, of the best k on the grid and of the tuned-ridge
    baseline. Its data come from seeds, so replicates run in any process."""
    n, p, M = 2000, 200, 50
    grid = subsample_grid(n, 0.5)
    lam_grid = np.concatenate(([0.0], np.logspace(-3, 1, 15)))
    data, _ = generate_ar1(n, p, 0.5, 1.0, np.random.SeedSequence((9, rep, 0)))
    test, _ = generate_ar1(n, p, 0.5, 1.0, np.random.SeedSequence((9, rep, 1)))
    path = []
    for k in grid:
        fit = ens.ensemble_fit(data, k, M, 0.0, seed=rep)
        path.append((k, ens.gcv(fit, data).value,
                     ens.conditional_risk(fit, test)))
    k_hat, _, _ = min(path, key=lambda t: (t[1], t[0]))
    selected = next(r for k, _, r in path if k == k_hat)
    oracle = min(r for _, _, r in path)
    _, _, base_fit = tune_lambda(data, lam_grid)
    return selected, oracle, ens.conditional_risk(base_fit, test)


def criterion_tuning_end_to_end():
    """GCV subsample tuning tracks the oracle and the tuned-ridge baseline."""
    from ._worker import map_in_workers

    risks = map_in_workers(_tuning_replicate, range(10))
    sel, ora, base = (float(np.mean(column)) for column in zip(*risks))
    ok = abs(sel - ora) <= 0.05 * ora and abs(sel - base) <= 0.05 * base
    return ok, (
        f"mean test risk: selected {sel:.4f}, grid oracle {ora:.4f}, "
        f"tuned-ridge baseline {base:.4f} (5% tolerance)"
    )


def criterion_subset_overlap():
    """Mean pairwise subsample overlap matches the hypergeometric law."""
    n, k, pairs = 100, 20, 10_000
    subsets = ens.sample_subsets(n, k, 2 * pairs, seed=10)
    overlaps = [
        np.intersect1d(subsets[2 * i], subsets[2 * i + 1]).size
        for i in range(pairs)
    ]
    mean = float(np.mean(overlaps))
    expect = k * k / n
    var = (k * k * (n - k) ** 2) / (n * n * (n - 1))
    band = 3.0 * math.sqrt(var / pairs)
    return abs(mean - expect) <= band, (
        f"mean overlap {mean:.4f} vs {expect} +- {band:.4f}"
    )


def criterion_sim_reproducibility():
    """Identical seeds give identical bytes; seeds differ, statistics agree."""
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    config_text = (
        "phi = 0.5\np = 40\nk_grid = 20,40\nlambda_grid = 0.1\n"
        "M_list = 5\nreps = 6\nrho_ar1 = 0.5\nsigma2 = 1.0\nmaster_seed = {seed}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = {}
        for label, seed in (("a", 11), ("b", 11), ("c", 12)):
            cfg = tmp / f"config_{label}.txt"
            cfg.write_text(config_text.format(seed=seed))
            out_dir = tmp / label
            rc = cli_main(["sim", "--config", str(cfg), "--out-dir", str(out_dir)])
            if rc != 0:
                return False, f"sim run {label} exited with {rc}"
            outputs[label] = {
                name: (out_dir / name).read_bytes()
                for name in ("sim_tidy.csv", "sim_aggregate.csv")
            }
        identical = outputs["a"] == outputs["b"]
        different = outputs["a"]["sim_tidy.csv"] != outputs["c"]["sim_tidy.csv"]

        def agg_rows(raw):
            import csv as _csv
            import io
            rows = list(_csv.DictReader(io.StringIO(raw.decode())))
            return {(r["k"], r["lambda"], r["M"]): r for r in rows}

        rows_a = agg_rows(outputs["a"]["sim_aggregate.csv"])
        rows_c = agg_rows(outputs["c"]["sim_aggregate.csv"])
        compatible = True
        for key, ra in rows_a.items():
            rc_row = rows_c[key]
            spread = float(ra["gcv_stderr"]) + float(rc_row["gcv_stderr"])
            compatible &= (
                abs(float(ra["gcv_mean"]) - float(rc_row["gcv_mean"]))
                <= 6.0 * spread + 1e-9
            )
    passed = identical and different and compatible
    return passed, (
        f"same-seed identical: {identical}; cross-seed different: {different}; "
        f"aggregates compatible: {compatible}"
    )


REGISTRY = {
    "fixed-point": criterion_fixed_point,
    "risk-closed-forms": criterion_risk_closed_forms,
    "gcv-risk-identity": criterion_gcv_risk_identity,
    "penalty-subsample-equivalence": criterion_penalty_subsample_equivalence,
    "contour-extension": criterion_contour_extension,
    "trace-identity": criterion_trace_identity,
    "gcv-consistency-trend": criterion_gcv_consistency_trend,
    "two-member-inconsistency": criterion_two_member_inconsistency,
    "tuning-end-to-end": criterion_tuning_end_to_end,
    "subset-overlap": criterion_subset_overlap,
    "sim-reproducibility": criterion_sim_reproducibility,
}


def run_criteria(only=None) -> list[CriterionResult]:
    names = list(REGISTRY) if not only else list(only)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown criteria: {unknown}")
    results = []
    for name in names:
        start = time.perf_counter()
        trace = None
        try:
            passed, detail = REGISTRY[name]()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            trace = traceback.format_exc()
        results.append(CriterionResult(
            name, passed, detail, time.perf_counter() - start, trace))
    return results


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {status}  {r.seconds:7.1f}s  {r.detail}")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
