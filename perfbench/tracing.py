"""Span tracing of subridge's public functions, installed from outside.

`Recorder.install()` replaces every public function of the traced modules
(their ``__all__`` entries that are plain functions) in every ``subridge``
namespace that holds it, so calls made between modules and inside a module
both pass through a wrapper. The wrapper records one span per call (name,
start, end, parent span, raised or not) in memory and calls the original
with the same arguments; the result is returned untouched. Dense
factorizations of numpy.linalg / scipy.linalg are counted, not timed, and
charged to the innermost traced span's module.

`layer_metrics()` turns the spans into the per-layer numbers named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("spectra", "fixed_point", "risk", "ensemble", "montecarlo", "tuning", "cli")
CLI_COMMANDS = ("theory-surface", "sim", "tune")
FACTORIZATIONS = {
    "numpy.linalg": ("eigh", "eigvalsh", "cholesky", "svd"),
    "scipy.linalg": ("eigh", "eigvalsh", "cholesky", "cho_factor", "svd"),
}
# Regime of one member fit, from (k, p, lambda): square means |k - p| <= 0.1 p.
REGIMES = tuple(f"{shape}_{pen}" for shape in ("dual", "square", "primal")
                for pen in ("ridgeless", "ridge"))

NAME, START, END, PARENT, RAISED = range(5)


def regime(k: int, p: int, lam: float) -> str:
    if abs(k - p) <= 0.1 * p:
        shape = "square"
    else:
        shape = "dual" if k < p else "primal"
    return f"{shape}_{'ridgeless' if lam == 0.0 else 'ridge'}"


class Recorder:
    """In-memory spans and counters for one traced workload repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.factorizations: Counter = Counter()
        self.fit_cells: list[tuple[int, str, int]] = []  # (span, regime, M)
        self.solve_keys: set = set()
        self.counts: Counter = Counter()
        self._measure_keys: dict[int, tuple] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            idx = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            if on_call is not None:
                on_call(idx, args, kwargs)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_factorization(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            layer = self.spans[self.stack[-1]][NAME].split(".")[0] if self.stack else "-"
            self.factorizations[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def _measure_key(self, H) -> str:
        # Keep H alive so its id cannot be reused by another measure.
        entry = self._measure_keys.get(id(H))
        if entry is None:
            digest = hashlib.sha1(H.values.tobytes() + H.weights.tobytes()).hexdigest()
            entry = self._measure_keys[id(H)] = (H, digest)
        return entry[1]

    def _hooks(self):
        """Per-function counters taken from arguments or results."""

        def solve_v_call(idx, args, kwargs):
            lam, theta, H = _bind(args, kwargs, ("lam", "theta", "H"))
            self.solve_keys.add((lam, theta, self._measure_key(H)))

        def fit_call(idx, args, kwargs):
            data, k, M, lam = _bind(args, kwargs, ("data", "k", "M", "lam"))
            if k > 0:
                self.fit_cells.append((idx, regime(k, data.p, lam), M))

        def surface_return(result):
            self.counts["risk.risk_surface.cells"] += result.size
            self.counts["risk.risk_surface.nan_cells"] += int((result != result).sum())

        def gcv_return(report):
            self.counts["ensemble.gcv.degenerate"] += int(report.degenerate)

        def experiment_return(result):
            self.counts["montecarlo.cells"] += len(result.rows)
            self.counts["montecarlo.failed_cells"] += sum(
                1 for row in result.rows if row["error"])

        def tune_return(result):
            self.counts["tuning.tune_k.grid_points"] += len(result.path)
            self.counts["tuning.tune_k.degenerate_cells"] += len(result.degenerate_cells)

        return {
            "fixed_point.solve_v": (solve_v_call, None),
            "ensemble.ensemble_fit": (fit_call, None),
            "risk.risk_surface": (None, surface_return),
            "ensemble.gcv": (None, gcv_return),
            "montecarlo.run_experiment": (None, experiment_return),
            "tuning.tune_k": (None, tune_return),
        }

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced subridge module."""
        hooks = self._hooks()
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"subridge.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                name = f"{layer}.{attr}"
                if name == "cli.main":
                    name = _cli_span_name
                on_call, on_return = hooks.get(f"{layer}.{attr}", (None, None))
                replacements[id(fn)] = (fn, self._wrap(name, fn, on_call, on_return))
        modules = [m for name, m in sys.modules.items()
                   if name == "subridge" or name.startswith("subridge.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._patch(module, attr, replacements[id(value)][1])
        for module_name, attrs in FACTORIZATIONS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                self._patch(module, attr, self._count_factorization(getattr(module, attr)))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reduction -----------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; wall_s is the traced
        repetition's wall time, against which self times are accounted."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]

        calls, raised, inclusive = Counter(), Counter(), defaultdict(float)
        self_by_layer, self_by_span = defaultdict(float), [0.0] * len(spans)
        solves_in_finite_m = 0
        for i, span in enumerate(spans):
            name = span[NAME]
            duration = span[END] - span[START]
            self_by_span[i] = duration - child_time[i]
            self_by_layer[name.split(".")[0] if not name.startswith("cli.")
                          else name] += self_by_span[i]
            calls[name] += 1
            raised[name] += span[RAISED]
            ancestors = self._ancestor_names(i)
            if name not in ancestors:
                inclusive[name] += duration
            if name == "fixed_point.solve_v" and "risk.gcv_limit_finite_M" in ancestors:
                solves_in_finite_m += 1

        m: dict[str, float] = {}
        m["spectra.ar1_model.calls"] = calls["spectra.ar1_model"]
        m["spectra.ar1_model.s"] = inclusive["spectra.ar1_model"]

        n_solve = calls["fixed_point.solve_v"]
        m["fixed_point.solve_v.calls"] = n_solve
        m["fixed_point.solve_v.s"] = inclusive["fixed_point.solve_v"]
        m["fixed_point.solve_v.us_per_call"] = (
            1e6 * inclusive["fixed_point.solve_v"] / n_solve if n_solve else 0.0)
        m["fixed_point.solve_v.errors"] = raised["fixed_point.solve_v"]
        m["fixed_point.solve_v.unique_frac"] = (
            len(self.solve_keys) / n_solve if n_solve else 0.0)

        m["risk.asymptotic_risk.calls"] = calls["risk.asymptotic_risk"]
        m["risk.asymptotic_risk.s"] = inclusive["risk.asymptotic_risk"]
        n_finite = calls["risk.gcv_limit_finite_M"]
        m["risk.gcv_limit_finite_M.calls"] = n_finite
        m["risk.gcv_limit_finite_M.s"] = inclusive["risk.gcv_limit_finite_M"]
        m["risk.gcv_limit_finite_M.solves_per_call"] = (
            solves_in_finite_m / n_finite if n_finite else 0.0)
        m["risk.risk_surface.s"] = inclusive["risk.risk_surface"]
        m["risk.risk_surface.cells"] = self.counts["risk.risk_surface.cells"]
        m["risk.risk_surface.nan_cells"] = self.counts["risk.risk_surface.nan_cells"]
        for fn in ("optimal_subsample", "optimal_lambda", "equivalence_path"):
            m[f"risk.{fn}.s"] = inclusive[f"risk.{fn}"]

        members = sum(M for _, _, M in self.fit_cells)
        m["ensemble.ensemble_fit.calls"] = calls["ensemble.ensemble_fit"]
        m["ensemble.ensemble_fit.s"] = inclusive["ensemble.ensemble_fit"]
        m["ensemble.ensemble_fit.members"] = members
        by_regime_members, by_regime_s = Counter(), defaultdict(float)
        for idx, reg, M in self.fit_cells:
            by_regime_members[reg] += M
            by_regime_s[reg] += self_by_span[idx]  # excludes sample_subsets
        for reg in REGIMES:
            m[f"ensemble.fit.{reg}.members"] = by_regime_members[reg]
            m[f"ensemble.fit.{reg}.ms_per_member"] = (
                1e3 * by_regime_s[reg] / by_regime_members[reg]
                if by_regime_members[reg] else 0.0)
        m["ensemble.factorizations"] = self.factorizations["ensemble"]
        m["ensemble.factorizations_per_member"] = (
            self.factorizations["ensemble"] / members if members else 0.0)
        for fn in ("sample_subsets", "gcv", "training_error", "oob_error",
                   "conditional_risk", "predict"):
            m[f"ensemble.{fn}.s"] = inclusive[f"ensemble.{fn}"]
        m["ensemble.gcv.degenerate"] = self.counts["ensemble.gcv.degenerate"]

        m["montecarlo.generate_ar1.calls"] = calls["montecarlo.generate_ar1"]
        m["montecarlo.generate_ar1.s"] = inclusive["montecarlo.generate_ar1"]
        m["montecarlo.run_experiment.s"] = inclusive["montecarlo.run_experiment"]
        m["montecarlo.cells"] = self.counts["montecarlo.cells"]
        m["montecarlo.failed_cells"] = self.counts["montecarlo.failed_cells"]

        m["tuning.tune_k.s"] = inclusive["tuning.tune_k"]
        m["tuning.tune_k.grid_points"] = self.counts["tuning.tune_k.grid_points"]
        m["tuning.tune_k.degenerate_cells"] = self.counts["tuning.tune_k.degenerate_cells"]
        m["tuning.tune_lambda.s"] = inclusive["tuning.tune_lambda"]

        for layer in LAYERS[:-1]:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        for command in CLI_COMMANDS:
            m[f"cli.{command}.self_s"] = self_by_layer[f"cli.{command}"]
        accounted = sum(self_by_layer.values())
        m["trace.spans"] = len(spans)
        m["trace.accounted_frac"] = accounted / wall_s if wall_s > 0 else 0.0
        return m

    def _ancestor_names(self, i: int) -> set[str]:
        names = set()
        parent = self.spans[i][PARENT]
        while parent >= 0:
            names.add(self.spans[parent][NAME])
            parent = self.spans[parent][PARENT]
        return names


def _cli_span_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def _bind(args, kwargs, names):
    """Positional-or-keyword values of the leading parameters `names`."""
    values = list(args[: len(names)])
    for name in names[len(values):]:
        values.append(kwargs[name])
    return values
