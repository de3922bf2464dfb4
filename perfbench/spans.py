"""Span tracing of the steadypop layers, installed from outside the package.

Every public function of the package modules is wrapped where its callers
look it up: ``solver`` and ``cli`` import ``survival_pi``, ``solve_all`` and
others by name, so the wrapper replaces the name in every module that holds
the same function object, not only in the defining module. The quadrature
kernels are reached as ``_accel.<kernel>`` and are patched on ``_accel``.
Profile validation is traced through ``DensityProfile.__post_init__``.

A span is ``[name, start, end, parent, note]``, kept in memory; ``note``
carries what the benchmark reads off a return value or exception (Picard
iterations, scan results, bytes a kernel touched). Nothing is added to the
package: :meth:`Tracer.install` patches, :meth:`Tracer.remove` restores.
"""

from __future__ import annotations

import importlib
from time import perf_counter

LAYERS = ("cli", "config", "grid", "model", "kernel", "solver", "accel")

# defining module -> public functions traced as spans "<layer>.<function>"
FUNCTIONS = {
    "cli": ("cmd_solve", "cmd_scan", "cmd_certify", "cmd_diagnose", "cmd_verify"),
    "config": ("load_config",),
    "grid": ("build_grid", "integrate", "cumulative_integral",
             "reverse_cumulative_integral", "translate", "zero_profile"),
    "model": ("eval_g", "eval_mu", "eval_beta", "envelope_profiles",
              "random_onion_samples", "validate_hypotheses"),
    "kernel": ("make_context", "survival_pi", "birth_G", "net_reproduction_R",
               "apply_T", "residual", "compactness_diagnostics"),
    "solver": ("solve_all", "scan_roots", "bisect_root", "lambda_residual",
               "inner_picard", "certify", "find_rho0"),
    "_accel": ("cumtrapz", "revcumtrapz", "weighted_sum", "survival_from_rates"),
}

# float64 arrays each kernel reads plus the one it writes (weighted_sum
# returns a scalar): bytes_computed = this count * n * 8, from array sizes
_KERNEL_ARRAYS = {"cumtrapz": 3, "revcumtrapz": 3, "weighted_sum": 2, "survival_from_rates": 4}


class Failed:
    """Note of a span whose call raised ConvergenceError."""

    def __init__(self, iterations):
        self.iterations = iterations or 0


def _layer(module: str) -> str:
    return "accel" if module == "_accel" else module


def _note_for(module: str, name: str):
    """Function reading the work count of one call from its arguments or result."""
    if module == "_accel":
        arrays = _KERNEL_ARRAYS[name]
        return lambda args, result: arrays * 8 * args[0].shape[0]
    if name == "inner_picard":
        return lambda args, result: result.iterations
    if name == "scan_roots":
        return lambda args, result: (len(result.lambdas), len(result.failed), len(result.brackets))
    if name == "solve_all":
        return lambda args, result: len(result[1])
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []                 # (owner, attribute, original)
        self._convergence_error = ()       # set by install(); () catches nothing

    def _wrap(self, span_name: str, fn, note=None):
        tracer, stack = self, self._stack
        convergence_error = self._convergence_error

        def traced(*args, **kwargs):
            spans = tracer.spans
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except convergence_error as exc:
                rec[2] = perf_counter()
                rec[4] = Failed(exc.iterations)
                raise
            except BaseException:
                rec[2] = perf_counter()
                raise
            else:
                rec[2] = perf_counter()
                if note is not None:
                    rec[4] = note(args, result)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span that the benchmark itself opens."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        from steadypop.errors import ConvergenceError

        modules = {m: importlib.import_module("steadypop." + m) for m in FUNCTIONS}
        self._convergence_error = ConvergenceError
        for module, names in FUNCTIONS.items():
            for name in names:
                original = getattr(modules[module], name)
                wrapper = self._wrap("%s.%s" % (_layer(module), name), original,
                                     _note_for(module, name))
                for owner in modules.values():
                    if getattr(owner, name, None) is original:
                        self._patches.append((owner, name, original))
                        setattr(owner, name, wrapper)
        profile = modules["grid"].DensityProfile
        original = profile.__post_init__
        self._patches.append((profile, "__post_init__", original))
        profile.__post_init__ = self._wrap("grid.profile_validate", original)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def take(self) -> list:
        """Spans recorded so far; recording continues into a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list) -> dict:
    """Per-layer work counts and times of one traced pass, from its spans."""
    selfs = self_times(spans)
    calls, total = {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        layer_self[name.split(".", 1)[0]] += selfs[i]

    def count(name):
        return calls.get(name, 0)

    def time(*names):
        return sum(total.get(n, 0.0) for n in names)

    def self_time(name):
        return sum(selfs[i] for i, s in enumerate(spans) if s[0] == name)

    picard_iters = picard_failed = 0
    scan_evals = scan_failed = brackets = equilibria = 0
    bisect_evals = certify_R = 0
    accel_bytes = {}
    for i, s in enumerate(spans):
        name, note = s[0], s[4]
        if name == "solver.lambda_residual":
            bisect_evals += has_ancestor(spans, i, "solver.bisect_root")
        elif name == "kernel.net_reproduction_R":
            certify_R += has_ancestor(spans, i, "solver.certify")
        elif name == "solver.inner_picard":
            if isinstance(note, Failed):
                picard_failed += 1
                picard_iters += note.iterations
            elif note is not None:
                picard_iters += note
        elif note is None or isinstance(note, Failed):
            continue
        elif name == "solver.scan_roots":
            scan_evals += note[0]
            scan_failed += note[1]
            brackets += note[2]
        elif name == "solver.solve_all":
            equilibria += note
        elif name.startswith("accel."):
            accel_bytes[name] = accel_bytes.get(name, 0) + note

    picard_calls = count("solver.inner_picard")
    m = {
        "solver.picard_calls": picard_calls,
        "solver.picard_iters": picard_iters,
        "solver.picard_s": time("solver.inner_picard"),
        "solver.picard_failed": picard_failed,
        "solver.iters_per_eval": picard_iters / picard_calls if picard_calls else 0.0,
        "solver.scan_evals": scan_evals,
        "solver.scan_failed": scan_failed,
        "solver.bisect_evals": bisect_evals,
        "solver.evals_per_root": bisect_evals / equilibria if equilibria else 0.0,
        "solver.brackets": brackets,
        "solver.equilibria": equilibria,
        "solver.certify_R_evals": certify_R,
        "solver.certify_s": time("solver.certify"),
        "model.eval_calls": count("model.eval_g") + count("model.eval_mu") + count("model.eval_beta"),
        "model.eval_s": time("model.eval_g", "model.eval_mu", "model.eval_beta"),
        "grid.profile_count": count("grid.profile_validate"),
        "grid.profile_validate_s": time("grid.profile_validate"),
        "grid.build_s": time("grid.build_grid"),
        "kernel.survival_calls": count("kernel.survival_pi"),
        "kernel.survival_s": time("kernel.survival_pi"),
        "kernel.R_calls": count("kernel.net_reproduction_R"),
        "kernel.R_s": time("kernel.net_reproduction_R"),
        "kernel.residual_s": time("kernel.residual"),
        "cli.output_s": self_time("cli.cmd_solve") + self_time("cli.cmd_scan"),
        "cli.input_s": self_time("cli.cmd_verify"),
        "config.load_s": time("config.load_config"),
    }
    for kernel in _KERNEL_ARRAYS:
        name = "accel." + kernel
        m[name + ".calls"] = count(name)
        m[name + ".s"] = time(name)
        m[name + ".bytes_computed"] = accel_bytes.get(name, 0)
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans)
    return m


# counters every traced pass must reproduce exactly; the times are medians
COUNTERS = tuple(
    ["solver.picard_calls", "solver.picard_iters", "solver.picard_failed",
     "solver.scan_evals", "solver.scan_failed", "solver.bisect_evals",
     "solver.brackets", "solver.equilibria", "solver.certify_R_evals",
     "model.eval_calls", "grid.profile_count", "kernel.survival_calls",
     "kernel.R_calls", "trace.spans"]
    + ["accel.%s.%s" % (k, c) for k in _KERNEL_ARRAYS for c in ("calls", "bytes_computed")]
)
