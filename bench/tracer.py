"""Outside-in tracing of helmlab: wraps public functions, records spans.

The program is not edited. `Tracer.install` replaces every public
function defined in a helmlab module, in every helmlab module namespace
that binds it (so `from .grid import apply_multiplier_values` in `dual`
is caught too), plus `ResolventSpec.symbol_values` on its class. Each
call records a span (name, start, end, parent, note); `uninstall`
restores the originals. Spans stay in memory until the run reads them.
Functions defined inside other functions (the solver's Nehari projection
and Anderson mix) cannot be reached this way; their time stays in the
enclosing span's self time.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
import types

MODULES = (
    "helmlab",
    "helmlab.errors",
    "helmlab.params",
    "helmlab.grid",
    "helmlab.resolvent",
    "helmlab.coefficients",
    "helmlab.dual",
    "helmlab.concentration",
    "helmlab.config",
    "helmlab.cli",
)

LAYERS = ("cli", "config", "coefficients", "grid", "resolvent", "dual", "concentration")

# Model of the bytes one multiplier application must move, in units of the
# field's element count N: read the real input, the symbol and write the
# real output (3 x 8N), plus one read and one write of the full complex
# spectrum by each of the two transforms (4 x 16N). Computed from array
# sizes, not measured: caches are not observed.
BYTES_PER_ELEMENT_APPLICATION = 3 * 8 + 4 * 16


# What a span keeps of its call's result.
_NOTES = {
    "dual.solve_ground_state": lambda gs: (gs.iterations, gs.converged),
    "grid.apply_multiplier_values": lambda field: field.values.size,
}


class Tracer:
    """Records one span per call of each wrapped helmlab function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        note = _NOTES.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("helmlab.")
                ):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj, name)
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        spec_class = importlib.import_module("helmlab.resolvent").ResolventSpec
        original = spec_class.symbol_values
        self._restore.append((spec_class, "symbol_values", original))
        spec_class.symbol_values = self._wrap(original, "resolvent.symbol_values")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload cycle.

    Times are seconds summed over the cycle; a span's self time is its
    duration minus the durations of its direct children, which on one
    thread cover disjoint parts of it.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]
    self_time = [d - c for d, c in zip(duration, child_time)]

    def inside(i: int, ancestor: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names: str) -> float:
        return sum(duration[i] for n in names for i in by_name.get(n, ()))

    def self_total(*names: str) -> float:
        return sum(self_time[i] for n in names for i in by_name.get(n, ()))

    multipliers = by_name.get("grid.apply_multiplier_values", [])
    solves = by_name.get("dual.solve_ground_state", [])
    iterations = sum(spans[i][4][0] for i in solves)
    solve_s = total("dual.solve_ground_state")
    in_solve = sum(1 for i in multipliers if inside(i, "dual.solve_ground_state"))

    metrics = {
        "config.load_s": total("config.load_config"),
        "coefficients.sample_calls": calls("coefficients.sample_Q"),
        "coefficients.sample_s": total("coefficients.sample_Q"),
        "grid.multiplier_calls": len(multipliers),
        "grid.multiplier_s": total("grid.apply_multiplier_values"),
        "grid.multiplier_ms": 1e3 * statistics.median(duration[i] for i in multipliers) if multipliers else 0.0,
        "grid.bytes_moved_computed": sum(BYTES_PER_ELEMENT_APPLICATION * spans[i][4] for i in multipliers),
        "resolvent.symbol_calls": calls("resolvent.symbol_values"),
        "resolvent.symbol_s": total("resolvent.symbol_values"),
        "resolvent.auto_delta_s": total("resolvent.auto_delta"),
        "resolvent.kernel_s": total("resolvent.extract_kernel", "resolvent.band_decompose"),
        "resolvent.envelope_s": total("resolvent.radial_envelope", "resolvent.fit_decay_exponent"),
        "resolvent.interaction_s": total("resolvent.disjoint_interaction", "resolvent.compact_bump"),
        "dual.solve_calls": len(solves),
        "dual.solve_s": solve_s,
        "dual.solve_self_s": self_total("dual.solve_ground_state"),
        "dual.iterations": iterations,
        "dual.iteration_ms": 1e3 * solve_s / iterations if iterations else 0.0,
        "dual.multipliers_per_iteration": in_solve / iterations if iterations else 0.0,
        "dual.limit_calls": calls("dual.limit_ground_state"),
        "dual.limit_s": total("dual.limit_ground_state"),
        "dual.unconverged": sum(1 for i in solves if not spans[i][4][1]),
        "concentration.level_table_s": total("concentration.level_table"),
        "concentration.level_table_self_s": self_total("concentration.level_table"),
        "concentration.run_sweep_s": total("concentration.run_sweep"),
        "concentration.run_sweep_self_s": self_total("concentration.run_sweep"),
        "concentration.profile_distance_calls": calls("concentration.profile_distance"),
        "concentration.profile_distance_s": total("concentration.profile_distance"),
        "concentration.locate_peak_calls": calls("concentration.locate_peak"),
    }
    in_process = total("cli.main")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        layer = span[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time[i]
    for layer in LAYERS:
        metrics[f"share.{layer}_pct"] = 100.0 * layer_self[layer] / in_process if in_process else 0.0
    return metrics


# Metrics that count work; two traced cycles of one input must agree exactly.
# cli.output_bytes is added by the worker, which sees the output files.
COUNTS = (
    "cli.output_bytes",
    "coefficients.sample_calls",
    "grid.multiplier_calls",
    "grid.bytes_moved_computed",
    "resolvent.symbol_calls",
    "dual.solve_calls",
    "dual.iterations",
    "dual.limit_calls",
    "dual.unconverged",
    "concentration.profile_distance_calls",
    "concentration.locate_peak_calls",
)
