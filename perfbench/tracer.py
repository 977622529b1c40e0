"""Span tracer that instruments modlab from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every loaded `modlab.*` namespace that binds it: modules import one another's
functions by name (`experiments` binds `propagate`, `counter_uniform`, ...),
so rebinding only the defining module would miss those calls.
`Tracer.uninstall()` puts every original back.

A span is (name, start, end, parent span, op id). Spans stay in memory until
the run ends. Self time is a span's duration minus the durations of its
direct children; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Public functions traced per module; more than are reported by name, so that
# a reported function's self time excludes the public calls it makes.
# Functions called ~1e4+ times per op (`scattering.gamma`, `log_gamma`) are
# left out: wrapping them costs more than the work they do and would distort
# the layers above.
TRACED = {
    "grid": ("make_grid", "to_momentum", "from_momentum", "inner", "translate"),
    "states": ("make_packet", "make_two_slit", "make_grating", "superpose",
               "apply_region_phase"),
    "evolve": ("propagate", "propagate_two", "translation_expect_two",
               "free_far_field", "product_state"),
    "observables": ("translation_expect", "weyl_moment", "modular_distribution",
                    "eom_residual", "fringe_peaks", "taylor_divergence_demo",
                    "fold_density", "tv_from_uniform"),
    "operators": ("weyl_matrix", "eom_identity_residual", "build_x", "build_p",
                  "build_translation"),
    "scattering": ("bessel_j", "partial_wave_psi", "scattering_profile"),
    "experiments": ("run", "sample_detections", "uncertainty_experiment",
                    "classical_limit_experiment", "random_walk_experiment"),
    "records": ("write_record",),
    "rng": ("counter_uniform",),
    "cli": ("main",),
}


def _fft_flop(sites: int) -> float:
    """5 N log2 N, the conventional flop count of one complex FFT of N points."""
    return 5.0 * sites * (sites.bit_length() - 1)


def _count_sizes(name: str, args: tuple, kwargs: dict, result, counts: dict) -> None:
    """Problem-size counters taken from a call's inputs and outputs only, so
    they stay valid whatever algorithm computes the result."""
    if name in ("evolve.propagate", "evolve.propagate_two"):
        state, cfg = args[0], args[2] if len(args) > 2 else kwargs["cfg"]
        sites = state.grid.n ** (1 if name == "evolve.propagate" else 2)
        counts[name + ".steps"] += cfg.steps
        counts["evolve.site_steps"] += cfg.steps * sites
        counts["evolve.fft_flop"] += 2.0 * cfg.steps * _fft_flop(sites)
    elif name == "operators.eom_identity_residual":
        grid = args[0] if args else kwargs["grid"]
        counts["operators.matrix_entries"] += grid.n ** 2
    elif name.startswith("operators."):
        counts["operators.matrix_entries"] += result.dim ** 2
    elif name in ("scattering.partial_wave_psi", "scattering.scattering_profile"):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        counts["scattering.coefficients"] += 2 * cfg.n_max + 1
    elif name == "experiments.sample_detections":
        counts["experiments.sample_detections.trials"] += len(result)
    elif name == "rng.counter_uniform":
        counts["rng.draws"] += len(result) if hasattr(result, "__len__") else 1
    elif name == "records.write_record":
        counts["records.bytes_written"] += result.stat().st_size


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # (name, start, end, parent, op)
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    op: int = -1  # spans and counts outside a traced op are not recorded
    _stack: list = field(default_factory=list)  # (span index, layer) of open spans
    _saved: list = field(default_factory=list)

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            parent, parent_layer = self._stack[-1] if self._stack else (-1, None)
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append((index, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if parent_layer != layer:  # sizes of requests made to the layer
                _count_sizes(name, args, kwargs, result, self.counts[self.op])
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "modlab" or n.startswith("modlab."))]
        for layer, names in TRACED.items():
            module = sys.modules[f"modlab.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._saved.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[int, dict[str, list]]:
        """Per op: name -> [calls, self seconds]."""
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, op = span
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            row = out[op][name]
            row[0] += 1
            row[1] += (end - start) - child_time[index]
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


def installed_wrappers() -> list[str]:
    """Names in loaded modlab namespaces still bound to a tracer wrapper."""
    found = []
    for n, m in sorted(sys.modules.items()):
        if m is None or not (n == "modlab" or n.startswith("modlab.")):
            continue
        for attr, value in vars(m).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append(f"{n}.{attr}")
    return found


# Functions whose calls and self time are reported by name.
REPORTED = (
    "evolve.propagate_two", "evolve.translation_expect_two", "evolve.propagate",
    "grid.to_momentum", "grid.translate", "states.make_packet", "states.make_grating",
    "observables.translation_expect", "observables.weyl_moment",
    "observables.modular_distribution", "observables.eom_residual",
    "observables.fringe_peaks", "observables.taylor_divergence_demo",
    "operators.weyl_matrix", "operators.eom_identity_residual",
    "scattering.bessel_j", "scattering.partial_wave_psi", "scattering.scattering_profile",
    "experiments.run", "experiments.sample_detections", "rng.counter_uniform",
    "records.write_record", "cli.main",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics: self times averaged over the traced ops; exact
    counts from the first traced op (every op of a workload has the same
    call structure; only the record sizes depend on the drawn inputs)."""
    per_op = tracer.self_times()
    ops = sorted(per_op)
    first, counts = per_op[ops[0]], tracer.counts[ops[0]]

    def self_s(prefix: str) -> float:
        return sum(sec for op in ops for name, (_, sec) in per_op[op].items()
                   if name == prefix or name.startswith(prefix + ".")) / len(ops)

    m: dict[str, tuple[float, str]] = {}
    for name in REPORTED:
        m[f"{name}.calls"] = (first[name][0] if name in first else 0, "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    steps_2d = counts["evolve.propagate_two.steps"]
    steps_1d = counts["evolve.propagate.steps"]
    site_steps = counts["evolve.site_steps"]
    m["evolve.propagate_two.steps"] = (int(steps_2d), "count")
    m["evolve.propagate_two.ms_per_step"] = (
        _ratio(1e3 * self_s("evolve.propagate_two"), steps_2d), "ms")
    m["evolve.propagate.steps"] = (int(steps_1d), "count")
    m["evolve.propagate.us_per_step"] = (_ratio(1e6 * self_s("evolve.propagate"), steps_1d), "us")
    m["evolve.site_steps"] = (int(site_steps), "count")
    m["evolve.ns_per_site_step"] = (_ratio(
        1e9 * (self_s("evolve.propagate") + self_s("evolve.propagate_two")), site_steps), "ns")
    m["evolve.fft_gflop_computed"] = (counts["evolve.fft_flop"] / 1e9, "GFLOP")
    entries = counts["operators.matrix_entries"]
    m["operators.matrix_entries"] = (int(entries), "count")
    m["operators.ns_per_entry"] = (_ratio(1e9 * self_s("operators"), entries), "ns")
    coefficients = counts["scattering.coefficients"]
    m["scattering.coefficients"] = (int(coefficients), "count")
    m["scattering.us_per_coefficient"] = (_ratio(1e6 * self_s("scattering"), coefficients), "us")
    m["experiments.sample_detections.trials"] = (
        int(counts["experiments.sample_detections.trials"]), "count")
    m["rng.draws"] = (int(counts["rng.draws"]), "count")
    m["records.bytes_written"] = (int(counts["records.bytes_written"]), "bytes")
    return m
