"""Spans around calls into fene, recorded from outside the package.

Every traced function is replaced, at the binding its caller actually looks
up, by a wrapper that records (name, start, end, parent, points).  Several
fene modules import functions by name (``from .fluid import fluid_rhs``), so
patching the defining module alone would record nothing; BINDINGS lists
every binding that a call on the measured paths goes through.  A binding
that no longer exists raises at patch time, and bench.py checks that every
span expected on a workload fired, so a refactor that renames or rebinds a
function fails loudly instead of reporting zero.

Spans are kept in memory and written out by the caller when the run ends.
"""

import contextlib
import functools
import importlib
import statistics
import time

import numpy as np

FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn",
             "irfftn")

# span name -> "module:attribute" or "module:Class.attribute" bindings
BINDINGS = {
    "coupling.coupled_step": ["fene.coupling:coupled_step"],
    "fluid.rhs": ["fene.coupling:fluid_rhs", "fene.fluid:fluid_rhs"],
    "fluid.step": ["fene.fluid:step"],
    "fluid.cfl_bound": ["fene.fluid:cfl_bound"],
    "fp.step": ["fene.coupling:fp_step"],
    "fp.explicit_tendency": [
        "fene.fokker_planck:FokkerPlanckSolver.explicit_tendency"],
    "fp.nonnegativity_report": ["fene.runner:nonnegativity_report"],
    "fp.energy": ["fene.runner:fp_energy"],
    "coupling.stress_field": ["fene.coupling:stress_field",
                              "fene.runner:stress_field"],
    "coupling.blowup_indicator": ["fene.runner:blowup_indicator"],
    "coupling.run_fixed_point": ["fene.runner:run_fixed_point"],
    "coupling.fixed_point_map": ["fene.coupling:fixed_point_map"],
    "coupling.xs_distance": ["fene.runner:xs_distance",
                             "fene.coupling:xs_distance"],
    "runner.record_state": ["fene.runner:record_state"],
    "runner.write_csv": ["fene.runner:write_csv"],
    "checkpoint.save": ["fene.runner:checkpoint_save"],
    "checkpoint.load": ["fene.checkpoint:checkpoint_load"],
    "configspace.build_quadrature": ["fene.runner:build_quadrature"],
    "configspace.eigen_basis": ["fene.runner:eigen_basis"],
    "torus.sobolev_norm": ["fene.runner:sobolev_norm",
                           "fene.fluid:sobolev_norm"],
    "torus.dealiased_product": ["fene.fluid:dealiased_product"],
    "torus.fft": [f"numpy.fft:{f}" for f in FFT_FUNCS]
    + [f"scipy.fft:{f}" for f in FFT_FUNCS],
}

STEP = "coupling.coupled_step"
FFT = "torus.fft"

# per-layer metric -> unit; "<span>_ms" metrics are the p50 call time of
# that span, the rest are computed in layer_metrics or by bench.py.
# PER_LAYER is the list in BENCHMARK.json; FIXED_POINT_LAYER is on the path
# of contraction_study only, whose workload is not in BENCHMARK.json.
PER_LAYER = {
    "torus.fft_calls_per_step": "count",
    "torus.fft_points_per_step": "count",
    "torus.fft_ms_per_step": "ms",
    "torus.dealiased_product_ms": "ms",
    "torus.sobolev_norm_ms": "ms",
    "configspace.build_quadrature_ms": "ms",
    "configspace.eigen_basis_ms": "ms",
    "fluid.rhs_ms": "ms",
    "fluid.rhs_calls_per_step": "count",
    "fluid.cfl_bound_ms": "ms",
    "fp.explicit_tendency_ms": "ms",
    "fp.nonnegativity_report_ms": "ms",
    "fp.energy_ms": "ms",
    "coupling.coupled_step_self_ms": "ms",
    "coupling.coupled_step_ms_p90": "ms",
    "coupling.stress_field_ms": "ms",
    "coupling.blowup_indicator_ms": "ms",
    "runner.record_state_ms": "ms",
    "runner.monitor_share": "ratio",
    "runner.write_csv_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "count",
    "trace.overhead_frac": "ratio",
}

FIXED_POINT_LAYER = {
    "fluid.step_ms": "ms",
    "fp.step_ms": "ms",
    "coupling.fixed_point_map_s": "s",
    "coupling.xs_distance_ms": "ms",
}

COUNTS = ("torus.fft_calls_per_step", "torus.fft_points_per_step",
          "fluid.rhs_calls_per_step", "checkpoint.bytes")


def _resolve(binding):
    """(owner object, attribute name) of a "module:path.attr" binding."""
    module, _, path = binding.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"traced binding {binding} no longer exists")
    return owner, attr


@contextlib.contextmanager
def patched(replacements):
    """Install {binding: wrapper factory} for the duration of the block."""
    saved = []
    try:
        for binding, make in replacements.items():
            owner, attr = _resolve(binding)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span list; parents always precede their children."""

    def __init__(self):
        self.spans = []   # (name, start, end, parent index, fft points)
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_fft = name == FFT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                points = int(np.size(args[0])) if is_fft else 0
                spans[idx] = (name, start, end, parent, points)

        return traced

    def patched(self):
        return patched({binding: functools.partial(self.wrap, name)
                        for name, bindings in BINDINGS.items()
                        for binding in bindings})


def concat(span_lists):
    """One span list from several, with parent indices shifted to match."""
    out = []
    for spans in span_lists:
        base = len(out)
        out.extend((n, s, e, p + base if p >= 0 else -1, pts)
                   for n, s, e, p, pts in spans)
    return out


def self_times(spans):
    """Duration minus the time covered by direct children, per span.

    Spans on one thread nest without overlap, so the covered time is the
    sum of the children's durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c
            for (_, start, end, _, _), c in zip(spans, covered)]


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of PER_LAYER and FIXED_POINT_LAYER except
    checkpoint.bytes and trace.overhead_frac, which need data from outside
    the spans.

    A layer that is not on the workload's path reports 0."""
    durations = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
    selfs = self_times(spans)

    # index of the enclosing coupled step, or -1; parents precede children
    step_of = [-1] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        step_of[i] = i if name == STEP else \
            (step_of[parent] if parent >= 0 else -1)
    steps = [i for i, sp in enumerate(spans) if sp[0] == STEP]
    n_steps = len(steps)
    fft_ms = {i: 0.0 for i in steps}
    fft_calls = fft_points = rhs_calls = 0
    for i, (name, start, end, parent, points) in enumerate(spans):
        if step_of[i] < 0:
            continue
        if name == FFT and (parent < 0 or spans[parent][0] != FFT):
            fft_calls += 1
            fft_points += points
            fft_ms[step_of[i]] += (end - start) * 1e3
        elif name == "fluid.rhs" and spans[parent][0] == STEP:
            rhs_calls += 1

    out = {}
    for metric in {**PER_LAYER, **FIXED_POINT_LAYER}:
        if metric.endswith("_ms") and metric[:-3] in BINDINGS:
            out[metric] = _p50(durations.get(metric[:-3], [])) * 1e3
    step_durs = durations.get(STEP, [])
    records = durations.get("runner.record_state", [])
    busy = sum(step_durs) + sum(records)
    out.update({
        "torus.fft_calls_per_step": fft_calls / n_steps if n_steps else 0,
        "torus.fft_points_per_step": fft_points / n_steps if n_steps else 0,
        "torus.fft_ms_per_step": _p50(list(fft_ms.values())),
        "fluid.rhs_calls_per_step": rhs_calls / n_steps if n_steps else 0,
        "coupling.coupled_step_self_ms": _p50([selfs[i] for i in steps]) * 1e3,
        "coupling.coupled_step_ms_p90":
            float(np.quantile(step_durs, 0.9)) * 1e3 if step_durs else 0.0,
        "coupling.fixed_point_map_s":
            _p50(durations.get("coupling.fixed_point_map", [])),
        "runner.monitor_share": sum(records) / busy if busy else 0.0,
    })
    return out


def span_rows(spans, attempt):
    """JSON-ready rows of one span list."""
    return [{"attempt": attempt, "id": i, "name": name, "start": start,
             "end": end, "parent": parent, "points": points}
            for i, (name, start, end, parent, points) in enumerate(spans)]
