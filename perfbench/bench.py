"""One benchmark run of one workload, executed in a fresh child process.

run.py starts this file with the BLAS/OpenMP thread count pinned to 1 and
``src`` on the import path.  It builds the workload's config from the seed,
then calls ``fene.runner.run`` (what ``fene run`` calls) again and again,
with set-ups timed in between, until the time budget is spent, checking
every attempt's artifacts.  The result, with the environment, goes to a JSON file
that run.py reads.

Untraced (--trace 0): the only instrumentation is one clock read at each
``coupled_step`` entry.  Traced (--trace 1): untraced and traced attempts
alternate; spans.py times the calls into each module from outside.

    python3 perfbench/bench.py --workload W --seed N --seconds S --trace T \
        --workdir DIR --result FILE
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

from fene import checkpoint, runner
from fene.errors import FeneError, VersionError

import spans

DEFAULT_SEED = 1
SETUP_REPEATS = 9           # traced set-ups
SETUPS_PER_ATTEMPT = 3
MIN_TRACE_PAIRS = 2
DRIFT_LIMIT = 1e-10          # conservation drifts, shear workloads
MONOLITHIC_LIMIT = 1e-4      # bound used by tests/test_diagnostics.py
# The final row of a default-seed run is compared with reference.json.  On
# one machine the run is bitwise reproducible; another BLAS or FFT build
# changes summation order, i.e. round-off of ~1e-16 relative per operation,
# accumulated over at most 50 steps of a dissipative scheme.  1e-9 leaves
# six orders of magnitude of headroom for that and still catches any change
# to the numerics.  The absolute floor covers columns that are zero up to
# round-off (momentum_y, the forcing norms).
REF_RTOL = 1e-9
REF_ATOL = 1e-12
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

WORKLOADS = {
    # step kernels only: 2 recorded states, no snapshots, psi fits in L2.
    # Short attempts, so that a run holds many of them (see measure).
    "shear32_lean": {
        "scenario": "shear_perturbation", "grid.n_points": 32,
        "max_steps": 20, "record_every": 20},
    # every step recorded, snapshots; psi fits in L2 as in shear32_lean
    "shear32_monitored": {
        "scenario": "shear_perturbation", "grid.n_points": 32,
        "max_steps": 16, "record_every": 1, "snapshots.every": 4},
    # Not in BENCHMARK.json (see README.md).
    # every step recorded, snapshots; psi and the tendency batch exceed L2
    "shear64_monitored": {
        "scenario": "shear_perturbation", "grid.n_points": 64,
        "max_steps": 12, "record_every": 1, "snapshots.every": 4},
    # fixed-point map, split solvers and a monolithic reference
    "contraction32": {
        "scenario": "contraction_study", "grid.n_points": 32},
    # tiny cases for selfcheck.py, not part of BENCHMARK.json
    "smoke": {
        "scenario": "shear_perturbation", "grid.n_points": 16,
        "ball.n_radial": 8, "ball.n_angular": 8, "ball.n_basis": 10,
        "max_steps": 4, "record_every": 1, "snapshots.every": 2},
    "smoke_contraction": {
        "scenario": "contraction_study", "grid.n_points": 16,
        "ball.n_radial": 8, "ball.n_angular": 8, "ball.n_basis": 10,
        "experiment.horizon": 0.004, "fixed_point.max_iters": 3},
}

END_TO_END = {
    "setup_s": "s", "step_ms": "ms", "steps_per_s": "1/s", "run_s": "s",
    "peak_rss_mb": "MB",
}

_ALWAYS = {"configspace.build_quadrature", "configspace.eigen_basis",
           "coupling.coupled_step", "fluid.rhs", "fluid.cfl_bound",
           "fp.explicit_tendency", "torus.fft", "torus.dealiased_product"}
_MONITORS = {"runner.record_state", "fp.nonnegativity_report", "fp.energy",
             "torus.sobolev_norm", "coupling.stress_field",
             "coupling.blowup_indicator", "runner.write_csv"}
_CONTRACTION = {"fluid.step", "fp.step", "coupling.stress_field",
                "coupling.run_fixed_point", "coupling.fixed_point_map",
                "coupling.xs_distance"}


def config_values(name, seed):
    """The workload's config; the seed picks the initial data only."""
    rng = np.random.default_rng(seed)
    values = dict(WORKLOADS[name])
    values.update({
        "seed": seed,
        "scenario.amplitude": float(rng.uniform(5e-4, 2e-3)),
        "scenario.mean_velocity": float(rng.uniform(0.05, 0.15)),
        "scenario.psi_mode": int(rng.integers(1, 6)),
    })
    return values


def expected_spans(values):
    if values["scenario"] == "contraction_study":
        return _ALWAYS | _CONTRACTION
    out = _ALWAYS | _MONITORS
    if values.get("snapshots.every"):
        out |= {"checkpoint.save", "checkpoint.load"}
    return out


def expected_rows(values):
    steps, every = values["max_steps"], values["record_every"]
    return 1 + sum(1 for k in range(1, steps + 1)
                   if k % every == 0 or k == steps)


def environment():
    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError):
            return "unknown"

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def cache_sizes():
        out = {}
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for index in sorted(os.listdir(base)):
                def read(field):
                    with open(os.path.join(base, index, field),
                              encoding="utf-8") as fh:
                        return fh.read().strip()
                if read("type") != "Instruction":
                    out[f"L{read('level')}"] = read("size")
        except OSError:
            pass
        return out

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(values, outdir, rc):
    """Problems found in one attempt's artifacts, and the final values that
    are compared with reference.json."""
    if rc != 0:
        return [f"exit code {rc}"], None
    try:
        with open(os.path.join(outdir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"], None
    if manifest.get("status") != "ok":
        return [f"manifest status {manifest.get('status')!r}"], None
    out = manifest.get("outcome", {})
    if values["scenario"] == "contraction_study":
        return _check_contraction(values, outdir, out)
    return _check_shear(values, outdir, manifest, out)


def _check_contraction(values, outdir, out):
    problems = []
    if out.get("all_ratios_below_one") is not True:
        problems.append(f"contraction ratios {out.get('ratios')}")
    dist = out.get("distance_to_monolithic")
    if not (isinstance(dist, float) and dist < MONOLITHIC_LIMIT):
        problems.append(f"distance_to_monolithic {dist}")
    try:
        with open(os.path.join(outdir, "contraction.csv"),
                  encoding="utf-8") as fh:
            rows = fh.read().splitlines()
    except OSError as exc:
        return problems + [f"contraction.csv unreadable: {exc}"], None
    want = values.get("fixed_point.max_iters", 5) + 1
    if len(rows) != want:
        problems.append(f"contraction.csv has {len(rows)} lines, not {want}")
    final = list(out.get("distances", [])) + [dist]
    return problems, final


def _check_shear(values, outdir, manifest, out):
    problems = []
    drifts = out.get("drifts", {})
    for key in ("mass", "momentum_x", "momentum_y", "polymer_mass"):
        if not drifts.get(key, math.inf) < DRIFT_LIMIT:
            problems.append(f"{key} drift {drifts.get(key)}")
    peak = out.get("max_blowup_indicator", math.nan)
    ceiling = manifest.get("config", {}).get("blowup_ceiling", math.nan)
    if not (math.isfinite(peak) and peak < ceiling):
        problems.append(f"blow-up indicator {peak} against ceiling {ceiling}")
    try:
        records = runner.load_series(outdir)
    except (OSError, ValueError, VersionError) as exc:
        return problems + [f"series.csv unreadable: {exc}"], None
    if len(records) != expected_rows(values):
        problems.append(f"series.csv has {len(records)} rows, "
                        f"not {expected_rows(values)}")
    rows = np.array([r.row() for r in records])
    if not np.all(np.isfinite(rows)):
        problems.append("series.csv holds non-finite values")
    every = values.get("snapshots.every", 0)
    if every:
        problems += _check_snapshots(outdir, values["max_steps"] // every)
    return problems, [float(v) for v in rows[-1]]


def _check_snapshots(outdir, want):
    snapdir = os.path.join(outdir, "snapshots")
    if not os.path.isdir(snapdir):
        return ["snapshots directory missing"]
    names = sorted(f for f in os.listdir(snapdir) if f.endswith(".fkp"))
    if len(names) != want:
        return [f"{len(names)} snapshots, not {want}"]
    last = os.path.join(snapdir, names[-1])
    again = os.path.join(outdir, "roundtrip.fkp")
    try:
        checkpoint.checkpoint_save(checkpoint.checkpoint_load(last), again)
    except FeneError as exc:
        return [f"snapshot {names[-1]} does not load: {exc}"]
    with open(last, "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            return [f"snapshot {names[-1]} does not round-trip byte for byte"]
    return []


def check_reference(name, final):
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(name)
    if ref is None:
        return [f"no reference for {name}"]
    if final is None or len(final) != len(ref):
        return ["final row does not match the reference layout"]
    bad = ~np.isclose(final, ref, rtol=REF_RTOL, atol=REF_ATOL)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"final row column {i}: {final[i]!r} vs reference {ref[i]!r}"]
    return []


def _artifact(values, outdir):
    name = "contraction.csv" if values["scenario"] == "contraction_study" \
        else "series.csv"
    return os.path.join(outdir, name)


class Run:
    """Attempts of one workload and seed, with their checks."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.values = config_values(name, seed)
        os.makedirs(workdir, exist_ok=True)
        self.cfg_path = os.path.join(workdir, "run.cfg")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in self.values.items())
        self.outdir = os.path.join(workdir, "out")
        self.attempted = self.failed = 0
        self.problems = []
        self.digest = None
        self.samples = {}

    def setup_s(self):
        start = time.perf_counter()
        ctx = runner.RunContext(runner.parse_config(self.cfg_path))
        ctx.initial_state()
        return time.perf_counter() - start

    def attempt(self, label):
        """One runner.run call; returns its wall time in seconds."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        err = io.StringIO()
        start = time.perf_counter()
        rc = runner.run(self.cfg_path, output=self.outdir, stderr=err)
        run_s = time.perf_counter() - start
        problems, final = check_outputs(self.values, self.outdir, rc)
        artifact = _artifact(self.values, self.outdir)
        if not problems:
            digest = _sha256(artifact)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"{label} attempt wrote a different "
                                f"{os.path.basename(artifact)}")
        if self.seed == DEFAULT_SEED and not problems:
            problems += check_reference(self.name, final)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"attempt {self.attempted} ({label}): {p}"
                              for p in problems]
            if err.getvalue():
                self.problems.append(err.getvalue().strip())
        return run_s

    def snapshot_bytes(self):
        """Bytes of the snapshots the last attempt wrote."""
        snapdir = os.path.join(self.outdir, "snapshots")
        if not os.path.isdir(snapdir):
            return 0
        return sum(os.path.getsize(os.path.join(snapdir, f))
                   for f in os.listdir(snapdir) if f.endswith(".fkp"))


def measure(run, seconds):
    """End-to-end metrics with tracing off.

    Shared hosts slow down by up to 1.7x for seconds to tens of seconds at a
    time, and a slowdown only ever adds time.  A run's median then lands on
    either side of that from run to run, so every timing reports the
    fastest of its samples: the least set-up time, step interval and attempt
    time, and the highest per-attempt steps_per_s.  Set-ups are spread over
    the run so that they sample the host's fast spells too.  Peak RSS is
    read after the first attempt, which the child runs before anything else,
    like a process running `fene run` once."""
    start = time.perf_counter()
    entries = []

    def clocked(step):
        def at_entry(*args, **kwargs):
            entries.append(time.perf_counter())
            return step(*args, **kwargs)
        return at_entry

    setups, intervals, run_times, steps = [], [], [], []
    with spans.patched({"fene.coupling:coupled_step": clocked}):
        while True:
            entries.clear()
            run_times.append(run.attempt("untraced"))
            intervals.extend(np.diff(entries))
            steps.append(len(entries))
            if len(run_times) == 1:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setups.extend(run.setup_s() for _ in range(SETUPS_PER_ATTEMPT))
            spent = time.perf_counter() - start
            if spent + statistics.median(run_times) > seconds:
                break
    setup_s = min(setups)
    run.samples = {"setup_s": setups, "step_s": [float(x) for x in intervals],
                   "run_s": run_times}
    return {
        "setup_s": setup_s,
        "step_ms": float(min(intervals)) * 1e3,
        "steps_per_s": max(n / (t - setup_s)
                           for n, t in zip(steps, run_times)),
        "run_s": min(run_times),
        "peak_rss_mb": peak_rss / 1024.0,
    }


def measure_traced(run, seconds, spans_path):
    """Per-layer metrics from alternating untraced and traced attempts."""
    start = time.perf_counter()
    traces = []
    tracer = spans.Tracer()
    with tracer.patched():
        for _ in range(SETUP_REPEATS):
            run.setup_s()
    traces.append(tracer.spans)
    untraced, traced, counts = [], [], []
    expect = expected_spans(run.values)
    while True:
        untraced.append(run.attempt("untraced"))
        tracer = spans.Tracer()
        with tracer.patched():
            traced.append(run.attempt("traced"))
        traces.append(tracer.spans)
        fired = {sp[0] for sp in tracer.spans}
        missing = sorted(expect - fired)
        if missing:
            run.problems.append(f"traced attempt: spans never fired: "
                                f"{missing}")
        metrics = spans.layer_metrics(tracer.spans)
        metrics["checkpoint.bytes"] = run.snapshot_bytes()
        counts.append({k: metrics[k] for k in spans.COUNTS})
        spent = time.perf_counter() - start
        if len(traced) >= MIN_TRACE_PAIRS and \
                spent + statistics.median(untraced) \
                + statistics.median(traced) > seconds:
            break
    if any(c != counts[0] for c in counts):
        run.problems.append(f"counts differ between traced attempts: "
                            f"{counts}")
    out = spans.layer_metrics(spans.concat(traces))
    out.update(counts[0])
    out["trace.overhead_frac"] = min(traced) / min(untraced) - 1.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        for attempt, span_list in enumerate(traces):
            for row in spans.span_rows(span_list, attempt):
                fh.write(json.dumps(row) + "\n")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.workdir)
    if args.trace:
        spans_path = os.path.join(
            os.path.dirname(args.result),
            f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = measure_traced(run, args.seconds, spans_path)
        units = dict(spans.PER_LAYER)
        if run.values["scenario"] == "contraction_study":
            units.update(spans.FIXED_POINT_LAYER)
    else:
        metrics = measure(run, args.seconds)
        units = END_TO_END
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "config": run.values, "environment": environment(),
        "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "samples": run.samples,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
