"""Run orchestration: configs, scenarios, monitors and on-disk artifacts.

A run is described by a flat key-value text file with dotted section names.
CONFIG_SCHEMA fixes each key's type and range: an unknown key, or a value
of the wrong type or outside its key's range, is refused with the key and
its line number.  Every run writes into its output directory:

    series.csv      one row per recorded step, 17-significant-digit floats
    manifest.json   resolved config, content hash, outcome and monitors
    difference.csv / contraction.csv / lemma_a1.csv   per experiment
    snapshots/*.fkp optional binary checkpoints

All randomness is drawn from one seeded generator, and all schemes are
deterministic, so identical config + seed reproduces every artifact
byte for byte.  Files are written to a temporary name and renamed.
manifest.json is strict JSON: a non-finite number in it is the string
"nan", "inf" or "-inf".

SCENARIOS maps each scenario name to its driver.  A driver is called as
driver(ctx, outdir), writes its artifacts into outdir and returns the
manifest's outcome; _run_stepping alone also takes a checkpoint to resume
from.  Drivers step over a horizon through coupling.coupled_trajectory,
fluid_trajectory and fp_trajectory, which check every state they hand
out, the first one included (non-finite: BlowupCeiling, then r <= 0:
PositivityLoss).  _run_stepping records the first state and those the
record interval names, and checks each record against the blow-up
ceiling.  EXITS maps each error class to its exit code, and a failed
run's reason is that class's name.

record_state measures each quantity once and transforms none of r, u,
grad u, psi or a steady forcing: it reads the grid batch that
coupled_trajectory hands out with each state (coupling.grid_values) and
ctx.force, built once per run, and its Sobolev norms read the coefficient
arrays of r, u, the stress and the forcing.
A run first removes the series.csv and snapshots/step*.fkp an earlier
run left in its output directory, except the checkpoint it resumes from.
"""

import ctypes
import glob
import hashlib
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import islice

import numpy as np

from .checkpoint import checkpoint_load, checkpoint_save
from .configspace import build_quadrature, check_chi_index, eigen_basis, \
    lemma_a1_check
from .coupling import CoupledState, blowup_indicator, contraction_factor, \
    coupled_trajectory, fluid_trajectory, fp_trajectory, run_fixed_point, \
    stress_field, xs_distance
from .errors import BlowupCeiling, ConfigError, FeneError, PositivityLoss, \
    StabilityViolation, VersionError
from .fluid import FORCING_KINDS, N_FACTORS, R, VELOCITY, FluidState, \
    FluidStepConfig, fluid_energy, forcing_of_time, phi_r
from .fokker_planck import FokkerPlanckSolver, PolymerField, fp_energy, \
    nonnegativity_report, polymer_mass
from .model import ModelParams, density_to_r, r_to_density
from .torus import TorusGrid, grad_u_sup_norm, sobolev_norm, to_modes

S_RECORD = 3  # Sobolev indices 0..S_RECORD appear as monitor columns


def _parse_opt_float(text):
    return None if text.lower() == "none" else float(text)


def _parse_chi(text):
    low = text.lower()
    if low == "auto":
        return "auto"
    if low in ("off", "none"):
        return None
    return int(text)


def _parse_int_pair(text):
    parts = [int(tok) for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return tuple(parts)


def _parse_str(*choices):
    def parse(text):
        if choices and text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        if not text:
            raise ValueError("expected a value, got none")
        return text
    return parse


def _parse_scenario(text):
    return _parse_str(*SCENARIOS)(text)


def _checked(parse, holds, message):
    """parse, refusing with message a value for which holds is false."""
    def parse_checked(text):
        value = parse(text)
        if not holds(value):
            raise ValueError(message)
        return value
    return parse_checked


def _parse_at_least(least):
    return _checked(int, lambda n: n >= least, f"must be at least {least}")


def _parse_deltas(distinct, message):
    """Comma-separated deltas, >= distinct different ones, each in (0, inf)."""
    def parse(text):
        deltas = tuple(float(tok) for tok in text.split(",") if tok.strip())
        if len(set(deltas)) < distinct or not all(0 < d < np.inf
                                                  for d in deltas):
            raise ValueError(message)
        return deltas
    return parse


_parse_finite = _checked(float, np.isfinite, "must be finite")


# key -> (parser, default); the parser fixes the key's type and range, and
# parse_config_text reports a value it refuses with the key and its line
CONFIG_SCHEMA = {
    "scenario": (_parse_scenario, "equilibrium"),
    "seed": (_parse_at_least(0), 1234),
    "max_steps": (_parse_at_least(0), 100),
    "record_every": (_parse_at_least(1), 1),
    "output": (_parse_str(), "fene_run"),
    # not (x <= 0), so that NaN is refused; inf is no ceiling
    "blowup_ceiling": (_checked(float, lambda c: c > 0,
                                "the blow-up ceiling must be positive"), 1e3),
    "snapshots.every": (_parse_at_least(0), 0),
    "model.a": (float, ModelParams.a),
    "model.gamma": (float, ModelParams.gamma),
    "model.mu_s": (float, ModelParams.mu_s),
    "model.mu_b": (float, ModelParams.mu_b),
    "model.epsilon": (float, ModelParams.epsilon),
    "model.a11": (float, ModelParams.a11),
    "model.lambda": (float, ModelParams.lam),
    "model.b": (float, ModelParams.b),
    "forcing.kind": (_parse_str(*FORCING_KINDS), "zero"),
    "forcing.amplitude": (float, 0.0),
    "forcing.mode": (_parse_int_pair, (1, 0)),
    "grid.n_points": (int, 32),
    "ball.n_radial": (int, 32),
    "ball.n_angular": (int, 32),
    "ball.n_basis": (int, 40),
    "ball.chi_index": (_parse_chi, "auto"),
    "fluid.dt": (float, 1e-3),
    "fluid.cutoff_r": (_parse_opt_float, FluidStepConfig.cutoff_R),
    "fluid.cfl_safety": (float, FluidStepConfig.cfl_safety),
    "scenario.amplitude": (_parse_finite, 1e-3),
    "scenario.mode": (int, 1),
    "scenario.mean_velocity": (_parse_finite, 0.1),
    "scenario.psi_mode": (int, 1),
    "scenario.rho0": (_parse_finite, 1.0),
    "experiment.horizon": (_checked(float, lambda t: 0 < t < np.inf,
                                    "must be finite and > 0"), 0.05),
    "experiment.deltas": (_parse_deltas(
        2, "the log-log slope needs at least two distinct deltas, each "
        "finite and > 0"), (1e-4, 1e-3, 1e-2)),
    "experiment.lemma_deltas": (_parse_deltas(
        1, "lemma_a1 needs deltas, each finite and > 0"), (1.0, 0.1, 0.01)),
    "experiment.ensemble": (_parse_at_least(100), 200),
    # X^{s'} with 0 <= s' <= s - 1
    "fixed_point.s_prime": (_checked(int, lambda s: 0 <= s <= 1,
                                     "must satisfy 0 <= s_prime <= 1"), 1),
    # a contraction ratio needs three iterates
    "fixed_point.max_iters": (_parse_at_least(2), 5),
}


def _entries(text):
    """Yield (line number, key, value) for each line of a config text that
    is not blank once its comment is stripped; value is None on a line
    without '='."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, eq, val = line.partition("=")
            yield lineno, key.strip(), val.strip() if eq else None


def parse_config_text(text):
    """The resolved config: schema defaults overlaid by the text."""
    values = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    seen = set()
    for lineno, key, val in _entries(text):
        if val is None:
            raise ConfigError("expected 'key = value'", line=lineno)
        if key not in CONFIG_SCHEMA:
            raise ConfigError("unknown configuration key", line=lineno,
                              field=key)
        if key in seen:
            raise ConfigError("duplicate key", line=lineno, field=key)
        seen.add(key)
        parser, _ = CONFIG_SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno, field=key) from None
    return values


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _check_retained(grid, mode, name):
    """Refuse a wave vector that the Galerkin block of grid cannot hold."""
    if max(map(abs, mode)) > grid.dealias_cutoff:
        raise ConfigError(f"mode {tuple(mode)} lies above the retained modes "
                          f"max(|k1|, |k2|) <= {grid.dealias_cutoff}",
                          field=name)


@contextmanager
def _refusing(field):
    """Report a ValueError raised in the block as a ConfigError on field."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), field=field) from None


# a time must be this close, relative, to a whole number of steps: k
# additions of dt round by about k eps
_STEP_RTOL = 1e-9


def _whole_steps(t, dt):
    """The number of steps of dt that the time t >= 0 spans, or None when
    t is not a whole number of them."""
    k = int(round(t / dt))
    return k if abs(t - k * dt) <= _STEP_RTOL * t else None


class RunContext:
    """Grid, basis and solver configs materialized from a config dict, and
    the checks that read two settings; the drivers read the rest of cfg."""

    def __init__(self, cfg):
        self.cfg = cfg
        with _refusing("model"):
            self.params = ModelParams(
                a=cfg["model.a"], gamma=cfg["model.gamma"],
                mu_s=cfg["model.mu_s"], mu_b=cfg["model.mu_b"],
                epsilon=cfg["model.epsilon"], a11=cfg["model.a11"],
                lam=cfg["model.lambda"], b=cfg["model.b"])
        with _refusing("grid/ball"):
            self.grid = TorusGrid(cfg["grid.n_points"])
            self.quad = build_quadrature(self.params.b, cfg["ball.n_radial"],
                                         cfg["ball.n_angular"])
            self.basis = eigen_basis(self.quad, cfg["ball.n_basis"])
        chi = cfg["ball.chi_index"]
        self.chi_index = cfg["ball.n_radial"] if chi == "auto" else chi
        if self.chi_index is not None:
            with _refusing("ball.chi_index"):
                check_chi_index(self.chi_index, self.params.b)
        with _refusing("fluid"):
            self.fluid_cfg = FluidStepConfig(
                dt=cfg["fluid.dt"], cutoff_R=cfg["fluid.cutoff_r"],
                cfl_safety=cfg["fluid.cfl_safety"])
        # the steps of fluid.dt in the horizon of the fixed-point scenarios
        self.horizon_steps = None
        name = cfg["scenario"]
        if name in ("stress_difference", "contraction_study"):
            horizon, dt = cfg["experiment.horizon"], self.fluid_cfg.dt
            # round(horizon / dt) > max_steps, tested before the rounding,
            # which an infinite ratio would not survive
            if horizon / dt >= cfg["max_steps"] + 0.5:
                raise ConfigError(f"the horizon spans {horizon / dt:.3g} "
                                  f"steps of fluid.dt = {dt!r}, more than "
                                  f"max_steps = {cfg['max_steps']}",
                                  field="experiment.horizon")
            self.horizon_steps = int(round(horizon / dt))
            if self.horizon_steps < 2:
                raise ConfigError(f"{name} needs at least two steps of this "
                                  "dt within experiment.horizon",
                                  field="fluid.dt")
            if _whole_steps(horizon, dt) is None:
                raise ConfigError("the horizon must be a whole number of "
                                  f"steps of fluid.dt = {dt!r}",
                                  field="experiment.horizon")
        with _refusing("forcing"):
            self.force = forcing_of_time(
                cfg["forcing.kind"], cfg["forcing.amplitude"],
                cfg["forcing.mode"], self.grid)
            if cfg["forcing.kind"] != "zero" and \
                    cfg["forcing.amplitude"] != 0.0:
                _check_retained(self.grid, cfg["forcing.mode"],
                                "forcing.mode")

    def initial_state(self) -> CoupledState:
        cfg = self.cfg
        name = cfg["scenario"]
        x1, x2 = self.grid.x
        amp = cfg["scenario.amplitude"]
        m = cfg["scenario.mode"]
        rho0 = cfg["scenario.rho0"]
        n = self.grid.n_points
        if name != "equilibrium":
            _check_retained(self.grid, (m, m), "scenario.mode")

        if name == "density_bump":
            rho = rho0 * (1.0 + amp * np.cos(m * x1) * np.cos(m * x2))
            uvals = np.zeros((2, n, n))
            psi = PolymerField.equilibrium(self.grid, self.basis)
        elif name == "equilibrium":
            rho = np.full((n, n), rho0)
            uvals = np.zeros((2, n, n))
            psi = PolymerField.equilibrium(self.grid, self.basis)
        else:
            # shear_perturbation and the experiment base states
            rho = rho0 * (1.0 + 0.5 * amp * np.cos(m * x1))
            uvals = np.stack([
                cfg["scenario.mean_velocity"] + amp * np.sin(m * x2),
                0.5 * amp * np.sin(m * x1)])
            mode = cfg["scenario.psi_mode"]
            if not 0 < mode < self.basis.n_basis:
                raise ConfigError("psi_mode out of range",
                                  field="scenario.psi_mode")
            fields = {0: np.ones((n, n)), mode: amp * np.cos(m * x2)}
            psi = PolymerField.from_coefficient_fields(self.grid, self.basis,
                                                       fields)
        if not rho.min() > 0:
            raise ConfigError("the initial density must be positive on the "
                              "grid", field="scenario.amplitude" if rho0 > 0
                              else "scenario.rho0")
        with np.errstate(over="ignore"):
            mass = np.sum(rho)
        if not np.isfinite(mass):
            raise ConfigError("the initial mass is not finite",
                              field="scenario.rho0")
        r = to_modes(density_to_r(rho, self.params)[None])
        u = to_modes(uvals)
        # finite settings can still overflow in the transform
        for name, c in (("r", r), ("u", u), ("psi", psi.coeffs)):
            if not np.isfinite(c).all():
                raise ConfigError(f"the initial {name} coefficients are not "
                                  "finite", field="scenario")
        return CoupledState(FluidState(self.grid, r, u), psi)


def _sobolev_block(top):
    """A tuple field written as the columns <name>0 .. <name><top>."""
    return field(metadata={"top": top})


@dataclass
class TimeSeriesRecord:
    """One monitored row; all columns are instantaneous functions of the
    state, so resumed runs reproduce them bitwise.

    The fields, in order, are the series.csv layout: a scalar field is one
    column, a Sobolev block one column per index 0..top."""

    time: float
    mass: float
    momentum_x: float
    momentum_y: float
    polymer_mass: float
    min_r: float
    max_r: float
    min_psi_sample: float
    blowup_indicator: float
    cutoff_active: int
    grad_u_sup: float
    fluid_energy_s: tuple = _sobolev_block(S_RECORD)
    u_norm_sq_s: tuple = _sobolev_block(S_RECORD + 1)
    fp_l2m_s: tuple = _sobolev_block(S_RECORD)
    fp_h1m_s: tuple = _sobolev_block(S_RECORD)
    stress_sq_s: tuple = _sobolev_block(S_RECORD)
    forcing_sq_s: tuple = _sobolev_block(S_RECORD)

    @staticmethod
    def header():
        cols = []
        for f in fields(TimeSeriesRecord):
            top = f.metadata.get("top")
            cols.extend([f.name] if top is None
                        else (f"{f.name}{s}" for s in range(top + 1)))
        return cols

    def row(self):
        out = []
        for f in fields(self):
            val = getattr(self, f.name)
            out.extend(val if "top" in f.metadata else [float(val)])
        return out

    @classmethod
    def from_row(cls, row):
        vals = iter(row)
        return cls(**{
            f.name: tuple(islice(vals, f.metadata["top"] + 1))
            if "top" in f.metadata else f.type(next(vals))
            for f in fields(cls)})


def _sobolev_sq(grid, coeffs, top=S_RECORD):
    """sobolev_norm(grid, coeffs, s) ** 2 for s = 0 .. top, with |coeffs|^2
    formed once."""
    power = np.abs(coeffs) ** 2
    return [sobolev_norm(grid, coeffs, s, power) ** 2 for s in range(top + 1)]


def record_state(state: CoupledState, values,
                 ctx: RunContext) -> TimeSeriesRecord:
    """The monitored row of state.  Its grid values of r, u, grad u and the
    coefficients of psi are values, the state's batch (coupling.grid_values,
    handed out by coupled_trajectory); blowup_indicator makes one transform,
    of the stress formed here, and ctx.force one more if it is
    time-periodic."""
    params, grid = ctx.params, ctx.grid
    n = grid.n_points
    rvals = values[R]
    rho = r_to_density(rvals, params)
    uv = values[VELOCITY][:2]
    area = grid.cell_area()
    mass = float(np.sum(rho) * area)
    mom = (float(np.sum(rho * uv[0]) * area),
           float(np.sum(rho * uv[1]) * area))
    psi_min = nonnegativity_report(state.psi.basis, values[N_FACTORS:])
    stress = stress_field(state.psi)
    indicator, w2 = blowup_indicator(state, stress, values[VELOCITY])
    cutoff_r = ctx.fluid_cfg.cutoff_R
    cutoff_active = int(cutoff_r is not None and phi_r(w2, cutoff_r) < 1.0)
    force = ctx.force(state.time)
    # fluid.fluid_energy(s) is |r|^2_s + |u|^2_s: the u norms serve both
    u_sq = _sobolev_sq(grid, state.fluid.u, S_RECORD + 1)
    fl_e = [x + y for x, y in zip(_sobolev_sq(grid, state.fluid.r), u_sq)]
    power = np.abs(state.psi.coeffs) ** 2
    l2m, h1m = zip(*(fp_energy(state.psi, s, power)
                     for s in range(S_RECORD + 1)))
    t_sq = _sobolev_sq(grid, stress)
    f_sq = [0.0] * (S_RECORD + 1) if force is None \
        else _sobolev_sq(grid, force)
    return TimeSeriesRecord(
        time=state.time, mass=mass, momentum_x=mom[0], momentum_y=mom[1],
        polymer_mass=polymer_mass(state.psi), min_r=float(rvals.min()),
        max_r=float(rvals.max()), min_psi_sample=psi_min,
        blowup_indicator=indicator,
        cutoff_active=cutoff_active,
        grad_u_sup=grad_u_sup_norm(values[VELOCITY][2:].reshape(2, 2, n, n)),
        fluid_energy_s=tuple(fl_e), u_norm_sq_s=tuple(u_sq),
        fp_l2m_s=tuple(l2m), fp_h1m_s=tuple(h1m), stress_sq_s=tuple(t_sq),
        forcing_sq_s=tuple(f_sq))


def _fmt(x):
    return x if isinstance(x, str) else f"{x:.17g}"


def write_csv(path, header, rows):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


def _strict_json(x):
    """x with each non-finite float as the string "nan", "inf" or "-inf",
    which strict JSON (RFC 8259) can hold."""
    if isinstance(x, float) and not np.isfinite(x):
        return str(x)
    if isinstance(x, dict):
        return {key: _strict_json(val) for key, val in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(val) for val in x]
    return x


def write_manifest(outdir, payload):
    path = os.path.join(outdir, "manifest.json")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# monitors evaluated on recorded series

def conservation_drifts(records):
    """Relative drifts of mass, momentum and polymer mass over the series."""
    def rel(series):
        ref = max(abs(series[0]), 1.0)
        return float(np.max(np.abs(np.asarray(series) - series[0])) / ref)

    return {
        "mass": rel([r.mass for r in records]),
        "momentum_x": rel([r.momentum_x for r in records]),
        "momentum_y": rel([r.momentum_y for r in records]),
        "polymer_mass": rel([r.polymer_mass for r in records]),
    }


def envelope_margin(records, params: ModelParams):
    """Smallest signed distance of (min_r, max_r) to the maximum-principle
    envelope inf r0 e^{-cI} <= r <= sup r0 e^{cI}, c = max(1, (gamma-1)/2),
    with I the accumulated integral of the grid sup of |grad u|; nonnegative
    means the density stayed inside for the whole horizon.  The first record
    defines the envelope, so only the later ones count; a series of one
    record has margin 0."""
    if len(records) < 2:
        return 0.0
    times = np.array([r.time for r in records])
    grads = np.array([r.grad_u_sup for r in records])
    integral = np.concatenate([[0.0], np.cumsum(
        0.5 * (grads[1:] + grads[:-1]) * np.diff(times))])
    c = max(1.0, 0.5 * (params.gamma - 1.0))
    lower = records[0].min_r * np.exp(-c * integral)
    upper = records[0].max_r * np.exp(c * integral)
    min_r = np.array([r.min_r for r in records])
    max_r = np.array([r.max_r for r in records])
    return float(min((min_r - lower)[1:].min(), (upper - max_r)[1:].min()))


def fitted_psi_constant(records, s=2):
    """Smallest c making log |psi|^2_{W^{s,2} L^2_M} - c int |u|^2_{W^{s+1,2}}
    nonincreasing across the recorded steps."""
    log_e = np.log([r.fp_l2m_s[s] for r in records])
    u_sq = np.array([r.u_norm_sq_s[s + 1] for r in records])
    times = np.array([r.time for r in records])
    d_int = 0.5 * (u_sq[1:] + u_sq[:-1]) * np.diff(times)
    d_log = np.diff(log_e)
    c = 0.0
    for growth, gate in zip(d_log, d_int):
        if growth > 0.0:
            if gate <= 0.0:
                return np.inf
            c = max(c, growth / gate)
    return float(c)


def fitted_fluid_constant(records, s=2):
    """Smallest c with E_s(t) + int_0^t |u|^2_{s+1} <= c (E_s(0) +
    int_0^t (|f|^2_s + |T|^2_s)), the discrete shape of the fluid energy
    estimate."""
    e = np.array([r.fluid_energy_s[s] for r in records])
    u_sq = np.array([r.u_norm_sq_s[s + 1] for r in records])
    src = np.array([r.stress_sq_s[s] + r.forcing_sq_s[s] for r in records])
    times = np.array([r.time for r in records])
    int_u = np.concatenate([[0.0], np.cumsum(
        0.5 * (u_sq[1:] + u_sq[:-1]) * np.diff(times))])
    int_src = np.concatenate([[0.0], np.cumsum(
        0.5 * (src[1:] + src[:-1]) * np.diff(times))])
    return float(np.max((e + int_u) / (e[0] + int_src)))


def summarize(records, params):
    return {
        "steps_recorded": len(records),
        "drifts": conservation_drifts(records),
        "envelope_margin": envelope_margin(records, params),
        "fitted_c_psi": fitted_psi_constant(records),
        "fitted_c_fluid": fitted_fluid_constant(records),
        "max_blowup_indicator": float(max(r.blowup_indicator
                                          for r in records)),
        "min_psi_sample": float(min(r.min_psi_sample for r in records)),
    }


# ---------------------------------------------------------------------------
# scenario drivers

def _run_stepping(ctx: RunContext, outdir, resume_from=None):
    """Step from the initial state, or from the checkpoint resume_from, to
    max_steps; the outcome summarizes the recorded series.  A checkpoint
    whose time is not a whole number of steps of fluid.dt was written
    under another dt and is refused (VersionError).  A run that stops
    with a FeneError still writes the rows it recorded, if any."""
    cfg = ctx.cfg
    max_steps, ceiling = cfg["max_steps"], cfg["blowup_ceiling"]
    outcome, first_step = {}, 0
    if resume_from is None:
        state = ctx.initial_state()
    else:
        state = checkpoint_load(resume_from, grid=ctx.grid, basis=ctx.basis)
        dt = ctx.fluid_cfg.dt
        first_step = _whole_steps(state.time, dt)
        if first_step is None:
            raise VersionError(f"{resume_from}: time {state.time!r} is not "
                               f"a whole number of steps of fluid.dt = {dt!r}")
        if first_step >= max_steps:
            raise ConfigError(f"the checkpoint is at step {first_step}, at "
                              f"or past max_steps = {max_steps}",
                              field="max_steps")
        outcome = {"resumed_from": str(resume_from),
                   "resumed_step": first_step}
    every = cfg["record_every"]
    snap_every = cfg["snapshots.every"]
    if snap_every:
        os.makedirs(os.path.join(outdir, "snapshots"), exist_ok=True)
    op = FokkerPlanckSolver(ctx.basis, ctx.params, ctx.grid, ctx.chi_index)
    records = []
    try:
        for k, state, values in coupled_trajectory(
                state, op, ctx.force, ctx.fluid_cfg,
                range(first_step, max_steps + 1)):
            if k == first_step or k % every == 0 or k == max_steps:
                rec = record_state(state, values, ctx)
                records.append(rec)
                # not (x <= ceiling), so that a NaN indicator trips the guard
                if not rec.blowup_indicator <= ceiling:
                    raise BlowupCeiling(
                        f"blow-up indicator {rec.blowup_indicator:.3e} "
                        f"exceeded ceiling {ceiling:.3e} at step {k}")
            if snap_every and k > first_step and k % snap_every == 0:
                checkpoint_save(state, os.path.join(
                    outdir, "snapshots", f"step{k:06d}.fkp"))
    except FeneError:
        if records:
            _flush_series(outdir, records)
        raise
    _flush_series(outdir, records)
    return {**outcome, **summarize(records, ctx.params)}


def _remove_stale(outdir, keep=None):
    """Remove the series.csv and snapshots/step*.fkp an earlier run left in
    outdir, so that those there are always this run's (only a stepping run
    writes them); keep is the checkpoint this run resumes from."""
    keep = None if keep is None else os.path.realpath(keep)
    stale = glob.glob(os.path.join(glob.escape(outdir), "snapshots",
                                   "step*.fkp"))
    for path in [os.path.join(outdir, "series.csv")] + stale:
        if os.path.realpath(path) != keep:
            with suppress(FileNotFoundError):
                os.remove(path)


def _flush_series(outdir, records):
    write_csv(os.path.join(outdir, "series.csv"), TimeSeriesRecord.header(),
              [r.row() for r in records])


def _loglog_slope(deltas, dists):
    return float(np.polyfit(np.log(deltas), np.log(dists), 1)[0])


def _run_stress_difference(ctx: RunContext, outdir):
    n_steps = ctx.horizon_steps
    deltas = ctx.cfg["experiment.deltas"]
    state0 = ctx.initial_state()
    x1, x2 = ctx.grid.x
    s_prime = ctx.cfg["fixed_point.s_prime"]

    base_stress = stress_field(state0.psi)
    pert = to_modes(np.stack([np.sin(x1), 0.5 * np.cos(x1 + x2), np.sin(x2)]))

    def fluid_solve(stress):
        return fluid_trajectory(state0.fluid, lambda t: stress, ctx.force,
                                ctx.params, ctx.fluid_cfg, n_steps)

    def fluid_distance(a, b):
        return max(np.sqrt(fluid_energy(FluidState(ctx.grid, x.r - y.r,
                                                   x.u - y.u), s_prime))
                   for x, y in zip(a, b))

    base_traj = fluid_solve(base_stress)
    fluid_d = [fluid_distance(fluid_solve(base_stress + float(delta) * pert),
                              base_traj) for delta in deltas]

    u_base = state0.fluid.u
    u_pert = to_modes(np.stack([np.sin(x2), np.sin(x1)]))
    op = FokkerPlanckSolver(ctx.basis, ctx.params, ctx.grid, ctx.chi_index)

    def fp_solve(u):
        return fp_trajectory(state0.psi, lambda t: u, op, ctx.fluid_cfg.dt,
                             n_steps)

    base_psi = fp_solve(u_base)
    fp_d = [xs_distance(fp_solve(u_base + float(delta) * u_pert), base_psi,
                        s_prime) for delta in deltas]

    rows = [("fluid", delta, dist) for delta, dist in zip(deltas, fluid_d)]
    rows += [("fp", delta, dist) for delta, dist in zip(deltas, fp_d)]
    write_csv(os.path.join(outdir, "difference.csv"),
              ("kind", "delta", "distance"), rows)
    return {
        "fluid_slope": _loglog_slope(deltas, fluid_d),
        "fp_slope": _loglog_slope(deltas, fp_d),
        "rows": [[k, d, v] for k, d, v in rows],
    }


def _run_contraction(ctx: RunContext, outdir):
    n_steps, s_prime = ctx.horizon_steps, ctx.cfg["fixed_point.s_prime"]
    state0 = ctx.initial_state()
    op = FokkerPlanckSolver(ctx.basis, ctx.params, ctx.grid, ctx.chi_index)
    iterates = run_fixed_point(state0, op, ctx.force, ctx.fluid_cfg, n_steps,
                               ctx.cfg["fixed_point.max_iters"])
    dists, ratios, converged = contraction_factor(iterates, s_prime)

    mono_traj = [mono.psi for _, mono, _ in coupled_trajectory(
        state0, op, ctx.force, ctx.fluid_cfg, range(n_steps + 1),
        "in the monolithic reference")]
    terminal = xs_distance(iterates[-1], mono_traj, s_prime)

    write_csv(os.path.join(outdir, "contraction.csv"),
              ("iteration", "distance", "ratio"),
              [(k, dist, ratios[k - 1] if 0 < k <= len(ratios) else np.nan)
               for k, dist in enumerate(dists)])
    return {
        "distances": dists,
        "ratios": ratios,
        "converged": converged,
        "all_ratios_below_one": bool(ratios and all(r < 1 for r in ratios)),
        "distance_to_monolithic": terminal,
    }


def _run_lemma_a1(ctx: RunContext, outdir):
    cfg = ctx.cfg
    n_ensemble = cfg["experiment.ensemble"]
    rng = np.random.default_rng(cfg["seed"])
    deltas = cfg["experiment.lemma_deltas"]
    basis = ctx.basis
    samples = [rng.standard_normal(basis.n_basis) for _ in range(n_ensemble)]
    parts = [lemma_a1_check(basis.node_values(c), basis.node_grads(c),
                            ctx.quad) for c in samples]
    results = {}
    for delta in deltas:
        best = -np.inf
        for lhs, h1_unit, l2 in parts:
            best = max(best, (lhs - delta * h1_unit) / l2)
        results[delta] = best
    write_csv(os.path.join(outdir, "lemma_a1.csv"), ("delta", "c_delta"),
              [(delta, results[delta]) for delta in deltas])
    ordered = [results[d] for d in sorted(deltas, reverse=True)]
    return {
        "c_delta": {str(d): results[d] for d in deltas},
        "monotone": bool(all(a <= b + 1e-12
                             for a, b in zip(ordered, ordered[1:]))),
        "ensemble": n_ensemble,
    }


SCENARIOS = {
    "equilibrium": _run_stepping,
    "shear_perturbation": _run_stepping,
    "density_bump": _run_stepping,
    "stress_difference": _run_stress_difference,
    "contraction_study": _run_contraction,
    "lemma_a1": _run_lemma_a1,
}


# ---------------------------------------------------------------------------
# entry points shared by the CLI

def _print_error(reason, exc, stderr):
    payload = {"status": "error", "reason": reason, "message": str(exc)}
    print(json.dumps(payload), file=stderr)
    return payload


# error class -> exit code, the manifest reason being the class name; any
# other FeneError exits 1 with the reason InternalError
EXITS = {ConfigError: 2, PositivityLoss: 3, StabilityViolation: 4,
         BlowupCeiling: 5, VersionError: 6}


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters


def _retain_heap():
    """Keep the memory freed between coupled steps in the process heap.

    A coupled step allocates and frees a few MB of temporaries.  With
    glibc's default thresholds that memory goes back to the OS at the end of
    a step and comes back by page faults in the next (about 1,200 faults,
    several ms, per n = 32 step), unless an earlier free of a larger block
    happened to raise the thresholds.  Fixed thresholds make every step
    fault-free: arrays up to 32 MB (glibc's maximum) come from the heap, and
    up to 128 MB of free heap is kept.  Off Linux, or with a libc that has
    no mallopt, nothing changes.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _named_output(text):
    """The one output a config text names, or None.

    Read line by line, so that a config with an unknown key or a bad value
    elsewhere still says where its error manifest goes.
    """
    named = [val for _, key, val in _entries(text) if key == "output" and val]
    return named[0] if len(named) == 1 else None


def run(config_path, output=None, resume_from=None, stderr=None):
    """Execute the run that the config file describes; returns the process
    exit code.  The file is the only source of the run's settings, so the
    manifest's config_hash, the sha256 of its text, names every one.
    output moves the artifacts to another directory and changes none of
    them; resume_from is a checkpoint that continues a stepping scenario;
    stderr (default sys.stderr) receives each error as one JSON line."""
    _retain_heap()
    stderr = sys.stderr if stderr is None else stderr
    outdir = None
    described = {}   # what the manifest records of the parsed config
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        outdir = output or _named_output(text)
        cfg = parse_config_text(text)
        described = {"scenario": cfg["scenario"], "config": cfg,
                     "config_hash": hashlib.sha256(text.encode()).hexdigest()}
        outdir = output or cfg["output"]
        os.makedirs(outdir, exist_ok=True)
        _remove_stale(outdir, resume_from)
        driver = SCENARIOS[cfg["scenario"]]
        if resume_from is not None:
            if driver is not _run_stepping:
                raise ConfigError(f"{cfg['scenario']} does not step, so a "
                                  f"checkpoint cannot resume it",
                                  field="scenario")
            driver = partial(_run_stepping, resume_from=resume_from)
        ctx = RunContext(cfg)
        write_manifest(outdir, {"status": "ok", **described,
                                "outcome": driver(ctx, outdir)})
        return 0
    except FeneError as exc:
        code, reason = next(((code, cls.__name__) for cls, code in
                             EXITS.items() if isinstance(exc, cls)),
                            (1, "InternalError"))
        payload = _print_error(reason, exc, stderr)
        if outdir is not None:
            if not described:   # refused before the try's _remove_stale
                _remove_stale(outdir, resume_from)
            try:
                os.makedirs(outdir, exist_ok=True)
                write_manifest(outdir, {**payload, **described})
            except OSError:
                pass
        return code
    except OSError as exc:
        _print_error("IOError", exc, stderr)
        return 1


def load_series(run_dir):
    """Parse series.csv back into TimeSeriesRecord objects; another column
    layout, no row, a row of another length or a cell that is not a number
    is a VersionError."""
    path = os.path.join(run_dir, "series.csv")
    header = TimeSeriesRecord.header()
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip().split(",") != header:
            raise VersionError(f"{path}: unexpected column layout")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise VersionError(f"{path}: no rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise VersionError(f"{path}: row {i} has {len(row)} cells")
    try:
        return [TimeSeriesRecord.from_row(list(map(float, row)))
                for row in rows]
    except ValueError as exc:   # a cell that is not a number
        raise VersionError(f"{path}: {exc}") from None


def report(run_dir, stream=None):
    """Human summary of a finished run directory; a manifest.json missing,
    not a JSON object, with an outcome that is not a JSON object or, beside
    a series.csv, without the model config is an IOError (exit 1), a
    series.csv that load_series refuses a VersionError (exit 6)."""
    stream = sys.stdout if stream is None else stream
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError(f"{manifest_path}: not a JSON object")
        if not isinstance(manifest.get("outcome", {}), dict):
            raise ValueError(f"{manifest_path}: outcome is not a JSON object")
    except (OSError, ValueError) as exc:
        _print_error("IOError", exc, sys.stderr)
        return 1
    has_series = os.path.exists(os.path.join(run_dir, "series.csv"))
    try:
        records = load_series(run_dir) if has_series else None
    except VersionError as exc:
        _print_error("VersionError", exc, sys.stderr)
        return EXITS[VersionError]
    if records is not None:
        try:
            config = manifest["config"]
            params = ModelParams(gamma=config["model.gamma"],
                                 b=config["model.b"])
        except (KeyError, TypeError, ValueError) as exc:
            _print_error("IOError", ValueError(
                f"{manifest_path}: no model config for its series.csv "
                f"({type(exc).__name__}: {exc})"), sys.stderr)
            return 1
    print(f"run: {run_dir}", file=stream)
    print(f"status: {manifest.get('status')}", file=stream)
    scenario = manifest.get("scenario", "?")
    print(f"scenario: {scenario}", file=stream)
    outcome = manifest.get("outcome", {})
    if records is not None:
        summary = summarize(records, params)
        print(f"steps recorded: {summary.pop('steps_recorded')}", file=stream)
        for name, val in summary.pop("drifts").items():
            print(f"drift {name}: {val:.3e}", file=stream)
        for key, val in summary.items():
            print(f"{key}: {val:.3e}", file=stream)
    for key in ("fluid_slope", "fp_slope", "ratios", "converged",
                "distance_to_monolithic", "c_delta", "monotone"):
        if key in outcome:
            print(f"{key}: {outcome[key]}", file=stream)
    return 0
