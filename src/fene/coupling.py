"""Coupling of the fluid and Fokker-Planck solvers.

Two routes to the coupled dynamics are provided and played against each
other by the verification suite:

* fixed_point_map(psi_traj, state0, op, force, fluid_cfg): the
  constructive route.  Given a candidate polymer trajectory, build its
  elastic stress, solve the fluid system with that stress over the
  horizon, then solve the Fokker-Planck equation with the resulting
  velocity; both halves take the one step fluid_cfg.dt.  Iterating this
  map from a seed trajectory (run_fixed_point(state0, op, force,
  fluid_cfg, n_steps, max_iters)) converges on short horizons; the
  contraction is measured in the weaker X^{s'} norm with s' <= 1
  (s' <= s - 1 for the s = 2 of the energy estimates).  The horizon, its
  step count, s' and max_iters are run settings, checked and read in
  runner.RunContext.

* coupled_step: the monolithic route.  One fluid.ssprk3 step advances
  the coefficient arrays of (r, u, psi) together, re-evaluating the
  stress at every stage.  Each stage makes one inverse transform
  (_grid_values), of fluid.rhs_factors followed by the coefficients of
  psi: fluid_rhs reads the fluid factors of that batch and op.tendency
  its velocity block (fluid.VELOCITY) and the coefficients.  The split
  solvers of fixed_point_map, fluid.step and fp_step, hand the same
  kernels a batch of their own half per stage.  The stress and velocity
  they take, linear interpolants, and the force of every step, built once
  per run, are callables of time; a step wraps only the state it returns.

Fields are coefficient arrays: CoupledState holds a FluidState (the arrays
r and u) and a PolymerField on the same grid at the same time, and
stress_field returns the coefficients (T11, T12, T22).

Each state goes to the grid once: coupled_step and fluid.step take a
state and its stage-1 batch and return the new state and its batch, which
the trajectory loop hands to that state's checks, the next step and
runner.record_state.  fp_step carries none: its stage 1 needs u at t + dt.

Both routes integrate with the same fluid.ssprk3 step and take the
Fokker-Planck operator (FokkerPlanckSolver, built for one grid) as an
argument: op.check_step guards each step and op.tendency is the FP half of
every stage.  The scenario drivers in runner build it once per run.

Stepping over a horizon happens only in _trajectory, behind
fluid_trajectory, fp_trajectory and coupled_trajectory.  A step checks
only what must hold before it runs (op.check_step, the CFL bound, D(r)
in each stage).  The loop checks every state it hands out, the first one
included, in one order: non-finite coefficients raise BlowupCeiling, then
an r that is not positive on the grid PositivityLoss.  Those messages,
and those of the StabilityViolation (CFL bound or op.check_step),
PositivityLoss or BlowupCeiling (a stage's r not finite) a step raises,
end in the loop's where and "at step k".

The X^s trajectory norm is sup-in-time of the W^{s,2}_x L^2_M norm plus
the time integral (trapezoid rule on the stored samples) of the
W^{s,2}_x H^1_M norm, square-rooted.
"""

import numpy as np

from . import fluid as fluid_mod
from .errors import BlowupCeiling, PositivityLoss, StabilityViolation
from .fluid import N_FACTORS, R, VELOCITY, FluidState, FluidStepConfig, \
    check_positive, fluid_rhs, rhs_batch, rhs_factors, ssprk3, \
    stress_divergence
from .fokker_planck import FokkerPlanckSolver, PolymerField, fp_energy, \
    fp_step
from .torus import W2_INDICES, derivative_stack, sup_norm_w2inf_values, \
    to_values


class CoupledState:
    """The solution triple (r, u, psi) at one time instant, unchecked.  It
    holds coefficients only: its grid batch (grid_values) travels beside it
    through coupled_step and coupled_trajectory."""

    __slots__ = ("fluid", "psi", "time")

    def __init__(self, fluid: FluidState, psi: PolymerField):
        if fluid.grid != psi.grid:
            raise ValueError("fluid and polymer fields use different grids")
        if abs(fluid.time - psi.time) > 1e-12:
            raise ValueError("fluid and polymer time stamps disagree")
        self.fluid = fluid
        self.psi = psi
        self.time = fluid.time


def stress_field(psi: PolymerField):
    """Kramers stress of psi, the coefficients (T11, T12, T22) of a
    symmetric tensor field.

    The stress integral is linear in the basis coefficients, so it reduces
    to a contraction with the precomputed per-mode stress integrals and is
    exact in the torus modes."""
    return _stress_of(psi.basis, psi.coeffs)


def _stress_of(basis, coeffs):
    return np.tensordot(basis.stress_vectors, coeffs, axes=([1], [0]))


def _grid_values(grid, r, u, basis, c, params):
    """One transform of the fluid factors of r, u under the stress of c,
    then of c: the batch that fluid_rhs and op.tendency read."""
    return to_values(np.concatenate([
        rhs_factors(grid, r, u, _stress_of(basis, c), params), c]),
        grid.n_points)


def grid_values(state: CoupledState, params):
    """The stage-1 batch of coupled_step at state under params: the grid
    values of fluid.rhs_factors (the N_FACTORS fluid factors), then those
    of the n_basis coefficient fields of psi."""
    return _grid_values(state.psi.grid, state.fluid.r, state.fluid.u,
                        state.psi.basis, state.psi.coeffs, params)


def xs_norm(traj, s):
    """Trajectory norm of X^s from dense-in-time samples."""
    if not traj:
        raise ValueError("empty trajectory")
    l2 = np.empty(len(traj))
    h1 = np.empty(len(traj))
    for i, psi in enumerate(traj):
        l2[i], h1[i] = fp_energy(psi, s)
    return float(np.sqrt(l2.max() + np.trapezoid(h1, [p.time for p in traj])))


def xs_distance(traj_a, traj_b, s):
    if len(traj_a) != len(traj_b):
        raise ValueError("trajectories have different lengths")
    return xs_norm([a - b for a, b in zip(traj_a, traj_b)], s)


def constant_trajectory(psi0: PolymerField, n_steps, dt):
    """Constant-in-time extension of the initial datum (the canonical seed)."""
    out = []
    for k in range(n_steps + 1):
        p = psi0.copy()
        p.time = psi0.time + k * dt
        out.append(p)
    return out


def _linear_interpolant(samples, t0, dt):
    """Piecewise-linear interpolation of coefficient arrays over time."""

    def at(t):
        x = (t - t0) / dt
        i = int(np.floor(x))
        i = min(max(i, 0), len(samples) - 2)
        theta = min(max(x - i, 0.0), 1.0)
        if theta == 0.0:
            return samples[i]
        if theta == 1.0:
            return samples[i + 1]
        return (1.0 - theta) * samples[i] + theta * samples[i + 1]

    return at


def _trajectory(state, values, advance, fields, where, steps):
    """Yield (k, state, values) for each step number k in steps, the given
    state and its grid batch first, then one (state, values) = advance(state,
    values) further each.  fields(state) are the (name, coefficients) pairs
    that must be finite; r must be positive on values[R] (no batch: psi
    alone)."""
    for i, k in enumerate(steps):
        at = f"{where} at step {k}".lstrip()
        if i:
            try:
                state, values = advance(state, values)
            except (StabilityViolation, PositivityLoss,
                    BlowupCeiling) as exc:
                exc.args = (f"{exc} {at}",)
                raise
        for name, c in fields(state):
            if not np.isfinite(c).all():
                raise BlowupCeiling(f"non-finite {name} coefficients {at}")
        if values is not None:
            check_positive(values[R], at)
        yield k, state, values


def fluid_trajectory(fluid0: FluidState, stress, force, params,
                     cfg: FluidStepConfig, n_steps):
    """The n_steps + 1 checked fluid states from fluid0 under stress and
    force, callables of time, one fluid.step apart."""
    return [fl for _, fl, _ in _trajectory(
        fluid0, rhs_batch(fluid0.grid, fluid0.r, fluid0.u,
                          stress(fluid0.time), params),
        lambda fl, v: fluid_mod.step(fl, v, stress, force, params, cfg),
        lambda fl: (("r", fl.r), ("u", fl.u)), "in the fluid half",
        range(n_steps + 1))]


def fp_trajectory(psi0: PolymerField, u, op: FokkerPlanckSolver, dt,
                  n_steps):
    """The n_steps + 1 checked polymer fields from psi0 under u, a
    callable of time, one fp_step of dt apart."""
    return [psi for _, psi, _ in _trajectory(
        psi0, None, lambda psi, _: (fp_step(psi, u, op, dt), None),
        lambda psi: (("psi", psi.coeffs),), "in the fp half",
        range(n_steps + 1))]


def fixed_point_map(psi_traj, state0: CoupledState, op: FokkerPlanckSolver,
                    force, fluid_cfg: FluidStepConfig):
    """One application of the stress -> fluid -> Fokker-Planck map.

    psi_traj must span the horizon with the uniform step fluid_cfg.dt,
    which both halves take.  Returns the new polymer trajectory.
    """
    dt = fluid_cfg.dt
    n_steps = len(psi_traj) - 1
    t0 = state0.time

    stresses = [stress_field(ps) for ps in psi_traj]
    fluid_traj = fluid_trajectory(
        state0.fluid, _linear_interpolant(stresses, t0, dt), force,
        op.params, fluid_cfg, n_steps)
    u_at = _linear_interpolant([fl.u for fl in fluid_traj], t0, dt)
    return fp_trajectory(state0.psi, u_at, op, dt, n_steps)


def run_fixed_point(state0: CoupledState, op: FokkerPlanckSolver, force,
                    fluid_cfg: FluidStepConfig, n_steps, max_iters):
    """Iterate the map max_iters times from the constant-in-time seed over
    n_steps steps of fluid_cfg.dt; returns the iterates (seed first) so
    distances and ratios can be inspected."""
    iterates = [constant_trajectory(state0.psi, n_steps, fluid_cfg.dt)]
    for _ in range(max_iters):
        iterates.append(fixed_point_map(iterates[-1], state0, op, force,
                                        fluid_cfg))
    return iterates


def contraction_factor(iterates, s_prime):
    """Distances d_k of successive iterates in X^{s'} and their ratios
    d_{k+1}/d_k.

    Returns (distances, ratios, converged): a distance at the round-off
    floor 1e3 eps |psi^0|_{X^{s'}} ends the ratio list and reports
    convergence, since a ratio of round-off says nothing about the map.
    The floor scales with the iterates, since their difference is rounded
    relative to their size, however small d_0 is."""
    if len(iterates) < 3:
        raise ValueError("need at least three iterates")
    dists = [xs_distance(iterates[k + 1], iterates[k], s_prime)
             for k in range(len(iterates) - 1)]
    floor = 1e3 * np.finfo(float).eps * xs_norm(iterates[0], s_prime)
    ratios = []
    for prev, cur in zip(dists, dists[1:]):
        if cur <= floor:
            return dists, ratios, True
        ratios.append(cur / prev)
    return dists, ratios, False


def coupled_step(state: CoupledState, values, op: FokkerPlanckSolver,
                 force, fluid_cfg: FluidStepConfig):
    """Monolithic SSP-RK3 step of (r, u, psi) with per-stage stress, from
    state and its batch values (grid_values).  The CFL check and the first
    stage read values; returns the new state, unchecked, and its batch."""
    p = op.params
    grid, basis = state.psi.grid, state.psi.basis
    op.check_step(state.psi, fluid_cfg.dt)
    fluid_mod.check_cfl(values, p, fluid_cfg)
    y0 = (state.fluid.r, state.fluid.u, state.psi.coeffs)

    def rhs(y, t):
        r, u, c = y
        batch = values if y is y0 else _grid_values(grid, r, u, basis, c, p)
        dr, du = fluid_rhs(grid, u, force(t), p, fluid_cfg, batch)
        return dr, du, op.tendency(c, batch[VELOCITY], batch[N_FACTORS:])

    t1 = state.time + fluid_cfg.dt
    r, u, c = ssprk3(y0, rhs, state.time, fluid_cfg.dt)
    return (CoupledState(FluidState(grid, r, u, t1),
                         PolymerField(grid, basis, c, t1)),
            _grid_values(grid, r, u, basis, c, p))


def coupled_trajectory(state: CoupledState, op: FokkerPlanckSolver, force,
                       fluid_cfg: FluidStepConfig, steps, where=""):
    """Yield (k, state, values) for each step number k in steps, the given
    state and its grid_values first, then one coupled_step further each,
    checked (r on the R slice of values)."""
    return _trajectory(
        state, grid_values(state, op.params),
        lambda st, v: coupled_step(st, v, op, force, fluid_cfg),
        lambda st: (("r", st.fluid.r), ("u", st.fluid.u),
                    ("psi", st.psi.coeffs)),
        where, steps)


def blowup_indicator(state: CoupledState, stress, velocity):
    """(indicator, w2): the grid-sampled |u|_{W^{2,inf}} + sup_x |div_x T|,
    with stress = stress_field(state.psi), and its first term w2 =
    |u|_{W^{2,inf}}, which phi_R reads.  velocity is the VELOCITY block of
    the state's batch, the u, d1 u, d2 u rows of the W^{2,inf} stack; the
    three second derivatives of u and div T take one transform."""
    grid = state.psi.grid
    n = grid.n_points
    second = derivative_stack(grid, state.fluid.u,
                              W2_INDICES[3:]).reshape(-1, *grid.spectral_shape)
    div_t = stress_divergence(grid, stress)
    vals = to_values(np.concatenate([second, div_t]), n)
    w2 = np.concatenate([velocity, vals[:len(second)]])
    w2 = sup_norm_w2inf_values(w2.reshape(len(W2_INDICES), 2, n, n))
    div_t = vals[len(second):]
    return float(w2 + np.sqrt(np.sum(div_t ** 2, axis=0)).max()), w2
