"""Symmetric hyperbolic-parabolic fluid system in (r, u) variables.

Advances

    dr/dt + phi_R [ u . grad r + (gamma-1)/2 r div u ] = 0,
    du/dt + phi_R [ u . grad u + r grad r ]
          = phi_R D(r) [ div S(grad u) + div T ] + f,

pseudo-spectrally in the Galerkin space P_K of torus, with an optional
velocity cut-off phi_R(|u|_{2,inf}) that switches the nonlinear terms off
for large velocities.  Every kernel of a stage takes and returns arrays:
rhs_factors stacks the twelve distinct spectral factors of the
coefficients r, u and stress, and fluid_rhs and check_cfl read their grid
values, rhs_batch, the batch of every fluid and coupled stage
(coupling.coupled_step appends the coefficients of psi, and the
Fokker-Planck half reads them and the VELOCITY block).  fluid_rhs forms the
eleven quadratic terms in one 2/3-rule product, and only D(r) takes a
round trip through P_K, so every tendency lies in P_K.  ssprk3, over
tuples of coefficient arrays, is the package's one SSP-RK3 step.  step
takes a state, its batch and its stress and forcing as callables of time,
and returns the new FluidState and its batch.  forcing_of_time is the one
definition of the force f: it refuses a kind not in FORCING_KINDS (the
list the forcing.kind setting is parsed against), an amplitude that is
not finite or coefficients that overflow, and builds f once per run.  A FluidState holds the grid
and the coefficient arrays r (1 component) and u (2), refusing any other
shape: no class wraps a field (torus).  A step checks only the CFL bound
(on the speeds |u| + c_s) and, in each stage, that D(r) is defined; the
trajectories of coupling check the states it makes (check_positive alone
raises PositivityLoss, and BlowupCeiling for an r that is not finite; a
loss is never repaired).
"""

from dataclasses import dataclass

import numpy as np

from . import torus
from .errors import BlowupCeiling, PositivityLoss, StabilityViolation
from .model import ModelParams, r_to_density
from .torus import SIDE, W2_INDICES, TorusGrid, dealiased_product, \
    derivative_stack, sobolev_norm, sup_norm_w2inf_values


class FluidState:
    """The coefficient arrays of the transformed density r, (1, 2K + 1,
    K + 1), and of the velocity u, (2, 2K + 1, K + 1), on grid at one time;
    their values are not checked."""

    __slots__ = ("grid", "r", "u", "time")

    def __init__(self, grid: TorusGrid, r, u, time=0.0):
        if np.shape(r) != (1, *grid.spectral_shape) or \
                np.shape(u) != (2, *grid.spectral_shape):
            raise ValueError("r must be scalar and u a 2-vector field of "
                             "coefficients (2K + 1, K + 1) on the grid")
        self.grid = grid
        self.r = r
        self.u = u
        self.time = time


def check_positive(rvals, where):
    """Raise BlowupCeiling if the grid values rvals of r are not all
    finite, else PositivityLoss unless they are all > 0; the message ends
    in where."""
    rmin = float(rvals.min())
    if not np.isfinite(rmin):   # min propagates NaN
        raise BlowupCeiling(f"non-finite r on the grid {where}")
    if not rmin > 0.0:
        raise PositivityLoss(f"min r = {rmin:.3e} on the grid {where}")


@dataclass(frozen=True)
class FluidStepConfig:
    """Time-step parameters for the fluid solver: dt (finite, > 0),
    cutoff_R (finite, > 0) is the phi_R threshold, None disables phi_R."""

    dt: float
    cutoff_R: float = None

    def __post_init__(self):
        # each written not (x <= 0), so that NaN is refused too
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and > 0")
        if self.cutoff_R is not None and not 0 < self.cutoff_R < np.inf:
            raise ValueError("cut-off threshold must be finite and > 0")


def phi_r(y, R):
    """Velocity cut-off: 1 on [0, R], 0 on [R+1, inf), C^1 cubic between."""
    if R <= 0:
        raise ValueError("cut-off threshold must be positive")
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("cut-off argument must be nonnegative")
    s = np.clip(y - R, 0.0, 1.0)
    out = 1.0 - s * s * (3.0 - 2.0 * s)
    return out if np.ndim(out) else float(out)


def viscous_divergence(grid, u, p: ModelParams):
    """div S(grad u) = mu_s Lap(u) + mu_b grad(div u) in two dimensions, of
    the coefficients u."""
    div = grid.ik[0] * u[0] + grid.ik[1] * u[1]
    return (-grid.ksq * u) * p.mu_s + (grid.ik * div) * p.mu_b


def stress_divergence(grid, stress):
    """Divergence sum_b d_b T[a, b] of a symmetric tensor field, the
    coefficients (T11, T12, T22)."""
    t = stress[[[0, 1], [1, 2]]]   # t[a, b] = T_ab = t[b, a]
    return grid.ik[0] * t[0] + grid.ik[1] * t[1]


def velocity_factors(grid, u):
    """u, d1 u, d2 u of the coefficients u as one (6, 2K + 1, K + 1) stack,
    the order (3, 2, ...) of d_b u_a with b = 0 for u itself."""
    return np.concatenate([u, *(grid.ik[:, None] * u)])


# The factors of fluid_rhs in the order of rhs_factors, and D(r) after them
R, D1R, D2R, DIVU, V1, V2, U1, U2, D1U1, D1U2, D2U1, D2U2 = range(12)
N_FACTORS = 12
VELOCITY = slice(U1, N_FACTORS)   # the velocity_factors(u) block
D = N_FACTORS
# The eleven quadratic terms (left, right): the 4 x 3 table of rows
# u1 (d1 r, d1 u), u2 (d2 r, d2 u), r (div u, grad r), D (div S + div T)
# less its empty last slot, so term 3 i + j is row i, column j
_LEFT, _RIGHT = (list(side) for side in zip(
    (U1, D1R), (U1, D1U1), (U1, D1U2), (U2, D2R), (U2, D2U1), (U2, D2U2),
    (R, DIVU), (R, D1R), (R, D2R), (D, V1), (D, V2)))


def rhs_factors(grid, r, u, stress, p: ModelParams):
    """The N_FACTORS distinct spectral factors of fluid_rhs, stacked, from
    the coefficients r, u and stress: r, d1 r, d2 r, div u, div S + div T
    (2), then velocity_factors(grid, u) as the VELOCITY block."""
    total = viscous_divergence(grid, u, p) + stress_divergence(grid, stress)
    vel = velocity_factors(grid, u)
    div_u = vel[2] + vel[5]   # d1 u1 + d2 u2
    return np.concatenate([r, grid.ik * r, div_u[None], total, vel])


def fluid_rhs(grid, u, forcing, p: ModelParams, cfg: FluidStepConfig,
              values):
    """(dr, du): -phi_R [u . grad r + (gamma-1)/2 r div u] and
    -phi_R [u . grad u + r grad r] + phi_R D(r)[div S + div T] + f, in P_K
    by construction, from the coefficients u and forcing (or None).

    values holds the grid values of rhs_factors in its first N_FACTORS
    slices; phi_R reads u, d1 u, d2 u there.  D(r) = 1 / rho(r) takes its
    P_K round trip from the r slice, and the eleven quadratic terms, left
    factors (u1, u2, r, D) times the rows of a 4 x 3 table less its empty
    slot, are one dealiased product."""
    n = grid.n_points
    cut = 1.0
    if cfg.cutoff_R is not None:
        second = torus.to_values(derivative_stack(grid, u, W2_INDICES[3:]), n)
        cut = phi_r(sup_norm_w2inf_values(np.concatenate(
            [values[VELOCITY].reshape(3, 2, n, n), second])), cfg.cutoff_R)
    dr = np.zeros_like(u[:1])
    du = np.zeros_like(u)
    if cut != 0.0:
        rvals = values[R]
        check_positive(rvals, "in a stage, where D(r) is undefined")
        dvals = torus.to_values(torus.to_modes(1.0 / r_to_density(rvals, p)),
                                n)
        factors = np.concatenate([values[:N_FACTORS], dvals[None]])
        prod = dealiased_product(factors[_LEFT], factors[_RIGHT])
        adv_r = prod[0] + prod[3] + 0.5 * (p.gamma - 1.0) * prod[6]
        dr = (-cut) * adv_r[None]
        du = du + cut * prod[9:11]
        du = du - cut * (prod[1:3] + prod[4:6])
        du = du - cut * prod[7:9]
    if forcing is not None:
        du = du + forcing
    return dr, du


def cfl_bound(values, p: ModelParams):
    """Conservative explicit bound min(h / max(|u| + c_s),
    h^2 / (4 max D (mu_s + mu_b))); the characteristic speeds of the (r, u)
    system are u.n +- c_s with sound speed c_s = sqrt((gamma-1)/2) r.
    values holds the grid values of rhs_factors in its first N_FACTORS
    slices, as in fluid_rhs, and gives h = SIDE / n."""
    h = SIDE / values.shape[-1]
    uvals = values[U1:U2 + 1]
    rvals = values[R]
    speed = float((np.sqrt(np.sum(uvals ** 2, axis=0))
                   + np.sqrt(0.5 * (p.gamma - 1.0)) * np.abs(rvals)).max())
    dmax = float((1.0 / r_to_density(rvals, p)).max())
    advective = h / speed if speed > 0 else np.inf
    viscous = h * h / (4.0 * dmax * (p.mu_s + p.mu_b))
    return min(advective, viscous)


# the share of cfl_bound that a step may take
CFL_SAFETY = 0.8


def check_cfl(values, p: ModelParams, cfg: FluidStepConfig):
    """Raise StabilityViolation when cfg.dt exceeds CFL_SAFETY *
    cfl_bound(values, p)."""
    bound = CFL_SAFETY * cfl_bound(values, p)
    if cfg.dt > bound:
        raise StabilityViolation(f"dt = {cfg.dt:.3e} exceeds CFL bound "
                                 f"{bound:.3e}")


def ssprk3(y, rhs, t, dt):
    """One Shu-Osher SSP-RK3 step of dy/dt = rhs(y, t) for a tuple y of
    arrays; stages at t, t + dt, t + dt/2, the last written
    (y0 + 2 (y2 + dt k3)) / 3."""
    k = rhs(y, t)
    y1 = tuple(a + dt * b for a, b in zip(y, k))
    k = rhs(y1, t + dt)
    y2 = tuple(0.75 * a + 0.25 * (b + dt * c) for a, b, c in zip(y, y1, k))
    k = rhs(y2, t + 0.5 * dt)
    return tuple((a + 2.0 * (b + dt * c)) / 3.0 for a, b, c in zip(y, y2, k))


FORCING_KINDS = ("zero", "steady_field", "time_periodic")


def forcing_of_time(kind, amplitude, mode, grid):
    """The force f = amplitude (sin m.x, cos m.x) on grid, m = mode a pair
    of integers, times cos t when kind is time_periodic, as a callable of
    time giving its coefficients, or None for kind zero or amplitude 0.
    RunContext builds it once per run, so a steady field is transformed
    once.  A kind not in FORCING_KINDS, an amplitude that is not finite or
    a force whose coefficients at t = 0 (which bound those of every t) are
    not finite is a ValueError."""
    if kind not in FORCING_KINDS:
        raise ValueError(f"unknown forcing kind {kind!r}")
    if not np.isfinite(amplitude):
        raise ValueError("forcing amplitude must be finite")
    if kind == "zero" or amplitude == 0.0:
        return lambda t: None
    x1, x2 = grid.x
    phase = mode[0] * x1 + mode[1] * x2

    def field(t):
        amp = amplitude * np.cos(t) if kind == "time_periodic" else amplitude
        return torus.to_modes(np.stack([amp * np.sin(phase),
                                        amp * np.cos(phase)]))
    f0 = field(0.0)
    if not np.isfinite(f0).all():
        raise ValueError("forcing coefficients are not finite")
    if kind == "steady_field":
        return lambda t: f0
    return field


def rhs_batch(grid, r, u, stress, p: ModelParams, *fields):
    """The grid values of rhs_factors(grid, r, u, stress, p), then those of
    the coefficient arrays fields, one transform: the batch that fluid_rhs
    and check_cfl read (coupling.coupled_step appends those of psi)."""
    return torus.to_values(
        np.concatenate([rhs_factors(grid, r, u, stress, p), *fields]),
        grid.n_points)


def step(state: FluidState, values, stress, force, p: ModelParams,
         cfg: FluidStepConfig):
    """One SSP-RK3 step from state and its rhs_batch values under stress
    and force, callables of time giving the stress coefficients and the
    forcing coefficients (or None); returns the new state and its batch.

    Raises StabilityViolation before any stage when dt exceeds the CFL
    bound, and PositivityLoss (BlowupCeiling) when a stage meets an r that
    is not positive (not finite) on the grid.  coupling.fluid_trajectory
    checks the state it returns.
    """
    grid = state.grid
    check_cfl(values, p, cfg)
    y0 = (state.r, state.u)

    def rhs(y, t):
        return fluid_rhs(grid, y[1], force(t), p, cfg, values if y is y0
                         else rhs_batch(grid, *y, stress(t), p))

    t1 = state.time + cfg.dt
    r, u = ssprk3(y0, rhs, state.time, cfg.dt)
    return (FluidState(grid, r, u, t1),
            rhs_batch(grid, r, u, stress(t1), p))


def fluid_energy(state: FluidState, s: int):
    """Squared W^{s,2} norm of the pair (r, u)."""
    return sobolev_norm(state.grid, state.r, s) ** 2 \
        + sobolev_norm(state.grid, state.u, s) ** 2
