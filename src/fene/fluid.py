"""Symmetric hyperbolic-parabolic fluid system in (r, u) variables.

Advances

    dr/dt + phi_R [ u . grad r + (gamma-1)/2 r div u ] = 0,
    du/dt + phi_R [ u . grad u + r grad r ]
          = phi_R D(r) [ div S(grad u) + div T ] + f,

pseudo-spectrally in the Galerkin space P_K of torus (the stored block),
with an optional velocity cut-off phi_R(|u|_{2,inf}) that switches the
nonlinear terms off for large velocities.  fluid_rhs evaluates the eleven
quadratic terms of both equations in one 2/3-rule product per RK stage:
left factors (u1, u2, r, D(r)) times the rows of a table, (d1 r, d1 u),
(d2 r, d2 u), (div u, grad r) and div S + div T.  Its one input is the
grid batch of the twelve distinct factors (rhs_factors) that its step
makes per stage: step its own, coupling.coupled_step one it shares with
the Fokker-Planck half, which reads its velocity block (VELOCITY).  phi_R
reads u, d1 u, d2 u there and transforms the second derivatives of u.
Only D(r) takes a round trip through P_K inside fluid_rhs, and the
products come back in one transform, so every tendency lies in P_K.
Time stepping is explicit SSP-RK3 under a conservative CFL bound on the
speeds |u| + c_s, which check_cfl reads from the step's first batch.  A
step checks only that and, in each stage, that D(r) is defined;
FluidState is a plain holder.  The trajectories of coupling check the
states a step makes: non-finite coefficients first, then r > 0
(check_positive, the one place PositivityLoss is raised; a loss is never
repaired).  ssprk3, over tuples of coefficient arrays, is the package's
one SSP-RK3 step: fluid.step, fokker_planck.fp_step and
coupling.coupled_step all take it.
"""

from dataclasses import dataclass

import numpy as np

from . import torus
from .errors import CFLViolation, PositivityLoss
from .model import ForcingSpec, ModelParams, r_to_density
from .torus import W2_INDICES, SpectralField, dealiased_product, \
    derivative_stack, sobolev_norm, sup_norm_w2inf_values


class FluidState:
    """Transformed density r and velocity u at one time, unchecked."""

    __slots__ = ("r", "u", "time")

    def __init__(self, r: SpectralField, u: SpectralField, time=0.0):
        if r.components != 1 or u.components != 2:
            raise ValueError("r must be scalar and u a 2-vector field")
        self.r = r
        self.u = u
        self.time = time


def check_positive(rvals, where):
    """Raise PositivityLoss, its message ending in where, unless the grid
    values rvals of r are all > 0."""
    rmin = float(rvals.min())
    if not rmin > 0.0:   # catches NaN as well
        raise PositivityLoss(f"min r = {rmin:.3e} on the grid {where}")


@dataclass(frozen=True)
class FluidStepConfig:
    """Time-step parameters for the fluid solver: cutoff_R=None disables
    the phi_R regularization, cfl_safety (finite, > 0) scales the CFL
    bound."""

    dt: float
    cutoff_R: float = None
    cfl_safety: float = 0.8

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.cutoff_R is not None and not self.cutoff_R > 0:
            raise ValueError("cut-off threshold must be positive")
        # written so that a NaN safety factor is refused too
        if not 0 < self.cfl_safety < np.inf:
            raise ValueError("the CFL safety factor must be finite and > 0")


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


def viscous_divergence(u: SpectralField, p: ModelParams) -> SpectralField:
    """div S(grad u) = mu_s Lap(u) + mu_b grad(div u) in two dimensions."""
    lap = SpectralField(u.grid, -u.grid.ksq * u.coeffs)
    return p.mu_s * lap + p.mu_b * torus.gradient(torus.divergence(u))


def stress_divergence(stress: SpectralField) -> SpectralField:
    """Divergence of a symmetric tensor field stored as (T11, T12, T22)."""
    if stress.components != 3:
        raise ValueError("stress field must carry (T11, T12, T22)")
    g = stress.grid
    t11, t12, t22 = stress.coeffs
    out = np.stack([g.ik1 * t11 + g.ik2 * t12,
                    g.ik1 * t12 + g.ik2 * t22])
    return SpectralField(g, out)


def velocity_factors(u: SpectralField):
    """u, d1 u, d2 u as one (6, 2K + 1, K + 1) stack, the order
    (3, 2, ...) of d_b u_a with b = 0 for u itself."""
    g = u.grid
    return np.concatenate([u.coeffs, g.ik1 * u.coeffs, g.ik2 * u.coeffs])


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


def rhs_factors(state: FluidState, stress, p: ModelParams):
    """The N_FACTORS distinct spectral factors of fluid_rhs, stacked: r,
    d1 r, d2 r, div u, div S + div T (2), then velocity_factors(u) as the
    VELOCITY block; stress may be None."""
    g = state.r.grid
    rc = state.r.coeffs
    visc = viscous_divergence(state.u, p)
    total = visc if stress is None else visc + stress_divergence(stress)
    vel = velocity_factors(state.u)
    div_u = vel[2] + vel[5]   # d1 u1 + d2 u2
    return np.concatenate([rc, g.ik1 * rc, g.ik2 * rc, div_u[None],
                           total.coeffs, vel])


def fluid_rhs(state: FluidState, forcing, p: ModelParams,
              cfg: FluidStepConfig, values):
    """(dr, du): -phi_R [u . grad r + (gamma-1)/2 r div u] and
    -phi_R [u . grad u + r grad r] + phi_R D(r)[div S + div T] + f, in P_K
    by construction; forcing may be None.

    values holds the grid values of rhs_factors(state, stress, p) in its
    first N_FACTORS slices; phi_R reads u, d1 u, d2 u there.  D(r) =
    1 / rho(r) takes its P_K round trip from the r slice, and the eleven
    quadratic terms, left factors (u1, u2, r, D) times the rows of a 4 x 3
    table less its empty slot, are one dealiased product."""
    grid = state.r.grid
    n = grid.n_points
    cut = 1.0
    if cfg.cutoff_R is not None:
        second = torus.to_values(derivative_stack(state.u, W2_INDICES[3:]), n)
        cut = phi_r(sup_norm_w2inf_values(np.concatenate(
            [values[VELOCITY].reshape(3, 2, n, n), second])), cfg.cutoff_R)
    dr = SpectralField.zero(grid, 1)
    du = np.zeros_like(state.u.coeffs)
    if cut != 0.0:
        rvals = values[R]
        check_positive(rvals, "in a stage, where D(r) is undefined")
        dvals = torus.to_values(torus.to_modes(1.0 / r_to_density(rvals, p)),
                                n)
        factors = np.concatenate([values[:N_FACTORS], dvals[None]])
        prod = dealiased_product(factors[_LEFT], factors[_RIGHT])
        adv_r = prod[0] + prod[3] + 0.5 * (p.gamma - 1.0) * prod[6]
        dr = SpectralField(grid, (-cut) * adv_r)
        du = du + cut * prod[9:11]
        du = du - cut * (prod[1:3] + prod[4:6])
        du = du - cut * prod[7:9]
    if forcing is not None:
        du = du + forcing.coeffs
    return dr, SpectralField(grid, du)


def cfl_bound(state: FluidState, p: ModelParams, values):
    """Conservative explicit bound min(h / max(|u| + c_s),
    h^2 / (4 max D (mu_s + mu_b))); the characteristic speeds of the (r, u)
    system are u.n +- c_s with sound speed c_s = sqrt((gamma-1)/2) r.
    values holds the grid values of rhs_factors(state, ...) in its first
    N_FACTORS slices, as in fluid_rhs."""
    h = state.r.grid.spacing
    uvals = values[U1:U2 + 1]
    rvals = values[R]
    speed = float((np.sqrt(np.sum(uvals ** 2, axis=0))
                   + np.sqrt(0.5 * (p.gamma - 1.0)) * np.abs(rvals)).max())
    dmax = float((1.0 / r_to_density(rvals, p)).max())
    advective = h / speed if speed > 0 else np.inf
    viscous = h * h / (4.0 * dmax * (p.mu_s + p.mu_b))
    return min(advective, viscous)


def check_cfl(state: FluidState, p: ModelParams, cfg: FluidStepConfig,
              values):
    """Raise CFLViolation when cfg.dt exceeds cfg.cfl_safety * cfl_bound
    (state, p, values)."""
    bound = cfg.cfl_safety * cfl_bound(state, p, values)
    if cfg.dt > bound:
        raise CFLViolation(f"dt = {cfg.dt:.3e} exceeds CFL bound {bound:.3e}")


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


def state_from_coeffs(grid, r, u, time):
    """FluidState around coefficient arrays, taken as they are."""
    return FluidState(SpectralField(grid, r), SpectralField(grid, u), time)


def forcing_of_time(forcing: ForcingSpec, grid):
    """The forcing field (or None) as a callable of time: a steady field is
    built once here, a time-periodic one at every call."""
    if forcing is None or forcing.kind == "zero" or forcing.amplitude == 0.0:
        return lambda t: None
    x1, x2 = grid.x

    def field(t):
        return SpectralField.from_values(grid, forcing.values(x1, x2, t))
    if forcing.kind == "steady_field":
        steady = field(0.0)
        return lambda t: steady
    return field


def step(state: FluidState, stress, forcing, p: ModelParams,
         cfg: FluidStepConfig) -> FluidState:
    """One SSP-RK3 step; stress may be a field or a callable of time, and
    forcing a ForcingSpec; either may be None.

    Raises CFLViolation, before any stage, when dt exceeds the configured
    bound, and PositivityLoss when a stage meets an r that is not positive
    on the grid.  coupling.fluid_trajectory checks the state it returns.
    """
    grid = state.r.grid
    force = forcing_of_time(forcing, grid)

    def batch(st):
        st_stress = stress(st.time) if callable(stress) else stress
        return torus.to_values(rhs_factors(st, st_stress, p), grid.n_points)

    first = batch(state)
    check_cfl(state, p, cfg, first)
    y0 = (state.r.coeffs, state.u.coeffs)

    def rhs(y, t):
        st = state_from_coeffs(grid, *y, t)
        dr, du = fluid_rhs(st, force(t), p, cfg,
                           first if y is y0 else batch(st))
        return dr.coeffs, du.coeffs

    r, u = ssprk3(y0, rhs, state.time, cfg.dt)
    return state_from_coeffs(grid, r, u, state.time + cfg.dt)


def fluid_energy(state: FluidState, s: int):
    """Squared W^{s,2} norm of the pair (r, u)."""
    return sobolev_norm(state.r, s) ** 2 + sobolev_norm(state.u, s) ** 2
