import numpy as np
import pytest
from hypothesis import given, settings, strategies

from conftest import constant, derivative, divergence, field_product, \
    fluid_batch, gradient, no_force, no_stress, random_band_limited, \
    rhs_fields, sup_norm_w2inf, zero_field
from fene import fluid, torus
from fene.coupling import fluid_trajectory
from fene.errors import BlowupCeiling, PositivityLoss, StabilityViolation
from fene.fluid import FluidState, FluidStepConfig, cfl_bound, \
    check_positive, fluid_energy, fluid_rhs, forcing_of_time, phi_r, \
    ssprk3, step, stress_divergence, viscous_divergence
from fene.model import ModelParams, density_to_r, r_to_density
from fene.torus import SIDE, TorusGrid, sobolev_norm, to_modes, to_values


def constant_state(grid, rho, params, uvals=None):
    n = grid.n_points
    r = to_modes(np.full((1, n, n), density_to_r(rho, params)))
    u = zero_field(grid, 2) if uvals is None else to_modes(uvals)
    return FluidState(grid, r, u)


def test_phi_r_plateaus():
    assert phi_r(0.0, 5.0) == 1.0
    assert phi_r(5.0, 5.0) == 1.0
    assert phi_r(6.5, 5.0) == 0.0
    assert phi_r(6.0, 5.0) == 0.0
    for knot in (5.0, 6.0):
        h = 1e-8
        assert abs(phi_r(knot + h, 5.0) - phi_r(knot - h, 5.0)) < 1e-12
    h = 1e-6
    for knot in (5.0, 6.0):
        assert abs(phi_r(knot + h, 5.0) - phi_r(knot - h, 5.0)) < 5 * h ** 2 * 10
    y = np.linspace(5.0, 6.0, 200)
    assert np.all(np.diff(phi_r(y, 5.0)) <= 0)
    with pytest.raises(ValueError):
        phi_r(-1.0, 5.0)
    with pytest.raises(ValueError):
        phi_r(1.0, 0.0)


def test_positivity_checked_by_the_trajectory(grid32, params):
    # FluidState holds what it is given; the loop that keeps the state
    # checks it, the first one included
    r = to_modes(np.full((1, 32, 32), -0.5))
    st = FluidState(grid32, r, zero_field(grid32, 2))
    with pytest.raises(PositivityLoss, match=r"^min r = -5\.000e-01 on the "
                       r"grid in the fluid half at step 0$"):
        fluid_trajectory(st, no_stress(grid32), no_force, params,
                         FluidStepConfig(dt=1e-3), 2)


@pytest.mark.parametrize("low, error", [
    (np.nan, BlowupCeiling), (-np.inf, BlowupCeiling), (0.0, PositivityLoss),
    (-1.0, PositivityLoss)])
def test_check_positive_ranks_non_finite_before_non_positive(low, error):
    # the order of the trajectory loop: an r that is not finite is a
    # blow-up, a finite r <= 0 a positivity loss
    rvals = np.ones((4, 4))
    rvals[1, 2] = low
    with pytest.raises(error, match=" here$"):
        check_positive(rvals, "here")


@pytest.mark.parametrize("r_shape, u_shape", [
    ((2, 21, 11), (2, 21, 11)),   # a 2-vector r
    ((1, 21, 11), (1, 21, 11)),   # a scalar u
    ((3, 21, 11), (2, 21, 11)),   # a tensor r
    ((21, 11), (2, 21, 11)),      # no component axis
    ((1, 11, 6), (2, 11, 6)),     # the block of n = 16
], ids=["vector_r", "scalar_u", "tensor_r", "bare_r", "other_grid"])
def test_fluid_state_refuses_other_shapes(grid32, r_shape, u_shape):
    assert grid32.spectral_shape == (21, 11)
    with pytest.raises(ValueError, match="^r must be scalar and u a "
                       "2-vector field"):
        FluidState(grid32, np.zeros(r_shape, complex),
                   np.zeros(u_shape, complex))


def test_continuity_rhs_zero_velocity(grid32, params):
    st = constant_state(grid32, 1.3, params)
    rhs = rhs_fields(st, None, params, FluidStepConfig(dt=1e-3),
                     fluid_batch(st, None, params))[0]
    assert np.max(np.abs(rhs)) == 0.0


def test_continuity_rhs_closed_form(grid32, params):
    x1, _ = grid32.x
    c = 2.0
    st = FluidState(grid32, to_modes(np.full((1, 32, 32), c)),
                    to_modes(np.stack([np.sin(x1), np.zeros_like(x1)])))
    rhs = rhs_fields(st, None, params, FluidStepConfig(dt=1e-3),
                     fluid_batch(st, None, params))[0]
    expect = -c * (params.gamma - 1.0) / 2.0 * np.cos(x1)
    assert np.max(np.abs(to_values(rhs, 32)[0] - expect)) < 1e-12


def test_continuity_rhs_cutoff_support(grid32, params):
    x1, _ = grid32.x
    st = FluidState(grid32, to_modes(np.full((1, 32, 32), 2.0)),
                    to_modes(np.stack([np.sin(x1), np.zeros_like(x1)])))
    # |u|_{2,inf} of (sin, 0) is about sqrt(5); a cutoff below it scales the
    # rhs by phi_R, far above it leaves the rhs untouched
    values = fluid_batch(st, None, params)
    free = rhs_fields(st, None, params,
                      FluidStepConfig(dt=1e-3, cutoff_R=50.0), values)[0]
    plain = rhs_fields(st, None, params, FluidStepConfig(dt=1e-3), values)[0]
    assert np.array_equal(free, plain)
    dead = rhs_fields(st, None, params,
                      FluidStepConfig(dt=1e-3, cutoff_R=1.0), values)[0]
    assert np.max(np.abs(dead)) == 0.0
    y = sup_norm_w2inf(grid32, st.u)
    mid_R = y - 0.5
    mid = rhs_fields(st, None, params,
                     FluidStepConfig(dt=1e-3, cutoff_R=mid_R), values)[0]
    assert np.allclose(mid, phi_r(y, mid_R) * plain, rtol=1e-13)


def test_momentum_rhs_equilibrium(grid32, params):
    st = constant_state(grid32, 1.0, params)
    rhs = rhs_fields(st, None, params, FluidStepConfig(dt=1e-3),
                     fluid_batch(st, None, params))[1]
    assert np.max(np.abs(rhs)) == 0.0


def test_momentum_rhs_stress_divergence(grid32, params):
    x1, x2 = grid32.x
    c = 1.5
    st = constant_state(grid32, r_to_density(c, params), params)
    stress = to_modes(np.stack(
        [np.sin(x1), 0.3 * np.sin(x1 + x2), np.cos(x2)]))
    rhs = rhs_fields(st, None, params, FluidStepConfig(dt=1e-3),
                     fluid_batch(st, stress, params))[1]
    g = torus.to_values(stress_divergence(grid32, stress), 32)
    d = 1.0 / r_to_density(c, params)
    assert np.max(np.abs(to_values(rhs, 32) - d * g)) < 1e-10


def test_momentum_rhs_viscous_closed_form(grid32):
    p = ModelParams(mu_s=1.0, mu_b=0.0)
    _, x2 = grid32.x
    c = 2.0
    st = FluidState(grid32, to_modes(np.full((1, 32, 32), c)),
                    to_modes(np.stack([np.sin(x2), np.zeros_like(x2)])))
    rhs = to_values(rhs_fields(st, None, p, FluidStepConfig(dt=1e-3),
                               fluid_batch(st, None, p))[1], 32)
    d = 1.0 / r_to_density(c, p)
    assert np.max(np.abs(rhs[0] + d * np.sin(x2))) < 1e-12
    assert np.max(np.abs(rhs[1])) < 1e-13


def random_fluid_input(grid, params, seed):
    """Band-limited positive r, u, a stress and a forcing."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    r = to_modes(np.full((1, n, n), density_to_r(1.0, params))) \
        + random_band_limited(grid, rng, scale=0.02)
    u = random_band_limited(grid, rng, components=2, scale=0.3)
    stress = random_band_limited(grid, rng, components=3, scale=0.1)
    forcing = random_band_limited(grid, rng, components=2, scale=0.1)
    return FluidState(grid, r, u), stress, forcing


def per_term_fluid_rhs(st, stress, forcing, p, cfg):
    """One dealiased product per quadratic term, added in the order of the
    equations; cfg.cutoff_R must be set."""
    grid = st.grid

    def dot_grad(u, f):
        return field_product(grid, u[:1], derivative(grid, f, (1, 0))) \
            + field_product(grid, u[1:], derivative(grid, f, (0, 1)))

    cut = phi_r(sup_norm_w2inf(grid, st.u), cfg.cutoff_R)
    dr = (-cut) * (dot_grad(st.u, st.r) + 0.5 * (p.gamma - 1.0)
                   * field_product(grid, st.r, divergence(grid, st.u)))
    d = to_modes(1.0 / r_to_density(to_values(st.r, grid.n_points), p))
    total = viscous_divergence(grid, st.u, p) \
        + stress_divergence(grid, stress)
    du = zero_field(grid, 2) + cut * field_product(grid, d, total) \
        - cut * dot_grad(st.u, st.u) \
        - cut * field_product(grid, st.r, gradient(grid, st.r)) + forcing
    return dr, du


def test_fluid_rhs_matches_per_term_products(grid32, params):
    st, stress, forcing = random_fluid_input(grid32, params, seed=11)
    y = sup_norm_w2inf(grid32, st.u)
    cfg = FluidStepConfig(dt=1e-3, cutoff_R=y - 0.4)
    assert 0.0 < phi_r(y, cfg.cutoff_R) < 1.0   # inside the cubic ramp
    dr, du = rhs_fields(st, forcing, params, cfg,
                        fluid_batch(st, stress, params))
    ref_r, ref_u = per_term_fluid_rhs(st, stress, forcing, params, cfg)
    assert np.array_equal(dr, ref_r)
    assert np.array_equal(du, ref_u)


def test_fluid_rhs_transforms_each_factor_once(grid32, params, monkeypatch):
    st, stress, forcing = random_fluid_input(grid32, params, seed=12)
    ramp = FluidStepConfig(dt=1e-3,
                           cutoff_R=sup_norm_w2inf(grid32, st.u) - 0.4)
    calls, slices = [], {"to_modes": 0, "to_values": 0}

    def counted(func):
        def wrapper(*args):
            calls.append(func.__name__)
            # leading axes count the slices
            slices[func.__name__] += int(np.prod(args[0].shape[:-2]))
            return func(*args)
        return wrapper

    for name in slices:
        monkeypatch.setattr(torus, name, counted(getattr(torus, name)))
    # the batch is counted with the stage that reads it
    fluid_rhs(grid32, st.u, forcing, params, FluidStepConfig(dt=1e-3),
              fluid_batch(st, stress, params))
    assert len(calls) <= 4
    # inverse: the 12 distinct factors, then D(r); forward: D(r) and the
    # 11 products
    assert slices["to_values"] <= 13
    assert slices["to_modes"] <= 12
    # phi_R reads u, d1 u and d2 u from the batch: only the three second
    # derivatives of u (6 slices) are transformed, where sup_norm_w2inf(u)
    # transformed all 12
    calls.clear()
    slices.update(to_modes=0, to_values=0)
    fluid_rhs(grid32, st.u, forcing, params, ramp,
              fluid_batch(st, stress, params))
    assert len(calls) <= 5
    assert slices["to_values"] <= 19               # 25
    assert slices["to_modes"] <= 12


def test_viscous_divergence_formula(grid32):
    p = ModelParams(mu_s=0.7, mu_b=0.4)
    rng = np.random.default_rng(0)
    u = random_band_limited(grid32, rng, components=2, kmax=5)
    div_s = viscous_divergence(grid32, u, p)
    lap = -grid32.ksq * u
    divc = 1j * grid32.k[0] * u[0] + 1j * grid32.k[1] * u[1]
    grad_div = np.stack([1j * grid32.k[0] * divc, 1j * grid32.k[1] * divc])
    expect = p.mu_s * lap + p.mu_b * grad_div
    assert np.max(np.abs(div_s - expect)) < 1e-14


def test_step_equilibrium_fixed_point(grid32, params):
    st = constant_state(grid32, 1.0, params)
    stress = to_modes(np.stack(
        [np.ones((32, 32)), np.zeros((32, 32)), np.ones((32, 32))]))
    cfg = FluidStepConfig(dt=1e-3)
    cur, values = st, fluid_batch(st, stress, params)
    for _ in range(10):
        cur, values = step(cur, values, constant(stress), no_force, params,
                           cfg)
        assert np.max(np.abs(cur.r - st.r)) < 1e-12
        assert np.max(np.abs(cur.u)) < 1e-12


def test_step_conservation(grid32, params):
    x1, x2 = grid32.x
    rho0 = 1.0 + 0.01 * np.cos(x1) * np.cos(x2)
    st = FluidState(
        grid32, to_modes(density_to_r(rho0, params)[None]),
        to_modes(np.stack([0.1 + 0.02 * np.sin(x2), 0.01 * np.sin(x1)])))
    cfg = FluidStepConfig(dt=1e-3)
    area = grid32.cell_area()

    def invariants(s):
        rho = r_to_density(to_values(s.r, 32)[0], params)
        uv = to_values(s.u, 32)
        return np.array([np.sum(rho), np.sum(rho * uv[0]),
                         np.sum(rho * uv[1])]) * area

    start = invariants(st)
    cur, values = st, fluid_batch(st, None, params)
    for _ in range(1000):
        cur, values = step(cur, values, no_stress(grid32), no_force, params,
                           cfg)
    drift = np.abs(invariants(cur) - start) / np.maximum(np.abs(start), 1.0)
    assert np.max(drift) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=20)
@given(strategies.sampled_from([16, 32]),
       strategies.integers(0, 2 ** 32 - 1), strategies.floats(0.0, 1e-2))
def test_one_step_conserves_mass_and_momentum(n, seed, amplitude):
    # density 1 plus band-limited noise of peak size <= 1e-2 and a velocity
    # of the same size; the drift grows with the amplitude (ROADMAP table)
    params, grid = ModelParams(), TorusGrid(n)
    noise = to_values(random_band_limited(grid, np.random.default_rng(seed),
                                          components=3), n)
    noise *= amplitude / np.max(np.abs(noise))
    state = FluidState(grid,
                       to_modes(density_to_r(1.0 + noise[:1], params)),
                       to_modes(noise[1:]))
    area = grid.cell_area()

    def invariants(s):
        rho = r_to_density(to_values(s.r, n)[0], params)
        uv = to_values(s.u, n)
        return np.array([np.sum(rho), np.sum(rho * uv[0]),
                         np.sum(rho * uv[1])]) * area

    start = invariants(state)
    after = invariants(step(state, fluid_batch(state, None, params),
                            no_stress(grid), no_force, params,
                            FluidStepConfig(dt=1e-3))[0])
    drift = np.abs(after - start) / np.maximum(np.abs(start), 1.0)
    assert np.max(drift) < 1e-8


def test_cutoff_inactive_is_bitwise_identical(grid32, params):
    x1, x2 = grid32.x
    st = FluidState(
        grid32, to_modes(density_to_r(1.0 + 0.01 * np.cos(x1), params)[None]),
        to_modes(np.stack([0.05 * np.sin(x2), np.zeros_like(x1)])))
    plain_cfg = FluidStepConfig(dt=1e-3)
    big_r_cfg = FluidStepConfig(dt=1e-3, cutoff_R=1e6)
    a = b = st, fluid_batch(st, None, params)
    for _ in range(20):
        a = step(*a, no_stress(grid32), no_force, params, plain_cfg)
        b = step(*b, no_stress(grid32), no_force, params, big_r_cfg)
    a, b = a[0], b[0]
    assert np.array_equal(a.r, b.r)
    assert np.array_equal(a.u, b.u)


def test_step_self_convergence_third_order(grid32, params):
    x1, x2 = grid32.x
    rho0 = 1.0 + 0.05 * np.cos(x1)
    st = FluidState(
        grid32, to_modes(density_to_r(rho0, params)[None]),
        to_modes(np.stack([0.2 * np.sin(x2), 0.1 * np.sin(x1)])))
    horizon = 0.02

    def solve(dt):
        cfg = FluidStepConfig(dt=dt)
        cur = st, fluid_batch(st, None, params)
        for _ in range(int(round(horizon / dt))):
            cur = step(*cur, no_stress(grid32), no_force, params, cfg)
        return cur[0]

    s1, s2, s3 = solve(2e-3), solve(1e-3), solve(5e-4)

    def dist(a, b):
        return np.sqrt(sobolev_norm(grid32, a.r - b.r, 0) ** 2 +
                       sobolev_norm(grid32, a.u - b.u, 0) ** 2)

    order = np.log2(dist(s1, s2) / dist(s2, s3))
    assert order > 2.7


def test_step_raises_cfl(grid32, params):
    x1, x2 = grid32.x
    st = FluidState(grid32,
                    to_modes(np.full((1, 32, 32), density_to_r(1.0, params))),
                    to_modes(np.stack([5.0 + np.sin(x2), np.zeros_like(x1)])))
    cfg = FluidStepConfig(dt=0.05)
    assert cfg.dt > cfl_bound(fluid_batch(st, None, params), params)
    with pytest.raises(StabilityViolation, match="exceeds CFL bound"):
        step(st, fluid_batch(st, None, params), no_stress(grid32), no_force,
             params, cfg)
    # raised inside a step, it names the step
    with pytest.raises(StabilityViolation, match=r"^dt = 5\.000e-02 exceeds "
                       r"CFL bound .* in the fluid half at step 1$"):
        fluid_trajectory(st, no_stress(grid32), no_force, params,
                         cfg, 3)


def test_cfl_bound_holds_sound_speed(grid32):
    # at rest with almost no viscosity only the acoustic waves limit dt:
    # the characteristic speeds of the (r, u) system are u.n +- c_s
    p = ModelParams(mu_s=1e-6, mu_b=0.0)
    st = constant_state(grid32, 1.0, p)
    c_s = np.sqrt(0.5 * (p.gamma - 1.0)) * density_to_r(1.0, p)
    bound = cfl_bound(fluid_batch(st, None, p), p)
    assert bound == pytest.approx(SIDE / 32 / c_s, rel=1e-12)


# a real and a complex array of different shapes, advanced together
SSPRK3_Y0 = (np.array([1.0, -2.0, 0.5]),
             np.array([[1.0 + 1.0j, -0.5j], [2.0, 0.25 - 3.0j]]))


def test_ssprk3_stage_times_integrate_cubics_exactly():
    # for y' = p(t) the stage weights 1/6, 1/6, 2/3 at t0, t0 + dt and
    # t0 + dt/2 are Simpson's rule, exact for cubic p
    coef = (np.array([0.3, -1.0, 2.0]), np.array([[1.0j, 2.0], [-1.0, 0.5j]]))

    def poly(t):
        return 1.0 - 2.0 * t + 3.0 * t ** 2 - 4.0 * t ** 3

    def antiderivative(t):
        return t - t ** 2 + t ** 3 - t ** 4

    t0, dt = 0.7, 0.4
    out = ssprk3(SSPRK3_Y0, lambda y, t: tuple(c * poly(t) for c in coef),
                 t0, dt)
    gain = antiderivative(t0 + dt) - antiderivative(t0)
    for got, y0, c in zip(out, SSPRK3_Y0, coef):
        assert got.shape == y0.shape and got.dtype == y0.dtype
        np.testing.assert_allclose(got, y0 + c * gain, rtol=1e-14,
                                   atol=1e-14)


def test_ssprk3_third_order():
    # y' = -y + sin t has y(t) = (y0 - s(t0)) e^{t0 - t} + s(t),
    # s(t) = (sin t - cos t) / 2
    def s(t):
        return 0.5 * (np.sin(t) - np.cos(t))

    t0, horizon = 0.3, 1.0

    def error(dt):
        y, t = SSPRK3_Y0, t0
        for _ in range(int(round(horizon / dt))):
            y = ssprk3(y, lambda y, t: tuple(-a + np.sin(t) for a in y),
                       t, dt)
            t += dt
        exact = [(a - s(t0)) * np.exp(-horizon) + s(t0 + horizon)
                 for a in SSPRK3_Y0]
        return max(np.max(np.abs(a - b)) for a, b in zip(y, exact))

    order = np.log2(error(0.1) / error(0.05))
    assert order > 2.7


def test_step_raises_positivity_loss(grid32, monkeypatch):
    # past the CFL bound on purpose
    monkeypatch.setattr(fluid, "CFL_SAFETY", 1e6)
    p = ModelParams(gamma=3.0)
    x1, _ = grid32.x
    st = FluidState(grid32, to_modes(np.full((1, 32, 32), 0.01)),
                    to_modes(np.stack([60.0 * np.sin(x1), np.zeros_like(x1)])))
    cfg = FluidStepConfig(dt=0.05)
    with pytest.raises(PositivityLoss, match="in a stage, where D\\(r\\) is "
                       "undefined$"):
        step(st, fluid_batch(st, None, p), no_stress(grid32), no_force, p,
             cfg)


def test_fluid_energy(grid32, params):
    zero = FluidState(grid32, zero_field(grid32, 1), zero_field(grid32, 2))
    assert fluid_energy(zero, 0) == 0.0
    st = constant_state(grid32, r_to_density(1.0, params), params)
    assert fluid_energy(st, 0) == pytest.approx(SIDE ** 2, rel=1e-13)


def test_viscous_energy_decay(grid32, params):
    # frozen r, no advection, no stress: the viscous semigroup
    # du/dt = P_K [D(r) div S(grad u)] dissipates
    rng = np.random.default_rng(5)
    u = random_band_limited(grid32, rng, components=2, kmax=8, scale=0.3)
    rvals = np.full((32, 32), density_to_r(1.0, params))
    D = to_modes(1.0 / r_to_density(rvals, params)[None])

    def rhs(y, t):
        return (field_product(grid32, D,
                              viscous_divergence(grid32, y[0], params)),)

    energies = [sobolev_norm(grid32, u, 0) ** 2]
    y = (u,)
    for k in range(100):
        y = ssprk3(y, rhs, k * 5e-4, 5e-4)
        energies.append(sobolev_norm(grid32, y[0], 0) ** 2)
    assert np.all(np.diff(energies) <= 1e-13)
    assert energies[-1] < energies[0]


def test_forcing_of_time(grid16):
    x1, x2 = grid16.x
    assert forcing_of_time("zero", 0.0, (1, 0), grid16)(0.3) is None
    steady = forcing_of_time("steady_field", 0.5, (2, 1), grid16)
    phase = 2 * x1 + x2
    np.testing.assert_allclose(
        to_values(steady(0.0), grid16.n_points),
        0.5 * np.stack([np.sin(phase), np.cos(phase)]), rtol=0, atol=1e-14)
    # a steady field is transformed once
    assert steady(0.7) is steady(0.0)
    periodic = forcing_of_time("time_periodic", 0.5, (2, 1), grid16)
    assert np.array_equal(periodic(0.0), steady(0.0))
    assert np.max(np.abs(periodic(np.pi / 2))) < 1e-12
    with pytest.raises(ValueError, match="unknown forcing kind"):
        forcing_of_time("gusty", 0.5, (2, 1), grid16)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        forcing_of_time("steady_field", np.nan, (2, 1), grid16)
