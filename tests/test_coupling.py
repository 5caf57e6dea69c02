from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from conftest import constant, divergence, field_product, fluid_batch, \
    fp_batch, no_force, no_stress, random_band_limited, rhs_fields, \
    sup_norm_w2inf, zero_field
from fene import coupling, fluid, fokker_planck, runner, torus
from fene.errors import PositivityLoss, StabilityViolation
from fene.configspace import eigen_basis
from fene.coupling import CoupledState, blowup_indicator, \
    constant_trajectory, contraction_factor, coupled_step, \
    coupled_trajectory, fixed_point_map, fluid_trajectory, fp_trajectory, \
    grid_values, run_fixed_point, stress_field, xs_distance, xs_norm
from fene.fluid import FluidState, FluidStepConfig, fluid_rhs, phi_r, \
    rhs_batch, rhs_factors, step
from fene.fokker_planck import FokkerPlanckSolver, PolymerField, \
    fp_energy, polymer_mass
from fene.model import ModelParams, density_to_r, r_to_density
from fene.runner import RunContext, parse_config_text, record_state
from fene.torus import sobolev_norm, to_modes, to_values
from oracle import d_coefficient, kramers_stress, linear_ssprk3, \
    linearized_system, weak_drift


def equilibrium_state(grid, basis, params):
    n = grid.n_points
    r = to_modes(np.full((1, n, n), density_to_r(1.0, params)))
    u = zero_field(grid, 2)
    return CoupledState(FluidState(grid, r, u),
                        PolymerField.equilibrium(grid, basis))


def perturbed_state(grid, basis, params, amp=1e-3):
    x1, x2 = grid.x
    n = grid.n_points
    rho = 1.0 + 0.5 * amp * np.cos(x1)
    r = to_modes(density_to_r(rho, params)[None])
    u = to_modes(np.stack([0.1 + amp * np.sin(x2), 0.5 * amp * np.sin(x1)]))
    psi = PolymerField.from_coefficient_fields(
        grid, basis, {0: np.ones((n, n)), 1: amp * np.cos(x2)})
    return CoupledState(FluidState(grid, r, u), psi)


@pytest.fixture(scope="module")
def fluid_cfg():
    return FluidStepConfig(dt=1e-3)


@pytest.fixture(scope="module")
def op32(basis32, params, grid32):
    return FokkerPlanckSolver(basis32, params, grid32, 32)


def test_coupled_state_validates_time(grid32, basis32, params):
    st = equilibrium_state(grid32, basis32, params)
    bad_psi = PolymerField.equilibrium(grid32, basis32, time=0.5)
    with pytest.raises(ValueError):
        CoupledState(st.fluid, bad_psi)


def test_coupled_state_refuses_disagreeing_time_stamps(grid16, basis16,
                                                       params):
    fl = equilibrium_state(grid16, basis16, params).fluid
    late = FluidState(grid16, fl.r, fl.u, 0.5)
    with pytest.raises(ValueError, match="^fluid and polymer time stamps "
                       "disagree$"):
        CoupledState(late, PolymerField.equilibrium(grid16, basis16))


def test_coupled_state_refuses_fields_on_different_grids(grid16, grid32,
                                                         basis16, params):
    fluid16 = equilibrium_state(grid16, basis16, params).fluid
    with pytest.raises(ValueError, match="^fluid and polymer fields use "
                       "different grids$"):
        CoupledState(fluid16, PolymerField.equilibrium(grid32, basis16))


def test_stress_field_matches_pointwise_quadrature(grid16, basis16, quad16):
    rng = np.random.default_rng(0)
    n = grid16.n_points
    coeffs = np.zeros((basis16.n_basis, *grid16.spectral_shape), dtype=complex)
    for i in range(basis16.n_basis):
        coeffs[i] = to_modes(rng.standard_normal((n, n)) * 0.1)
    psi = PolymerField(grid16, basis16, coeffs)
    field_vals = to_values(stress_field(psi), n)
    cg = to_values(psi.coeffs, n)
    for ix, iy in ((0, 0), (3, 7), (10, 2)):
        direct = kramers_stress(basis16.node_values(cg[:, ix, iy]), quad16)
        assert abs(field_vals[0, ix, iy] - direct[0, 0]) < 1e-10
        assert abs(field_vals[1, ix, iy] - direct[0, 1]) < 1e-10
        assert abs(field_vals[2, ix, iy] - direct[1, 1]) < 1e-10


def kramers_field(cg, basis):
    """Coefficients (T11, T12, T22) of the pointwise Kramers stress of the
    coefficient fields with grid values cg, one grid point at a time."""
    n = cg.shape[-1]
    t = np.empty((3, n, n))
    for ix in range(n):
        for iy in range(n):
            tk = kramers_stress(basis.node_values(cg[:, ix, iy]), basis.quad)
            t[:, ix, iy] = tk[0, 0], tk[0, 1], tk[1, 1]
    return to_modes(t)


def test_polymer_stress_enters_momentum_as_d_times_its_divergence(
        grid16, basis16, params):
    # du at psi less du at psi = M, with the same r and u, is the dealiased
    # product of P_K D(r) with div(T(psi) - T(M)), T the Kramers stress
    rng = np.random.default_rng(17)
    n = grid16.n_points
    x1, x2 = grid16.x
    rho = 1.0 + 0.3 * np.cos(x1) * np.sin(2.0 * x2)
    r = to_modes(density_to_r(rho, params)[None])
    u = random_band_limited(grid16, rng, components=2, kmax=3, scale=0.5)
    eq = PolymerField.equilibrium(grid16, basis16).coeffs
    coeffs = eq + random_band_limited(grid16, rng, basis16.n_basis, kmax=4)
    cg, cg_eq = to_values(coeffs, n), to_values(eq, n)
    assert np.ptp(cg[0]) > 0.5   # the polymer mass depends on x
    cfg = FluidStepConfig(dt=1e-3)

    def du(c):
        stress = stress_field(PolymerField(grid16, basis16, c))
        values = rhs_batch(grid16, r, u, stress, params)
        return fluid_rhs(grid16, u, None, params, cfg, values)[1]

    t = kramers_field(cg, basis16) - kramers_field(cg_eq, basis16)
    div_t = np.concatenate([divergence(grid16, t[[0, 1]]),
                            divergence(grid16, t[[1, 2]])])
    d = to_modes(d_coefficient(to_values(r, n), params))
    expected = field_product(grid16, d, div_t)
    assert np.max(np.abs(expected)) > 0.1
    assert np.max(np.abs(du(coeffs) - du(eq) - expected)) < 1e-10


def test_drift_reads_grad_u_as_the_convected_derivative(grid16, basis16,
                                                         params):
    # u = (a sin x2, 0) is divergence free and psi is uniform in x, so with
    # chi off only the drift is left: a cos x2 int M phi q2 d_q1 phi_i dq
    rng = np.random.default_rng(23)
    n = grid16.n_points
    x2 = grid16.x[1]
    a = 0.7
    u = to_modes(np.stack([a * np.sin(x2), np.zeros((n, n))]))
    c = rng.standard_normal(basis16.n_basis)
    coeffs = zero_field(grid16, basis16.n_basis)
    coeffs[:, 0, 0] = c
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])   # d2 u1 = 1
    drift = weak_drift(basis16, shear, c)
    # psi tells the shear from its transpose: the ground mode would not
    assert np.max(np.abs(drift - weak_drift(basis16, shear.T, c))) > 0.1
    op = FokkerPlanckSolver(basis16, params, grid16)
    got = to_values(op.explicit_tendency(*fp_batch(grid16, u, coeffs)), n)
    expected = drift[:, None, None] * (a * np.cos(x2))
    assert np.max(np.abs(got - expected)) < 1e-10


@pytest.mark.parametrize("k", [(1, 2), (-2, 1)])
def test_coupled_step_follows_the_linearized_system(grid16, quad16, params,
                                                    k):
    # about a uniform state a perturbation of size amp at one wave vector
    # follows oracle.linearized_system to first order: its products with
    # itself reach 0 and 2k, so what is left at k is cubic in amp, and the
    # relative residual falls 100-fold when amp does 10-fold; the base is
    # out of equilibrium, since at psi = M grad u and its transpose drift
    # alike
    basis = eigen_basis(quad16, 21)
    op = FokkerPlanckSolver(basis, params, grid16)   # chi off, as weak_drift
    cfg = FluidStepConfig(dt=1e-3)
    steps = 100
    rng = np.random.default_rng(20)
    r0 = density_to_r(1.0, params)
    base = np.r_[1.0, 0.2 * rng.standard_normal(basis.n_basis - 1)]
    y0 = rng.standard_normal(3 + basis.n_basis) \
        + 1j * rng.standard_normal(3 + basis.n_basis)
    decay, rates = linearized_system(basis, params, r0, k)
    _, expected = linear_ssprk3(base, y0, decay, rates, cfg.dt, steps)
    (i, j), = np.argwhere((grid16.k[0] == k[0]) & (grid16.k[1] == k[1]))
    residuals = []
    for amp in (1e-4, 1e-5):
        r, u = zero_field(grid16), zero_field(grid16, 2)
        c = zero_field(grid16, basis.n_basis)
        r[0, 0, 0], c[:, 0, 0] = r0, base
        r[:, i, j], u[:, i, j], c[:, i, j] = np.split(amp * y0, [1, 3])
        state = CoupledState(FluidState(grid16, r, u),
                             PolymerField(grid16, basis, c))
        *_, (_, last, _) = coupled_trajectory(state, op, no_force, cfg,
                                              range(steps + 1))
        got = np.concatenate([last.fluid.r[:, i, j], last.fluid.u[:, i, j],
                              last.psi.coeffs[:, i, j]]) / amp
        residuals.append(np.linalg.norm(got - expected)
                         / np.linalg.norm(expected))
    assert 50 <= residuals[0] / residuals[1] <= 200


def test_xs_norm_equilibrium(grid32, basis32):
    psi = PolymerField.equilibrium(grid32, basis32)
    traj = constant_trajectory(psi, 10, 0.1)   # spans [0, 1]
    assert xs_norm(traj, 0) == pytest.approx(2 * np.pi, rel=1e-12)
    scaled = [PolymerField(grid32, basis32, 2.0 * p.coeffs, p.time)
              for p in traj]
    assert xs_norm(scaled, 0) == pytest.approx(4 * np.pi, rel=1e-12)
    assert xs_norm(traj[:5], 0) <= xs_norm(traj, 0) + 1e-15
    with pytest.raises(ValueError):
        xs_norm([], 0)


def test_xs_norm_monotone_in_horizon(grid16, basis16, params):
    rng = np.random.default_rng(1)
    n = grid16.n_points
    coeffs = np.zeros((basis16.n_basis, *grid16.spectral_shape), dtype=complex)
    for i in range(basis16.n_basis):
        coeffs[i] = to_modes(rng.standard_normal((n, n)) * 0.1)
    psi = PolymerField(grid16, basis16, coeffs)
    traj = constant_trajectory(psi, 20, 0.05)
    vals = [xs_norm(traj[:k], 1) for k in (5, 10, 21)]
    assert vals[0] <= vals[1] <= vals[2]


def test_fixed_point_equilibrium_invariant(grid32, basis32, params,
                                           fluid_cfg, op32):
    st = equilibrium_state(grid32, basis32, params)
    traj = constant_trajectory(st.psi, 20, fluid_cfg.dt)
    _, out = fixed_point_map(traj, st, op32, no_force, fluid_cfg)
    assert xs_distance(out, traj, 1) < 1e-10


def test_contraction_factor_constructed_sequence(grid32, basis32):
    psi = PolymerField.equilibrium(grid32, basis32)
    delta = np.zeros((basis32.n_basis, *grid32.spectral_shape), dtype=complex)
    delta[2, 0, 0] = 1.0
    iterates = []
    for k in range(5):
        coeffs = psi.coeffs + 2.0 ** (-k) * delta
        iterates.append(constant_trajectory(
            PolymerField(grid32, basis32, coeffs), 4, 0.01))
    dists, ratios, converged = contraction_factor(iterates, 1)
    np.testing.assert_allclose(np.array(dists[1:]) / dists[:-1], 0.5,
                               rtol=1e-8)
    assert not converged
    np.testing.assert_allclose(ratios, 0.5, rtol=1e-8)
    same = [iterates[0], iterates[0], iterates[0]]
    dists2, ratios2, converged2 = contraction_factor(same, 1)
    assert dists2 == [0.0, 0.0]
    assert converged2 and ratios2 == []
    # a distance of 6.5e-15 between iterates of X^1 norm 2 pi is round-off
    # (floor 1e3 eps 2 pi = 1.4e-12), though it lies above 1e3 eps d_0
    steps = [0.0, 1e-3, 1e-3 + 1e-6, 1e-3 + 1e-6 + 1e-15]
    fading = [constant_trajectory(PolymerField(grid32, basis32,
                                               psi.coeffs + a * delta), 4, 0.01)
              for a in steps]
    dists3, ratios3, converged3 = contraction_factor(fading, 1)
    assert 1e-15 < dists3[2] < 1e3 * np.finfo(float).eps * 2 * np.pi
    assert converged3
    np.testing.assert_allclose(ratios3, [1e-3], rtol=1e-8)


def test_contraction_on_perturbed_seed(grid32, basis32, params, fluid_cfg,
                                       op32):
    st = perturbed_state(grid32, basis32, params)
    # a horizon of 0.05, 50 steps of dt = 1e-3
    iterates, _ = run_fixed_point(st, op32, no_force, fluid_cfg, 50, 5)
    _, ratios, converged = contraction_factor(iterates, 1)
    # the fourth distance, about 4e-15, is round-off and ends the list
    assert len(ratios) == 2 and converged
    assert all(r < 1.0 for r in ratios)


def test_contraction_factor_shrinks_with_horizon(grid16, basis16, params):
    fluid_cfg = FluidStepConfig(dt=1e-3)
    op = FokkerPlanckSolver(basis16, params, grid16, 16)
    st = perturbed_state(grid16, basis16, params, amp=5e-3)
    firsts = []
    for horizon in (0.1, 0.05, 0.025):
        iterates, _ = run_fixed_point(st, op, no_force, fluid_cfg,
                                      round(horizon / fluid_cfg.dt), 2)
        _, ratios, _ = contraction_factor(iterates, 1)
        firsts.append(ratios[0])
    assert firsts[0] > firsts[1] > firsts[2]


def test_fixed_point_seed_shares_the_initial_coefficients(grid16, basis16,
                                                          params):
    # the constant seed holds psi0's one coefficient array at every time,
    # so no step may write into a field's coefficients in place
    op = FokkerPlanckSolver(basis16, params, grid16, 16)
    st = perturbed_state(grid16, basis16, params, amp=5e-3)
    before = st.psi.coeffs.copy()
    iterates, _ = run_fixed_point(st, op, no_force,
                                  FluidStepConfig(dt=1e-3), 10, 2)
    assert np.array_equal(st.psi.coeffs, before)
    assert all(psi.coeffs is st.psi.coeffs for psi in iterates[0])
    assert [psi.time for psi in iterates[0]] == \
        [st.time + k * 1e-3 for k in range(11)]


def test_coupled_step_equilibrium(grid32, basis32, params, fluid_cfg, op32):
    st = equilibrium_state(grid32, basis32, params)
    cur, values = st, grid_values(st, params)
    for _ in range(10):
        cur, values = coupled_step(cur, values, op32, no_force, fluid_cfg)
        assert np.max(np.abs(cur.fluid.r - st.fluid.r)) < 1e-12
        assert np.max(np.abs(cur.fluid.u)) < 1e-12
        assert np.max(np.abs(cur.psi.coeffs - st.psi.coeffs)) < 1e-12


def test_coupled_step_conserves_everything(grid32, basis32, params,
                                           fluid_cfg, op32):
    st = perturbed_state(grid32, basis32, params, amp=5e-3)
    area = grid32.cell_area()

    def invariants(s):
        rho = r_to_density(to_values(s.fluid.r, 32)[0], params)
        uv = to_values(s.fluid.u, 32)
        return np.array([np.sum(rho) * area, np.sum(rho * uv[0]) * area,
                         np.sum(rho * uv[1]) * area, polymer_mass(s.psi)])

    start = invariants(st)
    cur = st, grid_values(st, params)
    for _ in range(100):
        cur = coupled_step(*cur, op32, no_force, fluid_cfg)
    cur = cur[0]
    drift = np.abs(invariants(cur) - start) / np.maximum(np.abs(start), 1.0)
    assert np.max(drift) < 1e-8


def test_coupled_step_agrees_with_picard_pass(grid32, basis32, params,
                                              op32):
    # one application of the map to the monolithic trajectory reproduces it
    # to O(dt^2); halving dt shrinks the gap by at least ~3x
    st = perturbed_state(grid32, basis32, params, amp=1e-2)
    horizon = 0.02
    gaps = []
    for dt in (2e-3, 1e-3):
        fluid_cfg = FluidStepConfig(dt=dt)
        n_steps = int(round(horizon / dt))
        mono = [st]
        cur = st, grid_values(st, params)
        for _ in range(n_steps):
            cur = coupled_step(*cur, op32, no_force, fluid_cfg)
            mono.append(cur[0])
        mono_psi = [s.psi for s in mono]
        _, once = fixed_point_map(mono_psi, st, op32, no_force,
                                  fluid_cfg)
        gaps.append(xs_distance(once, mono_psi, 1))
    assert gaps[1] < gaps[0] / 3.0


def test_blowup_indicator(grid32, basis32, params):
    st = equilibrium_state(grid32, basis32, params)

    def velocity(s):
        return grid_values(s, params)[fluid.VELOCITY]

    assert blowup_indicator(st, stress_field(st.psi),
                            velocity(st)) == (0.0, 0.0)
    x1, _ = grid32.x
    u = to_modes(np.stack([np.sin(x1), np.zeros_like(x1)]))
    st_u = CoupledState(FluidState(grid32, st.fluid.r, u),
                        PolymerField.equilibrium(grid32, basis32))
    expect = sup_norm_w2inf(grid32, u)   # div T(M) = 0 for the constant stress
    indicator, w2 = blowup_indicator(st_u, stress_field(st_u.psi),
                                     velocity(st_u))
    assert indicator == pytest.approx(expect, rel=1e-12)
    assert w2 == pytest.approx(expect, rel=1e-12)
    st_2u = CoupledState(FluidState(grid32, st.fluid.r, 2.0 * u),
                         PolymerField.equilibrium(grid32, basis32))
    assert blowup_indicator(st_2u, stress_field(st_2u.psi),
                            velocity(st_2u))[0] == \
        pytest.approx(2 * expect, rel=1e-12)


def test_steady_forcing_is_built_once_per_run(grid32, basis32, params, op32,
                                              fluid_cfg, monkeypatch):
    forces = {kind: fluid.forcing_of_time(kind, 0.1, (1, 0), grid32)
              for kind in ("steady_field", "time_periodic")}
    forces["zero"] = no_force
    slices = []

    def counted(func):
        def wrapper(values):
            slices.append(int(np.prod(values.shape[:-2])))
            return func(values)
        return wrapper

    monkeypatch.setattr(fokker_planck, "to_modes",
                        counted(fokker_planck.to_modes))
    monkeypatch.setattr(torus, "to_modes", counted(torus.to_modes))
    state = perturbed_state(grid32, basis32, params)
    values = grid_values(state, params)
    # a time-periodic force takes one 2-slice transform per SSP-RK3 stage
    # and per record, a steady one none: it was built with the force
    for advance, periodic in (
            (lambda f: coupled_step(state, values, op32, f, fluid_cfg), 3),
            (lambda f: step(state.fluid, values[:fluid.N_FACTORS],
                            no_stress(grid32), f, params, fluid_cfg), 3),
            (lambda f: record_state(state, values, SimpleNamespace(
                params=params, grid=grid32, force=f, fluid_cfg=fluid_cfg)),
             1)):
        counts = {}
        for kind, force in forces.items():
            slices.clear()
            advance(force)
            counts[kind] = (len(slices), sum(slices))
        calls, total = counts["zero"]
        assert counts["steady_field"] == (calls, total)
        assert counts["time_periodic"] == (calls + periodic,
                                           total + 2 * periodic)


def random_coupled_state(grid, basis, params, seed):
    """Band-limited positive r, u and a perturbed equilibrium psi."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    r = to_modes(np.full((1, n, n), density_to_r(1.0, params))) \
        + random_band_limited(grid, rng, scale=0.02)
    u = random_band_limited(grid, rng, components=2, scale=0.3)
    psi = PolymerField.equilibrium(grid, basis)
    psi.coeffs += random_band_limited(grid, rng, components=basis.n_basis,
                                      scale=1e-3)
    return CoupledState(FluidState(grid, r, u), psi)


def first_stage(state, op, force, cfg, monkeypatch):
    """(dr, du, dc) of the first SSP-RK3 stage of coupled_step."""
    stages = []

    def one_stage(y, rhs, t, dt):
        stages.append(rhs(y, t))
        return y

    with monkeypatch.context() as patch:
        patch.setattr(coupling, "ssprk3", one_stage)
        coupled_step(state, grid_values(state, op.params), op, force, cfg)
    return stages[0]


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("case", ["ramp", "dead", "steady_field"])
def test_shared_stage_equals_split_halves(n, case, request, params,
                                          monkeypatch):
    grid, basis = (request.getfixturevalue(f"{name}{n}")
                   for name in ("grid", "basis"))
    state = random_coupled_state(grid, basis, params, seed=n)
    y = sup_norm_w2inf(grid, state.fluid.u)
    cutoff, force = {"ramp": (y - 0.4, no_force),
                     "dead": (y - 1.5, no_force),
                     "steady_field": (None, fluid.forcing_of_time(
                         "steady_field", 0.1, (1, 0), grid))}[case]
    if case == "ramp":
        assert 0.0 < phi_r(y, cutoff) < 1.0
    if case == "dead":
        assert cutoff > 0.0 and phi_r(y, cutoff) == 0.0
    cfg = FluidStepConfig(dt=1e-4, cutoff_R=cutoff)
    op = FokkerPlanckSolver(basis, params, grid, n)
    dr, du, dc = first_stage(state, op, force, cfg, monkeypatch)

    st, c = state.fluid, state.psi.coeffs
    ref_r, ref_u = rhs_fields(st, force(state.time), params, cfg, fluid_batch(
        st, stress_field(state.psi), params))
    assert np.array_equal(dr, ref_r)
    assert np.array_equal(du, ref_u)
    assert np.array_equal(dc, op.tendency(c, *fp_batch(grid, st.u, c)))


def counted_transforms(monkeypatch):
    """{name: slices per call} of every scipy.fft irfft2 / rfft2 call made
    while monkeypatch is in force."""
    calls = {"irfft2": [], "rfft2": []}

    def counted(name):
        func = getattr(scipy.fft, name)

        def wrapper(x, *args, **kwargs):
            calls[name].append(int(np.prod(x.shape[:-2])))
            return func(x, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scipy.fft, name, counted(name))
    return calls


def test_coupled_step_transform_budget(grid32, basis32, params, op32,
                                       fluid_cfg, monkeypatch):
    # each torus transform is one scipy.fft call; per SSP-RK3 stage one
    # inverse call of the 12 fluid factors and the 40 coefficient fields
    # and one of D(r); forward D(r), the 11 fluid products and the 3 x 40
    # FP products.  The step takes its state's stage-1 batch, which the
    # CFL bound reads too, and makes the new state's once, for the
    # positivity of its r and the next step.
    start = perturbed_state(grid32, basis32, params)
    state = coupled_step(start, grid_values(start, params), op32, no_force,
                         fluid_cfg)
    calls = counted_transforms(monkeypatch)
    coupled_step(*state, op32, no_force, fluid_cfg)
    inverse, forward_ = calls["irfft2"], calls["rfft2"]
    assert len(inverse) + len(forward_) <= 15      # 18 before carrying
    assert sum(inverse) <= 159                     # 163
    assert sum(forward_) <= 396                    # 396
    # phi_R reads u, d1 u, d2 u from the batch: one call per stage of the
    # three second derivatives of u (6 slices), where the whole W^{2,inf}
    # stack took 12
    for slices in calls.values():
        slices.clear()
    coupled_step(*state, op32, no_force,
                 FluidStepConfig(dt=1e-3, cutoff_R=0.01))
    assert len(inverse) + len(forward_) <= 18
    assert sum(inverse) <= 177                     # 195
    assert sum(forward_) <= 396


@pytest.mark.parametrize("cutoff_r, budget", [(None, (12, 39)),
                                              (0.01, (15, 57))])
def test_fluid_step_transform_budget(cutoff_r, budget, grid32, basis32,
                                     params, monkeypatch):
    # per SSP-RK3 stage one inverse call of the 12 fluid factors (the first
    # is passed in and serves the CFL check too; the step makes the new
    # state's) and one of D(r), forward D(r) and the 11
    # products; phi_R adds the three second derivatives of u.  Before the
    # batch was required: 14 calls and 42 inverse slices, 17 and 78 with
    # phi_R
    fl = perturbed_state(grid32, basis32, params).fluid
    values = fluid_batch(fl, None, params)
    calls = counted_transforms(monkeypatch)
    step(fl, values, no_stress(grid32), no_force, params,
         FluidStepConfig(dt=1e-3, cutoff_R=cutoff_r))
    inverse, forward_ = calls["irfft2"], calls["rfft2"]
    assert len(inverse) + len(forward_) <= budget[0]
    assert sum(inverse) <= budget[1]


def test_fluid_trajectory_carries_each_batch(grid32, basis32, params,
                                            monkeypatch):
    # each fluid.step returns its state's batch, which serves that state's
    # positivity check and the next step's CFL check and first stage: one
    # batch of the first state, then 12 calls per step.  53 calls when the
    # check transformed r once more per state
    fl = perturbed_state(grid32, basis32, params).fluid
    calls = counted_transforms(monkeypatch)
    fluid_trajectory(fl, no_stress(grid32), no_force, params,
                     FluidStepConfig(dt=1e-3), 4)
    assert len(calls["irfft2"]) + len(calls["rfft2"]) <= 49


def test_a_step_wraps_only_the_state_it_returns(grid16, basis16, params,
                                                fluid_cfg, monkeypatch):
    # every stage kernel takes and returns arrays: a step builds one
    # FluidState, and it is the state it returns.  Before, every stage
    # wrapped its arrays (4 FluidStates and 44 fields per coupled_step at
    # n = 16)
    made = []

    def counted(self, *args, real=FluidState.__init__):
        made.append(self)
        real(self, *args)
    monkeypatch.setattr(FluidState, "__init__", counted)
    state = perturbed_state(grid16, basis16, params)
    stress = stress_field(state.psi)
    op = FokkerPlanckSolver(basis16, params, grid16, 16)
    values = grid_values(state, params)
    for advance in (lambda: coupled_step(state, values, op, no_force,
                                         fluid_cfg)[0].fluid,
                    lambda: step(state.fluid, values[:fluid.N_FACTORS],
                                 constant(stress), no_force, params,
                                 fluid_cfg)[0]):
        made.clear()
        new = advance()
        assert len(made) == 1 and made[0] is new
    dr, du = fluid_rhs(grid16, state.fluid.u, None, params, fluid_cfg,
                       fluid_batch(state.fluid, stress, params))
    assert type(dr) is np.ndarray and type(du) is np.ndarray


def test_record_state_transform_budget(monkeypatch):
    # r, u, grad u, the psi coefficient fields and the u, d1 u, d2 u rows
    # of the W^{2,inf} stack are the carried batch: one call of the three
    # second derivatives of u and div T (2 slices each) is left
    ctx = RunContext(parse_config_text("scenario = shear_perturbation\n"))
    op = FokkerPlanckSolver(ctx.basis, ctx.params, ctx.grid, ctx.chi_index)
    start = ctx.initial_state()
    state = coupled_step(start, grid_values(start, ctx.params), op,
                         ctx.force, ctx.fluid_cfg)
    calls = counted_transforms(monkeypatch)
    record_state(*state, ctx)
    inverse, forward_ = calls["irfft2"], calls["rfft2"]
    assert len(inverse) + len(forward_) <= 2       # 6 before carrying
    assert sum(inverse) <= 8                       # 61


def test_record_state_measures_each_quantity_once(monkeypatch):
    # with phi_R configured, the cut-off reads the |u|_{W^{2,inf}} that
    # blowup_indicator forms (2 calls of 20 inverse slices before), and the
    # stress of psi is formed once (twice before)
    ctx = RunContext(parse_config_text("scenario = shear_perturbation\n"
                                       "fluid.cutoff_r = 0.01\n"))
    op = FokkerPlanckSolver(ctx.basis, ctx.params, ctx.grid, ctx.chi_index)
    start = ctx.initial_state()
    state = coupled_step(start, grid_values(start, ctx.params), op,
                         ctx.force, ctx.fluid_cfg)
    stresses = []

    def counted_stress(psi):
        stresses.append(psi)
        return stress_field(psi)

    monkeypatch.setattr(runner, "stress_field", counted_stress)
    monkeypatch.setattr(coupling, "stress_field", counted_stress)
    calls = counted_transforms(monkeypatch)
    rec = record_state(*state, ctx)
    inverse, forward_ = calls["irfft2"], calls["rfft2"]
    assert len(inverse) + len(forward_) <= 1
    assert sum(inverse) <= 8
    assert len(stresses) == 1
    assert rec.cutoff_active == 1


def fresh_copy(state):
    """A CoupledState around copies of the coefficients of state."""
    fl = FluidState(state.fluid.grid, state.fluid.r.copy(),
                    state.fluid.u.copy(), state.time)
    psi = state.psi
    return CoupledState(fl, PolymerField(psi.grid, psi.basis,
                                         psi.coeffs.copy(), psi.time))


def assert_same_state(a, b):
    for x, y in ((a.fluid.r, b.fluid.r), (a.fluid.u, b.fluid.u),
                 (a.psi.coeffs, b.psi.coeffs)):
        assert np.array_equal(x, y)
    assert a.time == b.time


@pytest.mark.parametrize("n", [16, 32])
def test_carried_values_change_no_bit(n, request, params):
    # the batch each step returns is a fresh batch of the state it returns,
    # so the steps and records that read it are those of a fresh batch
    grid, basis = (request.getfixturevalue(f"{name}{n}")
                   for name in ("grid", "basis"))
    state = random_coupled_state(grid, basis, params, seed=n)
    force = fluid.forcing_of_time("steady_field", 0.1, (1, 0), grid)
    op = FokkerPlanckSolver(basis, params, grid, n)
    stepped, carried = coupled_step(state, grid_values(state, params), op,
                                    force, FluidStepConfig(dt=1e-4))
    y = sup_norm_w2inf(grid, stepped.fluid.u)
    cfg = FluidStepConfig(dt=1e-4, cutoff_R=y - 0.4)
    assert 0.0 < phi_r(y, cfg.cutoff_R) < 1.0
    for _, st, values in coupled_trajectory(stepped, op, force, cfg,
                                            range(3)):
        assert np.array_equal(values, to_values(np.concatenate(
            [rhs_factors(grid, st.fluid.r, st.fluid.u, stress_field(st.psi),
                         params),
             st.psi.coeffs]), grid.n_points))
    # the fluid half's batch is taken under the stress at the new time
    stress = stress_field(stepped.psi)

    def ramp(t):
        return (1.0 + t) * stress

    fl, values = stepped.fluid, fluid_batch(stepped.fluid,
                                            ramp(stepped.time), params)
    for _ in range(2):
        fl, values = step(fl, values, ramp, force, params, cfg)
        assert np.array_equal(values, fluid_batch(fl, ramp(fl.time), params))

    fresh = fresh_copy(stepped)
    assert_same_state(coupled_step(stepped, carried, op, force, cfg)[0],
                      coupled_step(fresh, grid_values(fresh, params), op,
                                   force, cfg)[0])
    ctx = SimpleNamespace(params=params, grid=grid, force=force,
                          fluid_cfg=cfg)
    row = record_state(stepped, carried, ctx).row()
    assert row[9] == 1   # cutoff_active
    assert row == record_state(fresh, grid_values(fresh, params), ctx).row()


def test_step_guards_keep_their_errors(grid32, basis32, params, op32,
                                       fluid_cfg, monkeypatch):
    start = perturbed_state(grid32, basis32, params)
    stepped, values = coupled_step(start, grid_values(start, params), op32,
                                   no_force, fluid_cfg)
    # a too-large dt is refused before any stage, from the carried values
    stages = []
    real_rhs = coupling.fluid_rhs

    def counted_rhs(*args):
        stages.append(args)
        return real_rhs(*args)

    with monkeypatch.context() as patch:
        patch.setattr(coupling, "fluid_rhs", counted_rhs)
        with pytest.raises(StabilityViolation, match="exceeds CFL bound"):
            coupled_step(stepped, values, op32, no_force,
                         FluidStepConfig(dt=0.05))
    assert stages == []

    # an r that is not positive after step k fails at step k, in the loop
    # that keeps the states: the step checks nothing of the state it makes
    def negated_r(y, rhs, t, dt):
        r, u, c = y
        return -r, u, c

    with monkeypatch.context() as patch:
        patch.setattr(coupling, "ssprk3", negated_r)
        assert to_values(coupled_step(stepped, values, op32, no_force,
                                      fluid_cfg)[0].fluid.r, 32).max() < 0
        with pytest.raises(PositivityLoss,
                           match=r"^min r = -.* on the grid at step 4$"):
            for _ in coupled_trajectory(stepped, op32, no_force, fluid_cfg,
                                        range(3, 6)):
                pass


def test_errors_raised_in_a_step_name_the_step(grid16, basis16,
                                               monkeypatch):
    # strong compression of a thin density past the CFL bound (a safety
    # factor of 1e6): the state at step 2 is positive, a stage of step 3
    # is not
    monkeypatch.setattr(fluid, "CFL_SAFETY", 1e6)
    p = ModelParams(gamma=3.0)
    x1, _ = grid16.x
    fl = FluidState(grid16, to_modes(np.full((1, 16, 16), 0.01)),
                    to_modes(np.stack([60.0 * np.sin(x1), np.zeros_like(x1)])))
    state = CoupledState(fl, PolymerField.equilibrium(grid16, basis16))
    op = FokkerPlanckSolver(basis16, p, grid16, 16)
    with pytest.raises(PositivityLoss, match=r"^min r = -.* on the grid in "
                       r"a stage, where D\(r\) is undefined at step 3$"):
        for _ in coupled_trajectory(state, op, no_force,
                                    FluidStepConfig(dt=0.05),
                                    range(2, 5)):
            pass
    with pytest.raises(StabilityViolation, match=r"stability interval in "
                       r"the fp half at step 1$"):
        fp_trajectory(state.psi, constant(fl.u), op, 10.0, 2)
