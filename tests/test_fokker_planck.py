import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import constant, derivative, field_product, fp_batch, \
    random_band_limited, zero_field
from fene.configspace import build_quadrature, eigen_basis, h1m_seminorm
from fene.coupling import coupled_trajectory
from fene.errors import StabilityViolation
from fene.fokker_planck import FokkerPlanckSolver, PolymerField, \
    _candidate_rings, fp_energy, fp_step, nonnegativity_report, polymer_mass
from fene.model import ModelParams
from fene.runner import RunContext, parse_config_text
from fene.torus import SIDE, TorusGrid, to_modes, to_values

GRIDS = {n: TorusGrid(n) for n in (16, 32)}


def shear_velocity(grid, amp=0.1, mean=0.05):
    x1, x2 = grid.x
    return to_modes(np.stack([mean + amp * np.sin(x2), amp * np.sin(x1)]))


def perturbed_field(grid, basis, amp=0.01, mode=1):
    x1, x2 = grid.x
    n = grid.n_points
    fields = {0: 1.0 + 0.2 * amp * np.cos(x1) * np.ones((n, n)),
              mode: amp * np.cos(x2) * np.ones((n, n))}
    return PolymerField.from_coefficient_fields(grid, basis, fields)


def test_equilibrium_is_steady(grid32, basis32, params):
    psi = PolymerField.equilibrium(grid32, basis32)
    u0 = zero_field(grid32, 2)
    op = FokkerPlanckSolver(basis32, params, grid32, 32)
    tend = op.tendency(psi.coeffs, *fp_batch(grid32, u0, psi.coeffs))
    assert np.max(np.abs(tend)) < 1e-14
    cur = psi
    for _ in range(5):
        cur = fp_step(cur, constant(u0), op, 1e-3)
        assert np.max(np.abs(cur.coeffs - psi.coeffs)) < 1e-12


def test_pure_relaxation_matches_exponential(grid16, basis16, params):
    u0 = zero_field(grid16, 2)
    mode = 2
    coeffs = np.zeros((basis16.n_basis, *grid16.spectral_shape), dtype=complex)
    coeffs[0, 0, 0] = 1.0
    coeffs[mode, 0, 0] = 0.5
    psi = PolymerField(grid16, basis16, coeffs)
    mu = params.relaxation_rate * basis16.eigenvalues[mode]
    op = FokkerPlanckSolver(basis16, params, grid16, 16)

    # third-order explicit scheme against the scalar ODE solution
    cur = psi
    for _ in range(1000):
        cur = fp_step(cur, constant(u0), op, 1e-3)
    exact = 0.5 * np.exp(-mu)
    assert abs(cur.coeffs[mode, 0, 0].real - exact) < 1e-6


def test_tendency_marginal_identity(grid32, basis32):
    # with the cutoff disabled, integrating the weak form against the
    # constant test function leaves exactly transport plus diffusion
    params = ModelParams(epsilon=0.01)
    op = FokkerPlanckSolver(basis32, params, grid32, None)
    psi = perturbed_field(grid32, basis32, amp=0.05)
    u = shear_velocity(grid32)
    tend = op.tendency(psi.coeffs, *fp_batch(grid32, u, psi.coeffs))

    w = basis32.quad.weights * basis32.quad.maxwellian
    mass_vec = np.einsum("kl,ikl->i", w, basis32.values)
    eta_dot = np.tensordot(mass_vec, to_values(tend, 32), axes=1)

    eta = np.tensordot(mass_vec, psi.coeffs, axes=1)[None]
    flux1 = field_product(grid32, u[:1], eta)
    flux2 = field_product(grid32, u[1:], eta)
    div = derivative(grid32, flux1, (1, 0)) \
        + derivative(grid32, flux2, (0, 1))
    lap = -grid32.ksq * eta
    expect = to_values(-1.0 * div + params.epsilon * lap, 32)[0]
    resid = np.sqrt(np.sum((eta_dot - expect) ** 2) * grid32.cell_area())
    assert resid < 1e-8


def test_relaxation_rate_is_a11_over_4_lambda(grid16, basis16):
    # the FP relaxation prefactor A11 / (4 lambda), and op.diag the rate
    # relaxation_rate * lambda_i + epsilon |k|^2 of every coefficient
    params = ModelParams(a11=3.0, lam=2.0, epsilon=0.1)
    assert params.relaxation_rate == 3.0 / 8.0
    op = FokkerPlanckSolver(basis16, params, grid16)
    want = 0.375 * basis16.eigenvalues[:, None, None] \
        + 0.1 * grid16.ksq[None]
    np.testing.assert_allclose(op.diag, want, rtol=1e-15, atol=0)


def test_polymer_mass_conserved(grid32, basis32, params):
    psi = perturbed_field(grid32, basis32)
    u = shear_velocity(grid32)
    m0 = polymer_mass(psi)
    op = FokkerPlanckSolver(basis32, params, grid32, 32)
    cur = psi
    for _ in range(1000):
        cur = fp_step(cur, constant(u), op, 1e-3)
    assert abs(polymer_mass(cur) - m0) / abs(m0) < 1e-8


def test_epsilon_zero_and_positive_paths(grid32, basis32):
    # the scheme is the same for eps = 0; the diffusion rate vanishes
    psi = perturbed_field(grid32, basis32)
    u = shear_velocity(grid32)
    p0 = ModelParams(epsilon=0.0)
    p1 = ModelParams(epsilon=0.01)
    via_model = fp_step(psi, constant(u),
                        FokkerPlanckSolver(basis32, p1, grid32, 32), 1e-3)
    plain = fp_step(psi, constant(u),
                    FokkerPlanckSolver(basis32, p0, grid32, 32), 1e-3)
    assert not np.array_equal(plain.coeffs, via_model.coeffs)


def test_rk3_stability_guard(grid16, basis16):
    p = ModelParams(lam=1e-3)   # huge relaxation rate
    psi = PolymerField.equilibrium(grid16, basis16)
    u = zero_field(grid16, 2)
    with pytest.raises(StabilityViolation):
        fp_step(psi, constant(u), FokkerPlanckSolver(basis16, p, grid16, 16),
                1e-2)


def test_check_step_refuses_other_grid_or_basis(grid16, grid32, basis16,
                                                 basis32, params):
    op = FokkerPlanckSolver(basis16, params, grid16, 16)
    op.check_step(PolymerField.equilibrium(grid16, basis16), 1e-3)
    u = zero_field(grid32, 2)
    with pytest.raises(ValueError, match="different grids"):
        fp_step(PolymerField.equilibrium(grid32, basis16), constant(u), op,
                1e-3)
    with pytest.raises(ValueError, match="different bases"):
        op.check_step(PolymerField.equilibrium(grid16, basis32), 1e-3)


def test_fp_energy_values(grid32, basis32):
    psi = PolymerField.equilibrium(grid32, basis32)
    l2m, h1m = fp_energy(psi, 0)
    assert l2m == pytest.approx(SIDE ** 2, rel=1e-13)
    assert h1m < 1e-12
    scaled = PolymerField(grid32, basis32, 3.0 * psi.coeffs)
    l2s, h1s = fp_energy(scaled, 2)
    assert l2s == pytest.approx(9.0 * fp_energy(psi, 2)[0], rel=1e-12)


def test_fp_energy_quadrature_consistency(grid16, basis16):
    # H^1_M part from eigenvalues vs per-point quadrature of the gradients
    rng = np.random.default_rng(0)
    nb = basis16.n_basis
    n = grid16.n_points
    coeffs = np.zeros((nb, *grid16.spectral_shape), dtype=complex)
    for i in range(nb):
        coeffs[i] = to_modes(rng.standard_normal((n, n)))
    psi = PolymerField(grid16, basis16, coeffs)
    _, h1m = fp_energy(psi, 0)
    cg = to_values(psi.coeffs, psi.grid.n_points)
    total = 0.0
    for ix in range(n):
        for iy in range(n):
            grads = basis16.node_grads(cg[:, ix, iy])
            total += h1m_seminorm(grads, basis16.quad) ** 2
    total *= grid16.cell_area()
    assert h1m == pytest.approx(total, rel=1e-8)


def sampled_min(psi):
    """nonnegativity_report of psi from its coefficient grid values."""
    return nonnegativity_report(psi.basis,
                                to_values(psi.coeffs, psi.grid.n_points))


def test_nonnegativity_report(grid32, basis32):
    psi = PolymerField.equilibrium(grid32, basis32)
    assert sampled_min(psi) > 0.0
    coeffs = np.zeros((basis32.n_basis, *grid32.spectral_shape), dtype=complex)
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 0, 0] = -2.0
    assert sampled_min(PolymerField(grid32, basis32, coeffs)) < 0.0


def test_nonnegativity_report_matches_full_sample_matrix(grid32, basis32):
    def full_matrix_report(psi):
        # every (x node, q node) sample at once, scaled by M before the min
        basis = psi.basis
        cg = to_values(psi.coeffs, psi.grid.n_points).reshape(
            basis.n_basis, -1)
        samples = cg.T @ basis.values.reshape(basis.n_basis, -1)
        samples *= basis.quad.maxwellian.reshape(1, -1)
        return float(samples.min())

    rng = np.random.default_rng(7)
    negative = 0
    for amp in (0.0, 1e-3, 0.3, 1.5):
        coeffs = random_band_limited(grid32, rng, components=basis32.n_basis,
                                     kmax=6, scale=amp)
        coeffs[0, 0, 0] = 1.0
        psi = PolymerField(grid32, basis32, coeffs)
        mn = sampled_min(psi)
        assert mn == full_matrix_report(psi)
        assert type(mn) is float
        negative += mn < 0.0
    assert negative >= 2


def full_sample_report(psi):
    """Minimum of every (x node, q node) sample at once."""
    basis = psi.basis
    cg = to_values(psi.coeffs, psi.grid.n_points).reshape(basis.n_basis,
                                                          -1)
    samples = cg.T @ basis.values.reshape(basis.n_basis, -1)
    samples *= basis.quad.maxwellian.reshape(1, -1)
    return float(samples.min())


# (b, n_radial, n_angular, n_basis)
BALLS = [(2.51, 32, 32, 40), (4.0, 32, 32, 40), (10.0, 32, 32, 40),
         (4.0, 8, 8, 10), (4.0, 16, 16, 12), (4.0, 16, 12, 12),
         (4.0, 12, 10, 10)]


@lru_cache(maxsize=None)
def ball_basis(b, n_radial, n_angular, n_basis):
    return eigen_basis(build_quadrature(b, n_radial, n_angular), n_basis)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(BALLS), st.sampled_from([16, 32]),
       st.one_of(st.just(0.0),
                 st.floats(-9.0, math.log10(1.5)).map(lambda e: 10.0 ** e)),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_pruned_report_is_the_full_sample_matrix(ball, n, amp, kmax, seed,
                                                 with_nan):
    basis = ball_basis(*ball)
    grid = GRIDS[n]
    rng = np.random.default_rng(seed)
    coeffs = random_band_limited(grid, rng, components=basis.n_basis,
                                 kmax=kmax, scale=amp)
    coeffs[0, 0, 0] = 1.0
    if with_nan:
        coeffs[rng.integers(basis.n_basis), 1, 1] = np.nan
    psi = PolymerField(grid, basis, coeffs)
    mn = sampled_min(psi)
    full_mn = full_sample_report(psi)
    if with_nan:
        assert math.isnan(mn) and math.isnan(full_mn)
    else:
        assert mn == full_mn


def test_near_equilibrium_psi_samples_at_most_two_rings():
    ctx = RunContext(parse_config_text("scenario = shear_perturbation"))
    state = ctx.initial_state()
    op = FokkerPlanckSolver(ctx.basis, ctx.params, ctx.grid, ctx.chi_index)
    states = [s for _, s, _ in coupled_trajectory(
        state, op, ctx.force, ctx.fluid_cfg, range(5))]
    for st_k in states:
        psi = st_k.psi
        cg = to_values(psi.coeffs, psi.grid.n_points).reshape(
            psi.basis.n_basis, -1)
        rings = _candidate_rings(cg, psi.basis)
        assert rings.shape == (32,)
        assert 1 <= rings.sum() <= 2


def test_nonnegativity_stable_under_x_refinement(grid16, grid32, basis32):
    # x-constant psi: spatial refinement cannot move the sampled minimum
    c16 = np.zeros((basis32.n_basis, *grid16.spectral_shape), dtype=complex)
    c32 = np.zeros((basis32.n_basis, *grid32.spectral_shape), dtype=complex)
    for c in (c16, c32):
        c[0, 0, 0] = 1.0
        c[2, 0, 0] = -0.8
    mn16 = sampled_min(PolymerField(grid16, basis32, c16))
    mn32 = sampled_min(PolymerField(grid32, basis32, c32))
    assert abs(mn16 - mn32) < 1e-8


def test_relaxation_dissipates_without_flow(grid16, basis16, params):
    # L^2_M distance to the projected equilibrium M eta-bar is nonincreasing
    rng = np.random.default_rng(1)
    u0 = zero_field(grid16, 2)
    op = FokkerPlanckSolver(basis16, params, grid16, 16)
    n = grid16.n_points
    for _ in range(20):
        coeffs = np.zeros((basis16.n_basis, *grid16.spectral_shape),
                          dtype=complex)
        for i in range(basis16.n_basis):
            coeffs[i] = to_modes(rng.standard_normal((n, n)) * 0.1)
        psi = PolymerField(grid16, basis16, coeffs)

        def deviation_energy(p):
            dev = p.coeffs.copy()
            dev[0, 0, 0] -= polymer_mass(p) / SIDE ** 2
            return float(np.sum(np.abs(dev) ** 2))

        e = deviation_energy(psi)
        cur = psi
        for _ in range(10):
            cur = fp_step(cur, constant(u0), op, 2e-3)
            e_new = deviation_energy(cur)
            assert e_new <= e + 1e-15
            e = e_new
