import numpy as np
import pytest

from fene import torus
from fene.configspace import build_quadrature, eigen_basis
from fene.fluid import fluid_rhs, rhs_factors, velocity_factors
from fene.model import ModelParams
from fene.torus import S_MAX, W2_INDICES, SpectralField, TorusGrid, \
    dealiased_product, derivative_stack, sup_norm_w2inf_values


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(32)


@pytest.fixture(scope="session")
def grid16():
    return TorusGrid(16)


@pytest.fixture(scope="session")
def quad32():
    return build_quadrature(4.0, 32, 32)


@pytest.fixture(scope="session")
def basis32(quad32):
    return eigen_basis(quad32, 40)


@pytest.fixture(scope="session")
def quad16():
    return build_quadrature(4.0, 16, 16)


@pytest.fixture(scope="session")
def basis16(quad16):
    return eigen_basis(quad16, 12)


def random_band_limited(grid, rng, components=1, kmax=None, scale=1.0):
    """Random real field supported on modes max(|k|) <= kmax."""
    n = grid.n_points
    raw = rng.standard_normal((components, n, n))
    f = SpectralField.from_values(grid, raw * scale)
    kmax = grid.dealias_cutoff if kmax is None else kmax
    keep = np.maximum(np.abs(grid.k1), np.abs(grid.k2)) <= kmax
    return SpectralField(grid, f.coeffs * keep)


def field_product(f, g):
    """The dealiased product of two SpectralFields, as a SpectralField."""
    return SpectralField(f.grid, dealiased_product(f.values(), g.values()))


def zero_field(grid, components=1):
    """The zero field of the given number of components."""
    return SpectralField(grid, np.zeros((components, *grid.spectral_shape),
                                        complex))


def component(field, i):
    """Component i of a field, as a scalar field."""
    return SpectralField(field.grid, field.coeffs[i][None])


def derivative(field, alpha):
    """Spectral partial derivative d^alpha for a 2-entry multi-index."""
    a1, a2 = alpha
    if a1 < 0 or a2 < 0 or a1 + a2 > 2 * S_MAX:
        raise ValueError(f"multi-index order must lie in [0, {2 * S_MAX}]")
    g = field.grid
    return SpectralField(g, field.coeffs * (g.ik1 ** a1 * g.ik2 ** a2))


def gradient(field):
    """Gradient of a scalar field as a 2-component field."""
    g = field.grid
    return SpectralField(g, np.stack([g.ik1, g.ik2]) * field.coeffs[0])


def divergence(field):
    """Divergence of a 2-component field."""
    g = field.grid
    return SpectralField(g, g.ik1 * field.coeffs[0] + g.ik2 * field.coeffs[1])


def sup_norm_w2inf(field):
    """Grid-sampled W^{2,inf} norm: max_x sum_{|alpha|<=2} |d^alpha u(x)|,
    the six derivatives in one transform."""
    return sup_norm_w2inf_values(torus.to_values(
        derivative_stack(field.grid, field.coeffs, W2_INDICES),
        field.grid.n_points))


def constant(field):
    """field as the callable of time that fluid.step and
    fokker_planck.fp_step take."""
    return lambda t: field.coeffs


def no_stress(grid):
    """The zero stress as the callable of time that fluid.step takes."""
    return constant(zero_field(grid, 3))


def no_force(t):
    """The zero forcing as the callable of time that the steps take."""
    return None


def fluid_batch(state, stress, params):
    """The grid batch of fluid.rhs_factors under stress (a field, or None
    for zero) that fluid_rhs, cfl_bound and check_cfl read, as a step makes
    it."""
    grid = state.r.grid
    stress = zero_field(grid, 3) if stress is None else stress
    return torus.to_values(rhs_factors(grid, state.r.coeffs, state.u.coeffs,
                                       stress.coeffs, params),
                           grid.n_points)


def rhs_fields(state, forcing, params, cfg, values):
    """fluid.fluid_rhs at state (forcing coefficients or None) as a pair of
    fields."""
    grid = state.r.grid
    dr, du = fluid_rhs(grid, state.u.coeffs, forcing, params, cfg, values)
    return SpectralField(grid, dr), SpectralField(grid, du)


def fp_batch(u, coeffs):
    """The grid values (uv, cg) of fluid.velocity_factors(u) and of coeffs
    that FokkerPlanckSolver.tendency reads, from one transform, as fp_step
    makes them."""
    vel = velocity_factors(u.grid, u.coeffs)
    both = torus.to_values(np.concatenate([vel, coeffs]), u.grid.n_points)
    return both[:len(vel)], both[len(vel):]
