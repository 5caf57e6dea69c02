import numpy as np
import pytest

from fene import torus
from fene.configspace import build_quadrature, eigen_basis
from fene.fluid import fluid_rhs, rhs_factors, velocity_factors
from fene.model import ModelParams
from fene.torus import S_MAX, W2_INDICES, TorusGrid, dealiased_product, \
    derivative_stack, sup_norm_w2inf_values


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
    """Coefficients of a random real field supported on modes
    max(|k|) <= kmax."""
    n = grid.n_points
    raw = rng.standard_normal((components, n, n))
    kmax = grid.dealias_cutoff if kmax is None else kmax
    keep = np.maximum(np.abs(grid.k[0]), np.abs(grid.k[1])) <= kmax
    return torus.to_modes(raw * scale) * keep


def field_product(grid, f, g):
    """The dealiased product of two coefficient arrays on grid."""
    n = grid.n_points
    return dealiased_product(torus.to_values(f, n), torus.to_values(g, n))


def zero_field(grid, components=1):
    """The coefficients of the zero field of the given number of
    components."""
    return np.zeros((components, *grid.spectral_shape), complex)


def derivative(grid, coeffs, alpha):
    """Spectral partial derivative d^alpha for a 2-entry multi-index."""
    a1, a2 = alpha
    if a1 < 0 or a2 < 0 or a1 + a2 > 2 * S_MAX:
        raise ValueError(f"multi-index order must lie in [0, {2 * S_MAX}]")
    return coeffs * (grid.ik[0] ** a1 * grid.ik[1] ** a2)


def gradient(grid, coeffs):
    """Gradient of a scalar field as 2-component coefficients."""
    return grid.ik * coeffs[0]


def divergence(grid, coeffs):
    """Divergence of a 2-component field, as scalar coefficients."""
    return (grid.ik[0] * coeffs[0] + grid.ik[1] * coeffs[1])[None]


def sup_norm_w2inf(grid, coeffs):
    """Grid-sampled W^{2,inf} norm: max_x sum_{|alpha|<=2} |d^alpha u(x)|,
    the six derivatives in one transform."""
    return sup_norm_w2inf_values(torus.to_values(
        derivative_stack(grid, coeffs, W2_INDICES), grid.n_points))


def constant(coeffs):
    """coeffs as the callable of time that fluid.step and
    fokker_planck.fp_step take."""
    return lambda t: coeffs


def no_stress(grid):
    """The zero stress as the callable of time that fluid.step takes."""
    return constant(zero_field(grid, 3))


def no_force(t):
    """The zero forcing as the callable of time that the steps take."""
    return None


def fluid_batch(state, stress, params):
    """The grid batch of fluid.rhs_factors under stress (coefficients, or
    None for zero) that fluid_rhs, cfl_bound and check_cfl read, as a step
    makes it."""
    grid = state.grid
    stress = zero_field(grid, 3) if stress is None else stress
    return torus.to_values(rhs_factors(grid, state.r, state.u, stress,
                                       params), grid.n_points)


def rhs_fields(state, forcing, params, cfg, values):
    """fluid.fluid_rhs at state (forcing coefficients or None): the
    coefficients (dr, du)."""
    return fluid_rhs(state.grid, state.u, forcing, params, cfg, values)


def fp_batch(grid, u, coeffs):
    """The grid values (uv, cg) of fluid.velocity_factors(u) and of coeffs
    that FokkerPlanckSolver.tendency reads, from one transform, as fp_step
    makes them."""
    vel = velocity_factors(grid, u)
    both = torus.to_values(np.concatenate([vel, coeffs]), grid.n_points)
    return both[:len(vel)], both[len(vel):]
