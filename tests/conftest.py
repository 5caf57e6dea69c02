import numpy as np
import pytest

from fene import torus
from fene.configspace import build_quadrature, eigen_basis
from fene.fluid import rhs_factors, velocity_factors
from fene.model import ModelParams
from fene.torus import SpectralField, TorusGrid, dealiased_product


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


def fluid_batch(state, stress, params):
    """The grid batch of fluid.rhs_factors that fluid_rhs, cfl_bound and
    check_cfl read, as a step makes it."""
    return torus.to_values(rhs_factors(state, stress, params),
                           state.r.grid.n_points)


def fp_batch(u, coeffs):
    """The grid values (uv, cg) of fluid.velocity_factors(u) and of coeffs
    that FokkerPlanckSolver.tendency reads, from one transform, as fp_step
    makes them."""
    vel = velocity_factors(u)
    both = torus.to_values(np.concatenate([vel, coeffs]), u.grid.n_points)
    return both[:len(vel)], both[len(vel):]
