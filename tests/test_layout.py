"""Property tests of the half-spectrum layout on random band-limited data."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_band_limited
from fene.checkpoint import MAGIC, checkpoint_load, checkpoint_save
from fene.configspace import build_quadrature, eigen_basis
from fene.coupling import CoupledState
from fene.errors import VersionError
from fene.fluid import FluidState
from fene.fokker_planck import FokkerPlanckSolver, PolymerField, fp_rhs, \
    polymer_mass
from fene.model import ModelParams
from fene.runner import resume
from fene.torus import SIDE, SpectralField, TorusGrid, derivative, \
    divergence, forward, gradient, sobolev_norm, to_modes, to_values

GRIDS = {n: TorusGrid(n) for n in (8, 16, 32)}
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
FEW = settings(derandomize=True, deadline=None, max_examples=10)


def band_limited(n, seed, kmax, components=1):
    """A random real field on the n-grid with modes max(|k|) <= kmax."""
    grid = GRIDS[n]
    return random_band_limited(grid, np.random.default_rng(seed),
                               components=components,
                               kmax=min(kmax, n // 2))


fields = st.tuples(st.sampled_from(sorted(GRIDS)),
                   st.integers(0, 2 ** 32 - 1), st.integers(1, 16))


@PROPERTY
@given(fields)
def test_values_modes_values_roundtrip(case):
    f = band_limited(*case, components=2)
    vals = f.values()
    assert vals.shape == (2, case[0], case[0])
    assert np.max(np.abs(to_values(to_modes(vals)) - vals)) < 1e-12


@PROPERTY
@given(fields)
def test_sobolev_norm_matches_full_spectrum(case):
    n = case[0]
    f = band_limited(*case)
    full = np.fft.fft2(f.values()[0]) / n ** 2
    k = np.fft.fftfreq(n, 1.0 / n)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    for s in range(4):
        ref = np.sqrt(SIDE ** 2 * np.sum((1.0 + ksq) ** s * np.abs(full) ** 2))
        assert sobolev_norm(f, s) == pytest.approx(ref, rel=1e-12)


@PROPERTY
@given(fields)
def test_real_data_hermitian_in_self_mirrored_columns(case):
    n = case[0]
    rng = np.random.default_rng(case[1])
    c = forward(GRIDS[n], rng.standard_normal((n, n))).coeffs[0]
    mirror = (-np.arange(n)) % n
    for j in (0, n // 2):
        assert np.max(np.abs(c[mirror, j] - np.conj(c[:, j]))) < 1e-15


@PROPERTY
@given(st.sampled_from(sorted(GRIDS)), st.integers(0, 3), st.integers(0, 6),
       st.floats(-3.0, 3.0))
def test_odd_derivatives_of_nyquist_modes_vanish(n, half_order, other, amp):
    grid = GRIDS[n]
    odd = 2 * half_order + 1
    h = n // 2
    # pure modes on the k1 = -n/2 row, the k2 = n/2 column and both
    for (i, j), alphas in (((h, 0), [(odd, other)]),
                           ((0, h), [(other, odd)]),
                           ((h, h), [(odd, other), (other, odd)])):
        coeffs = np.zeros(grid.spectral_shape, dtype=complex)
        coeffs[i, j] = amp
        f = SpectralField(grid, coeffs)
        for alpha in alphas:
            assert np.max(np.abs(derivative(f, alpha).coeffs)) == 0.0
        assert np.max(np.abs(gradient(f).coeffs[0 if i else 1])) == 0.0
        vec = SpectralField(grid, np.stack([coeffs if i else 0 * coeffs,
                                            coeffs if j else 0 * coeffs]))
        assert np.max(np.abs(divergence(vec).coeffs)) == 0.0


@PROPERTY
@given(st.sampled_from(sorted(GRIDS)), st.integers(0, 2 ** 32 - 1))
def test_polymer_mass_is_grid_quadrature(basis16, n, seed):
    grid = GRIDS[n]
    rng = np.random.default_rng(seed)
    cvals = {i: rng.standard_normal((n, n)) for i in range(basis16.n_basis)}
    psi = PolymerField.from_coefficient_fields(grid, basis16, cvals)
    quad = basis16.quad
    # psi(x, q) = M(q) sum_i c_i(x) phi_i(q) on the ball and torus nodes
    samples = np.einsum("ixy,ikl->xykl", psi.coefficient_values(),
                        basis16.values) * quad.maxwellian
    direct = grid.cell_area() * np.sum(samples * quad.weights)
    assert polymer_mass(psi) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def random_state(grid, basis, seed):
    r = band_limited(grid.n_points, seed, 4)
    r = forward(grid, 1.5 + 0.1 * r.values())
    u = band_limited(grid.n_points, seed + 1, 6, components=2)
    rng = np.random.default_rng(seed + 2)
    psi = PolymerField.from_coefficient_fields(
        grid, basis, {i: rng.standard_normal(grid.x[0].shape)
                      for i in range(basis.n_basis)})
    return CoupledState(FluidState(r, u), psi)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.sampled_from([8, 16]), st.integers(0, 2 ** 31))
def test_checkpoint_save_load_save_byte_identical(basis16, n, seed):
    grid = GRIDS[n]
    state = random_state(grid, basis16, seed)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, name) for name in ("a", "b"))
        checkpoint_save(state, first)
        loaded = checkpoint_load(first, grid=grid, basis=basis16)
        checkpoint_save(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            blob = fa.read()
            assert blob == fb.read()
    m = n * (n // 2 + 1)
    assert len(blob) == 40 + 16 * (3 + basis16.n_basis) * m
    assert np.array_equal(loaded.psi.coeffs, state.psi.coeffs)
    assert np.array_equal(loaded.fluid.u.coeffs, state.fluid.u.coeffs)


def test_version_one_checkpoint_refused(tmp_path):
    # a version-1 file: the same header, full n x n spectra
    n, nb = 16, 12
    header = struct.pack("<4sIIIIIdd", MAGIC, 1, n, 16, 16, nb, 4.0, 0.0)
    path = tmp_path / "old.fkp"
    path.write_bytes(header + bytes(16 * (3 + nb) * n * n))
    with pytest.raises(VersionError) as err:
        checkpoint_load(str(path))
    assert "version 1" in str(err.value)

    outdir = tmp_path / "resumed"
    cfg_path = tmp_path / "resume.cfg"
    cfg_path.write_text("\n".join([
        "scenario = shear_perturbation", "max_steps = 2",
        "grid.n_points = 16", "ball.n_radial = 16", "ball.n_angular = 16",
        f"ball.n_basis = {nb}", f"output = {outdir}"]))
    with open(os.devnull, "w") as devnull:
        assert resume(str(path), str(cfg_path), stderr=devnull) == 6


@FEW
@given(st.floats(2.5, 20.0, exclude_min=True, exclude_max=True),
       st.integers(8, 16), st.integers(4, 8).map(lambda h: 2 * h),
       st.floats(0.0, 1.0))
def test_eigen_basis_branches_orthogonal(b, n_radial, n_angular, fill):
    # distinct angular branches (m, cos/sin) are orthogonal under the
    # trapezoid rule in theta for every b, ball size and n_basis
    capacity = n_radial * (n_angular - 1)
    basis = eigen_basis(build_quadrature(b, n_radial, n_angular),
                        1 + int(fill * (capacity - 1)))
    assert basis.residuals.max() < 1e-8
    branch = [(m, kind) for m, kind, _ in basis.labels]
    cross = np.array([[x != y for y in branch] for x in branch])
    assert np.max(np.abs(basis.gram_matrix()[cross]), initial=0.0) < 1e-8


@FEW
@given(st.floats(4.0, 20.0, exclude_max=True), st.integers(32, 40),
       st.integers(4, 16).map(lambda h: 2 * h), st.integers(1, 40))
def test_eigen_basis_m_orthonormal(b, n_radial, n_angular, n_basis):
    # within a branch the radial Gauss rule integrates M = (1 - t)^(b/2)
    # times the profiles only approximately; from b = 4 and 32 radial nodes
    # the 40 lowest modes are resolved to the tolerance
    basis = eigen_basis(build_quadrature(b, n_radial, n_angular), n_basis)
    assert basis.residuals.max() < 1e-8
    assert basis.gram_error() < 1e-8


@FEW
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 16]),
       st.floats(0.0, 0.1))
def test_fp_rhs_conserves_polymer_mass(basis16, seed, chi_index, epsilon):
    grid = GRIDS[16]
    rng = np.random.default_rng(seed)
    psi = PolymerField(grid, basis16, random_band_limited(
        grid, rng, components=basis16.n_basis).coeffs)
    u = random_band_limited(grid, rng, components=2)
    op = FokkerPlanckSolver(basis16, ModelParams(epsilon=epsilon), chi_index)
    tend = fp_rhs(psi, u, op).coeffs
    rate = basis16.mass_vector @ tend[:, 0, 0]
    assert abs(rate) < 1e-12 * np.max(np.abs(tend))


@FEW
@given(st.sampled_from([8, 16, 32, 64]),
       st.lists(st.integers(1, 3), max_size=4), st.integers(0, 2 ** 32 - 1))
def test_transforms_match_numpy_fft(n, batch, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((*batch, n, n))
    coeffs = rng.standard_normal((*batch, n, n // 2 + 1)) \
        + 1j * rng.standard_normal((*batch, n, n // 2 + 1))
    np.testing.assert_allclose(to_modes(values),
                               np.fft.rfft2(values, norm="forward"),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(to_values(coeffs),
                               np.fft.irfft2(coeffs, norm="forward"),
                               rtol=0, atol=1e-12)
