"""Property tests of the Galerkin block layout on random band-limited data."""

import os
import struct
import tempfile

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from conftest import fp_batch, random_band_limited
from fene.checkpoint import MAGIC, checkpoint_load, checkpoint_save
from fene.configspace import build_quadrature, eigen_basis
from fene.coupling import CoupledState
from fene.errors import VersionError
from fene.fluid import FluidState
from fene.fokker_planck import FokkerPlanckSolver, PolymerField, \
    polymer_mass
from fene.model import ModelParams
from fene.runner import run
from fene.torus import SIDE, TorusGrid, dealiased_product, sobolev_norm, \
    to_modes, to_values

GRIDS = {n: TorusGrid(n) for n in (8, 16, 32)}
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
FEW = settings(derandomize=True, deadline=None, max_examples=10)


def band_limited(n, seed, kmax, components=1):
    """Coefficients of a random real field on the n-grid with modes
    max(|k|) <= kmax."""
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
    vals = to_values(f, case[0])
    assert vals.shape == (2, case[0], case[0])
    assert np.max(np.abs(to_values(to_modes(vals), case[0]) - vals)) < 1e-12


@PROPERTY
@given(fields)
def test_sobolev_norm_matches_full_spectrum(case):
    n = case[0]
    f = band_limited(*case)
    full = np.fft.fft2(to_values(f, n)[0]) / n ** 2
    k = np.fft.fftfreq(n, 1.0 / n)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    for s in range(4):
        ref = np.sqrt(SIDE ** 2 * np.sum((1.0 + ksq) ** s * np.abs(full) ** 2))
        assert sobolev_norm(GRIDS[n], f, s) == pytest.approx(ref, rel=1e-12)


@PROPERTY
@given(fields)
def test_real_data_hermitian_in_self_mirrored_columns(case):
    n = case[0]
    rng = np.random.default_rng(case[1])
    c = to_modes(rng.standard_normal((n, n)))
    # the block rows k1 = 0 .. K, -K .. -1 mirror like an FFT axis; only
    # the k2 = 0 column is its own mirror image
    mirror = (-np.arange(c.shape[0])) % c.shape[0]
    assert np.max(np.abs(c[mirror, 0] - np.conj(c[:, 0]))) < 1e-15


@PROPERTY
@given(st.sampled_from(sorted(GRIDS)), st.integers(0, 2 ** 32 - 1))
def test_polymer_mass_is_grid_quadrature(basis16, n, seed):
    grid = GRIDS[n]
    rng = np.random.default_rng(seed)
    cvals = {i: rng.standard_normal((n, n)) for i in range(basis16.n_basis)}
    psi = PolymerField.from_coefficient_fields(grid, basis16, cvals)
    quad = basis16.quad
    # psi(x, q) = M(q) sum_i c_i(x) phi_i(q) on the ball and torus nodes
    samples = np.einsum("ixy,ikl->xykl", to_values(psi.coeffs, n),
                        basis16.values) * quad.maxwellian
    direct = grid.cell_area() * np.sum(samples * quad.weights)
    assert polymer_mass(psi) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def random_state(grid, basis, seed):
    r = band_limited(grid.n_points, seed, 4)
    r = to_modes(1.5 + 0.1 * to_values(r, grid.n_points))
    u = band_limited(grid.n_points, seed + 1, 6, components=2)
    rng = np.random.default_rng(seed + 2)
    psi = PolymerField.from_coefficient_fields(
        grid, basis, {i: rng.standard_normal(grid.x[0].shape)
                      for i in range(basis.n_basis)})
    return CoupledState(FluidState(grid, r, u), psi)


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
    k = n // 3
    assert len(blob) == 40 + 16 * (3 + basis16.n_basis) * (2 * k + 1) * (k + 1)
    assert np.array_equal(loaded.psi.coeffs, state.psi.coeffs)
    assert np.array_equal(loaded.fluid.u, state.fluid.u)


def test_version_one_checkpoint_refused(tmp_path):
    # the same header; version 1 held full n x n spectra, version 2 the
    # n x (n/2 + 1) half spectra
    n, nb = 16, 12
    outdir = tmp_path / "resumed"
    cfg_path = tmp_path / "resume.cfg"
    cfg_path.write_text("\n".join([
        "scenario = shear_perturbation", "max_steps = 2",
        "grid.n_points = 16", "ball.n_radial = 16", "ball.n_angular = 16",
        f"ball.n_basis = {nb}", f"output = {outdir}"]))
    for version, columns in ((1, n), (2, n // 2 + 1)):
        header = struct.pack("<4sIIIIIdd", MAGIC, version, n, 16, 16, nb,
                             4.0, 0.0)
        path = tmp_path / f"v{version}.fkp"
        path.write_bytes(header + bytes(16 * (3 + nb) * n * columns))
        with pytest.raises(VersionError) as err:
            checkpoint_load(str(path))
        assert f"version {version}" in str(err.value)
        with open(os.devnull, "w") as devnull:
            assert run(str(cfg_path), resume_from=str(path),
                       stderr=devnull) == 6


def _whole_pairs_basis(quad, n_basis):
    """eigen_basis(quad, n_basis), or n_basis + 1 where n_basis would keep
    a cos branch without its sin partner (which eigen_basis refuses)."""
    try:
        return eigen_basis(quad, n_basis)
    except ValueError as exc:
        assert "sin partner" in str(exc)
        return eigen_basis(quad, n_basis + 1)


@FEW
@given(st.floats(2.5, 20.0, exclude_min=True, exclude_max=True),
       st.integers(8, 16), st.integers(4, 8).map(lambda h: 2 * h),
       st.floats(0.0, 1.0))
def test_eigen_basis_branches_orthogonal(b, n_radial, n_angular, fill):
    # distinct angular branches (m, cos/sin) are orthogonal under the
    # trapezoid rule in theta for every b, ball size and n_basis
    capacity = n_radial * (n_angular - 1)
    basis = _whole_pairs_basis(build_quadrature(b, n_radial, n_angular),
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
    basis = _whole_pairs_basis(build_quadrature(b, n_radial, n_angular),
                               n_basis)
    assert basis.residuals.max() < 1e-8
    assert basis.gram_error() < 1e-8


@FEW
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 16]),
       st.floats(0.0, 0.1))
def test_fp_rhs_conserves_polymer_mass(basis16, seed, chi_index, epsilon):
    grid = GRIDS[16]
    rng = np.random.default_rng(seed)
    psi = PolymerField(grid, basis16, random_band_limited(
        grid, rng, components=basis16.n_basis))
    u = random_band_limited(grid, rng, components=2)
    op = FokkerPlanckSolver(basis16, ModelParams(epsilon=epsilon), grid,
                            chi_index)
    tend = op.tendency(psi.coeffs, *fp_batch(grid, u, psi.coeffs))
    rate = basis16.mass_vector @ tend[:, 0, 0]
    assert abs(rate) < 1e-12 * np.max(np.abs(tend))


def padded(coeffs, n):
    """The half spectrum (..., n, n//2 + 1) of a block, zero elsewhere."""
    k = coeffs.shape[-1] - 1
    rows = np.fft.fftfreq(2 * k + 1, 1.0 / (2 * k + 1)).astype(int) % n
    full = np.zeros((*coeffs.shape[:-2], n, n // 2 + 1), dtype=complex)
    full[..., rows, :k + 1] = coeffs
    return full, rows


def random_block(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@FEW
@given(st.sampled_from([8, 16, 32, 64]),
       st.lists(st.integers(1, 3), max_size=4), st.integers(0, 2 ** 32 - 1))
def test_transforms_match_numpy_fft(n, batch, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((*batch, n, n))
    coeffs = random_block(rng, (*batch, *TorusGrid(n).spectral_shape))
    full, rows = padded(coeffs, n)
    np.testing.assert_allclose(
        to_modes(values),
        np.fft.rfft2(values, norm="forward")[..., rows, :coeffs.shape[-1]],
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(to_values(coeffs, n),
                               np.fft.irfft2(full, norm="forward"),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(st.sampled_from([8, 16, 32, 64]), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_dealiased_product_matches_masked_half_spectrum(n, components, seed):
    # the 2/3 rule as a mask on the full half spectrum: mask both factors,
    # multiply on the grid, mask the product, keep the block
    grid = TorusGrid(n)
    rng = np.random.default_rng(seed)
    f = random_block(rng, (components, *grid.spectral_shape))
    g = random_block(rng, (1, *grid.spectral_shape))
    (ff, rows), (gf, _) = padded(f, n), padded(g, n)
    k = np.fft.fftfreq(n, 1.0 / n)
    mask = np.maximum(np.abs(k)[:, None], np.arange(n // 2 + 1)[None, :]) \
        <= grid.dealias_cutoff
    prod = scipy.fft.irfft2(ff * mask, norm="forward") \
        * scipy.fft.irfft2(gf * mask, norm="forward")
    expect = (scipy.fft.rfft2(prod, norm="forward") * mask)[
        ..., rows, :grid.dealias_cutoff + 1]
    got = dealiased_product(to_values(f, n), to_values(g, n))
    assert np.array_equal(got, expect)
