import numpy as np
import pytest

from conftest import derivative, divergence, field_product, gradient, \
    random_band_limited, sup_norm_w2inf, zero_field
from fene.torus import SIDE, TorusGrid, derivative_stack, grad_u_sup_norm, \
    sobolev_norm, to_modes, to_values


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(7)
    with pytest.raises(ValueError):
        TorusGrid(6)


def test_constant_field_single_mode(grid32):
    f = to_modes(np.full((1, 32, 32), 3.5))
    nonzero = np.abs(f[0]) > 1e-14
    assert nonzero.sum() == 1
    assert nonzero[0, 0]


def test_sine_band_limited(grid32):
    x1, _ = grid32.x
    f = to_modes(np.sin(x1)[None])
    idx = np.argwhere(np.abs(f[0]) > 1e-14)
    assert {(grid32.wavenumbers[i], j) for i, j in idx} == {(1, 0), (-1, 0)}


def test_roundtrip_random(grid32):
    rng = np.random.default_rng(0)
    v = to_values(random_band_limited(grid32, rng), 32)[0]
    f = to_modes(v[None])
    assert np.max(np.abs(to_values(f, 32)[0] - v)) < 1e-12
    # arbitrary data come back as their P_K projection; the oracle is the
    # full complex spectrum with every mode above K zeroed
    v = rng.standard_normal((32, 32))
    k = np.fft.fftfreq(32, 1.0 / 32)
    keep = np.maximum(np.abs(k)[:, None], np.abs(k)[None, :]) \
        <= grid32.dealias_cutoff
    oracle = np.fft.ifft2(np.fft.fft2(v) * keep)
    assert np.max(np.abs(oracle.imag)) < 1e-14
    f = to_modes(v[None])
    assert np.max(np.abs(to_values(f, 32)[0] - oracle.real)) < 1e-12


def test_parseval_100_random_fields(grid32):
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = to_values(random_band_limited(grid32, rng), 32)[0]
        f = to_modes(v[None])
        grid_norm = np.sqrt(np.sum(v ** 2) * grid32.cell_area())
        assert abs(grid_norm - sobolev_norm(grid32, f, 0)) \
            < 1e-12 * max(grid_norm, 1)


def test_hermitian_symmetry_enforced(grid32):
    rng = np.random.default_rng(2)
    f = to_modes(rng.standard_normal((1, 32, 32)))
    c = f[0]
    rows = 2 * grid32.dealias_cutoff + 1
    assert c.shape == (rows, grid32.dealias_cutoff + 1)
    # only the k2 = 0 column holds mirrored pairs
    for _ in range(20):
        i = rng.integers(0, rows)
        assert c[(-i) % rows, 0] == pytest.approx(np.conj(c[i, 0]),
                                                  abs=1e-15)
    assert np.isrealobj(to_values(f, 32))


def test_derivative_exact(grid32):
    x1, x2 = grid32.x
    f = to_modes(np.sin(x1)[None])
    df = derivative(grid32, f, (1, 0))
    assert np.max(np.abs(to_values(df, 32)[0] - np.cos(x1))) < 1e-12
    const = to_modes(np.ones((1, 32, 32)))
    assert np.max(np.abs(derivative(grid32, const, (1, 0)))) == 0.0
    assert np.max(np.abs(derivative(grid32, const, (1, 1)))) == 0.0
    g = to_modes((np.sin(x1) * np.sin(x2))[None])
    mixed = derivative(grid32, g, (1, 1))
    assert np.max(np.abs(to_values(mixed, 32)[0] - np.cos(x1) * np.cos(x2))) \
        < 1e-12


def test_derivative_order_cap(grid32):
    f = to_modes(np.ones((1, 32, 32)))
    with pytest.raises(ValueError):
        derivative(grid32, f, (17, 0))


def test_dealiased_product_identity(grid32):
    rng = np.random.default_rng(4)
    g = random_band_limited(grid32, rng)
    one = to_modes(np.ones((1, 32, 32)))
    prod = field_product(grid32, one, g)
    assert np.max(np.abs(prod - g)) < 1e-14


def test_dealiased_product_closed_form(grid32):
    x1, _ = grid32.x
    f = to_modes(np.sin(x1)[None])
    prod = field_product(grid32, f, f)
    expect = (1.0 - np.cos(2 * x1)) / 2.0
    assert np.max(np.abs(to_values(prod, 32)[0] - expect)) < 1e-12


def test_dealiased_product_refined_grid_oracle(grid32):
    # exact product on a 3x refined grid, then compare retained modes
    rng = np.random.default_rng(5)
    f = random_band_limited(grid32, rng, kmax=10)
    g = random_band_limited(grid32, rng, kmax=10)
    prod = field_product(grid32, f, g)

    fine = TorusGrid(96)
    xf1, xf2 = fine.x

    def full(c, k1, k2):
        """c(k1, k2) of the full spectrum, read from the stored block."""
        n = c.shape[0]
        if k2 < 0:
            return np.conj(c[-k1 % n, -k2])
        return c[k1 % n, k2]

    def resample(field):
        vals = np.zeros((96, 96))
        c = field[0]
        ks = grid32.wavenumbers
        for i, k1 in enumerate(ks):
            for j, k2 in enumerate(ks):
                if abs(full(c, k1, k2)) > 1e-16:
                    vals += np.real(full(c, k1, k2)
                                    * np.exp(1j * (k1 * xf1 + k2 * xf2)))
        return vals

    exact = to_modes((resample(f) * resample(g))[None])
    for i, k1 in enumerate(grid32.wavenumbers):
        for j, k2 in enumerate(grid32.wavenumbers):
            if max(abs(k1), abs(k2)) <= grid32.dealias_cutoff:
                assert abs(full(prod[0], k1, k2)
                           - full(exact[0], k1, k2)) < 1e-10


def test_dealiased_product_commutative_bilinear(grid32):
    rng = np.random.default_rng(6)
    f = random_band_limited(grid32, rng)
    g = random_band_limited(grid32, rng)
    h = random_band_limited(grid32, rng)
    fg = field_product(grid32, f, g)
    gf = field_product(grid32, g, f)
    assert np.max(np.abs(fg - gf)) < 1e-15
    lhs = field_product(grid32, f, g + 2.0 * h)
    rhs = field_product(grid32, f, g) + 2.0 * field_product(grid32, f, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sobolev_norm_values(grid32):
    c = to_modes(np.full((1, 32, 32), -2.0))
    for s in (0, 1, 3):
        assert sobolev_norm(grid32, c, s) == pytest.approx(2.0 * SIDE,
                                                           rel=1e-14)
    x1, _ = grid32.x
    f = to_modes(np.sin(x1)[None])
    assert sobolev_norm(grid32, f, 0) == pytest.approx(
        np.sqrt(2 * np.pi ** 2), rel=1e-13)
    assert sobolev_norm(grid32, f, 1) == pytest.approx(
        np.sqrt(2.0) * np.sqrt(2 * np.pi ** 2), rel=1e-13)


def test_sobolev_norm_monotone_in_s(grid32):
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_band_limited(grid32, rng)
        norms = [sobolev_norm(grid32, f, s) for s in range(5)]
        assert np.all(np.diff(norms) >= 0)


def test_sup_norm_w2inf(grid32):
    zero = zero_field(grid32, 2)
    assert sup_norm_w2inf(grid32, zero) == 0.0
    x1, _ = grid32.x
    u = to_modes(np.stack([np.sin(x1), np.zeros_like(x1)]))
    # sup over the torus of 2|sin| + |cos| is sqrt(5); the grid samples it
    dense = np.linspace(0, 2 * np.pi, 20001)
    oracle = np.max(2 * np.abs(np.sin(dense)) + np.abs(np.cos(dense)))
    val = sup_norm_w2inf(grid32, u)
    assert val <= oracle + 1e-12
    assert val == pytest.approx(oracle, abs=0.02)


def test_sup_norm_constant_shift(grid32):
    x1, _ = grid32.x
    u = to_modes(np.stack([np.sin(x1), np.zeros_like(x1)]))
    base = sup_norm_w2inf(grid32, u)
    shift = to_modes(np.stack([np.full_like(x1, 0.7), np.zeros_like(x1)]))
    assert sup_norm_w2inf(grid32, u + shift) == pytest.approx(base + 0.7,
                                                              abs=1e-12)


def test_gradient_divergence_helpers(grid32):
    x1, x2 = grid32.x
    f = to_modes((np.sin(x1) * np.cos(x2))[None])
    grad = gradient(grid32, f)
    assert np.max(np.abs(to_values(grad, 32)[0] - np.cos(x1) * np.cos(x2))) \
        < 1e-12
    div = divergence(grid32, grad)
    assert np.max(np.abs(to_values(div, 32)[0]
                         + 2 * np.sin(x1) * np.cos(x2))) < 1e-11


@pytest.mark.parametrize("n", [16, 32, 64])
def test_sup_norms_match_one_transform_per_multi_index(n):
    grid = TorusGrid(n)
    rng = np.random.default_rng(n)
    for scale in (1e-3, 0.3, 10.0):
        u = random_band_limited(grid, rng, components=2, scale=scale)
        w2 = np.zeros((n, n))
        for alpha in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            w2 += np.sqrt(np.sum(to_values(derivative(grid, u, alpha), n) ** 2,
                                 axis=0))
        grad = np.zeros((n, n))
        for alpha in ((1, 0), (0, 1)):
            grad += np.sum(np.abs(to_values(derivative(grid, u, alpha), n)),
                           axis=0)
        assert sup_norm_w2inf(grid, u) == float(w2.max())
        grads = to_values(derivative_stack(grid, u, ((1, 0), (0, 1))), n)
        assert grad_u_sup_norm(grads) == float(grad.max())
