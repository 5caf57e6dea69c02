import numpy as np
import pytest

from fene.model import ModelParams, density_to_r, \
    maxwellian_normalizer, r_to_density
from oracle import d_coefficient, maxwellian, potential_u, pressure, \
    spring_force, viscous_stress


def test_params_reject_invalid():
    bad = [dict(a=0.0), dict(gamma=1.0), dict(mu_s=0.0), dict(mu_b=-0.1),
           dict(epsilon=-1e-3), dict(a11=0.0), dict(lam=0.0), dict(b=2.0)]
    for kw in bad:
        with pytest.raises(ValueError):
            ModelParams(**kw)
    # each field must be finite: inf passes every x > 0 rule
    for name in ("a", "gamma", "mu_s", "mu_b", "epsilon", "a11", "lam", "b"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^ModelParams: {name} "
                               "must be finite$"):
                ModelParams(**{name: value})


def test_potential_values(params):
    assert potential_u(0.0, params) == 0.0
    assert potential_u(1.0, params) == pytest.approx(2.0 * np.log(2.0),
                                                     rel=1e-14)
    # divergence approaching b/2
    assert potential_u(params.b / 2 - 1e-8, params) > 10.0


def test_potential_domain(params):
    with pytest.raises(ValueError):
        potential_u(-0.1, params)
    with pytest.raises(ValueError):
        potential_u(params.b / 2, params)


def test_potential_convex_increasing(params):
    s = np.linspace(0.0, params.b / 2 - 1e-3, 1000)
    u = potential_u(s, params)
    du = np.diff(u)
    assert np.all(du > 0)
    assert np.all(np.diff(du) > 0)


def test_spring_force_values(params):
    assert np.allclose(spring_force(np.array([0.0, 0.0]), params), 0.0)
    np.testing.assert_allclose(spring_force(np.array([1.0, 0.0]), params),
                               [4.0 / 3.0, 0.0], rtol=1e-14)
    np.testing.assert_allclose(spring_force(np.array([0.0, -1.0]), params),
                               [0.0, -4.0 / 3.0], rtol=1e-14)


def test_spring_force_odd_and_domain(params):
    rng = np.random.default_rng(0)
    q = rng.uniform(-0.9, 0.9, size=(2, 50))
    np.testing.assert_allclose(spring_force(-q, params),
                               -spring_force(q, params), rtol=1e-14)
    with pytest.raises(ValueError):
        spring_force(np.array([2.0, 0.0]), params)


def test_spring_force_is_potential_gradient(params):
    # central finite differences of U(|q|^2/2), interior margin 0.1
    rng = np.random.default_rng(1)
    h = 1e-5
    radius = np.sqrt(params.b) - 0.1
    pts = rng.uniform(-radius / np.sqrt(2), radius / np.sqrt(2), size=(100, 2))
    for q in pts:
        f = spring_force(q, params)
        for axis in range(2):
            qp, qm = q.copy(), q.copy()
            qp[axis] += h
            qm[axis] -= h
            fd = (potential_u(np.sum(qp ** 2) / 2, params)
                  - potential_u(np.sum(qm ** 2) / 2, params)) / (2 * h)
            assert abs(fd - f[axis]) < 1e-6


def test_maxwellian_center_value(params):
    # Z = 2 pi b / (b + 2) in closed form, so M(0) = 3/(4 pi) at b = 4
    assert maxwellian(np.array([0.0, 0.0]), params) == pytest.approx(
        3.0 / (4.0 * np.pi), rel=1e-14)
    assert maxwellian_normalizer(4.0) == pytest.approx(8 * np.pi / 6.0)


def test_maxwellian_rotation_invariance(params):
    q0 = np.array([0.7, 0.4])
    base = maxwellian(q0, params)
    for k in range(8):
        ang = 2 * np.pi * k / 8
        rot = np.array([[np.cos(ang), -np.sin(ang)],
                        [np.sin(ang), np.cos(ang)]])
        assert maxwellian(rot @ q0, params) == pytest.approx(base, rel=1e-12)


def test_maxwellian_quadrature_normalization(params, quad32):
    total = quad32.integrate_weighted(np.ones((32, 32)))
    assert abs(total - 1.0) < 1e-10


def test_maxwellian_domain(params):
    with pytest.raises(ValueError):
        maxwellian(np.array([2.0, 0.1]), params)


def test_pressure(params):
    assert pressure(1.0, params) == pytest.approx(1.0)
    assert pressure(0.0, params) == 0.0
    assert pressure(2.0, ModelParams(gamma=2.0)) == pytest.approx(4.0)
    rho = np.linspace(0.1, 5.0, 64)
    assert np.all(np.diff(pressure(rho, params)) > 0)
    with pytest.raises(ValueError):
        pressure(-1.0, params)


def test_density_transform_closed_form():
    p = ModelParams(gamma=2.0)
    assert density_to_r(1.0, p) == pytest.approx(2.0, rel=1e-14)
    assert r_to_density(2.0, p) == pytest.approx(1.0, rel=1e-14)


def test_density_transform_roundtrip(params):
    for rho in (0.5, 1.0, 3.0):
        assert r_to_density(density_to_r(rho, params), params) == \
            pytest.approx(rho, rel=1e-14)
    grid = np.logspace(-3, 3, 200)
    back = r_to_density(density_to_r(grid, params), params)
    assert np.max(np.abs(back / grid - 1.0)) < 1e-13


def test_density_transform_domain(params):
    with pytest.raises(ValueError):
        density_to_r(0.0, params)
    with pytest.raises(ValueError):
        r_to_density(-1.0, params)


def test_d_coefficient(params):
    p = ModelParams(gamma=2.0)
    assert d_coefficient(2.0, p) == pytest.approx(1.0, rel=1e-14)
    for r in (0.1, 1.0, 10.0):
        assert d_coefficient(r, params) * r_to_density(r, params) == \
            pytest.approx(1.0, rel=1e-14)
    r = np.linspace(0.5, 5.0, 100)
    assert np.all(np.diff(d_coefficient(r, params)) < 0)
    with pytest.raises(ValueError):
        d_coefficient(0.0, params)


def test_viscous_stress_examples(params):
    zero = viscous_stress(np.zeros((2, 2)), params)
    assert np.all(zero == 0.0)
    p = ModelParams(mu_s=1.0, mu_b=0.0)
    s = viscous_stress(np.array([[0.0, 1.0], [0.0, 0.0]]), p)
    np.testing.assert_allclose(s, [[0.0, 1.0], [1.0, 0.0]])
    p2 = ModelParams(mu_s=1.0, mu_b=1.0)
    s2 = viscous_stress(np.eye(2), p2)
    np.testing.assert_allclose(s2, 2.0 * np.eye(2))


def test_viscous_stress_symmetry_and_trace(params):
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rng.standard_normal((2, 2))
        s = viscous_stress(g, params)
        assert abs(s[0, 1] - s[1, 0]) == 0.0
        trace = s[0, 0] + s[1, 1]
        assert trace == pytest.approx(
            2 * params.mu_b * (g[0, 0] + g[1, 1]), abs=1e-13)
