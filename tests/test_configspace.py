import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh
from scipy.special import eval_jacobi, gamma, roots_jacobi

from fene import configspace
from fene.configspace import ConfigBasis, build_quadrature, \
    chi_mass_matrix, chi_of_radius, drift_matrices, eigen_basis, \
    h1m_seminorm, jacobi_table, l2m_norm, lemma_a1_check, mode_blocks
from fene.model import maxwellian_normalizer
from oracle import integrate, kramers_stress, maxwellian, project_pi_qn


def test_quadrature_validation():
    for kwargs in (dict(b=2.0, n_radial=16, n_angular=16),
                   dict(b=4.0, n_radial=2, n_angular=16),
                   dict(b=4.0, n_radial=16, n_angular=9)):
        with pytest.raises(ValueError):
            build_quadrature(**kwargs)


def test_quadrature_geometry(quad32):
    ones = np.ones((32, 32))
    assert abs(integrate(quad32, ones) - np.pi * 4.0) < 1e-10
    assert abs(quad32.integrate_weighted(ones) - 1.0) < 1e-10
    assert abs(quad32.integrate_weighted(quad32.q[0])) < 1e-12
    assert np.all(quad32.weights > 0)
    assert np.all(quad32.radii < 2.0)


def test_quadrature_nodes_match_maxwellian(quad32, params):
    q = quad32.q
    np.testing.assert_allclose(quad32.maxwellian, maxwellian(q, params),
                               rtol=1e-11)


def test_l2m_h1m_basic(quad32, basis32):
    ones = np.ones((32, 32))
    assert l2m_norm(ones, quad32) == pytest.approx(1.0, rel=1e-12)
    zero_grad = np.zeros((2, 32, 32))
    assert h1m_seminorm(zero_grad, quad32) == 0.0


def test_l2m_of_q1_closed_form(quad32):
    # int_B M q1^2 dq = b/(b+4) from the radial Beta integral
    val = l2m_norm(quad32.q[0], quad32)
    assert val == pytest.approx(np.sqrt(4.0 / 8.0), rel=1e-12)
    fine = build_quadrature(4.0, 64, 64)
    assert val == pytest.approx(l2m_norm(fine.q[0], fine), rel=1e-12)


def test_l2m_homogeneity_triangle(quad32, basis32):
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        na = l2m_norm(basis32.node_values(a), quad32)
        assert l2m_norm(basis32.node_values(3.0 * a), quad32) \
            == pytest.approx(3.0 * na, rel=1e-12)
        nsum = l2m_norm(basis32.node_values(a + b), quad32)
        assert nsum <= na + l2m_norm(basis32.node_values(b), quad32) + 1e-12


def test_assemble_operator_structure(quad32):
    stiffness, mass = zip(*mode_blocks(quad32.b, 16, 4))
    for A, B in zip(stiffness, mass):
        assert np.max(np.abs(A - A.T)) < 1e-12
        assert np.max(np.abs(B - B.T)) < 1e-12
        assert np.all(np.linalg.eigvalsh(B) > 0)
    # constants are annihilated: first row/column of the m=0 form vanish
    assert np.max(np.abs(stiffness[0][0, :])) < 1e-14
    lam = eigh(stiffness[0], mass[0], eigvals_only=True)
    assert abs(lam[0]) < 1e-8


def test_eigen_basis_ground_mode(quad32, basis32):
    assert abs(basis32.eigenvalues[0]) < 1e-8
    # phi_0 constant equal to one (psi = M), up to sign convention
    assert np.max(np.abs(basis32.values[0] - 1.0)) < 1e-8
    assert np.all(basis32.eigenvalues >= -1e-12)
    assert basis32.eigenvalues[1] > 1e-3


def test_eigen_basis_residuals_and_gram(basis32):
    assert basis32.residuals.max() < 1e-8
    assert basis32.gram_error() < 1e-8


def test_eigen_basis_refinement_stability(quad32):
    lam32 = eigen_basis(quad32, 8).eigenvalues[:5]
    fine = build_quadrature(4.0, 64, 32)
    lam64 = eigen_basis(fine, 8).eigenvalues[:5]
    rel = np.abs(lam64[1:] - lam32[1:]) / np.abs(lam64[1:])
    assert np.max(rel) < 1e-6
    assert abs(lam64[0] - lam32[0]) < 1e-8


def test_eigen_basis_capacity(quad32):
    with pytest.raises(ValueError):
        eigen_basis(quad32, 10_000)


def test_projection_reproduces_span(quad32, basis32):
    rng = np.random.default_rng(1)
    c = rng.standard_normal(40)
    back = project_pi_qn(basis32.node_values(c), basis32)
    assert np.max(np.abs(back - c)) < 1e-10


def test_projection_bessel_and_idempotent(quad32, basis32):
    rng = np.random.default_rng(2)
    for _ in range(50):
        values = rng.standard_normal((32, 32))
        proj = project_pi_qn(values, basis32)
        assert l2m_norm(basis32.node_values(proj), quad32) \
            <= l2m_norm(values, quad32) + 1e-12
    values = rng.standard_normal((32, 32))
    once = project_pi_qn(values, basis32)
    twice = project_pi_qn(basis32.node_values(once), basis32)
    assert np.max(np.abs(twice - once)) < 1e-12


def test_chi_cutoff_shape():
    b, n = 4.0, 32
    assert chi_of_radius(0.0, n, b) == 1.0
    edge = np.sqrt(b) - 1.0 / (2 * n)
    assert chi_of_radius(edge, n, b) == 0.0
    inner, outer = np.sqrt(b) - 2.0 / n, np.sqrt(b) - 1.0 / n
    for knot in (inner, outer):
        h = 1e-8
        left = chi_of_radius(knot - h, n, b)
        right = chi_of_radius(knot + h, n, b)
        # value continuity at the stated tolerance, C^1: jump is O(h^2)
        assert abs(left - right) < 1e-12
    h = 1e-6
    for knot in (inner, outer):
        jump = chi_of_radius(knot + h, n, b) - chi_of_radius(knot - h, n, b)
        assert abs(jump) < 5 * n ** 2 * h ** 2
    mid = np.linspace(inner, outer, 100)
    vals = chi_of_radius(mid, n, b)
    assert np.all(np.diff(vals) <= 0)
    with pytest.raises(ValueError):
        chi_of_radius(0.0, 0.5, b)


def test_kramers_stress_equilibrium(quad32):
    t = kramers_stress(np.ones((32, 32)), quad32)
    assert np.max(np.abs(t - np.eye(2))) < 1e-8
    assert np.all(kramers_stress(np.zeros((32, 32)), quad32) == 0.0)


def test_kramers_stress_linear_offdiagonal(quad32):
    fine = build_quadrature(4.0, 64, 64)
    vals = []
    for c in (0.5, 1.0, 2.0):
        phi = 1.0 + c * quad32.q[0] * quad32.q[1]
        t = kramers_stress(phi, quad32)
        assert abs(t[0, 1] - t[1, 0]) < 1e-14
        vals.append(t[0, 1])
        phi_f = 1.0 + c * fine.q[0] * fine.q[1]
        tf = kramers_stress(phi_f, fine)
        assert t[0, 1] == pytest.approx(tf[0, 1], rel=1e-10)
    assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)
    assert vals[2] == pytest.approx(4 * vals[0], rel=1e-12)


def test_stress_representation_consistency(quad32, basis32):
    # int_B psi dq by quadrature vs the phi_0 coefficient inner product
    rng = np.random.default_rng(3)
    c = rng.standard_normal(40)
    quad_mass = quad32.integrate_weighted(basis32.node_values(c))
    w = quad32.weights * quad32.maxwellian
    coeff_mass = float(c @ np.einsum("kl,ikl->i", w, basis32.values))
    assert abs(quad_mass - coeff_mass) < 1e-10


def test_drift_and_chi_mass_structure(basis32):
    g_plain = drift_matrices(basis32, None)
    assert np.max(np.abs(g_plain[:, :, 0, :])) < 1e-12
    c_plain = chi_mass_matrix(basis32, None)
    assert np.array_equal(c_plain, np.eye(40))
    c_chi = chi_mass_matrix(basis32, 32)
    assert np.max(np.abs(c_chi - c_chi.T)) < 1e-12
    assert np.max(np.abs(c_chi - np.eye(40))) < 0.05
    g_chi = drift_matrices(basis32, 32)
    assert np.max(np.abs(g_chi[:, :, 0, :])) < 1e-12


@pytest.mark.parametrize("b, n_radial, n_angular, n_basis", [
    (4.0, 32, 32, 40), (6.0, 16, 16, 12), (10.0, 32, 32, 40)])
def test_drift_against_the_ground_mode_is_stress_less_mass(b, n_radial,
                                                           n_angular,
                                                           n_basis):
    # by parts, with phi_0 = 1, chi off, M = 0 on the boundary and
    # d_a M = -M q_a / (1 - t):
    #   int_B M q_b d_a(phi_i) dq
    #     = int_B M q_a q_b / (1 - t) phi_i dq - delta_ab int_B M phi_i dq.
    # Only even b: the node rule in t is exact there and nowhere else
    basis = eigen_basis(build_quadrature(b, n_radial, n_angular), n_basis)
    drift = drift_matrices(basis, None)
    stress = basis.stress_vectors
    tol = 1e-13 * np.max(np.abs(stress))
    for a, c, row in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2)):
        want = stress[row] - (a == c) * basis.mass_vector
        assert np.max(np.abs(drift[a, c, :, 0] - want)) < tol, (a, c)


@pytest.mark.parametrize("n", [39, 41])
def test_node_values_refuse_a_wrong_coefficient_count(basis32, n):
    with pytest.raises(ValueError, match="must equal n_basis"):
        basis32.node_values(np.ones(n))
    with pytest.raises(ValueError, match="must equal n_basis"):
        basis32.node_grads(np.ones(n))


def test_lemma_a1_check(quad32, basis32):
    eq = np.eye(40)[0]
    lhs, h1, l2 = lemma_a1_check(basis32.node_values(eq),
                                 basis32.node_grads(eq), quad32)
    assert np.isfinite(lhs) and lhs > 0
    assert h1 < 1e-12
    assert l2 == pytest.approx(1.0, rel=1e-10)
    # homogeneity: all three squares scale with c^2
    lhs2, _, l22 = lemma_a1_check(basis32.node_values(3.0 * eq),
                                  basis32.node_grads(3.0 * eq), quad32)
    assert lhs2 == pytest.approx(9.0 * lhs, rel=1e-12)
    assert l22 == pytest.approx(9.0 * l2, rel=1e-12)


def test_lemma_a1_ensemble_finite(quad32, basis32):
    rng = np.random.default_rng(4)
    best = -np.inf
    for _ in range(200):
        c = rng.standard_normal(40)
        lhs, h1, l2 = lemma_a1_check(basis32.node_values(c),
                                     basis32.node_grads(c), quad32)
        best = max(best, (lhs - 0.1 * h1) / l2)
    assert np.isfinite(best)
    assert best > 0


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(2.5, 20.0, exclude_min=True, exclude_max=True),
       st.integers(0, 24), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_jacobi_table_matches_scipy_bitwise(b, m, shifted, seed):
    # the (alpha + 1, m + 1) tables are the ones behind the t-derivatives;
    # n = 1, 2, 3 are the edges of the recurrence coefficient arrays
    alpha, beta = b / 2.0 + shifted, m + shifted
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 17)
    betas = np.arange(25.0)
    nodes = np.repeat(x[None, :3], 25, axis=0)
    for n in (1, 2, 3, 48):
        table = jacobi_table(n, alpha, beta, x)
        assert table.shape == (n, 17)
        for j in range(n):
            assert np.array_equal(table[j], eval_jacobi(j, alpha, beta, x))
        # one pass with a per-node beta equals the per-mode tables
        mixed = jacobi_table(n, alpha, betas[:, None], nodes)
        for k in range(25):
            assert np.array_equal(mixed[:, k],
                                  jacobi_table(n, alpha, k, x[:3]))


def _reference_eigen_basis(quad, n_basis):
    """The eigenbasis built the direct way: eval_jacobi once per degree and
    per block, sign and residual for every eigenpair, one profile per kept
    entry."""
    b, alpha = quad.b, quad.b / 2.0
    n_modal, m_max = quad.n_radial, quad.n_angular // 2 - 1

    def jacobi(m, t):
        P = np.stack([eval_jacobi(j, alpha, m, 2.0 * t - 1.0)
                      for j in range(n_modal)])
        dP = np.zeros_like(P)
        for j in range(1, n_modal):
            dP[j] = (j + alpha + m + 1.0) * eval_jacobi(
                j - 1, alpha + 1.0, m + 1.0, 2.0 * t - 1.0)
        return P, dP

    # one Gauss-Jacobi rule in t for all modes, the weight (1 - t)^a
    # divided out of its weights
    a = alpha - 1.0
    xa, wa = roots_jacobi(n_modal + (m_max + 1) // 2, a, 0.0)
    ta = 0.5 * (xa + 1.0)
    rhoa = np.sqrt(ta)
    meas = (b / 2.0) * (wa * 2.0 ** -(a + 1.0) / (1.0 - ta) ** a) \
        * ((1.0 - ta) ** alpha / maxwellian_normalizer(b))
    entries = []
    for m in range(m_max + 1):
        P, dP = jacobi(m, ta)
        F = rhoa ** m * P
        dF = (m * np.where(m > 0, rhoa ** max(m - 1, 0), 0.0) * P
              + 2.0 * rhoa ** (m + 1) * dP) / np.sqrt(b)
        B = np.einsum("k,ik,jk->ij", meas, F, F)
        A = np.einsum("k,ik,jk->ij", meas, dF, dF)
        if m > 0:
            A += m * m * np.einsum("k,ik,jk->ij", meas / (b * ta), F, F)
        A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
        lam, vec = eigh(A, B)
        scale = np.linalg.norm(A, "fro") + np.linalg.norm(B, "fro")
        for k in range(n_modal):
            v = vec[:, k]
            if v[int(np.argmax(np.abs(v)))] < 0:
                v = -v
            res = np.linalg.norm(A @ v - lam[k] * (B @ v)) / scale
            for kind in (("cos",) if m == 0 else ("cos", "sin")):
                entries.append((lam[k], m, kind, k, v, res))
    entries.sort(key=lambda e: e[:4])

    nr, na, theta, rho = quad.n_radial, quad.n_angular, quad.angles, quad.rho
    values = np.zeros((n_basis, nr, na))
    grads = np.zeros((n_basis, 2, nr, na))
    e_r = np.stack([np.cos(theta), np.sin(theta)])
    e_t = np.stack([-np.sin(theta), np.cos(theta)])
    for i, (_, m, kind, k, v, _) in enumerate(entries[:n_basis]):
        P, dP = jacobi(m, quad.t)
        base, dbase = v @ P, v @ dP
        f = rho ** m * base
        if m > 0:
            df = (m * rho ** (m - 1) * base
                  + 2.0 * rho ** (m + 1) * dbase) / np.sqrt(b)
        else:
            df = 2.0 * rho * dbase / np.sqrt(b)
        if m == 0:
            ang, dang = np.full(na, 1.0 / np.sqrt(2.0 * np.pi)), np.zeros(na)
        elif kind == "cos":
            ang = np.cos(m * theta) / np.sqrt(np.pi)
            dang = -m * np.sin(m * theta) / np.sqrt(np.pi)
        else:
            ang = np.sin(m * theta) / np.sqrt(np.pi)
            dang = m * np.cos(m * theta) / np.sqrt(np.pi)
        values[i] = f[:, None] * ang[None, :]
        grads[i] = (df[:, None] * ang[None, :]) * e_r[:, None, :] \
            + ((f / quad.radii)[:, None] * dang[None, :]) * e_t[:, None, :]
    kept = entries[:n_basis]
    return ConfigBasis(quad, n_basis, np.array([e[0] for e in kept]),
                       values, grads, [e[1:4] for e in kept],
                       np.array([e[5] for e in kept]))


@pytest.mark.parametrize("b, n_radial, n_angular, n_basis", [
    (4.0, 32, 32, 40), (4.0, 16, 16, 12), (2.51, 32, 32, 40),
    (10.0, 16, 8, 40), (4.0, 64, 64, 40), (7.3, 8, 8, 10), (4.0, 8, 8, 1),
    (20.0, 16, 16, 30)])
def test_eigen_basis_matches_direct_construction_bitwise(b, n_radial,
                                                         n_angular, n_basis):
    quad = build_quadrature(b, n_radial, n_angular)
    got = eigen_basis(quad, n_basis)
    want = _reference_eigen_basis(quad, n_basis)
    assert got.labels == want.labels
    for name in ("eigenvalues", "residuals", "values", "grads", "mass_vector",
                 "stress_vectors"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), \
            name


@pytest.mark.parametrize("b", [2.51, 4.0, 10.0, 20.0])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_operator_block_eigenvalues_obey_the_angular_bound(b, n):
    # a(.,.) holds m^2 int M phi^2 / (b t) dq with t < 1 at every node, so
    # every eigenvalue of block m is at least m^2 / b: eigen_basis stops
    # its solves on this bound
    stiffness, mass = zip(*mode_blocks(b, n, n // 2 - 1))
    for m, (A, B) in enumerate(zip(stiffness, mass)):
        lam = eigh(A, B, eigvals_only=True)
        assert lam[0] >= m * m / b, m


@pytest.mark.parametrize("b, n_radial, n_angular, n_basis, solves", [
    (4.0, 32, 32, 40, 13), (4.0, 64, 64, 40, 13), (10.0, 16, 8, 40, 4)])
def test_eigen_basis_solves_only_blocks_below_the_bound(
        monkeypatch, b, n_radial, n_angular, n_basis, solves):
    # blocks 13 .. n_angular/2 - 1 of the b = 4 balls cannot hold one of
    # the 40 lowest eigenvalues (the 40th is 42.09 < 13^2 / 4)
    calls = []

    def counting_eigh(A, B):
        calls.append(A.shape)
        return eigh(A, B)

    monkeypatch.setattr(configspace, "eigh", counting_eigh)
    eigen_basis(build_quadrature(b, n_radial, n_angular), n_basis)
    assert calls == [(n_radial, n_radial)] * solves


@pytest.mark.parametrize("n_basis", [39, 41])
def test_eigen_basis_refuses_split_pair(quad32, n_basis):
    # 39 would keep (1, cos, 3) and 41 (6, cos, 1) without the sin partner
    with pytest.raises(ValueError, match="sin partner"):
        eigen_basis(quad32, n_basis)


@pytest.mark.parametrize("b", [2.51, 3.0, 7.3, 10.0])
def test_operator_mass_blocks_match_jacobi_norms(b):
    # mass[m]_ij = (b / 2Z) int_0^1 (1 - t)^(b/2) t^m P_i P_j dt, with
    # P_j = P_j^{(b/2, m)}(2t - 1): delta_ij times the closed-form norm
    _, mass = zip(*mode_blocks(b, 32, 15))
    alpha, j = b / 2.0, np.arange(32)
    for m, B in enumerate(mass):
        norm = (b / (2.0 * maxwellian_normalizer(b))) \
            * gamma(j + alpha + 1) * gamma(j + m + 1) \
            / ((2 * j + alpha + m + 1) * gamma(j + alpha + m + 1)
               * gamma(j + 1))
        scale = np.sqrt(np.outer(norm, norm))
        assert np.max(np.abs(B - np.diag(norm)) / scale) < 1e-12, m
