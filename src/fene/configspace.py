"""Quadrature, weighted norms and the relaxation eigenbasis on B(0, sqrt(b)).

The configuration ball is discretized by a tensor rule: a uniform trapezoid
rule in the angle (spectrally accurate for periodic integrands) and a
Gauss-Legendre rule in the substituted radial variable t = |q|^2 / b on
(0, 1).  The node weights carry the plain area element, and the Maxwellian
is evaluated analytically at the nodes.  With this substitution every
integrand the solver needs - Maxwellian-weighted inner products, H^1_M
forms, and the elastic stress whose integrand carries one inverse power of
(b - |q|^2) - is a smooth function of t; it is a polynomial, and the node
rule exact, only at even b.  b > 2 keeps the stress integrand bounded.

The relaxation operator acts on ratios phi = psi / M through the weak forms

    a(phi, chi) = int_B M grad_q(phi) . grad_q(chi) dq,
    m(phi, chi) = int_B M phi chi dq.

Both decouple over angular Fourier modes.  Per mode m the radial trial
space is spanned by rho^m P_j^{(b/2, m)}(2t - 1) with rho = |q|/sqrt(b),
i.e. Jacobi polynomials orthogonal under exactly the radial weight of
m(.,.), which keeps the mass matrix near diagonal and reproduces the
correct rho^m behaviour at the origin.  Constants are annihilated by
a(.,.) identically, which pins the lowest eigenvalue to zero and encodes
the zero-flux boundary condition naturally (M vanishes on the boundary,
so no essential condition is imposed).

mode_blocks assembles both forms on one Gauss-Jacobi rule in t
(radial_rule), exact for every b > 2, and yields them one mode at a
time.  Every eigenvalue of block m is at least m^2 / b, since a(.,.)
contains m^2 int M phi^2 / (b t) dq and t < 1 at every node, so
eigen_basis solves the blocks in increasing m and stops at the first m
whose bound lies above the n_basis-th eigenvalue found so far.  The
Jacobi tables come from one pass of the three-term recurrence
(jacobi_table), bitwise equal to scipy's eval_jacobi: one pass serves that
rule for every angular mode, and one more the radial nodes of the modes
eigen_basis keeps.

phi at one spatial point is a coefficient vector; ConfigBasis.node_values
and node_grads give the node values of phi and grad_q phi that the norms
and lemma_a1_check take.  chi_of_radius is the one cut-off.  The elastic
stress enters a run only as ConfigBasis.stress_vectors; the pointwise
Kramers stress the tests check it against is in tests/oracle.py, with the
projection onto the basis and the plain integral that only tests use.
"""

import numpy as np
from scipy.linalg import LinAlgError, eigh
from scipy.special import binom, roots_jacobi, roots_legendre

from .errors import EigenSolverError
from .model import maxwellian_normalizer


class ConfigQuadrature:
    """Tensor quadrature on the ball, with plain-measure node weights."""

    def __init__(self, b, n_radial, n_angular):
        if b <= 2:
            raise ValueError("extensibility parameter must satisfy b > 2")
        if n_radial < 4:
            raise ValueError("n_radial must be at least 4")
        if n_angular < 8 or n_angular % 2 != 0:
            raise ValueError("n_angular must be an even integer >= 8")
        self.b = float(b)
        self.n_radial = int(n_radial)
        self.n_angular = int(n_angular)

        xg, wg = roots_legendre(self.n_radial)
        self.t = 0.5 * (xg + 1.0)               # t = |q|^2 / b in (0, 1)
        w_t = 0.5 * wg
        self.rho = np.sqrt(self.t)              # |q| / sqrt(b)
        self.radii = np.sqrt(self.b) * self.rho
        self.angles = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        # int_B g dq = (b/2) int_0^1 int_0^2pi g dtheta dt
        self.weights = ((self.b / 2.0) * w_t)[:, None] * np.full(
            self.n_angular, 2.0 * np.pi / self.n_angular)[None, :]

        self.one_minus_t = 1.0 - self.t
        self.maxwellian_radial = (
            self.one_minus_t ** (self.b / 2.0) / maxwellian_normalizer(self.b))
        self.maxwellian = self.maxwellian_radial[:, None] * np.ones(
            (1, self.n_angular))
        # q[a] at the nodes, shape (2, n_radial, n_angular)
        self.q = self.radii[:, None] * np.stack(
            [np.cos(self.angles), np.sin(self.angles)])[:, None, :]

    def integrate_weighted(self, values):
        """Maxwellian-weighted integral int_B M values dq."""
        return float(np.sum(self.weights * self.maxwellian * values))


def build_quadrature(b, n_radial, n_angular) -> ConfigQuadrature:
    return ConfigQuadrature(b, n_radial, n_angular)


def l2m_norm(values, quad: ConfigQuadrature):
    """Maxwellian-weighted L^2 norm of node values of the ratio phi = psi/M."""
    return float(np.sqrt(quad.integrate_weighted(np.asarray(values) ** 2)))


def h1m_seminorm(grads, quad: ConfigQuadrature):
    """Maxwellian-weighted H^1 seminorm from the node values of grad_q phi,
    shape (2, n_radial, n_angular)."""
    dens = np.sum(np.asarray(grads) ** 2, axis=0)
    return float(np.sqrt(quad.integrate_weighted(dens)))


def jacobi_table(n, alpha, beta, x):
    """P_j^{(alpha, beta)}(x) for j < n, stacked along a new first axis.

    All degrees come out of one pass of the three-term recurrence (Shen,
    Tang & Wang, Spectral Methods, 2011, ch. 3), written as the update of
    scipy's integer-degree eval_jacobi kernel: degree 0 is 1, degree 1 is
    closed form, and degree j >= 2 is binom(j + alpha, j) * p after the
    (d, p) update.  Every row is therefore bitwise equal to scipy's
    eval_jacobi at the same degree, alpha, beta and x, for O(n) rather
    than O(n^2) work per node (that kernel reruns the recurrence for each
    degree).  beta may be an array broadcasting against x
    (one angular mode per node), so one pass serves every mode.  The
    recurrence coefficients of all degrees are formed before the pass, by
    the kernel's elementwise operations in its order.
    """
    beta = np.asarray(beta, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty((n,) + np.broadcast_shapes(beta.shape, x.shape))
    out[:1] = 1.0
    out[1:2] = 0.5 * (2 * (alpha + 1) + (alpha + beta + 2) * (x - 1))
    xm1 = x - 1
    d = (alpha + beta + 2) * xm1 / (2 * (alpha + 1))
    p = d + 1
    # degree j = k + 1 of the update, one coefficient row per degree
    k = np.arange(1.0, n - 1).reshape((-1,) + (1,) * beta.ndim)
    t = 2 * k + alpha + beta
    c_p = t * (t + 1) * (t + 2)
    c_d = 2 * k * (k + beta) * (t + 2)
    den = 2 * (k + alpha + 1) * (k + alpha + beta + 1) * t
    norm = binom(k + 1 + alpha, k + 1)
    for i in range(n - 2):
        d = (c_p[i] * xm1 * p + c_d[i] * d) / den[i]
        p = d + p
        np.multiply(norm[i], p, out=out[i + 2])
    return out


def _jacobi_values(n_modal, alpha, beta, t):
    """P_j^{(alpha, beta)}(2t - 1) for j < n_modal and their t-derivatives.

    t is a 1-D node array; beta is the angular mode m or a column of modes.
    """
    x = 2.0 * t - 1.0
    P = jacobi_table(n_modal, alpha, beta, x)
    dP = np.zeros_like(P)
    dP[1:] = jacobi_table(n_modal - 1, alpha + 1.0, beta + 1.0, x)
    j = np.arange(1.0, n_modal).reshape((-1,) + (1,) * (P.ndim - 1))
    dP[1:] *= j + alpha + beta + 1.0     # in place: no table-sized temporary
    return P, dP


def radial_rule(n, b):
    """n-point Gauss-Jacobi rule in t on (0, 1) for the weight (1 - t)^a,
    a = b/2 - 1, with plain-measure weights (the weight divided out): exact
    for int_0^1 (1 - t)^a p(t) dt whenever deg p <= 2n - 1."""
    a = b / 2.0 - 1.0
    x, w = roots_jacobi(n, a, 0.0)
    t = 0.5 * (x + 1.0)
    return t, w * 2.0 ** -(a + 1.0) / (1.0 - t) ** a


def mode_blocks(b, n_modal, m_max):
    """Yield the (stiffness, mass) block of each angular mode m = 0 ..
    m_max in turn: the symmetric matrices of a(.,.) and m(.,.) on the
    Jacobi trial space of mode m described in the module docstring.

    Each block integrand is (1 - t)^(b/2 - 1) times a polynomial of degree
    <= 2 n_modal - 1 + m_max in t, so one radial_rule of
    n_modal + ceil(m_max / 2) nodes assembles all of them exactly at
    every b > 2; one _jacobi_values pass tabulates that rule for every
    mode.  A block is assembled only when it is asked for.
    """
    alpha = b / 2.0
    t, w = radial_rule(n_modal + (m_max + 1) // 2, b)
    rho = np.sqrt(t)
    meas = (b / 2.0) * w * ((1.0 - t) ** alpha / maxwellian_normalizer(b))
    P_all, dP_all = _jacobi_values(
        n_modal, alpha, np.arange(m_max + 1.0)[:, None], t)
    for m in range(m_max + 1):
        P, dP = P_all[:, m], dP_all[:, m]
        F = rho ** m * P
        dF = (m * np.where(m > 0, rho ** max(m - 1, 0), 0.0) * P
              + 2.0 * rho ** (m + 1) * dP) / np.sqrt(b)
        B = np.einsum("k,ik,jk->ij", meas, F, F)
        A = np.einsum("k,ik,jk->ij", meas, dF, dF)
        if m > 0:
            A += m * m * np.einsum("k,ik,jk->ij", meas / (b * t), F, F)
        yield 0.5 * (A + A.T), 0.5 * (B + B.T)


class ConfigBasis:
    """First n_basis eigenpairs of the relaxation operator, M-orthonormal.

    values[i] holds phi_i at the quadrature nodes, grads[i] its Cartesian
    q-gradient there; labels[i] = (m, kind, k) records the angular mode,
    cos/sin branch and radial index.  residuals[i] is the relative
    generalized eigenresidual of the underlying radial solve; eigen_basis
    computes it only for the kept eigenpairs.
    mass_vector[i] = int_B M phi_i dq and the per-mode Kramers stress
    stress_vectors[:, i] = (T11, T12, T22)(M phi_i) are formed once here.
    """

    __slots__ = ("quad", "n_basis", "eigenvalues", "values", "grads",
                 "labels", "residuals", "mass_vector", "stress_vectors")

    def __init__(self, quad, n_basis, eigenvalues, values, grads, labels,
                 residuals):
        self.quad = quad
        self.n_basis = n_basis
        self.eigenvalues = eigenvalues
        self.values = values
        self.grads = grads
        self.labels = labels
        self.residuals = residuals
        w = quad.weights * quad.maxwellian
        self.mass_vector = np.einsum("kl,ikl->i", w, values)
        core = quad.weights \
            * (quad.maxwellian_radial / quad.one_minus_t)[:, None]
        self.stress_vectors = np.stack([
            np.einsum("kl,ikl->i", core * quad.q[a] * quad.q[b], values)
            for a, b in ((0, 0), (0, 1), (1, 1))])

    def node_values(self, coeffs):
        """phi = sum_i coeffs[i] phi_i at the nodes."""
        return np.tensordot(self._checked(coeffs), self.values, axes=1)

    def node_grads(self, coeffs):
        """grad_q phi at the nodes, shape (2, n_radial, n_angular)."""
        return np.tensordot(self._checked(coeffs), self.grads, axes=1)

    def _checked(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_basis,):
            raise ValueError("coefficient count must equal n_basis")
        return coeffs

    def gram_matrix(self):
        w = self.quad.weights * self.quad.maxwellian
        return np.einsum("kl,ikl,jkl->ij", w, self.values, self.values)

    def gram_error(self):
        g = self.gram_matrix()
        return float(np.max(np.abs(g - np.eye(self.n_basis))))


def eigen_basis(quad: ConfigQuadrature, n_basis) -> ConfigBasis:
    """Solve the decoupled radial eigenproblems and collect the n_basis
    lowest modes (cos/sin branches of m >= 1 counted separately).

    The blocks of mode_blocks are solved in increasing m, and the solves
    stop at the first m whose bound m^2 / b exceeds the n_basis-th smallest
    eigenvalue found so far by a relative margin of 1e-9.  The bound holds
    for the assembled blocks: a(.,.) contains m^2 int M phi^2 / (b t) dq
    with t < 1 at every node, so v^T A v >= (m^2 / b) v^T B v, and no
    eigenvalue of block m or of a later block can be kept; the margin
    covers the solver's rounding.  The (eigenvalue, m, kind, k) keys are
    sorted; the kept ones are grouped by angular mode and radial index,
    and each kept (m, k) is sign-normalized, gets a residual and one radial
    profile on quad's nodes (exact only at even b), written to its cos and
    sin entries, from one _jacobi_values pass over the kept modes.  An
    n_basis that would keep a cos branch without its sin partner is
    refused: such a span is not invariant under rotations of q."""
    if n_basis < 1:
        raise ValueError("n_basis must be at least 1")
    n_modal, m_max = quad.n_radial, quad.n_angular // 2 - 1
    capacity = n_modal * (2 * m_max + 1)
    if n_basis > capacity:
        raise ValueError(
            f"n_basis={n_basis} exceeds assembled dimension {capacity}")

    solved, keys = [], []
    for m, (A, B) in enumerate(mode_blocks(quad.b, n_modal, m_max)):
        if len(keys) >= n_basis \
                and keys[n_basis - 1][0] < (1.0 - 1e-9) * m * m / quad.b:
            break
        try:
            lam, vec = eigh(A, B)
        except LinAlgError as exc:
            raise EigenSolverError("generalized eigensolver failed for "
                                   f"angular mode {m}") from exc
        solved.append((A, B, lam, vec))
        kinds = ("cos",) if m == 0 else ("cos", "sin")
        keys.extend((lam_k, m, kind, k)
                    for k, lam_k in enumerate(lam.tolist()) for kind in kinds)
        keys.sort()
        del keys[n_basis:]
    _, m, kind, k = keys[-1]
    if m > 0 and kind == "cos":
        raise ValueError(f"n_basis={n_basis} keeps ({m}, cos, {k}) without "
                         f"its sin partner; take one mode fewer or more")
    kept = {}            # m -> k -> [(i, kind)], the keys' order kept
    for i, (_, m, kind, k) in enumerate(keys):
        kept.setdefault(m, {}).setdefault(k, []).append((i, kind))
    modes = sorted(kept)
    P, dP = _jacobi_values(n_modal, quad.b / 2.0,
                           np.array(modes, float)[:, None], quad.t)

    nr, na = quad.n_radial, quad.n_angular
    theta, rho, sqrt_b = quad.angles, quad.rho, np.sqrt(quad.b)
    values = np.zeros((n_basis, nr, na))
    grads = np.zeros((n_basis, 2, nr, na))
    eigenvalues = np.array([key[0] for key in keys])
    residuals = np.zeros(n_basis)
    labels = [key[1:] for key in keys]
    e_r = np.stack([np.cos(theta), np.sin(theta)])       # (2, na)
    e_t = np.stack([-np.sin(theta), np.cos(theta)])
    for col, m in enumerate(modes):
        A, B, lam, vec = solved[m]
        scale = np.linalg.norm(A, "fro") + np.linalg.norm(B, "fro")
        rho_m, rho_up = rho ** m, 2.0 * rho ** (m + 1)
        rho_down = m * rho ** (m - 1)        # 0 at m = 0
        # m = 0 has only the cos branch, 1/sqrt(2 pi) and -0 * sin(0) = +0
        cos_m, sin_m = np.cos(m * theta), np.sin(m * theta)
        norm = np.sqrt(2.0 * np.pi if m == 0 else np.pi)
        angular = {"cos": (cos_m / norm, -m * sin_m / norm),
                   "sin": (sin_m / norm, m * cos_m / norm)}
        for k, entries in kept[m].items():
            v = vec[:, k]
            if v[int(np.argmax(np.abs(v)))] < 0:
                v = -v
            res = np.linalg.norm(A @ v - lam[k] * (B @ v)) / scale
            base, dbase = v @ P[:, col], v @ dP[:, col]
            f = rho_m * base
            df = (rho_down * base + rho_up * dbase) / sqrt_b
            f_over_r = f / quad.radii
            for i, kind in entries:
                ang, dang = angular[kind]
                values[i] = f[:, None] * ang[None, :]
                grads[i] = (df[:, None] * ang[None, :]) * e_r[:, None, :] \
                    + (f_over_r[:, None] * dang[None, :]) * e_t[:, None, :]
                residuals[i] = res
    return ConfigBasis(quad, n_basis, eigenvalues, values, grads, labels,
                       residuals)


def check_chi_index(n, b):
    """Refuse a cut-off index n whose plateau sqrt(b) - 2/n is not positive."""
    if n <= 2.0 / np.sqrt(b):
        raise ValueError("cut-off index too small for this b")


def chi_of_radius(radius, n, b):
    """Boundary-layer cutoff chi_n at |q| = radius: 1 inside
    |q| <= sqrt(b) - 2/n, 0 outside |q| >= sqrt(b) - 1/n, C^1 cubic blend
    in between."""
    check_chi_index(n, b)
    inner = np.sqrt(b) - 2.0 / n
    s = np.clip((np.asarray(radius, dtype=float) - inner) * n, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def chi_mass_matrix(basis: ConfigBasis, chi_index=None):
    """C_ij = int_B M chi phi_i phi_j dq (identity when the cutoff is off)."""
    if chi_index is None:
        return np.eye(basis.n_basis)
    quad = basis.quad
    chi = chi_of_radius(quad.radii, chi_index, quad.b)
    w = quad.weights * quad.maxwellian * chi[:, None]
    values = basis.values.reshape(basis.n_basis, -1)
    return (values * w.ravel()) @ values.T


def drift_matrices(basis: ConfigBasis, chi_index=None):
    """G[a, b, i, j] = int_B M chi q_b d_{q_a}(phi_i) phi_j dq.

    Contracted with du_a/dx_b these assemble the configuration drift of the
    Fokker-Planck weak form; built once per (basis, cutoff) pair.
    """
    quad = basis.quad
    chi = chi_of_radius(quad.radii, chi_index, quad.b) \
        if chi_index is not None else np.ones(quad.n_radial)
    w = quad.weights * quad.maxwellian * chi[:, None]
    n = basis.n_basis
    wq = (w * quad.q).reshape(2, 1, -1)  # [b, 0, k]
    grads = basis.grads.reshape(n, 2, 1, -1).transpose(1, 2, 0, 3)  # [a,0,i,k]
    return (grads * wq) @ basis.values.reshape(n, -1).T


def lemma_a1_check(values, grads, quad: ConfigQuadrature):
    """Quadrature values behind the weighted interpolation inequality, from
    the node values of phi and of grad_q phi.

    Returns (lhs, h1_sq, l2_sq) with
      lhs   = (int_B |psi| / (1 - |q|/sqrt(b)) dq)^2,  psi = M phi,
      h1_sq = h1m_seminorm(grads)^2,
      l2_sq = l2m_norm(values)^2.
    The denominator is normalized by the ball radius; empirical constants
    c_delta are ensemble maxima of (lhs - delta h1_sq) / l2_sq.
    """
    layer = quad.maxwellian_radial / (1.0 - quad.rho)
    lhs = float(np.sum(quad.weights * np.abs(values) * layer[:, None])) ** 2
    return lhs, h1m_seminorm(grads, quad) ** 2, l2m_norm(values, quad) ** 2
