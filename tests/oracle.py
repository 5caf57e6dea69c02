"""Pointwise forms of the model and the stress that the tests check the
program against.

A run uses the Warner potential, its spring force, the Maxwellian, the
pressure law and Newton's law only through their consequences: the
Maxwellian at the quadrature nodes, ConfigBasis.stress_vectors and
1/rho(r).  The references below state them directly, one point or one
node set at a time, and stay independent of the production paths they
check: kramers_stress forms its own integrand from the quadrature, never
from stress_vectors, and weak_drift forms the Fokker-Planck drift from
the basis node values, never from drift_matrices.
"""

import numpy as np

from fene.configspace import ConfigBasis, ConfigQuadrature
from fene.model import ModelParams, maxwellian_normalizer, r_to_density


def potential_u(s, p: ModelParams):
    """Warner spring potential U(s) = -(b/2) log(1 - 2s/b) on [0, b/2)."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or np.any(s >= p.b / 2):
        raise ValueError("potential argument must satisfy 0 <= s < b/2")
    out = -(p.b / 2.0) * np.log1p(-2.0 * s / p.b)
    return out if out.ndim else float(out)


def spring_force(q, p: ModelParams):
    """Elastic spring force F(q) = b q / (b - |q|^2) for |q|^2 < b.

    Accepts a single point of shape (2,) or an array of points whose
    leading axis has length 2.
    """
    q = np.asarray(q, dtype=float)
    qsq = np.sum(q * q, axis=0)
    if np.any(qsq >= p.b):
        raise ValueError("spring force undefined for |q|^2 >= b")
    return p.b * q / (p.b - qsq)


def maxwellian(q, p: ModelParams):
    """Normalized equilibrium density M(q) = (1 - |q|^2/b)^(b/2) / Z."""
    q = np.asarray(q, dtype=float)
    qsq = np.sum(q * q, axis=0)
    if np.any(qsq >= p.b):
        raise ValueError("Maxwellian evaluated outside B(0, sqrt(b))")
    out = (1.0 - qsq / p.b) ** (p.b / 2.0) / maxwellian_normalizer(p.b)
    return out if np.ndim(out) else float(out)


def pressure(rho, p: ModelParams):
    """Adiabatic pressure a * rho^gamma."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("pressure requires rho >= 0")
    out = p.a * rho ** p.gamma
    return out if out.ndim else float(out)


def d_coefficient(r, p: ModelParams):
    """D(r) = 1 / rho(r), the inverse density in transformed variables."""
    return 1.0 / r_to_density(r, p)


def viscous_stress(grad_u, p: ModelParams):
    """Newton's rheological law.

    S = mu_s (G + G^T - (2/d) tr(G) I) + mu_b tr(G) I in d = 2 dimensions,
    for the velocity gradient G with G[i, j] = du_i/dx_j.  The result is
    symmetric with trace 2 mu_b div(u).
    """
    g = np.asarray(grad_u, dtype=float)
    if g.shape[:2] != (2, 2):
        raise ValueError("grad_u must be a 2x2 tensor (leading axes)")
    div = g[0, 0] + g[1, 1]
    eye = np.zeros_like(g)
    eye[0, 0] = 1.0
    eye[1, 1] = 1.0
    gt = np.swapaxes(g, 0, 1)
    return p.mu_s * (g + gt - div * eye) + p.mu_b * div * eye


def integrate(quad: ConfigQuadrature, values):
    """Plain integral over B of node values of shape (n_radial, n_angular)."""
    return float(np.sum(quad.weights * values))


def project_pi_qn(phi_values, basis: ConfigBasis):
    """Coefficients of the M-weighted orthogonal projection of node values
    onto the basis span."""
    values = np.asarray(phi_values, dtype=float)
    w = basis.quad.weights * basis.quad.maxwellian
    return np.einsum("kl,ikl->i", w * values, basis.values)


def kramers_stress(values, quad: ConfigQuadrature):
    """Elastic stress int_B psi F(q) x q dq of psi = M phi, from the node
    values of phi.

    The integrand M q_a q_b / (1 - t) is formed from the radial factor
    M / (1 - t), bounded for b > 2, so near-boundary nodes stay tame.
    The result is symmetric because F is parallel to q.
    """
    core = quad.weights * values \
        * (quad.maxwellian_radial / quad.one_minus_t)[:, None]
    t11 = float(np.sum(core * quad.q1 * quad.q1))
    t12 = float(np.sum(core * quad.q1 * quad.q2))
    t22 = float(np.sum(core * quad.q2 * quad.q2))
    return np.array([[t11, t12], [t12, t22]])


def weak_drift(basis: ConfigBasis, grad_u, coeffs):
    """int_B M phi (G q) . grad_q phi_i dq for each basis index i, chi = 1:
    the drift of the weak Fokker-Planck form at psi = M phi, phi =
    sum_j coeffs[j] phi_j, under the constant velocity gradient
    G[a, b] = du_a/dx_b."""
    quad = basis.quad
    g = np.asarray(grad_u, dtype=float)
    flow = (g[0, 0] * quad.q1 + g[0, 1] * quad.q2,
            g[1, 0] * quad.q1 + g[1, 1] * quad.q2)   # G q at the nodes
    phi = np.tensordot(np.asarray(coeffs, dtype=float), basis.values, axes=1)
    density = quad.weights * quad.maxwellian * phi
    return np.array([np.sum(density * (flow[0] * grad[0] + flow[1] * grad[1]))
                     for grad in basis.grads])
