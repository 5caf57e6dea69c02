"""Pointwise forms of the model and the stress that the tests check the
program against.

A run uses the Warner potential, its spring force, the Maxwellian, the
pressure law and Newton's law only through their consequences: the
Maxwellian at the quadrature nodes, ConfigBasis.stress_vectors and
1/rho(r).  The references below state them directly, one point or one
node set at a time, and stay independent of the production paths they
check: kramers_stress forms its own integrand from the quadrature, never
from stress_vectors, and weak_drift forms the Fokker-Planck drift from
the basis node values, never from drift_matrices.  linearized_system
builds the coupled equations linearized about a uniform state from these
forms alone, and linear_ssprk3 steps it.
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
    t11 = float(np.sum(core * quad.q[0] * quad.q[0]))
    t12 = float(np.sum(core * quad.q[0] * quad.q[1]))
    t22 = float(np.sum(core * quad.q[1] * quad.q[1]))
    return np.array([[t11, t12], [t12, t22]])


def weak_drift(basis: ConfigBasis, grad_u, coeffs):
    """int_B M phi (G q) . grad_q phi_i dq for each basis index i, chi = 1:
    the drift of the weak Fokker-Planck form at psi = M phi, phi =
    sum_j coeffs[j] phi_j, under the constant velocity gradient
    G[a, b] = du_a/dx_b."""
    quad = basis.quad
    g = np.asarray(grad_u, dtype=float)
    flow = (g[0, 0] * quad.q[0] + g[0, 1] * quad.q[1],
            g[1, 0] * quad.q[0] + g[1, 1] * quad.q[1])   # G q at the nodes
    phi = np.tensordot(np.asarray(coeffs, dtype=float), basis.values, axes=1)
    density = quad.weights * quad.maxwellian * phi
    return np.array([np.sum(density * (flow[0] * grad[0] + flow[1] * grad[1]))
                     for grad in basis.grads])


def linearized_system(basis: ConfigBasis, p: ModelParams, r0, k):
    """The coupled system linearized at the wave vector k about the uniform
    state r = r0, u = 0, psi = M sum_j base_j phi_j, with chi = 1.

    Returns (decay, rates): the base decays as base' = -decay base, and the
    coefficient y = (r, u1, u2, c_1 .. c_n) of a perturbation y e^{ik.x}
    obeys y' = rates(base) @ y, to first order in its size:
      r'   = -(gamma - 1)/2 r0 ik.u,
      u'   = -r0 ik r + D(r0) (div S(grad u) + div T),
      c_i' = -ik.u base_i + int_B M phi_base (grad u q) . grad_q phi_i dq
             - (A11 / 4 lambda) lambda_i c_i - eps |k|^2 c_i,
    with grad u = i u k^T, S of viscous_stress, T = sum_j c_j T_j with T_j
    the kramers_stress of phi_j, and the drift of weak_drift."""
    quad, n = basis.quad, basis.n_basis
    k = np.asarray(k, dtype=float)
    ik = 1j * k
    decay = p.a11 / (4.0 * p.lam) * basis.eigenvalues
    d0 = d_coefficient(r0, p)
    unit = np.eye(2)
    # div S(i u k^T) = -S(u k^T) k, for u = e_1, e_2
    visc = np.stack([-viscous_stress(np.outer(e, k), p) @ k for e in unit],
                    axis=1)
    stress = np.stack([kramers_stress(v, quad) @ ik for v in basis.values],
                      axis=1)
    # drift[a][:, j]: the drift of psi = M phi_j under grad u = e_a k^T
    drift = np.stack([np.stack([weak_drift(basis, np.outer(e, k), f)
                                for f in np.eye(n)], axis=1) for e in unit])

    def rates(base):
        out = np.zeros((3 + n, 3 + n), dtype=complex)
        out[0, 1:3] = -0.5 * (p.gamma - 1.0) * r0 * ik
        out[1:3, 0] = -r0 * ik
        out[1:3, 1:3] = d0 * visc
        out[1:3, 3:] = d0 * stress
        out[3:, 1:3] = 1j * (drift @ base).T - np.outer(base, ik)
        out[3:, 3:] = -np.diag(decay + p.epsilon * (k @ k))
        return out
    return decay, rates


def linear_ssprk3(base, y, decay, rates, dt, steps):
    """(base, y) after steps Shu-Osher SSP-RK3 steps of dt of the system
    of linearized_system, base and y advanced together in every stage."""
    n = len(base)
    z = np.concatenate([base, y]).astype(complex)

    def f(z):
        return np.concatenate([-decay * z[:n], rates(z[:n]) @ z[n:]])

    for _ in range(steps):
        z1 = z + dt * f(z)
        z2 = 0.75 * z + 0.25 * (z1 + dt * f(z1))
        z = z / 3.0 + 2.0 / 3.0 * (z2 + dt * f(z2))
    return z[:n], z[n:]
