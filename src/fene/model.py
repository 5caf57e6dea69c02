"""Constitutive relations of the FENE dumbbell / isentropic fluid model.

Everything here is a pure function of its arguments: the Warner spring
potential and force, the equilibrium Maxwellian on the ball B(0, sqrt(b)),
the adiabatic pressure law, Newton's rheological law, and the symmetric
hyperbolic density transform r <-> rho together with the coefficient
D(r) = 1/rho(r) that multiplies the viscous and elastic forces in the
transformed momentum equation.
"""

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the coupled model, each finite.

    a       pressure coefficient (> 0)
    gamma   adiabatic exponent (> 1)
    mu_s    shear viscosity (> 0)
    mu_b    bulk viscosity (>= 0)
    epsilon centre-of-mass diffusion coefficient (>= 0)
    a11     first Rouse matrix entry (> 0)
    lam     Deborah number (> 0)
    b       FENE extensibility parameter (> 2)
    """

    a: float = 1.0
    gamma: float = 1.4
    mu_s: float = 1.0
    mu_b: float = 0.5
    epsilon: float = 0.0
    a11: float = 1.0
    lam: float = 1.0
    b: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"ModelParams: {f.name} must be finite")
        checks = [
            (self.a > 0, "a > 0"),
            (self.gamma > 1, "gamma > 1"),
            (self.mu_s > 0, "mu_s > 0"),
            (self.mu_b >= 0, "mu_b >= 0"),
            (self.epsilon >= 0, "epsilon >= 0"),
            (self.a11 > 0, "a11 > 0"),
            (self.lam > 0, "lam > 0"),
            (self.b > 2, "b > 2"),
        ]
        for ok, rule in checks:
            if not ok:
                raise ValueError(f"ModelParams violates {rule}")

    @property
    def transform_coefficient(self):
        """sqrt(2 a gamma / (gamma - 1)), the prefactor of the r transform."""
        return np.sqrt(2.0 * self.a * self.gamma / (self.gamma - 1.0))

    @property
    def relaxation_rate(self):
        """A11 / (4 lambda), the prefactor of the configuration relaxation."""
        return self.a11 / (4.0 * self.lam)


@dataclass(frozen=True)
class ForcingSpec:
    """External volume force, restricted to trigonometric polynomials.

    kind is one of "zero", "steady_field" or "time_periodic".  The spatial
    profile is amplitude * (sin(m.x), cos(m.x)) with integer wave vector m;
    the time-periodic variant modulates it by cos(t).
    """

    kind: str = "zero"
    amplitude: float = 0.0
    mode: tuple = (1, 0)

    def __post_init__(self):
        if self.kind not in ("zero", "steady_field", "time_periodic"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if len(self.mode) != 2 or any(m != int(m) for m in self.mode):
            raise ValueError("forcing mode must be a pair of integers")
        if not np.isfinite(self.amplitude):
            raise ValueError("forcing amplitude must be finite")

    def values(self, x1, x2, t):
        """Force components on the grid points (x1, x2) at time t."""
        if self.kind == "zero" or self.amplitude == 0.0:
            shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
            return np.zeros((2,) + shape)
        phase = self.mode[0] * x1 + self.mode[1] * x2
        amp = self.amplitude
        if self.kind == "time_periodic":
            amp = amp * np.cos(t)
        return np.stack([amp * np.sin(phase), amp * np.cos(phase)])


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


def maxwellian_normalizer(b):
    """Closed form of int_B (1 - |q|^2/b)^(b/2) dq in two dimensions."""
    return 2.0 * np.pi * b / (b + 2.0)


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


def density_to_r(rho, p: ModelParams):
    """Symmetrizing transform r = sqrt(2 a gamma/(gamma-1)) rho^((gamma-1)/2)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("density transform requires rho > 0")
    out = p.transform_coefficient * rho ** ((p.gamma - 1.0) / 2.0)
    return out if out.ndim else float(out)


def r_to_density(r, p: ModelParams):
    """Inverse of density_to_r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("inverse density transform requires r > 0")
    out = (r / p.transform_coefficient) ** (2.0 / (p.gamma - 1.0))
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
