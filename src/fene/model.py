"""Parameters and closed forms of the FENE dumbbell / isentropic fluid model.

ModelParams holds the physical constants (the external force is
fluid.forcing_of_time).  The functions are pure: the normalizer of the
equilibrium Maxwellian on the ball B(0, sqrt(b)), and the symmetric
hyperbolic density transform r <-> rho, whose inverse gives the
coefficient D(r) = 1/rho(r) of the viscous and elastic forces in the
transformed momentum equation.

A run uses the Warner spring potential U(s) = -(b/2) log(1 - 2s/b), its
force F(q) = b q / (b - |q|^2), the Maxwellian, the pressure law
a rho^gamma and Newton's rheological law only through their consequences,
so they are not defined here: tests/oracle.py states them pointwise, and
the tests check the program against them.
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


def maxwellian_normalizer(b):
    """Closed form of int_B (1 - |q|^2/b)^(b/2) dq in two dimensions."""
    return 2.0 * np.pi * b / (b + 2.0)


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
