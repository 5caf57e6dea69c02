"""Weak-in-q Fokker-Planck solver on the relaxation eigenbasis.

The ratio phi = psi / M is expanded over the M-orthonormal eigenbasis of
the configuration operator with x-dependent coefficients kept as Fourier
fields on the torus.  Testing the equation against basis functions gives,
per coefficient field c_i(x, t),

    dc_i/dt = - div_x( u  sum_j C_ij c_j )            (transport)
              + eps Lap_x c_i                          (diffusion)
              + sum_{a,b} du_a/dx_b sum_j G[a,b]_ij c_j  (drift)
              - (A11 / 4 lambda) lambda_i c_i          (relaxation),

where C and G carry the boundary-layer cutoff chi_n inside their
integrands (both reduce to the plain Gram data when the cutoff is
disabled).  FokkerPlanckSolver holds this operator for one (basis, model,
cutoff) on one torus grid, with the diagonal relaxation-plus-diffusion
rate of every coefficient; the scenario drivers build it once per run (a
few milliseconds) and pass it to fp_step and coupling.coupled_step.  Its
tendency is the only place the Fokker-Planck tendency is formed, and both
routes advance psi by the shared fluid.ssprk3 step over it, explicit in
all four terms.  It reads the coefficients and the grid values of u,
d1 u, d2 u and of the coefficients from one inverse transform its step
makes: fp_step its own per stage, from a u given as a callable of time,
coupling.coupled_step the batch it shares with the fluid half.  It brings
its 3 n_basis products back in one forward call.
check_step refuses a psi on another basis or grid, and a step whose
largest diagonal rate leaves the SSP-RK3 stability interval.
Positivity of psi is only monitored - the Galerkin truncation does not
preserve it and clipping would corrupt the energy monitors.
nonnegativity_report returns the minimum of the sampled psi from the grid
values of its coefficients: it bounds the samples of every q column over x
and samples only the radial rings those bounds cannot clear of the minimum;
on whole rings the GEMM rounds as on the full sample matrix, so the minimum
is the full matrix's bit for bit at a fraction of its cost.
The coefficients of psi form an (n_basis, 2K + 1, K + 1) tensor, one torus
field per basis function in the Galerkin block of torus; fp_energy weights
its columns by TorusGrid.sobolev_weight, like torus.sobolev_norm.
"""

import numpy as np

from .configspace import ConfigBasis, chi_mass_matrix, drift_matrices
from .errors import StabilityViolation
from .fluid import ssprk3, velocity_factors
from .model import ModelParams
from .torus import SIDE, TorusGrid, to_modes, to_values


class PolymerField:
    """psi(x, q) as (basis index, torus mode) coefficients of phi = psi/M."""

    __slots__ = ("grid", "basis", "coeffs", "time")

    def __init__(self, grid: TorusGrid, basis: ConfigBasis, coeffs, time=0.0):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (basis.n_basis, *grid.spectral_shape):
            raise ValueError(
                "coefficient tensor must be (n_basis, 2K + 1, K + 1)")
        self.grid = grid
        self.basis = basis
        self.coeffs = coeffs
        self.time = time

    @classmethod
    def equilibrium(cls, grid: TorusGrid, basis: ConfigBasis, time=0.0):
        """psi = M uniformly in x."""
        coeffs = np.zeros((basis.n_basis, *grid.spectral_shape), dtype=complex)
        coeffs[0, 0, 0] = 1.0
        return cls(grid, basis, coeffs, time)

    @classmethod
    def from_coefficient_fields(cls, grid: TorusGrid, basis: ConfigBasis,
                                fields, time=0.0):
        """Build from {basis index: real grid values of c_i(x)}."""
        coeffs = np.zeros((basis.n_basis, *grid.spectral_shape), dtype=complex)
        for i, vals in fields.items():
            coeffs[i] = to_modes(np.asarray(vals, dtype=float))
        return cls(grid, basis, coeffs, time)

    def __sub__(self, other):
        if self.basis is not other.basis:
            raise ValueError("polymer fields use different bases")
        return PolymerField(self.grid, self.basis, self.coeffs - other.coeffs,
                            self.time)


def polymer_mass(psi: PolymerField):
    """int int psi dq dx from coefficients: only the q-constant mode carries
    mass, and the torus mean sits in the k = 0 coefficient."""
    return float(SIDE ** 2 * np.real(psi.coeffs[:, 0, 0]
                                     @ psi.basis.mass_vector))


class FokkerPlanckSolver:
    """The explicit Fokker-Planck operator for one (basis, model, cutoff) on
    one torus grid.

    chi_index=None disables the boundary-layer cutoff (chi = 1); an integer
    ties the cutoff plateau to sqrt(b) - 2/chi_index as in the regularized
    scheme.  params also serves the fluid half of coupled_step.  diag holds
    the relaxation plus diffusion rate of every coefficient.
    """

    def __init__(self, basis: ConfigBasis, params: ModelParams,
                 grid: TorusGrid, chi_index=None):
        self.basis = basis
        self.params = params
        self.grid = grid
        self.chi_mass = chi_mass_matrix(basis, chi_index)
        self.drift = drift_matrices(basis, chi_index)
        relax = params.relaxation_rate * basis.eigenvalues
        self.diag = relax[:, None, None] + params.epsilon * grid.ksq[None]

    def check_step(self, psi: PolymerField, dt):
        """Refuse a psi on another basis or grid, and a dt whose
        dt * max rate leaves the SSP-RK3 stability interval."""
        if psi.basis is not self.basis:
            raise ValueError("operator and polymer field use different bases")
        if psi.grid != self.grid:
            raise ValueError("operator and polymer field use different grids")
        zmax = dt * float(self.diag.max())
        if zmax > 2.5:
            raise StabilityViolation(
                f"dt * max relaxation/diffusion rate = {zmax:.2f} "
                "outside the SSP-RK3 stability interval")

    def explicit_tendency(self, uv, cg):
        """Transport plus drift in coefficient space (dealiased), from the
        grid values uv of fluid.velocity_factors(u) and cg of the
        coefficients."""
        grid = self.grid
        n = grid.n_points
        nb = self.basis.n_basis
        cg = cg.reshape(nb, -1)
        w = (self.chi_mass @ cg).reshape(nb, n, n)

        uv = uv.reshape(3, 2, n, n)   # uv[b + 1, a] = d_b u_a
        dc = (self.drift.reshape(4 * nb, nb) @ cg).reshape(2, 2, nb, n, n)

        # the 3 n_basis grid products, the fluxes u_a w then the drift,
        # written where to_modes reads them
        prod = np.empty((3, nb, n, n))
        np.multiply(uv[0, :, None], w, out=prod[:2])
        np.einsum("baxy,abixy->ixy", uv[1:], dc, out=prod[2])
        flux = to_modes(prod)
        return flux[2] - grid.ik[0] * flux[0] - grid.ik[1] * flux[1]

    def tendency(self, coeffs, uv, cg):
        """The Fokker-Planck tendency of coeffs: explicit_tendency(uv, cg)
        less relaxation and diffusion."""
        return self.explicit_tendency(uv, cg) - self.diag * coeffs


def fp_step(psi: PolymerField, u, op: FokkerPlanckSolver,
            dt) -> PolymerField:
    """Advance one SSP-RK3 step of length dt under u, a callable of time
    giving the velocity coefficients at each RK stage."""
    op.check_step(psi, dt)

    def rhs(y, t):
        vel = velocity_factors(psi.grid, u(t))
        both = to_values(np.concatenate([vel, y[0]]), psi.grid.n_points)
        return (op.tendency(y[0], both[:len(vel)], both[len(vel):]),)

    new, = ssprk3((psi.coeffs,), rhs, psi.time, dt)
    return PolymerField(psi.grid, psi.basis, new, psi.time + dt)


def fp_energy(psi: PolymerField, s: int, power=None):
    """Squared mixed norms (|psi|^2_{W^{s,2}_x L^2_M}, |psi|^2_{W^{s,2}_x H^1_M}).

    Both are diagonal in the (mode, eigenfunction) representation: the
    L^2_M part weights coefficients by (1+|k|^2)^s, the H^1_M part
    additionally by the eigenvalue lambda_i; both sum over the full torus
    spectrum (TorusGrid.sobolev_weight).  power, when given, is |c|^2 of
    psi.coeffs, formed once for several s.
    """
    weight = psi.grid.sobolev_weight(s)
    if power is None:
        power = np.abs(psi.coeffs) ** 2
    per_fn = np.sum(weight * power, axis=(1, 2))
    return (SIDE ** 2 * float(per_fn.sum()),
            SIDE ** 2 * float(psi.basis.eigenvalues @ per_fn))


_SAMPLE_BLOCK = 128  # x nodes per block of sampled psi
# Relative slack of the column bounds, against the rounding of both the
# bounds and the samples (each an n_basis-term sum, error ~ n_basis * eps).
_BOUND_SLACK = 1e-12


def _candidate_rings(cg, basis: ConfigBasis):
    """Mask of the radial rings whose samples s = cg.T @ phi may hold the
    minimum of s M, from bounds of every q column j over x: s(x, j) lies in
    mid @ phi(j) -/+ (rad @ |phi(j)| + slack), with mid_i and rad_i the
    centre and half-range of cg[i].  A column is ruled out only if lo M
    exceeds the least hi M; a NaN bound rules nothing out, as every
    comparison with NaN is False."""
    nb = basis.n_basis
    phi = basis.values.reshape(nb, -1)
    m = basis.quad.maxwellian.reshape(-1)
    cmax, cmin = cg.max(axis=1), cg.min(axis=1)
    centre = (cmax + cmin) / 2.0 @ phi
    reach = ((cmax - cmin) / 2.0 + _BOUND_SLACK * np.maximum(cmax, -cmin)) \
        @ np.abs(phi)
    lo = centre - reach
    best = np.min((centre + reach) * m)
    ruled_out = lo * m > best
    return ~ruled_out.reshape(basis.values.shape[1:]).all(axis=1)


def nonnegativity_report(basis: ConfigBasis, cg):
    """Minimum of the sampled psi over the grid x nodes, from the grid
    values cg of its coefficient fields, shape (n_basis, n, n).

    Sampling happens on the configuration quadrature nodes; the scheme never
    enforces positivity, this is a monitor only.  Only the radial rings
    that bounds over x cannot clear (_candidate_rings) are sampled: near
    equilibrium one ring in 32, since psi is smallest next to the boundary
    of the ball and its columns elsewhere are bounded away from that
    minimum.

    The result is the full sample matrix's, bit for bit.  The samples of
    the kept rings are formed a block of x nodes at a time by the same GEMM
    as the full matrix, on whole rings of columns: one gathered column
    would go through gemv and round differently.  They are scaled by M
    only at the end: M > 0 at every node and rounding is monotone, so
    min(s M) = min(s) M.
    """
    nb = basis.n_basis
    cg = cg.reshape(nb, -1)
    rings = _candidate_rings(cg, basis)
    phi = basis.values[:, rings].reshape(nb, -1)
    m = basis.quad.maxwellian[rings].reshape(-1)
    col_min = np.full(phi.shape[1], np.inf)
    for start in range(0, cg.shape[1], _SAMPLE_BLOCK):
        block = cg[:, start:start + _SAMPLE_BLOCK].T @ phi
        np.minimum(col_min, block.min(axis=0), out=col_min)
    return float((col_min * m).min())
