"""Fourier representation of real fields on the flat 2-torus [0, 2pi)^2.

A field is its coefficient array (components, 2K + 1, K + 1): it holds
only the modes max(|k1|, |k2|) <= K, K = n // 3 (the 2/3 rule), in rows
k1 = 0 .. K, -K .. -1 and columns k2 = 0 .. K, f(x) = sum_k c_k exp(i k.x),
with the k2 < 0 half, c(-k) = conj(c(k)), implied, so fields are real by
construction.  No class wraps the array: to_modes (rfft2, n^2
normalization, keep the block: the projection P_K) makes it from grid
values and to_values (zero padding, irfft2) gives its grid values back,
and they are the package's only transforms.
Products use the padding form of the 2/3 rule (Orszag 1971; Canuto et al.,
Spectral Methods, 2006, sec. 3.2): the factors go to the n x n grid and the
product comes back as its block, which no alias reaches.  Full-spectrum
sums (Parseval, Sobolev norms) count the k2 = 0 column once and the others
twice (TorusGrid.multiplicity).

The transforms go through scipy.fft (pocketfft), which transforms an n-d
batch in one C++ call where numpy.fft makes a Python-level pass per axis:
at n = 32 numpy.fft takes 0.67 ms to scipy.fft's 0.49 ms for a coupled
stage's forward batch of 120 slices, and 0.27 ms to 0.23 ms for its
inverse batch of 52.  On numpy 2.4 / scipy 1.17 the results are bitwise
equal to numpy.fft's.  They run on one thread: workers = 2 takes the
forward batch of 120 slices from 0.51 to 0.37 ms alone, but is slower
for batches of 52 and 11 slices, and whole n = 32 shear runs got slower
(5.63-5.76 to 5.83-6.02 ms per step over three alternating pairs).
"""
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

SIDE = 2.0 * np.pi
S_MAX = 8  # largest Sobolev index used by norm-based monitors


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n x n grid on the torus of side 2pi."""

    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 8 or n % 2 != 0:
            raise ValueError("n_points must be an even integer >= 8")

    @property
    def dealias_cutoff(self):
        """Largest retained mode K under the 2/3 rule."""
        return self.n_points // 3

    @property
    def spectral_shape(self):
        """Shape (2K + 1, K + 1) of one stored coefficient array."""
        return (2 * self.dealias_cutoff + 1, self.dealias_cutoff + 1)

    @cached_property
    def wavenumbers(self):
        """Integer wave numbers k1 of the stored rows: 0 .. K, -K .. -1."""
        rows = self.spectral_shape[0]
        return np.fft.fftfreq(rows, 1.0 / rows).astype(int)

    @cached_property
    def k(self):
        """Integer wave vectors of the stored coefficients, k[a] the
        component along axis a: shape (2, 2K + 1, K + 1)."""
        return np.stack(np.meshgrid(self.wavenumbers,
                                    np.arange(self.dealias_cutoff + 1),
                                    indexing="ij"))

    @cached_property
    def ksq(self):
        return np.sum(self.k ** 2, axis=0).astype(float)

    @cached_property
    def ik(self):
        """ik[a], the multiplier of d/dx_a."""
        return 1j * self.k

    @cached_property
    def multiplicity(self):
        """Copies of each stored column in the full spectrum."""
        return np.r_[1.0, np.full(self.dealias_cutoff, 2.0)]

    def sobolev_weight(self, s):
        """multiplicity * (1 + |k|^2)^s, the column weights of the squared
        W^{s,2} norm, built once per grid for every s in [0, S_MAX]."""
        if s < 0 or s > S_MAX:
            raise ValueError(f"Sobolev index must lie in [0, {S_MAX}]")
        return self._sobolev_weights[s]

    @cached_property
    def _sobolev_weights(self):
        return np.stack([self.multiplicity * (1.0 + self.ksq) ** s
                         for s in range(S_MAX + 1)])

    @cached_property
    def x(self):
        """Grid coordinates (x1, x2), each of shape (n, n)."""
        pts = SIDE * np.arange(self.n_points) / self.n_points
        return np.meshgrid(pts, pts, indexing="ij")

    @property
    def spacing(self):
        return SIDE / self.n_points

    def cell_area(self):
        return self.spacing ** 2


def to_modes(values):
    """Block coefficients of real grid values (..., n, n)."""
    n = values.shape[-1]
    k = n // 3
    full = scipy.fft.rfft2(values, norm="forward")
    return np.concatenate([full[..., :k + 1, :k + 1],
                           full[..., n - k:, :k + 1]], axis=-2)


def to_values(coeffs, n):
    """Real grid values (..., n, n) of block coefficients.  A batch of 12
    or more slices at n = 64 stays fast only under runner._retain_heap
    (set by every fene run): library callers get the slow path, 1.8x six
    2-slice calls, as its temporaries cross glibc's mmap threshold."""
    k = coeffs.shape[-1] - 1
    full = np.zeros((*coeffs.shape[:-2], n, n // 2 + 1), dtype=complex)
    full[..., :k + 1, :k + 1] = coeffs[..., :k + 1, :]
    full[..., n - k:, :k + 1] = coeffs[..., k + 1:, :]
    return scipy.fft.irfft2(full, norm="forward")


def dealiased_product(f, g):
    """Block coefficients of the product of two fields of P_K given by their
    grid values (to_values of block coefficients): quadratic aliasing never
    reaches the block under the 2/3 rule.

    The value arrays broadcast, so a scalar field multiplies each component
    of a vector or tensor field, and one call forms a whole table of
    products for one forward transform.
    """
    return to_modes(f * g)


def sobolev_norm(grid: TorusGrid, coeffs, s: int, power=None):
    """Bessel-potential Sobolev norm ((2pi)^2 sum_k (1+|k|^2)^s |c_k|^2)^(1/2)
    of the coefficients (components, 2K + 1, K + 1) on grid, over the full
    spectrum (stored columns weighted by multiplicity).

    Vector fields contribute the sum of their component norms squared.
    power, when given, is |c_k|^2 of coeffs, formed once for several s.
    """
    weight = grid.sobolev_weight(s)
    if power is None:
        power = np.abs(coeffs) ** 2
    return float(np.sqrt(SIDE ** 2 * np.sum(weight * power)))


# the multi-indices |alpha| <= 2 of the W^{2,inf} stack; the first three
# are u, d1 u, d2 u, the order of fluid.velocity_factors
W2_INDICES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def derivative_stack(grid: TorusGrid, coeffs, multi_indices):
    """d^alpha of the coefficients (components, 2K + 1, K + 1) for each
    alpha, stacked: shape (len(multi_indices), components, 2K + 1, K + 1)."""
    mult = np.stack([grid.ik[0] ** a1 * grid.ik[1] ** a2
                     for a1, a2 in multi_indices])
    return mult[:, None] * coeffs


def sup_norm_w2inf_values(vals):
    """Grid-sampled W^{2,inf} norm max_x sum_{|alpha|<=2} |d^alpha u(x)|
    from the grid values vals[i] of d^alpha u for alpha = W2_INDICES[i],
    shape (6, components, n, n), summed over alpha in that order."""
    return float(np.sqrt(np.sum(vals ** 2, axis=1)).sum(axis=0).max())


def grad_u_sup_norm(grad):
    """max_x sum_{a,b} |d_b u_a(x)|, the entrywise l1 gradient bound, from
    the grid values grad[b - 1, a] of d_b u_a, shape (2, 2, n, n)."""
    return float(np.sum(np.abs(grad), axis=1).sum(axis=0).max())
