"""Binary snapshot format for bit-exact restarts (.fkp files).

Layout (format version 3), all little-endian:

    bytes 0..3    magic "FKPD"
    u32           format version (3)
    u32 x 4       n_points, n_radial, n_angular, n_basis
    f64           extensibility b
    f64           time stamp
    complex128    r coefficients,   m values
    complex128    u coefficients,   2 * m values (component-major)
    complex128    psi coefficients, n_basis * m values (basis-major)

with m = (2K + 1)(K + 1), K = n_points // 3, values per field in the
Galerkin block of torus (rows k1 = 0 .. K, -K .. -1, each k2 = 0 .. K),
each complex128 as a (real, imaginary) binary64 pair: 40 + 16 (3 + n_basis)
m bytes, 158,968 at n_points = 32 with 40 basis functions.  Files of
versions 1 and 2 (full and half spectra) are refused with a VersionError
naming the version, and so is a header whose time or b is not finite,
whose time is negative, or whose grid or ball fields no TorusGrid,
quadrature or eigenbasis accepts.  The coefficients are not checked here:
the loop that steps a loaded state checks it first.  Loading without an
explicit basis rebuilds grid, quadrature and eigenbasis from the stored
dimensions, which is deterministic, so save -> load -> save reproduces
the file byte for byte.
"""

import os
import struct

import numpy as np

from .configspace import build_quadrature, eigen_basis
from .coupling import CoupledState
from .errors import VersionError
from .fluid import FluidState
from .fokker_planck import PolymerField
from .torus import TorusGrid

MAGIC = b"FKPD"
VERSION = 3
_HEADER = struct.Struct("<4sIIIIIdd")


def checkpoint_save(state: CoupledState, path):
    """Write the state atomically (write-then-rename)."""
    grid = state.fluid.grid
    quad = state.psi.basis.quad
    header = _HEADER.pack(MAGIC, VERSION, grid.n_points, quad.n_radial,
                          quad.n_angular, state.psi.basis.n_basis, quad.b,
                          state.time)
    blob = header + b"".join(
        c.astype("<c16").tobytes() for c in
        (state.fluid.r[0], state.fluid.u, state.psi.coeffs))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def checkpoint_load(path, grid=None, basis=None) -> CoupledState:
    """Read a snapshot; grid/basis are rebuilt from the header when absent."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise VersionError(f"{path}: not a FKPD checkpoint")
    magic, version, n_points, n_radial, n_angular, n_basis, b, time = \
        _HEADER.unpack_from(raw)
    if version != VERSION:
        raise VersionError(f"{path}: unsupported format version {version} "
                           f"(this build reads version {VERSION})")
    if not (0 <= time < np.inf and abs(b) < np.inf):   # refuses NaN too
        raise VersionError(f"{path}: header time {time!r} or b {b!r} is not "
                           "finite, or the time is negative")
    if grid is None:
        try:
            grid = TorusGrid(n_points)
        except ValueError as exc:   # a header no version ever wrote
            raise VersionError(f"{path}: {exc}") from None
    elif grid.n_points != n_points:
        raise VersionError(f"{path}: grid size {n_points} does not match "
                           f"the configured {grid.n_points}")
    shape = grid.spectral_shape
    expected = _HEADER.size + 16 * (3 + n_basis) * shape[0] * shape[1]
    if len(raw) != expected:
        raise VersionError(f"{path}: truncated or padded checkpoint "
                           f"({len(raw)} bytes, expected {expected})")
    if basis is None:
        try:
            basis = eigen_basis(build_quadrature(b, n_radial, n_angular),
                                n_basis)
        except ValueError as exc:   # ball fields no version ever wrote
            raise VersionError(f"{path}: {exc}") from None
    else:
        quad = basis.quad
        if (quad.n_radial, quad.n_angular, basis.n_basis) != \
                (n_radial, n_angular, n_basis) or quad.b != b:
            raise VersionError(f"{path}: configuration-space dimensions do "
                               "not match the configured basis")

    # r, u1, u2 and the psi coefficients, one field after the other
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size) \
        .astype(complex).reshape(3 + n_basis, *shape)
    return CoupledState(FluidState(grid, coeffs[:1], coeffs[1:3], time),
                        PolymerField(grid, basis, coeffs[3:], time))
