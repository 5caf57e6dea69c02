"""Compressible Navier-Stokes / Fokker-Planck FENE dumbbell simulator."""

from .model import ModelParams
from .torus import TorusGrid
from .configspace import ConfigBasis, ConfigQuadrature, build_quadrature, \
    eigen_basis
from .fluid import FluidState, FluidStepConfig
from .fokker_planck import PolymerField
from .coupling import CoupledState

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "TorusGrid",
    "ConfigBasis", "ConfigQuadrature", "build_quadrature", "eigen_basis",
    "FluidState", "FluidStepConfig", "PolymerField", "CoupledState",
    "__version__",
]
