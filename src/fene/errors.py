"""Exception types shared across the solver stack."""


class FeneError(Exception):
    """Base class for all solver errors."""


class ConfigError(FeneError):
    """Malformed or inconsistent run configuration."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"[{field}] "
        super().__init__(prefix + message)


class PositivityLoss(FeneError):
    """Transformed density dropped to or below zero."""


class StabilityViolation(FeneError):
    """Time step exceeds one of its two bounds: the fluid CFL bound, or the
    SSP-RK3 stability interval of the Fokker-Planck relaxation and
    diffusion rates."""


class BlowupCeiling(FeneError):
    """A state went non-finite or its blow-up indicator passed the
    configured ceiling."""


class VersionError(FeneError):
    """Checkpoint file has wrong magic bytes or unsupported version, or
    does not fit the configured run (grid, basis, time step)."""


class EigenSolverError(FeneError):
    """The generalized eigensolver failed on an angular mode block."""
