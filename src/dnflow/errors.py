"""Exception hierarchy shared by every module."""


class DnflowError(Exception):
    """Base class for all package errors."""


class InvalidResolutionError(DnflowError):
    """Grid resolution below the minimum the discretization supports."""


class EmptyDomainError(DnflowError):
    """A masked domain with no interior cells."""


class InvalidMaskError(DnflowError):
    """A masked domain whose bitmap violates connectivity preconditions."""


class InvalidSnapshotError(DnflowError):
    """A snapshot file without its header line."""


class UnsupportedRegimeError(DnflowError):
    """Boundary regime not offered on the given domain kind."""


class FieldShapeError(DnflowError):
    """Field array does not match the domain's interior node count."""


class CompatibilityError(DnflowError):
    """Right-hand side fails the zero-mean compatibility the regime requires."""


class DegenerateInputError(DnflowError):
    """An operation received an identically zero field it cannot normalize."""


class SignViolationError(DnflowError):
    """A profile that must be single-signed changes sign beyond tolerance."""


class NonConvergenceError(DnflowError):
    """Iteration budget exhausted before the stopping criterion was met.

    Carries the last iterate and the residual it achieved so callers can
    inspect or resume.
    """

    def __init__(self, message, last_iterate=None, residual=None, step=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.step = step


class ConfigError(DnflowError):
    """Malformed run configuration (unknown key, bad value, broken constraint)."""


class BudgetError(DnflowError):
    """Problem size exceeds a hard resource bound (e.g. dense eigensolve)."""
