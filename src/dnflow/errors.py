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
    """A snapshot file without its header line, or with a value that is not
    a finite number."""


class UnsupportedRegimeError(DnflowError):
    """Boundary regime not offered on the given domain kind."""


class FieldShapeError(DnflowError):
    """Field array does not match the domain's interior node count."""


class CompatibilityError(DnflowError):
    """Right-hand side fails the zero-mean compatibility the regime requires."""


class DegenerateInputError(DnflowError):
    """An operation received a field it cannot normalize: identically zero,
    or of an amplitude at which int |u|^p or a dual pairing leaves the
    floating-point range."""


class SignViolationError(DnflowError):
    """A profile that must be single-signed changes sign beyond tolerance."""


class NonConvergenceError(DnflowError):
    """Iteration budget exhausted before the stopping criterion was met.

    Carries the last iterate and the residual it achieved so callers can
    inspect or resume, and where it happened: the flow step, the regime
    kind and p, each set by the layer that knows it.  The message ends
    with those that are set.
    """

    def __init__(self, message, last_iterate=None, residual=None, step=None,
                 regime=None, p=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.step = step
        self.regime = regime
        self.p = p

    def __str__(self):
        where = [f"{name} {value}" for name, value in
                 (("step", self.step), ("regime", self.regime), ("p", self.p))
                 if value is not None]
        if self.residual is not None:
            where.append(f"residual {self.residual:.3e}")
        text = super().__str__()
        return f"{text} ({', '.join(where)})" if where else text


class ConfigError(DnflowError):
    """Malformed run configuration (unknown key, bad value, broken constraint)."""


class BudgetError(DnflowError):
    """Problem size exceeds a hard resource bound (e.g. dense eigensolve)."""
