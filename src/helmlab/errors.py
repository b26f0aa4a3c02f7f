"""Exception types shared across the package.

Each class marks a distinct failure mode so callers can react to it
without parsing messages.
"""


class GridMismatchError(ValueError):
    """Two fields live on different grids."""


class SymmetryViolationError(ValueError):
    """A spectrum that would not give a real field: an inverse transform
    left a significant imaginary residue, or a multiplier is not even."""


class SingularModeError(ValueError):
    """A grid wavenumber sits on the singular sphere of the resolvent symbol."""


class SupportOverlapError(ValueError):
    """A field violates its declared support region."""


class InsufficientDataError(ValueError):
    """Too few usable data points inside a fit window."""


class ZeroFieldError(ValueError):
    """An operation that needs a nonzero field received a zero one."""


class IndefiniteFormError(ValueError):
    """The resolvent quadratic form is not positive, so no Nehari scaling exists."""


class ConeExitError(RuntimeError):
    """The ground-state iteration cannot find any nearby point with a positive quadratic form."""


class NegativeCoefficientError(ValueError):
    """A coefficient family produced or was given negative values."""


class ConfigError(ValueError):
    """A run configuration is malformed.

    Carries an optional line number and field name for diagnostics.
    """

    def __init__(self, message, line=None, field=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.field = field
