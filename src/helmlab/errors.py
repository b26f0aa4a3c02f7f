"""Exception types shared across the package.

`ConfigError` and `InsufficientDataError` are caused by a run's
settings; `NumericalError` marks every failure of the computation
itself, and its message says which.
"""


class NumericalError(Exception):
    """The computation failed on inputs that passed the config checks."""


class InsufficientDataError(ValueError):
    """Too few usable data points inside a fit window."""


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
