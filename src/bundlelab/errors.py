"""Exception and warning types shared across the package."""


class BundleLabError(Exception):
    """Base class for all computational errors raised by this package."""


class TruncationRangeError(BundleLabError):
    """An explicit weight list was exhausted before the requested index."""


class DomainError(BundleLabError):
    """An operation was asked to act outside its analytic domain of validity."""


class RootFindingError(BundleLabError):
    """Polynomial root extraction or Newton polishing failed to converge."""


class FiberError(BundleLabError):
    """A fiber is inconsistent (wrong cardinality or points too close), or a
    search over its points could not be completed."""


class NumericalSingularityError(BundleLabError):
    """A matrix that must be inverted is numerically singular.

    Carries the offending minimum singular value in ``min_singular_value``.
    """

    def __init__(self, message, min_singular_value=None):
        super().__init__(message)
        self.min_singular_value = min_singular_value


class WindingError(BundleLabError):
    """Winding-number evaluation failed (margin, rounding, or cross-check)."""


class ConfigError(BundleLabError):
    """A run configuration could not be parsed or validated.

    ``line`` and ``column`` are 1-based positions when known.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class BoundaryRootWarning(UserWarning):
    """A root of the fiber polynomial lies within 1e-6 of the unit circle."""
