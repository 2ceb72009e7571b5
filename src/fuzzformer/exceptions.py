"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2, NumericError -> 3.
"""


class FuzzformerError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FuzzformerError):
    """Invalid run configuration or incompatible component settings."""


class DataError(FuzzformerError):
    """Malformed, missing, or inconsistent input data."""


class FetchError(DataError):
    """HTTP retrieval of a series failed."""


class NumericError(FuzzformerError):
    """Numerical failure during computation."""


class ShapeError(NumericError):
    """Operands with incompatible shapes reached a tensor operation."""


class NonFiniteError(NumericError):
    """NaN or Inf encountered during a computation.

    ``op`` names the graph op whose values or gradient were non-finite
    and ``rule`` the fuzzy rule whose ARIX forecast was; each is None
    when unknown.
    """

    def __init__(self, message, op=None, rule=None):
        super().__init__(message)
        self.op = op
        self.rule = rule


class PositiveDefinitenessError(NumericError):
    """A covariance (or pooled covariance) lost positive definiteness."""


class ArimaFitError(NumericError):
    """Per-window ARIMA estimation failed: too short, non-finite, rank
    deficient, non-stationary or non-invertible."""
