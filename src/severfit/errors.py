"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SeverfitError(Exception):
    """Base class for all severfit-specific errors."""


class EmptyWindowError(SeverfitError):
    """No observation fell inside the truncation window of a sample statistic."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NoSolutionError(SeverfitError):
    """The general moment-matching system did not converge to a root."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SolverStallError(SeverfitError):
    """A bracketed scalar solve exceeded its iteration cap."""


class QuadratureError(SeverfitError):
    """Numerical quadrature could not reach the requested tolerance, or its
    estimate is not finite (as for a divergent moment); ``achieved`` is the
    error estimate."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateError(SeverfitError):
    """Input is degenerate: all-zero data, zero-probability window, and similar."""


class ConfigError(SeverfitError):
    """A simulation config file entry could not be parsed."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key
