"""Exception hierarchy shared across the package."""


class MqcnmrError(Exception):
    """Base class for all package errors."""


class ConfigError(MqcnmrError):
    """Invalid run configuration, molecule file or stage argument (CLI exit code 2)."""


class NumericalValidationError(MqcnmrError):
    """A numerical self-check failed (CLI exit code 3)."""


class InvalidPairError(MqcnmrError):
    """Pair operator requested with j == k or an out-of-range site."""


class DegenerateGeometryError(MqcnmrError):
    """Zero-length internuclear vector."""


class TrivialSystemError(MqcnmrError):
    """Fewer than two spin sites; no dipolar Hamiltonian exists."""


class GridSizeError(ConfigError):
    """Experiment grid exceeds the memory budget (CLI exit code 2)."""


class FitDomainError(ConfigError):
    """Decay data outside the domain of the requested fit model (CLI exit code 2)."""


class UnsupportedGridError(ConfigError):
    """Phase or time sampling that the discrete transforms cannot handle."""
