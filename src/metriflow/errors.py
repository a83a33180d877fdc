"""Exception types shared across the package."""

import math


class MetriflowError(Exception):
    """Base class for all package errors."""


class ThermoDomainError(MetriflowError, ValueError):
    """Equation of state evaluated outside its admissible domain."""


class InadmissibleStateError(MetriflowError, ValueError):
    """A field state violates rho > 0, T > 0, or finiteness."""


class UnsupportedFamilyError(MetriflowError, ValueError):
    """Operation requested for a model family that does not support it."""


class ParameterError(MetriflowError, ValueError):
    """A constructor parameter out of its domain; ``name`` is the parameter."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


def require_finite(name: str, value: float) -> None:
    """Raise a ParameterError naming ``name`` unless value is finite."""
    if not math.isfinite(value):
        raise ParameterError(name, f"{name} must be finite, got {name} = {value}")


class ConfigError(MetriflowError, ValueError):
    """Invalid or unparseable run configuration."""


def require_seed(seed: int) -> None:
    """Raise a ConfigError unless seed, the seed of every random draw, is >= 0."""
    if seed < 0:
        raise ConfigError(f"bad value for 'seed': seed = {seed} is negative")


class IntegrationError(MetriflowError, RuntimeError):
    """Time integration produced an inadmissible or non-finite state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
