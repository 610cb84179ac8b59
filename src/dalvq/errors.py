"""Exception types shared across the package, and the integer-field rule."""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or distribution/schedule parameters (CLI exit 2)."""


class ScheduleValidationError(RuntimeError):
    """A schedule failed assumption validation where a valid one is required (CLI exit 3)."""


def require_int(name: str, value) -> None:
    """A config integer: not a bool, a float or a string, and below 2**63."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value > 2**63 - 1:
        raise ConfigError(f"{name} must be an integer below 2**63, got {value!r}")
