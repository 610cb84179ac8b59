"""Exception types shared across the package, and the object, integer and number rules."""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or distribution/schedule parameters (CLI exit 2)."""


class ScheduleValidationError(RuntimeError):
    """A schedule failed assumption validation where a valid one is required (CLI exit 3)."""


def require_int(name: str, value) -> None:
    """A config integer: not a bool, a float or a string, and below 2**63."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value > 2**63 - 1:
        raise ConfigError(f"{name} must be an integer below 2**63, got {value!r}")


def strict_object(what: str, data, required, optional=()) -> dict:
    """data, a JSON object with every required field and no field outside
    required and optional. A dict built in Python may mix key types, so the
    unknown ones are listed in the order of their str."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {sorted(unknown, key=str)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"{what} missing field(s): {sorted(missing)}")
    return data


def is_numeric(value, arr: np.ndarray, kinds: str = "iuf") -> bool:
    """Whether value, read by numpy as arr, holds only numbers of the dtype
    kinds: a string, null or other object leaves its mark on the dtype, but a
    bool among numbers does not, so value is scanned for one."""
    return arr.dtype.kind in kinds and not _holds_bool(value)


def _holds_bool(value) -> bool:
    """Whether a value is or nests a bool; a list of plain ints and floats,
    like a row of a JSON array, is passed in one sweep of its types."""
    if not isinstance(value, (list, tuple)):
        return isinstance(value, (bool, np.bool_))
    return not set(map(type, value)) <= {int, float} and any(map(_holds_bool, value))
