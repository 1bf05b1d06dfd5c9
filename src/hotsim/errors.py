"""Exception classes shared across the package, and the value rules that the
objects owning scenario values share (a finite number, an array's shape).

Each class maps to one CLI exit code so that callers can tell apart bad
configuration, demand patterns outside the model's assumptions, controller
failures, I/O problems, and runs whose results are not finite.
"""

import math


class HotSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HotSimError):
    """Invalid, unknown, or missing configuration keys and values."""


class ScenarioAssumptionError(HotSimError):
    """Demand pattern outside the congested regime the model assumes.

    Raised when the HOV demand saturates the HOT capacity or the total
    demand does not exceed the HOT capacity, which makes the price law's
    log argument non-positive.
    """


class PriceUndefinedError(HotSimError):
    """The controller cannot produce a finite price (degenerate estimate)."""


class BoundaryNotBracketedError(HotSimError):
    """Both ends of a bisection bracket classify as the same pattern."""


class NonFiniteResultError(HotSimError):
    """A run's summary metric is infinite or NaN: its state left the finite range."""


def require_finite(key: str, value: float, error: type[Exception] = ValueError) -> None:
    """Raise ``error``, its message beginning with ``key``, if ``value`` is NaN,
    infinite, or an integer beyond the float range."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int no float can hold; its repr may run to any length
        raise error(f"{key}: expected a finite number, got an integer "
                    f"too large for a float") from None
    if not finite:
        raise error(f"{key}: expected a finite number, got {value!r}")


def require_positive(key: str, value: float, error: type[Exception] = ValueError) -> None:
    """``require_finite``, then raise ``error`` unless ``value`` is above zero."""
    require_finite(key, value, error)
    if value <= 0:
        raise error(f"{key} must be positive")


def _float_array(key: str, value, what: str, *shapes: tuple):
    """``value`` as a float or as nested lists of floats, or a ValueError
    ``<key>: expected <what>, got …`` unless it has one of ``shapes``, where
    None stands for any length.  Any sequence is read entry by entry, a numpy
    array as its lists, and each number is checked finite as it is read."""
    floats = _read(key, value)
    if not any(_has_shape(floats, shape) for shape in shapes):
        raise ValueError(f"{key}: expected {what}, got {floats!r}")
    return floats


def _read(key: str, value):
    value = value.tolist() if hasattr(value, "tolist") else value
    try:
        require_finite(key, value)
    except TypeError:  # not a number: a sequence of them
        if isinstance(value, str) or not hasattr(value, "__iter__"):  # nor a sequence
            raise TypeError(f"{key}: expected a number, got {value!r}") from None
        return [_read(key, entry) for entry in value]
    return float(value)


def _has_shape(value, shape: tuple) -> bool:
    if not shape:
        return isinstance(value, float)
    return (isinstance(value, list) and shape[0] in (None, len(value))
            and all(_has_shape(entry, shape[1:]) for entry in value))
