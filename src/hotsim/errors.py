"""Exception classes shared across the package.

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
