"""Exception classes shared across the package, and the value rules that the
objects owning scenario values share: a finite number, the one test of what
is a number (``require_finite``: what ``math.isfinite`` takes, bools,
numpy's too, aside), and an array's shape; and how an error shows the value
it rejects (``brief_repr``).

Each class maps to one CLI exit code so that callers can tell apart bad
configuration, demand patterns outside the model's assumptions, controller
failures, I/O problems, and runs whose results are not finite.
"""

import math
import sys
from collections.abc import Sequence


class HotSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HotSimError):
    """Invalid, unknown, or missing configuration keys and values."""


class ScenarioAssumptionError(HotSimError):
    """Demand pattern outside the congested regime the model assumes.

    Raised by ``choice.clearing_log_odds``, the demand term of every logit
    price law, unless ``q1 < c1 < q1 + q2``: the HOV demand saturates the HOT
    capacity, the total demand does not exceed it, or a demand rate is nan.
    The constant-demand analysis raises it for total demand at or below the
    total capacity, and checks its mean rates through ``clearing_log_odds``.
    """


class PriceUndefinedError(HotSimError):
    """The controller cannot produce a finite price (degenerate estimate)."""


class BoundaryNotBracketedError(HotSimError):
    """Both ends of a bisection bracket classify as the same pattern."""


class NonFiniteResultError(HotSimError):
    """A run's summary metric is infinite or NaN: its state left the finite range."""


def require_finite(key: str, value: float, error: type[Exception] = ValueError) -> None:
    """Raise ``error``, its message beginning with ``key``, unless ``value`` is a
    number, bools (numpy's too) aside, and finite: not NaN, infinite or an int
    beyond any float."""
    # numpy's bool exists only once numpy is imported, and a float is no bool
    numpy = sys.modules.get("numpy") if type(value) is not float else None
    bools = (bool, numpy.bool_) if numpy else bool
    try:  # a bool is no number: math.isfinite rejects None
        finite = math.isfinite(None if isinstance(value, bools) else value)
    except TypeError:
        raise error(f"{key}: expected a number, got {brief_repr(value)}") from None
    except OverflowError:  # an int no float can hold; its repr may run to any length
        raise error(f"{key}: expected a finite number, got an integer "
                    f"too large for a float") from None
    if not finite:
        raise error(f"{key}: expected a finite number, got {brief_repr(value)}")


def brief_repr(value) -> str:
    """``repr(value)`` cut short as ``reprlib`` cuts it: the first six entries
    of a list, a long string's two ends, so that a message stays one short line."""
    import reprlib

    return reprlib.repr(value)


def require_positive(key: str, value: float, error: type[Exception] = ValueError) -> None:
    """``require_finite``, then raise ``error`` unless ``value`` is above zero."""
    require_finite(key, value, error)
    if value <= 0:
        raise error(f"{key} must be positive")


def _float_array(key: str, value, what: str, *shapes: tuple):
    """``value`` as a float or as nested lists of floats, or a ValueError
    ``<key>: expected <what>, got …`` unless it has one of ``shapes``, where
    None stands for any length.  A sequence (not a string nor bytes) is read
    entry by entry, a numpy array as its lists, each number by ``require_finite``;
    a list of rows of an accepted length shows only its first bad row."""
    floats = _read(key, value)
    if any(_has_shape(floats, shape) for shape in shapes):
        return floats
    for shape in shapes:
        if len(shape) == 2 and isinstance(floats, list) and shape[0] in (None, len(floats)):
            i = next(i for i, row in enumerate(floats) if not _has_shape(row, shape[1:]))
            raise ValueError(f"{key}: expected {what}, got {brief_repr(floats[i])} at row {i}")
    raise ValueError(f"{key}: expected {what}, got {brief_repr(floats)}")


def _read(key: str, value):
    value = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray)):
        return [_read(key, entry) for entry in value]
    require_finite(key, value)
    return float(value)


def _has_shape(value, shape: tuple) -> bool:
    if not shape:
        return isinstance(value, float)
    return (isinstance(value, list) and shape[0] in (None, len(value))
            and all(_has_shape(entry, shape[1:]) for entry in value))
