"""Exception classes shared across the package, and the value rules that the
objects owning scenario values and results share: ``require_finite``, the one
finite test (what ``math.isfinite`` takes, bools, numpy's too, aside);
``require_kind``, one of a tuple of kinds; ``require_unread``, the default
in a field whose key its kind does not read; ``require_steps``, the step
rule of a run, which the scenario and the reduced model both call; and an
array's shape, read no further than one of its shapes takes it.  An error
shows the value it rejects cut short (``brief_repr``).

A number rule returns the number it checked as a float, and the owner
stores that, so an int or a numpy scalar is stored as the float a scenario
file gives, and -0.0 as +0.0, so that a zero of either sign gives one config
and one run; ``stored`` is the one stored form of a value that may be None,
a number or an array, which the controller specs keep.

Each class maps to one CLI exit code, its ``exit_code``, so that callers can
tell apart bad configuration, demand patterns outside the model's
assumptions, controller failures and runs whose results are not finite; the
CLI gives an I/O failure, an ``OSError``, exit code 5.
"""

import itertools
import math
import numbers
import sys
from collections.abc import Sequence

# largest horizon / dt accepted; each step keeps one row of floats in memory
MAX_STEPS = 1_000_000


class HotSimError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


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

    exit_code = 3


class PriceUndefinedError(HotSimError):
    """The controller cannot produce a finite price (degenerate estimate)."""

    exit_code = 4


class BoundaryNotBracketedError(HotSimError):
    """Both ends of a bisection bracket classify as the same pattern."""


class NonFiniteResultError(HotSimError):
    """A run's result is infinite or NaN: ``require_finite`` names it."""

    exit_code = 6


def require_finite(key: str, value: float, error: type[Exception] = ValueError) -> float:
    """``value`` as a float, -0.0 as +0.0; raise ``error``, its message
    beginning with ``key``, unless ``value`` is a number, bools (numpy's too)
    aside, and finite: not NaN, infinite or an int beyond any float."""
    try:
        finite = _isfinite(value)
    except TypeError:
        raise error(f"{key}: expected a number, got {brief_repr(value)}") from None
    except OverflowError:  # an int no float can hold; its repr may run to any length
        raise error(f"{key}: expected a finite number, got an integer "
                    f"too large for a float") from None
    except ValueError:  # a signaling NaN, which no float holds
        raise error(f"{key}: expected a finite number, got {brief_repr(value)}") from None
    if not finite:  # shown as the float it is, numpy's too
        raise error(f"{key}: expected a finite number, got {float(value)!r}")
    return float(value) + 0.0  # -0.0 + 0.0 is +0.0, and any other float is itself


def _isfinite(value) -> bool:
    """``math.isfinite(value)``, but a bool, numpy's too, is no number: a
    TypeError, as for any other value that is no number."""
    # numpy's bool exists only once numpy is imported, and a float is no bool
    numpy = sys.modules.get("numpy") if type(value) is not float else None
    bools = (bool, numpy.bool_) if numpy else bool
    return math.isfinite(None if isinstance(value, bools) else value)


def require_kind(key: str, value, kinds: tuple[str, ...], error: type[Exception] = ValueError):
    """``value``; raise ``error``, its message beginning with ``key``, unless
    it is a string and one of ``kinds``: a numpy array's ``==`` is no bool."""
    if not (isinstance(value, str) and value in kinds):
        raise error(f"{key}: expected one of {', '.join(kinds)}, got {brief_repr(value)}")
    return value


def require_unread(owner, section: str, fields: dict[str, str]) -> None:
    """Store each field of ``owner`` that ``fields`` maps a key to as its class
    default; raise a ValueError ``<key>: not read by <kind> <section>`` unless
    it holds that default, as a number (bools aside) or the empty tuple: never
    an array, whose ``==`` is no bool."""
    for key, name in fields.items():
        default, value = getattr(type(owner), name), getattr(owner, name)
        if isinstance(value, bool) or not (isinstance(value, (tuple, numbers.Real))
                                           and value == default):
            raise ValueError(f"{key}: not read by {owner.kind} {section}")
        object.__setattr__(owner, name, default)


def brief_repr(value) -> str:
    """``repr(value)`` cut short as ``reprlib`` cuts it, but one level deep:
    the first six entries of a list, each nested list as ``[...]``, a long
    string's two ends, so that a message stays one short line."""
    import reprlib

    brief = reprlib.Repr()
    brief.maxlevel = 1  # set, not passed: Repr takes keywords from Python 3.12
    return brief.repr(value)


def require_positive(key: str, value: float, error: type[Exception] = ValueError) -> float:
    """``require_finite``, then raise ``error`` unless ``value`` is above zero."""
    value = require_finite(key, value, error)
    if value <= 0:
        raise error(f"{key} must be positive")
    return value


def require_steps(horizon: float, dt: float, section: str = "",
                  error: type[Exception] = ValueError) -> tuple[int, float, float]:
    """``(n_steps, horizon, dt)``, the steps of ``dt`` in ``horizon`` and both
    as floats; raise ``error``, its message beginning with ``section``, unless
    both are positive, the count is at most ``MAX_STEPS`` and it is at least
    one and a whole number to within a millionth of itself."""
    where, key = (f"{section}: ", f"{section}.") if section else ("", "")
    dt = require_positive(f"{key}dt", dt, error)
    horizon = require_positive(f"{key}horizon", horizon, error)
    n = horizon / dt
    if n > MAX_STEPS:
        raise error(f"{where}horizon {horizon:g} / dt {dt:g} gives {n:.3g} steps, "
                    f"more than the cap of {MAX_STEPS}")
    if abs(n - round(n)) > 1e-6 * max(1.0, n) or round(n) < 1:
        raise error(f"{key}dt: step size {dt:g} does not divide the horizon {horizon:g} evenly")
    return round(n), horizon, dt


def stored(value):
    """``value`` in the one form a checked scenario value is stored in: None
    as it is, a number as a float, -0.0 as +0.0 (as ``require_finite``
    returns it), and an array (numpy's too) as nested tuples of floats, so
    that equal values compare, hash and print equal."""
    if value is None:
        return None
    try:
        return float(value) + 0.0
    except TypeError:  # a sequence, numpy's arrays included
        return tuple(map(stored, value))


def _float_array(key: str, value, what: str, *shapes: tuple):
    """``value`` as a float or as nested lists of floats, or a ValueError
    ``<key>: expected <what>, got …`` unless it has one of ``shapes``, where
    None stands for any length.  A sequence (not a string nor bytes) is read
    entry by entry, a numpy array as its entries, each number by ``require_finite``,
    never past an entry no shape takes; a list of rows of an accepted length
    is shown by its first bad row, and any value no deeper than a shape."""
    value = _entries(value)
    for floats in (_fit(key, value, shape) for shape in shapes):
        if floats is not None:
            return floats
    for shape in shapes:
        if len(shape) == 2 and _is_sequence(value) and shape[0] in (None, len(value)):
            i = next(i for i, row in enumerate(value) if _fit(key, row, shape[1:]) is None)
            raise ValueError(f"{key}: expected {what}, got {_shown(value[i], 1)} at row {i}")
    raise ValueError(f"{key}: expected {what}, got {_shown(value, max(map(len, shapes)))}")


def _entries(value):
    """A numpy array as the list of its entries, numpy scalars or rows, so
    that a message shows each as the tuple path does (``np.True_``, not
    ``True``), a 0-d array as its numpy scalar, and any other value as it is."""
    ndim = getattr(value, "ndim", None)
    if ndim is None:
        return value
    return list(value) if ndim else value[()]


def _is_sequence(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray))


def _fit(key: str, value, shape: tuple):
    """``value`` read as ``shape``, or None at its first entry of another shape."""
    value = _entries(value)
    if not _is_sequence(value):
        return None if shape else require_finite(key, value)
    if not shape or shape[0] not in (None, len(value)):
        return None
    floats = []
    for entry in value:
        floats.append(_fit(key, entry, shape[1:]))
        if floats[-1] is None:
            return None
    return floats


def _shown(value, levels: int) -> str:
    """``value`` as ``brief_repr`` shows it, its numbers as floats, as
    ``require_finite`` shows them, but only ``levels`` deep: a deeper
    sequence shows as ``[...]``."""
    value = _entries(value)
    if _is_sequence(value):
        if not levels:
            return "[...]" if len(value) else "[]"
        entries = [_shown(entry, levels - 1) for entry in itertools.islice(value, 7)]
        return f"[{', '.join(entries[:6] + ['...'] * (len(entries) > 6))}]"
    try:
        _isfinite(value)
    except (TypeError, OverflowError, ValueError):  # no number, or none a float holds
        return brief_repr(value)
    return repr(float(value) + 0.0)  # -0.0 as +0.0, and nan or an infinity as itself
