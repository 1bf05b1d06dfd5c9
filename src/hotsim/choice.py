"""Binary logit lane choice for single-occupancy vehicles.

An SOV pays to use the HOT lanes with probability given by a logit model of
the toll against the value of the queuing time saved.  A multiplicative
disturbance on the value of time captures driver heterogeneity and detection
noise; it perturbs only the drivers' decisions, never the operator's
measurements.

``engine.run_closed_loop`` evaluates the logistic of ``paying_demand`` in
its own step loop, with the same operations in the same order, and calls
``sample_eta`` for each step's draw; ``paying_demand`` is its bit-for-bit
reference, and ``analysis.approx_initial_zeta`` calls it to seed the
reduced model with ``traffic.residual_capacity(c1, q1, paying_demand(...))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (ScenarioAssumptionError, require_finite, require_kind, require_positive,
                     require_unread)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Draws

NOISE_KINDS = ("none", "uniform")


@dataclass(frozen=True)
class BehaviorParams:
    """True population parameters of the lane-choice model."""

    vot: float    # average value of time, $/min
    scale: float  # logit scale, 1/$

    def __post_init__(self) -> None:
        for key in ("vot", "scale"):
            object.__setattr__(self, key, require_positive(key, getattr(self, key)))


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the per-step multiplicative choice disturbance:
    ``none``, or ``uniform`` on ``[-half_width, half_width]``.  ``none``
    reads no ``half_width``, which must hold its default 0 there."""

    kind: str = "none"
    half_width: float = 0.0

    def __post_init__(self) -> None:
        require_kind("kind", self.kind, NOISE_KINDS)
        if self.kind == "none":
            require_unread(self, "noise", {"half_width": "half_width"})
            return
        half_width = require_finite("half_width", self.half_width)
        object.__setattr__(self, "half_width", half_width)
        if not 0.0 <= half_width < 1.0:
            raise ValueError("half_width must lie in [0, 1)")


def paying_demand(
    q2: float, u: float, w: float, eta: float, params: BehaviorParams
) -> float:
    """Arrival rate of paying SOVs out of total SOV demand ``q2``.

    The paying share is evaluated with the sign-split logistic so large
    exponents cannot overflow.
    """
    x = params.scale * (u - (1.0 + eta) * params.vot * w)
    if x >= 0.0:
        e = math.exp(-x)
        return q2 * (e / (1.0 + e))
    return q2 * (1.0 / (1.0 + math.exp(x)))


def clearing_log_odds(q1: float, q2: float, c1: float) -> float:
    """The logit exponent ``scale * (u - vot * w)`` at which paying SOVs fill the
    HOT capacity ``c1``: ``log((q1 + q2 - c1) / (c1 - q1))``, the demand term of
    every price law.  Only the congested regime ``q1 < c1 < q1 + q2`` has one;
    outside it, a nan demand rate included, it is a ScenarioAssumptionError."""
    if not q1 < c1:
        raise ScenarioAssumptionError(
            f"HOV demand {q1:g} veh/min saturates the HOT capacity {c1:g} veh/min")
    if not c1 < q1 + q2:
        raise ScenarioAssumptionError(f"total demand {q1 + q2:g} veh/min does not exceed the HOT "
                                      f"capacity {c1:g} veh/min; the corridor is not congested")
    return math.log((q1 + q2 - c1) / (c1 - q1))


def sample_eta(noise: NoiseSpec, draws: Draws | None) -> float:
    """Draw one choice disturbance from the run's random stream, ``draws``,
    which a uniform disturbance needs: a ValueError otherwise."""
    if noise.kind == "none":
        return 0.0
    # (raw >> 11) * 2**-53 is PCG64's next_double, written on the 64-bit
    # integer stream numpy keeps fixed, so this is bit for bit numpy's
    # uniform(low, high), low + (high - low) * random()
    low, high = -noise.half_width, noise.half_width
    try:
        return low + (high - low) * ((draws.raw() >> 11) * 2.0**-53)
    except AttributeError:  # no Draws: a guard that costs the draw nothing
        raise ValueError("sample_eta: a uniform disturbance needs the run's Draws, "
                         f"got {type(draws).__name__}") from None
