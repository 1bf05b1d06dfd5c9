"""Binary logit lane choice for single-occupancy vehicles.

An SOV pays to use the HOT lanes with probability given by a logit model of
the toll against the value of the queuing time saved.  A multiplicative
disturbance on the value of time captures driver heterogeneity and detection
noise; it perturbs only the drivers' decisions, never the operator's
measurements.

``engine.run_closed_loop`` evaluates the logistic of ``paying_demand`` in
its own step loop, with the same operations in the same order;
``paying_demand`` is its bit-for-bit reference.  The loop still calls
``sample_eta`` for each step's draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import traffic
from .errors import require_finite, require_positive

NOISE_KINDS = ("none", "uniform")


@dataclass(frozen=True)
class BehaviorParams:
    """True population parameters of the lane-choice model."""

    vot: float    # average value of time, $/min
    scale: float  # logit scale, 1/$

    def __post_init__(self) -> None:
        for key in ("vot", "scale"):
            require_positive(key, getattr(self, key))


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the per-step multiplicative choice disturbance."""

    kind: str = "none"
    half_width: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"kind: expected one of {', '.join(NOISE_KINDS)}, "
                             f"got {self.kind!r}")
        require_finite("half_width", self.half_width)
        if not 0.0 <= self.half_width < 1.0:
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


def induced_residual_capacity(
    c1: float,
    q1: float,
    q2: float,
    u: float,
    w: float,
    eta: float,
    params: BehaviorParams,
) -> float:
    """Residual HOT capacity left once drivers respond to the quoted price."""
    return traffic.residual_capacity(c1, q1, paying_demand(q2, u, w, eta, params))


def sample_eta(noise: NoiseSpec, rng: np.random.Generator) -> float:
    """Draw one choice disturbance from the run's random stream."""
    if noise.kind == "none":
        return 0.0
    # numpy's uniform(low, high) is exactly low + (high - low) * random(),
    # so this consumes the stream and rounds as uniform does, at a third of
    # the cost of a scalar uniform call
    low, high = -noise.half_width, noise.half_width
    return low + (high - low) * rng.random()
