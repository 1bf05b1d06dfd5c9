"""Point-queue traffic dynamics for a corridor with HOT and GP lanes.

Two vertical queues, one per lane group, driven by the residual capacity of
the HOT lanes (capacity minus HOT-bound demand).  All rates are vehicles per
minute, queues are vehicles, and times are minutes.  The kernels take and
return plain floats: ``lambda1`` and ``lambda2`` are the HOT and GP queues.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Capacities:
    """Bottleneck discharge rates of the two lane groups (veh/min)."""

    hot: float
    gp: float

    def __post_init__(self) -> None:
        for key in ("hot", "gp"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")


def residual_capacity(c1: float, q1: float, q3: float) -> float:
    """Spare HOT discharge rate after HOV and paying-SOV demand."""
    return c1 - q1 - q3


def step_point_queues(
    lambda1: float,
    lambda2: float,
    zeta: float,
    q1: float,
    q2: float,
    caps: Capacities,
    dt: float,
) -> tuple[float, float]:
    """Advance both point queues one step of size ``dt``.

    The HOT queue drains at the residual capacity ``zeta`` and the GP queue
    absorbs whatever demand exceeds the total discharge rate; both are
    clipped at zero.
    """
    return (
        max(-zeta * dt + lambda1, 0.0),
        max((q1 + q2 - caps.gp - caps.hot + zeta) * dt + lambda2, 0.0),
    )


def throughputs(
    lambda1: float,
    lambda2: float,
    zeta: float,
    q1: float,
    q2: float,
    caps: Capacities,
    dt: float,
) -> tuple[float, float]:
    """Discharge rates of the HOT and GP lanes over the current step.

    Capped above by the capacities and below at zero; the lower clamp only
    matters for unphysical inputs since nonnegative demands cannot push the
    raw expressions negative.
    """
    g1 = min(caps.hot - zeta + lambda1 / dt, caps.hot)
    g2 = min(q1 + q2 - caps.hot + zeta + lambda2 / dt, caps.gp)
    return max(g1, 0.0), max(g2, 0.0)


def queuing_times(
    lambda1: float, lambda2: float, caps: Capacities
) -> tuple[float, float, float]:
    """Queuing delays ``(w1, w2, w)`` implied by the current queues.

    ``w = w2 - w1`` may be negative when the HOT queue exceeds the GP queue.
    """
    w1 = lambda1 / caps.hot
    w2 = lambda2 / caps.gp
    return w1, w2, w2 - w1
