"""Point-queue traffic dynamics for a corridor with HOT and GP lanes.

Two vertical queues, one per lane group, driven by the residual capacity of
the HOT lanes (capacity minus HOT-bound demand).  All rates are vehicles per
minute, queues are vehicles, and times are minutes.  The kernels take and
return plain floats: ``lambda1`` and ``lambda2`` are the HOT and GP queues.

``engine.run_closed_loop`` does this arithmetic in its own step loop, with
the same operations in the same order; these kernels are its bit-for-bit
reference and the public form of the dynamics for the analysis and for
library use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require_positive


@dataclass(frozen=True)
class Capacities:
    """Bottleneck discharge rates of the two lane groups (veh/min)."""

    hot: float
    gp: float

    def __post_init__(self) -> None:
        for key in ("hot", "gp"):
            object.__setattr__(self, key, require_positive(key, getattr(self, key)))


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
    # ``0.0 if 0.0 > x else x`` is ``max(x, 0.0)``, -0.0 and nan included,
    # at a tenth of the builtin's call cost
    hot = -zeta * dt + lambda1
    gp = (q1 + q2 - caps.gp - caps.hot + zeta) * dt + lambda2
    return 0.0 if 0.0 > hot else hot, 0.0 if 0.0 > gp else gp


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
    # comparison clamps pick the same operand as builtin min/max would
    hot, gp = caps.hot, caps.gp
    g1 = hot - zeta + lambda1 / dt
    g1 = hot if hot < g1 else g1
    g2 = q1 + q2 - hot + zeta + lambda2 / dt
    g2 = gp if gp < g2 else g2
    return 0.0 if 0.0 > g1 else g1, 0.0 if 0.0 > g2 else g2


def queuing_times(
    lambda1: float, lambda2: float, caps: Capacities
) -> tuple[float, float, float]:
    """Queuing delays ``(w1, w2, w)`` implied by the current queues.

    ``w = w2 - w1`` may be negative when the HOT queue exceeds the GP queue.
    """
    w1 = lambda1 / caps.hot
    w2 = lambda2 / caps.gp
    return w1, w2, w2 - w1
