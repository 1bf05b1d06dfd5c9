"""Machine-speed probe: a fixed interpreter workload timed next to each sample.

The reference machine is a virtual machine whose speed moves between levels
that last from seconds to minutes, up to a factor of two apart.  The guest
cannot see them: it shows no steal time, and its other vCPU is idle.  Raw
wall times of identical runs therefore spread by 20–50% between runs.  The
probe below is pure Python that does the kind of work hotsim's step loop
does (calls, small frozen dataclasses, float math, tuples, formatting) and
imports nothing from hotsim, so a change to the program cannot change it.
Each timed sample is reported at the reference speed::

    reported = measured * REFERENCE_S / mean of the probe times just before
                                        and just after the sample

With this scaling the spread between runs drops to a few percent.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

# Probe time at the fast speed level of the reference machine
# (2-vCPU Xeon VM, Python 3.11.7), where a vot run takes about 15 ms.
REFERENCE_S = 0.0035


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _step(x: float, y: float, dt: float) -> tuple[float, float]:
    return max(x - y * dt, 0.0), min(y + x * dt, 30.0)


def _kernel() -> None:
    acc = 0.0
    for i in range(1500):
        p = _Pair(i * 0.5, 1.0)
        acc += math.exp(-p.a * 1e-5) * p.b + max(p.a - 3.0, 0.0)
    x, y, rows = 1.0, 2.0, []
    for _ in range(3000):
        x, y = _step(x + 0.5, y, 1 / 60)
        rows.append((x, y))
    last, logs = {}, []
    for i in range(1000):
        p = _Pair(float(i), 2.0)
        last[i & 63] = format(p.a / 3.0, ".9g")
        logs.append(math.log1p(p.a) * p.b)


def probe() -> float:
    """Seconds one run of the probe takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale to the reference speed for a sample between two probe times."""
    return 2.0 * REFERENCE_S / (before + after)
