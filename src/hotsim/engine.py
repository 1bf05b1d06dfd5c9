"""Closed-loop simulation engine.

Wires the point-queue dynamics, the logit lane choice, and a pricing
controller into one discrete feedback loop and records every step.  The
per-step sequence is fixed:

1. queuing times from the current queues;
2. demand rates read from the profile, and handed to the controller's
   ``set_demand``, only at a step where they may have changed: step 0, and
   then the first step at or past the time until which the last read's
   rates hold, which ``demand_at`` returns with them (every step for Poisson
   demand, each later breakpoint reached for a timeseries);
3. choice disturbance drawn (read once per run, as 0, without noise);
4. price quoted by the controller from its current state and the delay;
5. paying demand and residual capacity from the lane-choice model;
6. throughputs recorded;
7. controller updated with the same-step observation;
8. queues advanced.

The loop does the plant's arithmetic of steps 1, 5, 6 and 8 itself.  It
makes the IEEE operations of ``traffic.queuing_times``,
``choice.paying_demand``, ``traffic.residual_capacity``,
``traffic.throughputs`` and ``traffic.step_point_queues`` in their order,
comparison clamps included, so those kernels are its bit-for-bit reference
(``tests/test_engine.py`` holds a run that calls them; ``analysis`` calls
the first three to seed the reduced model).  The only calls left
in a step are the controller's ``quote`` and ``observe``, and, at a step that
reads them, ``demand_at`` with ``set_demand`` and ``choice.sample_eta``.  A
``timeseries`` step before the next breakpoint would read the sample the
last read got, so it reads none: the breakpoints reached, not the steps,
count a timeseries run's reads.

The terms that depend only on the demand and the disturbance are formed once
per read, where ``q1``, ``q2`` and ``eta`` are read (once per run for
constant demand and noise ``none``): ``c1 - q1`` of
``traffic.residual_capacity``, ``q1 + q2 - c1`` of ``traffic.throughputs``,
``q1 + q2 - c2 - c1`` of ``traffic.step_point_queues`` and
``(1 + eta) * vot`` of ``choice.paying_demand``.  Each is the left-most part
of its kernel's expression, so every operation keeps its order and its
bits.  The step time is a float counter times ``dt``, exact as ``k * dt``
below 2**53 steps.

The final state at ``t = horizon`` is computed and recorded without a
further controller or queue update, so a run of ``horizon / dt`` steps
yields ``horizon / dt + 1`` rows.  Each run that draws (Poisson demand or
choice noise) owns a single seeded random stream, one ``Draws`` on
``np.random.default_rng(seed)``: PCG64 seeded through numpy's
``SeedSequence``.  The Poisson demand comes from that generator's
``poisson``; the disturbance is formed from one 64-bit integer of PCG64's
raw stream, bit for bit the ``uniform`` numpy's generator would return.  The
per-step draw order (HOV demand, SOV demand, disturbance) never varies, so
runs with the same seed see identical demand realizations regardless of the
controller.  A run that draws nothing builds no stream, though its seed is
still checked.

A run builds only what is read.  The loop extends one flat, row-major list
of floats by each step's values, and ``Trajectory``, whose one constructor
takes that list, keeps it as it is, so a kept run holds no object per step;
the CSV formats those floats in one pass, ``column`` builds a fresh array
from every 13th value on each read, and ``summarize`` builds only the
columns it reduces over.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING

from . import choice
from .errors import (ConfigError, HotSimError, NonFiniteResultError, _float_array, brief_repr,
                     require_finite, require_kind, require_unread)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .config import ScenarioConfig

# each demand kind -> the keys of the demand section it does not read, each to
# its DemandProfile field; DemandProfile, the scenario parser and
# ScenarioConfig.to_mapping all read this table
UNREAD_DEMAND_KEYS = {"constant": {"samples": "samples"}, "poisson": {"samples": "samples"},
                      "timeseries": {"hov": "mean_hov", "sov": "mean_sov"}}
DEMAND_KINDS = tuple(UNREAD_DEMAND_KEYS)
# numpy's largest Poisson mean, its POISSON_LAM_MAX, in plain Python
POISSON_MEAN_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
ZERO_QUEUE_TOL = 1e-6


@dataclass(frozen=True)
class DemandProfile:
    """Arrival-rate generator for HOV and SOV traffic, read by ``demand_at``.

    ``constant`` gives the means; ``poisson`` draws both rates anew at each
    read from Poisson distributions with those means (veh/min, at most
    ``POISSON_MEAN_MAX``); ``timeseries`` holds ``(t, hov, sov)`` breakpoints
    interpreted as a step function, the first at t <= 0.  A field whose key
    the kind does not read (``UNREAD_DEMAND_KEYS``) must hold its default, as
    it would not be read: ``samples`` the empty tuple under ``constant`` or
    ``poisson``, and each mean its default number under ``timeseries``; it is
    stored as that default.  The means a kind reads are stored as floats, and
    ``samples`` as a tuple of float triples.
    """

    kind: str = "constant"
    mean_hov: float = 10.0
    mean_sov: float = 60.0
    samples: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        # each message begins with the scenario key it rejects
        require_kind("kind", self.kind, DEMAND_KINDS)
        if self.kind != "timeseries":
            for key, name in (("hov", "mean_hov"), ("sov", "mean_sov")):
                rate = require_finite(key, getattr(self, name))
                object.__setattr__(self, name, rate)
                if rate < 0:
                    raise ValueError(f"{key} cannot be negative")
                if self.kind == "poisson" and rate > POISSON_MEAN_MAX:
                    raise ValueError(f"{key}: a Poisson mean must be at most "
                                     f"{POISSON_MEAN_MAX:g} veh/min, got {rate:g}")
        else:
            samples = _float_array("samples", self.samples, "rows of three numbers", (None, 3))
            if not samples:
                raise ValueError("samples: timeseries demand needs at least one sample")
            object.__setattr__(self, "samples", tuple(map(tuple, samples)))
            times = self.sample_times
            if not all(a < b for a, b in zip(times, times[1:])):
                raise ValueError("samples: timeseries sample times must be strictly increasing")
            if not all(s[1] >= 0 and s[2] >= 0 for s in self.samples):
                raise ValueError("samples: demand rates cannot be negative")
            if times[0] > 0.0:  # a run reads the demand from t = 0
                raise ValueError("samples: first sample must start at t <= 0")
        # last, after the rules of what is read
        require_unread(self, "demand", UNREAD_DEMAND_KEYS[self.kind])

    @cached_property
    def sample_times(self) -> tuple[float, ...]:
        """Breakpoint times of a ``timeseries`` profile, in order."""
        return tuple(s[0] for s in self.samples)


class Draws:
    """The single seeded random stream of one run that draws.

    Built on ``np.random.default_rng(seed)``, so the seed goes through
    numpy's ``SeedSequence`` to a PCG64 bit generator.  ``poisson`` is the
    generator's bound ``Generator.poisson``; ``raw`` is its bit generator's
    bound ``random_raw``, one 64-bit integer of PCG64's stream per call, from
    which ``choice.sample_eta`` forms a uniform draw.  ``mean_hov`` and
    ``mean_sov`` are ``demand``'s two means as float64 0-d arrays, which
    ``Generator.poisson`` takes without converting them on every call; only
    ``demand_at`` on a ``poisson`` profile reads them, and only for the
    profile ``demand``, which a ``Draws`` keeps, or one equal to it.
    """

    def __init__(self, seed: int, demand: DemandProfile) -> None:
        import numpy as np

        rng = np.random.default_rng(seed)
        self.poisson = rng.poisson
        self.raw = rng.bit_generator.random_raw
        self.demand = demand
        self.mean_hov = np.array(demand.mean_hov, dtype=np.float64)
        self.mean_sov = np.array(demand.mean_sov, dtype=np.float64)


def demand_at(profile: DemandProfile, t: float,
              draws: Draws | None) -> tuple[float, float, float]:
    """Demand rates (HOV, SOV) in veh/min for the step starting at ``t``, and
    the time from which a read may give other rates: never (inf) for
    ``constant``; ``t`` itself for ``poisson``, which draws anew at every
    read; for ``timeseries`` the first sample time after ``t``, or inf past
    the last.  Only ``poisson`` demand draws, from ``draws``, which must be
    built with ``profile`` (or an equal one): a ValueError otherwise."""
    if profile.kind == "poisson":  # first: the one kind a run reads at every step
        # identity first, so a run's every read skips the field-wise compare
        if draws is None or (draws.demand is not profile and draws.demand != profile):
            raise ValueError("demand_at: a poisson profile needs the Draws built with it")
        return float(draws.poisson(draws.mean_hov)), float(draws.poisson(draws.mean_sov)), t
    if profile.kind == "constant":
        return profile.mean_hov, profile.mean_sov, math.inf
    times = profile.sample_times
    idx = bisect.bisect_right(times, t)  # the samples at or before t
    if idx == 0:
        raise ConfigError(
            f"timeseries demand starts at t={times[0]:g} min, after the "
            f"requested time t={t:g} min"
        )
    _, hov, sov = profile.samples[idx - 1]
    return hov, sov, times[idx] if idx < len(times) else math.inf


STATE_FIELDS = (
    "t", "lambda1", "lambda2", "zeta", "w", "pi", "u",
    "g1", "g2", "q1", "q2", "q3", "eta",
)
_INDEX = {name: i for i, name in enumerate(STATE_FIELDS)}
_WIDTH = len(STATE_FIELDS)


class Trajectory:
    """Recorded steps of one run, kept as one flat, row-major list of floats.

    ``values`` holds a value for every ``STATE_FIELDS`` entry per step, in
    that order, the form the step loop makes; it is kept as it is, not
    copied, and is a ValueError unless it holds whole rows.  ``has_pi`` says
    whether the run's controller keeps a VOT estimate: ``pi`` is that
    estimate, which may itself be nan, and nan when the strategy has none.
    """

    def __init__(self, values: list, *, has_pi: bool) -> None:
        if len(values) % _WIDTH:
            raise ValueError(f"{len(values)} values are no whole number of rows of {_WIDTH}")
        self._values, self.has_pi = values, has_pi

    def __len__(self) -> int:
        return len(self._values) // _WIDTH

    def column(self, name: str) -> np.ndarray:
        """One entry per recorded step, as a new float64 array on each call."""
        import numpy as np

        return np.fromiter(self._values[_INDEX[name]::_WIDTH], float, len(self))

    def values(self) -> list:
        """The stored flat list, every step's ``STATE_FIELDS`` values in
        order: not a copy, so a reader must not change it."""
        return self._values


@dataclass(frozen=True)
class SummaryMetrics:
    """Scalar descriptors derived from one trajectory."""

    avg_g1: float
    final_u: float
    final_pi: float | None
    max_lambda1: float
    final_lambda1: float
    time_to_zero_queue: float | None
    pi_rmse_tail: float | None

    def as_dict(self) -> dict:
        """The metrics by field name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def check_seeds(seed: int, count: int) -> tuple[int, int]:
    """``(seed, count)`` as Python ints, or a ConfigError unless both are
    integers (numpy's included, bools not) and every run's seed, ``seed + i``
    for run ``i``, is an unsigned 64-bit integer, as numpy's generators take."""
    checked = []
    for key, value in (("run.seed", seed), ("run.replications", count)):
        try:  # a bool is no integer: operator.index rejects None
            checked.append(operator.index(None if isinstance(value, bool) else value))
        except TypeError:
            raise ConfigError(f"{key}: expected an integer, got {brief_repr(value)}") from None
    seed, count = checked
    if not 0 <= seed <= 2**64 - count:  # more than 2**64 runs fail at any seed
        key, value = ("run.seed", seed) if count <= 2**64 else ("run.replications", count)
        if abs(value) >= 2**64:  # not printed: its digits may run to any length
            raise ConfigError(f"{key}: a {abs(value).bit_length()}-bit integer reaches "
                              f"beyond the unsigned 64-bit seeds")
        raise ConfigError(f"{key}: seeds {seed} to {seed + count - 1} of {count} run(s) "
                          f"must be unsigned 64-bit integers")
    return seed, count


def run_closed_loop(config: "ScenarioConfig", seed: int | None = None) -> Trajectory:
    """Simulate one closed-loop run and return its trajectory.

    ``seed`` overrides the configured seed (used for replications).
    Controller and demand errors are re-raised with the step index attached.
    """
    import numpy as np

    caps, dt, n_steps = config.capacities, config.dt, config.n_steps
    demand, noise, behavior = config.demand, config.noise, config.behavior
    run_seed, _ = check_seeds(config.seed if seed is None else seed, 1)
    noise_varies = noise.kind != "none"
    # only Poisson demand and choice noise draw; a run with neither builds no stream
    draws = Draws(run_seed, demand) if demand.kind == "poisson" or noise_varies else None
    controller = config.controller.build(caps)
    lambda1, lambda2 = config.initial_hot_queue, config.initial_gp_queue
    has_pi = controller.vot_estimate is not None
    # bound once per run, after any replacement of the module attributes
    set_demand, quote, observe = controller.set_demand, controller.quote, controller.observe
    sample_eta = choice.sample_eta
    # the plant's arithmetic is written out below, each line as its kernel
    # in ``traffic`` or ``choice`` does it: a call costs about as much as
    # the few float operations it would run
    hot, gp = caps.hot, caps.gp
    scale, vot = behavior.scale, behavior.vot
    exp = math.exp
    # step 0 reads the demand and the disturbance.  A later step reads the
    # demand again once t reaches ``change``, the time until which the last
    # read's rates hold, and the disturbance again only when noise varies,
    # so noise "none" is read once per run
    change = 0.0
    read_eta = True

    values = []  # each step's STATE_FIELDS values, row after row
    step = 0.0  # k as a float: exact below 2**53 steps, so t is k * dt
    # overflow in a controller's numpy products gives inf or nan quietly, as
    # it does in the float arithmetic around them; summarize reports it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n_steps + 1):
                t = step * dt
                step += 1.0
                w = lambda2 / gp - lambda1 / hot  # traffic.queuing_times
                # each term below is the left-most part of its kernel's
                # expression, so it is formed once per read and the
                # operations keep their order
                if t >= change:
                    q1, q2, change = demand_at(demand, t, draws)
                    total = q1 + q2
                    spare = hot - q1  # traffic.residual_capacity
                    gp_inflow = total - hot  # traffic.throughputs
                    gp_excess = total - gp - hot  # traffic.step_point_queues
                    if q2 > 0.0:  # the demand a quote prices
                        set_demand(q1, q2)
                if read_eta:
                    eta = sample_eta(noise, draws)
                    weight = (1.0 + eta) * vot  # choice.paying_demand
                    read_eta = noise_varies
                if q2 > 0.0:
                    u = quote(w)
                    # choice.paying_demand: the sign-split logistic
                    x = scale * (u - weight * w)
                    if x >= 0.0:
                        e = exp(-x)
                        q3 = q2 * (e / (1.0 + e))
                    else:
                        q3 = q2 * (1.0 / (1.0 + exp(x)))
                else:
                    # no SOVs to price this step
                    u, q3 = 0.0, 0.0
                zeta = spare - q3  # traffic.residual_capacity
                # traffic.throughputs
                g1 = hot - zeta + lambda1 / dt
                g1 = hot if hot < g1 else g1
                g2 = gp_inflow + zeta + lambda2 / dt
                g2 = gp if gp < g2 else g2
                g1 = 0.0 if 0.0 > g1 else g1
                g2 = 0.0 if 0.0 > g2 else g2
                pi = controller.vot_estimate if has_pi else math.nan
                values += (t, lambda1, lambda2, zeta, w, pi, u, g1, g2, q1, q2, q3, eta)
                if k == n_steps:
                    break
                if q2 > 0.0:
                    observe(dt, lambda1, zeta, w, u, q1, q2, q3)
                # traffic.step_point_queues
                lambda1 = -zeta * dt + lambda1
                lambda2 = (gp_excess + zeta) * dt + lambda2
                lambda1 = 0.0 if 0.0 > lambda1 else lambda1
                lambda2 = 0.0 if 0.0 > lambda2 else lambda2
        except HotSimError as exc:
            raise type(exc)(f"step {k} (t={t:.6g} min): {exc}") from exc

    return Trajectory(values, has_pi=has_pi)


def summarize(traj: Trajectory, pi_star: float) -> SummaryMetrics:
    """Scalar metrics of one trajectory against the true average VOT.

    Builds the two columns it reduces over, ``lambda1`` and ``g1``, and the
    tail of ``pi``, and reads ``t`` and ``u`` at one step each, by their
    offsets in the trajectory's flat list.  Raises NonFiniteResultError,
    naming the first metric in ``as_dict`` order, when a metric is infinite
    or NaN.
    """
    import numpy as np

    n, values = len(traj), traj.values()
    if not n:
        raise ValueError("cannot summarize an empty trajectory")
    lambda1 = traj.column("lambda1")
    g1 = traj.column("g1")
    last = (n - 1) * _WIDTH  # the offset of the last step
    final_pi = float(values[last + _INDEX["pi"]])

    # first time after which the HOT queue stays (numerically) empty
    time_to_zero: float | None = None
    if lambda1[-1] < ZERO_QUEUE_TOL:
        above = np.flatnonzero(~(lambda1 < ZERO_QUEUE_TOL))  # nan counts as above
        step = int(above[-1]) + 1 if above.size else 0
        time_to_zero = float(values[step * _WIDTH + _INDEX["t"]])

    with np.errstate(over="ignore", invalid="ignore"):
        rmse = None
        if traj.has_pi:
            tail = 3 * n // 4  # the first step of the tail
            pi_tail = np.fromiter(values[tail * _WIDTH + _INDEX["pi"]::_WIDTH], float, n - tail)
            rmse = float(np.sqrt(np.mean((pi_tail - pi_star) ** 2)))
        metrics = SummaryMetrics(
            avg_g1=float(g1.mean()),
            final_u=float(values[last + _INDEX["u"]]),
            final_pi=final_pi if traj.has_pi else None,
            max_lambda1=float(lambda1.max()),
            final_lambda1=float(lambda1[-1]),
            time_to_zero_queue=time_to_zero,
            pi_rmse_tail=rmse,
        )
    check_finite(metrics.as_dict())
    return metrics


def check_finite(metrics: dict) -> None:
    """Raise NonFiniteResultError naming the first metric that is infinite or NaN."""
    for name, value in metrics.items():
        if value is not None and not math.isfinite(value):
            raise NonFiniteResultError(
                f"summary metric {name} is {value!r}: outside the finite range"
            )
