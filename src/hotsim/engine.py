"""Closed-loop simulation engine.

Wires the point-queue dynamics, the logit lane choice, and a pricing
controller into one discrete feedback loop and records every step.  The
per-step sequence is fixed:

1. queuing times from the current queues;
2. demand rates read, and the price law's demand term formed from them,
   only at a step where they may have changed: step 0, and then the first
   step at or past the time until which the last read's rates hold.  Poisson
   demand is drawn anew at every step, by the loop itself, as
   ``demand_at`` draws it; a constant or timeseries profile is read through
   ``demand_at``, which returns that time with the rates (each later
   breakpoint reached for a timeseries);
3. choice disturbance drawn by the loop itself, as ``choice.sample_eta``
   draws it (once per run, as 0, without noise);
4. price quoted from the controller's current state and the delay;
5. paying demand and residual capacity from the lane-choice model;
6. throughputs recorded, with the controller's current VOT estimate;
7. controller updated with the same-step observation;
8. queues advanced.

The loop does the plant's arithmetic of steps 1, 5, 6 and 8 itself.  It
makes the IEEE operations of ``traffic.queuing_times``,
``choice.paying_demand``, ``traffic.residual_capacity``,
``traffic.throughputs`` and ``traffic.step_point_queues`` in their order,
so those kernels are its bit-for-bit reference (``analysis`` calls the
first three to seed the reduced model).  It makes the draws of steps 2 and
3 itself too, the same calls on the run's ``Draws`` in the same order, so
``demand_at`` and ``choice.sample_eta`` are their bit-for-bit references.
``tests/test_engine.py::reference_run_closed_loop`` is the run that calls
every reference the loop mirrors.  Each clamp is a statement, such
as ``if hot < g1: g1 = hot``, which picks the operand that the kernel's
comparison expression picks, -0.0 and nan included, and stores only when it
fires.  The loop has no floor for g1, the one clamp that cannot fire: q1,
q3 and the HOT queue are never negative, so the residual capacity is at
most the HOT capacity and g1 is at least +0.0, or nan, which the kernel's
floor leaves as it is (``tests/test_traffic.py`` holds the property).

A run whose controller is exactly a ``pricing.VotFeedbackController``, the
paper's controller, does that controller's arithmetic of steps 2, 4 and 7
itself as well, its estimate kept in the local ``pi``: at a priced read
the demand term ``choice.clearing_log_odds(q1, q2, c1) / scale_guess``,
at each priced step the quote ``pi * w + split`` and then the Euler step
``pi += dt * (queue_gain * lambda1 - residual_gain * zeta)``.  These are
the operations of its ``set_demand``, ``quote`` and ``observe`` in their
order, so those methods are its bit-for-bit reference, and
``clearing_log_odds`` still alone decides the congested regime.  The loop
chooses this once per run, from the built controller's type.  Any other
controller, a subclass of that one included, is called: ``set_demand`` at
a priced read, ``quote`` and ``observe`` at each priced step, and its
estimate is read into ``pi`` after each ``observe``.  So a vot step makes
no Python call but, at a read, ``demand_at`` unless the demand is Poisson,
and ``clearing_log_odds`` when it prices; a Poisson or noisy step calls
only ``Draws.poisson`` and ``Draws.raw``, numpy's own methods, for its
draws.  A ``timeseries`` step before the next breakpoint would read the
sample the last read got, so it reads none: the breakpoints reached, not the
steps, count a timeseries run's reads.

The terms that depend only on the demand and the disturbance are formed once
per read, where ``q1``, ``q2`` and ``eta`` are read (once per run for
constant demand and noise ``none``): ``c1 - q1`` of
``traffic.residual_capacity``, ``q1 + q2 - c1`` of ``traffic.throughputs``,
``q1 + q2 - c2 - c1`` of ``traffic.step_point_queues`` and
``(1 + eta) * vot`` of ``choice.paying_demand``.  Each is the left-most part
of its kernel's expression, so every operation keeps its order and its
bits.  The flag ``priced``, ``q2 > 0``, is set at each read too: it decides
whether a step forms the demand term, quotes, runs the logistic and
updates the controller.  The step time is a float counter times ``dt``,
exact as ``k * dt`` below 2**53 steps.

The final state at ``t = horizon`` is computed and recorded without a
further controller or queue update, so a run of ``horizon / dt`` steps
yields ``horizon / dt + 1`` rows.  Each run that draws (Poisson demand or
choice noise) owns a single seeded random stream, one ``Draws`` on
``np.random.default_rng(seed)``: PCG64 seeded through numpy's
``SeedSequence``.  The Poisson demand comes from that generator's
``poisson``; the disturbance is formed from one 64-bit integer of PCG64's
raw stream, bit for bit the ``uniform`` numpy's generator would return.
The loop binds those two calls once per run and, for Poisson demand only,
forms the profile's two means once as float64 0-d arrays, which
``Generator.poisson`` takes without converting them at each call.  The
per-step draw order (HOV demand, SOV demand, disturbance) never varies, so
runs with the same seed see identical demand realizations regardless of the
controller.  A run that draws nothing builds no stream.  The config
checks its seed when built, and ``run_closed_loop`` a ``seed`` override.

A run builds only what is read.  The loop extends one flat, row-major list
of floats by each step's values, and ``Trajectory``, whose one constructor
takes that list, keeps it as it is, so a kept run holds no object per step;
the CSV formats those floats in one ``bytes`` %-format, ``column`` builds a
fresh array from every 13th value on each read, and ``summarize`` builds
only the columns it reduces over.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .choice import clearing_log_odds
from .errors import (ConfigError, HotSimError, NonFiniteResultError, _float_array, brief_repr,
                     require_finite, require_kind, require_unread)
from .pricing import VotFeedbackController

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
    ``samples`` as a tuple of float triples; ``sample_times``, the times in
    order (``()`` unless ``timeseries``), is set then too, not a field.
    """

    kind: str = "constant"
    mean_hov: float = 10.0
    mean_sov: float = 60.0
    samples: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        # each message begins with the scenario key it rejects
        require_kind("kind", self.kind, DEMAND_KINDS)
        times = ()  # the breakpoint times, in order: a timeseries profile's only
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
            times = tuple(s[0] for s in self.samples)
            if not all(a < b for a, b in zip(times, times[1:])):
                raise ValueError("samples: timeseries sample times must be strictly increasing")
            if not all(s[1] >= 0 and s[2] >= 0 for s in self.samples):
                raise ValueError("samples: demand rates cannot be negative")
            if times[0] > 0.0:  # a run reads the demand from t = 0
                raise ValueError("samples: first sample must start at t <= 0")
        # last, after the rules of what is read
        require_unread(self, "demand", UNREAD_DEMAND_KEYS[self.kind])
        object.__setattr__(self, "sample_times", times)


class Draws:
    """The single seeded random stream of one run that draws.

    Built on ``np.random.default_rng(seed)``, so the seed goes through
    numpy's ``SeedSequence`` to a PCG64 bit generator.  ``poisson`` is the
    generator's bound ``Generator.poisson``; ``raw`` is its bit generator's
    bound ``random_raw``, one 64-bit integer of PCG64's stream per call, from
    which ``choice.sample_eta`` forms a uniform draw.  It holds no mean:
    ``demand_at`` draws at its profile's own.  ``run_closed_loop`` reads the
    two calls once per run and makes them in its step loop.
    """

    def __init__(self, seed: int) -> None:
        import numpy as np

        rng = np.random.default_rng(seed)
        self.poisson = rng.poisson
        self.raw = rng.bit_generator.random_raw


def demand_at(profile: DemandProfile, t: float,
              draws: Draws | None) -> tuple[float, float, float]:
    """Demand rates (HOV, SOV) in veh/min for the step starting at ``t``, and
    the time from which a read may give other rates: never (inf) for
    ``constant``; ``t`` itself for ``poisson``, which draws anew at every
    read; for ``timeseries`` the first sample time after ``t``, or inf past
    the last.  Only ``poisson`` demand draws, at the profile's means from the
    run's stream ``draws``, which it needs: a ValueError otherwise."""
    if profile.kind == "poisson":  # first: the one kind a run reads at every step
        if not isinstance(draws, Draws):
            raise ValueError("demand_at: poisson demand needs the run's Draws, "
                             f"got {type(draws).__name__}")
        return float(draws.poisson(profile.mean_hov)), float(draws.poisson(profile.mean_sov)), t
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
        """One entry per recorded step, as a new float64 array on each call;
        a ValueError that lists the ``STATE_FIELDS`` unless ``name`` is one."""
        import numpy as np

        start = _INDEX.get(name) if isinstance(name, str) else None
        if start is None:
            require_kind("column", name, STATE_FIELDS)
        return np.fromiter(self._values[start::_WIDTH], float, len(self))

    def values(self) -> list:
        """The stored flat list, every step's ``STATE_FIELDS`` values in
        order: not a copy, so a reader must not change it."""
        return self._values


@dataclass(frozen=True)
class SummaryMetrics:
    """Scalar descriptors derived from one trajectory, each None or the float
    ``require_finite`` returns, which names the first non-finite one."""

    avg_g1: float
    final_u: float
    final_pi: float | None
    max_lambda1: float
    final_lambda1: float
    time_to_zero_queue: float | None
    pi_rmse_tail: float | None

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value is not None:
                object.__setattr__(self, name, require_finite(
                    f"summary metric {name}", value, NonFiniteResultError))

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
    run_seed = config.seed if seed is None else check_seeds(seed, 1)[0]
    poisson_demand, noise_varies = demand.kind == "poisson", noise.kind != "none"
    # only Poisson demand and choice noise draw; a run with neither builds no stream
    draws = Draws(run_seed) if poisson_demand or noise_varies else None
    controller = config.controller.build(caps)
    lambda1, lambda2 = config.initial_hot_queue, config.initial_gp_queue
    has_pi = controller.vot_estimate is not None
    # the recorded estimate: a local, read again after each controller update
    pi = controller.vot_estimate if has_pi else math.nan
    # the plant's arithmetic, the draws and the vot price law are written out
    # below, each line as its reference does it (a kernel in ``traffic`` or
    # ``choice``, ``demand_at``, ``choice.sample_eta`` or the
    # ``set_demand``, ``quote`` and ``observe`` of VotFeedbackController):
    # a call costs about as much as the few operations it would run
    hot, gp = caps.hot, caps.gp
    scale, vot = behavior.scale, behavior.vot
    exp, nan = math.exp, math.nan
    # only that exact class runs inline; any other controller, a subclass of
    # it included, is called through methods bound once per run, after any
    # replacement of them
    vot_law = type(controller) is VotFeedbackController
    if vot_law:
        queue_gain, residual_gain = controller.queue_gain, controller.residual_gain
        scale_guess = controller.scale_guess
        split = nan  # the demand term, nan until the first priced read sets it
    set_demand, quote, observe = controller.set_demand, controller.quote, controller.observe
    if draws is not None:  # the calls of demand_at and sample_eta
        poisson, raw = draws.poisson, draws.raw
    if poisson_demand:  # demand_at's means, as Generator.poisson takes them unconverted
        mean_hov = np.array(demand.mean_hov, dtype=np.float64)
        mean_sov = np.array(demand.mean_sov, dtype=np.float64)
    # choice.sample_eta: 0 without noise, so read once per run, here; with
    # uniform noise, low + (high - low) * random() at every step
    eta = 0.0
    weight = (1.0 + eta) * vot  # choice.paying_demand
    low = -noise.half_width
    span = noise.half_width - low
    # step 0 reads the demand; a later step reads it again once t reaches
    # ``change``, the time until which the last read's rates hold
    change = 0.0

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
                # operations keep their order; ``priced`` is set here too,
                # as only q2 decides whether a step has SOVs to price
                if t >= change:
                    if poisson_demand:  # demand_at: a draw at every read
                        q1 = float(poisson(mean_hov))
                        q2 = float(poisson(mean_sov))
                        change = t
                    else:
                        q1, q2, change = demand_at(demand, t, draws)
                    priced = q2 > 0.0
                    total = q1 + q2
                    spare = hot - q1  # traffic.residual_capacity
                    gp_inflow = total - hot  # traffic.throughputs
                    gp_excess = total - gp - hot  # traffic.step_point_queues
                    if priced:
                        if vot_law:  # VotFeedbackController.set_demand
                            split = clearing_log_odds(q1, q2, hot) / scale_guess
                        else:
                            set_demand(q1, q2)
                if noise_varies:
                    # choice.sample_eta: PCG64's next double on the raw stream
                    eta = low + span * ((raw() >> 11) * 2.0**-53)
                    weight = (1.0 + eta) * vot  # choice.paying_demand
                if priced:
                    if vot_law:  # VotFeedbackController.quote
                        u = pi * w + split
                    else:
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
                # traffic.throughputs, each clamp a statement that stores
                # only when it fires; no floor for g1, as q1, q3 and lambda1
                # are >= 0, so zeta <= hot and g1 is >= +0.0 or nan
                g1 = hot - zeta + lambda1 / dt
                if hot < g1:
                    g1 = hot
                g2 = gp_inflow + zeta + lambda2 / dt
                if gp < g2:
                    g2 = gp
                if 0.0 > g2:  # by rounding, when all SOVs pay and the GP queue is empty
                    g2 = 0.0
                values += (t, lambda1, lambda2, zeta, w, pi, u, g1, g2, q1, q2, q3, eta)
                if k == n_steps:
                    break
                if priced:
                    if vot_law:  # VotFeedbackController.observe: one Euler step
                        pi += dt * (queue_gain * lambda1 - residual_gain * zeta)
                    else:
                        observe(dt, lambda1, zeta, w, u, q1, q2, q3)
                        if has_pi:
                            pi = controller.vot_estimate
                # traffic.step_point_queues
                lambda1 = -zeta * dt + lambda1
                if 0.0 > lambda1:
                    lambda1 = 0.0
                lambda2 = (gp_excess + zeta) * dt + lambda2
                if 0.0 > lambda2:
                    lambda2 = 0.0
        except HotSimError as exc:
            raise type(exc)(f"step {k} (t={t:.6g} min): {exc}") from exc

    return Trajectory(values, has_pi=has_pi)


def summarize(traj: Trajectory, pi_star: float) -> SummaryMetrics:
    """Scalar metrics of one trajectory against the true average VOT.

    Builds the two columns it reduces over, ``lambda1`` and ``g1``, and the
    tail of ``pi``, and reads ``t`` and ``u`` at one step each, by their
    offsets in the trajectory's flat list.  ``SummaryMetrics`` raises
    NonFiniteResultError, naming the first metric in ``as_dict`` order, when
    a metric is infinite or NaN.
    """
    import numpy as np

    n, values = len(traj), traj.values()
    if not n:
        raise ValueError("cannot summarize an empty trajectory")
    lambda1 = traj.column("lambda1")
    g1 = traj.column("g1")
    last = (n - 1) * _WIDTH  # the offset of the last step

    # first time after which the HOT queue stays (numerically) empty
    time_to_zero: float | None = None
    if lambda1[-1] < ZERO_QUEUE_TOL:
        above = np.flatnonzero(~(lambda1 < ZERO_QUEUE_TOL))  # nan counts as above
        step = int(above[-1]) + 1 if above.size else 0
        time_to_zero = values[step * _WIDTH + _INDEX["t"]]

    with np.errstate(over="ignore", invalid="ignore"):
        rmse = None
        if traj.has_pi:
            tail = 3 * n // 4  # the first step of the tail
            pi_tail = np.fromiter(values[tail * _WIDTH + _INDEX["pi"]::_WIDTH], float, n - tail)
            rmse = np.sqrt(np.mean((pi_tail - pi_star) ** 2))
        return SummaryMetrics(
            avg_g1=g1.mean(),
            final_u=values[last + _INDEX["u"]],
            final_pi=values[last + _INDEX["pi"]] if traj.has_pi else None,
            max_lambda1=lambda1.max(),
            final_lambda1=lambda1[-1],
            time_to_zero_queue=time_to_zero,
            pi_rmse_tail=rmse,
        )
