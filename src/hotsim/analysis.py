"""Closed-form results and convergence analysis for constant-demand scenarios.

Includes the market-clearing price under known behavior, the reduced
near-equilibrium dynamics of the HOT queue and residual capacity, the two
asymptotic decay laws (Gaussian when the queue is empty, exponential when a
queue persists), a trajectory classifier for those two patterns, a
bisection search for the gain value where the patterns switch, and the rule
for a run having reached the optimal state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .choice import clearing_log_odds, paying_demand
from .engine import run_closed_loop
from .errors import (BoundaryNotBracketedError, ConfigError, NonFiniteResultError,
                     ScenarioAssumptionError, require_finite, require_kind, require_positive,
                     require_steps)
from .traffic import queuing_times, residual_capacity

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .config import ScenarioConfig
    from .engine import SummaryMetrics, Trajectory
    from .pricing import VotControllerSpec

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
UNDETERMINED = "undetermined"

CONVERGENCE_FLOOR = 1e-9
RATIO_RTOL = 0.10

# the models a study classifies, and the vot gains it varies by their paper names
MODELS = ("closed", "approx")
GAINS = {"k1": "queue_gain", "k2": "residual_gain"}

OPTIMAL_QUEUE_TOL = 1e-3        # veh, final HOT queue
OPTIMAL_THROUGHPUT_TOL = 0.5    # veh/min, average HOT throughput below capacity


def _congested_means(config: "ScenarioConfig") -> tuple[float, float, float, float]:
    """Mean demand rates and capacities ``(q1, q2, c1, c2)`` of ``config``
    (Poisson profiles use their means), which must be congested: its total
    demand exceeds its total capacity, and the means meet
    ``choice.clearing_log_odds``'s rule."""
    if config.demand.kind == "timeseries":
        raise ConfigError(
            "constant-demand analysis needs a demand profile with mean rates"
        )
    q1, q2 = config.demand.mean_hov, config.demand.mean_sov
    c1, c2 = config.capacities.hot, config.capacities.gp
    if q1 + q2 <= c1 + c2:
        raise ScenarioAssumptionError(
            f"total demand {q1 + q2:g} must exceed the total capacity {c1 + c2:g}"
        )
    clearing_log_odds(q1, q2, c1)
    return q1, q2, c1, c2


def analytic_optimal_price(config: "ScenarioConfig") -> tuple[float, float]:
    """``(slope, intercept)`` of the price that keeps the HOT lanes exactly
    full, ``slope * t + intercept`` at time ``t``: the slope is the value of
    the GP queue's growth rate in delay terms, the intercept the demand-split
    log term."""
    q1, q2, c1, c2 = _congested_means(config)
    slope = (q1 + q2 - c1 - c2) / c2 * config.behavior.vot
    return slope, clearing_log_odds(q1, q2, c1) / config.behavior.scale


def loop_gain_rate(config: "ScenarioConfig") -> float:
    """Growth rate of the estimator-to-residual loop gain, per (min·veh).

    The residual capacity's sensitivity to the estimation error grows
    linearly in time because the GP queue (and with it the queuing-time
    difference) grows linearly; this factor is the rate of that growth.
    """
    q1, q2, c1, c2 = _congested_means(config)
    return config.behavior.scale * (q1 + q2 - c1 - c2) * (q1 + q2 - c1) * (c1 - q1) / (c2 * q2)


def _integrate(
    lam: float,
    zeta: float,
    times: list,
    queue_gain: float,
    residual_gain: float,
    gain_rate: float,
    dt: float,
) -> tuple[list, list]:
    """Explicit Euler steps of the reduced dynamics from ``(lam, zeta)`` at
    ``times[0]``, step k from ``times[k]``: one step fewer than ``times``.

    Returns the queues and residual capacities at ``times``, the initial ones
    first.
    """
    lams, zetas = [lam], [zeta]
    # dt * gain_rate * t * (...) multiplies left to right: its first product is fixed
    rate_dt = dt * gain_rate
    for t in times[:-1]:
        queue = lam - zeta * dt  # clipped at zero as max(queue, 0.0) would
        zeta = zeta + rate_dt * t * (queue_gain * lam - residual_gain * zeta)
        lam = 0.0 if 0.0 > queue else queue
        lams.append(lam)
        zetas.append(zeta)
    return lams, zetas


def run_approximate(
    initial_queue: float,
    initial_zeta: float,
    queue_gain: float,
    residual_gain: float,
    gain_rate: float,
    horizon: float,
    dt: float,
    start_time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the reduced model over ``horizon`` minutes.

    Returns (t, lambda1, zeta) arrays.  Step k runs at ``t[k] = start_time +
    k*dt``, the clock of the closed loop; ``start_time`` matters because the
    reduced dynamics are time-variant.  ``dt`` and ``horizon`` meet a
    scenario's step rule, ``errors.require_steps``, and every other input is
    a finite number; otherwise it is a ValueError naming the key.  It runs
    the floats those rules return: an int, float32 or -0.0 as its float twin.
    """
    import numpy as np

    lam, zeta, queue_gain, residual_gain, gain_rate, start_time = map(
        require_finite, ("initial_queue", "initial_zeta", "queue_gain", "residual_gain",
                         "gain_rate", "start_time"),
        (initial_queue, initial_zeta, queue_gain, residual_gain, gain_rate, start_time))
    n, _, dt = require_steps(horizon, dt)
    times = start_time + np.arange(n + 1) * dt
    lams, zetas = _integrate(lam, zeta, times.tolist(), queue_gain, residual_gain, gain_rate, dt)
    return times, np.array(lams, dtype=float), np.array(zetas, dtype=float)


def gaussian_tail(
    zeta0: float, t: float, gain_rate: float, residual_gain: float
) -> float:
    """Residual-capacity decay law once the HOT queue is empty."""
    return zeta0 * math.exp(-0.5 * gain_rate * residual_gain * t * t)


def exponential_tail(
    lambda10: float, t: float, queue_gain: float, residual_gain: float
) -> tuple[float, float]:
    """Joint decay law when a HOT queue persists; returns (lambda1, zeta)."""
    lam = lambda10 * math.exp(-(queue_gain / residual_gain) * t)
    return lam, (queue_gain / residual_gain) * lam


@dataclass(frozen=True)
class ConvergenceReport:
    """Classification of a trajectory's approach to the optimal state."""

    pattern: str
    ratio_estimate: float
    fit_r2_gaussian: float
    fit_r2_exponential: float


def _fit_r2(x: np.ndarray, y: np.ndarray) -> float:
    """R^2 of the least-squares line of y against x: the squared sample
    correlation ``Sxy**2 / (Sxx * Syy)`` of the centred samples, three sums
    with no least-squares solve and no BLAS call.  0 for fewer than three
    samples or a constant x, 1 for a constant y or when y's centred squares
    sum to zero; clipped to [0, 1].  The centred x is scaled by the power of
    two that brings its range into [0.5, 1), an exact scaling that leaves
    R^2 as it is, so a narrow x's squares cannot underflow to zero."""
    import numpy as np

    spread = float(np.ptp(x)) if len(x) >= 3 else 0.0
    if spread == 0.0:
        return 0.0
    if y.max() == y.min():  # a constant y, whose mean may round to centred noise
        return 1.0
    dy = y - y.mean()
    total = float(np.sum(dy**2))
    if total == 0.0:
        return 1.0
    dx = (x - x.mean()) * 2.0 ** -math.frexp(spread)[1]
    sxy = float(np.sum(dx * dy))
    r2 = sxy * sxy / (float(np.sum(dx * dx)) * total)
    return min(max(r2, 0.0), 1.0)


def _tail_window(
    t: np.ndarray, lambda1: np.ndarray, zeta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The samples ``(t, lambda1, zeta)`` that ``classify_convergence``
    reads, as it describes them; empty when no sample is active."""
    import numpy as np

    floor = CONVERGENCE_FLOOR
    window = np.maximum(lambda1, np.abs(zeta)) > floor  # the active samples
    if window.any():
        t_end = t[window][-1]
        window = (t >= t_end - (t[-1] - t[0]) / 4.0) & (t <= t_end)

        # if the queue empties for good mid-window, the Gaussian regime starts there
        lam_win = lambda1[window]
        if lam_win[-1] <= floor and (lam_win > floor).any():
            t_win = t[window]
            empty_from = t_win[lam_win > floor][-1]
            window &= t > empty_from
    return t[window], lambda1[window], zeta[window]


def _pattern(
    lam_win: np.ndarray, zeta_win: np.ndarray, queue_gain: float, residual_gain: float
) -> tuple[str, float]:
    """The pattern and ratio estimate of a tail window, as
    ``classify_convergence`` describes them."""
    import numpy as np

    floor = CONVERGENCE_FLOOR
    if not lam_win.size:
        return UNDETERMINED, math.nan

    if (lam_win <= floor).all() and (zeta_win > 0.0).all():
        return GAUSSIAN, 0.0

    if (lam_win > floor).all() and (zeta_win > floor).all():
        ratio = float(np.mean(lam_win / zeta_win))
        target = residual_gain / queue_gain
        if abs(ratio - target) <= RATIO_RTOL * target:
            return EXPONENTIAL, ratio
        return UNDETERMINED, ratio

    return UNDETERMINED, math.nan


def classify_convergence(
    t: np.ndarray, lambda1: np.ndarray, zeta: np.ndarray, queue_gain: float, residual_gain: float
) -> ConvergenceReport:
    """Classify the tail of a trajectory as Gaussian, exponential, or neither.

    The decay patterns are asymptotic, so classification looks at a trailing
    window of the *active* part of the trajectory: samples after both the
    queue and the residual capacity have fallen below ``CONVERGENCE_FLOOR``
    carry no information and are discarded first.  The window spans a
    quarter of the horizon.  If the queue empties for good inside the
    window, the window is narrowed to the empty-queue segment, where the
    Gaussian law applies.

    Gaussian requires an identically empty queue with positive residual
    capacity over the window; exponential requires a persistent queue whose
    ratio to the residual capacity is locked near ``residual_gain /
    queue_gain``.  Anything else (including a fully converged trajectory) is
    undetermined.  The report's R² fits of the two laws over the window,
    log ζ against t² and log λ1 against t, do not enter the pattern; each
    is the squared sample correlation of the window's ``(x, log y)``, with
    no least-squares solve and no BLAS call (``_fit_r2``).  A gain that is
    not positive (``errors.require_positive``) is a ValueError naming it.
    """
    import numpy as np

    queue_gain = require_positive("queue_gain", queue_gain)
    residual_gain = require_positive("residual_gain", residual_gain)
    t_win, lam_win, zeta_win = _tail_window(
        np.asarray(t, dtype=float), np.asarray(lambda1, dtype=float),
        np.asarray(zeta, dtype=float),
    )
    pattern, ratio = _pattern(lam_win, zeta_win, queue_gain, residual_gain)
    r2_gauss = 0.0
    r2_exp = 0.0
    if (zeta_win > 0.0).all():
        r2_gauss = _fit_r2(t_win**2, np.log(zeta_win))
    if (lam_win > CONVERGENCE_FLOOR).all():
        r2_exp = _fit_r2(t_win, np.log(lam_win))
    return ConvergenceReport(pattern, ratio, r2_gauss, r2_exp)


def classify_trajectory(
    traj: "Trajectory", queue_gain: float, residual_gain: float
) -> ConvergenceReport:
    """Classify a recorded closed-loop trajectory."""
    return classify_convergence(traj.column("t"), traj.column("lambda1"), traj.column("zeta"),
                                queue_gain, residual_gain)


def approx_initial_zeta(config: "ScenarioConfig") -> float:
    """Residual capacity seeding the reduced model.

    Explicit ``approx.zeta0`` wins; otherwise derived from the
    closed-loop quantities at t = 0 under the mean demand rates.
    """
    if config.approx_zeta0 is not None:
        return config.approx_zeta0
    q1, q2, c1, _ = _congested_means(config)
    _, _, w0 = queuing_times(config.initial_hot_queue, config.initial_gp_queue, config.capacities)
    controller = config.vot_spec.build(config.capacities)
    controller.set_demand(q1, q2)
    u0 = controller.quote(w0)
    return residual_capacity(c1, q1, paying_demand(q2, u0, w0, 0.0, config.behavior))


def approximate_from_config(config: "ScenarioConfig") -> tuple[np.ndarray, ...]:
    """The reduced model over the scenario's horizon, from its initial HOT
    queue and residual capacity, with its vot controller's gains.  A seed
    residual capacity or loop-gain rate that the scenario's values carry out
    of the float range is a NonFiniteResultError naming it, and so is a
    trajectory whose Euler steps leave it: the message names the column and
    the first step with a non-finite value."""
    import numpy as np

    spec = config.vot_spec
    zeta0, rate = approx_initial_zeta(config), loop_gain_rate(config)
    for key, value in (("initial_zeta", zeta0), ("gain_rate", rate)):
        require_finite(f"reduced model {key}", value, NonFiniteResultError)
    t, lam, zeta = run_approximate(config.initial_hot_queue, zeta0, spec.queue_gain,
                                   spec.residual_gain, rate, config.horizon, config.dt)
    finite = np.isfinite(lam) & np.isfinite(zeta)
    if not finite.all():  # the first step with a non-finite value, named by its column
        k = int(np.argmin(finite))
        for name, column in (("lambda1", lam), ("zeta", zeta)):
            require_finite(f"reduced model {name} at step {k} (t={t[k]:g} min)", column[k],
                           NonFiniteResultError)
    return t, lam, zeta


def _run_at(
    config: "ScenarioConfig", param: str, value: float, model: str
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], "VotControllerSpec"]:
    """The ``(t, lambda1, zeta)`` arrays of the run ``classify_at`` classifies,
    and the vot spec it ran with."""
    require_kind("param", param, tuple(GAINS), ConfigError)
    require_kind("model", model, MODELS, ConfigError)
    spec = gain_spec(config, param, value)
    cfg = dataclasses.replace(config, controller_kind="vot", vot_spec=spec)
    if model == "closed":
        traj = run_closed_loop(cfg)
        return (traj.column("t"), traj.column("lambda1"), traj.column("zeta")), spec
    return approximate_from_config(cfg), spec


def classify_at(
    config: "ScenarioConfig", param: str, value: float, model: str
) -> ConvergenceReport:
    """Classify the vot controller's run under ``model`` (one of ``MODELS``)
    with gain ``param`` (a key of ``GAINS``) set to ``value``; an unknown
    name is a ConfigError naming ``param`` or ``model``, and a gain the
    controller rejects one naming the gain."""
    run, spec = _run_at(config, param, value, model)
    return classify_convergence(*run, spec.queue_gain, spec.residual_gain)


def gain_spec(config: "ScenarioConfig", param: str, value: float) -> "VotControllerSpec":
    """The vot spec of ``config`` with gain ``param`` set to ``value``; a gain the
    controller rejects is a ConfigError naming ``param``, and its value if a float."""
    try:
        return dataclasses.replace(config.vot_spec, **{GAINS[param]: value})
    except ValueError as exc:  # the controller's message shows a value that is no number
        name = f"{param}={value:g}" if isinstance(value, float) else param
        raise ConfigError(f"{name}: {exc}") from None


def check_bracket(config: "ScenarioConfig", low: float, high: float) -> tuple[float, float]:
    """``(low, high)`` as the floats the vot spec of ``config`` stores; reject
    a bisection bracket of residual gains with an end its controller
    rejects, or with low not below high."""
    low, high = (gain_spec(config, "k2", end).residual_gain for end in (low, high))
    if not low < high:
        raise ConfigError(f"bracket [{low!r}, {high!r}] needs low below high")
    return low, high


def find_phase_boundary(
    config: "ScenarioConfig",
    k2_low: float,
    k2_high: float,
    resolution: float = 0.005,
    model: str = "closed",
) -> float:
    """Bisect the residual gain for the switch between convergence patterns.

    Re-runs the simulation (closed loop or reduced model) at every midpoint
    of the ends as ``check_bracket`` returns them, floats, and keeps the
    half-bracket whose endpoints classify differently, until the bracket is
    narrower than ``resolution`` or no float lies strictly between its ends.
    Returns the midpoint of the final bracket.  Each run is classified as
    ``classify_at`` would, but only its pattern is computed: the R² fits of
    a report are not.
    """

    def pattern_at(k2: float) -> str:
        run, spec = _run_at(config, "k2", k2, model)
        _, lam_win, zeta_win = _tail_window(*run)
        return _pattern(lam_win, zeta_win, spec.queue_gain, spec.residual_gain)[0]

    resolution = require_positive("resolution", resolution, ConfigError)
    low, high = check_bracket(config, k2_low, k2_high)
    low_pattern = pattern_at(low)
    if low_pattern == pattern_at(high):
        raise BoundaryNotBracketedError(
            f"both ends of [{low:g}, {high:g}] classify as {low_pattern}")
    while high - low > resolution:
        mid = 0.5 * (low + high)
        if not low < mid < high:  # no float left between the ends
            break
        if pattern_at(mid) == low_pattern:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def optimal_state(metrics: "SummaryMetrics", hot_capacity: float) -> bool:
    """Whether a run ended in the optimal state: HOT queue cleared and HOT
    lanes used to capacity, within the ``OPTIMAL_*`` tolerances."""
    return (
        metrics.final_lambda1 < OPTIMAL_QUEUE_TOL
        and abs(metrics.avg_g1 - hot_capacity) <= OPTIMAL_THROUGHPUT_TOL
    )
