"""Closed forms, reduced model, pattern classification, boundary search."""

import dataclasses
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotsim import analysis
from hotsim.analysis import (
    analytic_optimal_price,
    approximate_from_config,
    classify_at,
    classify_convergence,
    classify_trajectory,
    exponential_tail,
    find_phase_boundary,
    gaussian_tail,
    loop_gain_rate,
    optimal_state,
    run_approximate,
)
from hotsim.choice import BehaviorParams
from hotsim.config import ScenarioConfig, VotControllerSpec, load_config
from hotsim.engine import DemandProfile, SummaryMetrics, run_closed_loop
from hotsim.errors import (MAX_STEPS, BoundaryNotBracketedError, ConfigError,
                           NonFiniteResultError, ScenarioAssumptionError)
from hotsim.traffic import Capacities

S0 = ScenarioConfig()
# a gain or bracket end that is not a finite number, a bool (numpy's too) or a list
HOSTILE_GAINS = ["x", None, True, np.True_, math.nan, math.inf, -math.inf, 10**400,
                 [0.1, 0.2]]
PERTURBED = Path(__file__).resolve().parents[1] / "scenarios" / "perturbed.yaml"
BETA0 = 40.0 / 9.0


def pattern_config(residual_gain):
    spec = VotControllerSpec(queue_gain=0.1, residual_gain=residual_gain,
                             scale_guess=1.0, initial_vot=0.25)
    return dataclasses.replace(ScenarioConfig(), vot_spec=spec,
                               initial_hot_queue=1.0, approx_zeta0=0.11)


class TestAnalyticPrice:
    def test_intercept_is_log_two(self):
        _, intercept = analytic_optimal_price(S0)
        assert intercept == pytest.approx(math.log(2.0), rel=1e-12)

    def test_intercept_is_the_vot_quote_at_no_delay(self):
        # one demand term: a vot quote at w = 0 with no estimate and the drivers'
        # scale; non-integer rates and scale, so any other operand order shows
        scen = dataclasses.replace(S0, behavior=BehaviorParams(0.5, 0.7),
                                   demand=DemandProfile(mean_hov=9.1, mean_sov=58.7))
        spec = VotControllerSpec(initial_vot=0.0, scale_guess=scen.behavior.scale)
        controller = spec.build(scen.capacities)
        controller.set_demand(9.1, 58.7)
        quote = controller.quote(0.0)
        assert analytic_optimal_price(scen)[1].hex() == quote.hex()

    def test_value_at_twenty_minutes(self):
        slope, intercept = analytic_optimal_price(S0)
        u = slope * 20.0 + intercept
        assert u == pytest.approx(10.0 / 3.0 + math.log(2.0), rel=1e-12)
        assert u == pytest.approx(4.0265, abs=1e-3)

    def test_zero_vot_removes_time_dependence(self):
        slope, intercept = analytic_optimal_price(
            dataclasses.replace(S0, behavior=BehaviorParams(1e-12, 1.0)))
        assert slope * 5.0 + intercept == pytest.approx(slope * 15.0 + intercept, rel=1e-9)

    def test_affine_with_exact_slope(self):
        slope, _ = analytic_optimal_price(S0)
        assert slope == pytest.approx((10.0 + 60.0 - 60.0) / 30.0 * 0.5, rel=1e-12)

    def test_assumptions_validated(self):
        # HOV demand past the HOT capacity meets choice.clearing_log_odds's rule
        uncongested = dataclasses.replace(S0, demand=DemandProfile(mean_sov=20.0))
        saturated = dataclasses.replace(S0, demand=DemandProfile(mean_hov=35.0))
        timeseries = dataclasses.replace(
            S0, demand=DemandProfile("timeseries", samples=((0.0, 10.0, 60.0),)))
        for law in (analytic_optimal_price, loop_gain_rate):
            with pytest.raises(ScenarioAssumptionError,
                               match="^total demand 30 must exceed the total capacity 60$"):
                law(uncongested)
            with pytest.raises(ScenarioAssumptionError, match="^HOV demand 35 veh/min saturates "
                                                              "the HOT capacity 30 veh/min$"):
                law(saturated)
            with pytest.raises(ConfigError, match="needs a demand profile with mean rates"):
                law(timeseries)


class TestLoopGainRate:
    def test_reference_value(self):
        assert loop_gain_rate(S0) == BETA0

    def test_linear_in_scale(self):
        doubled = dataclasses.replace(S0, behavior=BehaviorParams(0.5, 2.0))
        assert loop_gain_rate(doubled) == pytest.approx(2.0 * BETA0, rel=1e-12)

    def test_positive_under_assumptions(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            c1 = rng.uniform(5.0, 50.0)
            q1 = rng.uniform(0.0, 0.95) * c1
            c2 = rng.uniform(5.0, 50.0)
            q2 = (c1 + c2 - q1) + rng.uniform(0.1, 50.0)
            scen = dataclasses.replace(
                S0, capacities=Capacities(c1, c2), demand=DemandProfile(mean_hov=q1, mean_sov=q2),
                behavior=BehaviorParams(rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0)))
            assert loop_gain_rate(scen) > 0.0


def euler_step(lambda1, zeta, t, queue_gain, residual_gain, gain_rate, dt):
    """One Euler step of the reduced model, a one-step ``run_approximate``:
    the next ``(lambda1, zeta, t)``."""
    times, lams, zetas = run_approximate(lambda1, zeta, queue_gain, residual_gain, gain_rate,
                                         horizon=dt, dt=dt, start_time=t)
    return lams[1], zetas[1], times[1]


class TestStepApproximate:
    def test_time_factor_freezes_residual_at_start(self):
        _, zeta, _ = euler_step(1.0, 0.11, 0.0, 0.1, 0.1, BETA0, 1 / 60)
        assert zeta == 0.11

    def test_hand_computed_step(self):
        lambda1, zeta, t = euler_step(1.0, 0.11, 1.0, 0.1, 0.1, BETA0, 1 / 60)
        dzeta = BETA0 * 1.0 * (0.1 * 1.0 - 0.1 * 0.11)
        assert dzeta == pytest.approx(0.39556, abs=1e-5)
        assert zeta == pytest.approx(0.11 + dzeta / 60.0, rel=1e-12)
        assert zeta == pytest.approx(0.11659, abs=1e-5)
        assert lambda1 == pytest.approx(1.0 - 0.11 / 60.0, rel=1e-12)
        assert t == pytest.approx(1.0 + 1.0 / 60.0, rel=1e-12)

    def test_slow_manifold_is_stationary(self):
        # residual at (queue gain / residual gain) times the queue
        _, zeta, _ = euler_step(1.0, 0.5, 3.0, 0.1, 0.2, BETA0, 1 / 60)
        assert zeta == 0.5

    def test_queue_clipped_at_zero(self):
        lambda1, _, _ = euler_step(0.001, 0.12, 2.0, 0.1, 0.1, BETA0, 1 / 60)
        assert lambda1 == 0.0


class TestTailLaws:
    def test_gaussian_tail_at_zero_time(self):
        assert gaussian_tail(0.44, 0.0, BETA0, 0.1) == 0.44

    def test_gaussian_tail_reference_point(self):
        value = gaussian_tail(0.44, 2.0, BETA0, 0.1)
        assert value == pytest.approx(0.44 * math.exp(-8.0 / 9.0), rel=1e-12)
        assert value == pytest.approx(0.1809, abs=1e-4)

    def test_gaussian_tail_monotone_decay(self):
        times = np.linspace(0.0, 10.0, 50)
        values = [gaussian_tail(0.44, t, BETA0, 0.1) for t in times]
        assert (np.diff(values) < 0.0).all()

    def test_exponential_tail_initial_ratio(self):
        lam, zeta = exponential_tail(1.0, 0.0, 0.1, 0.2)
        assert (lam, zeta) == (1.0, 0.5)

    def test_exponential_tail_reference_point(self):
        lam, zeta = exponential_tail(1.0, 2.0, 0.1, 0.2)
        assert lam == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert zeta == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)

    def test_exponential_tail_locks_ratio(self):
        for t in (0.0, 1.0, 5.0, 20.0):
            lam, zeta = exponential_tail(1.0, t, 0.1, 0.2)
            assert lam / zeta == pytest.approx(2.0, rel=1e-12)


class TestReducedModel:
    def test_empty_queue_pattern_peaks_at_reference(self):
        _, lam, zeta = run_approximate(1.0, 0.11, 0.1, 0.1, BETA0, 20.0, 1 / 60)
        assert zeta.max() == pytest.approx(0.44, abs=0.03)
        assert lam[-1] == 0.0

    def test_persistent_queue_pattern_peaks_lower(self):
        t, lam, zeta = run_approximate(1.0, 0.11, 0.1, 0.2, BETA0, 20.0, 1 / 60)
        assert zeta.max() == pytest.approx(0.31, abs=0.03)
        ratio = lam[t >= 15.0] / zeta[t >= 15.0]
        assert ratio.mean() == pytest.approx(2.0, abs=0.1)
        # ratio settles within five percent of the gain ratio by the end
        assert ratio[-1] == pytest.approx(2.0, rel=0.05)

    def test_tail_matches_gaussian_law_within_one_percent(self):
        # start on the empty-queue branch; fine steps keep the Euler drift small
        t0, z0, dt = 5.0, 0.1, 1.0 / 6000.0
        t, _, zeta = run_approximate(0.0, z0, 0.1, 0.1, BETA0, 5.0, dt,
                                     start_time=t0)
        # the same decay law, re-anchored at t0
        amplitude = z0 / gaussian_tail(1.0, t0, BETA0, 0.1)
        reference = np.array([gaussian_tail(amplitude, ti, BETA0, 0.1) for ti in t])
        rel = np.abs(zeta - reference) / reference
        assert rel.max() < 0.01

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 10.0),
           # a step that is no multiple of 2**-30, so that a summed clock would round
           st.floats(1e-3, 0.2, exclude_min=True, exclude_max=True).filter(
               lambda dt: math.ldexp(dt, 30) % 1.0 != 0.0),
           st.integers(1, 2000), st.floats(0.0, 5.0), st.floats(-1.0, 1.0),
           st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(1e-3, 10.0))
    def test_each_step_runs_on_the_reported_clock(self, start, dt, n, lam0, zeta0, k1, k2,
                                                  rate):
        t, lam, zeta = run_approximate(lam0, zeta0, k1, k2, rate, n * dt, dt,
                                       start_time=start)
        clock = start + np.arange(n + 1) * dt
        assert t.tobytes() == clock.tobytes()
        # a reference Euler loop, step k from clock[k], from the floats
        # require_finite returns: -0.0 + 0.0 is +0.0
        lams, zetas = [lam0 + 0.0], [zeta0 + 0.0]
        for tk in clock[:-1].tolist():
            lams.append(max(lams[-1] - zetas[-1] * dt, 0.0))
            zetas.append(zetas[-1] + dt * rate * tk * (k1 * lams[-2] - k2 * zetas[-1]))
        assert lam.tobytes() == np.array(lams).tobytes()
        assert zeta.tobytes() == np.array(zetas).tobytes()

    # (initial_queue, initial_zeta, queue_gain, residual_gain, gain_rate,
    # horizon, dt, start_time): each runs as the float its rule returns
    @pytest.mark.parametrize("inputs", [
        tuple(map(np.float32, (1.0, 0.11, 0.1, 0.2, BETA0, 20.0, 1 / 60, 0.5))),
        (1, 0, 1, 2, 1, 3, 1, 2),
        (-0.0, -0.0, 0.1, 0.2, BETA0, 1.0, 0.5, -0.0),
    ], ids=["float32", "int", "negative-zero"])
    def test_each_input_runs_as_its_float_twin(self, inputs):
        *args, start = inputs
        run = run_approximate(*args, start_time=start)
        twin = run_approximate(*(float(x) + 0.0 for x in args), start_time=float(start) + 0.0)
        for column, expected in zip(run, twin):
            assert column.dtype == np.float64
            assert column.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("column, step", [("lambda1", 7), ("zeta", 0), ("zeta", 1200)])
    def test_a_non_finite_step_of_the_run_is_named(self, monkeypatch, column, step):
        # every row is read, not only the last; the run's own steps stay finite here
        def broken(*args):
            t, lam, zeta = run_approximate(*args)
            (lam if column == "lambda1" else zeta)[step] = math.inf
            return t, lam, zeta

        monkeypatch.setattr(analysis, "run_approximate", broken)
        config = load_config(PERTURBED)
        message = (f"reduced model {column} at step {step} "
                   f"(t={step * config.dt:g} min): expected a finite number, got inf")
        with pytest.raises(NonFiniteResultError, match=f"^{re.escape(message)}$"):
            approximate_from_config(config)

    @pytest.mark.parametrize("horizon, dt, message", [
        (1.0, -0.5, "dt must be positive"),
        (1.0, 0.0, "dt must be positive"),
        (1.0, math.nan, "dt: expected a finite number, got nan"),
        (0.0, 0.5, "horizon must be positive"),
        (math.inf, 0.5, "horizon: expected a finite number, got inf"),
        (1.0, 0.3, "dt: step size 0.3 does not divide the horizon 1 evenly"),
        (0.1, 0.3, "dt: step size 0.3 does not divide the horizon 0.1 evenly"),
        (1e300, 1e-300, "horizon 1e+300 / dt 1e-300 gives inf steps, more than the cap of 1000000"),
        (MAX_STEPS + 1, 1, "horizon 1e+06 / dt 1 gives 1e+06 steps, more than the cap of 1000000"),
    ])
    def test_step_and_horizon_are_checked(self, horizon, dt, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_approximate(1.0, 0.11, 0.1, 0.1, BETA0, horizon, dt)

    @pytest.mark.parametrize("key, bad", [
        ("initial_queue", math.nan),
        ("initial_zeta", math.inf),
        ("queue_gain", math.nan),
        ("residual_gain", -math.inf),
        ("gain_rate", math.inf),
        ("start_time", math.nan),
    ])
    def test_each_input_is_a_finite_number(self, key, bad):
        inputs = dict(initial_queue=1.0, initial_zeta=0.11, queue_gain=0.1, residual_gain=0.1,
                      gain_rate=BETA0, horizon=1.0, dt=0.5, start_time=0.0)
        message = f"{key}: expected a finite number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_approximate(**{**inputs, key: bad})


class TestClassification:
    def test_closed_loop_empty_queue_pattern(self):
        traj = run_closed_loop(pattern_config(0.1))
        report = classify_trajectory(traj, 0.1, 0.1)
        assert report.pattern == "gaussian"
        assert report.fit_r2_gaussian > 0.99

    def test_closed_loop_persistent_queue_pattern(self):
        traj = run_closed_loop(pattern_config(0.2))
        report = classify_trajectory(traj, 0.1, 0.2)
        assert report.pattern == "exponential"
        assert report.ratio_estimate == pytest.approx(2.0, abs=0.1)
        assert report.fit_r2_exponential > 0.99

    def test_all_zero_trajectory_is_undetermined(self):
        t = np.linspace(0.0, 20.0, 1201)
        zeros = np.zeros_like(t)
        report = classify_convergence(t, zeros, zeros, 0.1, 0.1)
        assert report.pattern == "undetermined"

    # on an exponential tail, whose ratio test divides by the queue gain
    @pytest.mark.parametrize("queue_gain, residual_gain, message", [
        (0.0, 0.5, "queue_gain must be positive"),
        ("0.1", 0.5, "queue_gain: expected a number, got '0.1'"),
        (0.1, -0.5, "residual_gain must be positive"),
        (0.1, math.nan, "residual_gain: expected a finite number, got nan"),
    ])
    def test_each_gain_is_a_positive_number(self, queue_gain, residual_gain, message):
        t = np.linspace(0.0, 10.0, 601)
        lam = np.exp(-t)
        assert classify_convergence(t, lam, 0.5 * lam, 0.1, 0.2).pattern == "exponential"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_convergence(t, lam, 0.5 * lam, queue_gain, residual_gain)


def reference_fit_r2(x, y):
    """R² of the least-squares line of y against x, by numpy's least-squares
    solve and the residuals: the oracle that ``analysis._fit_r2`` is held to."""
    if len(x) < 3 or np.ptp(x) == 0.0:
        return 0.0
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    total = float(np.sum((y - y.mean()) ** 2))
    if total == 0.0:
        return 1.0
    r2 = 1.0 - float(np.sum(resid**2)) / total
    return min(max(r2, 0.0), 1.0)


def reference_classify_convergence(t, lambda1, zeta, queue_gain, residual_gain):
    """``classify_convergence`` written as one function, window, fits and
    pattern rule in the order they run: the reference that the search's
    window and pattern rule, and the report, are held to."""
    floor = analysis.CONVERGENCE_FLOOR
    active = np.maximum(lambda1, np.abs(zeta)) > floor
    if not active.any():
        return analysis.ConvergenceReport("undetermined", math.nan, 0.0, 0.0)
    t_end = t[active][-1]
    window = (t >= t_end - (t[-1] - t[0]) / 4.0) & (t <= t_end)
    lam_win = lambda1[window]
    if lam_win[-1] <= floor and (lam_win > floor).any():
        window &= t > t[window][lam_win > floor][-1]
    lam_win, zeta_win, t_win = lambda1[window], zeta[window], t[window]
    r2_gauss = r2_exp = 0.0
    if (zeta_win > 0.0).all():
        r2_gauss = reference_fit_r2(t_win**2, np.log(zeta_win))
    if (lam_win > floor).all():
        r2_exp = reference_fit_r2(t_win, np.log(lam_win))
    if (lam_win <= floor).all() and (zeta_win > 0.0).all():
        return analysis.ConvergenceReport("gaussian", 0.0, r2_gauss, r2_exp)
    if (lam_win > floor).all() and (zeta_win > floor).all():
        ratio = float(np.mean(lam_win / zeta_win))
        target = residual_gain / queue_gain
        close = abs(ratio - target) <= analysis.RATIO_RTOL * target
        pattern = "exponential" if close else "undetermined"
        return analysis.ConvergenceReport(pattern, ratio, r2_gauss, r2_exp)
    return analysis.ConvergenceReport("undetermined", math.nan, r2_gauss, r2_exp)


FLOOR = analysis.CONVERGENCE_FLOOR
# zero, the floor and its neighbours on both sides, and clearly active values
_levels = st.one_of(
    st.sampled_from([0.0, FLOOR / 2, math.nextafter(FLOOR, 0.0), FLOOR,
                     math.nextafter(FLOOR, 1.0), 2 * FLOOR]),
    st.floats(1e-12, 10.0),
)


@st.composite
def _tails(draw):
    """``(t, lambda1, zeta, queue_gain, residual_gain)`` of a synthetic tail."""
    n = draw(st.integers(1, 40))
    t = draw(st.floats(0.0, 30.0)) + np.arange(n) * draw(st.sampled_from([1 / 60, 0.25, 1.0]))
    queue_gain = draw(st.sampled_from([0.05, 0.1, 0.3]))
    residual_gain = draw(st.sampled_from([0.02, 0.1, 0.2, 0.5]))
    shape = draw(st.sampled_from(["zero", "empty", "levels", "locked"]))
    if shape == "zero":
        lam, zeta = np.zeros(n), np.zeros(n)
    elif shape == "empty":  # no queue; a residual capacity of zero or above
        lam, zeta = np.zeros(n), np.array(draw(st.lists(_levels, min_size=n, max_size=n)))
    elif shape == "levels":
        lam = np.array(draw(st.lists(_levels, min_size=n, max_size=n)))
        signed = st.one_of(_levels, _levels.map(lambda x: -x), st.just(math.nan))
        zeta = np.array(draw(st.lists(signed, min_size=n, max_size=n)))
    else:  # a queue locked near the gain ratio times a decaying residual capacity
        zeta = draw(st.floats(1e-6, 1.0)) * np.exp(-draw(st.floats(0.0, 0.5)) * (t - t[0]))
        lam = zeta * (residual_gain / queue_gain) * draw(st.floats(0.85, 1.15))
    if draw(st.booleans()):  # the queue empties for good, mid-window or not
        lam[draw(st.integers(0, n - 1)):] = 0.0
    return t, lam, zeta, queue_gain, residual_gain


def _comparable(values):
    """``values`` as a tuple, with nan made equal to itself."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in values)


class TestPatternRule:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_tails())
    def test_pattern_and_ratio_are_the_reports(self, tail):
        t, lam, zeta, queue_gain, residual_gain = tail
        report = dataclasses.astuple(classify_convergence(t, lam, zeta, queue_gain,
                                                          residual_gain))
        reference = reference_classify_convergence(t, lam, zeta, queue_gain, residual_gain)
        assert _comparable(report[:2]) == _comparable(dataclasses.astuple(reference)[:2])
        # what the boundary search computes in place of the report
        _, lam_win, zeta_win = analysis._tail_window(t, lam, zeta)
        pattern_and_ratio = analysis._pattern(lam_win, zeta_win, queue_gain, residual_gain)
        assert _comparable(pattern_and_ratio) == _comparable(report[:2])


def _fit_tolerance(y):
    """How far two R² fits of ``y`` may differ: 1e-12, plus ten times the
    rounding of ``y``'s values against their range.  A least-squares solve
    leaves residuals of about ``eps * max|y|`` each, so where ``y`` varies
    only at that level its R² is rounding noise (a decay of 1e-9 a minute
    over nine 1 s samples moves polyfit's R² by 5e-8); a ``y`` of one value
    whose mean rounds has no bound."""
    spread = float(np.ptp(y)) if len(y) else 0.0
    if spread == 0.0:  # also an empty window, whose fits are both 0.0
        return 1.0
    return 1e-12 + 10 * np.finfo(float).eps * float(np.max(np.abs(y))) / spread


class TestFitR2:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_tails())
    def test_both_fits_are_the_least_squares_ones(self, tail):
        t, lam, zeta, queue_gain, residual_gain = tail
        report = classify_convergence(t, lam, zeta, queue_gain, residual_gain)
        reference = reference_classify_convergence(t, lam, zeta, queue_gain, residual_gain)
        t_win, lam_win, zeta_win = analysis._tail_window(t, lam, zeta)
        # the windows each fit takes the log of, if it is taken; else both read 0.0
        for fit, ref, window, taken in zip(
                dataclasses.astuple(report)[2:], dataclasses.astuple(reference)[2:],
                (zeta_win, lam_win), ((zeta_win > 0.0).all(), (lam_win > FLOOR).all())):
            tolerance = _fit_tolerance(np.log(window)) if taken else 0.0
            assert fit == pytest.approx(ref, rel=0, abs=tolerance)
        # x scaled by a power of two whose centred squares would underflow
        # gives the same R² bits: the fit scales x's range itself
        for x, window in ((t_win**2, zeta_win), (t_win, lam_win)):
            if len(window) and (window > 0.0).all():
                y = np.log(window)
                assert analysis._fit_r2(x * 2.0**-700, y) == analysis._fit_r2(x, y)

    # each degenerate rule, and a line with no slope, give the oracle's value exactly
    @pytest.mark.parametrize("x, y, expected", [
        ([0.0, 1.0], [1.0, 2.0], 0.0),
        ([2.0] * 5, [0.0, 1.0, 2.0, 3.0, 4.0], 0.0),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [-3.0] * 5, 1.0),
        # the centred squares underflow to zero
        ([0.0, 1.0, 2.0, 3.0, 4.0], [1e-300, 2e-300, 3e-300, 5e-300, 4e-300], 1.0),
        # no correlation: the sample covariance is zero
        ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, -1.0, 1.0], 0.0),
    ], ids=["fewer-than-three", "constant-x", "constant-y", "y-at-1e-300", "alternating-y"])
    def test_degenerate_cases_match_the_oracle_exactly(self, x, y, expected):
        x, y = np.array(x), np.array(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert analysis._fit_r2(x, y) == reference_fit_r2(x, y) == expected

    def test_constant_y_whose_mean_rounds_is_a_perfect_fit(self):
        # 3 * 0.1 / 3 rounds to 0.10000000000000002, so the centred squares
        # of a constant y are rounding noise, not zero
        assert analysis._fit_r2(np.arange(3.0), np.full(3, 0.1)) == 1.0

    @pytest.mark.parametrize("model", ["closed", "approx"])
    def test_sweep_rows_show_the_oracle_fits(self, model):
        # each R² as sweep.csv writes it, with 9 significant digits
        config = load_config(PERTURBED)
        for k1 in (0.05, 0.4):
            for k2 in (0.02 * i for i in range(1, 26)):
                spec = dataclasses.replace(config.vot_spec, queue_gain=k1, residual_gain=k2)
                cfg = dataclasses.replace(config, vot_spec=spec)
                if model == "approx":
                    run = approximate_from_config(cfg)
                else:
                    traj = run_closed_loop(cfg)
                    run = tuple(traj.column(name) for name in ("t", "lambda1", "zeta"))
                fits = dataclasses.astuple(classify_convergence(*run, k1, k2))[2:]
                oracle = dataclasses.astuple(reference_classify_convergence(*run, k1, k2))[2:]
                assert ["%.9g" % r2 for r2 in fits] == ["%.9g" % r2 for r2 in oracle], (k1, k2)


class TestPhaseBoundary:
    def test_closed_loop_boundary(self):
        boundary = find_phase_boundary(pattern_config(0.1), 0.1, 0.2,
                                       resolution=0.005, model="closed")
        assert boundary == pytest.approx(0.14, abs=0.01)

    def test_reduced_model_boundary(self):
        boundary = find_phase_boundary(pattern_config(0.1), 0.1, 0.2,
                                       resolution=0.005, model="approx")
        assert boundary == pytest.approx(0.14, abs=0.01)

    def test_resolution_below_float_spacing_ends(self, monkeypatch):
        # no float lies between two neighbours, so halving stops there
        calls = []

        def counted(*args):
            calls.append(args)
            return run_approximate(*args)

        monkeypatch.setattr(analysis, "run_approximate", counted)
        config = load_config(PERTURBED)
        boundary = find_phase_boundary(config, 0.1, 0.2, resolution=1e-300, model="approx")
        assert 0.1 < boundary < 0.2
        assert 0 < len(calls) <= 60

    @pytest.mark.parametrize("model, seam, expected", [
        ("closed", "run_closed_loop", 0.14843750000000003),
        ("approx", "run_approximate", 0.14218750000000002),
    ])
    def test_search_reads_only_the_pattern(self, monkeypatch, model, seam, expected):
        # every run of the search is made, and none of a report's R² fits
        def no_fit(x, y):
            raise AssertionError("the boundary search computed an R² fit")

        runs, run = [], getattr(analysis, seam)

        def counted(*args):
            runs.append(args)
            return run(*args)

        monkeypatch.setattr(analysis, "_fit_r2", no_fit)
        monkeypatch.setattr(analysis, seam, counted)
        config = load_config(PERTURBED)
        assert find_phase_boundary(config, 0.1, 0.2, resolution=0.005, model=model) == expected
        assert len(runs) == 7  # both ends and five midpoints

    def test_unbracketed_interval_rejected(self):
        with pytest.raises(BoundaryNotBracketedError):
            find_phase_boundary(pattern_config(0.1), 0.05, 0.09,
                                resolution=0.005, model="closed")

    # each end is shown with :g, as the float the vot spec stores
    @pytest.mark.parametrize("low, high, ends", [
        (0.05, 0.09, "0.05, 0.09"),
        (Fraction(1, 20), Fraction(9, 100), "0.05, 0.09"),
    ], ids=["float", "fraction"])
    def test_unbracketed_interval_names_its_ends(self, low, high, ends):
        with pytest.raises(BoundaryNotBracketedError) as error:
            find_phase_boundary(load_config(PERTURBED), low, high)
        assert str(error.value) == f"both ends of [{ends}] classify as gaussian"

    # the ends are bisected as the floats the vot spec stores, whatever their type
    @pytest.mark.parametrize("low, high, expected", [
        (np.float32(0.1), np.float32(0.2), 0.14218750211875886),
        (Decimal("0.1"), Decimal("0.2"), 0.14218750000000002),
        (Fraction(1, 10), Fraction(1, 5), 0.14218750000000002),
    ], ids=["float32", "decimal", "fraction"])
    def test_ends_are_bisected_as_their_floats(self, low, high, expected):
        config = load_config(PERTURBED)
        boundary = find_phase_boundary(config, low, high, 0.005, "approx")
        assert type(boundary) is float and boundary == expected
        assert boundary == find_phase_boundary(config, float(low), float(high), 0.005, "approx")

    # the controller rejects a non-finite end, naming the gain; the bracket
    # keeps only its order rule
    @pytest.mark.parametrize("low, high, message", [
        (math.nan, 0.2, "k2=nan: residual_gain: expected a finite number, got nan"),
        (0.1, math.inf, "k2=inf: residual_gain: expected a finite number, got inf"),
        (-math.inf, 0.2, "k2=-inf: residual_gain: expected a finite number, got -inf"),
        (0.2, 0.1, "bracket [0.2, 0.1] needs low below high"),
        (0.1, 0.1, "bracket [0.1, 0.1] needs low below high"),
    ], ids=["nan-0.2", "0.1-inf", "-inf-0.2", "0.2-0.1", "0.1-0.1"])
    def test_bracket_needs_finite_ordered_ends(self, low, high, message):
        with pytest.raises(ConfigError) as error:
            find_phase_boundary(pattern_config(0.1), low, high, resolution=0.005)
        assert str(error.value) == message

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["gain_spec", "check_bracket", "classify_at", "find_phase_boundary"]),
           st.sampled_from(["k1", "k2"]), st.booleans(), st.sampled_from(HOSTILE_GAINS))
    def test_hostile_gain_is_one_short_config_error(self, entry, param, low_end, value):
        # one hostile gain, or bracket end (of k2), fails before any run
        # with the controller's message after the gain's name
        config = pattern_config(0.1)
        low, high = (value, 0.2) if low_end else (0.1, value)
        calls = {
            "gain_spec": lambda: analysis.gain_spec(config, param, value),
            "check_bracket": lambda: analysis.check_bracket(config, low, high),
            "classify_at": lambda: classify_at(config, param, value, "closed"),
            "find_phase_boundary": lambda: find_phase_boundary(config, low, high),
        }
        with pytest.raises(ConfigError) as error:
            calls[entry]()
        message = str(error.value)
        named = param if entry in ("gain_spec", "classify_at") else "k2"
        assert message.startswith((f"{named}: ", f"{named}=")), message
        assert "\n" not in message and len(message.encode()) < 200, message


class TestClassifyAt:
    @pytest.mark.parametrize("model", ["closed", "approx"])
    def test_matches_the_classifier_on_the_run(self, model):
        cfg = pattern_config(0.18)
        if model == "closed":
            expected = classify_trajectory(run_closed_loop(cfg), 0.1, 0.18)
        else:
            expected = classify_convergence(*approximate_from_config(cfg), 0.1, 0.18)
        assert classify_at(pattern_config(0.1), "k2", 0.18, model) == expected
        assert expected.pattern == "exponential"

    def test_varies_the_queue_gain_as_k1(self):
        report = classify_at(pattern_config(0.1), "k1", 0.1, "approx")
        assert report == classify_at(pattern_config(0.1), "k2", 0.1, "approx")

    @pytest.mark.parametrize("param, value", [("k2", 0.0), ("k2", -0.1), ("k1", 0.0),
                                              ("k2", math.nan)])
    def test_invalid_gain_is_config_error(self, param, value):
        rule = ": expected a finite number" if math.isnan(value) else " must be positive"
        with pytest.raises(ConfigError, match=f"{param}={value:g}: .*_gain{rule}"):
            classify_at(pattern_config(0.1), param, value, "closed")

    @pytest.mark.parametrize("param, model", [("k3", "closed"), ("k2", "exact")])
    def test_unknown_name_is_config_error(self, param, model):
        # only the wrong name is named
        key, kinds, name = (("param", "k1, k2", param) if param == "k3"
                            else ("model", "closed, approx", model))
        with pytest.raises(ConfigError, match=f"^{key}: expected one of {kinds}, got '{name}'$"):
            classify_at(pattern_config(0.1), param, 0.1, model)


def _metrics(final_lambda1, avg_g1):
    return SummaryMetrics(avg_g1=avg_g1, final_u=4.0, final_pi=0.5, max_lambda1=1.0,
                          final_lambda1=final_lambda1, time_to_zero_queue=None,
                          pi_rmse_tail=0.0)


class TestOptimalState:
    def test_final_queue_must_be_below_a_thousandth(self):
        assert optimal_state(_metrics(0.000999, 30.0), 30.0)
        assert not optimal_state(_metrics(1e-3, 30.0), 30.0)

    def test_throughput_gap_of_half_a_vehicle_is_optimal(self):
        assert optimal_state(_metrics(0.0, 29.5), 30.0)
        assert optimal_state(_metrics(0.0, 30.5), 30.0)
        assert not optimal_state(_metrics(0.0, 29.4999), 30.0)
        assert not optimal_state(_metrics(0.0, 30.5001), 30.0)
