"""Controllers: estimator arithmetic, price laws, and the Kalman filter."""

import collections
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from hotsim.config import load_config, parse_config_text
from hotsim.engine import STATE_FIELDS, run_closed_loop
from hotsim.errors import PriceUndefinedError, ScenarioAssumptionError
from hotsim.pricing import (
    IntegralTollController,
    SelfLearningController,
    VotFeedbackController,
)

DT = 1.0 / 60.0
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def vot_controller(**kwargs):
    defaults = dict(hot_capacity=30.0, queue_gain=0.1, residual_gain=0.1,
                    scale_guess=1.0, initial_vot=0.5)
    defaults.update(kwargs)
    return VotFeedbackController(**defaults)


def observe_vot(ctrl, lambda1, zeta):
    # the estimator reads only dt, lambda1 and zeta
    ctrl.observe(DT, lambda1, zeta, 1.0, 2.0, 10.0, 60.0, 20.0)


class TestVotEstimator:
    def test_optimal_state_freezes_estimate(self):
        ctrl = vot_controller()
        observe_vot(ctrl, 0.0, 0.0)
        assert ctrl.vot_estimate == 0.5

    def test_queue_raises_estimate(self):
        ctrl = vot_controller()
        observe_vot(ctrl, 1.0, 0.0)
        assert ctrl.vot_estimate == pytest.approx(0.5 + 0.1 / 60.0, rel=1e-12)

    def test_spare_capacity_lowers_estimate(self):
        ctrl = vot_controller()
        observe_vot(ctrl, 0.0, 0.11)
        assert ctrl.vot_estimate == pytest.approx(0.5 - 0.011 / 60.0, rel=1e-12)

    def test_update_is_linear(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            lam, zeta = rng.uniform(-2.0, 2.0, size=2)
            a, b = vot_controller(), vot_controller()
            observe_vot(a, lam, zeta)
            observe_vot(b, 2.0 * lam, 2.0 * zeta)
            assert b.vot_estimate - 0.5 == pytest.approx(
                2.0 * (a.vot_estimate - 0.5), rel=1e-9, abs=1e-15)


class TestVotPrice:
    def test_reference_price_at_twenty_minutes(self):
        u = vot_controller().quote(20.0 / 3.0, 10.0, 60.0)
        assert u == pytest.approx(10.0 / 3.0 + math.log(2.0), rel=1e-12)
        assert u == pytest.approx(4.0265, abs=5e-4)

    def test_zero_delay_gives_log_term(self):
        assert vot_controller().quote(0.0, 10.0, 60.0) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_scale_guess_shrinks_log_term(self):
        u = vot_controller(scale_guess=1.2).quote(20.0 / 3.0, 10.0, 60.0)
        assert u == pytest.approx(10.0 / 3.0 + math.log(2.0) / 1.2, rel=1e-12)
        assert u == pytest.approx(3.9110, abs=5e-4)

    def test_uncongested_demand_rejected(self):
        with pytest.raises(ScenarioAssumptionError):
            vot_controller().quote(0.0, 10.0, 10.0)

    def test_saturating_hov_demand_rejected(self):
        with pytest.raises(ScenarioAssumptionError):
            vot_controller().quote(0.0, 30.0, 60.0)


def observe_hot_demand(ctrl, q1, q3):
    # the toll update reads only the HOT demand q1 + q3
    ctrl.observe(DT, 1.0, 0.5, 1.0, ctrl.u, q1, 60.0, q3)


class TestIntegralToll:
    def test_on_target_demand_freezes_toll(self):
        ctrl = IntegralTollController(0.01, math.log(2.0), 30.0)
        observe_hot_demand(ctrl, 10.0, 20.0)
        assert ctrl.u == math.log(2.0)

    def test_excess_demand_raises_toll(self):
        ctrl = IntegralTollController(0.01, math.log(2.0), 30.0)
        observe_hot_demand(ctrl, 10.0, 30.0)
        assert ctrl.u == pytest.approx(math.log(2.0) + 0.1, rel=1e-12)

    def test_shortfall_lowers_toll(self):
        ctrl = IntegralTollController(0.01, 1.0, 30.0)
        observe_hot_demand(ctrl, 10.0, 15.0)
        assert ctrl.u < 1.0


def learner(**kwargs):
    defaults = dict(hot_capacity=30.0, initial_theta=(0.25, 1.0, 0.1),
                    initial_cov=0.1, measurement_var=0.09, process_noise=1e-6)
    defaults.update(kwargs)
    return SelfLearningController(**defaults)


def observe_share(ctrl, q2, q3, w, u):
    # the filter reads only the delay w, the toll u and the paying share q3/q2
    ctrl.observe(DT, 1.0, 0.5, w, u, 10.0, q2, q3)


class TestSelfLearningFilter:
    @pytest.mark.parametrize("kwargs, message", [
        ({"initial_theta": (0.25, 1.0)},
         "initial_theta: expected three numbers, got [0.25, 1.0]"),
        ({"initial_cov": np.ones((2, 3))}, "initial_cov: expected a number or a 3x3 matrix, "
                                           "got [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]"),
        ({"process_noise": [[1, 0, 0], [0, 1], [0, 0, 1]]},
         "process_noise: expected a number or a 3x3 matrix, "
         "got [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]"),
    ], ids=["initial_theta", "initial_cov", "process_noise"])
    def test_wrong_shape_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as error:
            learner(**kwargs)
        assert str(error.value) == message

    @pytest.mark.parametrize("sequence", [tuple, list, collections.deque, np.array])
    def test_any_sequence_is_read_by_its_entries(self, sequence):
        rows = [[0.2, 0.03, -0.01], [0.01, 0.12, 0.02], [0.0, -0.02, 0.15]]
        ctrl = learner(initial_theta=range(1, 4),
                       initial_cov=sequence([sequence(row) for row in rows]))
        assert ctrl.theta.tolist() == [1.0, 2.0, 3.0] and ctrl.cov.tolist() == rows

    def test_a_string_entry_names_its_key(self):
        with pytest.raises(TypeError, match="^initial_theta: expected a number, got '1'$"):
            learner(initial_theta=("1", 2.0, 3.0))

    def test_a_value_neither_number_nor_sequence_names_its_key(self):
        with pytest.raises(TypeError, match="^initial_cov: expected a number, got None$"):
            learner(initial_cov=None)

    @pytest.mark.parametrize("q2", [0.0, -5.0])
    def test_no_sov_demand_leaves_the_state_alone(self, q2):
        ctrl = learner()
        theta, cov = ctrl.theta.tobytes(), ctrl.cov.tobytes()
        observe_share(ctrl, q2, 0.0, 1.0, 1.0)
        assert ctrl.theta.tobytes() == theta and ctrl.cov.tobytes() == cov

    def test_zero_innovation_keeps_estimate(self):
        ctrl = learner(process_noise=0.0)
        theta = ctrl.theta.copy()
        trace_before = np.trace(ctrl.cov)
        w, u = 1.0, 1.0
        # observation manufactured to match the current estimate exactly
        y = -theta[0] * w + theta[1] * u + theta[2]
        q3 = 60.0 / (1.0 + math.exp(y))
        observe_share(ctrl, 60.0, q3, w, u)
        assert ctrl.theta == pytest.approx(theta, rel=1e-9)
        assert np.trace(ctrl.cov) <= trace_before + 1e-12

    def test_one_step_update_matches_hand_computation(self):
        # identity covariance, no process noise, h = [-1, 1, 1]:
        # innovation = 0.5 - 0.85 = -0.35, gain = h / 3.09
        ctrl = learner(initial_cov=1.0, process_noise=0.0)
        y_true = -0.5 * 1.0 + 1.0 * 1.0 + 0.0
        q3 = 60.0 / (1.0 + math.exp(y_true))
        observe_share(ctrl, 60.0, q3, 1.0, 1.0)
        shift = 0.35 / 3.09
        expected = np.array([0.25 + shift, 1.0 - shift, 0.1 - shift])
        assert ctrl.theta == pytest.approx(expected, rel=1e-9)
        # moves toward the true delay and bias coefficients
        assert abs(ctrl.theta[0] - 0.5) < abs(0.25 - 0.5)
        assert abs(ctrl.theta[2]) < 0.1

    def test_huge_measurement_noise_is_uninformative(self):
        ctrl = learner(measurement_var=1e12)
        theta = ctrl.theta.copy()
        observe_share(ctrl, 60.0, 25.0, 1.0, 1.0)
        assert ctrl.theta == pytest.approx(theta, abs=1e-9)

    def test_covariance_stays_symmetric_psd(self):
        ctrl = learner()
        rng = np.random.default_rng(31)
        for _ in range(1000):
            q2 = rng.uniform(30.0, 100.0)
            observe_share(
                ctrl, q2, rng.uniform(0.0, 1.0) * q2,
                rng.uniform(-2.0, 10.0), rng.uniform(-1.0, 8.0),
            )
            assert ctrl.cov == pytest.approx(ctrl.cov.T, abs=1e-12)
            assert np.linalg.eigvalsh(ctrl.cov).min() >= -1e-9

    def test_boundary_paying_demand_is_clamped(self):
        ctrl = learner()
        observe_share(ctrl, 60.0, 0.0, 1.0, 1.0)   # fully unpaying step
        observe_share(ctrl, 60.0, 60.0, 1.0, 1.0)  # fully paying step
        assert np.isfinite(ctrl.theta).all()

    def test_zero_innovation_variance_divides_as_numpy(self):
        # a covariance may have an eigenvalue below zero within COV_EIG_TOL of
        # its largest, and with h = [0, 1, 1] this one makes s = h' P h + r
        # exactly 0: the gain is numpy's inf or nan, not a ZeroDivisionError
        kwargs = dict(initial_theta=(0.25, 1.0, 0.1), initial_cov=np.diag([1e12, -999.0, 0.0]),
                      measurement_var=999.0, process_noise=np.zeros((3, 3)))
        ctrl, ref = learner(**kwargs), ReferenceFilter(**kwargs)
        with np.errstate(all="ignore"):
            observe_share(ctrl, 60.0, 20.0, 0.0, 1.0)
            ref.ingest(60.0, 20.0, 0.0, 1.0)
        assert not np.isfinite(ctrl.theta).all()
        assert ctrl.theta.tobytes() == ref.theta.tobytes()
        assert ctrl.cov.tobytes() == ref.cov.tobytes()

    def test_matches_the_all_array_filter_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            # asymmetric covariances: F F' plus the skew-symmetric F - F'
            f0, f1 = rng.normal(size=(2, 3, 3))
            cov0 = (f0 @ f0.T + f0 - f0.T) * 10.0 ** rng.uniform(-3, 2)
            kwargs = dict(initial_theta=rng.normal(size=3), initial_cov=cov0,
                          measurement_var=10.0 ** rng.uniform(-4, 4),
                          process_noise=(f1 @ f1.T + f1 - f1.T) * 1e-6)
            ctrl = learner(**kwargs)
            ref = ReferenceFilter(**kwargs)
            for _ in range(50):
                q2 = rng.uniform(0.0, 120.0)
                q3 = rng.choice([0.0, q2, rng.uniform(0.0, 1.0) * q2])
                w, u = rng.normal(size=2) * 10.0 ** rng.uniform(-6, 6)
                if rng.random() < 0.2:  # empty queues: no delay to price
                    w = 0.0
                observe_share(ctrl, q2, q3, w, u)
                ref.ingest(q2, q3, w, u)
                assert isinstance(ctrl.theta, np.ndarray) and ctrl.cov.shape == (3, 3)
                assert ctrl.theta.tobytes() == ref.theta.tobytes()
                assert ctrl.cov.tobytes() == ref.cov.tobytes()
                assert type(ctrl.vot_estimate) is float
                assert bits(ctrl.vot_estimate) == bits(ref.vot_estimate())
                # q1 = 10 leaves 20 veh/min to fill by paying SOVs: some q2 cannot
                assert outcome(ctrl.quote, w, 10.0, q2) == outcome(ref.quote, w, 10.0, q2)


def bits(x):
    return np.float64(x).tobytes()


def outcome(price, *args):
    """The bits of the price, or the type of the error it raises."""
    try:
        return bits(price(*args))
    except (PriceUndefinedError, ScenarioAssumptionError) as exc:
        return type(exc)


class ReferenceFilter:
    """The Kalman filter and its price law with every operation on numpy arrays."""

    def __init__(self, initial_theta, initial_cov, measurement_var, process_noise):
        self.theta = np.array(initial_theta, dtype=float)
        self.cov = np.array(initial_cov, dtype=float)
        self.process_noise = np.array(process_noise, dtype=float)
        self.measurement_var = measurement_var

    def ingest(self, q2, q3, w, u):
        if q2 <= 0.0:
            return
        margin = 1e-6 * q2
        q3 = min(max(q3, margin), q2 - margin)
        y = math.log((q2 - q3) / q3)
        h = np.array([-w, u, 1.0])
        cov = self.cov + self.process_noise
        s = float(h @ cov @ h) + self.measurement_var
        gain = (cov @ h) / s
        self.theta = self.theta + gain * (y - float(h @ self.theta))
        ikh = np.eye(3) - gain[:, None] * h
        cov = ikh @ cov @ ikh.T + self.measurement_var * (gain[:, None] * gain)
        self.cov = 0.5 * (cov + cov.T)

    def vot_estimate(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.theta[0] / self.theta[1]

    def quote(self, w, q1, q2):
        alpha1, alpha2, gamma = self.theta
        if abs(alpha2) < 1e-6:
            raise PriceUndefinedError("alpha2")
        target = 30.0 - q1
        if not 0.0 < target < q2:
            raise ScenarioAssumptionError("target")
        return (math.log((q2 - target) / target) + alpha1 * w - gamma) / alpha2


# asymmetric initial covariance: the first step tells h @ cov from cov @ h
MATRIX_SCENARIO = """\
controller:
  kind: selflearning
  selflearning:
    initial_cov: [[0.2, 0.03, -0.01], [0.01, 0.12, 0.02], [0.0, -0.02, 0.15]]
    process_noise: [[2.0e-6, 1.0e-7, 0.0], [1.0e-7, 1.0e-6, 0.0], [0.0, 0.0, 3.0e-6]]
"""


@pytest.mark.parametrize("source, seed, expected", [
    ("reference.yaml", None, "23f08373b75679d3"),
    ("stochastic.yaml", 0, "bb637e8caf669790"),
    ("stochastic.yaml", 5, "aadadacc1eebbfbd"),
    ("stochastic.yaml", 77, "bea751058a64e093"),
    ("perturbed.yaml", None, "a41576edd1b1dfd0"),
    (MATRIX_SCENARIO, None, "381a09f7d3d253ad"),
], ids=["reference", "stochastic-0", "stochastic-5", "stochastic-77", "perturbed",
        "asymmetric-3x3"])
def test_selflearning_run_is_bit_identical(source, seed, expected):
    """Every column of a self-learning run at full precision, not 9 digits.

    The first 16 hex digits of the sha256 over all ``STATE_FIELDS`` columns'
    bytes, recorded before the Kalman step moved its elementwise algebra to
    Python floats.
    """
    if source.endswith(".yaml"):
        cfg = load_config(SCENARIOS / source)
    else:
        cfg = parse_config_text(source)
    traj = run_closed_loop(dataclasses.replace(cfg, controller_kind="selflearning"), seed)
    assert state_digest(traj) == expected


def state_digest(traj):
    """First 16 hex digits of the sha256 over every ``STATE_FIELDS`` column's bytes."""
    h = hashlib.sha256()
    for name in STATE_FIELDS:
        h.update(traj.column(name).tobytes())
    return h.hexdigest()[:16]


# each demand kind with each noise kind it is not already pinned with
@pytest.mark.parametrize("source, expected", [
    ("noise: {kind: uniform, half_width: 0.1}\nrun: {seed: 3}",
     {"vot": "f10abc1d4c38bd8f", "integral": "09609addd921047f"}),
    ("demand: {kind: poisson, hov: 10.0, sov: 60.0}\nrun: {seed: 7}",
     {"vot": "421482d3aa3e141c", "integral": "b15a4221d66809b6"}),
    ("demand: {kind: timeseries, samples: [[0, 10, 60], [5, 12, 55]]}\n"
     "noise: {kind: uniform, half_width: 0.1}",
     {"vot": "10bc514fcc0540fe", "integral": "d4195a9bb469ca31"}),
], ids=["constant-uniform", "poisson-none", "timeseries-uniform"])
@pytest.mark.parametrize("kind", ["vot", "integral"])
def test_draw_combinations_are_bit_identical(source, expected, kind):
    """Full-precision digests of the demand/noise pairs the golden outputs miss.

    The golden digests cover constant demand without noise and Poisson demand
    with uniform noise; these pin the other combinations, so a change to when
    the loop reads demand or draws a disturbance cannot move a run unseen.
    """
    cfg = dataclasses.replace(parse_config_text(source), controller_kind=kind)
    assert state_digest(run_closed_loop(cfg)) == expected[kind]


class TestSelfLearningPrice:
    def test_reference_price_at_twenty_minutes(self):
        ctrl = learner(initial_theta=(0.5, 1.0, 0.0))
        u = ctrl.quote(20.0 / 3.0, 10.0, 60.0)
        assert u == pytest.approx(math.log(2.0) + 10.0 / 3.0, rel=1e-12)
        assert u == pytest.approx(4.0265, abs=5e-4)

    def test_zero_delay_gives_log_term(self):
        ctrl = learner(initial_theta=(0.5, 1.0, 0.0))
        assert ctrl.quote(0.0, 10.0, 60.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_bias_shifts_price_linearly(self):
        delta = 0.3
        base = learner(initial_theta=(0.5, 1.0, 0.0)).quote(1.0, 10.0, 60.0)
        shifted = learner(initial_theta=(0.5, 1.0, delta)).quote(1.0, 10.0, 60.0)
        assert shifted == pytest.approx(base - delta, rel=1e-12)

    def test_degenerate_price_sensitivity_fails(self):
        ctrl = learner(initial_theta=(0.5, 0.0, 0.0))
        with pytest.raises(PriceUndefinedError):
            ctrl.quote(1.0, 10.0, 60.0)

    def test_target_outside_demand_rejected(self):
        ctrl = learner()
        with pytest.raises(ScenarioAssumptionError):
            ctrl.quote(1.0, 10.0, 15.0)  # needs 20 paying out of 15 SOVs


class TestControllerInterface:
    def test_quote_then_observe_round_trip(self):
        for ctrl in (vot_controller(), IntegralTollController(0.01, 0.5, 30.0),
                     learner()):
            u = ctrl.quote(0.0, 10.0, 60.0)
            assert math.isfinite(u)
            ctrl.observe(dt=DT, lambda1=0.0, zeta=0.0, w=0.0,
                         u=math.log(2.0), q1=10.0, q2=60.0, q3=20.0)

    def test_vot_estimates(self):
        assert vot_controller().vot_estimate == 0.5
        assert IntegralTollController(0.01, 0.5, 30.0).vot_estimate is None
        assert learner().vot_estimate == pytest.approx(0.25)


class TestQuoteDemandCache:
    """A quote keeps its demand term for the last demand pair it priced.

    Each quote must still be, bit for bit, the formula evaluated afresh:
    pairs repeat (A, A, B, A), change in one rate only, fail the demand
    checks (C), go nan, and come back to A after a failure, with an
    ``observe`` moving the estimate between every two quotes.
    """

    A, B, C = (10.0, 60.0), (12.0, 55.0), (30.0, 60.0)
    PAIRS = [A, A, B, A, (10.0, 55.0), (12.0, 60.0), C, (math.nan, math.nan), A]

    @staticmethod
    def reference_vot_quote(ctrl, w, q1, q2):
        c1 = ctrl.hot_capacity
        if q1 >= c1 or q1 + q2 <= c1:
            raise ScenarioAssumptionError("demand")
        return ctrl.vot_estimate * w + math.log((q1 + q2 - c1) / (c1 - q1)) / ctrl.scale_guess

    def test_vot_quote_is_the_uncached_formula(self):
        ctrl = vot_controller()
        quotes = []
        for k, (q1, q2) in enumerate(self.PAIRS):
            w = 0.4 + 0.1 * k
            quotes.append(outcome(ctrl.quote, w, q1, q2))
            assert quotes[-1] == outcome(self.reference_vot_quote, ctrl, w, q1, q2), k
            observe_vot(ctrl, 2.0 - 0.5 * k, 0.3)
        assert quotes[6] is ScenarioAssumptionError
        assert math.isnan(np.frombuffer(quotes[7])[0])

    def test_selflearning_quote_is_the_uncached_formula(self):
        ctrl = learner()
        ref = ReferenceFilter((0.25, 1.0, 0.1), 0.1 * np.eye(3), 0.09, 1e-6 * np.eye(3))
        quotes = []
        for k, (q1, q2) in enumerate(self.PAIRS):
            w = 0.4 + 0.1 * k
            quotes.append(outcome(ctrl.quote, w, q1, q2))
            assert quotes[-1] == outcome(ref.quote, w, q1, q2), k
            q3, u = 0.3 * q2 + k, 1.0 + 0.2 * k
            observe_share(ctrl, 60.0, q3, w, u)
            ref.ingest(60.0, q3, w, u)
        assert quotes[6] is ScenarioAssumptionError
        assert quotes[7] is ScenarioAssumptionError
