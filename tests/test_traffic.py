"""Point-queue dynamics: frozen examples and conservation properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotsim.traffic import (
    Capacities,
    queuing_times,
    residual_capacity,
    step_point_queues,
    throughputs,
)

CAPS = Capacities(30.0, 30.0)
DT = 1.0 / 60.0


class TestResidualCapacity:
    def test_reference_demand_split(self):
        assert residual_capacity(30.0, 10.0, 20.0) == 0.0

    def test_hov_saturates_capacity(self):
        assert residual_capacity(30.0, 30.0, 0.0) == 0.0

    def test_overloaded_is_negative(self):
        assert residual_capacity(30.0, 10.0, 30.0) == -10.0


class TestStepPointQueues:
    def test_gp_queue_grows_at_net_inflow(self):
        # zero residual: GP inflow exceeds the GP capacity by 10 veh/min
        lam1, lam2 = step_point_queues(0.0, 0.0, 0.0, 10.0, 60.0, CAPS, DT)
        assert lam1 == 0.0
        assert lam2 == pytest.approx(10.0 / 60.0, abs=1e-15)

    def test_hot_queue_drains_at_residual(self):
        lam1, _ = step_point_queues(1.0, 0.0, 0.11, 10.0, 60.0, CAPS, DT)
        assert lam1 == pytest.approx(1.0 - 0.11 / 60.0, abs=1e-15)

    def test_hot_queue_clipped_at_zero(self):
        lam1, _ = step_point_queues(0.001, 0.0, 0.12, 10.0, 60.0, CAPS, DT)
        assert lam1 == 0.0


class TestThroughputs:
    def test_empty_queue_zero_residual_runs_at_capacity(self):
        g1, _ = throughputs(0.0, 0.0, 0.0, 10.0, 60.0, CAPS, DT)
        assert g1 == 30.0

    def test_spare_capacity_reduces_discharge(self):
        g1, _ = throughputs(0.0, 0.0, 5.0, 10.0, 60.0, CAPS, DT)
        assert g1 == 25.0

    def test_congested_gp_discharges_at_capacity(self):
        _, g2 = throughputs(0.0, 100.0, 0.0, 10.0, 60.0, CAPS, DT)
        assert g2 == 30.0

    def test_g2_floor_fires_when_every_sov_pays_on_an_empty_gp_queue(self):
        hot, q1, q2 = 8.927490402631673, 7.489801987839704, 91.99493502458105
        caps = Capacities(hot, 30.0)
        zeta = residual_capacity(hot, q1, q2)  # q3 = q2
        assert q1 + q2 - hot + zeta + 0.0 / DT == -1.4210854715202004e-14
        g1, g2 = throughputs(0.0, 0.0, zeta, q1, q2, caps, DT)
        assert (g1, g2) == (hot, 0.0) and math.copysign(1.0, g2) == 1.0

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_g1_floor_cannot_fire_under_the_scenario_rules(self, data):
        # the states the scenario rules allow: q1 in [0, hot), q3 in [0, q2]
        # with both ends among the cases, lambda1 >= 0 with -0.0 among them;
        # q3 is nan after a nan price.  The engine's loop has no floor for
        # g1, as raw g1 capped at hot is >= +0.0 or nan
        hot = data.draw(st.floats(1e-3, 1e3))
        q1 = data.draw(st.floats(0.0, hot, exclude_max=True))
        q2 = data.draw(st.floats(0.0, 1e3))
        q3 = data.draw(st.one_of(st.sampled_from([0.0, q2, math.nan]), st.floats(0.0, q2)))
        lambda1 = data.draw(st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(0.0, 1e6)))
        dt = data.draw(st.floats(1e-6, 1.0))
        g1 = hot - ((hot - q1) - q3) + lambda1 / dt
        g1 = hot if hot < g1 else g1
        assert math.isnan(g1) or (g1 >= 0.0 and math.copysign(1.0, g1) > 0.0)


class TestQueuingTimes:
    def test_empty_queues(self):
        assert queuing_times(0.0, 0.0, CAPS) == (0.0, 0.0, 0.0)

    def test_equilibrium_gp_queue(self):
        # 20 minutes of 10 veh/min net GP inflow
        _, _, w = queuing_times(0.0, 200.0, CAPS)
        assert w == pytest.approx(200.0 / 30.0, rel=1e-12)

    def test_hot_queue_gives_negative_difference(self):
        _, _, w = queuing_times(30.0, 0.0, CAPS)
        assert w == -1.0


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lam1, lam2 = rng.uniform(0.0, 50.0, size=2)
        q1 = rng.uniform(0.0, 40.0)
        q2 = rng.uniform(0.0, 100.0)
        q3 = rng.uniform(0.0, 1.0) * q2
        dt = rng.uniform(1e-3, 0.5)
        caps = Capacities(rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0))
        yield lam1, lam2, q1, q2, q3, caps, dt


class TestInvariants:
    def test_flow_conservation_per_step(self):
        for lam1, lam2, q1, q2, q3, caps, dt in random_states(2000, seed=7):
            zeta = residual_capacity(caps.hot, q1, q3)
            g1, g2 = throughputs(lam1, lam2, zeta, q1, q2, caps, dt)
            nxt1, nxt2 = step_point_queues(lam1, lam2, zeta, q1, q2, caps, dt)
            assert nxt1 - lam1 == pytest.approx((q1 + q3 - g1) * dt, abs=1e-9)
            assert nxt2 - lam2 == pytest.approx((q2 - q3 - g2) * dt, abs=1e-9)

    def test_queues_stay_nonnegative_and_flows_bounded(self):
        for lam1, lam2, q1, q2, q3, caps, dt in random_states(2000, seed=11):
            zeta = residual_capacity(caps.hot, q1, q3)
            g1, g2 = throughputs(lam1, lam2, zeta, q1, q2, caps, dt)
            nxt1, nxt2 = step_point_queues(lam1, lam2, zeta, q1, q2, caps, dt)
            assert nxt1 >= 0.0 and nxt2 >= 0.0
            assert 0.0 <= g1 <= caps.hot
            assert 0.0 <= g2 <= caps.gp

    def test_zero_residual_is_stationary(self):
        nxt1, _ = step_point_queues(0.0, 5.0, 0.0, 10.0, 60.0, CAPS, DT)
        assert nxt1 == 0.0
        g1, _ = throughputs(0.0, 5.0, 0.0, 10.0, 60.0, CAPS, DT)
        assert g1 == CAPS.hot
