"""Point-queue dynamics: frozen examples and conservation properties."""

import numpy as np
import pytest

from hotsim.traffic import (
    Capacities,
    queuing_times,
    residual_capacity,
    step_point_queues,
    throughputs,
)

CAPS = Capacities(30.0, 30.0)
DT = 1.0 / 60.0


class TestCapacities:
    # an infinite HOT capacity would be the integral controller's default target
    @pytest.mark.parametrize("key", ["hot", "gp"])
    def test_infinite_rate_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key}: expected a finite number"):
            Capacities(**{"hot": 30.0, "gp": 30.0, key: np.inf})


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
