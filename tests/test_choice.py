"""Logit lane choice: split values, ranges, and the price-law fixed point."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from hotsim.choice import (
    BehaviorParams,
    NoiseSpec,
    paying_demand,
    sample_eta,
)
from hotsim.config import load_config
from hotsim.engine import DemandProfile, Draws, demand_at
from hotsim.traffic import residual_capacity

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

PARAMS = BehaviorParams(vot=0.5, scale=1.0)
# price that zeroes the residual capacity at w = 20/3 under PARAMS
U_OPT = 0.5 * (20.0 / 3.0) + math.log(2.0)


class TestPayingShare:
    def test_even_split_at_equal_utilities(self):
        assert paying_demand(1.0, 0.0, 0.0, 0.0, PARAMS) == 0.5

    def test_log_two_toll_gives_one_third(self):
        assert paying_demand(1.0, math.log(2.0), 0.0, 0.0, PARAMS) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_optimal_price_at_late_queue_gives_one_third(self):
        # exponent reduces to log 2 exactly, the 20/60 optimal paying split
        assert paying_demand(1.0, U_OPT, 20.0 / 3.0, 0.0, PARAMS) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_no_overflow_at_large_exponents(self):
        # the paying side keeps subnormal headroom; the unanimous side
        # rounds to the boundary once the exponent passes float precision
        assert paying_demand(1.0, 700.0, 0.0, 0.0, PARAMS) > 0.0
        assert math.isfinite(paying_demand(1.0, -700.0, 0.0, 0.0, PARAMS))
        assert paying_demand(1.0, -700.0, 0.0, 0.0, PARAMS) == 1.0
        assert paying_demand(1.0, -36.0, 0.0, 0.0, PARAMS) < 1.0

    def test_monotone_in_price_and_delay(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            u = rng.uniform(-5.0, 5.0)
            w = rng.uniform(-5.0, 5.0)
            eta = rng.uniform(-0.9, 0.9)
            du = rng.uniform(1e-6, 1.0)
            dw = rng.uniform(1e-6, 1.0)
            base = paying_demand(1.0, u, w, eta, PARAMS)
            assert paying_demand(1.0, u + du, w, eta, PARAMS) < base
            assert paying_demand(1.0, u, w + dw, eta, PARAMS) > base

    def test_share_strictly_inside_unit_interval(self):
        # strict bounds hold wherever 1 - share is representable
        rng = np.random.default_rng(5)
        for _ in range(500):
            s = paying_demand(
                1.0, rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                rng.uniform(-0.5, 0.5), PARAMS,
            )
            assert 0.0 < s < 1.0

    def test_depends_only_on_utility_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            u1, w1 = rng.uniform(-5.0, 5.0, size=2)
            shift = rng.uniform(-3.0, 3.0)
            # same exponent: u and vot*w shifted together
            u2 = u1 + shift
            w2 = w1 + shift / PARAMS.vot
            assert paying_demand(1.0, u1, w1, 0.0, PARAMS) == pytest.approx(
                paying_demand(1.0, u2, w2, 0.0, PARAMS), rel=1e-9
            )


class TestPayingDemand:
    def test_reference_optimal_demand(self):
        assert paying_demand(60.0, U_OPT, 20.0 / 3.0, 0.0, PARAMS) == pytest.approx(
            20.0, rel=1e-12
        )

    def test_zero_sov_demand(self):
        assert paying_demand(0.0, 1.0, 1.0, 0.0, PARAMS) == 0.0

    def test_even_split_of_sixty(self):
        assert paying_demand(60.0, 0.0, 0.0, 0.0, PARAMS) == 30.0


class TestInducedResidualCapacity:
    """Residual HOT capacity left once drivers respond to the quoted price:
    ``residual_capacity(c1, q1, paying_demand(q2, u, w, eta, params))``."""

    def test_optimal_price_zeroes_residual(self):
        zeta = residual_capacity(30.0, 10.0, paying_demand(60.0, U_OPT, 20.0 / 3.0, 0.0, PARAMS))
        assert zeta == pytest.approx(0.0, abs=1e-12)

    def test_free_access_overloads(self):
        zeta = residual_capacity(30.0, 10.0, paying_demand(60.0, 0.0, 0.0, 0.0, PARAMS))
        assert zeta == -10.0

    def test_prohibitive_price_limit(self):
        zeta = residual_capacity(30.0, 10.0, paying_demand(60.0, 700.0, 0.0, 0.0, PARAMS))
        assert zeta == pytest.approx(20.0, abs=1e-9)

    def test_range_strictly_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            u = rng.uniform(-20.0, 20.0)
            w = rng.uniform(-5.0, 10.0)
            zeta = residual_capacity(30.0, 10.0, paying_demand(60.0, u, w, 0.0, PARAMS))
            assert -40.0 < zeta < 20.0

    def test_price_law_fixed_point_for_any_delay(self):
        # quoting vot*w plus the demand-split log term cancels w entirely
        rng = np.random.default_rng(17)
        for _ in range(300):
            w = rng.uniform(-2.0, 12.0)
            q1 = rng.uniform(0.0, 25.0)
            q2 = rng.uniform(35.0, 120.0)
            u = PARAMS.vot * w + math.log((q1 + q2 - 30.0) / (30.0 - q1)) / PARAMS.scale
            zeta = residual_capacity(30.0, q1, paying_demand(q2, u, w, 0.0, PARAMS))
            assert zeta == pytest.approx(0.0, abs=1e-12)


class TestSampleEta:
    def test_disabled_noise_is_exactly_zero(self):
        assert sample_eta(NoiseSpec("none", 0.0), Draws(0, DemandProfile())) == 0.0

    def test_uniform_draws_stay_in_bounds(self):
        source = Draws(1, DemandProfile())
        spec = NoiseSpec("uniform", 0.1)
        draws = np.array([sample_eta(spec, source) for _ in range(10_000)])
        assert draws.min() >= -0.1 and draws.max() <= 0.1

    def test_uniform_mean_is_centered(self):
        source = Draws(2, DemandProfile())
        spec = NoiseSpec("uniform", 0.1)
        draws = np.array([sample_eta(spec, source) for _ in range(1_000_000)])
        assert abs(draws.mean()) < 1e-3

    @pytest.mark.parametrize("source, name", [
        (None, "NoneType"),
        (np.random.default_rng(0), "Generator"),
    ], ids=["none", "generator"])
    def test_uniform_noise_without_the_runs_draws_is_a_value_error(self, source, name):
        with pytest.raises(ValueError, match=f"^sample_eta: a uniform disturbance needs "
                                             f"the run's Draws, got {name}$"):
            sample_eta(NoiseSpec("uniform", 0.2), source)

    def test_half_width_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("uniform", 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 0.1)


def test_scalar_draws_are_numpys_uniform():
    # the engine's per-step order: HOV demand, SOV demand, then the disturbance;
    # a twin generator that calls poisson(mean) and uniform(-h, h) must see the
    # same bytes.  Means below 10 take numpy's multiplication method, the rest PTRS
    for mean in (0.0, 3.5, 10.0, 60.0):
        profile = DemandProfile("poisson", mean, mean)
        for half_width in (0.0, 1e-3, 0.1, 0.5, 0.999):
            spec = NoiseSpec("uniform", half_width)
            for seed in (0, 77, 2**63 + 5):
                draws, twin = Draws(seed, profile), np.random.default_rng(seed)
                ours, theirs = [], []
                for k in range(2000):
                    ours += [*demand_at(profile, k / 60, draws)[:2], sample_eta(spec, draws)]
                    theirs += [float(twin.poisson(mean)), float(twin.poisson(mean)),
                               float(twin.uniform(-half_width, half_width))]
                assert all(type(v) is float for v in ours)
                assert np.array(ours).tobytes() == np.array(theirs).tobytes()


# sha256 of the float64 bytes of the first 10,000 steps of (HOV, SOV,
# disturbance) that stochastic.yaml's profile and noise draw, per seed;
# recorded when both demand and disturbance came from Generator's samplers
STOCHASTIC_DRAWS = {
    0: "8a62bc1c9a9b8f8b858543c91f5419c3486d48ebef39416ae33b5f3a29ab88b2",
    1000: "6e46d59ea4305bea68f4f081c30e466f86691d0167f46dec785e0dd129f74245",
    2**63 + 5: "30d95fed541488a1bbf6aaf03bd7ee1c647e1728dd9fd3785fb80204696b92bb",
}


@pytest.mark.parametrize("seed", STOCHASTIC_DRAWS)
def test_draw_source_output_is_pinned(seed):
    config = load_config(str(SCENARIOS / "stochastic.yaml"))
    profile, noise = config.demand, config.noise
    draws = Draws(seed, profile)
    values = []
    for k in range(10_000):
        values += [*demand_at(profile, k * config.dt, draws)[:2], sample_eta(noise, draws)]
    digest = hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()
    assert digest == STOCHASTIC_DRAWS[seed], (
        "the run's draws moved.  The disturbance is formed from PCG64's raw "
        "integer stream, which numpy keeps fixed; the Poisson draws still rest on "
        "numpy's Generator.poisson (ROADMAP direction 2), so a numpy release that "
        "changes that sampler moves them")
