"""Closed-loop engine: demand profiles, step sequence, summaries."""

import dataclasses
import gc
import hashlib
import itertools
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotsim import choice, engine, traffic
from hotsim.cli import _csv, trajectory_csv
from hotsim.choice import BehaviorParams, NoiseSpec
from hotsim.config import (
    IntegralTollSpec,
    ScenarioConfig,
    SelfLearningSpec,
    VotControllerSpec,
    config_fingerprint,
    load_config,
    parse_config_text,
)
from hotsim.engine import (
    STATE_FIELDS,
    DemandProfile,
    Draws,
    SummaryMetrics,
    Trajectory,
    check_seeds,
    demand_at,
    run_closed_loop,
    summarize,
)
from hotsim.errors import (
    ConfigError,
    HotSimError,
    NonFiniteResultError,
    PriceUndefinedError,
    ScenarioAssumptionError,
)
from hotsim.pricing import VotFeedbackController
from hotsim.traffic import Capacities

S0 = ScenarioConfig()
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# sign bit set and a payload of 0x123 in a quiet nan
NEGATIVE_NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000123))[0]


def flat(rows) -> list:
    """The values of ``rows``, row after row: the list a ``Trajectory`` keeps."""
    return [value for row in rows for value in row]


def str_csv(header: tuple, values, row_format: str = "") -> str:
    """The CSV ``cli._csv`` writes, built as one ``str`` %-format: its reference,
    where a ``%s`` column takes ``str``."""
    row_format = (row_format or ",".join(["%.9g"] * len(header))) + "\n"
    return ",".join(header) + "\n" + (row_format * (len(values) // len(header))) % tuple(values)


def _bits_to_float(sign: bool, exponent: int, mantissa: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | mantissa))[0]


# every double: each exponent, the all-zero and all-one ones (±0, subnormals,
# ±inf, nan of either sign and any payload) drawn often
_DOUBLES = st.builds(
    _bits_to_float, st.booleans(),
    st.sampled_from([0, 1, 0x3FF, 0x7FE, 0x7FF]) | st.integers(0, 0x7FF),
    st.sampled_from([0, 1, 2**51, 2**52 - 1]) | st.integers(0, 2**52 - 1),
)
_FLOAT32S = st.integers(0, 2**32 - 1).map(
    lambda bits: np.frombuffer(struct.pack("<I", bits), np.float32)[0])
_CELLS = (_DOUBLES | st.integers(-(2**200), 2**200) | st.booleans()
          | _DOUBLES.map(np.float64) | _FLOAT32S)


@st.composite
def _tables(draw):
    """A header of 1 to 13 columns and the flat values of 0 to 7 rows."""
    width, n_rows = draw(st.integers(1, 13)), draw(st.integers(0, 7))
    n_values = width * n_rows
    values = draw(st.lists(_CELLS, min_size=n_values, max_size=n_values))
    return tuple(f"c{i}" for i in range(width)), values


class TestDemandAt:
    def test_constant_profile(self):
        profile = DemandProfile(kind="constant", mean_hov=10.0, mean_sov=60.0)
        assert demand_at(profile, 3.0, Draws(0))[:2] == (10.0, 60.0)

    def test_zero_demand(self):
        profile = DemandProfile(kind="constant", mean_hov=0.0, mean_sov=0.0)
        assert demand_at(profile, 0.0, Draws(0))[:2] == (0.0, 0.0)

    def test_poisson_sample_mean(self):
        profile = DemandProfile(kind="poisson", mean_hov=10.0, mean_sov=60.0)
        source = Draws(42)
        draws = [demand_at(profile, k / 60, source) for k in range(1200)]
        hov = np.array([d[0] for d in draws])
        assert abs(hov.mean() - 10.0) < 1.5

    @pytest.mark.parametrize("draws", [None, np.random.default_rng(0), "draws"],
                             ids=["none", "generator", "str"])
    def test_poisson_read_without_the_runs_draws_is_a_value_error(self, draws):
        name = type(draws).__name__
        with pytest.raises(ValueError, match=f"^demand_at: poisson demand needs the "
                                             f"run's Draws, got {name}$"):
            demand_at(DemandProfile("poisson", 10.0, 60.0), 0.0, draws)

    def test_one_draws_serves_profiles_of_any_means(self):
        # a Draws is only the stream: each read draws at its own profile's means
        draws, twin = Draws(0), np.random.default_rng(0)
        assert sorted(vars(draws)) == ["poisson", "raw"]
        low, high = DemandProfile("poisson", 1.0, 2.0), DemandProfile("poisson", 50.0, 300.0)
        reads, means = [], []
        for profile in (low, high, high, low):
            reads += demand_at(profile, 0.0, draws)[:2]
            means += [profile.mean_hov, profile.mean_sov]
        assert reads == [float(twin.poisson(mean)) for mean in means]

    def test_timeseries_is_a_step_function(self):
        profile = DemandProfile(
            kind="timeseries",
            samples=((0.0, 10.0, 60.0), (5.0, 12.0, 55.0)),
        )
        draws = Draws(0)
        assert demand_at(profile, 4.99, draws)[:2] == (10.0, 60.0)
        assert demand_at(profile, 5.0, draws)[:2] == (12.0, 55.0)
        assert demand_at(profile, 19.0, draws)[:2] == (12.0, 55.0)

    def test_until_of_each_kind(self):
        constant, poisson = DemandProfile("constant"), DemandProfile("poisson")
        assert demand_at(constant, 3.0, None)[2] == math.inf
        assert demand_at(poisson, 3.0, Draws(0))[2] == 3.0
        profile = DemandProfile("timeseries", samples=(
            (-1.0, 10.0, 60.0), (5.0, 12.0, 55.0), (5.5, 11.0, 58.0)))
        # the first sample time after t, as demand_at picks the sample at or before t
        assert demand_at(profile, 0.0, None)[2] == 5.0
        assert demand_at(profile, 4.99, None)[2] == 5.0
        assert demand_at(profile, 5.0, None)[2] == 5.5
        assert demand_at(profile, 5.2, None)[2] == 5.5
        assert demand_at(profile, 5.5, None)[2] == math.inf
        assert demand_at(profile, 19.0, None)[2] == math.inf

    @settings(max_examples=300)
    @given(
        st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=6, unique=True).map(sorted),
        st.floats(0.0, 40.0),
        st.data(),
    )
    def test_rates_hold_until_the_next_sample(self, times, t, data):
        times[0] = min(times[0], 0.0)  # a run reads the demand from t = 0
        # t may fall on a breakpoint itself
        t = data.draw(st.sampled_from([t, *(b for b in times if b >= 0.0)]))
        profile = DemandProfile("timeseries", samples=tuple(
            (b, float(i), float(2 * i)) for i, b in enumerate(times)))
        q1, q2, until = demand_at(profile, t, None)
        assert until > t
        # so the last float before until is at or past t, and still reads q1, q2
        assert demand_at(profile, math.nextafter(until, -math.inf), None) == (q1, q2, until)
        if until < math.inf:
            i = times.index(until)
            assert demand_at(profile, until, None)[:2] == (float(i), float(2 * i))

    def test_timeseries_lookup_before_first_sample(self):
        # a profile starts at t <= 0, so only a negative time is before it
        profile = DemandProfile(kind="timeseries", samples=((0.0, 10.0, 60.0),))
        with pytest.raises(ConfigError):
            demand_at(profile, -0.5, Draws(0))


class TestClosedLoop:
    def test_trajectory_has_one_state_per_step_plus_initial(self):
        traj = run_closed_loop(S0)
        assert len(traj) == 1201
        t = traj.column("t")
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(20.0, abs=1e-9)
        assert np.allclose(np.diff(t), 1.0 / 60.0)

    def test_reaches_the_optimal_state(self):
        traj = run_closed_loop(S0)
        assert traj.column("lambda1")[-1] < 1e-3
        assert abs(traj.column("zeta")[-1]) < 1e-3
        assert traj.column("pi")[-1] == pytest.approx(0.5, abs=0.01)

    def test_integral_baseline_keeps_growing_queue(self):
        cfg = dataclasses.replace(S0, controller_kind="integral")
        traj = run_closed_loop(cfg)
        t = traj.column("t")
        lam1 = traj.column("lambda1")
        tail = lam1[t >= 10.0]
        assert (np.diff(tail) > 0.0).all()

    def test_zero_demand_stays_identically_zero(self):
        demand = DemandProfile(kind="constant", mean_hov=0.0, mean_sov=0.0)
        cfg = dataclasses.replace(S0, demand=demand)
        traj = run_closed_loop(cfg)
        for name in ("lambda1", "lambda2", "g1", "g2", "q3", "u"):
            assert (traj.column(name) == 0.0).all()

    def test_timeseries_demand_drives_the_loop(self):
        demand = DemandProfile(
            kind="timeseries",
            samples=((0.0, 10.0, 60.0), (10.0, 12.0, 70.0)),
        )
        cfg = dataclasses.replace(S0, demand=demand)
        traj = run_closed_loop(cfg)
        q1 = traj.column("q1")
        t = traj.column("t")
        assert (q1[t < 10.0] == 10.0).all()
        assert (q1[t >= 10.0] == 12.0).all()
        # the controller keeps tracking the optimum through the demand shift
        assert traj.column("lambda1")[-1] < 1e-3
        assert traj.column("pi")[-1] == pytest.approx(0.5, abs=0.01)

    def test_negative_initial_queue_rejected(self):
        # by the config when it is built, before any run
        with pytest.raises(ConfigError, match=r"^initial\.hot_queue cannot be negative"):
            dataclasses.replace(S0, initial_hot_queue=-1.0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_override_outside_64_bits_is_config_error(self, seed):
        with pytest.raises(ConfigError, match=r"^run\.seed: "):
            run_closed_loop(S0, seed=seed)

    @pytest.mark.parametrize("seed", [2.5, 2.0, "2", True])
    def test_non_integer_seed_override_is_config_error(self, seed):
        with pytest.raises(ConfigError) as error:
            run_closed_loop(S0, seed=seed)
        assert str(error.value) == f"run.seed: expected an integer, got {seed!r}"

    @pytest.mark.parametrize("overrides, draws", [
        ({}, False),
        ({"demand": DemandProfile("timeseries", samples=((0.0, 10.0, 60.0),))}, False),
        ({"demand": DemandProfile("poisson")}, True),
        ({"noise": NoiseSpec("uniform", 0.3)}, True),
    ], ids=["constant", "timeseries", "poisson", "noise"])
    def test_only_a_run_that_draws_builds_a_stream(self, monkeypatch, overrides, draws):
        class StreamBuilt(Exception):
            pass

        def refuse(seed):
            raise StreamBuilt(seed)

        monkeypatch.setattr(np.random, "default_rng", refuse)
        cfg = dataclasses.replace(S0, **overrides)
        if draws:
            with pytest.raises(StreamBuilt):
                run_closed_loop(cfg, seed=7)
        else:
            assert len(run_closed_loop(cfg, seed=7)) == cfg.n_steps + 1
        # the seed is checked whether or not the run draws
        with pytest.raises(ConfigError, match=r"^run\.seed: "):
            run_closed_loop(cfg, seed=-1)

    def test_numpy_integer_seed_override_runs_as_the_int(self):
        runs = run_closed_loop(S0, seed=np.int64(3)), run_closed_loop(S0, seed=3)
        assert runs[0].values() == runs[1].values()

    def test_long_timeseries_gives_the_recorded_trajectory(self):
        # 10,000 breakpoints every 0.002 min; the digest covers every column
        # at full precision and was recorded when each step rebuilt the
        # list of breakpoint times
        samples = tuple(
            (k * 0.002, 10.0 + 0.1 * (k % 7), 60.0 + 0.5 * (k % 11))
            for k in range(10_000)
        )
        demand = DemandProfile(kind="timeseries", samples=samples)
        assert demand.sample_times is demand.sample_times
        traj = run_closed_loop(dataclasses.replace(S0, demand=demand))
        digest = hashlib.sha256()
        for name in STATE_FIELDS:
            digest.update(traj.column(name).tobytes())
        assert digest.hexdigest()[:16] == "73bf8386a3160729"

    def test_undefined_first_price_raises_without_warnings(self):
        # alpha2 = 0: neither the price nor the estimate alpha1/alpha2 may warn
        spec = SelfLearningSpec(initial_theta=(0.25, 0.0, 0.1))
        cfg = dataclasses.replace(S0, controller_kind="selflearning",
                                  selflearning_spec=spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PriceUndefinedError, match="step 0"):
                run_closed_loop(cfg)

    @pytest.mark.parametrize("alpha1, pi", [
        (0.25, math.inf), (-0.25, -math.inf), (0.0, math.nan),
    ])
    def test_undefined_estimate_is_recorded_without_warnings(self, alpha1, pi):
        # no SOV demand, so no step is priced; alpha1/alpha2 with alpha2 = 0
        # is recorded as numpy divides: a signed inf, or nan for 0/0
        spec = SelfLearningSpec(initial_theta=(alpha1, 0.0, 0.1))
        demand = DemandProfile(kind="constant", mean_hov=10.0, mean_sov=0.0)
        cfg = dataclasses.replace(S0, controller_kind="selflearning",
                                  selflearning_spec=spec, demand=demand, horizon=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pis = run_closed_loop(cfg).column("pi")
        np.testing.assert_array_equal(pis, np.full(4, pi))  # nan equals nan here

    def test_uncongested_demand_fails_with_step_index(self):
        demand = DemandProfile(kind="constant", mean_hov=5.0, mean_sov=10.0)
        cfg = dataclasses.replace(S0, demand=demand)
        with pytest.raises(ScenarioAssumptionError, match="step 0"):
            run_closed_loop(cfg)

    def test_same_seed_reproduces_bitwise(self):
        cfg = dataclasses.replace(
            S0,
            demand=DemandProfile(kind="poisson", mean_hov=10.0, mean_sov=60.0),
            seed=123,
        )
        first = run_closed_loop(cfg)
        second = run_closed_loop(cfg)
        for name in STATE_FIELDS:
            assert first.column(name).tobytes() == second.column(name).tobytes()
        # a config built again from the same values has the same identity
        assert config_fingerprint(cfg) == config_fingerprint(dataclasses.replace(cfg))

    def test_seed_changes_fingerprint(self):
        assert config_fingerprint(S0) != config_fingerprint(dataclasses.replace(S0, seed=1))

    def test_recorded_steps_conserve_flow(self):
        traj = run_closed_loop(S0)
        dt = 1.0 / 60.0
        lam1 = traj.column("lambda1")
        lam2 = traj.column("lambda2")
        q1, q2, q3 = (traj.column(n) for n in ("q1", "q2", "q3"))
        g1, g2 = traj.column("g1"), traj.column("g2")
        assert np.allclose(
            np.diff(lam1), ((q1 + q3 - g1) * dt)[:-1], atol=1e-9
        )
        assert np.allclose(
            np.diff(lam2), ((q2 - q3 - g2) * dt)[:-1], atol=1e-9
        )

    def test_gp_queue_grows_linearly_at_equilibrium(self):
        traj = run_closed_loop(S0)
        lam1 = traj.column("lambda1")
        lam2 = traj.column("lambda2")
        zeta = traj.column("zeta")
        dt = 1.0 / 60.0
        # optimal state: both the queue and the residual below 1e-6 for good
        settled = np.maximum(lam1, np.abs(zeta)) < 1e-6
        start = len(settled) - 1
        while start > 0 and settled[start - 1]:
            start -= 1
        assert start < len(settled) - 1
        growth = np.diff(lam2[start:])
        assert np.abs(growth - 10.0 * dt).max() < 1e-6

    def test_overestimated_scale_pays_for_the_estimate_in_hot_capacity(self):
        # guess 1.2 over a true scale of 1.0: the equilibrium estimate lies
        # above the true VOT, so once the HOT queue is empty the estimator can
        # only come down through unused residual capacity, pi' = -k2 * zeta
        spec = dataclasses.replace(S0.vot_spec, scale_guess=1.2)
        cfg = dataclasses.replace(S0, vot_spec=spec)
        traj = run_closed_loop(cfg)
        metrics = summarize(traj, pi_star=0.5)
        assert abs(metrics.final_pi - 0.5) <= 0.02
        assert metrics.final_lambda1 < 1e-2
        assert 3.90 <= metrics.final_u <= 4.15

        lam1, g1, pi = (traj.column(n) for n in ("lambda1", "g1", "pi"))
        queued = np.flatnonzero(lam1 != 0.0)
        clear = queued[-1] + 1 if queued.size else 0
        assert clear < len(traj) - 1
        assert pi[clear] > pi[-1]
        # every step from the clearance on updates the estimate; the last row
        # is recorded after the final update
        lost = np.sum(cfg.capacities.hot - g1[clear:-1]) * cfg.dt
        assert lost == pytest.approx(
            (pi[clear] - pi[-1]) / spec.residual_gain, abs=1e-9
        )


def reference_run_closed_loop(config, seed=None):
    """``run_closed_loop`` as it ran when each step read the demand through
    ``demand_at`` and the disturbance through ``choice.sample_eta`` on the
    run's ``Draws``, set the demand on the controller and called its
    ``quote`` and ``observe``, and called the plant kernels of ``traffic``
    and ``choice``: the loop now reads the demand only where it may change,
    makes the draws, the kernels' arithmetic and a vot controller's itself,
    and must give the same bits, and the same error, as this run."""
    caps, dt, n_steps = config.capacities, config.dt, config.n_steps
    demand, noise, behavior = config.demand, config.noise, config.behavior
    run_seed, _ = check_seeds(config.seed if seed is None else seed, 1)
    draws = Draws(run_seed)
    controller = config.controller.build(caps)
    lambda1, lambda2 = config.initial_hot_queue, config.initial_gp_queue
    has_pi = controller.vot_estimate is not None

    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n_steps + 1):
                t = k * dt
                _, _, w = traffic.queuing_times(lambda1, lambda2, caps)
                q1, q2, _ = demand_at(demand, t, draws)
                eta = choice.sample_eta(noise, draws)
                if q2 > 0.0:
                    controller.set_demand(q1, q2)
                    u = controller.quote(w)
                    q3 = choice.paying_demand(q2, u, w, eta, behavior)
                else:
                    u, q3 = 0.0, 0.0
                zeta = traffic.residual_capacity(caps.hot, q1, q3)
                g1, g2 = traffic.throughputs(lambda1, lambda2, zeta, q1, q2, caps, dt)
                pi = controller.vot_estimate if has_pi else math.nan
                rows.append((t, lambda1, lambda2, zeta, w, pi, u, g1, g2, q1, q2, q3, eta))
                if k == n_steps:
                    break
                if q2 > 0.0:
                    controller.observe(dt, lambda1, zeta, w, u, q1, q2, q3)
                lambda1, lambda2 = traffic.step_point_queues(
                    lambda1, lambda2, zeta, q1, q2, caps, dt)
        except HotSimError as exc:
            raise type(exc)(f"step {k} (t={t:.6g} min): {exc}") from exc

    return Trajectory(flat(rows), has_pi=has_pi)


def run_outcome(run, config):
    """Each column's bytes and whether the run keeps an estimate, or the type
    and message of the error the run raised."""
    try:
        traj = run(config)
    except (HotSimError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [traj.column(name).tobytes() for name in STATE_FIELDS], traj.has_pi


@st.composite
def _rates(draw, hot):
    """HOV and SOV rates: mostly congested, sometimes without SOVs, and
    sometimes uncongested, which fails the demand checks of set_demand."""
    hov = draw(st.floats(0.0, 0.8 * hot))
    no_sovs = draw(st.integers(0, 4)) == 2
    return hov, 0.0 if no_sovs else draw(st.floats(0.8 * (hot - hov), 3.0 * hot))


@st.composite
def _breakpoints(draw, n_steps, dt):
    """Timeseries sample times: the first at or before t = 0, the rest on step
    times ``k * dt``, one to three inside one step, anywhere in the run, or
    past the horizon, in order."""
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    times = set()
    for k in draw(st.lists(st.integers(0, n_steps + 2), max_size=4)):
        where = draw(st.sampled_from(["on", "inside", "anywhere"]))
        if where == "on":
            times.add(k * dt)
        elif where == "inside":
            times.update(k * dt + f * dt for f in draw(st.lists(inside, min_size=1, max_size=3)))
        else:
            times.add(draw(st.floats(0.0, 1.5 * n_steps * dt)))
    return [-draw(st.floats(0.0, 1.0))] + sorted(t for t in times if t > 0.0)


@st.composite
def _loop_scenarios(draw):
    """A closed-loop scenario of at most 120 steps, built in code.

    Capacities, rates, the step and the vot controller's gains are
    arbitrary floats, so that a sum taken in another order rounds
    differently; HOV demand stays below the HOT capacity, as a config
    requires, and may leave the corridor uncongested.
    """
    hot, gp = draw(st.floats(10.0, 60.0)), draw(st.floats(10.0, 60.0))
    dt = draw(st.floats(1e-3, 0.2))
    n_steps = draw(st.integers(1, 120))
    rates = _rates(hot)
    kind = draw(st.sampled_from(["constant", "poisson", "timeseries"]))
    if kind == "timeseries":
        demand = DemandProfile(kind, samples=tuple(
            (t, *draw(rates)) for t in draw(_breakpoints(n_steps, dt))))
    else:
        demand = DemandProfile(kind, *draw(rates))
    noise = NoiseSpec("uniform", draw(st.floats(0.0, 0.9))) if draw(st.booleans()) else NoiseSpec()
    controller = draw(st.sampled_from(["vot", "integral", "selflearning"]))
    return ScenarioConfig(
        capacities=Capacities(hot, gp),
        horizon=n_steps * dt,
        dt=dt,
        demand=demand,
        behavior=BehaviorParams(draw(st.floats(0.05, 2.0)), draw(st.floats(0.2, 5.0))),
        noise=noise,
        controller_kind=controller,
        vot_spec=VotControllerSpec(
            queue_gain=draw(st.floats(0.01, 1.0)), residual_gain=draw(st.floats(0.01, 1.0)),
            scale_guess=draw(st.floats(0.2, 5.0)), initial_vot=draw(st.floats(-1.0, 2.0))),
        integral_spec=IntegralTollSpec(initial_price=draw(st.floats(-2.0, 6.0))),
        # a queue on the HOT lanes longer than on the GP lanes gives w < 0
        initial_hot_queue=draw(st.floats(0.0, 40.0)),
        initial_gp_queue=draw(st.floats(0.0, 40.0)),
        seed=draw(st.integers(0, 2**32)),
    )


def _default(**overrides):
    return dataclasses.replace(S0, horizon=1.0, **overrides)


# one config per branch of the plant arithmetic that random draws may miss:
# (config, test on the reference trajectory that the branch ran)
BRANCHES = {
    "no-sovs-to-price": (
        _default(demand=DemandProfile("timeseries", samples=(
            (0.0, 10.0, 60.0), (0.2, 12.0, 0.0), (0.5, 9.0, 45.0)))),
        lambda c: (c["q2"] == 0.0).any()),
    "g1-capped-at-hot": (_default(initial_hot_queue=5.0),
                         lambda c: (c["g1"] == S0.capacities.hot).any()),
    # a paying share above one half: the logistic's x < 0 branch
    "logistic-x-negative": (
        _default(demand=DemandProfile(mean_hov=10.0, mean_sov=25.0),
                 noise=NoiseSpec("uniform", 0.3), seed=5),
        lambda c: (c["q3"] > 0.5 * c["q2"]).any()),
    "w-negative": (_default(initial_hot_queue=20.0, controller_kind="selflearning"),
                   lambda c: (c["w"] < 0.0).any()),
    # the vot law's quote and estimator step on w < 0: a long HOT queue, the
    # start of the runaway of ROADMAP direction 8
    "w-negative-vot": (_default(initial_hot_queue=20.0), lambda c: (c["w"] < 0.0).any()),
    # a runaway HOT queue: every SOV pays, the GP queue stays empty and raw
    # g2, in the kernel's order, rounds below zero
    "g2-floored": (
        _default(initial_hot_queue=80.0, demand=DemandProfile(mean_hov=11.1, mean_sov=71.4)),
        lambda c: ((c["q1"] + c["q2"] - S0.capacities.hot + c["zeta"] + c["lambda2"] / S0.dt
                    < 0.0) & (c["g2"] == 0.0)).any()),
    # the shortest run: the initial row and the final one
    "one-step": (dataclasses.replace(S0, horizon=S0.dt), lambda c: len(c["t"]) == 2),
}


# the Poisson means of numpy's three paths: zero, the multiplication method
# (below 10) and PTRS
POISSON_PATHS = (0.0, 3.5, 10.0, 60.0)


class TestPlantArithmetic:
    """The loop's draws and plant arithmetic against the run that calls the
    references: ``demand_at``, ``choice.sample_eta`` and the kernels."""

    @pytest.mark.parametrize("name", BRANCHES)
    def test_branch_runs_and_matches_the_kernels(self, name):
        config, ran = BRANCHES[name]
        traj = reference_run_closed_loop(config)
        assert ran({field: traj.column(field) for field in STATE_FIELDS})
        assert run_outcome(run_closed_loop, config) == run_outcome(
            reference_run_closed_loop, config)
        # its rows, a one-step run's two too, summarize and write a CSV line each
        summarize(traj, config.behavior.vot)
        assert trajectory_csv(traj).count("\n") == len(traj) + 1

    def test_poisson_hov_near_capacity_fails_as_the_kernels_do(self):
        config = dataclasses.replace(S0, demand=DemandProfile("poisson", 25.0, 60.0))
        outcome = run_outcome(run_closed_loop, config)
        assert outcome == run_outcome(reference_run_closed_loop, config)
        assert outcome[0] is ScenarioAssumptionError
        assert outcome[1].startswith("step 2 ")

    @settings(max_examples=150)
    @given(_loop_scenarios())
    def test_loop_matches_the_kernels_bit_for_bit(self, config):
        assert run_outcome(run_closed_loop, config) == run_outcome(
            reference_run_closed_loop, config)

    @pytest.mark.parametrize("seed", [0, 1000, 2**63 + 5])
    @pytest.mark.parametrize("half_width", [0.0, 0.1, 0.999])
    @pytest.mark.parametrize("hov, sov", itertools.product(POISSON_PATHS, repeat=2))
    def test_loop_draws_what_the_references_draw(self, hov, sov, half_width, seed):
        # the integral controller prices any demand, so every step is recorded
        config = _default(demand=DemandProfile("poisson", hov, sov),
                          noise=NoiseSpec("uniform", half_width),
                          controller_kind="integral", seed=seed)
        outcome = run_outcome(run_closed_loop, config)
        assert isinstance(outcome[0], list)
        assert outcome == run_outcome(reference_run_closed_loop, config)

    @pytest.mark.parametrize("one_step", [False, True], ids=["horizon", "one-step"])
    @pytest.mark.parametrize("kind", ["vot", "integral", "selflearning"])
    @pytest.mark.parametrize("scenario", ["reference", "perturbed", "stochastic"])
    def test_shipped_scenario_writes_what_the_reference_writes(self, scenario, kind, one_step):
        config = dataclasses.replace(load_config(SCENARIOS / f"{scenario}.yaml"),
                                     seed=1000, controller_kind=kind)
        if one_step:
            config = dataclasses.replace(config, horizon=config.dt)

        def written(trajectory):
            summary = summarize(trajectory, config.behavior.vot).as_dict()
            return len(trajectory), trajectory.values(), trajectory_csv(trajectory), summary

        traj = run_closed_loop(config)
        assert len(traj) == (2 if one_step else config.n_steps + 1)
        assert written(traj) == written(reference_run_closed_loop(config))


# the arguments of observe after dt, each a recorded column
OBSERVED = ("lambda1", "zeta", "w", "u", "q1", "q2", "q3")
# breakpoints before the run, between two steps, on a step time, two between
# the next two steps (the second leaves no SOVs to price), on a step time
# again and past the horizon; tests/test_golden.py holds this run's CSVs
TIMESERIES = ("demand: {kind: timeseries, samples: [[-3, 10, 60], [5.005, 12, 58], "
              "[10, 11, 61.5], [10.001, 9, 70], [10.002, 10, 0], [12.5, 10, 65], [25, 10, 60]]}")


class TestDemandReads:
    """The loop reads the demand, and forms the price law's demand term, only
    at a step where it may have changed, and forms it only when it has SOVs;
    it quotes and observes only at a step with SOVs to price.  A vot run
    forms the term itself, through the ``clearing_log_odds`` that ``engine``
    imports; any other run calls its controller's ``set_demand``."""

    @staticmethod
    def logged(monkeypatch, owner, name):
        """Replace ``owner.name`` by a wrapper that logs the arguments of
        each call, and return the log."""
        log, call = [], getattr(owner, name)

        def logging_call(*args):
            log.append(args)
            return call(*args)

        monkeypatch.setattr(owner, name, logging_call)
        return log

    @classmethod
    def logged_pricings(cls, monkeypatch, config):
        """A log that takes the rates of each demand-term read of a run of
        ``config``, as ``(q1, q2)``, once that run is made."""
        if config.controller_kind == "vot":  # the loop's own read: (q1, q2, c1)
            return cls.logged(monkeypatch, engine, "clearing_log_odds"), slice(0, 2)
        # a controller's set_demand, patched on its class: (self, q1, q2)
        controller = type(config.controller.build(config.capacities))
        return cls.logged(monkeypatch, controller, "set_demand"), slice(1, 3)

    def reads_and_pricings(self, monkeypatch, config):
        """The trajectory, the time of each ``demand_at`` call and the rates
        of each demand-term read of one run."""
        reads = self.logged(monkeypatch, engine, "demand_at")
        pricings, rates = self.logged_pricings(monkeypatch, config)
        traj = run_closed_loop(config)
        return traj, [t for _, t, _ in reads], [args[rates] for args in pricings]

    def test_constant_demand_is_read_and_priced_once(self, monkeypatch):
        config = load_config(SCENARIOS / "reference.yaml")
        _, reads, pricings = self.reads_and_pricings(monkeypatch, config)
        assert (reads, pricings) == ([0.0], [(10.0, 60.0)])

    def test_poisson_demand_is_read_and_priced_every_step(self, monkeypatch):
        # the loop makes a Poisson read's draws itself, so the run's stream logs them
        config = load_config(SCENARIOS / "stochastic.yaml")
        draws = []  # (mean, value) of each poisson call, ("raw", value) of each raw
        operands = set()  # the id of each mean a poisson call got

        class LoggedDraws(Draws):
            def __init__(self, seed):
                super().__init__(seed)
                poisson, raw = self.poisson, self.raw

                def logged_poisson(mean):
                    # the loop's operand: a float64 0-d array, formed once per run
                    assert (type(mean), mean.dtype, mean.shape) == (np.ndarray, np.float64, ())
                    operands.add(id(mean))
                    draws.append((float(mean), poisson(mean)))
                    return draws[-1][1]

                def logged_raw():
                    draws.append(("raw", raw()))
                    return draws[-1][1]

                self.poisson, self.raw = logged_poisson, logged_raw

        monkeypatch.setattr(engine, "Draws", LoggedDraws)
        pricings, rates = self.logged_pricings(monkeypatch, config)
        traj = run_closed_loop(config)
        pricings = [args[rates] for args in pricings]
        # each read: the HOV mean's draw, then the SOV mean's, then the disturbance's
        reads = [draws[i:i + 3] for i in range(0, len(draws), 3)]
        assert len(reads) == config.n_steps + 1 and len(operands) == 2
        assert [[mean for mean, _ in read] for read in reads] == [[10.0, 60.0, "raw"]] * len(reads)
        q1, q2 = traj.column("q1"), traj.column("q2")
        assert [(hov, sov) for (_, hov), (_, sov), _ in reads] == list(zip(q1, q2))
        assert pricings == [(a, b) for a, b in zip(q1, q2) if b > 0.0]

    @pytest.mark.parametrize("kind", ["vot", "integral", "selflearning"])
    def test_timeseries_is_read_at_each_breakpoint_reached(self, monkeypatch, kind):
        config = parse_config_text(f"{TIMESERIES}\ncontroller: {{kind: {kind}}}\n")
        expected = run_outcome(reference_run_closed_loop, config)
        traj, reads, pricings = self.reads_and_pricings(monkeypatch, config)
        # step 0, then the first step at or past 5.005, 10, 10.001 and 10.002
        # (one read) and 12.5; the breakpoint at 25 lies past the horizon
        assert reads == [k * config.dt for k in (0, 301, 600, 601, 750)]
        # the sample of step 601 has no SOVs, so nothing is priced there
        assert pricings == [(10.0, 60.0), (12.0, 58.0), (11.0, 61.5), (10.0, 65.0)]
        assert [traj.column(name).tobytes() for name in STATE_FIELDS] == expected[0]

    @pytest.mark.parametrize("kind", ["vot", "integral", "selflearning"])
    def test_timeseries_quotes_and_observes_each_priced_step(self, monkeypatch, kind):
        config = parse_config_text(f"{TIMESERIES}\ncontroller: {{kind: {kind}}}\n")
        cls = type(config.controller.build(config.capacities))
        calls = {name: self.logged(monkeypatch, cls, name)
                 for name in ("set_demand", "quote", "observe")}
        traj = run_closed_loop(config)
        c = {name: traj.column(name).tolist() for name in STATE_FIELDS}
        priced = [k for k, q2 in enumerate(c["q2"]) if q2 > 0.0]
        # the sample of step 601 has no SOVs; the last row is priced
        assert 601 not in priced and priced[-1] == len(traj) - 1
        if kind == "vot":
            # the loop prices itself, with no call to log; the reference run
            # calls all three at the priced steps, and
            # test_timeseries_is_read_at_each_breakpoint_reached holds the bits
            assert calls == {"set_demand": [], "quote": [], "observe": []}
            return
        # a set_demand at each of the four priced reads, a quote at every
        # priced step, the last row's included, and an observation of every
        # priced step but the last, which is recorded without a controller update
        assert len(calls["set_demand"]) == 4
        assert [w for _, w in calls["quote"]] == [c["w"][k] for k in priced]
        assert [args[1:] for args in calls["observe"]] == [
            (config.dt, *(c[name][k] for name in OBSERVED)) for k in priced[:-1]]

    def test_a_vot_subclass_is_called_and_runs_the_same_bits(self, monkeypatch):
        class Subclass(VotFeedbackController):
            pass

        config = parse_config_text(f"{TIMESERIES}\n")
        inline = run_outcome(run_closed_loop, config)
        # the spec builds its controller class, which is now the subclass
        monkeypatch.setattr(VotControllerSpec, "controller", Subclass)
        quotes = self.logged(monkeypatch, Subclass, "quote")
        traj = run_closed_loop(config)
        assert len(quotes) == int((traj.column("q2") > 0.0).sum())
        assert run_outcome(run_closed_loop, config) == inline

    def test_one_sample_timeseries_runs_as_constant_demand(self, monkeypatch):
        demand = DemandProfile("timeseries", samples=((0.0, 10.0, 60.0),))
        config = dataclasses.replace(S0, demand=demand)
        traj, reads, pricings = self.reads_and_pricings(monkeypatch, config)
        assert (reads, pricings) == ([0.0], [(10.0, 60.0)])
        assert traj.values() == run_closed_loop(S0).values()


class TestTrajectory:
    @pytest.mark.parametrize("n_rows", [0, 1, 7])
    def test_table_is_the_transposed_rows_in_bytes(self, n_rows):
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 3, -2, 1e-310, 1.5,
                    NEGATIVE_NAN_WITH_PAYLOAD]
        rows = [
            tuple(specials[(i * 5 + j) % len(specials)] for j in range(len(STATE_FIELDS)))
            for i in range(n_rows)
        ]
        values = flat(rows)
        traj = Trajectory(values, has_pi=True)
        assert traj.values() is values  # kept, not copied
        # the table as built before it was read in one pass
        table = np.array(list(zip(*rows)), dtype=float).reshape(len(STATE_FIELDS), -1)
        assert len(traj) == n_rows
        for name, expected in zip(STATE_FIELDS, table):
            column = traj.column(name)
            assert column.dtype == np.float64 and column.flags.c_contiguous
            assert column.tobytes() == expected.tobytes()
        assert np.array(traj.values(), dtype=float).tobytes() == table.T.tobytes()
        # the CSV formats the stored values as a str %-format would their floats
        csv = trajectory_csv(traj)
        assert csv == str_csv(STATE_FIELDS, [float(value) for value in values])
        # each read is a new array: writing into one changes neither a later
        # read nor the CSV
        for name in STATE_FIELDS:
            traj.column(name)[:] = 7.25
        for name, expected in zip(STATE_FIELDS, table):
            assert traj.column(name).tobytes() == expected.tobytes()
        assert trajectory_csv(traj) == csv

    @settings(max_examples=500)
    @given(_tables())
    def test_csv_is_the_str_format_of_its_values(self, table):
        header, values = table
        assert _csv(header, values) == str_csv(header, values)

    @pytest.mark.parametrize("pattern", ["gaussian", "exponential", "undetermined"])
    def test_csv_takes_a_text_column_as_ascii_bytes(self, pattern):
        # the row format of sweep.csv, whose pattern column cmd_sweep encodes
        header, row_format = ("k2", "pattern", "a", "b", "c"), "%.9g,%s,%.9g,%.9g,%.9g"
        values = [0.1, pattern, 1 / 3, math.nan, -0.0, 0.12, pattern, 2.5e-310, 1, -math.inf]
        encoded = [value.encode() if isinstance(value, str) else value for value in values]
        assert _csv(header, encoded, row_format) == str_csv(header, values, row_format)

    @pytest.mark.parametrize("name", ["nope", "T", "", 1, None, ["t"]],
                             ids=["nope", "T", "empty", "int", "none", "list"])
    def test_unknown_column_is_a_value_error_naming_the_fields(self, name):
        traj = Trajectory([0.0] * len(STATE_FIELDS), has_pi=True)
        with pytest.raises(ValueError) as caught:
            traj.column(name)
        assert str(caught.value) == (f"column: expected one of {', '.join(STATE_FIELDS)}, "
                                     f"got {name!r}")

    @pytest.mark.parametrize("n_values", [1, len(STATE_FIELDS) - 1, len(STATE_FIELDS) + 1])
    def test_values_that_are_not_whole_rows_are_rejected(self, n_values):
        with pytest.raises(ValueError, match=f"^{n_values} values are no whole number "
                                             f"of rows of {len(STATE_FIELDS)}$"):
            Trajectory([0.0] * n_values, has_pi=True)

    @pytest.mark.parametrize("horizon, n_rows", [(S0.horizon, 1201), (10 * S0.horizon, 12001)])
    def test_a_kept_run_hands_the_collector_no_object_per_step(self, horizon, n_rows):
        # a run kept as one list of floats adds a few tracked objects, where
        # a tuple per step would add one per row
        config = dataclasses.replace(S0, horizon=horizon)
        run_closed_loop(config)  # makes whatever a first run caches
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            traj = run_closed_loop(config)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(traj) == n_rows
        assert added < 10


class TestSummaries:
    def test_empty_trajectory_is_rejected(self):
        with pytest.raises(ValueError, match="^cannot summarize an empty trajectory"):
            summarize(Trajectory([], has_pi=True), 0.5)

    def test_summary_stores_python_floats(self):
        metrics = SummaryMetrics(avg_g1=np.float64(30), final_u=np.float32(0.5), final_pi=None,
                                 max_lambda1=np.int64(2), final_lambda1=0, time_to_zero_queue=1.5,
                                 pi_rmse_tail=None)
        assert metrics.as_dict() == dict(avg_g1=30.0, final_u=0.5, final_pi=None,
                                         max_lambda1=2.0, final_lambda1=0.0,
                                         time_to_zero_queue=1.5, pi_rmse_tail=None)
        assert {type(v) for v in metrics.as_dict().values()} == {float, type(None)}
        summary = summarize(run_closed_loop(S0), pi_star=0.5)
        assert {type(v) for v in summary.as_dict().values()} <= {float, type(None)}

    @pytest.mark.parametrize("name, value, shown", [
        ("avg_g1", math.nan, "nan"), ("final_pi", np.float64("-inf"), "-inf"),
        ("pi_rmse_tail", np.float64("inf"), "inf")])
    def test_summary_built_with_a_non_finite_metric_names_it(self, name, value, shown):
        fields = dict(avg_g1=1.0, final_u=1.0, final_pi=0.5, max_lambda1=1.0,
                      final_lambda1=0.0, time_to_zero_queue=None, pi_rmse_tail=0.1)
        with pytest.raises(NonFiniteResultError) as error:
            SummaryMetrics(**dict(fields, **{name: value}))
        assert str(error.value) == f"summary metric {name}: expected a finite number, got {shown}"

    def test_reference_run_metrics(self):
        metrics = summarize(run_closed_loop(S0), pi_star=0.5)
        assert metrics.avg_g1 == pytest.approx(29.96, abs=0.05)
        assert metrics.final_u == pytest.approx(4.024, abs=0.05)
        assert metrics.final_pi == pytest.approx(0.5, abs=0.01)
        assert metrics.final_lambda1 < 1e-3
        assert metrics.time_to_zero_queue is not None
        assert metrics.time_to_zero_queue < 10.0
        assert metrics.pi_rmse_tail < 0.01

    def test_all_zero_trajectory_gives_zero_metrics(self):
        # t, lambda1, lambda2, zeta, w, pi, u, g1, g2, q1, q2, q3, eta
        rows = [(k * 0.1,) + (0.0,) * 12 for k in range(11)]
        metrics = summarize(Trajectory(flat(rows), has_pi=True), pi_star=0.0)
        assert metrics.avg_g1 == 0.0
        assert metrics.final_u == 0.0
        assert metrics.final_pi == 0.0
        assert metrics.max_lambda1 == 0.0
        assert metrics.final_lambda1 == 0.0
        assert metrics.time_to_zero_queue == 0.0
        assert metrics.pi_rmse_tail == 0.0

    def test_integral_controller_has_no_vot_estimate(self):
        cfg = dataclasses.replace(S0, controller_kind="integral")
        metrics = summarize(run_closed_loop(cfg), pi_star=0.5)
        assert metrics.final_pi is None
        assert metrics.pi_rmse_tail is None

    def test_persistent_queue_has_no_zero_time(self):
        cfg = dataclasses.replace(
            S0, controller_kind="integral", integral_spec=IntegralTollSpec()
        )
        metrics = summarize(run_closed_loop(cfg), pi_star=0.5)
        assert metrics.time_to_zero_queue is None

    # one config per way a finite input drives the state out of the finite range
    OVERFLOWING = [
        (dict(initial_hot_queue=1.0e300), "final_u"),
        (dict(vot_spec=dataclasses.replace(S0.vot_spec, initial_vot=1.0e300)),
         "pi_rmse_tail"),
        (dict(controller_kind="selflearning",
              selflearning_spec=SelfLearningSpec(initial_theta=(1.0e300, 1.0e-5, 0.0))),
         "pi_rmse_tail"),
        # alpha1 = alpha2 = 0 and no SOV demand to quote: the estimate is 0/0,
        # which is a nan estimate, not a controller without one
        (dict(controller_kind="selflearning",
              selflearning_spec=SelfLearningSpec(initial_theta=(0.0, 0.0, 0.1)),
              demand=DemandProfile("timeseries", samples=((0.0, 10.0, 0.0),)),
              horizon=0.05),
         "final_pi"),
    ]

    @pytest.mark.parametrize("overrides, metric", OVERFLOWING,
                             ids=["hot_queue", "initial_vot", "initial_theta", "nan_estimate"])
    def test_non_finite_metric_is_named_without_warnings(self, overrides, metric):
        cfg = dataclasses.replace(S0, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_closed_loop(cfg)
            with pytest.raises(NonFiniteResultError,
                               match=f"^summary metric {metric}: expected a finite number, got "):
                summarize(traj, pi_star=0.5)

    def test_first_non_finite_metric_in_summary_order_is_named(self):
        # u (final_u) and lambda1 (max_lambda1, final_lambda1) are non-finite
        rows = [(0.0, math.inf, 0.0, 0.0, 0.0, 0.5, math.nan) + (0.0,) * 6]
        with pytest.raises(NonFiniteResultError,
                           match="^summary metric final_u: expected a finite number, got nan$"):
            summarize(Trajectory(flat(rows), has_pi=True), pi_star=0.5)
