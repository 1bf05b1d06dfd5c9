"""Scenario parsing: defaults, validation, and error paths."""

import dataclasses
import hashlib
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hotsim.analysis import approx_initial_zeta
from hotsim.choice import BehaviorParams, NoiseSpec
from hotsim.cli import trajectory_csv
from hotsim.config import (
    CONTROLLER_KINDS,
    MAX_STEPS,
    SCHEMA,
    IntegralTollSpec,
    ScenarioConfig,
    SelfLearningSpec,
    VotControllerSpec,
    config_fingerprint,
    config_from_mapping,
    load_config,
    parse_config_text,
)
from hotsim.engine import POISSON_MEAN_MAX, UNREAD_DEMAND_KEYS, DemandProfile, run_closed_loop
from hotsim import analysis, errors
from hotsim.errors import ConfigError, ScenarioAssumptionError
from hotsim.pricing import SelfLearningController
from hotsim.traffic import Capacities


class TestDefaults:
    def test_empty_document_yields_reference_scenario(self):
        cfg = parse_config_text("")
        assert cfg.capacities.hot == 30.0
        assert cfg.capacities.gp == 30.0
        assert cfg.horizon == 20.0
        assert cfg.dt == pytest.approx(1.0 / 60.0, rel=1e-12)
        assert cfg.demand.kind == "constant"
        assert (cfg.demand.mean_hov, cfg.demand.mean_sov) == (10.0, 60.0)
        assert cfg.behavior.vot == 0.5
        assert cfg.behavior.scale == 1.0
        assert cfg.noise.kind == "none"
        assert cfg.controller_kind == "vot"
        assert cfg.vot_spec.queue_gain == 0.1
        assert cfg.vot_spec.residual_gain == 0.1
        assert cfg.vot_spec.initial_vot == 0.25
        assert cfg.seed == 0
        assert cfg.replications == 1

    def test_empty_sections_use_defaults(self):
        cfg = parse_config_text("run:\ncapacities:\ncontroller:\n")
        assert cfg == ScenarioConfig()

    def test_baseline_defaults(self):
        cfg = parse_config_text("")
        assert cfg.integral_spec.gain == 0.01
        assert cfg.integral_spec.initial_price == pytest.approx(math.log(2.0))
        assert cfg.selflearning_spec.initial_theta == (0.25, 1.0, 0.1)
        assert cfg.selflearning_spec.measurement_var == 0.09

    def test_n_steps(self):
        assert parse_config_text("").n_steps == 1200


class TestParsing:
    def test_fraction_step_size(self):
        cfg = parse_config_text("run: {dt: 1/120, horizon: 10}")
        assert cfg.dt == pytest.approx(1.0 / 120.0, rel=1e-12)
        assert cfg.n_steps == 1200

    def test_controller_selection(self):
        cfg = parse_config_text(
            "controller:\n  kind: integral\n  integral: {gain: 0.02}\n"
        )
        assert cfg.controller_kind == "integral"
        assert cfg.controller.gain == 0.02

    def test_timeseries_demand(self):
        cfg = parse_config_text(
            "demand:\n  kind: timeseries\n  samples: [[0, 10, 60], [5, 12, 55]]\n"
        )
        assert cfg.demand.samples == ((0.0, 10.0, 60.0), (5.0, 12.0, 55.0))

    def test_selflearning_matrix_forms(self):
        cfg = parse_config_text(
            "controller:\n"
            "  kind: selflearning\n"
            "  selflearning:\n"
            "    initial_cov: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
        )
        assert cfg.selflearning_spec.initial_cov == (
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        )

    def test_approx_seed_value(self):
        cfg = parse_config_text("approx: {zeta0: 0.11}")
        assert cfg.approx_zeta0 == 0.11
        assert approx_initial_zeta(cfg) == 0.11

    def test_approx_seed_derived_from_initial_state(self):
        cfg = parse_config_text(
            "initial: {hot_queue: 1.0}\ncontroller: {vot: {initial_vot: 0.25}}"
        )
        # queue of one vehicle: w = -1/30, priced with the quarter estimate
        w0 = -1.0 / 30.0
        u0 = 0.25 * w0 + math.log(2.0)
        expected = 20.0 - 60.0 / (1.0 + math.exp(u0 - 0.5 * w0))
        assert approx_initial_zeta(cfg) == pytest.approx(expected, rel=1e-12)
        assert approx_initial_zeta(cfg) == pytest.approx(0.11, abs=1e-3)

    def test_merge_key_may_be_overridden(self):
        # a key given beside a merge key (<<) overrides the merged one; it is
        # not a key given twice
        cfg = parse_config_text("capacities: {<<: {hot: 31, gp: 31}, hot: 32}")
        assert cfg.capacities == Capacities(32.0, 31.0)


class TestValidation:
    def test_zero_step_size_rejected(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config_text("run: {dt: 0}")

    def test_step_must_divide_horizon(self):
        with pytest.raises(ConfigError, match="divide"):
            parse_config_text("run: {dt: 0.3, horizon: 20}")

    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match="controller.vot.queue_gian"):
            parse_config_text("controller: {vot: {queue_gian: 0.1}}")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key pricing"):
            parse_config_text("pricing: {}")

    def test_missing_timeseries_samples(self):
        with pytest.raises(ConfigError, match="demand.samples"):
            parse_config_text("demand: {kind: timeseries}")

    @pytest.mark.parametrize("text, key", [
        ("demand: {kind: timeseries, samples: [[0, 10, 60]], hov: 12}",
         "demand.hov: not read by timeseries demand"),
        ("demand: {kind: timeseries, samples: [[0, 10, 60]], sov: 12}",
         "demand.sov: not read by timeseries demand"),
        # the parser's rule: a key given is an error even at the default its owner takes
        ("demand: {kind: timeseries, samples: [[0, 10, 60]], hov: 10}",
         "demand.hov: not read by timeseries demand"),
        ("demand: {kind: timeseries, samples: [[0, 10, 60]], sov: 60.0}",
         "demand.sov: not read by timeseries demand"),
        # ... and before the owner's rules, so of two unread keys the first in the table
        ("demand: {kind: timeseries, samples: [[0, 10, 60]], hov: 10, sov: 12}",
         "demand.hov: not read by timeseries demand"),
        ("demand: {kind: timeseries, samples: [[0, 10, 60]], sov: 12, hov: 10}",
         "demand.hov: not read by timeseries demand"),
        ("demand: {kind: timeseries, samples: [[0, 10]], hov: 10}",
         "demand.hov: not read by timeseries demand"),
        # ... and reported at its section, before a later section's error
        ("demand: {kind: timeseries, samples: [[0, 10, 60]], hov: 10}\ncapacities: {hot: -1}",
         "demand.hov: not read by timeseries demand"),
        ("demand: {kind: poisson, samples: [[0, 10, 60]]}",
         "demand.samples: not read by poisson demand"),
        ("demand: {kind: poisson, samples: []}", "demand.samples: not read by poisson demand"),
        ("demand: {samples: [[0, 10, 60]]}", "demand.samples: not read by constant demand"),
        ("demand: {samples: []}", "demand.samples: not read by constant demand"),
        ("noise: {half_width: 0.3}", "noise.half_width: not read by none noise"),
        ("noise: {kind: none, half_width: 1.0e-300}", "noise.half_width: not read by none noise"),
        # the unread key first, before the number and range rules of a uniform one
        ("noise: {kind: none, half_width: -1}", "noise.half_width: not read by none noise"),
    ])
    def test_key_the_kind_does_not_read(self, text, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}$"):
            parse_config_text(text)

    @pytest.mark.parametrize("key", ["hov", "sov", "samples"])
    @pytest.mark.parametrize("kind", list(UNREAD_DEMAND_KEYS))
    def test_one_table_serves_owner_parser_and_mapping(self, kind, key):
        # a key off its default fails in code, and a key given fails in a
        # file, exactly when the table lists it; to_mapping keeps the rest
        unread = key in UNREAD_DEMAND_KEYS[kind]
        samples = {"samples": [[0, 10, 60]]} if kind == "timeseries" else {}
        given = {"hov": 12, "sov": 50, "samples": [[0, 12, 50]]}[key]
        text = yaml.safe_dump({"demand": {"kind": kind, **samples, key: given}})
        field = {"hov": "mean_hov", "sov": "mean_sov", "samples": "samples"}[key]
        if unread:
            with pytest.raises(ValueError, match=f"^{key}: not read by {kind} demand$"):
                DemandProfile(kind, **{**samples, field: given})
            with pytest.raises(ConfigError, match=f"^demand.{key}: not read by {kind} demand$"):
                parse_config_text(text)
        else:
            DemandProfile(kind, **{**samples, field: given})
            mapping = parse_config_text(text).to_mapping()["demand"]
            assert list(mapping) == [k for k in SCHEMA["demand"]
                                     if k not in UNREAD_DEMAND_KEYS[kind]]

    # the full line of each kind rule, after its section from a file and
    # without it from code, but for the kind the ScenarioConfig owns
    @pytest.mark.parametrize("text, build, from_file, from_code", [
        ("demand: {kind: foo}", lambda: DemandProfile("foo"),
         "demand.kind: expected one of constant, poisson, timeseries, got 'foo'",
         "kind: expected one of constant, poisson, timeseries, got 'foo'"),
        ("noise: {kind: foo}", lambda: NoiseSpec("foo"),
         "noise.kind: expected one of none, uniform, got 'foo'",
         "kind: expected one of none, uniform, got 'foo'"),
        ("controller: {kind: foo}", lambda: ScenarioConfig(controller_kind="foo"),
         "controller.kind: expected one of vot, integral, selflearning, got 'foo'",
         "controller.kind: expected one of vot, integral, selflearning, got 'foo'"),
    ], ids=["demand", "noise", "controller"])
    def test_unknown_kind_message(self, text, build, from_file, from_code):
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(text)
        with pytest.raises((ValueError, ConfigError)) as built:
            build()
        assert (str(parsed.value), str(built.value)) == (from_file, from_code)

    @pytest.mark.parametrize("build, kind, message", [
        (lambda kind: DemandProfile(kind), "constant",
         "kind: expected one of constant, poisson, timeseries"),
        (lambda kind: NoiseSpec(kind), "none", "kind: expected one of none, uniform"),
        (lambda kind: ScenarioConfig(controller_kind=kind), "vot",
         "controller.kind: expected one of vot, integral, selflearning"),
    ], ids=["demand", "noise", "controller"])
    def test_kind_is_a_string(self, build, kind, message):
        # a one-element array equals its string, but is no kind
        build(np.str_(kind))
        with pytest.raises((ValueError, ConfigError), match=f"^{re.escape(message)}, got array"):
            build(np.array([kind]))

    @pytest.mark.parametrize("text, message", [
        ("demand: {hov: -1}", "demand.hov cannot be negative"),
        ("demand: {kind: poisson, sov: -1}", "demand.sov cannot be negative"),
        ("demand: {kind: timeseries, samples: [[0, 10, 60], [0, 10, 60]]}",
         "demand.samples: timeseries sample times must be strictly increasing"),
        ("demand: {kind: timeseries, samples: [[0, 10, -60]]}",
         "demand.samples: demand rates cannot be negative"),
        ("demand: {kind: timeseries, samples: [[5, 10, 60]]}",
         "demand.samples: first sample must start at t <= 0"),
        # numpy draws no Poisson mean above its limit
        ("demand: {kind: poisson, hov: 1.0e19}",
         "demand.hov: a Poisson mean must be at most 9.22337e+18 veh/min, got 1e+19"),
        ("demand: {kind: poisson, sov: 1.0e19}",
         "demand.sov: a Poisson mean must be at most 9.22337e+18 veh/min, got 1e+19"),
    ])
    def test_demand_range_rules(self, text, message):
        # each value is finite, so the range rule, not the finite check, rejects it
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)

    def test_saturating_hov_demand_is_assumption_error(self):
        # a mean or a sample that fills the HOT lanes is parsed or built; the
        # congested-regime rule is the price law's, met when the run sets that demand
        parsed = parse_config_text("demand: {hov: 30.0}")
        built = dataclasses.replace(
            ScenarioConfig(), demand=DemandProfile("timeseries", samples=((0.0, 30.0, 60.0),)))
        assert parsed.demand.mean_hov == 30.0
        for cfg in (parsed, built):
            with pytest.raises(ScenarioAssumptionError,
                               match=r"^step 0 \(t=0 min\): HOV demand 30 "):
                run_closed_loop(cfg)

    def test_poisson_mean_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_MEAN_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(math.nextafter(POISSON_MEAN_MAX, math.inf))
        DemandProfile("poisson", POISSON_MEAN_MAX, POISSON_MEAN_MAX)

    def test_negative_gain_rejected(self):
        with pytest.raises(ConfigError, match="controller.vot"):
            parse_config_text("controller: {vot: {queue_gain: -0.1}}")

    def test_noise_half_width_bounds(self):
        with pytest.raises(ConfigError, match="noise"):
            parse_config_text("noise: {kind: uniform, half_width: 1.5}")

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("run: {seed: 1.5}")

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("run: {seed: -1}")

    def test_replications_at_least_one(self):
        with pytest.raises(ConfigError, match="replications"):
            parse_config_text("run: {replications: 0}")

    def test_bad_yaml_reported(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config_text("run: [unclosed")

    @pytest.mark.parametrize("text, reason", [
        ("run: {seed: 2001-02-30}", "day is out of range for month"),
        ("run: {seed: " + "1" * 4301 + "}", "Exceeds the limit (4300 digits)"),
    ], ids=["date-past-month-end", "4301-digit-integer"])
    def test_scalar_the_yaml_reader_cannot_construct_is_malformed(self, text, reason):
        # PyYAML raises a ValueError of its own for these, not a YAMLError
        with pytest.raises(ConfigError) as error:
            parse_config_text(text)
        assert str(error.value).startswith(f"malformed scenario file: {reason}")
        assert "\n" not in str(error.value)

    def test_scalar_document_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config_text("42")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/scenario.yaml")


# one value per rule across sections, set without the parser: (fields, error, key)
UNPARSED = [
    ({"controller_kind": "foo"}, ConfigError, "controller.kind"),
    ({"dt": -1 / 60}, ConfigError, "run.dt"),
    ({"horizon": 1e9}, ConfigError, "run: horizon"),
    ({"seed": -1}, ConfigError, "run.seed"),
    ({"replications": 0}, ConfigError, "run.replications"),
    ({"initial_gp_queue": -1.0}, ConfigError, "initial.gp_queue"),
]

TIMESERIES_ONE = DemandProfile("timeseries", samples=((0.0, 10.0, 60.0),))
# each key the default kind of its section does not read -> a section object
# whose kind reads it
READ_BY = {"demand.samples": TIMESERIES_ONE, "noise.half_width": NoiseSpec("uniform", 0.1)}


class TestBuiltInCode:
    @pytest.mark.parametrize("fields, error, key", UNPARSED,
                             ids=[key for _, _, key in UNPARSED])
    def test_replace_checks_the_rules_across_sections(self, fields, error, key):
        # only built, never run
        with pytest.raises(error, match=f"^{re.escape(key)}"):
            dataclasses.replace(ScenarioConfig(), **fields)

    # a setting its kind does not read is rejected by its owner, with the
    # parser's message for the same key, less its section
    @pytest.mark.parametrize("build, message", [
        *[(lambda width=width: NoiseSpec("none", width), "half_width: not read by none noise")
          for width in (0.3, -1, math.nan, "junk", False)],
        (lambda: DemandProfile(samples=((0.0, 10.0, 60.0),)),
         "samples: not read by constant demand"),
        (lambda: DemandProfile("poisson", samples=((0.0, 10.0, 60.0),)),
         "samples: not read by poisson demand"),
        (lambda: DemandProfile(samples=np.array([[0.0, 10.0, 60.0]])),
         "samples: not read by constant demand"),
        *[(lambda mean=mean: DemandProfile("timeseries", mean_hov=mean, samples=[[0, 10, 60]]),
           "hov: not read by timeseries demand")
          for mean in ("junk", 12, math.nan, None, np.array([10.0]))],
        (lambda: DemandProfile("timeseries", mean_sov=60.5, samples=[[0, 10, 60]]),
         "sov: not read by timeseries demand"),
    ], ids=["none-noise", "none-noise--1", "none-noise-nan", "none-noise-'junk'",
            "none-noise-False", "constant", "poisson", "constant-array", "timeseries-hov-'junk'",
            "timeseries-hov-12", "timeseries-hov-nan", "timeseries-hov-None",
            "timeseries-hov-array", "timeseries-sov-60.5"])
    def test_setting_the_kind_does_not_read_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("mean", [10, np.float64(10.0), np.int64(10)], ids=repr)
    def test_unread_mean_at_its_default_is_stored_as_the_float_default(self, mean):
        profile = DemandProfile("timeseries", mean_hov=mean, samples=[[0, 10, 60]])
        assert type(profile.mean_hov) is float and profile == TIMESERIES_ONE

    def test_last_replication_seed_within_64_bits(self):
        ScenarioConfig(seed=2**64 - 2, replications=2)
        with pytest.raises(ConfigError, match="^run.seed"):
            ScenarioConfig(seed=2**64 - 1, replications=2)

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("seed", "1"), ("replications", 2.0),
                                            ("replications", "1"), ("seed", True),
                                            ("replications", True)])
    def test_non_integer_seed_or_count_is_config_error(self, key, value):
        with pytest.raises(ConfigError) as error:
            ScenarioConfig(**{key: value})
        assert str(error.value) == f"run.{key}: expected an integer, got {value!r}"

    # a seed or count beyond 64 bits is named by its bit count, not its
    # digits; an ordinary seed keeps its range message
    @pytest.mark.parametrize("fields, message", [
        ({"seed": 10**400}, "run.seed: a 1329-bit integer"),
        ({"seed": -10**400}, "run.seed: a 1329-bit integer"),
        ({"replications": 10**400}, "run.replications: a 1329-bit integer"),
        ({"seed": 2**64}, "run.seed: a 65-bit integer"),
    ], ids=["seed-10**400", "seed--10**400", "replications-10**400", "seed-2**64"])
    def test_seed_or_count_beyond_64_bits_is_a_short_error(self, fields, message):
        with pytest.raises(ConfigError) as error:
            ScenarioConfig(**fields)
        assert str(error.value) == f"{message} reaches beyond the unsigned 64-bit seeds"

    def test_ordinary_seed_out_of_range_shows_the_seeds(self):
        with pytest.raises(ConfigError) as error:
            ScenarioConfig(seed=-1)
        assert str(error.value) == ("run.seed: seeds -1 to -1 of 1 run(s) "
                                    "must be unsigned 64-bit integers")

    def test_numpy_bool_is_no_number(self):
        # rejected as a bool is, with the same message; numpy's numbers pass
        with pytest.raises(ValueError) as error:
            BehaviorParams(vot=np.True_, scale=1.0)
        assert str(error.value) == "vot: expected a number, got np.True_"
        BehaviorParams(vot=np.float32(0.5), scale=np.int64(1))

    @pytest.mark.parametrize("value, text, shown", [(np.float64("inf"), ".inf", "inf"),
                                                    (np.float32("-inf"), "-.inf", "-inf"),
                                                    (np.float16("nan"), ".nan", "nan")])
    def test_non_finite_numpy_number_reads_as_its_file_twin(self, value, text, shown):
        # shown as the float it is, as the number a scenario file gives, and
        # so inside an array of another shape, numpy's or a tuple
        cases = [
            (lambda: Capacities(value, 30), "capacities: {hot: %s}",
             "capacities.", f"hot: expected a finite number, got {shown}"),
            (lambda: DemandProfile("timeseries", samples=np.array([[value, 10.0]])),
             "demand: {kind: timeseries, samples: [[%s, 10]]}",
             "demand.", f"samples: expected rows of three numbers, got [{shown}, 10.0] at row 0"),
            (lambda: SelfLearningController(30.0, (value, 1.0), 0.1, 0.09, 1e-6),
             "controller: {kind: selflearning, selflearning: {initial_theta: [%s, 1]}}",
             "controller.selflearning.",
             f"initial_theta: expected three numbers, got [{shown}, 1.0]"),
        ]
        for build, file, section, message in cases:
            with pytest.raises(ValueError) as error:
                build()
            assert str(error.value) == message
            with pytest.raises(ConfigError) as error:
                parse_config_text(file % text)
            assert str(error.value) == section + message

    @pytest.mark.parametrize("build, error_class, key", [
        (lambda: BehaviorParams(vot=Decimal("sNaN"), scale=1.0), ValueError, "vot"),
        (lambda: analysis.gain_spec(ScenarioConfig(), "k2", Decimal("sNaN")), ConfigError,
         "k2: residual_gain"),
    ], ids=["behavior", "gain_spec"])
    def test_signaling_nan_is_no_finite_number(self, build, error_class, key):
        # no float holds it, so math.isfinite raises a ValueError of its own;
        # the caller's error names the key instead
        with pytest.raises(error_class) as error:
            build()
        assert str(error.value) == f"{key}: expected a finite number, got Decimal('sNaN')"

    @pytest.mark.parametrize("key, value", [("seed", np.uint64(3)), ("replications", np.int64(2))])
    def test_numpy_seed_and_count_are_stored_as_ints(self, key, value):
        cfg, plain = ScenarioConfig(**{key: value}), ScenarioConfig(**{key: int(value)})
        assert type(getattr(cfg, key)) is int and cfg == plain
        assert config_fingerprint(cfg) == config_fingerprint(plain)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

TIMESERIES = """\
demand: {kind: timeseries, samples: [[0, 10, 60], [5, 12, 55]]}
controller: {selflearning: {initial_cov: [[1,0,0],[0,1,0],[0,0,1]]}, integral: {target_demand: 25}}
approx: {zeta0: 0.11}
"""


class TestFingerprints:
    """``config_fingerprint`` hashes ``to_mapping``: its values are part of
    every trajectory's identity, so a parser change must keep them."""

    @pytest.mark.parametrize("name, expected", [
        ("reference.yaml", "523864e2a15d2281"),
        ("perturbed.yaml", "2eeac901fe1d807c"),
        ("stochastic.yaml", "9506a009fb842de9"),
    ])
    def test_shipped_scenarios(self, name, expected):
        cfg = load_config(SCENARIOS / name)
        assert config_fingerprint(cfg) == expected

    @pytest.mark.parametrize("kind, expected", [
        ("vot", "523864e2a15d2281"),
        ("integral", "6adc77275078dfec"),
        ("selflearning", "3963fe2b6e68662b"),
    ])
    def test_default_scenario_per_controller(self, kind, expected):
        cfg = dataclasses.replace(ScenarioConfig(), controller_kind=kind)
        assert config_fingerprint(cfg) == expected

    def test_timeseries_matrix_and_nulls(self):
        assert config_fingerprint(parse_config_text(TIMESERIES)) == "4ad478a0309a9754"

    def test_equal_configs_have_equal_fingerprints(self):
        # an int where a float goes, or a numpy array where a tuple goes, is
        # hashed as the float or the nested tuple the parser would give
        assert ScenarioConfig(horizon=20) == ScenarioConfig()
        assert config_fingerprint(ScenarioConfig(horizon=20)) == "523864e2a15d2281"
        ints = ScenarioConfig(capacities=Capacities(30, 30))
        assert config_fingerprint(ints) == "523864e2a15d2281"
        array = ScenarioConfig(selflearning_spec=SelfLearningSpec(initial_cov=np.eye(3)))
        nested = ScenarioConfig(selflearning_spec=SelfLearningSpec(
            initial_cov=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))))
        assert config_fingerprint(array) == config_fingerprint(nested)


# each number key whose -0.0 once gave another config: a scenario line with
# one %s, where -0.0 and its twin 0.0 go
NEGATIVE_ZERO_KEYS = {
    "initial.hot_queue": "initial: {hot_queue: %s}",
    "initial.gp_queue": "initial: {gp_queue: %s}",
    "demand.hov": "demand: {hov: %s}",
    "demand.sov": "demand: {kind: poisson, sov: %s}",
    "noise.half_width": "noise: {kind: uniform, half_width: %s}",
    "controller.vot.initial_vot": "controller: {vot: {initial_vot: %s}}",
    "controller.integral.initial_price": "controller: {integral: {initial_price: %s}}",
    "approx.zeta0": "approx: {zeta0: %s}",
    "initial_theta": "controller: {selflearning: {initial_theta: [%s, 1.0, 0.1]}}",
    "initial_cov": "controller: {selflearning: {initial_cov: [[1, %s, 0], [0, 1, 0], [0, 0, 1]]}}",
    "process_noise": "controller: {selflearning: {process_noise: %s}}",
    "sample time": "demand: {kind: timeseries, samples: [[%s, 10, 60], [5, 12, 55]]}",
    "sample rate": "demand: {kind: timeseries, samples: [[0, 10, 60], [5, 12, %s]]}",
}


class TestNegativeZero:
    """A number rule stores -0.0 as +0.0, so a zero of either sign gives one
    config, one fingerprint and one run."""

    @pytest.mark.parametrize("key", NEGATIVE_ZERO_KEYS)
    def test_negative_zero_gives_its_positive_twin(self, key):
        negative, positive = (parse_config_text(NEGATIVE_ZERO_KEYS[key] % zero + "\n")
                              for zero in ("-0.0", "0.0"))
        assert negative == positive
        assert config_fingerprint(negative) == config_fingerprint(positive)

    def test_queues_at_negative_zero_run_as_the_reference(self):
        config = parse_config_text("initial: {hot_queue: -0.0, gp_queue: -0.0}\n")
        assert config_fingerprint(config) == "523864e2a15d2281"
        csv = trajectory_csv(run_closed_loop(config))
        assert hashlib.sha256(csv.encode()).hexdigest()[:16] == "d68490994502a419"


# one demand given in code with ints and a list, and its twin in a file
CODE_AND_FILE_DEMANDS = {
    "constant": (DemandProfile(mean_hov=11, mean_sov=np.int64(58)), "{hov: 11, sov: 58}"),
    "timeseries": (DemandProfile("timeseries", samples=[[0, 10, 60], [2, np.float64(12), 55]]),
                   "{kind: timeseries, samples: [[0, 10, 60], [2, 12, 55]]}"),
    # the means timeseries demand does not read, each at its default
    "timeseries-default-means": (
        DemandProfile("timeseries", mean_hov=10, mean_sov=np.float64(60.0), samples=[[0, 10, 60]]),
        "{kind: timeseries, samples: [[0, 10, 60]]}"),
}


class TestCodeAndFileAgree:
    """A config built in code from ints, numpy scalars and arrays, a Fraction
    and lists is the config its file twin gives: each owner stores the
    float its number rule returns, so the two compare, hash, fingerprint and
    run alike."""

    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    @pytest.mark.parametrize("demand", CODE_AND_FILE_DEMANDS)
    def test_config_built_in_code_is_its_file_twin(self, demand, kind):
        profile, text = CODE_AND_FILE_DEMANDS[demand]
        gain = np.linspace(0.1, 0.2, 3)[1]
        code = ScenarioConfig(
            capacities=Capacities(np.float64(30.0), np.float64(31)),
            horizon=5, dt=Fraction(1, 60), demand=profile,
            behavior=BehaviorParams(np.float64(0.5), 1), controller_kind=kind,
            vot_spec=VotControllerSpec(queue_gain=np.float64(0.1), residual_gain=gain),
            integral_spec=IntegralTollSpec(gain=np.float64(0.01), target_demand=25),
            selflearning_spec=SelfLearningSpec(initial_theta=[0.25, 1, np.float64(0.1)],
                                               initial_cov=np.eye(3), process_noise=np.int64(0)),
            initial_hot_queue=1, approx_zeta0=np.float64(0.11),
        )
        twin = parse_config_text(
            f"run: {{horizon: 5, dt: 1/60}}\ncapacities: {{hot: 30.0, gp: 31}}\n"
            f"demand: {text}\nbehavior: {{vot: 0.5, scale: 1}}\n"
            f"controller:\n  kind: {kind}\n"
            f"  vot: {{queue_gain: 0.1, residual_gain: {float(gain)!r}}}\n"
            f"  integral: {{gain: 0.01, target_demand: 25}}\n"
            f"  selflearning: {{initial_theta: [0.25, 1, 0.1], process_noise: 0,\n"
            f"                 initial_cov: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}\n"
            f"initial: {{hot_queue: 1}}\napprox: {{zeta0: 0.11}}\n")
        assert code == twin
        assert hash(code) == hash(twin)
        assert config_fingerprint(code) == config_fingerprint(twin)
        traj = run_closed_loop(code)
        assert {type(value) for value in traj.values()} == {float}
        assert trajectory_csv(traj) == trajectory_csv(run_closed_loop(twin))


class TestMapping:
    def test_round_trip_through_mapping(self):
        cfg = parse_config_text("run: {seed: 7}\ncontroller: {kind: selflearning}")
        assert config_from_mapping(cfg.to_mapping()) == cfg

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("run: {seed: 9}\n")
        assert load_config(path).seed == 9

    def test_controller_schema_is_pinned(self):
        # entry for entry and in order: key and attribute path; each value
        # goes to its spec as YAML gives it
        def items(table):
            return [(key, items(entry) if isinstance(entry, dict) else entry)
                    for key, entry in table.items()]

        assert items(SCHEMA["controller"]) == [
            ("kind", "controller_kind"),
            ("vot", [
                ("queue_gain", "vot_spec.queue_gain"),
                ("residual_gain", "vot_spec.residual_gain"),
                ("scale_guess", "vot_spec.scale_guess"),
                ("initial_vot", "vot_spec.initial_vot"),
            ]),
            ("integral", [
                ("gain", "integral_spec.gain"),
                ("initial_price", "integral_spec.initial_price"),
                ("target_demand", "integral_spec.target_demand"),
            ]),
            ("selflearning", [
                ("initial_theta", "selflearning_spec.initial_theta"),
                ("initial_cov", "selflearning_spec.initial_cov"),
                ("measurement_var", "selflearning_spec.measurement_var"),
                ("process_noise", "selflearning_spec.process_noise"),
            ]),
        ]


class TestNumbers:
    def test_exponent_floats_are_numbers(self):
        cfg = parse_config_text(
            "run: {horizon: 2e1}\ncapacities: {hot: 1e6}\n"
            "noise: {kind: uniform, half_width: 1e-3}\n"
        )
        assert cfg.horizon == 20.0
        assert cfg.capacities.hot == 1e6
        assert cfg.noise.half_width == 1e-3

    def test_exponent_horizon_has_the_decimal_fingerprint(self):
        exponent = parse_config_text("run: {horizon: 2e1}")
        decimal = parse_config_text("run: {horizon: 20.0}")
        assert exponent == decimal
        assert config_fingerprint(exponent) == config_fingerprint(decimal)


def _nested(where: str, value) -> dict:
    """The scenario mapping that sets only the dotted key ``where`` to
    ``value``, tuples written as lists, and its section's kind to the one
    that reads it when the default kind does not (``READ_BY``)."""
    def listed(v):
        return [listed(x) for x in v] if isinstance(v, tuple) else v

    mapping = listed(value)
    for key in reversed(where.split(".")):
        mapping = {key: mapping}
    if where in READ_BY:
        section = where.partition(".")[0]
        mapping[section]["kind"] = READ_BY[where].kind
    return mapping


def _owned_keys(table=SCHEMA, path=""):
    """``(dotted key, key its owner names, owner, field)`` per scenario key:
    the owner is the section object holding the value (one whose kind reads
    the key, ``READ_BY``, for a key the default kind does not read) or the
    ScenarioConfig, which names a key of its own dotted."""
    for key, entry in table.items():
        where = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            yield from _owned_keys(entry, where)
            continue
        part, _, name = entry.rpartition(".")
        if not part:
            yield where, where, ScenarioConfig(), name
        else:
            yield where, key, READ_BY.get(where, getattr(ScenarioConfig(), part)), name


# the one walk of the schema to the owners of its keys: the number, shape and
# type tables below read it, and so does tests/test_cli.py, which checks that
# it keeps every key
OWNED_KEYS = list(_owned_keys())
OWNED = {where: (key, owner, name) for where, key, owner, name in OWNED_KEYS}


def _identity_with(x):
    return (1.0, 0.0, 0.0), (0.0, x, 0.0), (0.0, 0.0, 1.0)


# a field of more than one number: test id suffix -> its value with x at one of them
SPOTS = {
    "samples": {"-first-time": lambda x: ((x, 10.0, 60.0),),
                "-later-time": lambda x: ((0.0, 10.0, 60.0), (x, 10.0, 60.0)),
                "-hov-rate": lambda x: ((0.0, x, 60.0),),
                "-rate": lambda x: ((0.0, 10.0, x),)},
    "initial_theta": {"": lambda x: (x, 1.0, 0.1)},
    "initial_cov": {"": lambda x: x, "-entry": _identity_with},
    "process_noise": {"": lambda x: x, "-entry": _identity_with},
}


def _number_entries():
    """``(test id, dotted key, key its owner names, owner, field, wrap)`` per
    number a scenario sets, read from ``OWNED_KEYS``, the walk that
    tests/test_cli.py reads too: each number key but the seed and the
    replication count, once per spot of ``SPOTS`` for a field of more than
    one number; ``wrap(x)`` is the field's value with ``x`` at the number."""
    for where, key, owner, name in OWNED_KEYS:
        if type(getattr(owner, name)) not in (str, int):  # a kind, the seed or the count
            for suffix, wrap in SPOTS.get(name, {"": lambda x: x}).items():
                yield where + suffix, where, key, owner, name, wrap


NUMBER_ENTRIES = list(_number_entries())
CONTROLLER_ENTRIES = [entry for entry in NUMBER_ENTRIES if entry[1].startswith("controller.")]
# a value that is no finite number, and how a message shows it: an int beyond
# the float range is not printed, as its repr would run to 401 digits
BAD_NUMBERS = [pytest.param(math.nan, "nan", id="nan"), pytest.param(math.inf, "inf", id="inf"),
               pytest.param(-math.inf, "-inf", id="-inf"),
               pytest.param(10**400, "an integer too large for a float", id="int-10**400")]


class TestOneMessagePerNumber:
    """A number that is not finite gives one message from a file and from
    code: its owner checks that it is finite before any range rule, and a
    controller built without its spec checks it as the spec does."""

    @pytest.mark.parametrize("bad, shown", BAD_NUMBERS)
    @pytest.mark.parametrize("where, key, owner, name, wrap", [e[1:] for e in NUMBER_ENTRIES],
                             ids=[e[0] for e in NUMBER_ENTRIES])
    def test_file_and_code_agree(self, where, key, owner, name, wrap, bad, shown):
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(yaml.safe_dump(_nested(where, wrap(bad))))
        with pytest.raises((ValueError, ConfigError)) as built:
            dataclasses.replace(owner, **{name: wrap(bad)})
        # a key the ScenarioConfig owns keeps its section and its error in code too
        assert type(built.value) is (ConfigError if isinstance(owner, ScenarioConfig)
                                     else ValueError)
        assert str(built.value) == f"{key}: expected a finite number, got {shown}"
        assert str(parsed.value) == where[:-len(key)] + str(built.value)

    @pytest.mark.parametrize("bad, shown", BAD_NUMBERS)
    @pytest.mark.parametrize("spec, name, wrap", [e[3:] for e in CONTROLLER_ENTRIES],
                             ids=[e[0] for e in CONTROLLER_ENTRIES])
    def test_controller_built_without_its_spec_agrees(self, spec, name, wrap, bad, shown):
        with pytest.raises(ValueError) as built:
            spec.controller(30.0, **{**vars(spec), name: wrap(bad)})
        assert str(built.value) == f"{name}: expected a finite number, got {shown}"


# one value per shape rule and integer rule, and a timeseries that starts
# after t = 0, as YAML reads it: (dotted key, value)
MISSHAPEN = [
    ("controller.selflearning.initial_theta", [1, 2]),
    ("controller.selflearning.initial_theta", 1),
    ("controller.selflearning.initial_cov", [[1, 0, 0], [0, 1, 0]]),
    ("controller.selflearning.initial_cov", [[1, 0, 0], [0, 1], [0, 0, 1]]),
    ("demand.samples", 5),
    ("demand.samples", [[0, 10]]),
    ("demand.samples", [[0, 10, 60, 1]]),
    ("demand.samples", [[0, 10, [60]]]),
    ("demand.samples", [[5, 10, 60]]),
    ("run.seed", 1.5),
    ("run.replications", 2.5),
    ("run.seed", True),
]


class TestOneMessagePerShape:
    """A badly shaped array, a seed or replication count that is not an
    integer, or a timeseries that starts after t = 0 gives one message from a
    file and from code: the parser reads only its type, and the object that
    owns it checks its shape and its order."""

    @pytest.mark.parametrize("where, value", MISSHAPEN,
                             ids=[f"{where.rpartition('.')[2]}: {value}"
                                  for where, value in MISSHAPEN])
    def test_file_and_code_agree(self, where, value):
        key, owner, name = OWNED[where]
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(yaml.safe_dump(_nested(where, value)))
        with pytest.raises((ValueError, ConfigError)) as built:
            dataclasses.replace(owner, **{name: value})
        assert str(built.value).startswith(f"{key}: ")
        assert str(parsed.value) == where[:-len(key)] + str(built.value)


# a value of each type that is not a number, per number key: None only where
# the key does not take null, and no string for dt, whose string the parser
# reads as a fraction (``cannot parse`` when it is none)
NOT_NUMBERS = [
    pytest.param(where, key, owner, name, wrap, bad, id=f"{test_id}-{bad!r}")
    for test_id, where, key, owner, name, wrap in NUMBER_ENTRIES
    for bad in (True, "ten", None)
    if not (bad is None and getattr(owner, name) is None
            or bad == "ten" and where == "run.dt")
]
# the same values per controller number, for a controller built without its spec
CONTROLLER_NOT_NUMBERS = [param for param in NOT_NUMBERS
                          if param.values[0].startswith("controller.")]


class TestOneMessagePerType:
    """A value that is not a number, a bool included, gives one message from a
    file and from code: the parser passes it on as it is, and its owner's
    number rule (``errors.require_finite``) raises the owner's own error; a
    controller built without its spec checks it as the spec does."""

    @pytest.mark.parametrize("where, key, owner, name, wrap, bad", NOT_NUMBERS)
    def test_file_and_code_agree(self, where, key, owner, name, wrap, bad):
        with pytest.raises((ValueError, ConfigError)) as built:
            dataclasses.replace(owner, **{name: wrap(bad)})
        # a key the ScenarioConfig owns keeps its section and its error in code too
        assert type(built.value) is (ConfigError if isinstance(owner, ScenarioConfig)
                                     else ValueError)
        assert str(built.value) == f"{key}: expected a number, got {bad!r}"
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(yaml.safe_dump(_nested(where, wrap(bad))))
        assert str(parsed.value) == where[:-len(key)] + str(built.value)

    @pytest.mark.parametrize("where, key, spec, name, wrap, bad", CONTROLLER_NOT_NUMBERS)
    def test_controller_built_without_its_spec_agrees(self, where, key, spec, name, wrap, bad):
        with pytest.raises(ValueError) as built:
            spec.controller(30.0, **{**vars(spec), name: wrap(bad)})
        assert str(built.value) == f"{name}: expected a number, got {bad!r}"

    # numpy's bool, which no scenario file gives, at every number spot: an
    # entry of an array reads as the scalar, not as Python's True
    @pytest.mark.parametrize("where, key, owner, name, wrap", [e[1:] for e in NUMBER_ENTRIES],
                             ids=[e[0] for e in NUMBER_ENTRIES])
    def test_numpy_bool_in_code_is_no_number(self, where, key, owner, name, wrap):
        builds = {key: lambda: dataclasses.replace(owner, **{name: wrap(np.True_)})}
        if where.startswith("controller."):  # and the controller built without its spec
            builds[name] = lambda: owner.controller(30.0, **{**vars(owner), name: wrap(np.True_)})
        for shown, build in builds.items():
            with pytest.raises((ValueError, ConfigError)) as built:
                build()
            assert str(built.value) == f"{shown}: expected a number, got np.True_"


def _doubled_samples(depth: int) -> str:
    """A timeseries whose samples nest ``depth`` lists deep through anchors,
    each level listing the one below twice: 2**(depth - 1) rows of three
    numbers from a file of about 20 bytes a level."""
    text = "&l0 [0, 10, 60]"
    for level in range(1, depth - 1):
        text = f"&l{level} [{text}, *l{level - 1}]"
    return f"demand: {{kind: timeseries, samples: [{text}, *l{depth - 2}]}}"


class TestArraysReadOnlyTheirShape:
    """An array value is read entry by entry only as far as one of its shapes
    takes it, so a YAML alias that makes a short file a deep, wide or
    self-referential value is rejected at once."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Every number the array rule reads, through ``errors._isfinite``,
        where ``require_finite`` and a message's ``_shown`` read it."""
        numbers, rule = [], errors._isfinite

        def counted(value):
            numbers.append(value)
            return rule(value)

        monkeypatch.setattr(errors, "_isfinite", counted)
        return numbers

    @pytest.mark.parametrize("text, message", [
        ("demand: {kind: timeseries, samples: &a [*a]}",
         "demand.samples: expected rows of three numbers, got [[...]] at row 0"),
        ("controller: {selflearning: {initial_theta: &a [1, *a, 3]}}",
         "controller.selflearning.initial_theta: expected three numbers, got [1.0, [...], 3.0]"),
    ], ids=["samples", "initial_theta"])
    def test_self_referential_value_is_a_shape_error(self, text, message):
        with pytest.raises(ConfigError) as error:
            parse_config_text(text)
        assert str(error.value) == message

    def test_deep_aliased_samples_are_read_to_their_first_bad_row(self, reads):
        samples = yaml.safe_load(_doubled_samples(30))["demand"]["samples"]
        with pytest.raises(ValueError) as error:
            DemandProfile("timeseries", samples=samples)
        assert str(error.value) == ("samples: expected rows of three numbers, "
                                    "got [[...], [...]] at row 0")
        # no row has three entries, and the message shows a row one level deep
        assert reads == []

    def test_one_wide_row_aliased_is_read_only_as_far_as_the_message_shows(self, reads):
        row = [1] * 1000
        with pytest.raises(ValueError) as error:
            DemandProfile("timeseries", samples=[row] * 20_000)
        assert str(error.value) == ("samples: expected rows of three numbers, "
                                    "got [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...] at row 0")
        # the six entries shown and the one that shows there are more
        assert len(reads) == 7

    @pytest.mark.parametrize("value, message", [
        ([[0, 10, 60], [1, "x", 60], [2]], "samples: expected a number, got 'x'"),
        ([[0, 10, 60], [1, 10], [2, "x", 60]],
         "samples: expected rows of three numbers, got [1.0, 10.0] at row 1"),
    ], ids=["number-error-in-a-fitting-row", "shape-error-before-a-later-number"])
    def test_reading_stops_at_the_first_entry_no_shape_takes(self, value, message):
        with pytest.raises(ValueError) as error:
            DemandProfile("timeseries", samples=value)
        assert str(error.value) == message


class TestDerivedValuesFollowReplace:
    """``n_steps``, ``controller`` and ``sample_times`` are set when the
    object is built, ``dataclasses.replace`` included, and are no fields."""

    @pytest.mark.parametrize("fields, n_steps", [
        ({"horizon": 10.0}, 600), ({"dt": 0.1}, 200), ({"horizon": 5, "dt": 0.5}, 10),
    ])
    def test_n_steps_follows_horizon_and_dt(self, fields, n_steps):
        config = dataclasses.replace(ScenarioConfig(), **fields)
        assert config.n_steps == n_steps
        assert dataclasses.replace(config, horizon=20.0, dt=1 / 60).n_steps == 1200

    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_controller_follows_the_kind(self, kind):
        config = dataclasses.replace(ScenarioConfig(), controller_kind=kind)
        assert config.controller is getattr(config, f"{kind}_spec")

    def test_controller_follows_its_spec_only(self):
        config = dataclasses.replace(ScenarioConfig(controller_kind="integral"),
                                     integral_spec=IntegralTollSpec(gain=0.02))
        assert config.controller is config.integral_spec and config.controller.gain == 0.02
        other = dataclasses.replace(config, vot_spec=VotControllerSpec(queue_gain=0.2))
        assert other.controller is other.integral_spec

    def test_sample_times_follow_the_samples(self):
        demand = DemandProfile("timeseries", samples=((0.0, 10.0, 60.0),))
        replaced = dataclasses.replace(demand, samples=((-1, 10, 60), (5, 12, 55)))
        assert (demand.sample_times, replaced.sample_times) == ((0.0,), (-1.0, 5.0))
        config = dataclasses.replace(ScenarioConfig(), demand=replaced)
        assert config.demand.sample_times == (-1.0, 5.0)

    @pytest.mark.parametrize("kind", ["constant", "poisson"])
    def test_sample_times_are_empty_for_a_kind_without_samples(self, kind):
        timeseries = DemandProfile("timeseries", samples=((0.0, 10.0, 60.0),))
        assert dataclasses.replace(timeseries, kind=kind, samples=()).sample_times == ()
        assert DemandProfile(kind).sample_times == ()

    def test_derived_values_are_no_fields(self):
        config = ScenarioConfig()
        assert not {"n_steps", "controller"} & {f.name for f in dataclasses.fields(config)}
        assert "sample_times" not in {f.name for f in dataclasses.fields(DemandProfile)}
        assert "n_steps" not in repr(config) and "controller=" not in repr(config)
        assert "sample_times" not in repr(config.demand)
        copy = dataclasses.replace(config)
        assert copy == config and hash(copy) == hash(config)
        assert copy.to_mapping() == config.to_mapping()


class TestStepCap:
    def test_tiny_step_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match=f"cap of {MAX_STEPS}"):
            parse_config_text("run: {dt: 1e-300}")

    def test_cap_is_inclusive(self):
        assert parse_config_text(f"run: {{horizon: {MAX_STEPS}, dt: 1}}").n_steps == MAX_STEPS
        with pytest.raises(ConfigError, match="cap"):
            parse_config_text(f"run: {{horizon: {MAX_STEPS + 1}, dt: 1}}")


def _selflearning(key: str, value) -> str:
    return f"controller: {{selflearning: {{{key}: {value}}}}}"


INDEFINITE = [
    ("initial_cov", "-1.0"),
    ("process_noise", "-1.0e-6"),
    ("initial_cov", "[[1, 0, 0], [0, -0.5, 0], [0, 0, 1]]"),
    # every entry positive, yet the symmetric part has eigenvalue -1
    ("process_noise", "[[1, 2, 0], [2, 1, 0], [0, 0, 1]]"),
    # symmetric part [[0.1, 1, 0], [1, 0.1, 0], [0, 0, 0.1]], eigenvalue -0.9
    ("initial_cov", "[[0.1, 0, 0], [2, 0.1, 0], [0, 0, 0.1]]"),
    # negative beyond roundoff at any scale
    ("process_noise", "[[1.0e-12, 0, 0], [0, -1.0e-12, 0], [0, 0, 1.0e-12]]"),
    # eigenvalues +-1.41421e308: entries near the float max, whose differences overflow
    ("initial_cov", "[[1.0e+308, 1.0e+308, 0], [1.0e+308, -1.0e+308, 0], [0, 0, 0]]"),
]


class TestCovariances:
    @pytest.mark.parametrize("key, value", INDEFINITE)
    def test_indefinite_matrix_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"controller.selflearning.{key}: "
                                                        "expected a covariance")):
            parse_config_text(_selflearning(key, value))

    @pytest.mark.parametrize("key, value", INDEFINITE)
    def test_controller_built_in_code_gives_the_spec_message(self, key, value):
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(_selflearning(key, value))
        kwargs = dict(initial_theta=(0.25, 1.0, 0.1), initial_cov=0.1,
                      measurement_var=0.09, process_noise=1e-6)
        kwargs[key] = yaml.safe_load(value)
        with pytest.raises(ValueError, match=f"^{key}: expected a covariance, ") as built:
            SelfLearningController(30.0, **kwargs)
        assert str(parsed.value) == f"controller.selflearning.{built.value}"

    @pytest.mark.parametrize("key, value", [
        ("initial_cov", "0.0"),
        ("process_noise", "0"),
        # asymmetric, positive definite symmetric part (as in the pricing digests)
        ("initial_cov", "[[0.2, 0.03, -0.01], [0.01, 0.12, 0.02], [0.0, -0.02, 0.15]]"),
        # skew-symmetric part only
        ("initial_cov", "[[1, 2, 0], [-2, 1, 0], [0, 0, 1]]"),
        # rank one and rank zero
        ("process_noise", "[[1.0e-6, 1.0e-6, 1.0e-6], [1.0e-6, 1.0e-6, 1.0e-6], "
                          "[1.0e-6, 1.0e-6, 1.0e-6]]"),
        ("initial_cov", "[[0.1, 0.3, 0], [0.3, 0.9, 0], [0, 0, 0]]"),
        ("process_noise", "[[0, 0, 0], [0, 0, 0], [0, 0, 0]]"),
        # rank one at a scale where eigvalsh's roundoff is about -1e-4
        ("initial_cov", "[[1.0e12, 1.0e12, 1.0e12], [1.0e12, 1.0e12, 1.0e12], "
                        "[1.0e12, 1.0e12, 1.0e12]]"),
    ])
    def test_positive_semidefinite_parses(self, key, value):
        cfg = parse_config_text(_selflearning(key, value))
        assert config_from_mapping(cfg.to_mapping()) == cfg


# valid scenario mappings: each value in range, most sections and keys left
# to their defaults now and then
_real = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_positive = st.floats(min_value=1e-3, max_value=1e6)
_nonnegative = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def _covariances(draw):
    if draw(st.booleans()):
        return draw(_nonnegative)
    factor = draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
                           min_size=3, max_size=3))
    skew = draw(st.floats(-5.0, 5.0))
    # F F' is positive semidefinite; a skew-symmetric part leaves that alone
    return [[sum(factor[i][k] * factor[j][k] for k in range(3))
             + skew * ((i < j) - (j < i)) for j in range(3)] for i in range(3)]


@st.composite
def _scenarios(draw, max_steps=5000, max_replications=50):
    n_steps = draw(st.integers(1, max_steps))
    replications = draw(st.integers(1, max_replications))
    if draw(st.booleans()):
        dt = step = draw(st.floats(1e-4, 1.0))
    else:
        a, b = draw(st.integers(1, 10)), draw(st.integers(1, 240))
        dt, step = f"{a}/{b}", a / b
    hot = draw(_positive)
    hov = st.floats(0.0, hot, exclude_max=True)
    demand = draw(st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["constant", "poisson"]), "hov": hov},
                              optional={"sov": _nonnegative}),
        st.builds(
            lambda t0, gaps, rates: {"kind": "timeseries", "samples": [
                [t0 + sum(gaps[:i]), hov_i, sov_i] for i, (hov_i, sov_i) in enumerate(rates)
            ]},
            st.floats(-10.0, 0.0), st.lists(st.floats(1e-3, 10.0), min_size=5, max_size=5),
            st.lists(st.tuples(hov, _nonnegative), min_size=1, max_size=6),
        ),
    ))
    # the HOT capacity and the HOV demand below it are always given together
    required = {
        "capacities": st.fixed_dictionaries({"hot": st.just(hot)},
                                            optional={"gp": _positive}),
        "demand": st.just(demand),
    }
    optional = {
        "run": st.fixed_dictionaries({"horizon": st.just(n_steps * step), "dt": st.just(dt)},
                                     optional={"seed": st.integers(0, 2**64 - replications),
                                               "replications": st.just(replications)}),
        "behavior": st.fixed_dictionaries({}, optional={"vot": _positive,
                                                        "scale": _positive}),
        # none noise reads no half_width, so only a uniform one draws it non-zero
        "noise": st.one_of(
            st.fixed_dictionaries({}, optional={"kind": st.just("none"),
                                                "half_width": st.just(0.0)}),
            st.fixed_dictionaries({"kind": st.just("uniform")}, optional={
                "half_width": st.floats(0.0, 1.0, exclude_max=True)}),
        ),
        "initial": st.fixed_dictionaries({}, optional={"hot_queue": _nonnegative,
                                                       "gp_queue": _nonnegative}),
        "controller": st.fixed_dictionaries({}, optional={
            "kind": st.sampled_from(["vot", "integral", "selflearning"]),
            "vot": st.fixed_dictionaries({}, optional={
                "queue_gain": _positive, "residual_gain": _positive,
                "scale_guess": _positive, "initial_vot": _real,
            }),
            "integral": st.fixed_dictionaries({}, optional={
                "gain": _positive, "initial_price": _real,
                "target_demand": st.one_of(st.none(), _real),
            }),
            "selflearning": st.fixed_dictionaries({}, optional={
                "initial_theta": st.lists(_real, min_size=3, max_size=3),
                "initial_cov": _covariances(), "measurement_var": _positive,
                "process_noise": _covariances(),
            }),
        }),
        "approx": st.fixed_dictionaries({}, optional={
            "zeta0": st.one_of(st.none(), _real),
        }),
    }
    return draw(st.fixed_dictionaries(required, optional=optional))


class TestRoundTrip:
    @settings(max_examples=150)
    @given(_scenarios())
    def test_parse_to_mapping_parse_is_identity(self, mapping):
        cfg = config_from_mapping(mapping)
        again = config_from_mapping(cfg.to_mapping())
        assert again == cfg
        assert config_fingerprint(again) == config_fingerprint(cfg)
        from_yaml = parse_config_text(yaml.safe_dump(cfg.to_mapping()))
        assert from_yaml == cfg
        assert config_fingerprint(from_yaml) == config_fingerprint(cfg)
