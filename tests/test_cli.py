"""Command-line interface: outputs, exit codes, byte stability."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import NUMBER_ENTRIES, READ_BY, _positive, _scenarios

import hotsim
from hotsim import analysis, cli, engine
from hotsim.cli import _json_text, main
from hotsim.config import SCHEMA, ScenarioConfig, config_fingerprint
from hotsim.errors import (BoundaryNotBracketedError, ConfigError, HotSimError,
                           NonFiniteResultError, PriceUndefinedError, ScenarioAssumptionError)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIO_NAMES = ("reference.yaml", "stochastic.yaml", "perturbed.yaml")

COLUMNS = "t,lambda1,lambda2,zeta,w,pi,u,g1,g2,q1,q2,q3,eta"


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_trajectory_and_summary(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--out", str(out)) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == COLUMNS
        assert len(lines) == 1 + 1201
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_u"] == pytest.approx(4.024, abs=0.05)
        assert summary["final_pi"] == pytest.approx(0.5, abs=0.01)
        assert summary["fingerprint"] == config_fingerprint(ScenarioConfig())

    def test_csv_ends_with_newline(self, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--out", str(out))
        assert (out / "trajectory.csv").read_text().endswith("\n")

    def test_same_seed_is_byte_identical(self, tmp_path, scenario_file):
        config = scenario_file("demand: {kind: poisson}\nrun: {seed: 5}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", config, "--out", str(a)) == 0
        assert run_cli("simulate", "--config", config, "--out", str(b)) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_seed_flag_changes_the_draws(self, tmp_path, scenario_file):
        config = scenario_file("demand: {kind: poisson}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", config, "--out", str(a), "--seed", "1")
        run_cli("simulate", "--config", config, "--out", str(b), "--seed", "2")
        assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()

    def test_csv_round_trips_through_float(self, tmp_path):
        out = tmp_path / "run"
        run_cli("simulate", "--out", str(out))
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, (float(v) for v in lines[-1].split(","))))
        assert row["t"] == pytest.approx(20.0, rel=1e-9)
        assert row["u"] == pytest.approx(4.0297, abs=1e-3)
        assert row["q1"] == 10.0 and row["q2"] == 60.0

    def test_replications_summary(self, tmp_path, scenario_file):
        config = scenario_file(
            "demand: {kind: poisson}\nrun: {replications: 3, seed: 11}\n"
        )
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", config, "--out", str(out)) == 0
        for rep in range(3):
            assert (out / f"trajectory_rep{rep:03d}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["replications"]) == 3
        assert summary["aggregate"]["mean"]["final_pi"] == pytest.approx(0.5, abs=0.01)

    def test_stdout_json_format(self, capsys):
        assert run_cli("simulate", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_lambda1"] < 1e-3


REPS = ["--config", str(SCENARIOS / "stochastic.yaml"), "--replications", "3"]
REP_FILES = ["trajectory_rep000.csv", "trajectory_rep001.csv", "trajectory_rep002.csv",
             "summary.json"]
PERTURBED = ["--config", str(SCENARIOS / "perturbed.yaml")]
# (argv, the files written under --out in write order, the file printed without it)
WRITER_CASES = [
    (["simulate"], ["trajectory.csv", "summary.json"], "trajectory.csv"),
    (["simulate", "--format", "json"], ["trajectory.csv", "summary.json"], "summary.json"),
    (["simulate", *REPS], REP_FILES, "trajectory_rep000.csv"),
    (["simulate", *REPS, "--format", "json"], REP_FILES, "summary.json"),
    (["compare"], ["compare.json"], "compare.json"),
    (["sweep", *PERTURBED, "--values", "0.1,0.2", "--bisect", "0.1:0.2"],
     ["sweep.csv", "boundary.json"], "sweep.csv"),
    (["analytic"], ["analytic.csv"], "analytic.csv"),
    (["approx", *PERTURBED], ["approx.csv"], "approx.csv"),
]


@pytest.mark.parametrize("argv, names, shown", WRITER_CASES, ids=[
    "simulate", "simulate-json", "simulate-reps", "simulate-reps-json", "compare", "sweep",
    "analytic", "approx"])
def test_out_writes_each_file_with_a_line_and_stdout_shows_one(
    tmp_path, capsys, argv, names, shown
):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in names)
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == (out / shown).read_text()


# each used to end in a traceback or in a row or boundary of nan
BAD_SWEEP_INPUTS = [
    (["--values", "a,b"], "--values"),
    (["--grid", "0:nan:0.1"], "--grid"),
    (["--grid", "0:inf:1"], "--grid"),
    (["--values", "0"], "--values"),
    (["--values", "-0.1"], "--values"),
    (["--param", "k1", "--values", "0"], "--values"),
    (["--values", "nan"], "--values"),
    (["--bisect", "nan:0.2"], "--bisect"),
    (["--bisect", "0.2:0.1"], "--bisect"),
    (["--bisect", "0:0.2"], "--bisect"),
    # more points than the cap, checked before the grid is built
    (["--grid", "0:1e9:1e-9"], "--grid"),
    (["--grid=-1e308:1e308:1"], "--grid"),
    # checked before any run, so never reported under --bisect; a value that
    # is not positive is in RESOLUTION_ERRORS, whose message has no colon
    (["--bisect", "0.1:0.2", "--resolution", "nan"], "--resolution"),
    # checked on every sweep, bisecting or not
    (["--values", "0.1", "--resolution", "nan"], "--resolution"),
]

# the whole stderr of each resolution rule, the flag named once
RESOLUTION_ERRORS = [
    (["--values", "0.1", "--resolution", "nan"],
     "error: --resolution: expected a finite number, got nan\n"),
    (["--values", "0.1", "--resolution", "0"], "error: --resolution must be positive\n"),
    (["--bisect", "0.1:0.2", "--resolution", "-1"], "error: --resolution must be positive\n"),
    (["--grid", "0.1:0.2:0.05", "--resolution", "0"], "error: --resolution must be positive\n"),
]

# one input per usage or scenario error: (argv, scenario or None, the one stderr line)
USAGE_ERRORS = [
    (["sweep", "--grid", "0:nan:0.1"], None, "error: --grid: expected a finite number, got nan"),
    (["sweep", "--grid", "0:1:-inf"], None, "error: --grid: expected a finite number, got -inf"),
    (["sweep", "--grid", "1:2"], None,
     "error: --grid expects START:STOP:STEP with a positive step"),
    (["sweep", "--grid", "0.1:0.2:0"], None,
     "error: --grid expects START:STOP:STEP with a positive step"),
    (["sweep", "--bisect", "0.1"], None, "error: --bisect expects LOW:HIGH"),
    (["sweep", "--bisect", "0.1:0.2", "--param", "k1"], None,
     "error: bisection is supported on the residual gain (k2) only"),
    # --seed beyond simulate is checked by the same seed range rule
    (["compare", "--seed", "-1"], None,
     "error: run.seed: seeds -1 to -1 of 1 run(s) must be unsigned 64-bit integers"),
    # a kind given twice, like a key given twice in a scenario file
    (["compare", "--controllers", "vot,vot"], None, "error: --controllers: vot given twice"),
    (["sweep", "--values", "0.1", "--seed", "-1"], None,
     "error: run.seed: seeds -1 to -1 of 1 run(s) must be unsigned 64-bit integers"),
    (["simulate"], "run: {horizon: 0}", "error: run.horizon must be positive"),
    # a step too fine for the MAX_STEPS cap, its message from the one step rule
    (["simulate"], "run: {dt: 1.0e-300}",
     "error: run: horizon 20 / dt 1e-300 gives 2e+301 steps, more than the cap of 1000000"),
    (["simulate"], "capacities: {hot: '30'}",
     "error: capacities.hot: expected a number, got '30'"),
    (["simulate"], "behavior: {vot: true}", "error: behavior.vot: expected a number, got True"),
    (["simulate"], "run: {dt: 1/x}", "error: run.dt: cannot parse '1/x' as a step size"),
    (["simulate"], "controller: {selflearning: {initial_theta: [1, 2]}}",
     "error: controller.selflearning.initial_theta: expected three numbers, got [1.0, 2.0]"),
    (["simulate"], "demand: {kind: timeseries, samples: 5}",
     "error: demand.samples: expected rows of three numbers, got 5.0"),
    # a file's key the kind does not read is reported before the owner's rules
    (["simulate"], "demand: {kind: timeseries, hov: 12, samples: [[0, 10]]}",
     "error: demand.hov: not read by timeseries demand"),
    # hov at its default 10 is unread too, by the parser's rule for a key
    # given; that rule runs as the demand section is built, so it is
    # reported before a later section's error
    (["simulate"], "demand: {kind: timeseries, samples: [[0, 10, 60]], hov: 10}",
     "error: demand.hov: not read by timeseries demand"),
    (["simulate"], "demand: {kind: timeseries, samples: [[0, 10, 60]], hov: 10}\n"
                   "capacities: {hot: -1}",
     "error: demand.hov: not read by timeseries demand"),
    (["simulate"], "demand: {kind: foo}",
     "error: demand.kind: expected one of constant, poisson, timeseries, got 'foo'"),
    # a Poisson mean above numpy's limit names its key
    (["simulate"], "demand: {kind: poisson, sov: 1.0e19}",
     "error: demand.sov: a Poisson mean must be at most 9.22337e+18 veh/min, got 1e+19"),
    (["simulate"], "noise: {half_width: 0.1}", "error: noise.half_width: not read by none noise"),
    # the unread key first, before the range rule of a uniform half_width
    (["simulate"], "noise: {kind: none, half_width: -1}",
     "error: noise.half_width: not read by none noise"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, scenario, message", USAGE_ERRORS,
                             ids=[" ".join(argv[1:]) or scenario
                                  for argv, scenario, _ in USAGE_ERRORS])
    def test_usage_or_scenario_error_is_exit_2(self, capsys, scenario_file, argv, scenario,
                                               message):
        config = ["--config", scenario_file(scenario + "\n")] if scenario else []
        assert run_cli(*argv, *config) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_unknown_config_key(self, scenario_file):
        config = scenario_file("runn: {}\n")
        assert run_cli("simulate", "--config", config) == 2

    def test_missing_config_file(self):
        assert run_cli("simulate", "--config", "/nope.yaml") == 2

    def test_replication_seed_past_the_64_bit_cap(self, scenario_file, capsys):
        # replication 1 would run at seed 2**64
        config = scenario_file("run: {seed: 18446744073709551615, replications: 2}\n")
        assert run_cli("simulate", "--config", config) == 2
        assert capsys.readouterr().err.startswith("error: run.seed: ")

    def test_assumption_violation_at_runtime(self, scenario_file):
        config = scenario_file("demand: {hov: 5.0, sov: 10.0}\n")
        assert run_cli("simulate", "--config", config) == 3

    @pytest.mark.parametrize("controller, message", [
        ("vot", "HOV demand 30 veh/min saturates the HOT capacity 30 veh/min"),
        ("selflearning", "HOV demand 30 veh/min saturates the HOT capacity 30 veh/min"),
    ])
    def test_quote_check_fires_when_sampled_demand_changes(
        self, scenario_file, tmp_path, capsys, controller, message
    ):
        # the draws of steps 0 and 1 pass the demand checks of set_demand;
        # step 2 draws an HOV demand that fills the HOT capacity, so a loop
        # that set the demand only once would price it
        config = scenario_file(f"demand: {{kind: poisson, hov: 25}}\n"
                               f"controller: {{kind: {controller}}}\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", config, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: step 2 (t=0.0333333 min): {message}\n"

    def test_degenerate_price_sensitivity(self, scenario_file):
        config = scenario_file(
            "controller:\n"
            "  kind: selflearning\n"
            "  selflearning: {initial_theta: [0.25, 0.0, 0.1]}\n"
        )
        assert run_cli("simulate", "--config", config) == 4

    def test_saturating_demand_is_reported_before_the_degenerate_price(
        self, scenario_file, capsys
    ):
        # step 0 sets a demand that fills the HOT lanes and has alpha2 = 0 to
        # quote with: the demand is set first, so its error is the one reported
        config = scenario_file(
            "demand: {hov: 30}\n"
            "controller: {kind: selflearning, selflearning: {initial_theta: [0.25, 0.0, 0.1]}}\n"
        )
        assert run_cli("simulate", "--config", config) == 3
        assert capsys.readouterr().err == (
            "error: step 0 (t=0 min): HOV demand 30 veh/min saturates the HOT capacity 30 veh/min\n")

    @pytest.mark.parametrize("samples, code, message", [
        ("[[0.0, 10.0, 0.0], [0.02, 10.0, 60.0]]", 4,
         "step 2 (t=0.0333333 min): price-utility estimate alpha2=0 is too close to zero"),
        ("[[0.0, 10.0, 0.0]]", 6, "summary metric final_pi: expected a finite number, got inf"),
    ], ids=["sov-demand-later", "no-sov-demand"])
    def test_undefined_estimate_on_unpriced_steps_leaks_no_warning(
        self, scenario_file, tmp_path, capsys, samples, code, message
    ):
        # alpha2 = 0 and no SOV demand at first: those steps record the
        # estimate alpha1/alpha2 without a quote to raise first
        config = scenario_file(
            "controller: {kind: selflearning, selflearning: {initial_theta: [0.25, 0.0, 0.1]}}\n"
            f"demand: {{kind: timeseries, samples: {samples}}}\n"
            "run: {horizon: 0.05}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--config", config,
                           "--out", str(tmp_path / "out")) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text", [
        "capacities: {hot: .nan}\n",
        "behavior: {vot: .nan}\n",
        "controller: {vot: {queue_gain: .nan}}\n",
        "initial: {hot_queue: .nan}\n",
        "run: {horizon: .inf}\n",
    ], ids=["capacities.hot", "behavior.vot", "controller.vot.queue_gain",
            "initial.hot_queue", "run.horizon"])
    def test_non_finite_number_is_config_error(self, scenario_file, tmp_path, text):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", scenario_file(text), "--out", str(out)) == 2
        assert not (out / "summary.json").exists()


    @pytest.mark.parametrize("text, message", [
        ("initial: {hot_queue: 1.0e300}\n", "final_u: expected a finite number, got -inf"),
        ("controller: {vot: {initial_vot: 1.0e300}}\n",
         "pi_rmse_tail: expected a finite number, got inf"),
        ("controller: {kind: selflearning, "
         "selflearning: {initial_theta: [1.0e300, 1.0e-5, 0]}}\n",
         "pi_rmse_tail: expected a finite number, got inf"),
        # alpha1 = alpha2 = 0 and no SOV demand to quote: the estimate is 0/0
        ("controller: {kind: selflearning, selflearning: {initial_theta: [0.0, 0.0, 0.1]}}\n"
         "demand: {kind: timeseries, samples: [[0.0, 10.0, 0.0]]}\n"
         "run: {horizon: 0.05}\n", "final_pi: expected a finite number, got nan"),
    ], ids=["initial.hot_queue", "controller.vot.initial_vot",
            "controller.selflearning.initial_theta", "nan-estimate"])
    def test_non_finite_summary_is_its_own_error(
        self, scenario_file, tmp_path, capsys, text, message
    ):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--config", scenario_file(text),
                           "--out", str(out)) == 6
        assert not out.exists()
        assert capsys.readouterr().err == f"error: summary metric {message}\n"

    # the reduced model's loop-gain rate overflows, (q1+q2-c1-c2)·(q1+q2-c1) or the scale
    @pytest.mark.parametrize("text", ["behavior: {scale: 1.0e308}\n", "demand: {sov: 1.0e200}\n"],
                             ids=["behavior.scale", "demand.sov"])
    @pytest.mark.parametrize("argv", [["approx"], ["sweep", "--model", "approx", "--values", "0.1"],
                                      ["sweep", "--model", "approx", "--bisect", "0.1:0.2"]],
                             ids=["approx", "sweep-values", "sweep-bisect"])
    def test_non_finite_reduced_model_gain_is_its_own_error(self, scenario_file, capsys, text,
                                                            argv):
        assert run_cli(*argv, "--config", scenario_file(text)) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reduced model gain_rate: expected a finite number, got inf\n"

    # the loop-gain rate is finite (about 4e302), but the Euler steps overflow
    @pytest.mark.parametrize("argv", [["approx"],
                                      ["sweep", "--model", "approx", "--values", "0.1,0.2"],
                                      ["sweep", "--model", "approx", "--bisect", "0.1:0.2"]],
                             ids=["approx", "sweep-values", "sweep-bisect"])
    def test_overflowing_reduced_model_is_its_own_error(self, scenario_file, tmp_path, capsys,
                                                        argv):
        out = tmp_path / "out"
        config = scenario_file("behavior: {scale: 1.0e300}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--config", config, "--out", str(out)) == 6
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: reduced model zeta at step 3 (t=0.05 min): "
                                "expected a finite number, got inf\n")

    def test_json_holds_no_non_finite_token(self):
        with pytest.raises(NonFiniteResultError, match="JSON"):
            _json_text({"final_u": -math.inf})

    def test_indefinite_covariance_is_config_error(self, scenario_file):
        config = scenario_file(
            "controller: {kind: selflearning, selflearning: {initial_cov: -1.0}}\n"
        )
        assert run_cli("simulate", "--config", config) == 2

    @pytest.mark.parametrize("command", ["analytic", "approx"])
    def test_seed_is_no_flag_of_a_command_that_draws_nothing(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            run_cli(command, "--seed", "1")
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", ["nan", "inf", "0"])
    def test_non_finite_resolution_is_config_error(self, resolution):
        assert run_cli("sweep", "--bisect", "0.1:0.2", "--resolution", resolution) == 2

    @pytest.mark.parametrize("argv, message", RESOLUTION_ERRORS,
                             ids=[" ".join(argv) for argv, _ in RESOLUTION_ERRORS])
    def test_resolution_message_names_the_flag_once(self, capsys, pattern_file, argv, message):
        assert run_cli("sweep", "--config", pattern_file, *argv) == 2
        assert capsys.readouterr().err == message

    def test_aggregate_overflow_names_the_entry(self, scenario_file, tmp_path, capsys):
        # every replication's final_u is about 1.7e168: finite, but its
        # squared deviations overflow in the standard deviation
        config = scenario_file("run: {replications: 3}\ndemand: {kind: poisson}\n"
                               "initial: {gp_queue: 1.0e170}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--config", config, "--out", str(out)) == 6
        assert "aggregate.std.final_u" in capsys.readouterr().err
        # no file at all, not even a replication's CSV
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", BAD_SWEEP_INPUTS,
                             ids=[" ".join(argv) for argv, _ in BAD_SWEEP_INPUTS])
    def test_bad_sweep_input_names_its_flag(self, capsys, pattern_file, argv, flag):
        assert run_cli("sweep", "--config", pattern_file, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--values", "0.1"], ["--bisect", "0.1:0.2"]])
    def test_scenario_the_reduced_model_cannot_take_names_no_flag(
        self, capsys, scenario_file, argv
    ):
        config = scenario_file(
            "demand: {kind: timeseries, samples: [[0, 10, 60], [5, 12, 55]]}\n")
        assert run_cli("sweep", "--config", config, "--model", "approx", *argv) == 2
        assert capsys.readouterr().err == (
            "error: constant-demand analysis needs a demand profile with mean rates\n")

    @pytest.mark.parametrize("sov", [45, 15])
    @pytest.mark.parametrize("argv", [
        ["analytic"], ["approx"],
        ["sweep", "--model", "approx", "--values", "0.1"],
        ["sweep", "--model", "approx", "--bisect", "0.1:0.2"],
    ], ids=" ".join)
    def test_uncongested_scenario_fails_the_analysis(self, capsys, scenario_file, argv, sov):
        # total demand at or below the total capacity; at sov 15 also below
        # the HOT capacity, which the reduced model's seed quote would meet
        config = scenario_file(f"demand: {{hov: 10, sov: {sov}}}\n")
        assert run_cli(*argv, "--config", config) == 3
        assert capsys.readouterr().err == (
            f"error: total demand {10 + sov} must exceed the total capacity 60\n")

    @pytest.mark.parametrize("zeta0", ["", "approx: {zeta0: 0.11}\n"], ids=["seeded", "zeta0"])
    @pytest.mark.parametrize("argv, step", [
        (["analytic"], ""), (["approx"], ""),
        (["sweep", "--model", "approx", "--values", "0.1"], ""),
        (["sweep", "--model", "approx", "--bisect", "0.1:0.2"], ""),
        (["simulate"], "step 0 (t=0 min): "),
    ], ids=["analytic", "approx", "sweep-values", "sweep-bisect", "simulate"])
    def test_saturating_hov_mean_is_exit_3(self, capsys, scenario_file, argv, step, zeta0):
        # congested in total, but the HOV means fill the HOT lanes; a given
        # zeta0 skips the seed quote, so the reduced model's own rule rejects it
        config = scenario_file(f"demand: {{hov: 35}}\n{zeta0}")
        assert run_cli(*argv, "--config", config) == 3
        assert capsys.readouterr().err == (
            f"error: {step}HOV demand 35 veh/min saturates the HOT capacity 30 veh/min\n")

    @pytest.mark.parametrize("start, step, final_u", [
        ("10", "step 600 (t=10 min)", 10.435765729757584),
        ("10.005", "step 601 (t=10.0167 min)", 10.430446344822911),
    ], ids=["10", "10.005"])
    @pytest.mark.parametrize("controller", ["vot", "selflearning", "integral"])
    def test_saturating_timeseries_shoulder(self, capsys, scenario_file, controller, start,
                                            step, final_u):
        # HOV demand fills the HOT lanes from t=start to t=20: the logit price
        # laws stop at the first step at or after start, as the loop reads a
        # timeseries only at the breakpoints it reaches, and the integral
        # controller prices no demand term
        config = scenario_file(
            f"demand: {{kind: timeseries, samples: [[0, 10, 60], [{start}, 30, 60], "
            "[20, 10, 60]]}\n"
            f"controller: {{kind: {controller}}}\n")
        code = run_cli("simulate", "--config", config, "--format", "json")
        out, err = capsys.readouterr()
        if controller == "integral":
            assert (code, err) == (0, "")
            assert json.loads(out)["final_u"] == final_u
        else:
            assert (code, out) == (3, "")
            assert err == (f"error: {step}: HOV demand 30 veh/min saturates "
                           "the HOT capacity 30 veh/min\n")

    def test_reduced_model_seed_reads_no_unset_mean(self, capsys, scenario_file):
        # timeseries demand has no mean rates; the seed quote would read the
        # default HOV mean of 10, which saturates this HOT capacity
        config = scenario_file(
            "capacities: {hot: 5}\ndemand: {kind: timeseries, samples: [[0, 2, 60]]}\n")
        assert run_cli("approx", "--config", config) == 2
        assert capsys.readouterr().err == (
            "error: constant-demand analysis needs a demand profile with mean rates\n")

    def test_scenario_file_that_is_not_utf8_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(b"run:\n  horizon: \xff\xfe20\n")
        assert run_cli("simulate", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scenario file: ") and "Traceback" not in err

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-be", "utf-32"])
    def test_scenario_file_in_another_unicode_encoding_is_malformed(
        self, tmp_path, capsys, encoding
    ):
        # the YAML reader alone would decode UTF-16 behind its byte order mark
        path = tmp_path / "scenario.yaml"
        path.write_bytes("\ufeffrun:\n  horizon: 10.0\n".encode(encoding))
        assert run_cli("simulate", "--config", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: malformed scenario file: ")

    def test_utf8_scenario_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        outputs = []
        for bom in ("\ufeff", ""):
            path = tmp_path / "scenario.yaml"
            path.write_bytes(f"{bom}run:\n  horizon: 10.0\n".encode("utf-8"))
            assert run_cli("simulate", "--format", "json", "--config", str(path)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text, key, line", [
        ("run: {horizon: 5}\nrun: {horizon: 6}\n", "run", 2),
        ("controller:\n  kind: vot\n  kind: integral\n", "kind", 3),
    ], ids=["top-level", "nested"])
    def test_key_given_twice_is_malformed(self, scenario_file, capsys, text, key, line):
        assert run_cli("simulate", "--config", scenario_file(text)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scenario file: ")
        assert f"found duplicate key '{key}'\n  in \"<byte string>\", line {line}," in err

    def test_list_nested_beyond_the_reader_is_malformed(self, scenario_file, capsys):
        depth = 2000
        text = f"controller: {{selflearning: {{initial_theta: {'[' * depth}1{']' * depth}}}}}\n"
        assert run_cli("simulate", "--config", scenario_file(text)) == 2
        assert capsys.readouterr().err == "error: malformed scenario file: nested too deeply\n"

    @pytest.mark.parametrize("text, message", [
        ("run: {seed: 2001-02-30}\n",
         "error: malformed scenario file: day is out of range for month"),
        (f"run: {{seed: {'1' * 4301}}}\n",
         "error: malformed scenario file: Exceeds the limit (4300 digits) for integer string "
         "conversion: value has 4301 digits; use sys.set_int_max_str_digits() to increase "
         "the limit"),
        ("demand: {kind: timeseries, samples: &a [*a]}\n",
         "error: demand.samples: expected rows of three numbers, got [[...]] at row 0"),
        ("controller: {selflearning: {initial_theta: &a [1, *a, 3]}}\n",
         "error: controller.selflearning.initial_theta: expected three numbers, "
         "got [1.0, [...], 3.0]"),
    ], ids=["date-past-month-end", "4301-digit-integer", "self-referential-samples",
            "self-referential-theta"])
    def test_value_the_reader_cannot_take_is_one_error_line(self, scenario_file, capsys,
                                                            text, message):
        # each ended in a traceback, exit 1: a ValueError or a RecursionError
        assert run_cli("simulate", "--config", scenario_file(text)) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message + "\n")

    def test_each_error_class_carries_its_documented_code(self):
        # the exit-code table of the cli docstring, one row per error class
        table = " ".join(cli.__doc__.split())
        documented = {
            HotSimError: "2 configuration or usage error",
            ConfigError: "2 configuration or usage error",
            BoundaryNotBracketedError: "2 configuration or usage error",
            ScenarioAssumptionError: "3 scenario-assumption violation",
            PriceUndefinedError: "4 controller failure",
            NonFiniteResultError: "6 non-finite result",
        }
        assert set(HotSimError.__subclasses__()) | {HotSimError} == set(documented)
        for kind, row in documented.items():
            assert row in table
            assert kind.exit_code == int(row.split()[0])

    def test_io_failure_is_exit_5(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")  # a file where --out wants a directory
        assert run_cli("analytic", "--out", str(out)) == 5
        assert capsys.readouterr().err.startswith("error: ")
        assert "5 I/O failure" in " ".join(cli.__doc__.split())


class TestCompare:
    def test_only_the_vot_controller_reaches_the_optimum(self, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--out", str(out)) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["verdict"] == ["vot"]
        assert payload["controllers"]["vot"]["optimal_state"] is True
        assert payload["controllers"]["integral"]["optimal_state"] is False
        assert payload["controllers"]["selflearning"]["optimal_state"] is False

    def test_single_controller_is_usage_error(self):
        assert run_cli("compare", "--controllers", "vot") == 2

    def test_unknown_controller_fails_before_any_run(self, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("a run started before every controller kind was checked")

        monkeypatch.setattr(engine, "run_closed_loop", unexpected)
        assert run_cli("compare", "--controllers", "vot,foo") == 2
        assert capsys.readouterr().err.startswith("error: controller.kind: ")

    def test_seed_flag_changes_the_draws(self, capsys, scenario_file):
        config = scenario_file("demand: {kind: poisson}\n")
        payloads = []
        for seed in (1, 2):
            assert run_cli("compare", "--config", config, "--seed", str(seed)) == 0
            payloads.append(json.loads(capsys.readouterr().out))
            assert payloads[-1]["seed"] == seed
        assert payloads[0]["controllers"] != payloads[1]["controllers"]


@pytest.fixture
def pattern_file(scenario_file):
    return scenario_file(
        "initial: {hot_queue: 1.0}\n"
        "approx: {zeta0: 0.11}\n"
        "controller: {vot: {initial_vot: 0.25}}\n"
    )


class TestSweep:
    def test_grid_patterns_split_at_the_boundary(self, tmp_path, pattern_file):
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--config", pattern_file, "--param", "k2",
            "--grid", "0.10:0.20:0.02", "--out", str(out),
        ) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("k2,pattern")
        patterns = {float(r.split(",")[0]): r.split(",")[1] for r in lines[1:]}
        assert len(patterns) == 6
        for value, pattern in patterns.items():
            assert pattern == ("gaussian" if value < 0.145 else "exponential")

    def test_bisection_reports_boundary(self, tmp_path, pattern_file):
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--config", pattern_file, "--bisect", "0.1:0.2",
            "--resolution", "0.005", "--out", str(out),
        ) == 0
        payload = json.loads((out / "boundary.json").read_text())
        assert payload["boundary"] == pytest.approx(0.14, abs=0.01)

    def test_bisection_below_float_spacing_ends(self, capsys):
        assert run_cli("sweep", "--config", str(SCENARIOS / "perturbed.yaml"),
                       "--model", "approx", "--bisect", "0.1:0.2", "--resolution", "1e-300") == 0
        assert capsys.readouterr().err.startswith("boundary k2=0.14")

    def test_unbracketed_bisect_is_a_warning(self, capsys, pattern_file):
        assert run_cli("sweep", "--config", pattern_file, "--bisect", "0.05:0.09") == 0
        assert "warning" in capsys.readouterr().err

    def test_empty_grid_is_usage_error(self, pattern_file):
        assert run_cli("sweep", "--config", pattern_file, "--values", "") == 2

    @pytest.mark.parametrize("flag", ["--values", "--grid"])
    def test_blank_grid_flag_is_an_empty_grid(self, capsys, pattern_file, flag):
        assert run_cli("sweep", "--config", pattern_file, flag, "") == 2
        assert capsys.readouterr().err == "error: sweep grid is empty\n"

    def test_missing_parameter_spec_is_usage_error(self, pattern_file):
        assert run_cli("sweep", "--config", pattern_file) == 2

    @pytest.mark.parametrize("bracket", ["0.2:0.1", "0.15:0.15"])
    def test_bad_bracket_is_rejected_before_any_run(
        self, monkeypatch, capsys, pattern_file, bracket
    ):
        def unexpected(*args, **kwargs):
            raise AssertionError("a run started before the bracket was checked")

        monkeypatch.setattr(analysis, "run_closed_loop", unexpected)
        assert run_cli("sweep", "--config", pattern_file, "--grid", "0.10:0.20:0.02",
                       "--bisect", bracket) == 2
        assert capsys.readouterr().err.startswith("error: --bisect: bracket ")

    # a bracket end or a grid point, first or last, that the controller rejects
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--grid", "0.10:0.20:0.02", "--bisect=0:0.2"],
                     "--bisect: k2=0: residual_gain must be positive", id="0:0.2-k2=0"),
        pytest.param(["--grid", "0.10:0.20:0.02", "--bisect=-0.1:0.2"],
                     "--bisect: k2=-0.1: residual_gain must be positive", id="-0.1:0.2-k2=-0.1"),
        pytest.param(["--values", "0.1,0.12,0.14,0"],
                     "--values: k2=0: residual_gain must be positive", id="values-k2=0"),
        pytest.param(["--grid=-0.02:0.2:0.02"],
                     "--grid: k2=-0.02: residual_gain must be positive", id="grid-k2=-0.02"),
        pytest.param(["--param", "k1", "--values", "0.1,-1"],
                     "--values: k1=-1: queue_gain must be positive", id="values-k1=-1"),
        pytest.param(["--values", "0.1,nan"],
                     "--values: k2=nan: residual_gain: expected a finite number, got nan",
                     id="values-k2=nan"),
    ])
    def test_bracket_end_the_controller_rejects_fails_before_any_run(
        self, monkeypatch, capsys, tmp_path, pattern_file, argv, message
    ):
        def unexpected(*args, **kwargs):
            raise AssertionError("a run started before every gain was checked")

        monkeypatch.setattr(analysis, "run_closed_loop", unexpected)
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", pattern_file, *argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["closed", "approx"])
    def test_window_too_narrow_to_square_writes_its_row(self, capsys, model):
        # the tail window's x = t**2 spans about 1e-200, whose centred squares
        # underflow to zero unless the fit scales them
        mapping = yaml.safe_load((SCENARIOS / "perturbed.yaml").read_text())
        mapping["run"] = {"horizon": 1.0e-100, "dt": 1.0e-103}
        code, out, err = _run_scenario(mapping, ["sweep", "--model", model, "--values", "0.1"])
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0].startswith("k2,pattern") and len(lines) == 2

    def test_grid_and_values_together_is_usage_error(self, pattern_file):
        with pytest.raises(SystemExit) as exit_:
            run_cli("sweep", "--config", pattern_file, "--grid", "0.10:0.20:0.02",
                    "--values", "0.1")
        assert exit_.value.code == 2


class TestAnalytic:
    def test_price_column_ends_at_reference_value(self, tmp_path):
        out = tmp_path / "analytic"
        assert run_cli("analytic", "--out", str(out)) == 0
        lines = (out / "analytic.csv").read_text().splitlines()
        assert lines[0] == "t,u_analytic"
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(20.0, rel=1e-9)
        assert float(last[1]) == pytest.approx(10.0 / 3.0 + math.log(2.0), rel=1e-9)

    def test_price_law_is_derived_once_per_table(self, capsys, monkeypatch):
        # one slope and intercept for all 1201 rows of the default scenario
        means, calls = analysis._congested_means, []

        def counted(config):
            calls.append(config)
            return means(config)

        monkeypatch.setattr(analysis, "_congested_means", counted)
        assert run_cli("analytic") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 1201
        assert len(calls) == 1

    def test_poisson_demand_is_analysed_at_its_mean_rates(self, capsys, scenario_file):
        tables = []
        for kind in ("constant", "poisson"):
            config = scenario_file(f"demand: {{kind: {kind}, hov: 12, sov: 55}}\n")
            assert run_cli("analytic", "--config", config) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    # the slope overflows (0 · inf at t = 0 is nan), the intercept overflows,
    # or the slope times t overflows later
    @pytest.mark.parametrize("text, message", [
        ("capacities: {gp: 5.0e-324}\n", "at t=0 min: expected a finite number, got nan"),
        ("behavior: {scale: 5.0e-324}\n", "at t=0 min: expected a finite number, got inf"),
        ("behavior: {vot: 1.0e+306}\nrun: {horizon: 1000, dt: 1}\n",
         "at t=540 min: expected a finite number, got inf"),
    ], ids=["capacities.gp", "behavior.scale", "behavior.vot"])
    def test_non_finite_price_is_its_own_error(self, capsys, scenario_file, tmp_path, text,
                                               message):
        config, out = scenario_file(text), tmp_path / "out"
        assert run_cli("analytic", "--config", config, "--out", str(out)) == 6
        assert not out.exists()
        assert run_cli("analytic", "--config", config) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: u_analytic {message}\n" * 2

    def test_timeseries_demand_has_no_mean_rates(self, capsys, scenario_file):
        config = scenario_file(
            "demand: {kind: timeseries, samples: [[0, 10, 60], [5, 12, 55]]}\n")
        assert run_cli("analytic", "--config", config) == 2
        assert capsys.readouterr().err == (
            "error: constant-demand analysis needs a demand profile with mean rates\n")


class TestApprox:
    def test_residual_peaks_at_reference(self, tmp_path, pattern_file):
        out = tmp_path / "approx"
        assert run_cli("approx", "--config", pattern_file, "--out", str(out)) == 0
        lines = (out / "approx.csv").read_text().splitlines()
        assert lines[0] == "t,lambda1,zeta,ratio"
        zeta = [float(r.split(",")[2]) for r in lines[1:]]
        assert max(zeta) == pytest.approx(0.44, abs=0.03)

    def test_larger_residual_gain_peaks_lower(self, tmp_path, scenario_file):
        config = scenario_file(
            "initial: {hot_queue: 1.0}\n"
            "approx: {zeta0: 0.11}\n"
            "controller: {vot: {initial_vot: 0.25, residual_gain: 0.2}}\n"
        )
        out = tmp_path / "approx"
        assert run_cli("approx", "--config", config, "--out", str(out)) == 0
        rows = (out / "approx.csv").read_text().splitlines()[1:]
        zeta = [float(r.split(",")[2]) for r in rows]
        ratio = [float(r.split(",")[3]) for r in rows]
        assert max(zeta) == pytest.approx(0.31, abs=0.03)
        assert ratio[-1] == pytest.approx(2.0, abs=0.1)


# the directory that holds the hotsim this process imported: the checkout's
# src, or the site-packages of an installed copy
IMPORTED_FROM = Path(hotsim.__file__).resolve().parents[1]


def run_python(*args):
    """``python args...`` with the directory of the hotsim this process
    imported first on the path, so that the child imports the same copy."""
    path = os.pathsep.join(filter(None, [str(IMPORTED_FROM), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def run_module(*argv):
    """``python -m argv...`` with the hotsim this process imported on the path."""
    return run_python("-m", *argv)


class TestModuleEntryPoints:
    def test_child_imports_the_hotsim_this_process_imported(self):
        done = run_python("-c", "import hotsim; print(hotsim.__file__)")
        assert done.returncode == 0, done.stderr
        assert Path(done.stdout.strip()).resolve() == Path(hotsim.__file__).resolve()

    def test_cli_module_exits_with_the_usage_code(self):
        done = run_module("hotsim.cli", "sweep", "--bisect", "0.1:0.2", "--resolution", "nan")
        assert done.returncode == 2
        assert done.stderr.startswith("error: --resolution: ")

    def test_package_prints_the_summary(self, capsys):
        done = run_module("hotsim", "simulate", "--format", "json")
        assert done.returncode == 0
        assert run_cli("simulate", "--format", "json") == 0
        assert done.stdout == capsys.readouterr().out
        assert "fingerprint" in json.loads(done.stdout)


class TestStartupImportsNoNumpy:
    """Importing the package, loading a scenario and the commands that
    compute nothing with numpy leave it unimported, and each module that one
    function alone uses (``json``, ``hashlib``, ``argparse``) stays
    unimported until that function runs: ``-X importtime`` lists every module
    the process imported, on stderr.  A module that a bare interpreter
    already imports, say through ``site``, is not counted."""

    @staticmethod
    def imported(*args):
        """``python -X importtime args...`` and the modules it imported."""
        done = run_python("-X", "importtime", *args)
        return done, {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                      if line.startswith("import time:")}

    @classmethod
    def run(cls, *args, absent=("numpy", "json", "hashlib")):
        done, imported = cls.imported(*args)
        assert "hotsim" in imported
        assert (set(absent) - cls.bare()) & imported == set()
        return done

    @classmethod
    @functools.cache
    def bare(cls):
        """The modules a bare interpreter imports."""
        return cls.imported("-c", "pass")[1]

    @pytest.mark.parametrize("code", [
        "import hotsim",
        "import hotsim.cli\n" + "".join(f"hotsim.config.load_config({str(SCENARIOS / name)!r})\n"
                                         for name in SCENARIO_NAMES),
    ], ids=["import", "load-shipped-scenarios"])
    def test_import_and_load(self, code):
        done = self.run("-c", code, absent=("numpy", "json", "hashlib", "argparse"))
        assert done.returncode == 0

    def test_help(self):
        done = self.run("-m", "hotsim", "--help")
        assert done.returncode == 0 and done.stdout.startswith("usage: hotsim")

    def test_analytic_table(self):
        done = self.run("-m", "hotsim", "analytic", "--config", str(SCENARIOS / "reference.yaml"))
        assert done.returncode == 0
        assert hashlib.sha256(done.stdout.encode()).hexdigest()[:16] == "013420e6e51706c4"

    def test_config_error(self, scenario_file):
        config = scenario_file("controller: {selflearning: {initial_cov: -1.0}}\n")
        done = self.run("-m", "hotsim", "simulate", "--config", config)
        assert done.returncode == 2
        assert "error: controller.selflearning.initial_cov: expected a covariance" in done.stderr


def _csv_table(text: str) -> None:
    header, *rows = text.splitlines()
    assert rows and all(row.count(",") == header.count(",") for row in rows)


def _sweep(model: str):
    """``sweep`` argv with one to three positive values of a random gain."""
    return st.builds(
        lambda param, values: ["sweep", "--param", param, "--model", model,
                               "--values", ",".join(map(repr, values))],
        st.sampled_from(tuple(analysis.GAINS)), st.lists(_positive, min_size=1, max_size=3),
    )


# command: (argv strategy, exit codes of its errors, check of its stdout,
# examples); a constant-demand analysis of other demand is a ConfigError (exit 2)
COMMANDS = {
    "simulate": (st.just(["simulate", "--format", "json"]), (3, 4, 6), json.loads, 50),
    "compare": (st.just(["compare"]), (3, 4, 6), json.loads, 15),
    "sweep-closed": (_sweep("closed"), (3, 4, 6), _csv_table, 15),
    "sweep-approx": (_sweep("approx"), (2, 3, 4, 6), _csv_table, 15),
    "analytic": (st.just(["analytic"]), (2, 3, 4, 6), _csv_table, 15),
    "approx": (st.just(["approx"]), (2, 3, 4, 6), _csv_table, 15),
}


def _run_scenario(mapping, argv) -> tuple[int, str, str]:
    """``main(argv)`` on ``mapping`` dumped to a scenario file, with warnings
    turned into errors: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def _one_clear_error(out: str, err: str) -> None:
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestSimulateFuzz:
    """Every valid scenario ends each command in a result or in one clear error."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_scenario_exits_cleanly(self, command):
        argv_strategy, codes, check, examples = COMMANDS[command]

        @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
        @given(_scenarios(max_steps=60, max_replications=2), argv_strategy)
        def exits_cleanly(mapping, argv):
            code, out, err = _run_scenario(mapping, argv)
            assert code == 0 or code in codes, err
            if code == 0:
                assert err == ""
                check(out)
            else:
                _one_clear_error(out, err)

        exits_cleanly()


_HOSTILE = st.one_of(
    st.text(max_size=8), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]),
    st.lists(_positive, max_size=3), st.lists(st.lists(_positive, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=5), _positive, max_size=2),
)


def _paths(mapping: dict, prefix: tuple = ()):
    """The key path of every section and value of ``mapping``."""
    for key, value in mapping.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


@st.composite
def _hostile_scenarios(draw):
    """A valid scenario with one section or value replaced by a hostile value."""
    mapping = draw(_scenarios(max_steps=60, max_replications=2))
    *parents, key = draw(st.sampled_from(list(_paths(mapping))))
    node = mapping
    for parent in parents:
        node = node[parent]
    node[key] = draw(_HOSTILE)
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


OWNED_KEYS = list(_owned_keys())
# the scenario keys that hold no number
NOT_NUMBER_KEYS = ("run.seed", "run.replications", "demand.kind", "noise.kind", "controller.kind")


def _schema_keys(table=SCHEMA, path=""):
    for key, entry in table.items():
        where = f"{path}.{key}" if path else key
        yield from _schema_keys(entry, where) if isinstance(entry, dict) else (where,)


def test_schema_driven_parametrizations_keep_every_key():
    # a filter that drops a key drops its cases silently; here it fails by name
    keys = list(_schema_keys())
    assert [where for where, *_ in OWNED_KEYS] == keys
    numbers = dict.fromkeys(where for _, where, *_ in NUMBER_ENTRIES)
    assert list(numbers) == [key for key in keys if key not in NOT_NUMBER_KEYS]
    assert set(NOT_NUMBER_KEYS) < set(keys)
# a bool, string, None, list, dict, NaN or integer beyond the float range
_WRONG_TYPE = st.one_of(
    st.booleans(), st.text(max_size=8), st.none(),
    st.sampled_from([math.nan, 10**400, -10**400, np.True_]),
    st.lists(st.one_of(_positive, st.text(max_size=3), st.lists(_positive, max_size=4)),
             max_size=4),
    st.dictionaries(st.text(max_size=5), _positive, max_size=2),
)


class TestHostileFuzz:
    """A hostile value anywhere in a scenario ends every command in a result or
    in one clear error, never in a traceback or a warning."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--format", "json"], ["compare"], ["analytic"], ["approx"],
        ["sweep", "--values", "0.1"], ["sweep", "--model", "approx", "--values", "0.1"],
    ], ids=" ".join)
    def test_hostile_value_ends_in_one_clear_error(self, argv):
        @settings(max_examples=17, deadline=None, derandomize=True, database=None)
        @given(_hostile_scenarios())
        def ends_cleanly(mapping):
            code, out, err = _run_scenario(mapping, argv)
            assert code in (0, 2, 3, 4, 6), err
            if code:
                _one_clear_error(out, err)

        ends_cleanly()

    @pytest.mark.parametrize("mapping", [
        {"demand": {"kind": "timeseries", "samples": [[0, 10, [60]]]}},
        {"controller": {"selflearning": {"initial_theta": [1, [2], 3]}}},
        {"controller": {"selflearning": {"initial_cov": [[1, 0, [0]], [0, 1, 0], [0, 0, 1]]}}},
    ], ids=["samples", "initial_theta", "initial_cov"])
    def test_list_nested_one_level_too_deep_is_exit_2(self, mapping):
        # a depth the random values above do not reach
        code, out, err = _run_scenario(mapping, ["simulate", "--format", "json"])
        assert code == 2, err
        _one_clear_error(out, err)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(OWNED_KEYS), _WRONG_TYPE)
    def test_hostile_value_in_code_names_its_key(self, owned, value):
        # a section object or config built in code with one hostile value is
        # built, or raises its owner's error naming the key, never TypeError,
        # AttributeError or OverflowError
        where, key, owner, name = owned
        try:
            dataclasses.replace(owner, **{name: value})
        except (ValueError, ConfigError) as exc:
            assert re.match(f"{re.escape(key)}[: ]", str(exc)), (where, str(exc))

    def test_one_bad_row_of_many_is_a_short_error(self):
        # the message shows the first row that breaks the shape, not the array
        samples = [[t, 10, 60] for t in range(500)] + [[500, 10]]
        code, out, err = _run_scenario({"demand": {"kind": "timeseries", "samples": samples}},
                                       ["simulate"])
        assert code == 2
        _one_clear_error(out, err)
        assert err == ("error: demand.samples: expected rows of three numbers, "
                       "got [500.0, 10.0] at row 500\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("mapping", [
        {"behavior": {"vot": [0.1] * 2000}},
        {"capacities": {"hot": "x" * 5000}},
        {"controller": {"kind": "x" * 5000}},
        {"run": {"seed": "x" * 5000}},
        {"run": {"dt": "x" * 5000}},
    ], ids=["long-list", "long-string", "long-kind", "long-seed", "long-step"])
    def test_long_bad_value_is_a_short_error(self, mapping):
        # the message shows the value cut short, not whole
        code, out, err = _run_scenario(mapping, ["simulate"])
        assert code == 2
        _one_clear_error(out, err)
        assert "..." in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("section, key, rule", [
        ("behavior", "vot", "expected a number"),
        ("run", "seed", "expected an integer"),
        ("controller", "kind", "expected one of vot, integral, selflearning"),
        ("demand", "kind", "expected one of constant, poisson, timeseries"),
    ], ids=["behavior-vot", "run-seed", "controller-kind", "demand-kind"])
    def test_deep_shared_list_is_a_short_error(self, section, key, rule):
        # six levels of seven entries, each level one list seven times:
        # yaml.safe_dump writes it in a few hundred bytes through aliases
        value = 0
        for _ in range(6):
            value = [value] * 7
        code, out, err = _run_scenario({section: {key: value}}, ["simulate"])
        assert code == 2
        _one_clear_error(out, err)
        assert err == (f"error: {section}.{key}: {rule}, "
                       "got [[...], [...], [...], [...], [...], [...], ...]\n")
        assert len(err.encode()) < 200
