"""Golden outputs: the CLI's files match recorded digests byte for byte.

Each digest is the first 16 hex digits of the sha256 of one output file.
Refactors keep them; a deliberate behaviour change re-records them and says
so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from hotsim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("scenario, output, expected", [
    ("reference.yaml", "trajectory.csv", "d68490994502a419"),
    ("perturbed.yaml", "trajectory.csv", "ee450cc2e9df1bc7"),
    ("stochastic.yaml", "summary.json", "d2385aca0b9c6d60"),
    ("stochastic.yaml", "trajectory_rep000.csv", "944974f9bc6d551b"),
    ("stochastic.yaml", "trajectory_rep019.csv", "1a85f3268d1b64dd"),
])
def test_simulate_shipped_scenario(tmp_path, scenario, output, expected):
    assert main(["simulate", "--config", str(SCENARIOS / scenario),
                 "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / output) == expected


@pytest.mark.parametrize("kind, expected", [
    ("integral", "2759abe5ebd44a65"),
    ("selflearning", "fddf561b7f48b8f2"),
])
def test_simulate_default_scenario_per_controller(tmp_path, kind, expected):
    config = tmp_path / "scenario.yaml"
    config.write_text(f"controller: {{kind: {kind}}}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert digest(out / "trajectory.csv") == expected


def test_compare_all_controllers(tmp_path):
    assert main(["compare", "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "compare.json") == "76ecd2c762e676c1"


def test_sweep_grid_and_bisection(tmp_path):
    assert main(["sweep", "--config", str(SCENARIOS / "perturbed.yaml"),
                 "--grid", "0.10:0.20:0.02", "--bisect", "0.1:0.2",
                 "--resolution", "0.005", "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "sweep.csv") == "10d7c706fc1c20cb"
    assert digest(tmp_path / "boundary.json") == "96b0fde980b8a8d1"


def test_sweep_grid_and_bisection_of_the_reduced_model(tmp_path):
    assert main(["sweep", "--config", str(SCENARIOS / "perturbed.yaml"),
                 "--grid", "0.10:0.20:0.02", "--bisect", "0.1:0.2",
                 "--resolution", "0.005", "--model", "approx", "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "sweep.csv") == "21bdb4bd6ec31afc"
    assert digest(tmp_path / "boundary.json") == "17df899b388275b8"


@pytest.mark.parametrize("argv, output, expected", [
    (["analytic"], "analytic.csv", "013420e6e51706c4"),
    (["approx", "--config", str(SCENARIOS / "perturbed.yaml")], "approx.csv", "57320e5b5d99cee3"),
])
def test_reduced_and_analytic_tables(tmp_path, argv, output, expected):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / output) == expected


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_simulate_to_stdout(capsys):
    assert main(["simulate"]) == 0
    out, err = capsys.readouterr()
    assert text_digest(out) == "d68490994502a419"
    assert err == ""


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--config", str(SCENARIOS / "perturbed.yaml"),
                 "--grid", "0.10:0.20:0.02", "--bisect", "0.1:0.2",
                 "--resolution", "0.005"]) == 0
    out, err = capsys.readouterr()
    assert text_digest(out) == "10d7c706fc1c20cb"
    assert err == "boundary k2=0.1484375\n"


# breakpoints of a 1/60 min step: one before the run, one between two steps,
# one on a step time, two between the next two steps (the second leaves no
# SOVs to price), one on a step time again and one past the horizon
TIMESERIES = ("demand: {kind: timeseries, samples: [[-3, 10, 60], [5.005, 12, 58], "
              "[10, 11, 61.5], [10.001, 9, 70], [10.002, 10, 0], [12.5, 10, 65], [25, 10, 60]]}")


@pytest.mark.parametrize("kind, expected", [
    ("vot", "46801ceefad81915"),
    ("integral", "7a0084cdc894d0fa"),
    ("selflearning", "d5c3e20db2c752a5"),
])
def test_simulate_timeseries_breakpoints_per_controller(tmp_path, kind, expected):
    config = tmp_path / "scenario.yaml"
    config.write_text(f"{TIMESERIES}\ncontroller: {{kind: {kind}}}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert digest(out / "trajectory.csv") == expected
