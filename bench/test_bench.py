"""Tests of the benchmark's own code: inputs, seed handling, digests and tracing.

Run with ``python -m pytest bench`` from the root of the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import startup  # noqa: E402
import workloads  # noqa: E402
from hotsim import ScenarioConfig, VotControllerSpec, analysis, engine  # noqa: E402
from hotsim.choice import NoiseSpec  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=lambda w: w.name)
def test_workload_loads_the_shipped_scenario_bytes(workload):
    path = ROOT / "scenarios" / workload.scenario
    assert workloads.scenario_sha256(path) == workloads.SCENARIO_SHA256[workload.scenario]


def test_scenarios_match_the_inputs_of_the_tier1_tests():
    # tests/test_acceptance.py builds its scenarios from ScenarioConfig()
    s0 = ScenarioConfig()
    pattern = dataclasses.replace(
        s0, vot_spec=VotControllerSpec(0.1, 0.1, 1.0, 0.25),
        initial_hot_queue=1.0, approx_zeta0=0.11,
    )
    stochastic = dataclasses.replace(
        s0, demand=engine.DemandProfile(kind="poisson", mean_hov=10.0, mean_sov=60.0),
        noise=NoiseSpec("uniform", 0.1), seed=1000, replications=20,
    )
    loaded = {name: w.load(ROOT, None) for name, w in workloads.WORKLOADS.items()}
    assert loaded["controllers"].to_mapping() == s0.to_mapping()
    assert loaded["boundary"].to_mapping() == pattern.to_mapping()
    assert loaded["replicate"].to_mapping() == stochastic.to_mapping()


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=lambda w: w.name)
def test_seed_changes_only_run_seed(workload):
    default = workload.load(ROOT, None).to_mapping()
    seeded = workload.load(ROOT, 123456).to_mapping()
    assert seeded["run"].pop("seed") == 123456
    default["run"].pop("seed")
    assert seeded == default


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 100]; children [10, 30] and [20, 50] overlap, [90, 120] overruns
    # the root, and the grandchild [12, 18] is covered by its own parent only
    start = [0, 10, 12, 20, 90]
    end = [100, 30, 18, 50, 120]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == [50, 14, 6, 30, 30]


def test_self_time_of_children_given_out_of_start_order():
    assert spans.self_times([0, 40, 10], [50, 45, 20], [-1, 0, 0]) == [35, 5, 10]


def test_expected_digests_hold_the_golden_outputs():
    table = json.loads((BENCH / "expected.json").read_text())
    for (name, kind, key), value in workloads.GOLDEN.items():
        assert table[name][kind][key] == value
    for key, value in workloads.GOLDEN_BOUNDARIES.items():
        assert table["boundary"]["op"][key] == workloads.digest(value)


def test_importtime_split():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |       1000 | site",
        "import time:      2000 |     100000 |       numpy",
        "import time:       800 |     150000 |   hotsim",
        "import time:      4000 |     156000 | hotsim.cli",
    ])
    assert startup.split_importtime(stderr) == (100.0, 56.0)


def test_traced_boundary_study_counts_the_search_runs():
    workload = workloads.WORKLOADS["boundary"]
    cfg = workload.load(ROOT, None)
    tracer = spans.Tracer()
    targets = spans.layer_targets()
    tracer.study_id = 1
    with spans.patched(tracer, targets):
        ops = workload.ops(cfg)
        results = [op.call() for op in ops]
    assert analysis.run_closed_loop is engine.run_closed_loop  # wrappers removed
    metrics = spans.layer_metrics(tracer, targets, {0: 1.0, 1: 1.0})
    runs = workloads.search_runs(*workload.bracket, workload.resolution)
    assert metrics["analysis.run_closed_loop.calls"][0] == runs
    assert metrics["analysis.run_approximate.calls"][0] == runs
    assert metrics["engine.run_closed_loop.calls"][0] == 6
    assert sum(op.steps for op in ops) == (6 + 2 * runs) * cfg.n_steps
    assert [workload.op_text(op.key, r) for op, r in zip(ops, results)][-2:] == [
        workloads.GOLDEN_BOUNDARIES["closed"], workloads.GOLDEN_BOUNDARIES["approx"],
    ]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    names = {f"{name}.{kind}" for _, _, name, *size in spans.layer_targets()
             for kind in ("calls", "self_ms", *(["bytes"] if size else []))}
    names |= {"setup.import_numpy_ms", "setup.import_hotsim_ms", "trace.overhead_ratio"}
    assert per_layer == names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
