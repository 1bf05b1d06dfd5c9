"""The three study workloads: their inputs, their ops and the outputs checked.

A workload turns one shipped scenario file and a seed into a *study*: a
fixed list of ops run back to back, followed by a study-level output built
from the ops' results (the aggregate ``summary.json`` of ``simulate``, the
payload of ``compare``, the ``sweep.csv`` of ``sweep``).  Every op returns a
result whose output text is digested outside the timed region and compared
with a digest recorded in ``expected.json``.

Importing this module imports ``hotsim``; put the checkout's ``src`` on
``sys.path`` first.  The bench calls the program through module attributes
(``engine.run_closed_loop``, ``cli.trajectory_csv``, ...) so that the traced
run can replace them with timing wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hotsim import analysis, cli, config, engine

# sha256 of the shipped scenario files the workloads run unmodified
SCENARIO_SHA256 = {
    "perturbed.yaml": "1fff7398a719f85f44955a531d502dbea2b66fa9dc88097f517bdad8f772af9e",
    "reference.yaml": "44ed9fcdeea18b7f75b8735fb5a90d58b316253b3ceb8dfc341a2ac2612cf74f",
    "stochastic.yaml": "2a0017321bc8c19c76eacc9d5c962528cdf9eb70f162668689cc1e6a77429c3a",
}

# Golden outputs at the default seeds (ROADMAP, "Golden output digests").
GOLDEN = {
    ("replicate", "study", "1000"): "d2385aca0b9c6d60",
    ("controllers", "op", "vot"): "d68490994502a419",
    ("controllers", "op", "integral"): "2759abe5ebd44a65",
    ("controllers", "op", "selflearning"): "fddf561b7f48b8f2",
    ("boundary", "op", "grid:0.1"): "ee450cc2e9df1bc7",
}
GOLDEN_BOUNDARIES = {"closed": "0.1484375", "approx": "0.1421875"}

# Reference to the untraced CSV writer, used to render outputs for checking
# so that checks never show up in the traced run's counts.
render_csv = cli.trajectory_csv


def digest(text: str) -> str:
    """First 16 hex digits of the sha256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fmt(value: float) -> str:
    """Number format of the CLI's CSV and stderr output."""
    return format(float(value), ".9g")


def json_text(payload) -> str:
    """JSON layout of the CLI's output files."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def scenario_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Op:
    """One timed operation of a study."""

    key: str        # names the op's expected output digest
    steps: int      # simulated steps the op performs
    call: Callable[[], object]


class Workload:
    """A study built from one shipped scenario file."""

    name = ""
    scenario = ""
    trace_studies = 1  # studies in each phase of the traced run

    def load(self, root: Path, seed: int | None) -> "config.ScenarioConfig":
        """Load the shipped scenario; ``seed`` replaces ``run.seed`` only."""
        cfg = config.load_config(root / "scenarios" / self.scenario)
        return cfg if seed is None else dataclasses.replace(cfg, seed=seed)

    def ops(self, cfg) -> list[Op]:
        raise NotImplementedError

    def op_text(self, key: str, result) -> str:
        """Output text of one op's result (rendered outside the timer)."""
        raise NotImplementedError

    def finish(self, cfg, results: list) -> str:
        """Study-level output text, built inside the timer."""
        raise NotImplementedError


def _aggregate(summaries: list[dict]) -> dict:
    # the mean/std block of a replicated ``simulate`` summary.json
    mean, std = {}, {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if any(v is None for v in values):
            mean[key] = std[key] = None
        else:
            mean[key] = float(np.mean(values))
            std[key] = float(np.std(values))
    return {"mean": mean, "std": std}


class Replicate(Workload):
    """``simulate`` with replications: Poisson demand and choice noise."""

    name = "replicate"
    scenario = "stochastic.yaml"
    trace_studies = 3

    def ops(self, cfg) -> list[Op]:
        def replication(seed: int):
            traj = engine.run_closed_loop(cfg, seed=seed)
            summary = engine.summarize(traj, cfg.behavior.vot).as_dict()
            return cli.trajectory_csv(traj), summary

        return [
            # the key is the replication's own seed: its output depends on nothing else
            Op(str(cfg.seed + rep), cfg.n_steps, functools.partial(replication, cfg.seed + rep))
            for rep in range(cfg.replications)
        ]

    def op_text(self, key, result) -> str:
        csv_text, summary = result
        return csv_text + json_text(summary)

    def finish(self, cfg, results) -> str:
        summaries = [summary for _, summary in results]
        return json_text({"replications": summaries, "aggregate": _aggregate(summaries)})


class Controllers(Workload):
    """``compare``: the three controllers on the same constant demand."""

    name = "controllers"
    scenario = "reference.yaml"
    trace_studies = 20
    kinds = ("vot", "integral", "selflearning")

    def ops(self, cfg) -> list[Op]:
        def run(kind: str):
            traj = engine.run_closed_loop(dataclasses.replace(cfg, controller_kind=kind))
            return traj, engine.summarize(traj, cfg.behavior.vot)

        return [Op(kind, cfg.n_steps, functools.partial(run, kind)) for kind in self.kinds]

    def op_text(self, key, result) -> str:
        traj, _ = result
        return render_csv(traj)

    def finish(self, cfg, results) -> str:
        # the ``controllers`` and ``verdict`` blocks of compare.json
        controllers = {}
        for kind, (_, metrics) in zip(self.kinds, results):
            optimal = (
                metrics.final_lambda1 < 1e-3
                and abs(metrics.avg_g1 - cfg.capacities.hot) <= 0.5
            )
            controllers[kind] = dict(metrics.as_dict(), optimal_state=optimal)
        verdict = [kind for kind, s in controllers.items() if s["optimal_state"]]
        return json_text({"controllers": controllers, "verdict": verdict})


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Gain values of ``sweep --grid START:STOP:STEP``."""
    count = math.floor((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def search_runs(low: float, high: float, resolution: float) -> int:
    """Runs one ``find_phase_boundary`` makes: both ends plus each midpoint."""
    runs = 2
    while high - low > resolution:
        high = 0.5 * (low + high)
        runs += 1
    return runs


class Boundary(Workload):
    """``sweep --grid 0.10:0.20:0.02 --bisect 0.1:0.2 --resolution 0.005``."""

    name = "boundary"
    scenario = "perturbed.yaml"
    trace_studies = 6
    grid = (0.10, 0.20, 0.02)
    bracket = (0.1, 0.2)
    resolution = 0.005

    def ops(self, cfg) -> list[Op]:
        def grid_point(value: float):
            spec = dataclasses.replace(cfg.vot_spec, residual_gain=value)
            traj = engine.run_closed_loop(
                dataclasses.replace(cfg, controller_kind="vot", vot_spec=spec)
            )
            return traj, analysis.classify_trajectory(traj, spec.queue_gain, value)

        def search(model: str):
            return analysis.find_phase_boundary(
                cfg, *self.bracket, resolution=self.resolution, model=model
            )

        ops = [
            Op(f"grid:{fmt(v)}", cfg.n_steps, functools.partial(grid_point, v))
            for v in grid_values(*self.grid)
        ]
        # the reduced model integrates round(horizon / dt) steps, as many as the closed loop
        search_steps = search_runs(*self.bracket, self.resolution) * cfg.n_steps
        ops += [Op(model, search_steps, functools.partial(search, model))
                for model in ("closed", "approx")]
        return ops

    def op_text(self, key, result) -> str:
        if key.startswith("grid:"):
            traj, _ = result
            return render_csv(traj)
        return fmt(result)

    def finish(self, cfg, results) -> str:
        # sweep.csv
        lines = ["k2,pattern,ratio_estimate,fit_r2_gaussian,fit_r2_exponential"]
        for value, (_, report) in zip(grid_values(*self.grid), results):
            lines.append(",".join((
                fmt(value), report.pattern, fmt(report.ratio_estimate),
                fmt(report.fit_r2_gaussian), fmt(report.fit_r2_exponential),
            )))
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (Replicate(), Controllers(), Boundary())}


class Expected:
    """Expected output digests of one workload at one seed.

    ``expected.json`` maps, per workload, op keys and seeds to digests
    recorded with ``record.py``; ``"*"`` stands for every seed.  For a seed
    outside the recorded range the first study's outputs become the
    reference for the later ones, so the run still checks that they repeat.
    """

    def __init__(self, table: dict, workload: Workload, seed: int) -> None:
        self.ops = dict(table[workload.name]["op"])
        studies = table[workload.name]["study"]
        self.study = studies.get(str(seed), studies.get("*"))
        self.recorded = self.study is not None

    def check_op(self, key: str, text: str) -> bool:
        found = digest(text)
        return self.ops.setdefault(key, found) == found

    def check_study(self, text: str) -> bool:
        found = digest(text)
        if self.study is None:
            self.study = found
        return self.study == found
