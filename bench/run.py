"""hotsim benchmark: timed studies of one workload, checked against recorded outputs.

Run from the root of a checkout::

    python3 bench/run.py --workload replicate --seed 1000 --seconds 20 --trace 0

One process and one thread, pinned to one CPU, drive a closed loop: each op
starts when the previous one has returned.  Times are scaled to a reference
machine speed with the probe in ``speed.py``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run and
writes its spans to
``bench/out/trace-<workload>.csv.gz``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5
MIN_OPS = 100  # at least ten op latencies lie beyond p90


def checkout_problem(root: Path) -> str | None:
    """Why ``root`` cannot be benchmarked, or None."""
    if not (root / "src" / "hotsim" / "__init__.py").is_file():
        return f"no hotsim sources under {root / 'src'}"
    if not (root / "scenarios").is_dir():
        return f"no scenarios directory under {root}"
    return None


def context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    sources = sorted((ROOT / "src" / "hotsim").glob("*.py"))
    source_sha = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "source_sha256": source_sha, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


class StudyRunner:
    """Runs studies of one workload and checks every op's output."""

    def __init__(self, workload, cfg, expected) -> None:
        self.workload = workload
        self.cfg = cfg
        self.expected = expected
        # times are scaled to the reference speed (see speed.py)
        self.latencies: list[float] = []  # seconds, one per op
        self.study_times: list[float] = []
        self.scales: list[float] = []  # median factor of each study
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self._reported = False

    def _report(self, message: str) -> None:
        if not self._reported:  # the first failure is enough to act on
            print(message, file=sys.stderr)
            self._reported = True

    def study(self, tracer=None) -> float:
        """Run one study; return its time in seconds at the reference speed.

        That is the sum of its scaled op latencies and the scaled time to
        build its output.  The probe runs between ops, outside the timer.
        """
        ops = self.workload.ops(self.cfg)
        results, raised, factors = [], [], []
        before = speed.probe()
        for op in ops:
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.span("bench.op"):
                        result = op.call()
            except Exception:  # an op that raises counts as failed
                self._report(traceback.format_exc())
                result = None
                raised.append(op.key)
            elapsed = time.perf_counter() - start
            after = speed.probe()
            factors.append(speed.factor(before, after))
            self.latencies.append(elapsed * factors[-1])
            results.append(result)
            before = after
        output = None
        start = time.perf_counter()
        if not raised:
            try:
                output = self.workload.finish(self.cfg, results)
            except Exception:  # so does the study if its output cannot be built
                self._report(traceback.format_exc())
        elapsed = (time.perf_counter() - start) * factors[-1] + sum(self.latencies[-len(ops):])

        self.study_times.append(elapsed)
        self.scales.append(statistics.median(factors))
        self.steps += sum(op.steps for op in ops)
        self.attempted += len(ops)
        if output is None or not self.expected.check_study(output):
            self._report(f"{self.workload.name}: study output differs from the expected one")
            self.failed += len(ops)
        else:
            for op, result in zip(ops, results):
                if not self.expected.check_op(op.key, self.workload.op_text(op.key, result)):
                    self._report(f"{self.workload.name}: op {op.key} output differs")
                    self.failed += 1
        return elapsed


def end_to_end(runner: StudyRunner, root: Path, workload, seconds: float) -> dict:
    """The timed phase: whole studies for ``seconds`` and at least MIN_OPS ops."""
    from startup import setup_seconds

    setup = setup_seconds(root, workload.scenario, SETUP_SAMPLES)
    runner.study()  # warm-up: checked, but not timed
    runner.latencies.clear()
    runner.study_times.clear()
    runner.scales.clear()
    runner.steps = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runner.latencies) < MIN_OPS:
        runner.study()
    latencies_ms = [t * 1e3 for t in runner.latencies]
    probe_ms = statistics.median(speed.REFERENCE_S * 1e3 / f for f in runner.scales)
    print(f"timed {len(latencies_ms)} ops in {len(runner.study_times)} studies; "
          f"{SETUP_SAMPLES} set-up samples; speed probe median {probe_ms:.2f} ms "
          f"(reference {speed.REFERENCE_S * 1e3:g} ms)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "steps_per_s": (runner.steps / sum(runner.study_times), "1/s"),
        "study_s": (statistics.median(runner.study_times), "s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(latencies_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def traced(runner: StudyRunner, root: Path, workload, info: dict) -> dict:
    """A fixed number of untraced, then traced studies; per-layer metrics."""
    from hotsim import config
    from startup import import_split_ms
    from spans import Tracer, layer_metrics, layer_targets, patched

    numpy_ms, hotsim_ms = import_split_ms(root, workload.scenario, IMPORTTIME_SAMPLES)
    tracer = Tracer()
    targets = layer_targets()
    runner.study()  # warm-up
    plain = [runner.study() for _ in range(workload.trace_studies)]
    with patched(tracer, targets):
        before = speed.probe()
        config.load_config(root / "scenarios" / workload.scenario)  # pseudo-study 0
        scales = {0: speed.factor(before, speed.probe())}
        timed = []
        for study_id in range(1, workload.trace_studies + 1):
            tracer.study_id = study_id
            with tracer.span("bench.study"):
                timed.append(runner.study(tracer))
            scales[study_id] = runner.scales[-1]
    tracer.write(OUT / f"trace-{workload.name}.csv.gz", info)
    metrics = {
        "setup.import_numpy_ms": (numpy_ms, "ms"),
        "setup.import_hotsim_ms": (hotsim_ms, "ms"),
    }
    metrics.update(layer_metrics(tracer, targets, scales))
    metrics["trace.overhead_ratio"] = (statistics.median(timed) / statistics.median(plain), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replicate", "controllers", "boundary"))
    parser.add_argument("--seed", type=int,
                        help="base seed, given to the program as run.seed "
                             "(default: the scenario file's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase; a traced run does a "
                             "fixed number of studies instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)

    problem = checkout_problem(ROOT)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # The probe, the studies and the set-up processes share one CPU, so that
    # the probe measures the speed the timed work actually ran at.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scenario = ROOT / "scenarios" / workload.scenario
    if workloads.scenario_sha256(scenario) != workloads.SCENARIO_SHA256[workload.scenario]:
        print(f"error: {scenario} differs from the scenario the benchmark pins", file=sys.stderr)
        return 2
    cfg = workload.load(ROOT, args.seed)
    expected = workloads.Expected(
        json.loads((BENCH / "expected.json").read_text()), workload, cfg.seed
    )
    if not expected.recorded:
        print(f"note: no outputs recorded for seed {cfg.seed}; checking that "
              "studies repeat the first one", file=sys.stderr)
    info = context(workload.name, cfg.seed, args.seconds, bool(args.trace))
    print("context " + json.dumps(info, sort_keys=True))

    runner = StudyRunner(workload, cfg, expected)
    if args.trace:
        metrics = traced(runner, ROOT, workload, info)
    else:
        metrics = end_to_end(runner, ROOT, workload, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
