"""In-memory span recording around calls into the program's modules.

The traced run replaces module attributes (and controller methods) with
wrappers that record one span per call: name, start, end, parent span and
the study it belongs to.  Spans live in flat arrays until the run ends and
are then written to a gzip CSV file.  A span's *self time* is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterable


class Tracer:
    """Records nested spans of one thread; span ids are indexes into the arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.study = array("l")
        self.start = array("q")
        self.end = array("q")
        self.sizes: dict[tuple[str, int], int] = {}  # (name, study) -> summed result size
        self.study_id = 0
        self._open = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open)
        self.study.append(self.study_id)
        self.end.append(0)
        self._open = span
        self.start.append(perf_counter_ns())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = perf_counter_ns()
        self._open = self.parent[span]

    @contextmanager
    def span(self, name: str):
        span = self.begin(self._intern(name))
        try:
            yield
        finally:
            self.finish(span)

    def wrap(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``size(result)`` is summed per study."""
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if size is not None:
                key = (name, self.study_id)
                self.sizes[key] = self.sizes.get(key, 0) + size(result)
            return result

        return traced

    def per_study(self) -> dict[tuple[str, int], tuple[int, int]]:
        """(name, study) -> (calls, summed self time in ns)."""
        totals: dict[tuple[str, int], tuple[int, int]] = {}
        for span, own in enumerate(self_times(self.start, self.end, self.parent)):
            key = (self.names[self.name[span]], self.study[span])
            calls, ns = totals.get(key, (0, 0))
            totals[key] = (calls + 1, ns + own)
        return totals

    def write(self, path: Path, context: dict) -> None:
        """Write every span as CSV, after one comment line holding ``context``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as out:
            out.write("# " + json.dumps(context, sort_keys=True) + "\n")
            out.write("span,parent,study,name,start_ns,end_ns\n")
            names = self.names
            for span in range(len(self.start)):
                out.write(
                    f"{span},{self.parent[span]},{self.study[span]},"
                    f"{names[self.name[span]]},{self.start[span]},{self.end[span]}\n"
                )


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the union of its children's intervals.

    A child's interval is clipped to its parent's.  Children may overlap
    each other; covered time is counted once.
    """
    covered = [0] * len(start)
    reach: dict[int, int] = {}  # parent -> end of the union of its children so far
    for span in sorted(range(len(start)), key=start.__getitem__):
        up = parent[span]
        if up < 0:
            continue
        lo = max(start[span], start[up], reach.get(up, start[up]))
        hi = min(end[span], end[up])
        if hi > lo:
            covered[up] += hi - lo
            reach[up] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


@contextmanager
def patched(tracer: Tracer, targets: Iterable[tuple]):
    """Replace each ``(owner, attribute, span name[, size])`` with a traced wrapper."""
    saved = []
    try:
        for owner, attr, name, *size in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, *size))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_targets() -> list[tuple]:
    """The public functions of each hotsim module the traced run times."""
    from hotsim import analysis, choice, cli, config, engine, pricing, traffic

    controllers = {
        "vot": pricing.VotFeedbackController,
        "integral": pricing.IntegralTollController,
        "selflearning": pricing.SelfLearningController,
    }
    targets = [
        (config, "load_config", "config.load_config"),
        (engine, "run_closed_loop", "engine.run_closed_loop"),
        (engine, "demand_at", "engine.demand_at"),
        (engine, "summarize", "engine.summarize"),
        (traffic, "queuing_times", "traffic.queuing_times"),
        (traffic, "throughputs", "traffic.throughputs"),
        (traffic, "step_point_queues", "traffic.step_point_queues"),
        (choice, "sample_eta", "choice.sample_eta"),
        (choice, "paying_demand", "choice.paying_demand"),
    ]
    for kind, cls in controllers.items():
        targets += [(cls, method, f"pricing.{kind}.{method}") for method in ("quote", "observe")]
    targets += [
        # analysis imports run_closed_loop by name: its runs are traced separately
        (analysis, "run_closed_loop", "analysis.run_closed_loop"),
        (analysis, "classify_convergence", "analysis.classify_convergence"),
        (analysis, "run_approximate", "analysis.run_approximate"),
        (analysis, "find_phase_boundary", "analysis.find_phase_boundary"),
        (cli, "trajectory_csv", "cli.trajectory_csv", len),
    ]
    return targets


def layer_metrics(tracer: Tracer, targets: list[tuple], scales: dict[int, float]) -> dict:
    """``<name>.calls`` and ``<name>.self_ms`` per study, median over the studies.

    ``scales`` maps each study id to the factor that brings its times to the
    reference speed.  ``<name>.bytes`` is added for targets that sum a result
    size.
    """
    totals = tracer.per_study()
    studies = [s for s in scales if s != 0]
    metrics = {}
    for _, _, name, *size in targets:
        # config is loaded once, in the set-up pseudo-study 0
        over = [0] if name == "config.load_config" else studies
        calls = [totals.get((name, s), (0, 0))[0] for s in over]
        self_ns = [totals.get((name, s), (0, 0))[1] * scales[s] for s in over]
        metrics[f"{name}.calls"] = (statistics.median(calls), "count")
        metrics[f"{name}.self_ms"] = (statistics.median(self_ns) / 1e6, "ms")
        if size:
            sizes = [tracer.sizes.get((name, s), 0) for s in over]
            metrics[f"{name}.bytes"] = (statistics.median(sizes), "bytes")
    return metrics
