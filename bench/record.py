"""Record the expected output digests of every workload into ``expected.json``.

Run from the root of a checkout whose outputs are the reference::

    python3 bench/record.py

``replicate`` outputs depend on the seed: each replication is recorded by
its own seed and each study by its base seed, for base seeds 0 to
``MAX_SEED``.  ``controllers`` and ``boundary`` use constant demand and no
noise, so their outputs are the same at every seed; they are recorded once
under ``"*"`` after checking that two seeds agree.  The script stops if a
recorded digest disagrees with a golden one.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MAX_SEED = 1023

sys.path.insert(0, str(ROOT / "src"))
from workloads import GOLDEN, GOLDEN_BOUNDARIES, WORKLOADS, digest  # noqa: E402


def record_replicate() -> dict:
    workload = WORKLOADS["replicate"]
    cfg = workload.load(ROOT, 0)
    ops, summaries = {}, {}
    for seed in range(MAX_SEED + cfg.replications):
        op = workload.ops(dataclasses.replace(cfg, seed=seed))[0]  # replication 0
        result = op.call()
        ops[op.key] = digest(workload.op_text(op.key, result))
        summaries[seed] = result[1]
    studies = {}
    for base in range(MAX_SEED + 1):
        results = [(None, summaries[base + rep]) for rep in range(cfg.replications)]
        studies[str(base)] = digest(workload.finish(workload.load(ROOT, base), results))
    return {"op": ops, "study": studies}


def record_constant(name: str) -> dict:
    workload = WORKLOADS[name]
    recorded = []
    for seed in (None, 1):
        cfg = workload.load(ROOT, seed)
        ops = workload.ops(cfg)
        results = [op.call() for op in ops]
        recorded.append({
            "op": {op.key: digest(workload.op_text(op.key, r)) for op, r in zip(ops, results)},
            "study": {"*": digest(workload.finish(cfg, results))},
        })
    if recorded[0] != recorded[1]:
        raise SystemExit(f"{name}: outputs depend on the seed; record them per seed")
    return recorded[0]


def main() -> None:
    table = {
        "replicate": record_replicate(),
        "controllers": record_constant("controllers"),
        "boundary": record_constant("boundary"),
    }
    for (name, kind, key), value in GOLDEN.items():
        if table[name][kind][key] != value:
            raise SystemExit(f"{name} {kind} {key}: {table[name][kind][key]} != golden {value}")
    for key, value in GOLDEN_BOUNDARIES.items():
        if table["boundary"]["op"][key] != digest(value):
            raise SystemExit(f"boundary {key} differs from the golden value {value}")
    (BENCH / "expected.json").write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
