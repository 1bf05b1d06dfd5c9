"""Set-up timing: fresh interpreters that import ``hotsim.cli`` and load a scenario.

Every sample is scaled to the reference speed with the probe of ``speed``,
run in this process just before and just after the sample.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import hotsim.cli; "
    "hotsim.config.load_config({scenario!r})"
)


def _command(root: Path, scenario: str, importtime: bool) -> list[str]:
    code = SETUP_CODE.format(src=str(root / "src"), scenario=str(root / "scenarios" / scenario))
    return [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]


def _run(command: list[str], root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=60, check=True
    )


def setup_seconds(root: Path, scenario: str, samples: int) -> list[float]:
    """Wall time of each fresh-interpreter set-up, interpreter start included.

    One untimed run first, so that byte-code caches are written before any
    sample is taken.
    """
    command = _command(root, scenario, importtime=False)
    _run(command, root)
    times, before = [], speed.probe()
    for _ in range(samples):
        start = time.perf_counter()
        _run(command, root)
        elapsed = time.perf_counter() - start
        after = speed.probe()
        times.append(elapsed * speed.factor(before, after))
        before = after
    return times


def split_importtime(stderr: str) -> tuple[float, float]:
    """(numpy, hotsim without numpy) import time in ms from ``-X importtime``.

    numpy is the cumulative time of its own line; hotsim is the cumulative
    time of the top-level ``hotsim*`` lines minus numpy's.
    """
    numpy_us = hotsim_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1])
        name = fields[2].rstrip()
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = cumulative
        elif name.startswith(" hotsim"):  # one space: imported at top level
            hotsim_us += cumulative
    return numpy_us / 1e3, (hotsim_us - numpy_us) / 1e3


def import_split_ms(root: Path, scenario: str, samples: int) -> tuple[float, float]:
    """Median (numpy, hotsim) import times over ``samples`` fresh interpreters."""
    command = _command(root, scenario, importtime=True)
    _run(command, root)
    numpy_ms, hotsim_ms, before = [], [], speed.probe()
    for _ in range(samples):
        numpy_part, hotsim_part = split_importtime(_run(command, root).stderr)
        after = speed.probe()
        numpy_ms.append(numpy_part * speed.factor(before, after))
        hotsim_ms.append(hotsim_part * speed.factor(before, after))
        before = after
    return statistics.median(numpy_ms), statistics.median(hotsim_ms)
