"""Scenarios drawn from the leaves of ``config.SCHEMA``, each leaf given an
edge value, end every command in a result or in an error with its own exit
code: never in an escaped exception, never in a non-finite number outside
the CSV columns README documents as holding ``nan``, and never in more than
one short error line."""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hotsim.cli import main
from hotsim.config import SCHEMA, ScenarioConfig, config_from_mapping
from hotsim.errors import ConfigError


def _leaves(table=SCHEMA, path=()):
    for key, entry in table.items():
        yield from _leaves(entry, (*path, key)) if isinstance(entry, dict) else ((*path, key),)


LEAVES = list(_leaves())
KINDS = ("constant", "poisson", "timeseries", "none", "uniform", "vot", "integral",
         "selflearning")
# a list that holds itself, one row listed twice, and six levels of one list
# listed seven times: yaml.safe_dump writes each with anchors and aliases, so
# the scenario reader meets its alias path
SELF_LIST, ROW, SHARED = [], [0, 10, 60], 0
SELF_LIST.append(SELF_LIST)
for _ in range(6):
    SHARED = [SHARED] * 7
# edge values, a few plain ones so that some scenarios run, and the valid kinds;
# no number here sets a horizon past 1200 steps or more than 3 replications
# (test_pool_keeps_every_run_small), so an example stays cheap
POOL = (
    sys.float_info.max, -sys.float_info.max, sys.float_info.min, 5e-324, -5e-324,
    math.nan, math.inf, -math.inf, 0.0, -0.0, 0, 1, 2, 3, 0.5, 10.0, 20.0,
    True, False, None, "", "x", "1/60", "1/0",
    10**400, -10**400, 2**64 + 1,
    [], [0.5], [1.0, 2.0, 0.5], [[0, 10, 60]], [[0, 10, 60], [5, 12, 55]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]], SELF_LIST, [ROW, ROW], SHARED,
    *KINDS,
)
COMMANDS = (["simulate"], ["compare"], ["sweep", "--values", "0.1,0.2"], ["analytic"],
            ["approx"])
EXIT_CODES = (0, 2, 3, 4, 5, 6)
# bytes the one stderr line of a failed command stays under; the longest seen
# (385 in 1500 examples) shows the shared list two levels deep for a matrix key
MAX_ERROR_BYTES = 400
# the CSV columns that may hold nan on exit 0, by file (README, "Output files")
NAN_COLUMNS = {"trajectory": {"pi"}, "approx.csv": {"ratio"}, "sweep.csv": {"ratio_estimate"}}


@st.composite
def _schema_scenarios(draw):
    """A mapping that gives one to four ``SCHEMA`` leaves a value of ``POOL``."""
    mapping = {}
    for *sections, key in draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=4,
                                        unique=True)):
        node = mapping
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = draw(st.sampled_from(POOL))
    return mapping


def _outputs(mapping: dict, argv: list) -> tuple[int, str, dict[str, str]]:
    """``main(argv)`` on ``mapping`` under ``--out``, warnings as errors: its
    exit code, its stderr and each file it wrote, name to text."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp) / "scenario.yaml", Path(tmp) / "out", io.StringIO()
        path.write_text(yaml.safe_dump(mapping))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", str(path), "--out", str(out)])
        files = {p.name: p.read_text() for p in out.iterdir()} if out.exists() else {}
        return code, err.getvalue(), files


def _finite_float(text: str) -> float:
    value = float(text)
    assert math.isfinite(value), text
    return value


def _no_constant(text: str):
    raise AssertionError(f"JSON holds {text}")


def _check_numbers(name: str, text: str) -> None:
    """Every number of file ``name`` is finite, or nan in one of its ``NAN_COLUMNS``."""
    if name.endswith(".json"):
        json.loads(text, parse_float=_finite_float, parse_constant=_no_constant)
        return
    nan_columns = NAN_COLUMNS.get("trajectory" if name.startswith("trajectory") else name, ())
    header, *rows = text.splitlines()
    for row in rows:
        for column, cell in zip(header.split(","), row.split(",")):
            if column == "pattern":  # sweep.csv's one label column
                continue
            value = float(cell)
            assert math.isfinite(value) or (math.isnan(value) and column in nan_columns), \
                (name, column, cell)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_schema_scenarios())
def test_schema_scenario_ends_in_a_result_or_its_exit_code(mapping):
    for argv in COMMANDS:
        code, err, files = _outputs(mapping, argv)
        assert code in EXIT_CODES, (argv, code)
        if code == 0:
            assert files and not err, (argv, err)
            for name, text in files.items():
                _check_numbers(name, text)
        else:  # one line, cut short however long the value it shows
            assert err.startswith("error: ") and err.index("\n") == len(err) - 1, err
            assert len(err.encode()) < MAX_ERROR_BYTES, (argv, err)


def test_pool_keeps_every_run_small():
    # every (horizon, dt) pair of the pool that parses is at most the default
    # 1200 steps, and every replication count at most 3
    steps, replications = [], []
    for horizon in POOL:
        for dt in POOL:
            with contextlib.suppress(ConfigError):
                steps.append(config_from_mapping({"run": {"horizon": horizon, "dt": dt}}).n_steps)
        with contextlib.suppress(ConfigError):
            replications.append(config_from_mapping({"run": {"replications": horizon}})
                                .replications)
    assert max(steps) == ScenarioConfig().n_steps == 1200
    assert max(replications) == 3
