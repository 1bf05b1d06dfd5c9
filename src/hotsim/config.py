"""Scenario configuration: schema, defaults, and YAML parsing.

A scenario file is a flat YAML document with one section per concern.  Every
key is optional; omitted keys fall back to the defaults below, which
reproduce the reference corridor (two lane groups of 30 veh/min capacity,
constant demand of 10 HOV and 60 SOV veh/min, true VOT 0.5 $/min, logit
scale 1, 20-minute horizon at 1/60-minute steps).  Unknown keys are
rejected with their dotted path.

::

    run:        {horizon: 20.0, dt: 1/60, seed: 0, replications: 1}
    capacities: {hot: 30.0, gp: 30.0}
    demand:     {kind: constant|poisson|timeseries, hov: 10.0, sov: 60.0,
                 samples: [[t, hov, sov], ...]}
    behavior:   {vot: 0.5, scale: 1.0}
    noise:      {kind: none|uniform, half_width: 0.0}
    initial:    {hot_queue: 0.0, gp_queue: 0.0}
    controller:
      kind: vot|integral|selflearning
      vot:          {queue_gain: 0.1, residual_gain: 0.1,
                     scale_guess: 1.0, initial_vot: 0.25}
      integral:     {gain: 0.01, initial_price: 0.6931..., target_demand: null}
      selflearning: {initial_theta: [0.25, 1.0, 0.1], initial_cov: 0.1,
                     measurement_var: 0.09, process_noise: 1.0e-6}
    approx:     {zeta0: null}

``dt`` accepts a float or a fraction string like ``"1/60"``.  A key that
its section's kind does not read (``samples`` for constant or Poisson
demand, ``hov`` and ``sov`` for timeseries, ``half_width`` for noise
``none``) is an error unless it holds its default, which is stored:
``DemandProfile`` and ``NoiseSpec`` own that rule, ``errors.require_unread``.
``engine.UNREAD_DEMAND_KEYS`` is the one table of the demand keys; the
parser reads it to reject such a key given in a file, even at its default
and before the owner's rules read the section, and ``to_mapping`` to leave
it out.  Noise has no such parser rule: ``to_mapping`` keeps
``noise.half_width`` under ``none``, as every fingerprint holds it, and a
mapping must parse back.  ``approx.zeta0`` seeds the reduced model; when
null, ``analysis.approx_initial_zeta`` derives it from the closed-loop
state at t = 0.

The parser reads only the YAML structure and ``dt``'s fraction string, and
passes every other value on as YAML gives it; a scalar that PyYAML cannot
construct (a date past its month's end, an integer of more than 4300
digits) makes the file malformed.  A malformed file is one error line:
PyYAML's problem with its line and column, not its echoed source.
Exponent floats such as ``1e6`` or ``2.5e-3`` read as numbers, although
YAML 1.1 (and so plain PyYAML) reads them as strings.  The controller
sections are the specs of ``pricing``: their keys are read off the spec
fields, each spec builds its controller from its fields by name, and each
controller's value rules live there.

A ``ScenarioConfig`` checks itself when it is built, by the parser or in
code, ``dataclasses.replace`` included, so no scenario exists unchecked:
each section object checks its own values, and the config its own keys and
the rules across sections, by the rules of ``errors``, so a bad value gives
one message from code and, after its section, from a file.  Each owner
stores the number it checked as a float and an array as nested tuples of
floats, so a file and code that give equal numbers give one config.  What
the rules derive is kept as plain attributes set then: ``n_steps``, the
count ``errors.require_steps`` returns with the horizon and dt it checked,
and ``controller``, the selected ``<kind>_spec``.  Demand outside the
congested regime parses: ``choice.clearing_log_odds`` owns that rule.
"""

from __future__ import annotations

import dataclasses
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .choice import BehaviorParams, NoiseSpec
from .engine import UNREAD_DEMAND_KEYS, DemandProfile, check_seeds
# MAX_STEPS, the step rule's cap, stays importable from config
from .errors import (MAX_STEPS, ConfigError, brief_repr, require_finite, require_kind,
                     require_steps)
from .pricing import IntegralTollSpec, SelfLearningSpec, VotControllerSpec
from .traffic import Capacities

CONTROLLER_KINDS = ("vot", "integral", "selflearning")


class _ScenarioLoader(yaml.SafeLoader):
    """Safe YAML loader that also reads exponent floats without a dot or an
    exponent sign (``1e6``, ``2e1``, ``1.5e3``) as floats, and rejects a key
    given twice in one mapping rather than keep its last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:  # each scalar key, the merge key << aside
            if key_node.id == "scalar" and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation scenario, checked when built;
    ``n_steps`` and ``controller``, set then, are plain attributes, not fields."""

    capacities: Capacities = Capacities(30.0, 30.0)
    horizon: float = 20.0
    dt: float = 1.0 / 60.0
    demand: DemandProfile = DemandProfile()
    behavior: BehaviorParams = BehaviorParams(0.5, 1.0)
    noise: NoiseSpec = NoiseSpec()
    controller_kind: str = "vot"
    vot_spec: VotControllerSpec = VotControllerSpec()
    integral_spec: IntegralTollSpec = IntegralTollSpec()
    selflearning_spec: SelfLearningSpec = SelfLearningSpec()
    initial_hot_queue: float = 0.0
    initial_gp_queue: float = 0.0
    seed: int = 0
    replications: int = 1
    approx_zeta0: float | None = None

    def __post_init__(self) -> None:
        # the rules no section object owns; the ConfigError names the key
        require_kind("controller.kind", self.controller_kind, CONTROLLER_KINDS, ConfigError)
        # the step count and grid as floats; replication i runs at seed + i, as ints
        checked = (require_steps(self.horizon, self.dt, "run", ConfigError)
                   + check_seeds(self.seed, self.replications))
        for key, value in zip(("n_steps", "horizon", "dt", "seed", "replications"), checked):
            object.__setattr__(self, key, value)
        object.__setattr__(self, "controller", getattr(self, f"{self.controller_kind}_spec"))
        if self.replications < 1:
            raise ConfigError("run.replications must be at least 1")
        for key in ("hot_queue", "gp_queue"):
            queue = require_finite(f"initial.{key}", getattr(self, f"initial_{key}"), ConfigError)
            object.__setattr__(self, f"initial_{key}", queue)
            if queue < 0:
                raise ConfigError(f"initial.{key} cannot be negative")
        if self.approx_zeta0 is not None:
            zeta0 = require_finite("approx.zeta0", self.approx_zeta0, ConfigError)
            object.__setattr__(self, "approx_zeta0", zeta0)

    def to_mapping(self) -> dict:
        """Canonical plain-data form, used for fingerprints: every ``SCHEMA``
        key but the demand keys the demand kind does not read, each value as
        its owner stores it."""
        def walk(table: dict) -> dict:
            return {
                key: walk(entry) if isinstance(entry, dict)
                else operator.attrgetter(entry)(self)
                for key, entry in table.items()
            }

        mapping = walk(SCHEMA)
        for key in UNREAD_DEMAND_KEYS[self.demand.kind]:
            del mapping["demand"][key]
        return mapping


def config_fingerprint(config: ScenarioConfig) -> str:
    """First 16 hex digits of the sha256 of ``config.to_mapping()`` and its seed."""
    import hashlib
    import json

    payload = json.dumps([config.to_mapping(), config.seed], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _step(value, where: str):
    """A fraction string like ``"1/60"`` as a float; any other value as it
    is, for its owner to check."""
    if not isinstance(value, str):
        return value
    num, _, den = value.partition("/")
    try:
        return float(num) / float(den) if den else float(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: cannot parse {brief_repr(value)} as a step size") from None


def _controller_keys(kind: str) -> dict:
    """The keys of section ``controller.<kind>``: the fields of the default
    ``<kind>_spec``, in order."""
    spec = getattr(ScenarioConfig, f"{kind}_spec")
    return {field.name: f"{kind}_spec.{field.name}" for field in dataclasses.fields(spec)}


# YAML section -> key -> ScenarioConfig attribute path; a nested table is a
# subsection.  Parsing and to_mapping walk this one table; the owner's
# message begins with the key, and the parser adds the section.
SCHEMA = {
    "run": {"horizon": "horizon", "dt": "dt", "seed": "seed", "replications": "replications"},
    "capacities": {"hot": "capacities.hot", "gp": "capacities.gp"},
    "demand": {
        "kind": "demand.kind",
        "hov": "demand.mean_hov",
        "sov": "demand.mean_sov",
        "samples": "demand.samples",
    },
    "behavior": {"vot": "behavior.vot", "scale": "behavior.scale"},
    "noise": {"kind": "noise.kind", "half_width": "noise.half_width"},
    "initial": {"hot_queue": "initial_hot_queue", "gp_queue": "initial_gp_queue"},
    "controller": {
        "kind": "controller_kind",
        **{kind: _controller_keys(kind) for kind in CONTROLLER_KINDS},
    },
    "approx": {"zeta0": "approx_zeta0"},
}


def _leaves(node, table: dict, path: str):
    """``(dotted key, attribute path, value)`` per key given, ``run.dt``'s
    fraction string read at its leaf so that its error keeps its place."""
    if node is None:  # an empty section
        return
    if not isinstance(node, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(node).__name__}")
    for key, value in node.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in table:
            raise ConfigError(f"unknown key {where}")
        if isinstance(table[key], dict):
            yield from _leaves(value, table[key], where)
        else:
            yield where, table[key], _step(value, where) if where == "run.dt" else value


def config_from_mapping(root: dict) -> ScenarioConfig:
    """Validate a plain mapping and build the scenario it describes."""
    default, parts = ScenarioConfig(), {}  # parts: attribute ("" for its own) -> section, fields
    for where, attr, value in _leaves(root, SCHEMA, ""):
        part, _, name = attr.rpartition(".")
        parts.setdefault(part, (where.rpartition(".")[0], {}))[1][name] = value
    fields = parts.pop("", ("", {}))[1]
    for part, (section, values) in parts.items():
        kind = values.get("kind", default.demand.kind) if part == "demand" else None
        if isinstance(kind, str) and kind in UNREAD_DEMAND_KEYS:  # else the owner's kind error
            # a key given, even at the default the owner takes, before the owner's
            # rules; demand only, as a none noise's half_width is in every fingerprint
            for key, name in UNREAD_DEMAND_KEYS[kind].items():
                if name in values:
                    raise ConfigError(f"demand.{key}: not read by {kind} demand")
        try:
            fields[part] = dataclasses.replace(getattr(default, part), **values)
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from None
    return dataclasses.replace(default, **fields)


def _one_line(exc: Exception) -> str:
    """The reader's error in one line: a marked YAML error as its context and
    problem, then its line and column, not PyYAML's echoed source and caret;
    a reader error as its first line and position; a ValueError as it is."""
    if isinstance(exc, yaml.MarkedYAMLError):
        mark = exc.problem_mark or exc.context_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        return ", ".join(filter(None, (exc.context, exc.problem))) + where
    if isinstance(exc, yaml.reader.ReaderError):
        return f"{str(exc).splitlines()[0]} at position {exc.position}"
    return str(exc)


def parse_config_text(text: str | bytes) -> ScenarioConfig:
    """Parse an inline YAML scenario document; bytes must be UTF-8, a byte
    order mark allowed, and any other bytes are a malformed document."""
    try:
        if isinstance(text, bytes):  # the YAML reader would also take UTF-16/32
            text.decode("utf-8")
        data = yaml.load(text, Loader=_ScenarioLoader)
    except (ValueError, yaml.YAMLError) as exc:  # a scalar no constructor takes, bad UTF-8
        raise ConfigError(f"malformed scenario file: {_one_line(exc)}")
    except RecursionError:  # the YAML reader recurses once per level of a nested list
        raise ConfigError("malformed scenario file: nested too deeply") from None
    return config_from_mapping(data if data is not None else {})


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file; missing file raises ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    return parse_config_text(path.read_bytes())
