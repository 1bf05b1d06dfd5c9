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

``dt`` accepts a float or a fraction string like ``"1/60"``.  A demand key
that the demand kind does not read (``samples`` for constant or Poisson
demand, ``hov`` and ``sov`` for timeseries) is an error.  ``approx.zeta0``
seeds the reduced model; when null, ``analysis.approx_initial_zeta`` derives
it from the closed-loop state at t = 0.

The parser reads only YAML types and leaves every value rule to the value's
owner: it reads a YAML integer as a float, as code gives a number, a list as
a tuple and ``dt``'s fraction string, and passes any other value as it is.
Exponent floats such as ``1e6`` or ``2.5e-3`` read as numbers, although YAML
1.1 (and so plain PyYAML) reads them as strings.  A run may take at most
``MAX_STEPS`` steps of ``dt`` to cover the horizon.  The controller sections
are the specs of ``pricing``, where each controller's value rules live (the
covariance rule, ``COV_EIG_TOL`` and the array shapes too).

A ``ScenarioConfig`` checks itself when it is built, by the parser or in
code, ``dataclasses.replace`` included: each section object checks its own
values, and the config its own keys and the rules across sections, so no
scenario exists unchecked.  Each owner calls ``errors.require_finite``, the
one rule of what a number is, before its range rule, so a value that is not
a finite number, a badly shaped array or a seed that is not an integer gives
one message from code and, after its section, from a file.  Demand outside
the congested regime parses: ``choice.clearing_log_odds`` owns that rule.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .choice import BehaviorParams, NoiseSpec
from .engine import DemandProfile, check_seeds
from .errors import ConfigError, brief_repr, require_finite, require_positive
from .pricing import IntegralTollSpec, SelfLearningSpec, VotControllerSpec
from .traffic import Capacities

CONTROLLER_KINDS = ("vot", "integral", "selflearning")

# largest horizon / dt accepted; each step keeps one row of floats in memory
MAX_STEPS = 1_000_000


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
    """Complete description of one simulation scenario, checked when built."""

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
        if self.controller_kind not in CONTROLLER_KINDS:
            raise ConfigError(f"controller.kind: expected one of {', '.join(CONTROLLER_KINDS)}, "
                              f"got {brief_repr(self.controller_kind)}")
        horizon, dt = self.horizon, self.dt
        require_positive("run.dt", dt, ConfigError)
        require_positive("run.horizon", horizon, ConfigError)
        n = horizon / dt
        if not n <= MAX_STEPS:
            raise ConfigError(
                f"run: horizon {horizon:g} / dt {dt:g} gives {n:.3g} steps, "
                f"more than the cap of {MAX_STEPS}"
            )
        if abs(n - round(n)) > 1e-6 * max(1.0, n) or round(n) < 1:
            raise ConfigError(
                f"run.dt: step size {dt:g} does not divide the horizon {horizon:g} evenly"
            )
        # replication i runs at seed + i; both are stored as Python ints
        seed, replications = check_seeds(self.seed, self.replications)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "replications", replications)
        if replications < 1:
            raise ConfigError("run.replications must be at least 1")
        for key in ("hot_queue", "gp_queue"):
            queue = getattr(self, f"initial_{key}")
            require_finite(f"initial.{key}", queue, ConfigError)
            if queue < 0:
                raise ConfigError(f"initial.{key} cannot be negative")
        if self.approx_zeta0 is not None:
            require_finite("approx.zeta0", self.approx_zeta0, ConfigError)

    @property
    def controller(self):
        """Spec of the selected pricing strategy: the ``<kind>_spec`` field."""
        return getattr(self, f"{self.controller_kind}_spec")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def to_mapping(self) -> dict:
        """Canonical plain-data form, used for fingerprints: every ``SCHEMA``
        key but the demand keys the demand kind does not read."""
        def walk(table: dict) -> dict:
            return {
                key: walk(entry) if isinstance(entry, dict)
                else _plain(operator.attrgetter(entry[0])(self), entry[1])
                for key, entry in table.items()
            }

        mapping = walk(SCHEMA)
        for key in _unread_demand_keys(self.demand.kind):
            del mapping["demand"][key]
        return mapping


def config_fingerprint(config: ScenarioConfig, seed: int) -> str:
    """First 16 hex digits of the sha256 of ``config.to_mapping()`` and ``seed``."""
    payload = json.dumps([config.to_mapping(), seed], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _plain(value, convert):
    """``value`` as plain data: a kind, an integer and None as they are, a
    number as a float and an array (numpy's too) as nested lists of floats,
    so equal configs have equal mappings."""
    if convert is None or value is None:
        return value
    try:
        return float(value)
    except TypeError:  # a sequence, numpy's arrays included
        return [_plain(entry, convert) for entry in value]


def _unread_demand_keys(kind: str) -> tuple[str, ...]:
    return ("hov", "sov") if kind == "timeseries" else ("samples",)


def _real(value, where: str):
    """A YAML integer as a float, as code gives a number; any other value as it
    is, for its owner to check (``where`` is unused: an owner names its key)."""
    try:
        return float(value) if type(value) is int else value
    except OverflowError:  # an integer beyond the float range: its owner rejects it
        return value


def _step(value, where: str) -> float:
    """A number, or a fraction string like ``"1/60"``."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        try:
            value = float(num) / float(den) if den else float(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"{where}: cannot parse {brief_repr(value)} as a step size") from None
    return _real(value, where)


def _array(value, where: str) -> float | tuple:
    """Nested lists as nested tuples, each entry read by ``_real``: no shape rule."""
    if isinstance(value, list):
        return tuple(_array(entry, where) for entry in value)
    return _real(value, where)


# YAML section -> key -> (ScenarioConfig attribute path, converter); a nested
# table is a subsection.  Parsing and to_mapping walk this one table.  A
# converter reads only the YAML type; a value passed as it is has converter
# None.  Every value rule, the number rule and each kind, shape and integer
# rule, lives in the object that owns the value; its message begins with the
# key, and the parser adds the section.
SCHEMA = {
    "run": {
        "horizon": ("horizon", _real),
        "dt": ("dt", _step),
        "seed": ("seed", None),
        "replications": ("replications", None),
    },
    "capacities": {"hot": ("capacities.hot", _real), "gp": ("capacities.gp", _real)},
    "demand": {
        "kind": ("demand.kind", None),
        "hov": ("demand.mean_hov", _real),
        "sov": ("demand.mean_sov", _real),
        "samples": ("demand.samples", _array),
    },
    "behavior": {"vot": ("behavior.vot", _real), "scale": ("behavior.scale", _real)},
    "noise": {"kind": ("noise.kind", None), "half_width": ("noise.half_width", _real)},
    "initial": {
        "hot_queue": ("initial_hot_queue", _real),
        "gp_queue": ("initial_gp_queue", _real),
    },
    "controller": {
        "kind": ("controller_kind", None),
        "vot": {
            "queue_gain": ("vot_spec.queue_gain", _real),
            "residual_gain": ("vot_spec.residual_gain", _real),
            "scale_guess": ("vot_spec.scale_guess", _real),
            "initial_vot": ("vot_spec.initial_vot", _real),
        },
        "integral": {
            "gain": ("integral_spec.gain", _real),
            "initial_price": ("integral_spec.initial_price", _real),
            "target_demand": ("integral_spec.target_demand", _real),
        },
        "selflearning": {
            "initial_theta": ("selflearning_spec.initial_theta", _array),
            "initial_cov": ("selflearning_spec.initial_cov", _array),
            "measurement_var": ("selflearning_spec.measurement_var", _real),
            "process_noise": ("selflearning_spec.process_noise", _array),
        },
    },
    "approx": {"zeta0": ("approx_zeta0", _real)},
}


def _leaves(node, table: dict, path: str):
    """``(dotted key, attribute path, converted value)`` per key given."""
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
            attr, convert = table[key]
            yield where, attr, value if convert is None else convert(value, where)


def config_from_mapping(root: dict) -> ScenarioConfig:
    """Validate a plain mapping and build the scenario it describes."""
    leaves, default = list(_leaves(root, SCHEMA, "")), ScenarioConfig()
    parts = {}  # ScenarioConfig attribute ("" for its own fields) -> section, fields given
    for where, attr, value in leaves:
        part, _, name = attr.rpartition(".")
        parts.setdefault(part, (where.rpartition(".")[0], {}))[1][name] = value
    fields = parts.pop("", ("", {}))[1]
    for part, (section, values) in parts.items():
        try:
            fields[part] = dataclasses.replace(getattr(default, part), **values)
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from None
    kind = fields.get("demand", default.demand).kind
    given = {where for where, _, _ in leaves}
    for key in _unread_demand_keys(kind):
        if f"demand.{key}" in given:
            raise ConfigError(f"demand.{key}: not read by {kind} demand")
    return dataclasses.replace(default, **fields)


def parse_config_text(text: str | bytes) -> ScenarioConfig:
    """Parse an inline YAML scenario document; bytes must be UTF-8, a byte
    order mark allowed, and any other bytes are a malformed document."""
    try:
        if isinstance(text, bytes):  # the YAML reader would also take UTF-16/32
            text.decode("utf-8")
        data = yaml.load(text, Loader=_ScenarioLoader)
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"malformed scenario file: {exc}")
    except RecursionError:  # the YAML reader recurses once per level of a nested list
        raise ConfigError("malformed scenario file: nested too deeply") from None
    return config_from_mapping(data if data is not None else {})


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file; missing file raises ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    return parse_config_text(path.read_bytes())
