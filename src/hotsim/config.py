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

``dt`` accepts a float or a fraction string like ``"1/60"``.  ``approx.zeta0``
seeds the reduced model; when null it is derived from the closed-loop state
at t = 0.

Every number must be finite; NaN and infinities are rejected with the dotted
path of their key.  Exponent floats such as ``1e6`` or ``2.5e-3`` read as
numbers, although YAML 1.1 (and so plain PyYAML) reads them as strings.  A
run may take at most ``MAX_STEPS`` steps of ``dt`` to cover the horizon.
``initial_cov`` and ``process_noise`` must be covariances: the symmetric part
``0.5 (C + C')`` of a matrix, or the scalar that scales the identity, may
have no eigenvalue below zero by more than ``COV_EIG_TOL`` times its largest
eigenvalue magnitude.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .choice import BehaviorParams, NoiseSpec, induced_residual_capacity
from .engine import DemandProfile
from .errors import ConfigError, ScenarioAssumptionError
from .pricing import (
    IntegralTollController,
    SelfLearningController,
    VotFeedbackController,
)
from .traffic import Capacities

CONTROLLER_KINDS = ("vot", "integral", "selflearning")

# largest horizon / dt accepted; each step keeps one row of floats in memory
MAX_STEPS = 1_000_000

# a covariance eigenvalue below -COV_EIG_TOL times the largest eigenvalue
# magnitude is negative beyond roundoff
COV_EIG_TOL = 1e-9


class _ScenarioLoader(yaml.SafeLoader):
    """Safe YAML loader that also reads exponent floats without a dot or an
    exponent sign (``1e6``, ``2e1``, ``1.5e3``) as floats."""


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


@dataclass(frozen=True)
class VotControllerSpec:
    """Gains and initial state of the VOT-estimating feedback controller."""

    queue_gain: float = 0.1
    residual_gain: float = 0.1
    scale_guess: float = 1.0
    initial_vot: float = 0.25

    def build(self, caps: Capacities) -> VotFeedbackController:
        return VotFeedbackController(
            caps.hot, self.queue_gain, self.residual_gain,
            self.scale_guess, self.initial_vot,
        )


@dataclass(frozen=True)
class IntegralTollSpec:
    """Gain and initial toll of the demand-tracking integral controller."""

    gain: float = 0.01
    initial_price: float = math.log(2.0)
    target_demand: float | None = None  # None: fill the HOT capacity

    def build(self, caps: Capacities) -> IntegralTollController:
        target = caps.hot if self.target_demand is None else self.target_demand
        return IntegralTollController(self.gain, self.initial_price, target)


@dataclass(frozen=True)
class SelfLearningSpec:
    """Initialization of the Kalman willingness-to-pay estimator."""

    initial_theta: tuple[float, float, float] = (0.25, 1.0, 0.1)
    initial_cov: float | tuple = 0.1          # scalar scales the identity
    measurement_var: float = 0.09
    process_noise: float | tuple = 1e-6       # scalar scales the identity

    def build(self, caps: Capacities) -> SelfLearningController:
        return SelfLearningController(
            caps.hot, self.initial_theta, self.initial_cov,
            self.measurement_var, self.process_noise,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, validated description of one simulation scenario."""

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

    @property
    def controller(self):
        """Spec of the selected pricing strategy."""
        return {
            "vot": self.vot_spec,
            "integral": self.integral_spec,
            "selflearning": self.selflearning_spec,
        }[self.controller_kind]

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def approx_initial_zeta(self) -> float:
        """Residual capacity seeding the reduced model.

        Explicit ``approx.zeta0`` wins; otherwise derived from the
        closed-loop quantities at t = 0 under the mean demand rates.
        """
        if self.approx_zeta0 is not None:
            return self.approx_zeta0
        caps = self.capacities
        w0 = self.initial_gp_queue / caps.gp - self.initial_hot_queue / caps.hot
        q1, q2 = self.demand.mean_hov, self.demand.mean_sov
        u0 = self.vot_spec.build(caps).price(w0, q1, q2)
        return induced_residual_capacity(caps.hot, q1, q2, u0, w0, 0.0, self.behavior)

    def to_mapping(self) -> dict:
        """Canonical plain-data form, used for fingerprints."""
        return {
            "run": {
                "horizon": self.horizon,
                "dt": self.dt,
                "seed": self.seed,
                "replications": self.replications,
            },
            "capacities": {"hot": self.capacities.hot, "gp": self.capacities.gp},
            "demand": (
                {
                    "kind": self.demand.kind,
                    "samples": [list(s) for s in self.demand.samples],
                }
                if self.demand.kind == "timeseries"
                else {
                    "kind": self.demand.kind,
                    "hov": self.demand.mean_hov,
                    "sov": self.demand.mean_sov,
                }
            ),
            "behavior": {"vot": self.behavior.vot, "scale": self.behavior.scale},
            "noise": {"kind": self.noise.kind, "half_width": self.noise.half_width},
            "initial": {
                "hot_queue": self.initial_hot_queue,
                "gp_queue": self.initial_gp_queue,
            },
            "controller": {
                "kind": self.controller_kind,
                "vot": _spec_dict(self.vot_spec),
                "integral": _spec_dict(self.integral_spec),
                "selflearning": _spec_dict(self.selflearning_spec),
            },
            "approx": {"zeta0": self.approx_zeta0},
        }


def _spec_dict(spec) -> dict:
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):  # a vector, or a matrix as a tuple of rows
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[f.name] = value
    return out


def _as_mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(section: dict, allowed: tuple, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")


def _real(value, where: str, expected: str = "a number") -> float:
    """``value`` as a finite float, or a ConfigError that names ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {number!r}")
    return number


def _optional_real(value, where: str) -> float | None:
    return None if value is None else _real(value, where, "a number or null")


def _number(section: dict, key: str, path: str, default):
    return _real(section.get(key, default), f"{path}.{key}")


def _integer(section: dict, key: str, path: str, default):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _choice_key(section: dict, key: str, path: str, default: str, allowed) -> str:
    value = section.get(key, default)
    if value not in allowed:
        raise ConfigError(
            f"{path}.{key}: expected one of {', '.join(allowed)}, got {value!r}"
        )
    return value


def _parse_dt(section: dict, path: str) -> float:
    value = section.get("dt", 1.0 / 60.0)
    if isinstance(value, str):
        parts = value.split("/")
        try:
            if len(parts) == 2:
                value = float(parts[0]) / float(parts[1])
            else:
                value = float(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{path}.dt: cannot parse {value!r} as a step size")
    return _real(value, f"{path}.dt", "a number or fraction string")


def _parse_demand(section: dict) -> DemandProfile:
    _reject_unknown(section, ("kind", "hov", "sov", "samples"), "demand")
    kind = _choice_key(section, "kind", "demand", "constant",
                       ("constant", "poisson", "timeseries"))
    if kind == "timeseries":
        if "samples" not in section:
            raise ConfigError("missing required key demand.samples for timeseries demand")
        raw = section["samples"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("demand.samples: expected a non-empty list of [t, hov, sov]")
        samples = []
        for i, row in enumerate(raw):
            where = f"demand.samples[{i}]"
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise ConfigError(f"{where}: expected [t, hov, sov] numbers")
            samples.append(tuple(_real(v, where, "[t, hov, sov] numbers") for v in row))
        if samples[0][0] > 0.0:
            raise ConfigError("demand.samples: first sample must start at t <= 0")
        try:
            return DemandProfile(kind=kind, samples=tuple(samples))
        except ValueError as exc:
            raise ConfigError(f"demand.samples: {exc}")
    if "samples" in section:
        raise ConfigError(f"demand.samples: only valid for timeseries demand, not {kind}")
    hov = _number(section, "hov", "demand", 10.0)
    sov = _number(section, "sov", "demand", 60.0)
    try:
        return DemandProfile(kind=kind, mean_hov=hov, mean_sov=sov)
    except ValueError as exc:
        raise ConfigError(f"demand: {exc}")


def _parse_covariance(section: dict, key: str, path: str, default):
    """A scalar (times the identity) or 3x3 matrix whose symmetric part is
    positive semidefinite, up to roundoff of its largest eigenvalue."""
    value = section.get(key, default)
    where, expected = f"{path}.{key}", "a number or 3x3 matrix"
    if (isinstance(value, list) and len(value) == 3
            and all(isinstance(r, list) and len(r) == 3 for r in value)):
        cov = tuple(tuple(_real(v, where, expected) for v in row) for row in value)
        mat = np.array(cov)
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    else:
        cov = _real(value, where, expected)
        eig = np.array([cov])
    if eig.min() < -COV_EIG_TOL * np.abs(eig).max():
        raise ConfigError(
            f"{where}: expected a covariance, whose symmetric part has no "
            f"negative eigenvalue; smallest eigenvalue is {eig.min():.6g}"
        )
    return cov


def _parse_controller(section: dict) -> dict:
    _reject_unknown(section, ("kind", "vot", "integral", "selflearning"), "controller")
    kind = _choice_key(section, "kind", "controller", "vot", CONTROLLER_KINDS)

    vot = _as_mapping(section.get("vot"), "controller.vot")
    _reject_unknown(vot, ("queue_gain", "residual_gain", "scale_guess", "initial_vot"),
                    "controller.vot")
    try:
        vot_spec = VotControllerSpec(
            queue_gain=_number(vot, "queue_gain", "controller.vot", 0.1),
            residual_gain=_number(vot, "residual_gain", "controller.vot", 0.1),
            scale_guess=_number(vot, "scale_guess", "controller.vot", 1.0),
            initial_vot=_number(vot, "initial_vot", "controller.vot", 0.25),
        )
        if vot_spec.queue_gain <= 0 or vot_spec.residual_gain <= 0:
            raise ConfigError("controller.vot: gains must be positive")
        if vot_spec.scale_guess <= 0:
            raise ConfigError("controller.vot.scale_guess must be positive")
    except ValueError as exc:
        raise ConfigError(f"controller.vot: {exc}")

    integral = _as_mapping(section.get("integral"), "controller.integral")
    _reject_unknown(integral, ("gain", "initial_price", "target_demand"),
                    "controller.integral")
    target = _optional_real(integral.get("target_demand", None),
                            "controller.integral.target_demand")
    gain = _number(integral, "gain", "controller.integral", 0.01)
    if gain <= 0:
        raise ConfigError("controller.integral.gain must be positive")
    integral_spec = IntegralTollSpec(
        gain=gain,
        initial_price=_number(integral, "initial_price", "controller.integral",
                              math.log(2.0)),
        target_demand=target,
    )

    learn = _as_mapping(section.get("selflearning"), "controller.selflearning")
    _reject_unknown(learn, ("initial_theta", "initial_cov", "measurement_var",
                            "process_noise"), "controller.selflearning")
    theta = learn.get("initial_theta", [0.25, 1.0, 0.1])
    where = "controller.selflearning.initial_theta"
    if not isinstance(theta, (list, tuple)) or len(theta) != 3:
        raise ConfigError(f"{where}: expected three numbers")
    theta = tuple(_real(v, where, "three numbers") for v in theta)
    mvar = _number(learn, "measurement_var", "controller.selflearning", 0.09)
    if mvar <= 0:
        raise ConfigError("controller.selflearning.measurement_var must be positive")
    learn_spec = SelfLearningSpec(
        initial_theta=theta,
        initial_cov=_parse_covariance(learn, "initial_cov",
                                            "controller.selflearning", 0.1),
        measurement_var=mvar,
        process_noise=_parse_covariance(learn, "process_noise",
                                              "controller.selflearning", 1e-6),
    )
    return {
        "controller_kind": kind,
        "vot_spec": vot_spec,
        "integral_spec": integral_spec,
        "selflearning_spec": learn_spec,
    }


def config_from_mapping(root: dict) -> ScenarioConfig:
    """Validate a plain mapping and build the scenario it describes."""
    root = _as_mapping(root, "config")
    _reject_unknown(root, ("run", "capacities", "demand", "behavior", "noise",
                           "initial", "controller", "approx"), "")

    run = _as_mapping(root.get("run"), "run")
    _reject_unknown(run, ("horizon", "dt", "seed", "replications"), "run")
    horizon = _number(run, "horizon", "run", 20.0)
    dt = _parse_dt(run, "run")
    if dt <= 0:
        raise ConfigError("run.dt must be positive")
    if horizon <= 0:
        raise ConfigError("run.horizon must be positive")
    n = horizon / dt
    if n > MAX_STEPS:
        raise ConfigError(
            f"run: horizon {horizon:g} / dt {dt:g} gives {n:.3g} steps, "
            f"more than the cap of {MAX_STEPS}"
        )
    if abs(n - round(n)) > 1e-6 * max(1.0, n) or round(n) < 1:
        raise ConfigError(
            f"run.dt: step size {dt:g} does not divide the horizon {horizon:g} evenly"
        )
    seed = _integer(run, "seed", "run", 0)
    if not 0 <= seed < 2**64:
        raise ConfigError("run.seed must be an unsigned 64-bit integer")
    replications = _integer(run, "replications", "run", 1)
    if replications < 1:
        raise ConfigError("run.replications must be at least 1")

    caps_section = _as_mapping(root.get("capacities"), "capacities")
    _reject_unknown(caps_section, ("hot", "gp"), "capacities")
    try:
        caps = Capacities(
            hot=_number(caps_section, "hot", "capacities", 30.0),
            gp=_number(caps_section, "gp", "capacities", 30.0),
        )
    except ValueError as exc:
        raise ConfigError(f"capacities: {exc}")

    demand = _parse_demand(_as_mapping(root.get("demand"), "demand"))
    if demand.kind in ("constant", "poisson"):
        if demand.mean_hov >= caps.hot:
            raise ScenarioAssumptionError(
                f"demand.hov: mean HOV demand {demand.mean_hov:g} veh/min must stay "
                f"below the HOT capacity {caps.hot:g} veh/min"
            )
    else:
        for t, hov, _ in demand.samples:
            if hov >= caps.hot:
                raise ScenarioAssumptionError(
                    f"demand.samples: HOV demand {hov:g} veh/min at t={t:g} must "
                    f"stay below the HOT capacity {caps.hot:g} veh/min"
                )

    behavior_section = _as_mapping(root.get("behavior"), "behavior")
    _reject_unknown(behavior_section, ("vot", "scale"), "behavior")
    try:
        behavior = BehaviorParams(
            vot=_number(behavior_section, "vot", "behavior", 0.5),
            scale=_number(behavior_section, "scale", "behavior", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"behavior: {exc}")

    noise_section = _as_mapping(root.get("noise"), "noise")
    _reject_unknown(noise_section, ("kind", "half_width"), "noise")
    try:
        noise = NoiseSpec(
            kind=_choice_key(noise_section, "kind", "noise", "none",
                             ("none", "uniform")),
            half_width=_number(noise_section, "half_width", "noise", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}")

    initial = _as_mapping(root.get("initial"), "initial")
    _reject_unknown(initial, ("hot_queue", "gp_queue"), "initial")
    hot_queue = _number(initial, "hot_queue", "initial", 0.0)
    gp_queue = _number(initial, "gp_queue", "initial", 0.0)
    if hot_queue < 0 or gp_queue < 0:
        raise ConfigError("initial: queue sizes cannot be negative")

    controller = _parse_controller(_as_mapping(root.get("controller"), "controller"))

    approx = _as_mapping(root.get("approx"), "approx")
    _reject_unknown(approx, ("zeta0",), "approx")
    zeta0 = _optional_real(approx.get("zeta0", None), "approx.zeta0")

    return ScenarioConfig(
        capacities=caps,
        horizon=horizon,
        dt=dt,
        demand=demand,
        behavior=behavior,
        noise=noise,
        initial_hot_queue=hot_queue,
        initial_gp_queue=gp_queue,
        seed=seed,
        replications=replications,
        approx_zeta0=zeta0,
        **controller,
    )


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse an inline YAML scenario document."""
    try:
        data = yaml.load(text, Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed scenario file: {exc}")
    return config_from_mapping(data if data is not None else {})


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file; missing file raises ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    return parse_config_text(path.read_text())
