"""Command-line interface.

Subcommands::

    simulate   run the closed loop, emit a trajectory CSV and a JSON summary
    compare    run several controllers on the same demand realization
    sweep      classify convergence across a gain grid, optionally bisect
    analytic   tabulate the known-behavior optimal price over the horizon
    approx     integrate the reduced near-equilibrium model

Exit codes: 0 success, 2 configuration or usage error, 3 scenario-assumption
violation, 4 controller failure, 5 I/O failure, 6 non-finite result (a
summary metric is infinite or NaN, so no JSON is written).

All CSV output uses 9 significant digits, '\\n' line endings, and a
terminating newline, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, engine
from .config import CONTROLLER_KINDS, ScenarioConfig, check_scenario, load_config
from .errors import (
    BoundaryNotBracketedError,
    ConfigError,
    HotSimError,
    NonFiniteResultError,
    PriceUndefinedError,
    ScenarioAssumptionError,
)

TRAJECTORY_COLUMNS = engine.STATE_FIELDS
# '%.9g' writes the same text as format(x, '.9g'), nan included
_TRAJECTORY_ROW = ",".join(["%.9g"] * len(TRAJECTORY_COLUMNS))
# most gain values one ``sweep --grid`` may run; each is a full simulation
MAX_GRID_POINTS = 10_000


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _csv_lines(header: tuple, rows) -> str:
    """Numbers in 9 significant digits; strings as they are."""
    lines = [",".join(header)]
    lines.extend(",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: engine.Trajectory) -> str:
    lines = [",".join(TRAJECTORY_COLUMNS)]
    lines.extend(_TRAJECTORY_ROW % tuple(row) for row in traj.rows())
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # an inf or nan, which standard JSON cannot hold
        raise NonFiniteResultError(f"cannot write JSON: {exc}") from exc
    return text + "\n"


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)
    print(f"wrote {out_dir / name}")


def _load(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {key: getattr(args, key, None) for key in ("seed", "replications")}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    check_scenario(config)
    return config


def _aggregate(summaries: list[dict]) -> dict:
    """Mean and standard deviation of each metric across replications."""
    aggregate = {"mean": {}, "std": {}}
    # the squares in a spread of finite values can overflow; the check names it
    with np.errstate(over="ignore", invalid="ignore"):
        for key in summaries[0]:
            values = [s[key] for s in summaries]
            none = any(v is None for v in values)
            aggregate["mean"][key] = None if none else float(np.mean(values))
            aggregate["std"][key] = None if none else float(np.std(values))
    engine.check_finite({f"aggregate.{block}.{key}": value for block, metrics in aggregate.items()
                         for key, value in metrics.items()})
    return aggregate


def cmd_simulate(args) -> int:
    config = _load(args)
    trajectories = [
        engine.run_closed_loop(config, seed=config.seed + rep)
        for rep in range(config.replications)
    ]
    summaries = [
        engine.summarize(traj, config.behavior.vot).as_dict() for traj in trajectories
    ]
    if config.replications == 1:
        summary_payload = dict(summaries[0], fingerprint=trajectories[0].fingerprint)
    else:
        summary_payload = {
            "replications": summaries,
            "aggregate": _aggregate(summaries),
        }
    if args.out:
        out = Path(args.out)
        if config.replications == 1:
            _write(out, "trajectory.csv", trajectory_csv(trajectories[0]))
        else:
            for rep, traj in enumerate(trajectories):
                _write(out, f"trajectory_rep{rep:03d}.csv", trajectory_csv(traj))
        _write(out, "summary.json", _json_text(summary_payload))
    elif args.format == "json":
        sys.stdout.write(_json_text(summary_payload))
    else:
        sys.stdout.write(trajectory_csv(trajectories[0]))
    return 0


def cmd_compare(args) -> int:
    config = _load(args)
    kinds = [k.strip() for k in args.controllers.split(",") if k.strip()]
    if len(kinds) < 2:
        raise ConfigError("compare needs at least two controllers")
    for kind in kinds:
        if kind not in CONTROLLER_KINDS:
            raise ConfigError(f"unknown controller {kind!r}")
    results = {}
    for kind in kinds:
        cfg = dataclasses.replace(config, controller_kind=kind)
        traj = engine.run_closed_loop(cfg)
        metrics = engine.summarize(traj, config.behavior.vot)
        optimal = analysis.optimal_state(metrics, config.capacities.hot)
        results[kind] = dict(metrics.as_dict(), optimal_state=optimal)
    verdict = [kind for kind, summary in results.items() if summary["optimal_state"]]
    payload = {"seed": config.seed, "controllers": results, "verdict": verdict}
    if args.out:
        _write(Path(args.out), "compare.json", _json_text(payload))
    else:
        sys.stdout.write(_json_text(payload))
    return 0


def _numbers(text: str, flag: str, sep: str) -> tuple[float, ...]:
    """The finite numbers of ``text`` split at ``sep``, blanks skipped."""
    try:
        numbers = tuple(float(p) for p in text.split(sep) if p.strip())
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}") from None
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{flag}: expected finite numbers, got {text!r}")
    return numbers


def cmd_sweep(args) -> int:
    config = _load(args)
    if not args.grid and not args.values and not args.bisect:
        raise ConfigError("sweep needs --grid, --values, or --bisect")

    grid: tuple[float, ...] = ()
    if args.grid:
        span = _numbers(args.grid, "--grid", ":")
        if len(span) != 3 or span[2] <= 0:
            raise ConfigError("--grid expects START:STOP:STEP with a positive step")
        start, stop, step = span
        steps = (stop - start) / step + 1e-9  # inf when the quotient overflows
        if not steps < MAX_GRID_POINTS:
            raise ConfigError(f"--grid: {args.grid} has more than the cap of "
                              f"{MAX_GRID_POINTS} points")
        grid = tuple(start + i * step for i in range(math.floor(max(steps, -1.0)) + 1))
    elif args.values:
        grid = _numbers(args.values, "--values", ",")
    if (args.grid or args.values) and not grid:
        raise ConfigError("sweep grid is empty")
    if args.bisect:
        bracket = _numbers(args.bisect, "--bisect", ":")
        if len(bracket) != 2:
            raise ConfigError("--bisect expects LOW:HIGH")
        if args.param != "k2":
            raise ConfigError("bisection is supported on the residual gain (k2) only")

    # a gain or bracket that analysis rejects is reported under its flag
    try:
        rows = [(value, analysis.classify_at(config, args.param, value, args.model))
                for value in grid]
    except ConfigError as exc:
        raise ConfigError(f"{'--grid' if args.grid else '--values'}: {exc}") from None
    boundary = None
    if args.bisect:
        try:
            boundary = analysis.find_phase_boundary(config, *bracket, args.resolution, args.model)
        except BoundaryNotBracketedError as exc:
            print(f"warning: {exc}", file=sys.stderr)
        except ConfigError as exc:
            raise ConfigError(f"--bisect: {exc}") from None

    header = (args.param, "pattern", "ratio_estimate",
              "fit_r2_gaussian", "fit_r2_exponential")
    csv_text = _csv_lines(header, (
        (value, r.pattern, r.ratio_estimate, r.fit_r2_gaussian, r.fit_r2_exponential)
        for value, r in rows
    ))

    if args.out:
        out = Path(args.out)
        if rows:
            _write(out, "sweep.csv", csv_text)
        if args.bisect:
            _write(out, "boundary.json", _json_text({
                "param": args.param, "model": args.model,
                "resolution": args.resolution, "boundary": boundary,
            }))
    else:
        if rows:
            sys.stdout.write(csv_text)
        if boundary is not None:
            print(f"boundary {args.param}={_fmt(boundary)}", file=sys.stderr)
    return 0


def cmd_analytic(args) -> int:
    config = _load(args)
    if config.demand.kind != "constant":
        raise ConfigError("the analytic price requires constant demand")
    scen = analysis.scenario_from_config(config)
    times = [k * config.dt for k in range(config.n_steps + 1)]
    rows = ((t, analysis.analytic_optimal_price(t, scen)) for t in times)
    text = _csv_lines(("t", "u_analytic"), rows)
    if args.out:
        _write(Path(args.out), "analytic.csv", text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_approx(args) -> int:
    t, lam, zeta = analysis.approximate_from_config(_load(args))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(zeta) > 0.0, lam / zeta, math.nan)
    rows = zip(t, lam, zeta, ratio)
    text = _csv_lines(("t", "lambda1", "zeta", "ratio"), rows)
    if args.out:
        _write(Path(args.out), "approx.csv", text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotsim",
        description="Dynamic-pricing simulation laboratory for HOT lanes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, replications=False, fmt=False):
        p.add_argument("--config", help="scenario YAML file (defaults when omitted)")
        p.add_argument("--out", help="directory for output files")
        p.add_argument("--seed", type=int, help="override the configured seed")
        if replications:
            p.add_argument("--replications", type=int,
                           help="override the configured replication count")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="stdout format when --out is not given")

    p = sub.add_parser("simulate", help="run the closed loop")
    common(p, replications=True, fmt=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run several controllers on one demand draw")
    common(p)
    p.add_argument("--controllers", default=",".join(CONTROLLER_KINDS),
                   help="comma-separated controller kinds (at least two)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="classify convergence across a gain grid")
    common(p)
    p.add_argument("--param", choices=tuple(analysis.GAINS), default="k2",
                   help="which controller gain to vary")
    p.add_argument("--grid", help="START:STOP:STEP grid of gain values")
    p.add_argument("--values", help="comma-separated gain values")
    p.add_argument("--bisect", help="LOW:HIGH bracket for the pattern boundary")
    p.add_argument("--resolution", type=float, default=0.005,
                   help="bracket width at which bisection stops")
    p.add_argument("--model", choices=analysis.MODELS, default="closed",
                   help="simulate the full closed loop or the reduced model")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analytic", help="tabulate the known-behavior optimal price")
    common(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("approx", help="integrate the reduced near-equilibrium model")
    common(p)
    p.set_defaults(func=cmd_approx)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioAssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PriceUndefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except NonFiniteResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except HotSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
