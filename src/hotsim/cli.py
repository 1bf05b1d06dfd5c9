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
from .config import ScenarioConfig, load_config
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


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _csv_lines(header: tuple, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
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
    overrides = {}
    if getattr(args, "seed", None) is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        overrides["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        if args.replications < 1:
            raise ConfigError("--replications must be at least 1")
        overrides["replications"] = args.replications
    return dataclasses.replace(config, **overrides) if overrides else config


def _aggregate(summaries: list[dict]) -> dict:
    mean, std = {}, {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if any(v is None for v in values):
            mean[key] = std[key] = None
        else:
            mean[key] = float(np.mean(values))
            std[key] = float(np.std(values))
    return {"mean": mean, "std": std}


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
        if kind not in ("vot", "integral", "selflearning"):
            raise ConfigError(f"unknown controller {kind!r}")
    results = {}
    for kind in kinds:
        cfg = dataclasses.replace(config, controller_kind=kind)
        traj = engine.run_closed_loop(cfg)
        metrics = engine.summarize(traj, config.behavior.vot)
        optimal = (
            metrics.final_lambda1 < 1e-3
            and abs(metrics.avg_g1 - config.capacities.hot) <= 0.5
        )
        results[kind] = dict(metrics.as_dict(), optimal_state=optimal)
    verdict = [kind for kind, summary in results.items() if summary["optimal_state"]]
    payload = {"seed": config.seed, "controllers": results, "verdict": verdict}
    if args.out:
        _write(Path(args.out), "compare.json", _json_text(payload))
    else:
        sys.stdout.write(_json_text(payload))
    return 0


def _parse_span(text: str, flag: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}")
    return parts


def cmd_sweep(args) -> int:
    config = _load(args)
    if not args.grid and not args.values and not args.bisect:
        raise ConfigError("sweep needs --grid, --values, or --bisect")

    grid: list[float] = []
    if args.grid:
        span = _parse_span(args.grid, "--grid")
        if len(span) != 3 or span[2] <= 0:
            raise ConfigError("--grid expects START:STOP:STEP with a positive step")
        start, stop, step = span
        count = math.floor((stop - start) / step + 1e-9) + 1
        grid = [start + i * step for i in range(count)]
    elif args.values:
        grid = [float(v) for v in args.values.split(",") if v.strip()]
    if (args.grid or args.values) and not grid:
        raise ConfigError("sweep grid is empty")

    rows = []
    for value in grid:
        replacement = {"queue_gain" if args.param == "k1" else "residual_gain": value}
        spec = dataclasses.replace(config.vot_spec, **replacement)
        cfg = dataclasses.replace(config, controller_kind="vot", vot_spec=spec)
        if args.model == "closed":
            traj = engine.run_closed_loop(cfg)
            report = analysis.classify_trajectory(
                traj, spec.queue_gain, spec.residual_gain
            )
        else:
            scen = analysis.scenario_from_config(cfg)
            t, lam, zeta = analysis.run_approximate(
                cfg.initial_hot_queue, cfg.approx_initial_zeta(),
                spec.queue_gain, spec.residual_gain,
                analysis.loop_gain_rate(scen), cfg.horizon, cfg.dt,
            )
            report = analysis.classify_convergence(
                t, lam, zeta, spec.queue_gain, spec.residual_gain
            )
        rows.append((value, report))

    boundary = None
    if args.bisect:
        span = _parse_span(args.bisect, "--bisect")
        if len(span) != 2:
            raise ConfigError("--bisect expects LOW:HIGH")
        if args.param != "k2":
            raise ConfigError("bisection is supported on the residual gain (k2) only")
        try:
            boundary = analysis.find_phase_boundary(
                config, span[0], span[1], args.resolution, args.model
            )
        except BoundaryNotBracketedError as exc:
            print(f"warning: {exc}", file=sys.stderr)

    header = (args.param, "pattern", "ratio_estimate",
              "fit_r2_gaussian", "fit_r2_exponential")
    lines = [",".join(header)]
    for value, report in rows:
        lines.append(",".join((
            _fmt(value), report.pattern, _fmt(report.ratio_estimate),
            _fmt(report.fit_r2_gaussian), _fmt(report.fit_r2_exponential),
        )))
    csv_text = "\n".join(lines) + "\n"

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
    config = _load(args)
    scen = analysis.scenario_from_config(config)
    spec = config.vot_spec
    t, lam, zeta = analysis.run_approximate(
        config.initial_hot_queue, config.approx_initial_zeta(),
        spec.queue_gain, spec.residual_gain,
        analysis.loop_gain_rate(scen), config.horizon, config.dt,
    )
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
    p.add_argument("--controllers", default="vot,integral,selflearning",
                   help="comma-separated controller kinds (at least two)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="classify convergence across a gain grid")
    common(p)
    p.add_argument("--param", choices=("k1", "k2"), default="k2",
                   help="which controller gain to vary")
    p.add_argument("--grid", help="START:STOP:STEP grid of gain values")
    p.add_argument("--values", help="comma-separated gain values")
    p.add_argument("--bisect", help="LOW:HIGH bracket for the pattern boundary")
    p.add_argument("--resolution", type=float, default=0.005,
                   help="bracket width at which bisection stops")
    p.add_argument("--model", choices=("closed", "approx"), default="closed",
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
