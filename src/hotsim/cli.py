"""Command-line interface.

Subcommands::

    simulate   run the closed loop, emit a trajectory CSV and a JSON summary
    compare    run several controllers on the same demand realization
    sweep      classify convergence across a gain grid, optionally bisect
    analytic   tabulate the known-behavior optimal price over the horizon
    approx     integrate the reduced near-equilibrium model

Under ``--out DIR`` a command writes each of its files into DIR, printing
one ``wrote DIR/NAME`` line per file, and writes nothing if it fails; without
``--out`` it prints its main file on stdout: ``simulate`` its trajectory CSV
(the first replication's) or, with ``--format json``, its summary JSON;
``compare`` compare.json; ``sweep`` sweep.csv, and nothing for a bisection
alone, whose boundary goes to stderr; ``analytic`` analytic.csv; ``approx``
approx.csv.  ``_emit`` is the one writer.

Exit codes: 0 success, 2 configuration or usage error, 3 scenario-assumption
violation, 4 controller failure, 5 I/O failure, 6 non-finite result (a value
``errors.require_finite`` names; no file is written).  Each error class of
``errors`` carries its code as ``exit_code``; an ``OSError`` is 5.

All CSV output uses 9 significant digits, '\\n' line endings, and a
terminating newline, so identical runs produce byte-identical files.  ``_csv``
is the one CSV writer: it builds a table's ASCII text as one ``bytes``
%-format, which formats each number as a ``str`` %-format does.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import analysis, engine
from .config import CONTROLLER_KINDS, ScenarioConfig, config_fingerprint, load_config
from .errors import (
    BoundaryNotBracketedError,
    ConfigError,
    HotSimError,
    NonFiniteResultError,
    require_finite,
    require_positive,
)

if TYPE_CHECKING:  # pragma: no cover
    import argparse

# most gain values one ``sweep --grid`` may run; each is a full simulation
MAX_GRID_POINTS = 10_000
# what each ``cmd_*`` returns for ``_emit``: its files, name to text in write
# order, and the name of the one printed without ``--out`` (None for none)
Outputs = tuple[dict[str, str], str | None]


def _csv(header: tuple, values, row_format: str = "") -> str:
    """``header``, then ``values``, flat and row-major, a line per row of
    ``len(header)`` through the %-format ``row_format``, by default '%.9g' per
    column (9 significant digits, nan included).  The table is one ``bytes``
    %-format, decoded once: its text is ASCII, a number formats as it would in
    a ``str`` %-format, and a ``%s`` column takes ASCII bytes."""
    row_format = (row_format or ",".join(["%.9g"] * len(header))) + "\n"
    table = (row_format * (len(values) // len(header))).encode() % tuple(values)
    return ",".join(header) + "\n" + table.decode()


def trajectory_csv(traj: engine.Trajectory) -> str:
    """The CSV of ``traj``: its ``STATE_FIELDS`` header, then one line per step."""
    return _csv(engine.STATE_FIELDS, traj.values())


def _json_text(payload) -> str:
    import json

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # an inf or nan, which standard JSON cannot hold
        raise NonFiniteResultError(f"cannot write JSON: {exc}") from exc
    return text + "\n"


def _emit(args, files: dict[str, str], shown: str | None) -> None:
    """The one writer of a command's ``files`` (name to text, in write order):
    under ``--out``, each file there with a ``wrote`` line; without it, the
    text of ``shown`` (if any) on stdout."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
            print(f"wrote {out / name}")
    elif shown is not None:
        sys.stdout.write(files[shown])


def _load(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {key: getattr(args, key, None) for key in ("seed", "replications")}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _aggregate(summaries: list[dict]) -> dict:
    """Mean and standard deviation of each metric across replications."""
    import numpy as np

    aggregate = {}
    # the squares in a spread of finite values can overflow; the rule names it
    with np.errstate(over="ignore", invalid="ignore"):
        # every mean before any std, so the first bad entry in block order is named
        for block, reduce in (("mean", np.mean), ("std", np.std)):
            aggregate[block] = {}
            for key in summaries[0]:
                values = [s[key] for s in summaries]
                aggregate[block][key] = None if None in values else require_finite(
                    f"aggregate.{block}.{key}", reduce(values), NonFiniteResultError)
    return aggregate


def cmd_simulate(args) -> Outputs:
    config = _load(args)
    csv_name = "trajectory.csv" if config.replications == 1 else "trajectory_rep{:03d}.csv"
    # a trajectory's values are many, so each one lives only until its summary
    # and, when it is written or printed, its CSV text are made
    summaries, files = [], {}
    for rep in range(config.replications):
        traj = engine.run_closed_loop(config, seed=config.seed + rep)
        summaries.append(engine.summarize(traj, config.behavior.vot).as_dict())
        if args.out or (rep == 0 and args.format == "csv"):
            files[csv_name.format(rep)] = trajectory_csv(traj)
    if config.replications == 1:
        summary_payload = dict(summaries[0], fingerprint=config_fingerprint(config))
    else:
        summary_payload = {
            "replications": summaries,
            "aggregate": _aggregate(summaries),
        }
    files["summary.json"] = _json_text(summary_payload)
    return files, "summary.json" if args.format == "json" else csv_name.format(0)


def cmd_compare(args) -> Outputs:
    config = _load(args)
    kinds = [k.strip() for k in args.controllers.split(",") if k.strip()]
    if len(kinds) < 2:
        raise ConfigError("compare needs at least two controllers")
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise ConfigError(f"--controllers: {kind} given twice")
    # each config checks its kind when built, so an unknown one fails before any run
    configs = {kind: dataclasses.replace(config, controller_kind=kind) for kind in kinds}
    results = {}
    for kind, cfg in configs.items():
        traj = engine.run_closed_loop(cfg)
        metrics = engine.summarize(traj, config.behavior.vot)
        optimal = analysis.optimal_state(metrics, config.capacities.hot)
        results[kind] = dict(metrics.as_dict(), optimal_state=optimal)
    verdict = [kind for kind, summary in results.items() if summary["optimal_state"]]
    payload = {"seed": config.seed, "controllers": results, "verdict": verdict}
    return {"compare.json": _json_text(payload)}, "compare.json"


def _numbers(text: str, flag: str, sep: str) -> tuple[float, ...]:
    """The numbers of ``text`` split at ``sep``, blanks skipped."""
    try:
        return tuple(float(p) for p in text.split(sep) if p.strip())
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}") from None


def _flagged(flag: str, check, *args) -> None:
    """``check(*args)``, with ``flag`` in front of the message of a ConfigError it raises."""
    try:
        check(*args)
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def cmd_sweep(args) -> Outputs:
    config = _load(args)
    gridded = args.grid is not None or args.values is not None
    if not gridded and args.bisect is None:
        raise ConfigError("sweep needs --grid, --values, or --bisect")

    grid: tuple[float, ...] = ()
    if args.grid:  # an empty --grid, like an empty --values, is an empty grid
        span = _numbers(args.grid, "--grid", ":")
        for value in span:  # the point count below needs them finite
            require_finite("--grid", value, ConfigError)
        if len(span) != 3 or span[2] <= 0:
            raise ConfigError("--grid expects START:STOP:STEP with a positive step")
        start, stop, step = span
        steps = (stop - start) / step + 1e-9  # inf when the quotient overflows
        if not steps < MAX_GRID_POINTS:
            raise ConfigError(f"--grid: {args.grid} has more than the cap of "
                              f"{MAX_GRID_POINTS} points")
        grid = tuple(start + i * step for i in range(math.floor(max(steps, -1.0)) + 1))
    elif args.values is not None:
        grid = _numbers(args.values, "--values", ",")
    if gridded and not grid:
        raise ConfigError("sweep grid is empty")
    flag = "--grid" if args.grid else "--values"
    for value in grid:  # every gain, before the first run
        _flagged(flag, analysis.gain_spec, config, args.param, value)
    if args.bisect is not None:
        bracket = _numbers(args.bisect, "--bisect", ":")
        if len(bracket) != 2:
            raise ConfigError("--bisect expects LOW:HIGH")
        if args.param != "k2":
            raise ConfigError("bisection is supported on the residual gain (k2) only")
        _flagged("--bisect", analysis.check_bracket, config, *bracket)
    require_positive("--resolution", args.resolution, ConfigError)

    rows = [(value, analysis.classify_at(config, args.param, value, args.model))
            for value in grid]
    boundary = None
    if args.bisect is not None:
        try:
            boundary = analysis.find_phase_boundary(config, *bracket, args.resolution, args.model)
        except BoundaryNotBracketedError as exc:
            print(f"warning: {exc}", file=sys.stderr)

    files = {}
    if rows:
        header = (args.param, "pattern", "ratio_estimate", "fit_r2_gaussian", "fit_r2_exponential")
        values = [x for value, report in rows
                  for x in (value, report.pattern.encode(), report.ratio_estimate,
                            report.fit_r2_gaussian, report.fit_r2_exponential)]
        files["sweep.csv"] = _csv(header, values, "%.9g,%s,%.9g,%.9g,%.9g")
    if args.bisect is not None:
        files["boundary.json"] = _json_text({
            "param": args.param, "model": args.model,
            "resolution": args.resolution, "boundary": boundary,
        })
        if boundary is not None and not args.out:  # stdout shows no boundary.json
            print("boundary %s=%.9g" % (args.param, boundary), file=sys.stderr)
    return files, "sweep.csv" if rows else None


def cmd_analytic(args) -> Outputs:
    config = _load(args)
    slope, intercept = analysis.analytic_optimal_price(config)
    values = []
    for t in (k * config.dt for k in range(config.n_steps + 1)):
        price = slope * t + intercept
        values += (t, require_finite(f"u_analytic at t={t:g} min", price, NonFiniteResultError))
    return {"analytic.csv": _csv(("t", "u_analytic"), values)}, "analytic.csv"


def cmd_approx(args) -> Outputs:
    t, lam, zeta = (a.tolist() for a in analysis.approximate_from_config(_load(args)))
    ratio = (q / z if z else math.nan for q, z in zip(lam, zeta))
    values = [x for row in zip(t, lam, zeta, ratio) for x in row]
    return {"approx.csv": _csv(("t", "lambda1", "zeta", "ratio"), values)}, "approx.csv"


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="hotsim",
        description="Dynamic-pricing simulation laboratory for HOT lanes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, replications=False, fmt=False):
        p.add_argument("--config", help="scenario YAML file (defaults when omitted)")
        p.add_argument("--out", help="directory for output files")
        if seed:  # only the commands that draw
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
    gains = p.add_mutually_exclusive_group()
    gains.add_argument("--grid", help="START:STOP:STEP grid of gain values")
    gains.add_argument("--values", help="comma-separated gain values")
    p.add_argument("--bisect", help="LOW:HIGH bracket for the pattern boundary")
    p.add_argument("--resolution", type=float, default=0.005,
                   help="bracket width at which bisection stops")
    p.add_argument("--model", choices=analysis.MODELS, default="closed",
                   help="simulate the full closed loop or the reduced model")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analytic", help="tabulate the known-behavior optimal price")
    common(p, seed=False)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("approx", help="integrate the reduced near-equilibrium model")
    common(p, seed=False)
    p.set_defaults(func=cmd_approx)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args, *args.func(args))
        return 0
    except (HotSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, HotSimError) else 5


if __name__ == "__main__":
    sys.exit(main())
