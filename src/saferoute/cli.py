"""Command-line surface: speed profiles, solving, verification, generation.

Four subcommands share one executable:

* ``speeds``   -- turn hourly count CSVs into 24-hour speed profiles.
* ``solve``    -- run the annealer per dispatch scenario and tabulate
  objective values plus gaps against the single-objective baselines.
* ``verify``   -- compare the annealer against exhaustive enumeration.
* ``generate`` -- write a reproducible random instance file.

Every command is deterministic for a given flag set and seed: result
files contain no timestamps and all floats are written with ``repr``,
so reruns are byte-identical.  Exit codes: 0 success, 1 verification
gap, 2 usage, 3 bad input, 4 infeasible scenario, 5 enumeration
refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .instances import (
    InstanceError,
    generate_instance,
    load_case_study,
    parse_instance,
    parse_solomon,
    serialize_instance,
)
from .model import Instance, ModelError
from .oracle import (
    OracleBudgetError,
    OracleInfeasibleError,
    OracleSizeError,
    enumerate_routes,
)
from .phase1 import OBJECTIVES, ObjectiveWeights, objective_value
from .queueing import (
    DEFAULT_CONGESTION_QUANTILE,
    QueueingError,
    build_speed_profile,
    calibrate,
    read_flow_table,
    read_nominal_speeds,
)
from .solver import SolverConfig, SolverError, solve

EXIT_OK = 0
EXIT_GAP = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_REFUSED = 5

BASELINES = ("time", "crash", "distance")
HOURS = 24


class InputError(ValueError):
    """Unusable input file or environment value."""


# --------------------------------------------------------------------------
# Shared plumbing


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_table(header: tuple[str, ...], rows: list[tuple]) -> str:
    """Aligned human view of the same cells the TSV carries."""
    cells = [tuple(_fmt(c) for c in row) for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit(header: tuple[str, ...], rows: list[tuple], out: str | None) -> None:
    sys.stdout.write(_render_table(header, rows))
    if out:
        with open(out, "w", newline="") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(_fmt(c) for c in row) + "\n")


def load_any_instance(path: str) -> Instance:
    """Read an instance from a directory of CSVs or a single text file.

    Directories use the case-study layout; files beginning with the
    native header parse as native, anything else as a Solomon table.
    """
    p = Path(path)
    if p.is_dir():
        return load_case_study(p)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance: {exc}") from exc
    if text.lstrip().startswith("saferoute-instance"):
        return parse_instance(text)
    return parse_solomon(text)


def _read_config_file(path: str) -> dict:
    config_keys = {f.name for f in fields(SolverConfig)}
    weight_keys = {f.name for f in fields(ObjectiveWeights)}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    unknown = sorted(set(data) - config_keys)
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = dict(data)
    weights = kwargs.pop("weights", None)
    if weights is not None:
        if not isinstance(weights, dict):
            raise InputError("config key 'weights' must be an object")
        bad = sorted(set(weights) - weight_keys)
        if bad:
            raise InputError(f"unknown weight keys: {', '.join(bad)}")
        try:
            kwargs["weights"] = ObjectiveWeights(**weights)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad solver configuration: {exc}") from exc
    return kwargs


def build_solver_config(args) -> SolverConfig:
    """Merge config file, environment and flags (flag wins, then env)."""
    kwargs = _read_config_file(args.config) if args.config else {}
    if getattr(args, "objective", None):
        kwargs["objective"] = args.objective
    seed = args.seed
    if seed is None:
        env = os.environ.get("SAFEROUTE_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise InputError(
                    f"SAFEROUTE_SEED must be an integer, got {env!r}")
    if seed is not None:
        kwargs["seed"] = seed
    try:
        return SolverConfig(**kwargs)
    except (SolverError, TypeError, ValueError) as exc:
        raise InputError(f"bad solver configuration: {exc}") from exc


def _selected_hours(args) -> list[int]:
    if args.all_scenarios:
        return list(range(HOURS))
    return [args.scenario if args.scenario is not None else 0]


def _route_str(routes) -> str:
    """Human form of the visit orders, the depot at both ends as 0."""
    legs = []
    for route in routes:
        if route:
            legs.append("-".join(["0", *map(str, route), "0"]))
    return ";".join(legs) if legs else "-"


# --------------------------------------------------------------------------
# speeds


def cmd_speeds(args) -> int:
    nominal = read_nominal_speeds(args.nominal)
    flows = read_flow_table(args.flows)
    header = ("tail", "head", *(f"h{h}" for h in range(HOURS)))
    rows = []
    for arc, series in sorted(flows.items()):
        if arc not in nominal:
            raise InputError(
                f"{args.flows}: no nominal speed for arc {arc}")
        try:
            model = calibrate(series, nominal[arc])
            profile = build_speed_profile(model, series, args.quantile)
        except QueueingError as exc:
            raise InputError(f"arc {arc}: {exc}") from exc
        rows.append((*arc, *profile.values))
    _emit(header, rows, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    instance = load_any_instance(args.instance)
    config = build_solver_config(args)
    header = ("scenario", "feasible", "route", "objective", "value",
              "tt_gap", "cr_gap", "td_gap")
    rows = []
    all_feasible = True
    for hour in _selected_hours(args):
        result = solve(instance, config, dispatch=float(hour))
        if not result.feasible:
            all_feasible = False
            rows.append((hour, "no", _route_str(result.solution.routes),
                         config.objective, "inf", "", "", ""))
            continue
        gaps: list = []
        if args.no_gaps:
            gaps = ["", "", ""]
        else:
            for name in BASELINES:
                if name == config.objective:
                    base = result.value
                else:
                    base = solve(instance, replace(config, objective=name),
                                 dispatch=float(hour)).value
                mine = objective_value(name, result.solution, instance,
                                       config.weights)
                gaps.append((mine - base) / base if base > 0 else 0.0)
        rows.append((hour, "yes",
                     _route_str(result.solution.routes),
                     config.objective, result.value, *gaps))
    _emit(header, rows, args.out)
    return EXIT_OK if all_feasible else EXIT_INFEASIBLE


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    instance = load_any_instance(args.instance)
    config = build_solver_config(args)
    weights = config.weights.resolved(instance)
    header = ("scenario", "oracle", "solver", "gap", "within")
    rows = []
    all_within = True
    for hour in _selected_hours(args):
        try:
            oracle = enumerate_routes(
                instance, config.objective, dispatch=float(hour),
                weights=weights, schedule_m=config.m).value
        except OracleInfeasibleError:
            oracle = math.inf
        result = solve(instance, config, dispatch=float(hour))
        mine = result.value if result.feasible else math.inf
        if math.isinf(oracle) and math.isinf(mine):
            gap = 0.0  # both agree the scenario cannot be served
        else:
            gap = abs(mine - oracle)
        within = gap <= args.tolerance
        all_within = all_within and within
        rows.append((hour, oracle, mine, gap, "yes" if within else "no"))
    _emit(header, rows, args.out)
    return EXIT_OK if all_within else EXIT_GAP


# --------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    instance = generate_instance(
        args.size, args.seed if args.seed is not None else 0,
        fleet_count=args.fleet, capacity=args.capacity,
        latest=args.latest, max_noise=args.noise)
    text = serialize_instance(instance)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    sys.stdout.write(f"wrote {instance.name}: {len(instance.nodes) - 1} "
                     f"customers, fleet {instance.fleet.count} -> "
                     f"{args.out}\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _quantile(text: str) -> float:
    value = float(text)
    if not 0.5 <= value < 1.0:
        raise argparse.ArgumentTypeError("must lie in [0.5, 1)")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("must be a finite number >= 0")
    return value


def _hour(text: str) -> int:
    value = int(text)
    if not 0 <= value < HOURS:
        raise argparse.ArgumentTypeError("must lie in 0..23")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saferoute",
        description="Time-dependent safe routing and scheduling toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--scenario", type=_hour, default=None,
                           help="dispatch hour 0..23 (default 0)")
        group.add_argument("--all-scenarios", action="store_true",
                           help="sweep all 24 dispatch hours")

    def solver_flags(p):
        p.add_argument("--objective", choices=OBJECTIVES, default=None,
                       help="objective to optimize (default weighted)")
        p.add_argument("--seed", type=int, default=None,
                       help="rng seed (overrides SAFEROUTE_SEED and config)")
        p.add_argument("--config", help="JSON solver configuration file")

    p = sub.add_parser("speeds",
                       help="build speed profiles from hourly counts")
    p.add_argument("--flows", required=True,
                   help="CSV with tail,head,hour,flow rows")
    p.add_argument("--nominal", required=True,
                   help="CSV with tail,head,nominal_speed rows")
    p.add_argument("--quantile", type=_quantile,
                   default=DEFAULT_CONGESTION_QUANTILE,
                   help="congestion rank threshold in [0.5, 1)")
    p.add_argument("--out", help="TSV output path")
    p.set_defaults(func=cmd_speeds)

    p = sub.add_parser("solve", help="anneal one or all dispatch scenarios")
    p.add_argument("--instance", required=True,
                   help="instance file or case-study directory")
    scenario_flags(p)
    solver_flags(p)
    p.add_argument("--no-gaps", action="store_true",
                   help="skip the single-objective baseline solves")
    p.add_argument("--out", help="TSV output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify",
                       help="compare the annealer against enumeration")
    p.add_argument("--instance", required=True,
                   help="instance file or case-study directory")
    scenario_flags(p)
    solver_flags(p)
    p.add_argument("--tolerance", type=_tolerance, default=1e-9,
                   help="largest acceptable optimality gap")
    p.add_argument("--out", help="TSV output path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--size", type=_positive_int, required=True,
                   help="customer count >= 1")
    p.add_argument("--seed", type=int, default=None, help="rng seed")
    p.add_argument("--fleet", type=_positive_int, default=None,
                   help="vehicle count (default: size-based table)")
    p.add_argument("--capacity", type=float, default=200.0)
    p.add_argument("--latest", type=float, default=14.0,
                   help="depot horizon in hours (>= 8)")
    p.add_argument("--noise", type=float, default=0.15,
                   help="largest profile noise amplitude")
    p.add_argument("--out", required=True, help="instance file path")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OracleSizeError, OracleBudgetError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (InputError, InstanceError, ModelError, QueueingError,
            SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
