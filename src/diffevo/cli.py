"""Command-line front end for reproducible optimizer experiments.

Three subcommands:

* ``run``       -- one optimizer, many seeds, writes a JSON Lines trace file
* ``compare``   -- several optimizers over the same seeds and budget, writes
  one aggregate-curve CSV per optimizer plus a summary table on stdout
* ``aggregate`` -- turn existing trace files into an aggregate-curve CSV

Benchmarks are named by spec strings:

* ``synthetic:PxC[:invalid=F][:seed=K][:cost=unit|lognormal]``
* ``sphere:D[:lo=A][:hi=B]`` / ``rastrigin:D[:lo=A][:hi=B]``
* ``tabular:PATH`` (or any bare path to a tabular benchmark file)

Every command is deterministic given its full flag set: identical
invocations produce byte-identical output files. Stdout summaries use a
fixed column order and six-decimal floats so they can be golden-tested.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .baselines import REConfig, run_random_search, run_regularized_evolution
from .benchmarks import Benchmark, FunctionBenchmark, load_tabular, make_synthetic
from .de import DEConfig, run_de
from .harness import aggregate, final_regrets, write_curve_csv
from .trace import Budget, read_traces, write_traces

# each config field: its flag's type (its JSON type in a config file, where null
# leaves a field with no default unset), default and help; flags override the file
FIELDS = {
    "optimizer": (str, "de", "optimizer"),
    "out": (str, None, "output trace file (JSON Lines)"),
    "benchmark": (str, None, "benchmark spec string or tabular file path"),
    "evals": (int, None, "max evaluations per run"),
    "cost": (float, None, "max cumulative cost (seconds) per run"),
    "runs": (int, 1, "number of independent runs"),
    "seed": (int, 0, "base seed; run k uses seed+k"),
    "jobs": (int, 1, "accepted for existing command lines, the benchmark's among them: a "
                     "positive integer that changes nothing, as all runs advance together"),
    "np": (int, DEConfig.population_size, "DE population size"),
    "f": (float, DEConfig.scaling_factor, "DE scaling factor"),
    "cr": (float, DEConfig.crossover_rate, "DE crossover rate"),
    "pop": (int, REConfig.population_size, "RE population size"),
    "sample": (int, REConfig.sample_size, "RE tournament size"),
}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}

BUDGET_FIELDS = {"max_evaluations": "evals", "max_cost": "cost"}
# each optimizer: the name of its function on this module, its config class and
# the CLI field of each config field; the function is looked up at each call, so
# that one replaced on this module, such as a tracer's wrapper, is the one that runs
OPTIMIZERS = {
    "de": ("run_de", DEConfig,
           {"population_size": "np", "scaling_factor": "f", "crossover_rate": "cr"}),
    "rs": ("run_random_search", Budget, BUDGET_FIELDS),
    "re": ("run_regularized_evolution", REConfig,
           {"population_size": "pop", "sample_size": "sample"}),
}


def parse_benchmark(spec: str) -> Benchmark:
    head, _, rest = spec.partition(":")
    if head == "tabular":
        return load_tabular(rest)
    if head not in ("synthetic", "sphere", "rastrigin"):
        return load_tabular(spec)
    parts = rest.split(":")
    try:  # a tabular file's errors name its path instead
        if head == "synthetic":
            shape = parts[0].lower().split("x")
            if len(shape) != 2:
                raise ValueError(f"synthetic spec needs PxC, got {parts[0]!r}")
            options = _parse_options(parts[1:], {"invalid": ("invalid_fraction", float),
                                                 "seed": ("seed", int), "cost": ("cost_model", str)})
            return make_synthetic(int(shape[0]), int(shape[1]), **options)
        options = _parse_options(parts[1:], {"lo": ("lo", float), "hi": ("hi", float)})
        return FunctionBenchmark(head, int(parts[0]), **options)
    except ValueError as exc:
        raise ValueError(f"benchmark {spec!r}: {exc}") from None


def _parse_options(parts: list[str], schema: dict) -> dict:
    """The builder's keyword arguments from ``key=value`` spec parts, where
    ``schema`` maps each spec key to its parameter name and type."""
    options = {}
    for part in parts:
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq or key not in schema:
            raise ValueError(f"bad benchmark option {part!r}; known: {sorted(schema)}")
        name, kind = schema[key]
        options[name] = kind(value)
    return options


def build_optimizer(name: str, cfg: dict) -> tuple[Callable, object]:
    """The function of optimizer ``name`` and the checked config it takes,
    to be called as ``fn(bench, config, seeds)``. A config error names the
    flag of the field at fault."""
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r}; known: {tuple(OPTIMIZERS)}")
    fn_name, kind, fields = OPTIMIZERS[name]
    flags = {**fields, **BUDGET_FIELDS}
    try:
        config = Budget(**{field: cfg[key] for field, key in BUDGET_FIELDS.items()})
        if kind is not Budget:  # random search takes the budget itself
            config = kind(**{field: cfg[key] for field, key in fields.items()}, budget=config)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        if field not in flags:
            raise
        raise ValueError(f"--{flags[field]} {rest}") from None
    return globals()[fn_name], config


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser, *required) -> dict:
    cfg = {key: default for key, (_, default, _) in FIELDS.items()}
    if args.config is not None:  # "" too: open("") fails naming '', Path("") would be "."
        try:  # not UTF-8 or not JSON; an OSError reaches main as it is
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
        if unknown := set(file_cfg) - set(FIELDS):
            parser.error(f"unknown config file fields: {sorted(unknown)}")
        for key, value in file_cfg.items():
            kind, default, _ = FIELDS[key]
            if kind is float and type(value) is int:
                try:
                    value = file_cfg[key] = float(value)  # as the flag parses it
                except OverflowError:
                    raise ValueError(f"config file {args.config}: field {key!r} is too "
                                     "large for a number") from None
            # type(), not isinstance(): a bool is not an integer here
            if not (type(value) is kind or (value is None and default is None)):
                raise ValueError(f"config file {args.config}: field {key!r} is not "
                                 f"{_TYPE_NAMES[kind]}: {value!r}")
        cfg.update(file_cfg)
    for key in FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg["seed"] < 0:
        raise ValueError(f"--seed must be non-negative, got {cfg['seed']}")
    for key in ("runs", "jobs"):
        if cfg[key] < 1:
            raise ValueError(f"--{key} must be positive, got {cfg[key]}")
    for key in required:
        if cfg[key] is None:
            parser.error(f"--{key} is required (flag or config file)")
    if cfg["evals"] is None and cfg["cost"] is None:
        parser.error("a budget is required: --evals and/or --cost")
    return cfg


def _check_directory(flag: str, path: str, directory: Path):
    """Raise ValueError naming ``flag`` and its ``path``, before any work, unless ``directory``,
    where the command writes, is a directory and ``path`` is not another one."""
    if not directory.is_dir():
        raise ValueError(f"{flag} {path}: {directory} is not a directory")
    if Path(path) != directory and Path(path).is_dir():
        raise ValueError(f"{flag} {path}: {path} is a directory")


def cmd_run(args, parser) -> int:
    cfg = _merge_config(args, parser, "benchmark", "out")
    fn, config = build_optimizer(cfg["optimizer"], cfg)
    _check_directory("--out", cfg["out"], Path(cfg["out"]).parent)
    bench = parse_benchmark(cfg["benchmark"])
    traces = fn(bench, config, range(cfg["seed"], cfg["seed"] + cfg["runs"]))
    write_traces(traces, cfg["out"])
    regrets = final_regrets(traces)
    costs = np.array([t.cumulative_cost[-1] for t in traces])
    events = sum(len(t) for t in traces)
    print(f"optimizer={cfg['optimizer']} benchmark={bench.benchmark_id} "
          f"runs={cfg['runs']} evaluations={events} "
          f"final_mean_regret={regrets.mean():.6f} mean_cumulative_cost={costs.mean():.6f}")
    print(f"wrote {cfg['out']}")
    return 0


def cmd_compare(args, parser) -> int:
    cfg = _merge_config(args, parser, "benchmark")
    optimizers = [o.strip() for o in args.optimizers.split(",") if o.strip()]
    if len(optimizers) < 2:
        parser.error("--optimizers needs at least two comma-separated names")
    repeated = [o for i, o in enumerate(optimizers) if o in optimizers[:i]]
    if repeated:
        parser.error(f"--optimizers names {repeated[0]!r} more than once")
    # every name and its config are checked before the first run
    runs = [(name, *build_optimizer(name, cfg)) for name in optimizers]
    out_dir = Path(args.out_dir)  # made below, with any parents missing
    _check_directory("--out-dir", args.out_dir,
                     next(p for p in (out_dir, *out_dir.parents) if p.exists()))
    bench = parse_benchmark(cfg["benchmark"])
    # every optimizer runs before anything is written, so a failure leaves no
    # partial result set; of each, only the curve and final regrets are kept
    results, seeds = [], range(cfg["seed"], cfg["seed"] + cfg["runs"])
    for optimizer, fn, config in runs:
        traces = fn(bench, config, seeds)
        results.append((optimizer, aggregate(traces, grid=args.grid, points=args.points),
                        final_regrets(traces)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for optimizer, curve, regrets in results:
        write_curve_csv(curve, out_dir / f"{optimizer}.csv")
        std = regrets.std(ddof=1) if len(regrets) > 1 else 0.0
        print(f"optimizer={optimizer} final_regret_mean={regrets.mean():.6f} "
              f"final_regret_std={std:.6f}")
    return 0


def cmd_aggregate(args, parser) -> int:
    _check_directory("--out", args.out, Path(args.out).parent)
    # count each run once and average one optimizer; aggregate() checks benchmarks
    traces, source = [], {}  # (benchmark, optimizer, seed) -> the file holding it
    for path in args.traces:
        for trace in read_traces(path):
            run = (trace.benchmark_id, trace.optimizer_id, trace.seed)
            if run in source:
                raise ValueError(f"run ({run[1]}, seed {run[2]}) is in both {source[run]} "
                                 f"and {path}")
            if traces and run[1] != traces[0].optimizer_id:
                raise ValueError(f"optimizers {traces[0].optimizer_id!r} ({args.traces[0]}) "
                                 f"and {run[1]!r} ({path}) cannot be averaged together")
            source[run] = path
            traces.append(trace)
    curve = aggregate(traces, grid=args.grid, points=args.points)
    write_curve_csv(curve, args.out)
    print(f"wrote {args.out}")
    return 0


def _add_field_flags(sub, skip=()):
    """``--config`` and a flag for each field not in ``skip``."""
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    for name, (kind, default, text) in FIELDS.items():
        if name not in skip:
            sub.add_argument(f"--{name}", type=kind,
                             choices=tuple(OPTIMIZERS) if name == "optimizer" else None,
                             help=text if default is None else f"{text} (default {default})")


def _add_grid_flags(sub):
    sub.add_argument("--grid", choices=["union", "log"], default="log",
                     help="aggregation grid (default: 512 log-spaced points)")
    sub.add_argument("--points", type=int, default=512, help="points for the log grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffevo",
                                     description="black-box optimizer experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimizer and write a trace file")
    _add_field_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several optimizers over shared seeds")
    cmp_p.add_argument("--optimizers", required=True,
                       help="comma-separated optimizer names, e.g. de,rs,re")
    cmp_p.add_argument("--out-dir", required=True, help="directory for per-optimizer CSVs")
    _add_field_flags(cmp_p, skip=("optimizer", "out"))
    _add_grid_flags(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    agg_p = sub.add_parser("aggregate", help="aggregate trace files into a curve CSV")
    agg_p.add_argument("traces", nargs="+", help="trace files (same benchmark)")
    agg_p.add_argument("--out", required=True, help="output CSV path")
    _add_grid_flags(agg_p)
    agg_p.set_defaults(func=cmd_aggregate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "points", 1) < 1:  # compare and aggregate, before any benchmark
            raise ValueError(f"--points must be positive, got {args.points}")
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
