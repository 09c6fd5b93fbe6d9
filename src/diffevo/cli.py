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

import numpy as np

from .baselines import REConfig, run_random_search, run_regularized_evolution
from .benchmarks import Benchmark, FunctionBenchmark, load_tabular, make_synthetic
from .de import DEConfig, run_de
from .harness import RunFn, aggregate, final_regrets, run_experiment, write_curve_csv
from .trace import Budget, read_traces, write_traces

OPTIMIZERS = ("de", "rs", "re")

# defaults are overridden by --config file values, which flags override in turn
DEFAULTS = {
    "optimizer": "de",
    "np": 20,
    "f": 0.5,
    "cr": 0.5,
    "pop": 100,
    "sample": 10,
    "benchmark": None,
    "evals": None,
    "cost": None,
    "runs": 1,
    "seed": 0,
    "jobs": 1,
    "out": None,
}
# the JSON type of each config file field, the type its flag parses to; an
# integer is read as a float where a number is due, and null leaves a field
# without a default unset
_FIELD_TYPES = {"optimizer": str, "np": int, "f": float, "cr": float, "pop": int, "sample": int,
                "benchmark": str, "evals": int, "cost": float, "runs": int, "seed": int,
                "jobs": int, "out": str}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


def parse_benchmark(spec: str) -> Benchmark:
    head, _, rest = spec.partition(":")
    if head == "synthetic":
        parts = rest.split(":")
        shape = parts[0].lower().split("x")
        if len(shape) != 2:
            raise ValueError(f"synthetic spec needs PxC, got {parts[0]!r}")
        options = _parse_options(parts[1:], {"invalid": float, "seed": int, "cost": str})
        return make_synthetic(
            num_params=int(shape[0]),
            choices_per_param=int(shape[1]),
            invalid_fraction=options.get("invalid", 0.0),
            cost_model=options.get("cost", "lognormal"),
            seed=options.get("seed", 0),
        )
    if head in ("sphere", "rastrigin"):
        parts = rest.split(":")
        options = _parse_options(parts[1:], {"lo": float, "hi": float})
        return FunctionBenchmark(
            head, int(parts[0]),
            lo=options.get("lo", -5.0), hi=options.get("hi", 5.0),
        )
    if head == "tabular":
        return load_tabular(rest)
    return load_tabular(spec)


def _parse_options(parts: list[str], schema: dict) -> dict:
    options = {}
    for part in parts:
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq or key not in schema:
            raise ValueError(f"bad benchmark option {part!r}; known: {sorted(schema)}")
        options[key] = schema[key](value)
    return options


def build_runner(optimizer: str, cfg: dict, budget: Budget) -> RunFn:
    if optimizer == "de":
        de_cfg = DEConfig(
            population_size=cfg["np"],
            scaling_factor=cfg["f"],
            crossover_rate=cfg["cr"],
            budget=budget,
        )
        return lambda bench, seeds: run_de(bench, de_cfg, seeds)
    if optimizer == "rs":
        return lambda bench, seeds: run_random_search(bench, budget, seeds)
    if optimizer == "re":
        re_cfg = REConfig(
            population_size=cfg["pop"], sample_size=cfg["sample"], budget=budget,
        )
        return lambda bench, seeds: run_regularized_evolution(bench, re_cfg, seeds)
    raise ValueError(f"unknown optimizer {optimizer!r}; known: {OPTIMIZERS}")


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            parser.error(f"unknown config file fields: {sorted(unknown)}")
        for key, value in file_cfg.items():
            kind = _FIELD_TYPES[key]
            if kind is float and type(value) is int:
                try:
                    value = file_cfg[key] = float(value)  # as the flag parses it
                except OverflowError:
                    raise ValueError(f"config file {args.config}: field {key!r} is too "
                                     "large for a number") from None
            # type(), not isinstance(): a bool is not an integer here
            if not (type(value) is kind or (value is None and DEFAULTS[key] is None)):
                raise ValueError(f"config file {args.config}: field {key!r} is not "
                                 f"{_TYPE_NAMES[kind]}: {value!r}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg: dict, parser: argparse.ArgumentParser, *keys: str):
    for key in keys:
        if cfg.get(key) is None:
            parser.error(f"--{key} is required (flag or config file)")


def _budget(cfg: dict, parser: argparse.ArgumentParser) -> Budget:
    if cfg["evals"] is None and cfg["cost"] is None:
        parser.error("a budget is required: --evals and/or --cost")
    return Budget(max_evaluations=cfg["evals"], max_cost=cfg["cost"])


def cmd_run(args, parser) -> int:
    cfg = _merge_config(args, parser)
    _require(cfg, parser, "benchmark", "out")
    budget = _budget(cfg, parser)
    bench = parse_benchmark(cfg["benchmark"])
    runner = build_runner(cfg["optimizer"], cfg, budget)
    traces = run_experiment(runner, bench, n_runs=cfg["runs"], base_seed=cfg["seed"],
                            jobs=cfg["jobs"])
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
    cfg = _merge_config(args, parser)
    _require(cfg, parser, "benchmark")
    budget = _budget(cfg, parser)
    optimizers = [o.strip() for o in args.optimizers.split(",") if o.strip()]
    if len(optimizers) < 2:
        parser.error("--optimizers needs at least two comma-separated names")
    repeated = [o for i, o in enumerate(optimizers) if o in optimizers[:i]]
    if repeated:
        parser.error(f"--optimizers names {repeated[0]!r} more than once")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    bench = parse_benchmark(cfg["benchmark"])
    # every optimizer runs before anything is written, so a failure leaves no
    # partial result set; of each, only the curve and final regrets are kept
    results = []
    for optimizer in optimizers:
        runner = build_runner(optimizer, cfg, budget)
        traces = run_experiment(runner, bench, n_runs=cfg["runs"], base_seed=cfg["seed"],
                                jobs=cfg["jobs"])
        results.append((optimizer, aggregate(traces, grid=args.grid, points=args.points),
                        final_regrets(traces)))
    for optimizer, curve, regrets in results:
        write_curve_csv(curve, out_dir / f"{optimizer}.csv")
        std = regrets.std(ddof=1) if len(regrets) > 1 else 0.0
        print(f"optimizer={optimizer} final_regret_mean={regrets.mean():.6f} "
              f"final_regret_std={std:.6f}")
    return 0


def cmd_aggregate(args, parser) -> int:
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


def _add_shared_flags(sub):
    sub.add_argument("--benchmark", help="benchmark spec string or tabular file path")
    sub.add_argument("--evals", type=int, help="max evaluations per run")
    sub.add_argument("--cost", type=float, help="max cumulative cost (seconds) per run")
    sub.add_argument("--runs", type=int, help="number of independent runs (default 1)")
    sub.add_argument("--seed", type=int, help="base seed; run k uses seed+k (default 0)")
    sub.add_argument("--jobs", type=int,
                     help="split the seeds into this many concurrent chunks (default 1)")
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--np", type=int, help="DE population size (default 20)")
    sub.add_argument("--f", type=float, help="DE scaling factor (default 0.5)")
    sub.add_argument("--cr", type=float, help="DE crossover rate (default 0.5)")
    sub.add_argument("--pop", type=int, help="RE population size (default 100)")
    sub.add_argument("--sample", type=int, help="RE tournament size (default 10)")


def _add_grid_flags(sub):
    sub.add_argument("--grid", choices=["union", "log"], default="log",
                     help="aggregation grid (default: 512 log-spaced points)")
    sub.add_argument("--points", type=int, default=512, help="points for the log grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffevo",
                                     description="black-box optimizer experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimizer and write a trace file")
    run_p.add_argument("--optimizer", choices=OPTIMIZERS, help="optimizer (default de)")
    run_p.add_argument("--out", help="output trace file (JSON Lines)")
    _add_shared_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several optimizers over shared seeds")
    cmp_p.add_argument("--optimizers", required=True,
                       help="comma-separated optimizer names, e.g. de,rs,re")
    cmp_p.add_argument("--out-dir", required=True, help="directory for per-optimizer CSVs")
    _add_shared_flags(cmp_p)
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
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
