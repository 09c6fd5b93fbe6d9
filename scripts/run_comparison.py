#!/usr/bin/env python3
"""Compare DE against the RS/RE baselines on a synthetic tabular benchmark.

Desk-scale version of the headline experiment: many independent seeded runs
per optimizer over one enumerable benchmark with a known optimum, reported
as mean anytime validation regret over estimated wall-clock time (cumulative
benchmark-reported cost). Writes one trace file and one curve CSV per
optimizer plus a summary with a paired sign test against random search.

Example:
    python scripts/run_comparison.py --out-dir results/ --runs 100
"""

import argparse
import re
import sys
from pathlib import Path

from diffevo import aggregate, final_regrets, paired_sign_test, write_curve_csv, write_traces
from diffevo.cli import FIELDS, build_optimizer, parse_benchmark

# the CLI config field each optimizer flag of this script sets
CONFIG_FLAGS = {"np": "np", "f": "f", "cr": "cr", "re-pop": "pop", "re-sample": "sample"}


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="synthetic:5x4",
                        help="benchmark spec (default: synthetic:5x4, 1024 configs)")
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--evals", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    for flag, field in CONFIG_FLAGS.items():
        kind, default, text = FIELDS[field]
        parser.add_argument(f"--{flag}", type=kind, default=default, dest=field,
                            help=f"{text} (default {default})")
    parser.add_argument("--grid-points", type=int, default=512)
    parser.add_argument("--out-dir", default="results")
    return parser


def main():
    args = build_parser().parse_args()
    cfg = {key: default for key, (_, default, _) in FIELDS.items()}
    cfg.update((key, value) for key, value in vars(args).items() if key in FIELDS)
    # every flag is checked before the first run and before anything is written
    try:
        for flag, value in (("runs", args.runs), ("grid-points", args.grid_points)):
            if value < 1:
                raise ValueError(f"--{flag} must be positive, got {value}")
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        optimizers = {name: build_optimizer(name, cfg) for name in ("de", "rs", "re")}
        bench = parse_benchmark(args.benchmark)
    except (ValueError, OSError) as exc:  # as the CLI reports them
        message = str(exc)
        for flag, field in CONFIG_FLAGS.items():  # a field's flag as this script spells it
            message = re.sub(f"^--{field} ", f"--{flag} ", message)
        print(f"error: {message}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = range(args.seed, args.seed + args.runs)

    print(f"benchmark {bench.benchmark_id}: best validation error "
          f"{bench.best_validation_error:.6f}")
    finals = {}
    for name, (run, config) in optimizers.items():
        traces = run(bench, config, seeds)
        write_traces(traces, out_dir / f"{name}.jsonl")
        write_curve_csv(aggregate(traces, grid="log", points=args.grid_points),
                        out_dir / f"{name}.csv")
        finals[name] = final_regrets(traces)
        print(f"{name}: mean final regret {finals[name].mean():.6f} "
              f"(zero-regret seeds {int((finals[name] == 0).sum())}/{args.runs})")

    for name in ("de", "re"):
        p = paired_sign_test(finals[name], finals["rs"])
        print(f"sign test {name} below rs: p = {p:.2e}")
    print(f"traces and curves written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
