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
from pathlib import Path

from diffevo import (
    Budget,
    DEConfig,
    REConfig,
    aggregate,
    final_regrets,
    paired_sign_test,
    run_de,
    run_random_search,
    run_regularized_evolution,
    write_curve_csv,
    write_traces,
)
from diffevo.cli import parse_benchmark


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="synthetic:5x4",
                        help="benchmark spec (default: synthetic:5x4, 1024 configs)")
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--evals", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--np", type=int, default=20, dest="population_size")
    parser.add_argument("--f", type=float, default=0.5, dest="scaling_factor")
    parser.add_argument("--cr", type=float, default=0.5, dest="crossover_rate")
    parser.add_argument("--re-pop", type=int, default=100)
    parser.add_argument("--re-sample", type=int, default=10)
    parser.add_argument("--grid-points", type=int, default=512)
    parser.add_argument("--out-dir", default="results")
    return parser


def main():
    args = build_parser().parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    bench = parse_benchmark(args.benchmark)
    budget = Budget(max_evaluations=args.evals)
    de_cfg = DEConfig(population_size=args.population_size,
                      scaling_factor=args.scaling_factor,
                      crossover_rate=args.crossover_rate, budget=budget)
    re_cfg = REConfig(population_size=args.re_pop, sample_size=args.re_sample,
                      budget=budget)
    optimizers = {
        "de": (run_de, de_cfg),
        "rs": (run_random_search, budget),
        "re": (run_regularized_evolution, re_cfg),
    }
    seeds = range(args.seed, args.seed + args.runs)

    print(f"benchmark {bench.benchmark_id}: best validation error "
          f"{bench.best_validation_error:.6f}")
    finals = {}
    for name, (run, cfg) in optimizers.items():
        traces = run(bench, cfg, seeds)
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


if __name__ == "__main__":
    main()
