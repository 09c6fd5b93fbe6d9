#!/usr/bin/env python3
"""Sanity-check canonical DE on a continuous test function.

Runs many seeded DE runs on the squashed sphere (or rastrigin) benchmark and
reports how many reach the known optimum level within a tolerance. Useful as
a quick regression check that the continuous core behaves before touching
discrete spaces.

Example:
    python scripts/sphere_convergence.py --dimension 3 --evals 10000
"""

import argparse

import numpy as np

from diffevo import (Budget, DEConfig, FunctionBenchmark, each_seed, final_regrets, run_de,
                     run_experiment)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--function", choices=["sphere", "rastrigin"], default="sphere")
    parser.add_argument("--dimension", type=int, default=3)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--evals", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--np", type=int, default=20, dest="population_size")
    parser.add_argument("--f", type=float, default=0.5, dest="scaling_factor")
    parser.add_argument("--cr", type=float, default=0.5, dest="crossover_rate")
    parser.add_argument("--tolerance", type=float, default=1e-2)
    args = parser.parse_args()

    bench = FunctionBenchmark(args.function, args.dimension)
    cfg = DEConfig(population_size=args.population_size,
                   scaling_factor=args.scaling_factor,
                   crossover_rate=args.crossover_rate,
                   budget=Budget(max_evaluations=args.evals))
    traces = run_experiment(each_seed(lambda b, s: run_de(b, cfg, s)), bench,
                            n_runs=args.runs, base_seed=args.seed)
    finals = final_regrets(traces)
    hits = int((finals <= args.tolerance).sum())
    print(f"{bench.benchmark_id}: {hits}/{args.runs} runs within "
          f"{args.tolerance:g} of the optimum level")
    print(f"final regret: median {np.median(finals):.3e}, "
          f"mean {finals.mean():.3e}, worst {finals.max():.3e}")


if __name__ == "__main__":
    main()
