"""Random-search and regularized-evolution baselines.

Both run over the same search-space/benchmark/trace contract as the DE
optimizer, so their traces are directly comparable: same genotype encoding,
same invalid-configuration penalty, same budget semantics (checked before
every evaluation).

Regularized evolution keeps a fixed-size population as a genotype array
and a fitness vector, oldest first: each step draws a tournament of
``sample_size`` members uniformly with replacement, mutates the fittest
entrant by resampling exactly one genotype coordinate, evaluates the child,
shifts out the oldest member (row 0) and appends the child as the last row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import Benchmark
from .trace import Budget, RunRecorder, RunTrace

RS_BLOCK = 1024  # genotypes drawn and evaluated per recorder call


def run_random_search(bench: Benchmark, budget: Budget, seed: int) -> RunTrace:
    """Evaluate independent uniform genotypes until the budget is exhausted.

    A (k, D) draw is the same stream as k draws of D values, so drawing
    blocks leaves the trace as one genotype at a time would make it.
    """
    rng = np.random.default_rng(seed)
    recorder = RunRecorder(bench, budget)
    shape = (min(RS_BLOCK, budget.max_evaluations or RS_BLOCK), bench.space.dimension)
    while len(recorder.evaluate(rng.random(shape))) == shape[0]:
        pass
    return recorder.finish(seed=seed, optimizer_id="rs", config={})


@dataclass(frozen=True)
class REConfig:
    population_size: int = 100
    sample_size: int = 10
    budget: Budget = field(default_factory=lambda: Budget(max_evaluations=1000))

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError(f"population size must be >= 1, got {self.population_size}")
        if not 1 <= self.sample_size <= self.population_size:
            raise ValueError(
                f"sample size must be in [1, {self.population_size}], got {self.sample_size}"
            )


def tournament_select(fitness: np.ndarray, sample_size: int,
                      rng: np.random.Generator) -> int:
    """Index of the fittest of ``sample_size`` entrants drawn with replacement.

    Fitness ties go to the entrant with the lowest population index.
    """
    entrants = sorted(rng.integers(0, len(fitness), size=sample_size).tolist())
    return min(entrants, key=fitness.__getitem__)  # min keeps the first of equals


def mutate_one_dimension(genotype: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Resample one uniformly chosen coordinate uniformly on [0, 1)."""
    child = genotype.copy()
    child[int(rng.integers(len(genotype)))] = rng.random()
    return child


def run_regularized_evolution(bench: Benchmark, cfg: REConfig, seed: int) -> RunTrace:
    """One regularized-evolution run; returns the full evaluation trace."""
    rng = np.random.default_rng(seed)
    recorder = RunRecorder(bench, cfg.budget)
    genotypes = rng.random((cfg.population_size, bench.space.dimension))
    fitness = recorder.evaluate(genotypes)
    while len(fitness) == cfg.population_size:
        child = mutate_one_dimension(genotypes[tournament_select(fitness, cfg.sample_size, rng)], rng)
        child_fitness = recorder.evaluate(child[None])
        if not len(child_fitness):
            break
        # aging: the oldest member leaves whatever its fitness
        genotypes[:-1], fitness[:-1] = genotypes[1:], fitness[1:]
        genotypes[-1], fitness[-1] = child, child_fitness[0]
    return recorder.finish(seed=seed, optimizer_id="re", config={
        "population_size": cfg.population_size,
        "sample_size": cfg.sample_size,
    })
