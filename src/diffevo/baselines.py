"""Random-search and regularized-evolution baselines.

Both run over the same search-space/benchmark/trace contract as the DE
optimizer, so their traces are directly comparable: same genotype encoding,
same invalid-configuration penalty, same budget semantics (checked before
every evaluation).

Regularized evolution keeps a fixed-size population per run, oldest
member first: each step draws a tournament of ``sample_size`` members
uniformly with replacement, mutates the fittest entrant by resampling
exactly one genotype coordinate, evaluates the child, shifts out the oldest
member and appends the child last. Its runs are independent but each is
sequential, so all runs of an experiment advance together as an (R, P, D)
genotype array and an (R, P) fitness array: a step is a few numpy calls and
one benchmark call for every live run (see :func:`harness.run_lockstep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .benchmarks import Benchmark
from .harness import run_lockstep
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


def tournament_select(fitness: np.ndarray, entrants: np.ndarray) -> np.ndarray:
    """Per row of an (R, P) fitness array, the index of the fittest of that
    row's entrants, drawn with replacement as an (R, S) index array.

    Fitness ties go to the entrant with the lowest population index.
    """
    entrants = np.sort(entrants, axis=1)
    best = np.take_along_axis(fitness, entrants, axis=1).argmin(axis=1)  # the first of equals
    return entrants[np.arange(len(entrants)), best]


def run_regularized_evolution(bench: Benchmark, cfg: REConfig,
                              seeds: Sequence[int]) -> list[RunTrace]:
    """One regularized-evolution run per seed, advanced in lockstep by
    :func:`run_lockstep`; returns their traces in seed order.

    Every step takes one child from each live run: its own generator draws
    the entrants, then the new value, then the coordinate it replaces.
    """
    size, sample = cfg.population_size, cfg.sample_size

    def propose(rngs, genotypes, fitness):
        live, _, dimension = genotypes.shape
        entrants = np.empty((live, sample), dtype=np.intp)
        values, coordinates = np.empty(live), np.empty(live, dtype=np.intp)
        for i, rng in enumerate(rngs):
            entrants[i] = rng.integers(0, size, size=sample)
            values[i] = rng.random()
            coordinates[i] = rng.integers(dimension)
        steps = np.arange(live)
        children = genotypes[steps, tournament_select(fitness, entrants)]
        children[steps, coordinates] = values
        return children[:, None]

    def age(genotypes, fitness, children, child_fitness):
        # the oldest member leaves whatever its fitness
        genotypes[:, :-1], fitness[:, :-1] = genotypes[:, 1:], fitness[:, 1:]
        genotypes[:, -1], fitness[:, -1] = children[:, 0], child_fitness[:, 0]

    return run_lockstep(bench, cfg.budget, seeds, size, propose, age, "re",
                        {"population_size": size, "sample_size": sample})
