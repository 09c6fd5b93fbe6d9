"""Random-search and regularized-evolution baselines.

Both run over the same search-space/benchmark/trace contract as the DE
optimizer, so their traces are directly comparable: same genotype encoding,
same invalid-configuration penalty, same budget semantics (checked before
every evaluation). All runs of an experiment advance together through
:func:`harness.run_lockstep`, with one benchmark call per step.

Regularized evolution keeps a fixed-size population per run: each step
draws a tournament of ``sample_size`` members uniformly with replacement,
mutates the fittest entrant by resampling exactly one genotype coordinate,
evaluates the child, and replaces the oldest member with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .benchmarks import Benchmark
from .harness import run_lockstep
from .trace import Budget, RunTrace

# genotypes drawn per step, shared among the runs, but at least 32 a run,
# so that many runs do not make many tiny draws
RS_BLOCK = 1024


def run_random_search(bench: Benchmark, budget: Budget, seeds: Sequence[int]) -> list[RunTrace]:
    """One random-search run per seed, advanced in lockstep by
    :func:`run_lockstep`; returns their traces in seed order.

    Each step takes k uniform genotypes from every run's stream, about
    ``RS_BLOCK`` rows in all and at least 32 a run: the next k * D values,
    row by row, so k leaves the trace as one genotype at a time would make it.
    """
    def propose(draw, genotypes, fitness):
        runs, _, dimension = genotypes.shape
        k = max(32, RS_BLOCK // runs)
        return draw(k * dimension).reshape(runs, k, dimension)

    return run_lockstep(bench, budget, seeds, 0, propose, lambda *_: None, "rs", {})


@dataclass(frozen=True)
class REConfig:
    population_size: int = 100
    sample_size: int = 10
    budget: Budget = field(default_factory=lambda: Budget(max_evaluations=1000))

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError(f"population_size must be >= 1, got {self.population_size}")
        if not 1 <= self.sample_size <= self.population_size:
            raise ValueError(
                f"sample_size must be in [1, {self.population_size}], got {self.sample_size}"
            )


def tournament_select(fitness: np.ndarray, entrants: np.ndarray) -> np.ndarray:
    """Per row of an (R, P) fitness array, the index of the fittest of that
    row's entrants, drawn with replacement as an (R, S) index array.

    Fitness ties go to the entrant with the lowest population index.
    """
    entrants = np.sort(entrants, axis=1)
    runs = np.arange(len(entrants))
    best = fitness[runs[:, None], entrants].argmin(axis=1)  # the first of equals
    return entrants[runs, best]


def run_regularized_evolution(bench: Benchmark, cfg: REConfig,
                              seeds: Sequence[int]) -> list[RunTrace]:
    """One regularized-evolution run per seed, advanced in lockstep by
    :func:`run_lockstep`; returns their traces in seed order.

    Every step takes one child from each run, from the next S + 2
    values ``u`` of its stream: the entrants are ``floor(u[:S] * P)``, the
    new value is ``u[S]``, and the coordinate it replaces is
    ``floor(u[S + 1] * D)``.
    """
    size, sample = cfg.population_size, cfg.sample_size
    # fitness is kept oldest first; the genotypes are a ring whose oldest
    # member, the same in every run, sits at row `oldest`
    oldest = 0

    def propose(draw, genotypes, fitness):
        runs, _, dimension = genotypes.shape
        draws = draw(sample + 2)
        steps = np.arange(runs)
        parents = tournament_select(fitness, (draws[:, :sample] * size).astype(np.intp))
        children = genotypes[steps, (parents + oldest) % size]
        children[steps, (draws[:, sample + 1] * dimension).astype(np.intp)] = draws[:, sample]
        return children[:, None]

    def age(genotypes, fitness, children, child_fitness):
        # the oldest member leaves whatever its fitness
        nonlocal oldest
        fitness[:, :-1], fitness[:, -1] = fitness[:, 1:], child_fitness[:, 0]
        genotypes[:, oldest] = children[:, 0]
        oldest = (oldest + 1) % size

    return run_lockstep(bench, cfg.budget, seeds, size, propose, age, "re",
                        {k: v for k, v in vars(cfg).items() if k != "budget"})
