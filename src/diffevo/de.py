"""Canonical differential evolution (rand/1/bin) on unit-hypercube genotypes.

The population is an (NP, D) genotype array in continuous [0, 1]^D space,
whatever the parameter types underneath, plus a fitness vector; genotypes
are discretized only when a candidate is evaluated. Each generation, for
every target row, a mutant is built from three distinct other rows
(rand/1), crossed binomially with the target, evaluated, and the better of
target/trial (ties to the trial) is written into copies of both arrays.
Replacement is synchronous: all mutations in a generation read the current
population.

Out-of-bounds mutant coordinates are clipped back into [0, 1], the simplest
rule that keeps every genotype inside the hypercube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import Benchmark
from .space import SearchSpace
from .trace import Budget, BudgetExhausted, RunRecorder, RunTrace

MIN_POPULATION = 4  # target plus three distinct mutation parents


@dataclass(frozen=True)
class DEConfig:
    population_size: int = 20
    scaling_factor: float = 0.5
    crossover_rate: float = 0.5
    budget: Budget = field(default_factory=lambda: Budget(max_evaluations=1000))

    def __post_init__(self):
        if self.population_size < MIN_POPULATION:
            raise ValueError(
                f"population size must be >= {MIN_POPULATION}, got {self.population_size}"
            )
        if self.scaling_factor < 0:
            raise ValueError(f"scaling factor must be >= 0, got {self.scaling_factor}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover rate must be in [0, 1], got {self.crossover_rate}")


def draw_parent_indices(population_size: int, target: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """Three indices, pairwise distinct and distinct from ``target``.

    Draws from the ``population_size - 1`` other members and shifts indices
    at or above the target past it.
    """
    r = rng.choice(population_size - 1, size=3, replace=False)
    return tuple((r + (r >= target)).tolist())


def mutant_vector(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, scaling_factor: float) -> np.ndarray:
    """rand/1 mutant: ``x1 + F * (x2 - x3)``, clipped coordinatewise to [0, 1]."""
    return np.clip(x1 + scaling_factor * (x2 - x3), 0.0, 1.0)


def crossover_binomial(target: np.ndarray, mutant: np.ndarray, crossover_rate: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Binomial crossover with one forced mutant dimension.

    A uniformly drawn index always inherits from the mutant (otherwise a
    crossover rate of 0 would reproduce the target exactly and the trial
    could make no progress); every other dimension takes the mutant's value
    with probability ``crossover_rate``.
    """
    if len(target) != len(mutant):
        raise ValueError(
            f"target and mutant dimensions differ: {len(target)} vs {len(mutant)}"
        )
    dimension = len(target)
    j_rand = int(rng.integers(dimension))
    take_mutant = rng.random(dimension) < crossover_rate
    take_mutant[j_rand] = True
    return np.where(take_mutant, mutant, target)


def trial_wins(target_fitness: float, trial_fitness: float) -> bool:
    """Selection: the trial replaces the target when at least as good."""
    return trial_fitness <= target_fitness


def run_de(space: SearchSpace, bench: Benchmark, cfg: DEConfig, seed: int) -> RunTrace:
    """One differential-evolution run; returns the full evaluation trace.

    The budget is checked before every evaluation, so the run may stop in
    the middle of initialization or mid-generation. Invalid configurations
    cost nothing and score 1.0, guaranteed to lose every selection against
    a valid member.
    """
    rng = np.random.default_rng(seed)
    recorder = RunRecorder(bench, cfg.budget)
    size = cfg.population_size
    genotypes = rng.random((size, space.dimension))
    fitness = np.empty(size)
    try:
        for i in range(size):
            fitness[i] = recorder.evaluate(genotypes[i], space)
        while True:
            # every mutation reads this generation; winners go into copies
            next_genotypes, next_fitness = genotypes.copy(), fitness.copy()
            for i in range(size):
                r1, r2, r3 = draw_parent_indices(size, i, rng)
                mutant = mutant_vector(genotypes[r1], genotypes[r2], genotypes[r3],
                                       cfg.scaling_factor)
                trial = crossover_binomial(genotypes[i], mutant, cfg.crossover_rate, rng)
                trial_fitness = recorder.evaluate(trial, space)
                if trial_wins(fitness[i], trial_fitness):
                    next_genotypes[i], next_fitness[i] = trial, trial_fitness
            genotypes, fitness = next_genotypes, next_fitness
    except BudgetExhausted:
        pass
    return recorder.finish(seed=seed, optimizer_id="de", config={
        "population_size": cfg.population_size,
        "scaling_factor": cfg.scaling_factor,
        "crossover_rate": cfg.crossover_rate,
    })
