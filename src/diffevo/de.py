"""Canonical differential evolution (rand/1/bin) on unit-hypercube genotypes.

The population is an (NP, D) genotype array in continuous [0, 1]^D space,
whatever the parameter types underneath, plus a fitness vector; genotypes
are discretized only when a candidate is evaluated. Replacement is
synchronous: every trial of a generation reads the same population, so a
generation is one step over whole arrays. Each target row gets a mutant
built from three distinct other rows (rand/1), crossed binomially with the
target; the (NP, D) trial block is evaluated in one recorder call, and each
trial replaces its target when at least as good (ties to the trial).

Out-of-bounds mutant coordinates are clipped back into [0, 1], the simplest
rule that keeps every genotype inside the hypercube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import Benchmark
from .trace import Budget, RunRecorder, RunTrace

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


def parent_indices(population_size: int, rng: np.random.Generator) -> np.ndarray:
    """(NP, 3) parent rows: row ``i`` is an ordered triple of distinct rows other than ``i``.

    Each row ranks the other members by one uniform key apiece (the target's
    own key is +inf) and takes the three lowest, so every ordered triple of
    other members is equally likely in each row.
    """
    keys = rng.random((population_size, population_size))
    np.fill_diagonal(keys, np.inf)
    return np.argsort(keys, axis=1)[:, :3]


def mutant_vector(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, scaling_factor: float) -> np.ndarray:
    """rand/1 mutant: ``x1 + F * (x2 - x3)``, clipped coordinatewise to [0, 1]."""
    return np.clip(x1 + scaling_factor * (x2 - x3), 0.0, 1.0)


def crossover_binomial(target: np.ndarray, mutant: np.ndarray, crossover_rate: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Binomial crossover along the last axis, with one forced mutant dimension.

    In every vector a uniformly drawn index always inherits from the mutant
    (otherwise a crossover rate of 0 would reproduce the target exactly and
    the trial could make no progress); every other dimension takes the
    mutant's value with probability ``crossover_rate``.
    """
    if target.shape != mutant.shape:
        raise ValueError(f"target and mutant shapes differ: {target.shape} vs {mutant.shape}")
    take_mutant = rng.random(target.shape) < crossover_rate
    forced = rng.integers(target.shape[-1], size=target.shape[:-1])
    np.put_along_axis(take_mutant, forced[..., None], True, axis=-1)
    return np.where(take_mutant, mutant, target)


def run_de(bench: Benchmark, cfg: DEConfig, seed: int) -> RunTrace:
    """One differential-evolution run; returns the full evaluation trace.

    The budget is checked before every evaluation, so the run may stop in
    the middle of initialization or mid-generation. Invalid configurations
    cost nothing and score 1.0, guaranteed to lose every selection against
    a valid member.
    """
    rng = np.random.default_rng(seed)
    recorder = RunRecorder(bench, cfg.budget)
    size = cfg.population_size
    genotypes = rng.random((size, bench.space.dimension))
    fitness = recorder.evaluate(genotypes)
    while len(fitness) == size:
        r1, r2, r3 = parent_indices(size, rng).T
        mutants = mutant_vector(genotypes[r1], genotypes[r2], genotypes[r3], cfg.scaling_factor)
        trials = crossover_binomial(genotypes, mutants, cfg.crossover_rate, rng)
        trial_fitness = recorder.evaluate(trials)
        if len(trial_fitness) < size:
            break  # the budget ran out mid-generation, which ends the run
        wins = trial_fitness <= fitness
        genotypes[wins], fitness[wins] = trials[wins], trial_fitness[wins]
    return recorder.finish(seed=seed, optimizer_id="de", config={
        "population_size": cfg.population_size,
        "scaling_factor": cfg.scaling_factor,
        "crossover_rate": cfg.crossover_rate,
    })
