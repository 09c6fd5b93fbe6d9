"""Canonical differential evolution (rand/1/bin) on unit-hypercube genotypes.

The population is an (NP, D) genotype array in continuous [0, 1]^D space,
whatever the parameter types underneath, plus a fitness vector; genotypes
are discretized only when a candidate is evaluated. Replacement is
synchronous: every trial of a generation reads the same population, so a
generation is one step over whole arrays. Each target row gets a mutant
built from three distinct other rows (rand/1), crossed binomially with the
target; the (NP, D) trial block is evaluated at once, and each trial
replaces its target when at least as good (ties to the trial). The runs of
an experiment are independent, so they advance together as (R, NP, D)
genotypes and (R, NP) fitness, and one benchmark call scores every live
run's trials.

Out-of-bounds mutant coordinates are clipped back into [0, 1], the simplest
rule that keeps every genotype inside the hypercube.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .benchmarks import Benchmark
from .harness import run_lockstep
from .trace import Budget, RunTrace

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
                f"population_size must be >= {MIN_POPULATION}, got {self.population_size}"
            )
        if not 0 <= self.scaling_factor < np.inf:
            raise ValueError(f"scaling_factor must be finite and >= 0, got {self.scaling_factor}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate must be in [0, 1], got {self.crossover_rate}")


def parent_indices(keys: np.ndarray) -> np.ndarray:
    """(..., NP, 3) parent rows from (..., NP, NP) uniform keys: row ``i`` is
    an ordered triple of distinct rows other than ``i``.

    Each row ranks the other members by its keys (the target's own key is
    set to +inf, in place) and takes the three lowest, so every ordered
    triple of other members is equally likely in each row.
    """
    diagonal = np.arange(keys.shape[-1])
    keys[..., diagonal, diagonal] = np.inf
    return keys.argsort(axis=-1)[..., :3]


def mutant_vector(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, scaling_factor: float) -> np.ndarray:
    """rand/1 mutant: ``x1 + F * (x2 - x3)``, clipped coordinatewise to [0, 1]."""
    return np.minimum(np.maximum(x1 + scaling_factor * (x2 - x3), 0.0), 1.0)


def crossover_binomial(target: np.ndarray, mutant: np.ndarray, crossover_rate: float,
                       draws: np.ndarray, forced: np.ndarray) -> np.ndarray:
    """Binomial crossover along the last axis, with one forced mutant dimension.

    In every vector the index ``forced`` holds always inherits from the
    mutant (otherwise a crossover rate of 0 would reproduce the target
    exactly and the trial could make no progress); every other dimension
    takes the mutant's value where its uniform ``draws`` value is below
    ``crossover_rate``.
    """
    if target.shape != mutant.shape:
        raise ValueError(f"target and mutant shapes differ: {target.shape} vs {mutant.shape}")
    take_mutant = (draws < crossover_rate) | (np.arange(target.shape[-1]) == forced[..., None])
    return np.where(take_mutant, mutant, target)


def run_de(bench: Benchmark, cfg: DEConfig, seeds: Sequence[int]) -> list[RunTrace]:
    """One differential-evolution run per seed, advanced in lockstep by
    :func:`run_lockstep`; returns their traces in seed order.

    Every step is one generation of each live run, drawn in one call to its
    own generator: NP * NP parent keys, NP * D crossover values, then NP
    uniforms ``u`` whose ``floor(u * D)`` are the forced dimensions. The
    budget is checked before every evaluation, so a run may stop mid-
    initialization or mid-generation. Invalid configurations cost nothing
    and score 1.0, so they lose every selection against a valid member of
    lower error; ties, a valid member's 1.0 among them, go to the trial.
    """
    def generation(rngs, genotypes, fitness):
        live, size, dimension = genotypes.shape
        flat = np.empty((live, size * (size + dimension + 1)))
        for row, rng in zip(flat, rngs):
            rng.random(out=row)
        keys = flat[:, :size * size].reshape(live, size, size)
        draws = flat[:, size * size:-size].reshape(live, size, dimension)
        forced = (flat[:, -size:] * dimension).astype(np.intp)  # floor(u * D)
        # rows of the (live * NP, D) population, shaped (3, live, NP): x1s, x2s, x3s
        rows = parent_indices(keys).transpose(2, 0, 1) + np.arange(0, live * size, size)[:, None]
        x1, x2, x3 = genotypes.reshape(-1, dimension).take(rows, axis=0)
        mutants = mutant_vector(x1, x2, x3, cfg.scaling_factor)
        return crossover_binomial(genotypes, mutants, cfg.crossover_rate, draws, forced)

    def select(genotypes, fitness, trials, trial_fitness):
        wins = trial_fitness <= fitness  # ties go to the trial
        genotypes[wins], fitness[wins] = trials[wins], trial_fitness[wins]

    return run_lockstep(bench, cfg.budget, seeds, cfg.population_size, generation, select, "de",
                        {k: v for k, v in vars(cfg).items() if k != "budget"})
