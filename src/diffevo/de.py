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


def parent_indices(u: np.ndarray) -> np.ndarray:
    """(..., NP, 3) parent rows from (..., NP, 3) uniforms in [0, 1): row ``i``
    is an ordered triple of distinct rows other than ``i``, each equally likely.

    Row ``i`` takes offsets past itself, so that it drops out of every
    exclusion: ``floor(u0 * (NP - 1))``, ``floor(u1 * (NP - 2))`` stepped past
    the first, and ``floor(u2 * (NP - 3))`` stepped past the lower and then the
    higher of those two. Its parents are ``(i + 1 + offset) % NP``.
    """
    size = u.shape[-2]
    offsets = (u * np.array([size - 1, size - 2, size - 3])).astype(np.intp)  # floors
    d0, d1, d2 = offsets[..., 0], offsets[..., 1], offsets[..., 2]
    d1 += d1 >= d0
    d2 += d2 >= np.minimum(d0, d1)
    d2 += d2 >= np.maximum(d0, d1)
    offsets += np.arange(1, size + 1)[:, None]
    return offsets % size


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

    Every step is one generation of each live run, which takes the next
    NP * (3 + D + 1) values of its stream: the (NP, 3) uniforms of
    :func:`parent_indices`, NP * D crossover values, then NP uniforms ``u``
    whose ``floor(u * D)`` are the forced dimensions. The budget is checked
    before every evaluation, so a run may stop mid-initialization or
    mid-generation. Invalid
    configurations cost nothing and score 1.0, so they lose every selection
    against a valid member of lower error; ties, a valid member's 1.0 among
    them, go to the trial.
    """
    def generation(draw, genotypes, fitness):
        live, size, dimension = genotypes.shape
        flat = draw(size * (3 + dimension + 1))
        parents = parent_indices(flat[:, :3 * size].reshape(live, size, 3))
        draws = flat[:, 3 * size:-size].reshape(live, size, dimension)
        forced = (flat[:, -size:] * dimension).astype(np.intp)  # floor(u * D)
        # rows of the (live * NP, D) population, shaped (3, live, NP): x1s, x2s, x3s
        rows = parents.transpose(2, 0, 1) + np.arange(0, live * size, size)[:, None]
        x1, x2, x3 = genotypes.reshape(-1, dimension).take(rows, axis=0)
        mutants = mutant_vector(x1, x2, x3, cfg.scaling_factor)
        return crossover_binomial(genotypes, mutants, cfg.crossover_rate, draws, forced)

    def select(genotypes, fitness, trials, trial_fitness):
        wins = trial_fitness <= fitness  # ties go to the trial
        np.copyto(genotypes, trials, where=wins[..., None])
        np.copyto(fitness, trial_fitness, where=wins)

    return run_lockstep(bench, cfg.budget, seeds, cfg.population_size, generation, select, "de",
                        {k: v for k, v in vars(cfg).items() if k != "budget"})
