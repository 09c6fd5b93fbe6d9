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
one benchmark call for every live run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .benchmarks import Benchmark
from .harness import run_failure
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
    """One regularized-evolution run per seed; returns their traces in seed order.

    The runs advance in lockstep: every step takes one child from each live
    run, and asks the benchmark once for all of them. Each run draws from
    its own generator exactly what it would draw alone, so its trace does
    not depend on the other runs, and it leaves as soon as its budget is
    spent. A run that raises is dropped with every run of a higher seed;
    the lower seeds finish, then the lowest failure is raised.
    """
    seeds = list(seeds)
    size, sample, dimension = cfg.population_size, cfg.sample_size, bench.space.dimension
    recorders = [RunRecorder(bench, cfg.budget) for _ in seeds]
    failure = None  # (run, error) of the lowest failing run so far
    runs, rngs, genotypes, fitness = [], [], [], []  # of the live runs, in seed order
    for run, (seed, recorder) in enumerate(zip(seeds, recorders)):
        rng = np.random.default_rng(seed)
        population = rng.random((size, dimension))
        try:
            population_fitness = recorder.evaluate(population)
        except Exception as exc:
            failure = run, exc
            break
        if not recorder.exhausted:
            runs.append(run)
            rngs.append(rng)
            genotypes.append(population)
            fitness.append(population_fitness)
    genotypes = np.reshape(genotypes, (len(runs), size, dimension))
    fitness = np.reshape(fitness, (len(runs), size))
    batch = getattr(bench, "evaluate_batch", None)
    while runs:
        live = len(runs)
        entrants = np.empty((live, sample), dtype=np.intp)
        values, coordinates = np.empty(live), np.empty(live, dtype=np.intp)
        for i, rng in enumerate(rngs):
            entrants[i] = rng.integers(0, size, size=sample)
            values[i] = rng.random()
            coordinates[i] = rng.integers(dimension)
        steps = np.arange(live)
        children = genotypes[steps, tournament_select(fitness, entrants)]
        children[steps, coordinates] = values
        try:
            rows = None if batch is None else batch(children)
        except Exception:
            rows = None  # ask for each child alone, so that a failure names its run
        child_fitness = np.empty(live)
        keep = []
        for i, run in enumerate(runs):
            recorder, child = recorders[run], children[i:i + 1]
            try:
                child_fitness[i] = (recorder.evaluate(child) if rows is None
                                    else recorder.record(child, rows[i:i + 1]))[0]
            except Exception as exc:
                failure = run, exc
                break
            if not recorder.exhausted:
                keep.append(i)
        # aging: the oldest member leaves whatever its fitness
        genotypes[:, :-1], fitness[:, :-1] = genotypes[:, 1:], fitness[:, 1:]
        genotypes[:, -1], fitness[:, -1] = children, child_fitness
        if len(keep) < live:
            runs, rngs = [runs[i] for i in keep], [rngs[i] for i in keep]
            genotypes, fitness = genotypes[keep], fitness[keep]
    config = {"population_size": size, "sample_size": sample}
    traces = []
    for run, (seed, recorder) in enumerate(zip(seeds, recorders)):
        try:
            if failure is not None and failure[0] == run:
                raise failure[1]
            traces.append(recorder.finish(seed=seed, optimizer_id="re", config=config))
        except Exception as exc:
            raise run_failure(seed, exc) from exc
    return traces
