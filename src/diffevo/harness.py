"""Multi-seed experiments, regret series, and anytime-curve aggregation.

Regret is measured against the benchmark's best achievable errors:
validation regret is the incumbent validation error minus the best
validation error; test regret uses the test error of the *validation*
incumbent minus the best test error.

Aggregation treats each run's regret as a right-continuous step function of
cumulative cost (an incumbent is constant until beaten; interpolating
linearly would fabricate progress). A run contributes to a grid point only
from its first event's time onward, and the per-point count of contributing
runs is reported alongside the mean.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .benchmarks import Benchmark
from .trace import Budget, RunRecorder, RunTrace, _spell_floats

# a runner makes the runs of an experiment's seeds and returns their traces in
# seed order; a run that raises ends the runner with run_failure() of the
# lowest failing seed, as running the seeds one after another would
RunFn = Callable[[Benchmark, Sequence[int]], list[RunTrace]]

# rows per write of a curve CSV: bounds the text held in memory at once
_CSV_CHUNK_ROWS = 4096


def regret_series(trace: RunTrace) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-event (validation, test) regret against the reference points stored
    in the trace; test is None without test data.

    Events where the incumbent has no test error (for example while the
    incumbent is still an invalid configuration) carry NaN test regret.
    """
    validation = trace.incumbent_objective - trace.best_validation_error
    if trace.best_test_error is None:
        return validation, None
    return validation, trace.incumbent_test_error - trace.best_test_error


def final_regrets(traces: Sequence[RunTrace]) -> np.ndarray:
    """Final validation regret of each trace."""
    return np.array([t.incumbent_objective[-1] - t.best_validation_error for t in traces])


def run_lockstep(bench: Benchmark, budget: Budget, seeds: Sequence[int], population_size: int,
                 propose: Callable, replace: Callable, optimizer_id: str,
                 config: dict) -> list[RunTrace]:
    """One run of an optimizer per seed, all advanced together through one
    :class:`RunRecorder`; returns their traces in seed order.

    Each run draws its initial (P, D) population from its own generator.
    Each step, ``propose(rngs, genotypes, fitness)`` returns the (R, k, D)
    children of the R live runs, each drawn from its run's own generator,
    and ``replace(genotypes, fitness, children, child_fitness)`` updates the
    populations of the runs still going in place. So a run draws and
    records exactly what it would alone.
    """
    seeds = list(seeds)
    dimension = bench.space.dimension
    rngs = [np.random.default_rng(seed) for seed in seeds]
    recorder = RunRecorder(bench, budget, len(seeds))
    genotypes = np.reshape([rng.random((population_size, dimension)) for rng in rngs],
                           (len(seeds), population_size, dimension))
    fitness, keep = recorder.evaluate(genotypes)
    genotypes, fitness, rngs = genotypes[keep], fitness[keep], [rngs[i] for i in keep]
    while rngs:
        children = propose(rngs, genotypes, fitness)
        child_fitness, keep = recorder.evaluate(children)
        if len(keep) < len(rngs):
            if not len(keep):
                break
            genotypes, fitness, children, child_fitness = (
                a[keep] for a in (genotypes, fitness, children, child_fitness))
            rngs = [rngs[i] for i in keep]
        replace(genotypes, fitness, children, child_fitness)
    return recorder.finish(seeds, optimizer_id, config)


def run_experiment(run_fn: RunFn, bench: Benchmark, n_runs: int, base_seed: int = 0,
                   jobs: int = 1) -> list[RunTrace]:
    """Independent runs with seeds ``base_seed .. base_seed + n_runs - 1``,
    made by the runner ``run_fn`` (see :data:`RunFn`).

    With ``jobs`` above 1 the seeds are split into that many contiguous
    chunks, each handed to ``run_fn`` in its own thread; the traces come
    back in seed order, and a failure names the lowest failing seed.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    seeds = range(base_seed, base_seed + n_runs)
    if jobs <= 1:
        traces = run_fn(bench, seeds)
    else:
        jobs = min(jobs, n_runs)
        chunks = [seeds[k * n_runs // jobs:(k + 1) * n_runs // jobs] for k in range(jobs)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            traces = [trace for part in pool.map(lambda chunk: run_fn(bench, chunk), chunks)
                      for trace in part]
    # a one-seed function passed as a runner would seed one run with all the
    # seeds, since a generator accepts a sequence of seeds as its entropy
    if not isinstance(traces, list) or [t.seed for t in traces] != list(seeds):
        raise TypeError("a runner must return one trace per seed, in seed order")
    return traces


@dataclass(frozen=True)
class AggregateCurve:
    """Mean validation regret over a time grid, with per-point run counts."""

    times: np.ndarray
    mean_regret: np.ndarray
    n_runs: np.ndarray


def aggregate(traces: Sequence[RunTrace], grid: str | Sequence[float] = "union",
              points: int = 512) -> AggregateCurve:
    """Aggregate runs of one benchmark into a mean anytime-regret curve.

    ``grid`` is ``"union"`` (all event times across runs), ``"log"``
    (``points`` log-spaced times between the earliest first event and the
    latest last event), or an explicit ascending sequence of times. Grid
    points earlier than every run's first event carry count 0 and NaN mean.
    """
    if not traces:
        raise ValueError("cannot aggregate an empty trace set")
    ids = {t.benchmark_id for t in traces}
    if len(ids) > 1:
        raise ValueError(f"traces from multiple benchmarks: {sorted(ids)}")

    series = []
    for trace in traces:
        validation, _ = regret_series(trace)
        series.append((trace.cumulative_cost, validation))

    grid_times = _build_grid(grid, points, [t for t, _ in series])
    n = len(grid_times)
    total = np.zeros(n)
    count = np.zeros(n, dtype=int)
    for times, regret in series:
        # event j is the latest one at grid points first[j] .. first[j + 1] - 1;
        # before first[0] the run has not started
        first = np.searchsorted(grid_times, times, side="left")
        total[first[0]:] += np.repeat(regret, np.diff(first, append=n))
        count[first[0]:] += 1
    mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return AggregateCurve(times=grid_times, mean_regret=mean, n_runs=count)


def _build_grid(grid, points: int, all_times: list[np.ndarray]) -> np.ndarray:
    if isinstance(grid, str):
        if grid == "union":
            return np.unique(np.concatenate(all_times))
        if grid == "log":
            if points < 1:
                raise ValueError(f"the log grid needs at least 1 point, got {points}")
            start = min(t[0] for t in all_times)
            stop = max(t[-1] for t in all_times)
            if start <= 0.0:
                positive = np.concatenate(all_times)
                positive = positive[positive > 0]
                if positive.size == 0:
                    return np.unique(np.concatenate(all_times))
                start = positive.min()
            if start >= stop:
                return np.array([stop])
            return np.geomspace(start, stop, points)
        raise ValueError(f"unknown grid {grid!r}; use 'union', 'log', or explicit times")
    grid_times = np.asarray(grid, dtype=float)
    if grid_times.ndim != 1 or len(grid_times) < 1:
        raise ValueError("explicit grid must be a non-empty 1-d sequence")
    if not np.all(grid_times[1:] >= grid_times[:-1]):  # NaN is not ascending either
        raise ValueError("explicit grid must be ascending")
    return grid_times


def write_curve_csv(curve: AggregateCurve, path: str | Path):
    """Write an aggregate curve as ``time,mean_regret,n_runs`` CSV, atomically
    (temp file then rename), in the bytes ``csv.writer`` would give: floats
    by ``repr``, rows ended by ``\\r\\n``, written a chunk of rows at a time."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write("time,mean_regret,n_runs\r\n")
        for start in range(0, len(curve.times), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            regrets = _spell_floats(curve.mean_regret[rows], nan="nan", inf="inf")
            fh.write("".join(f"{t!r},{r},{n}\r\n" for t, r, n in zip(
                curve.times[rows].tolist(), regrets, curve.n_runs[rows].tolist())))
    tmp.replace(path)


def paired_sign_test(x: Sequence[float], y: Sequence[float]) -> float:
    """One-sided sign test p-value for the alternative "x is below y".

    Pairs are compared elementwise; ties are dropped. The p-value is the
    exact chance of at least as many wins in as many fair coin flips.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"paired series differ in shape: {x.shape} vs {y.shape}")
    wins = int(np.sum(x < y))
    decided = int(np.sum(x != y))
    if decided == 0:
        return 1.0
    return sum(math.comb(decided, k) for k in range(wins, decided + 1)) / 2**decided
