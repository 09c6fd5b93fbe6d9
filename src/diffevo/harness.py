"""The optimizers' shared lockstep loop, regret series, and anytime-curve aggregation.

An experiment is one optimizer call, such as ``run_de(bench, cfg, seeds)``;
:func:`run_lockstep` advances its runs together and returns their traces in
seed order, or raises ``run_failure()`` of the lowest failing seed.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .benchmarks import Benchmark, _replacing
from .trace import Budget, RunRecorder, RunTrace, _spell_floats

# rows per write of a curve CSV: bounds the text held in memory at once
_CSV_CHUNK_ROWS = 4096
# uniforms drawn ahead per refill, shared among the live runs: 512 KiB of doubles
DRAW_BLOCK = 2**16


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


class RunStreams:
    """The uniform streams of an experiment's live runs, one generator per
    seed, drawn ahead in blocks.

    ``streams(n)`` returns an (R, n) array whose row r holds the next n
    values of live run r's stream; the caller may overwrite them, since
    values once returned are never read again. A request that does not fit
    what is drawn ahead refills each live run's row, after its unconsumed
    tail, with one call to the run's generator: a row holds
    ``max(n, DRAW_BLOCK // R)`` values.
    """

    def __init__(self, seeds: Sequence[int]):
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.ahead, self.used = np.empty((len(self.rngs), 0)), 0  # `used` of each row are spent

    def __call__(self, n: int) -> np.ndarray:
        if self.used + n > self.ahead.shape[1]:
            tail = self.ahead[:, self.used:]
            self.ahead = np.empty((len(self.rngs), max(n, DRAW_BLOCK // len(self.rngs))))
            self.ahead[:, :tail.shape[1]] = tail
            for rng, row in zip(self.rngs, self.ahead):
                rng.random(out=row[tail.shape[1]:])
            self.used = 0
        self.used += n
        return self.ahead[:, self.used - n:self.used]

    def keep(self, rows: np.ndarray):
        """Keep only the streams of the live runs at positions ``rows``."""
        self.rngs = [self.rngs[i] for i in rows]
        self.ahead, self.used = self.ahead[rows, self.used:], 0


def run_lockstep(bench: Benchmark, budget: Budget, seeds: Sequence[int], population_size: int,
                 propose: Callable, replace: Callable, optimizer_id: str,
                 config: dict) -> list[RunTrace]:
    """One run of an optimizer per seed, all advanced together through one
    :class:`RunRecorder`; returns their traces in seed order.

    Each run takes the values of its own generator in order: first its
    initial (P, D) population, then whatever its steps ask for. Each step,
    ``propose(draw, genotypes, fitness)`` returns the (R, k, D) children of
    the R live runs, where ``draw`` is their :class:`RunStreams`, and
    ``replace(genotypes, fitness, children, child_fitness)`` updates the
    populations of the runs still going in place. So a run draws and
    records exactly what it would alone. How many values one generator
    call makes is not part of this contract, and values drawn past a run's
    end reach no trace. An empty ``seeds`` raises ValueError.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("an experiment needs at least one seed")
    dimension = bench.space.dimension
    draw = RunStreams(seeds)
    recorder = RunRecorder(bench, budget, len(seeds))
    genotypes = draw(population_size * dimension).reshape(len(seeds), population_size, dimension)
    fitness, keep = recorder.evaluate(genotypes)
    genotypes, fitness = genotypes[keep], fitness[keep]
    draw.keep(keep)
    while len(genotypes):
        children = propose(draw, genotypes, fitness)
        child_fitness, keep = recorder.evaluate(children)
        if len(keep) < len(genotypes):
            if not len(keep):
                break
            genotypes, fitness, children, child_fitness = (
                a[keep] for a in (genotypes, fitness, children, child_fitness))
            draw.keep(keep)
        replace(genotypes, fitness, children, child_fitness)
    return recorder.finish(seeds, optimizer_id, config)


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

    grid_times = _build_grid(grid, points, [t.cumulative_cost for t in traces])
    n = len(grid_times)
    total = np.zeros(n)
    count = np.zeros(n, dtype=int)
    for trace in traces:
        # event j is the latest one at grid points first[j] .. first[j + 1] - 1;
        # before first[0] the run has not started
        first = np.searchsorted(grid_times, trace.cumulative_cost, side="left")
        total[first[0]:] += np.repeat(regret_series(trace)[0], np.diff(first, append=n))
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
    (temp file then rename), in the bytes ``csv.writer`` would give: floats by
    ``repr``, rows ended by ``\\r\\n``; a chunk of rows is one join, each column
    set by one slice assignment, each distinct float or count spelled once."""
    with _replacing(path) as fh:
        fh.write("time,mean_regret,n_runs\r\n")
        for start in range(0, len(curve.times), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            counts, inverse = np.unique(curve.n_runs[rows], return_inverse=True)
            parts = [","] * (4 * len(inverse))
            parts[0::4] = _spell_floats(curve.times[rows], nan="nan", inf="inf")
            parts[2::4] = _spell_floats(curve.mean_regret[rows], nan="nan", inf="inf")
            ends = np.array([f",{n}\r\n" for n in counts.tolist()], dtype=object)
            parts[3::4] = ends[inverse].tolist()
            fh.write("".join(parts))


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
