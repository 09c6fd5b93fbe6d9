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

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .benchmarks import Benchmark
from .trace import RunTrace

RunFn = Callable[[Benchmark, int], RunTrace]


def regret_series(trace: RunTrace, bench: Benchmark | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-event (validation, test) regret; test is None without test data.

    When ``bench`` is given it must be the benchmark the trace was produced
    against; otherwise the reference points stored in the trace are used.
    Events where the incumbent has no test error (for example while the
    incumbent is still an invalid configuration) carry NaN test regret.
    """
    if bench is not None:
        if bench.benchmark_id != trace.benchmark_id:
            raise ValueError(
                f"trace from {trace.benchmark_id!r} does not match benchmark {bench.benchmark_id!r}"
            )
        best_val, best_test = bench.best_validation_error, bench.best_test_error
    else:
        best_val, best_test = trace.best_validation_error, trace.best_test_error

    validation = trace.incumbent_objective - best_val
    if best_test is None:
        return validation, None
    return validation, trace.incumbent_test_error - best_test


def final_regrets(traces: Sequence[RunTrace]) -> np.ndarray:
    """Final validation regret of each trace."""
    return np.array([t.incumbent_objective[-1] - t.best_validation_error for t in traces])


def run_experiment(run_fn: RunFn, bench: Benchmark, n_runs: int, base_seed: int = 0,
                   jobs: int = 1) -> list[RunTrace]:
    """Independent runs with seeds ``base_seed .. base_seed + n_runs - 1``.

    Runs may execute concurrently (``jobs``); results come back in seed
    order regardless of completion order. A failing run propagates with its
    seed attached.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    seeds = range(base_seed, base_seed + n_runs)

    def one(seed: int) -> RunTrace:
        try:
            return run_fn(bench, seed)
        except Exception as exc:
            raise RuntimeError(f"run with seed {seed} failed: {exc}") from exc

    if jobs <= 1:
        return [one(seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, seeds))


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
    total = np.zeros(len(grid_times))
    count = np.zeros(len(grid_times), dtype=int)
    for times, regret in series:
        # index of the last event at or before each grid time; -1 = not started
        pos = np.searchsorted(times, grid_times, side="right") - 1
        started = pos >= 0
        total[started] += regret[pos[started]]
        count[started] += 1
    mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return AggregateCurve(times=grid_times, mean_regret=mean, n_runs=count)


def _build_grid(grid, points: int, all_times: list[np.ndarray]) -> np.ndarray:
    if isinstance(grid, str):
        if grid == "union":
            return np.unique(np.concatenate(all_times))
        if grid == "log":
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
    if np.any(np.diff(grid_times) < 0):
        raise ValueError("explicit grid must be ascending")
    return grid_times


def write_curve_csv(curve: AggregateCurve, path: str | Path):
    """Write an aggregate curve as ``time,mean_regret,n_runs`` CSV."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mean_regret", "n_runs"])
        for t, r, n in zip(curve.times, curve.mean_regret, curve.n_runs):
            writer.writerow([repr(float(t)), repr(float(r)), int(n)])
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
