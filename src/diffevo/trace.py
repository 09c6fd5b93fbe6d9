"""Run traces: the unit of all analysis.

Every optimizer run produces a :class:`RunTrace`: one numpy array per event
field, among them the cumulative cost and the best-so-far (incumbent)
objective. The :class:`RunRecorder` centralizes the shared run mechanics:
the budget check before each evaluation, discretizing a copy of the
genotype, the invalid-configuration penalty (error 1.0 at zero cost), and
incumbent tracking.

Traces persist as JSON Lines: one header line per run followed by one line
per event. The header carries the benchmark's best-known errors so trace
files can be re-aggregated without reloading the benchmark.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .benchmarks import Benchmark
from .space import SearchSpace


@dataclass(frozen=True)
class Budget:
    """Evaluation and/or cost limit; a run stops at whichever hits first."""

    max_evaluations: int | None = None
    max_cost: float | None = None

    def __post_init__(self):
        if self.max_evaluations is None and self.max_cost is None:
            raise ValueError("budget needs max_evaluations and/or max_cost")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError(f"max_evaluations must be positive, got {self.max_evaluations}")
        if self.max_cost is not None and self.max_cost <= 0:
            raise ValueError(f"max_cost must be positive, got {self.max_cost}")


# per-event fields, in the order of a recorder row
COLUMNS = ("cumulative_cost", "objective", "incumbent_objective", "incumbent_test_error", "valid")
EVENT_FIELDS = ("eval_index", *COLUMNS)
# required in a trace file; a run header may also carry a "config" object
_HEADER_KEYS = frozenset(("seed", "optimizer", "benchmark", "best_validation_error",
                          "best_test_error"))
_EVENT_KEYS = frozenset(EVENT_FIELDS)


@dataclass(frozen=True, eq=False)
class RunTrace:
    """One optimizer run: identity, benchmark reference points, and one
    array per event field. Event ``i`` is row ``i`` of every column;
    ``incumbent_test_error`` is NaN where the incumbent has no test error.
    """

    seed: int
    optimizer_id: str
    benchmark_id: str
    best_validation_error: float
    best_test_error: float | None
    cumulative_cost: np.ndarray
    objective: np.ndarray
    incumbent_objective: np.ndarray
    incumbent_test_error: np.ndarray
    valid: np.ndarray
    config: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.objective)


def _columns(rows: list[tuple]) -> dict[str, np.ndarray]:
    """Columns from non-empty rows ordered like :data:`COLUMNS`; None becomes NaN."""
    return {name: np.array(column, dtype=bool if name == "valid" else float)
            for name, column in zip(COLUMNS, zip(*rows))}


class BudgetExhausted(Exception):
    """Internal control flow: raised by the recorder when the budget is hit."""


class RunRecorder:
    """Accumulates the event rows of a single sequential run.

    ``evaluate`` checks the budget first and raises :class:`BudgetExhausted`
    once a limit is reached, so optimizer loops need no explicit budget
    bookkeeping and may stop mid-generation.
    """

    def __init__(self, bench: Benchmark, budget: Budget):
        self.bench = bench
        self.budget = budget
        self.rows: list[tuple] = []  # one tuple per event, ordered like COLUMNS
        self.cumulative_cost = 0.0
        self._inc_objective = math.inf
        self._inc_test: float | None = None
        self._inc_valid = False

    def exhausted(self) -> bool:
        if (self.budget.max_evaluations is not None
                and len(self.rows) >= self.budget.max_evaluations):
            return True
        if self.budget.max_cost is not None and self.cumulative_cost >= self.budget.max_cost:
            return True
        return False

    def evaluate(self, genotype: np.ndarray, space: SearchSpace) -> float:
        """Discretize a copy of ``genotype``, evaluate it, record the event.

        Returns the fitness the optimizer should use: the validation error
        for valid configurations, 1.0 for invalid ones (at zero cost).
        """
        if self.exhausted():
            raise BudgetExhausted
        result = self.bench.evaluate(space.discretize(genotype))
        if result.valid:
            objective = result.validation_error
            cost = result.cost_seconds
            test = result.test_error
        else:
            objective, cost, test = 1.0, 0.0, None
        self.cumulative_cost += cost

        # a valid configuration displaces an invalid incumbent even on ties,
        # so an invalid point never stays incumbent once a valid one is seen
        better = objective < self._inc_objective or (
            result.valid and not self._inc_valid and objective <= self._inc_objective
        )
        if better:
            self._inc_objective = objective
            self._inc_test = test
            self._inc_valid = result.valid

        self.rows.append((self.cumulative_cost, objective, self._inc_objective,
                          self._inc_test, result.valid))
        return objective

    def finish(self, seed: int, optimizer_id: str, config: dict | None = None) -> RunTrace:
        trace = RunTrace(
            seed=seed,
            optimizer_id=optimizer_id,
            benchmark_id=self.bench.benchmark_id,
            best_validation_error=self.bench.best_validation_error,
            best_test_error=self.bench.best_test_error,
            config=dict(config or {}),
            **_columns(self.rows),
        )
        check_trace_invariants(trace)
        return trace


def check_trace_invariants(trace: RunTrace):
    """Raise ValueError when a trace violates the recorded-run contract.

    Checked for every produced and every read trace: objectives in [0, 1],
    non-decreasing cumulative cost with zero increments on invalid
    evaluations, a non-increasing incumbent, and non-negative regret
    against the benchmark's best validation error. The message names the
    first offending event.
    """
    if not len(trace):
        raise ValueError("trace has no events")
    cost, objective, incumbent = trace.cumulative_cost, trace.objective, trace.incumbent_objective
    prev_cost = np.concatenate(([0.0], cost[:-1]))
    prev_incumbent = np.concatenate(([math.inf], incumbent[:-1]))
    # negated comparisons, so that NaN (null in a file) is a violation too
    violations = np.stack([
        ~((0.0 <= objective) & (objective <= 1.0)),
        ~(cost >= prev_cost),
        ~trace.valid & (cost != prev_cost),
        ~(incumbent <= prev_incumbent),
        incumbent < trace.best_validation_error,
    ])
    bad = np.flatnonzero(violations.any(axis=0))
    if bad.size == 0:
        return
    i = int(bad[0])
    messages = (
        f"objective {objective[i]} outside [0, 1]",
        "cumulative cost decreased or is not a number",
        "invalid evaluation accrued cost",
        "incumbent objective increased or is not a number",
        "incumbent beats the benchmark's best (negative regret)",
    )
    raise ValueError(f"event {i} of {trace.optimizer_id} run (seed {trace.seed}): "
                     f"{messages[int(np.argmax(violations[:, i]))]}")


def _header_line(trace: RunTrace) -> str:
    return json.dumps({"run": {
        "seed": trace.seed,
        "optimizer": trace.optimizer_id,
        "benchmark": trace.benchmark_id,
        "best_validation_error": trace.best_validation_error,
        "best_test_error": trace.best_test_error,
        "config": trace.config,
    }}, separators=(",", ":"), sort_keys=True)


def write_traces(traces: list[RunTrace], path: str | Path):
    """Write traces as JSON Lines, atomically (temp file then rename)."""
    path = Path(path)
    lines = []
    for trace in traces:
        lines.append(_header_line(trace))
        test = [None if math.isnan(t) else t for t in trace.incumbent_test_error.tolist()]
        rows = zip(trace.cumulative_cost.tolist(), trace.objective.tolist(),
                   trace.incumbent_objective.tolist(), test, trace.valid.tolist())
        lines.extend(
            json.dumps(dict(zip(EVENT_FIELDS, (i, *row))), separators=(",", ":"), sort_keys=True)
            for i, row in enumerate(rows)
        )
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


_event_row = operator.itemgetter(*COLUMNS)


def read_traces(path: str | Path) -> list[RunTrace]:
    """Read a trace file; every run in it must pass :func:`check_trace_invariants`.

    Raises ValueError naming ``path:line`` for a line that is not JSON, is
    neither a run header nor an event, lacks a field, or carries an
    ``eval_index`` other than its position in the run.
    """
    path = Path(path)
    traces: list[RunTrace] = []
    header: dict | None = None
    header_line = 0
    rows: list[tuple] = []

    def flush():
        if header is None:
            return
        if not rows:
            raise ValueError(f"{path}: run (seed {header['seed']}) has no events")
        try:
            trace = RunTrace(
                seed=header["seed"],
                optimizer_id=header["optimizer"],
                benchmark_id=header["benchmark"],
                best_validation_error=header["best_validation_error"],
                best_test_error=header["best_test_error"],
                config=header.get("config", {}),
                **_columns(rows),
            )
            check_trace_invariants(trace)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{header_line}: {exc}") from exc
        traces.append(trace)

    def require(doc: dict, keys: frozenset[str], what: str, lineno: int):
        if not keys <= doc.keys():
            raise ValueError(f"{path}:{lineno}: {what} lacks fields {sorted(keys - doc.keys())}")

    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        if isinstance(doc, dict) and isinstance(doc.get("run"), dict):
            flush()
            header, header_line, rows = doc["run"], lineno, []
            require(header, _HEADER_KEYS, "run header", lineno)
        elif isinstance(doc, dict) and not doc.keys().isdisjoint(_EVENT_KEYS):
            if header is None:
                raise ValueError(f"{path}:{lineno}: event before any run header")
            require(doc, _EVENT_KEYS, "event", lineno)
            if type(doc["valid"]) is not bool:
                raise ValueError(f"{path}:{lineno}: valid must be true or false")
            if doc["eval_index"] != len(rows):
                raise ValueError(f"{path}:{lineno}: eval_index {doc['eval_index']} "
                                 f"!= position {len(rows)} in its run")
            rows.append(_event_row(doc))
        else:
            raise ValueError(f"{path}:{lineno}: unrecognized line")
    flush()
    if not traces:
        raise ValueError(f"{path}: no runs found")
    return traces
