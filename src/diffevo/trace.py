"""Run traces: the unit of all analysis.

Every optimizer run produces a :class:`RunTrace`: one numpy array per event
field, among them the cumulative cost and the best-so-far (incumbent)
objective. The :class:`RunRecorder` centralizes the shared run mechanics:
the budget check before each evaluation, discretizing genotype blocks, the
invalid-configuration penalty (error 1.0 at zero cost), and incumbent
tracking.

Traces persist as JSON Lines: one header line per run followed by one line
per event. The header carries the benchmark's best-known errors so trace
files can be re-aggregated without reloading the benchmark.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .benchmarks import Benchmark


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
        if self.max_cost is not None and not 0 < self.max_cost < math.inf:
            raise ValueError(f"max_cost must be positive and finite, got {self.max_cost}")


# under a cost-only budget, this many evaluations in a row that leave the
# cumulative cost unchanged (invalid or free) stop a run with ValueError
ZERO_COST_LIMIT = 100_000

# per-event fields, in the order of a recorder row
COLUMNS = ("cumulative_cost", "objective", "incumbent_objective", "incumbent_test_error", "valid")
EVENT_FIELDS = ("eval_index", *COLUMNS)
# the JSON types of the run header fields; all but "config" are required
_HEADER_TYPES = {"seed": ("an integer", int), "optimizer": ("a string", str),
                 "benchmark": ("a string", str), "best_validation_error": ("a number", int, float),
                 "best_test_error": ("a number or null", int, float, type(None)),
                 "config": ("an object", dict)}
_HEADER_KEYS = frozenset(_HEADER_TYPES) - {"config"}
# the JSON types of the event fields, in the order of EVENT_FIELDS; a null
# number reads as NaN, which check_trace_invariants rejects
_NUMBER = ("a number", int, float, type(None))
_EVENT_TYPES = {"eval_index": ("an integer", int), "cumulative_cost": _NUMBER,
                "objective": _NUMBER, "incumbent_objective": _NUMBER,
                "incumbent_test_error": ("a number or null", int, float, type(None)),
                "valid": ("true or false", bool)}
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


def _columns(columns) -> dict[str, np.ndarray]:
    """Arrays from non-empty columns ordered like :data:`COLUMNS`; None becomes NaN."""
    return {name: np.array(column, dtype=bool if name == "valid" else float)
            for name, column in zip(COLUMNS, columns)}


class RunRecorder:
    """Evaluates genotype blocks for one run and accumulates its event rows.

    Optimizers need no budget bookkeeping: a block may stop part-way, and
    every call after the budget is spent evaluates nothing.
    """

    def __init__(self, bench: Benchmark, budget: Budget):
        self.bench = bench
        self.budget = budget
        # one list per event field, ordered like COLUMNS
        self.columns: tuple[list, ...] = tuple([] for _ in COLUMNS)
        self._appends = tuple(column.append for column in self.columns)
        self.cumulative_cost = 0.0
        self._max_evaluations = (sys.maxsize if budget.max_evaluations is None
                                 else budget.max_evaluations)
        self._max_cost = math.inf if budget.max_cost is None else budget.max_cost
        self._free_limit = ZERO_COST_LIMIT if budget.max_evaluations is None else math.inf
        self._free = 0  # evaluations since the cumulative cost last changed
        self._incumbent = (math.inf, None, False)  # objective, test error, valid

    @property
    def exhausted(self) -> bool:
        """Whether the budget is spent, so the run may evaluate nothing more."""
        return (len(self.columns[1]) >= self._max_evaluations
                or self.cumulative_cost >= self._max_cost)

    def evaluate(self, genotypes: np.ndarray) -> np.ndarray:
        """Evaluate and record the rows of an (N, D) genotype block, in order.

        Returns the fitness of each evaluated row, as :meth:`record` does;
        fewer values than rows means the budget ran out. A benchmark without
        ``evaluate_batch`` is asked for each row only after the budget check
        before it; a batch may score rows past the cost limit, which are
        dropped.
        """
        if self.exhausted:
            return np.array([], dtype=float)
        # record() stops at the evaluation limit; cutting here as well keeps
        # a batch from scoring rows that could not be recorded
        genotypes = genotypes[:self._max_evaluations - len(self.columns[1])]
        bench = self.bench
        batch = getattr(bench, "evaluate_batch", None)
        rows = (batch(genotypes) if batch is not None
                else map(bench.evaluate, bench.space.discretize_rows(genotypes)))
        return np.array(self.record(genotypes, rows), dtype=float)

    def record(self, genotypes: np.ndarray, rows) -> list[float]:
        """Record the benchmark rows of ``genotypes``, in order, until the
        evaluation or the cost limit is reached; the budget must not be
        spent yet.

        Returns the fitness of each recorded row: the validation error, or
        1.0 (at zero cost) for an invalid configuration, one the benchmark
        gives no row. ``rows`` is consumed lazily, so no row is asked for
        past the evaluation limit or after the one that reaches the cost
        limit. :data:`ZERO_COST_LIMIT` stops a cost-only run that spends
        nothing, and a negative or NaN cost raises ValueError.
        """
        free_limit, max_cost = self._free_limit, self._max_cost
        cumulative, free = self.cumulative_cost, self._free
        inc_objective, inc_test, inc_valid = self._incumbent
        costs, objectives, incumbents, tests, valids = self._appends
        recorded = self.columns[1]
        start = len(recorded)
        for row in itertools.islice(rows, self._max_evaluations - start):
            valid = row is not None
            if valid:
                objective, test, cost = row
                spent = cumulative + cost
            else:
                objective, test, spent = 1.0, None, cumulative
            if spent > cumulative:
                cumulative, free = spent, 0
            elif spent == cumulative:
                free += 1
                if free >= free_limit:
                    raise ValueError(f"{free} evaluations in a row left the cumulative cost at "
                                     f"{cumulative!r}, so the cost budget may never be spent; "
                                     "add an evaluation limit (--evals)")
            else:  # only a valid row's cost can be negative or NaN
                config = self.bench.space.discretize(genotypes[len(recorded) - start])
                raise ValueError(f"benchmark cost {cost!r} of {config!r} is negative or "
                                 "not a number")
            # a valid configuration displaces an invalid incumbent even on ties,
            # so an invalid point never stays incumbent once a valid one is seen
            if objective < inc_objective or (
                    valid and not inc_valid and objective <= inc_objective):
                inc_objective, inc_test, inc_valid = objective, test, valid
            costs(cumulative)
            objectives(objective)
            incumbents(inc_objective)
            tests(inc_test)
            valids(valid)
            if cumulative >= max_cost:
                break
        self.cumulative_cost, self._free = cumulative, free
        self._incumbent = (inc_objective, inc_test, inc_valid)
        return recorded[start:]

    def finish(self, seed: int, optimizer_id: str, config: dict | None = None) -> RunTrace:
        trace = RunTrace(
            seed=seed,
            optimizer_id=optimizer_id,
            benchmark_id=self.bench.benchmark_id,
            best_validation_error=self.bench.best_validation_error,
            best_test_error=self.bench.best_test_error,
            config=dict(config or {}),
            **_columns(self.columns),
        )
        check_trace_invariants(trace)
        return trace


def check_trace_invariants(trace: RunTrace):
    """Raise ValueError when a trace violates the recorded-run contract.

    Checked for every produced and every read trace: finite best-known
    errors, objectives in [0, 1], non-decreasing cumulative cost with zero
    increments on invalid evaluations, a non-increasing incumbent, and
    non-negative regret against the benchmark's best validation error. The
    message names the first offending event.
    """
    if not len(trace):
        raise ValueError("trace has no events")
    if not math.isfinite(trace.best_validation_error):
        raise ValueError(f"best validation error {trace.best_validation_error} is not finite")
    if trace.best_test_error is not None and not math.isfinite(trace.best_test_error):
        raise ValueError(f"best test error {trace.best_test_error} is not finite")
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


def _json_floats(column: np.ndarray, nan: str = "NaN") -> list[str]:
    """Each value spelled as ``json.dumps`` spells a float: ``repr`` when finite.

    Each distinct value is spelled once. Values are told apart by their bit
    patterns, since comparing floats would merge -0.0 with 0.0.
    """
    bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.int64),
                              return_inverse=True)
    values = bits.view(np.float64)
    text = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        x = values[i]
        text[i] = nan if x != x else ("Infinity" if x > 0 else "-Infinity")
    return [text[i] for i in inverse.tolist()]


def write_traces(traces: list[RunTrace], path: str | Path):
    """Write traces as JSON Lines, atomically (temp file then rename), one run
    at a time; event lines are built column by column, byte for byte as
    ``json.dumps`` spells them."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        for trace in traces:
            fh.write(_header_line(trace) + "\n")
            columns = zip(_json_floats(trace.cumulative_cost),
                          _json_floats(trace.incumbent_objective),
                          _json_floats(trace.incumbent_test_error, nan="null"),
                          _json_floats(trace.objective),
                          ["true" if v else "false" for v in trace.valid.tolist()])
            fh.write("".join(
                f'{{"cumulative_cost":{cost},"eval_index":{i},"incumbent_objective":{incumbent},'
                f'"incumbent_test_error":{test},"objective":{objective},"valid":{valid}}}\n'
                for i, (cost, incumbent, test, objective, valid) in enumerate(columns)
            ))
    tmp.replace(path)


_decode = json.JSONDecoder().raw_decode
_field_getters = [operator.itemgetter(name) for name in EVENT_FIELDS]
_EVENT_TYPE_SETS = [frozenset(types) for _, *types in _EVENT_TYPES.values()]


def read_traces(path: str | Path) -> list[RunTrace]:
    """Read a trace file; every run in it must pass :func:`check_trace_invariants`.

    Raises ValueError naming ``path:line`` for a line that is not JSON, is
    neither a run header nor an event, lacks a field, has a field of the
    wrong JSON type, or carries an ``eval_index`` other than its position in
    the run. Lines are checked a run at a time, but the error is
    always the one for the first bad line.
    """
    path = Path(path)
    traces: list[RunTrace] = []
    header: dict | None = None
    header_line = 0
    events: list = []  # the decoded lines after the header, not yet checked
    linenos: list[int] = []

    def flush():
        columns = _event_columns(path, header, events, linenos)
        if header is None:
            return
        if not columns:
            raise ValueError(f"{path}: run (seed {header['seed']}) has no events")
        try:
            trace = RunTrace(
                seed=header["seed"],
                optimizer_id=header["optimizer"],
                benchmark_id=header["benchmark"],
                best_validation_error=header["best_validation_error"],
                best_test_error=header["best_test_error"],
                config=header.get("config", {}),
                **_columns(columns),
            )
            check_trace_invariants(trace)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{header_line}: {exc}") from exc
        traces.append(trace)

    # a line at a time: the file's text is never held whole, and lines end only
    # at a newline, not at the other breaks str.splitlines() knows, such as
    # U+2028, which JSON allows inside a string
    with open(path) as fh:
        lines = (line.rstrip("\n") for line in fh)
        for lineno, line in enumerate(lines, start=1):
            text = line.strip(" \t")  # JSON whitespace; the reader leaves no \r or \n
            try:
                doc, end = _decode(text)
            except json.JSONDecodeError:
                end = -1
            if end != len(text):
                if not line.strip():
                    continue
                _event_columns(path, header, events, linenos)  # an earlier bad line comes first
                try:
                    doc = json.loads(line)  # for the decoder's own message
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            run = doc.get("run") if type(doc) is dict else None
            if type(run) is not dict:
                events.append(doc)
                linenos.append(lineno)
                continue
            flush()
            header, header_line, events, linenos = run, lineno, [], []
            _require(path, lineno, header, _HEADER_KEYS, "run header")
            for name, (kind, *types) in _HEADER_TYPES.items():
                if type(header.get(name, {})) not in types:  # bool is not int here
                    raise ValueError(f"{path}:{lineno}: run header field {name!r} is not {kind}: "
                                     f"{header[name]!r}")
    flush()
    if not traces:
        raise ValueError(f"{path}: no runs found")
    return traces


def _require(path: Path, lineno: int, doc: dict, keys: frozenset[str], what: str):
    if not keys <= doc.keys():
        raise ValueError(f"{path}:{lineno}: {what} lacks fields {sorted(keys - doc.keys())}")


def _event_columns(path: Path, header: dict | None, events: list,
                   linenos: list[int]) -> list[list]:
    """The event lines of one run as columns ordered like :data:`COLUMNS`.

    All lines are checked at once; when a check fails, the lines are walked
    in order to raise the error for the first bad one.
    """
    if not events:
        return []
    if header is not None:
        try:
            index, *columns = [list(map(get, events)) for get in _field_getters]
        except (KeyError, TypeError):
            pass
        else:
            if index == list(range(len(events))) and all(
                    set(map(type, column)) <= types
                    for column, types in zip((index, *columns), _EVENT_TYPE_SETS)):
                return columns
    for position, (lineno, doc) in enumerate(zip(linenos, events)):
        if not isinstance(doc, dict) or doc.keys().isdisjoint(_EVENT_KEYS):
            raise ValueError(f"{path}:{lineno}: unrecognized line")
        if header is None:
            raise ValueError(f"{path}:{lineno}: event before any run header")
        _require(path, lineno, doc, _EVENT_KEYS, "event")
        if type(doc["valid"]) is not bool:
            raise ValueError(f"{path}:{lineno}: valid must be true or false")
        for name, (kind, *types) in _EVENT_TYPES.items():
            if type(doc[name]) not in types:  # bool is not int here
                raise ValueError(f"{path}:{lineno}: event field {name!r} is not {kind}: "
                                 f"{doc[name]!r}")
        if doc["eval_index"] != position:
            raise ValueError(f"{path}:{lineno}: eval_index {doc['eval_index']} "
                             f"!= position {position} in its run")
    raise AssertionError("the column checks and the line walk disagree")
