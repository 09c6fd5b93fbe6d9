"""Run traces: the unit of all analysis.

Every optimizer run produces a :class:`RunTrace`: one numpy array per event
field, among them the cumulative cost and the best-so-far (incumbent)
objective. One :class:`RunRecorder` per experiment centralizes the shared
run mechanics for all its runs: the budget check before each evaluation,
the invalid-configuration penalty (error 1.0 at zero cost), and incumbent
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
from typing import Any, Sequence

import numpy as np

from .benchmarks import Benchmark, _undecodable


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


def run_failure(seed: int, exc: Exception) -> Exception:
    """The error that reports a run raising ``exc``, with its seed attached:
    a ValueError stays one, anything else becomes RuntimeError."""
    kind = ValueError if isinstance(exc, ValueError) else RuntimeError
    return kind(f"run with seed {seed} failed: {exc}")


# the incumbent key of an invalid row: above every valid objective in [0, 1],
# so that a valid row displaces an invalid incumbent even on a tie at 1.0
_INVALID_KEY = np.nextafter(1.0, 2.0)


class RunRecorder:
    """Evaluates genotype blocks for the runs of one experiment and records
    their events, one block of rows for every live run per call.

    Every call gives each run still going the same number of rows, so those
    runs share one event count. A run leaves once its budget is spent, which
    may cut its last block short, or when it fails; a failing run takes
    every later run along, and :meth:`finish` raises the lowest failure.
    """

    def __init__(self, bench: Benchmark, budget: Budget, runs: int = 1):
        self.bench = bench
        self.budget = budget
        self.live = np.arange(runs)  # the runs still going, in order
        self.lengths = np.zeros(runs, dtype=np.intp)  # the events of each run that left
        self.failure: tuple[int, Exception] | None = None  # (run, error) of the lowest failure
        self._events = 0  # the events of each live run
        self._max_evaluations = budget.max_evaluations or sys.maxsize
        self._free_limit = ZERO_COST_LIMIT if budget.max_evaluations is None else None
        self._paid = None  # once a run may reach the zero-cost limit: its last costly event
        # (objective, test error, cumulative cost, valid as 1.0 or 0.0) of each run
        # after each event; a run's columns past its own events mean nothing
        self.history = np.empty((4, runs, 0))

    def evaluate(self, genotypes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate and record an (L, k, D) block: k genotype rows for each of
        the L live runs, in the order of :attr:`live`.

        Returns the fitness of the rows (the validation error, or 1.0 at zero
        cost when invalid), which the caller owns since :attr:`history` keeps
        a copy, and the positions of the runs still going, which become
        :attr:`live`. The evaluation limit cuts the block before the
        benchmark sees it; a run records its rows up to the first that
        reaches the cost limit. Each run's cumulative cost adds its row costs
        in turn to its last recorded total. :data:`ZERO_COST_LIMIT` stops a
        cost-only run that spends nothing, and a negative or NaN cost fails
        a run.
        """
        genotypes = genotypes[:, :self._max_evaluations - self._events]
        if not genotypes.size:
            return np.empty(genotypes.shape[:2]), np.arange(len(genotypes))
        n, k = self._events, genotypes.shape[1]
        runs = self.live
        totals = self.history[2, :, n - 1][runs] if n else np.zeros(len(runs))
        block, failure = self._ask(genotypes, totals)
        cost = block[2]
        spent = np.add.accumulate(np.concatenate((totals[:len(cost), None], cost), axis=1), axis=1)
        # under a cost limit: which runs reach it, and the rows each run records
        gone = cut = None
        if self.budget.max_cost is not None:
            reached = spent[:, 1:] >= self.budget.max_cost
            if reached.any():
                gone = reached.any(axis=1)
                cut = np.where(gone, reached.argmax(axis=1) + 1, k)
        # a run can reach the zero-cost limit in this block only past this count
        watch_free = self._free_limit is not None and n + k >= self._free_limit
        if watch_free or not np.minimum.reduce(cost, axis=None, initial=math.inf) >= 0.0:
            failure = self._check_costs(genotypes, cost, spent, cut, watch_free) or failure
        if failure is not None:  # the runs from the failing one on record nothing
            q = failure[0]
            self.failure = int(runs[q]), failure[1]
            block, spent, runs = block[:, :q], spent[:q], runs[:q]
            if cut is not None:
                gone, cut = gone[:q], cut[:q]

        if n + k > self.history.shape[2]:
            grown = np.empty((4, len(self.lengths), min(2 * (n + k), self._max_evaluations)))
            grown[:, :, :n] = self.history[:, :, :n]
            self.history = grown
        block[2] = spent[:, 1:]
        self.history[:, runs, n:n + k] = block
        self._events = n + k
        if n + k >= self._max_evaluations:
            gone = np.ones(len(runs), dtype=bool)
        keep = np.arange(len(runs)) if gone is None else np.flatnonzero(~gone)
        if gone is not None:
            self.lengths[runs[gone]] = n + (k if cut is None else cut[gone])
        self.live = runs if gone is None else runs[keep]
        return block[0], keep

    def _check_costs(self, genotypes, cost, spent, cut, watch_free):
        """The (position, error) of the first run whose rows up to its cut
        hold a negative or NaN cost or reach the zero-cost limit, or None."""
        count, k = cost.shape
        n, before, after = self._events, spent[:, :-1], spent[:, 1:]
        fails = ~(after >= before)
        if watch_free:
            runs = self.live[:count]
            if self._paid is None:  # the first event count to see each run's total
                history = np.pad(self.history[2, :, :n], ((0, 0), (1, 0)))  # from 0
                self._paid = (history == history[:, -1:]).argmax(axis=1)
            events = np.arange(n + 1, n + k + 1)  # after each row
            paid = np.maximum.accumulate(
                np.where(after > before, events, self._paid[runs, None]), axis=1)
            fails |= events - paid >= self._free_limit
            self._paid[runs] = paid[:, -1]
        if cut is not None:
            fails &= np.arange(k) < cut[:, None]
        if not fails.any():
            return None
        run = int(fails.any(axis=1).argmax())
        row = int(fails[run].argmax())
        if after[run, row] >= before[run, row]:
            return run, ValueError(
                f"{self._free_limit} evaluations in a row left the cumulative cost at "
                f"{float(after[run, row])!r}, so the cost budget may never be spent; add an "
                "evaluation limit (--evals)")
        config = self.bench.space.discretize(genotypes[run, row])
        return run, ValueError(f"benchmark cost {float(cost[run, row])!r} of {config!r} is "
                               "negative or not a number")

    def _ask(self, genotypes: np.ndarray, totals: np.ndarray):
        """The (objective, test error, cost, valid) rows of an (L, k, D)
        block as one (4, q, k) float array for its first q runs, valid 1.0 or
        0.0, and None or the (q, error) of the run that raised; ``totals``
        holds each run's cumulative cost.

        One ``evaluate_batch`` call scores the whole block; when it raises,
        each run's rows are asked alone, so that a failure names its run.
        Without it, ``evaluate`` is asked for a row only after the budget
        check before it: the rows after one that reaches the cost limit are
        not asked for and stay invalid.
        """
        count, k, dimension = genotypes.shape
        batch = getattr(self.bench, "evaluate_batch", None)
        if batch is not None:
            try:
                rows = np.array(batch(genotypes.reshape(-1, dimension)), dtype=float)
                return rows.reshape(4, count, k), None
            except Exception:
                pass
        columns = np.zeros((4, count, k))  # an invalid row: 1.0, NaN, 0.0, not valid
        columns[0], columns[1] = 1.0, math.nan
        max_cost = math.inf if self.budget.max_cost is None else self.budget.max_cost
        for i, (block, spent) in enumerate(zip(genotypes, totals.tolist())):
            try:
                if batch is not None:
                    columns[:, i] = batch(block)
                    continue
                for j, config in enumerate(self.bench.space.discretize_rows(block)):
                    row = self.bench.evaluate(config)
                    if row is not None:
                        columns[:, i, j] = row[0], math.nan if row[1] is None else row[1], row[2], 1
                        spent += row[2]
                        if spent >= max_cost:
                            break
            except Exception as exc:
                return columns[:, :i], (i, exc)
        return columns, None

    def finish(self, seeds: Sequence[int], optimizer_id: str,
               config: dict | None = None) -> list[RunTrace]:
        """The trace of each run, in run order, named by ``seeds``.

        The incumbent after each event is the first row of the lowest key so
        far, where a row's key is its objective, or just above 1.0 when it is
        invalid, and a NaN objective never leads. A run that failed, or whose
        trace breaks :func:`check_trace_invariants`, raises
        :func:`run_failure` with its seed; the runs before it are checked
        first.
        """
        self.lengths[self.live] = self._events
        objective, test, cost, valid = self.history[:, :, :self._events]
        valid = valid != 0
        key = np.where(valid, objective, _INVALID_KEY)
        best = np.fmin.accumulate(key, axis=1)
        leads = key < np.concatenate((np.full((len(key), 1), math.inf), best[:, :-1]), axis=1)
        leader = (np.arange(len(key))[:, None],
                  np.maximum.accumulate(np.where(leads, np.arange(self._events), 0), axis=1))
        columns = (cost, objective, objective[leader], test[leader], valid)
        traces = []
        for run, seed in enumerate(seeds):
            try:
                if self.failure is not None and self.failure[0] == run:
                    raise self.failure[1]
                n = self.lengths[run]
                trace = RunTrace(seed, optimizer_id, self.bench.benchmark_id,
                                 self.bench.best_validation_error, self.bench.best_test_error,
                                 *(column[run, :n].copy() for column in columns),
                                 config=dict(config or {}))
                check_trace_invariants(trace)
            except Exception as exc:
                raise run_failure(seed, exc) from exc
            traces.append(trace)
        return traces


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
    with open(tmp, "w", encoding="utf-8") as fh:
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
    wrong JSON type or a number too large for a float, or carries an
    ``eval_index`` other than its position in the run. Lines are checked a run at a time, but the error is
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
                **columns,
            )
            check_trace_invariants(trace)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{header_line}: {exc}") from exc
        traces.append(trace)

    # a line at a time: the file's text is never held whole, and lines end only
    # at a newline, not at the other breaks str.splitlines() knows, such as
    # U+2028, which JSON allows inside a string; an undecodable byte reads as
    # a lone surrogate, and its line fails
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = (line.rstrip("\n") for line in fh)
        for lineno, line in enumerate(lines, start=1):
            text = line.strip(" \t")  # JSON whitespace; the reader leaves no \r or \n
            try:
                doc, end = _decode(text)
            except json.JSONDecodeError:
                end = -1
            if end != len(text) or not line.isascii() and _undecodable(line):
                if not line.strip():
                    continue
                _event_columns(path, header, events, linenos)  # an earlier bad line comes first
                if _undecodable(line):
                    raise ValueError(f"{path}:{lineno}: {_undecodable(line)}")
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
                if name.startswith("best_") and _too_large(header[name]):
                    raise ValueError(f"{path}:{lineno}: run header field {name!r} is too large "
                                     "for a float")
    flush()
    if not traces:
        raise ValueError(f"{path}: no runs found")
    return traces


def _require(path: Path, lineno: int, doc: dict, keys: frozenset[str], what: str):
    if not keys <= doc.keys():
        raise ValueError(f"{path}:{lineno}: {what} lacks fields {sorted(keys - doc.keys())}")


def _too_large(value) -> bool:
    """Whether ``value`` is an integer too large for a float."""
    return type(value) is int and abs(value) >= 2**1024 - 2**970


def _event_columns(path: Path, header: dict | None, events: list,
                   linenos: list[int]) -> dict[str, np.ndarray]:
    """The event lines of one run as arrays named like :data:`COLUMNS`.

    All lines are checked at once; when a check fails, the lines are walked
    in order to raise the error for the first bad one.
    """
    if not events:
        return {}
    if header is not None:
        try:
            index, *columns = [list(map(get, events)) for get in _field_getters]
        except (KeyError, TypeError):
            pass
        else:
            if index == list(range(len(events))) and all(
                    set(map(type, column)) <= types
                    for column, types in zip((index, *columns), _EVENT_TYPE_SETS)):
                try:  # None becomes NaN
                    return {name: np.array(column, dtype=bool if name == "valid" else float)
                            for name, column in zip(COLUMNS, columns)}
                except OverflowError:  # an integer too large for a float
                    pass
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
            if name != "eval_index" and _too_large(doc[name]):
                raise ValueError(f"{path}:{lineno}: event field {name!r} is too large for a float")
        if doc["eval_index"] != position:
            raise ValueError(f"{path}:{lineno}: eval_index {doc['eval_index']} "
                             f"!= position {position} in its run")
    raise AssertionError("the column checks and the line walk disagree")
