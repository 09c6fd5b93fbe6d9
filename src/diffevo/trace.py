"""Run traces: the unit of all analysis.

Every optimizer run produces a :class:`RunTrace`: one numpy array per event
field, among them the cumulative cost and the best-so-far (incumbent)
objective. One :class:`RunRecorder` per experiment centralizes the shared
run mechanics for all its runs: the budget check before each evaluation
and incumbent tracking. The benchmark applies the invalid-configuration
penalty (error 1.0 at zero cost); :func:`check_trace_invariants` enforces
it on every trace produced or read.

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

from .benchmarks import Benchmark
from .jsonl import check_fields, decode_lines, fits, line_blocks, replacing, spell_floats


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

# each run header key: its RunTrace attribute, JSON type name and JSON types;
# all but "config" are required
_HEADER = {"seed": ("seed", "an integer", (int,)),
           "optimizer": ("optimizer_id", "a string", (str,)),
           "benchmark": ("benchmark_id", "a string", (str,)),
           "best_validation_error": ("best_validation_error", "a number", (int, float)),
           "best_test_error": ("best_test_error", "a number or null", (int, float, type(None))),
           "config": ("config", "an object", (dict,))}
# each event field, eval_index then the fields of a recorder row in order: its
# JSON type name and JSON types; a null number reads as NaN, which
# check_trace_invariants rejects
_NUMBER = ("a number", (int, float, type(None)))
_EVENT_TYPES = {"eval_index": ("an integer", (int,)), "cumulative_cost": _NUMBER,
                "objective": _NUMBER, "incumbent_objective": _NUMBER,
                "incumbent_test_error": ("a number or null", (int, float, type(None))),
                "valid": ("true or false", (bool,))}
EVENT_FIELDS = tuple(_EVENT_TYPES)
COLUMNS = EVENT_FIELDS[1:]


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
    their events, one block of rows for every run per call.

    The recorder alone knows which runs are still going: :attr:`live`. Every
    call gives each run still going the same number of rows, so those runs
    share one event count. A run leaves once its budget is spent, which may
    cut its last block short, or when it fails; a failing run takes every
    later run along, and :meth:`finish` raises the lowest failure. Callers
    keep proposing rows for every run; those of a run that has left never
    reach the benchmark or a trace.
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

    def evaluate(self, genotypes: np.ndarray) -> np.ndarray:
        """Evaluate and record an (R, k, D) block: k genotype rows for every
        run of the experiment, of which only the rows of :attr:`live` count.

        Returns the (R, k) fitness of the rows (the validation error, or 1.0
        at zero cost when invalid), which the caller owns. Rows of a run that
        has left or fails here, and rows past the evaluation limit, hold 1.0.
        The evaluation limit cuts the block before the benchmark sees it; a
        run records its rows up to the first that reaches the cost limit.
        Each run's cumulative cost adds its row costs in turn to its last
        recorded total. :data:`ZERO_COST_LIMIT` stops a cost-only run that
        spends nothing, and a negative or NaN cost fails a run.
        """
        fitness = np.ones(genotypes.shape[:2])
        runs = self.live
        if len(runs) < len(self.lengths):
            genotypes = genotypes[runs]
        genotypes = genotypes[:, :self._max_evaluations - self._events]
        if not genotypes.size:
            return fitness
        n, k = self._events, genotypes.shape[1]
        totals = self.history[2, :, n - 1][runs] if n else np.zeros(len(runs))
        block, failure = self._ask(genotypes)
        cost = block[2]
        spent = cost.copy()  # each run's cumulative cost after each row
        spent[:, 0] += totals[:len(cost)]
        np.add.accumulate(spent, axis=1, out=spent)
        # under a cost limit: which runs reach it, and the rows each run records
        gone = cut = None
        if self.budget.max_cost is not None:
            reached = spent >= self.budget.max_cost
            if reached.any():
                gone = reached.any(axis=1)
                cut = np.where(gone, reached.argmax(axis=1) + 1, k)
        # a run can reach the zero-cost limit in this block only past this count
        watch_free = self._free_limit is not None and n + k >= self._free_limit
        if watch_free or not np.minimum.reduce(cost, axis=None, initial=math.inf) >= 0.0:
            failure = self._check_costs(genotypes, cost, totals, spent, cut, watch_free) or failure
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
        block[2] = spent
        # a slice while every run is live, not a fancy write
        rows = slice(None) if len(runs) == len(self.lengths) else runs
        self.history[:, rows, n:n + k] = block
        fitness[rows, :k] = block[0]
        self._events = n + k
        if n + k >= self._max_evaluations:
            gone = np.ones(len(runs), dtype=bool)
        if gone is not None:
            self.lengths[runs[gone]] = n + (k if cut is None else cut[gone])
            runs = runs[~gone]
        self.live = runs
        return fitness

    def _check_costs(self, genotypes, cost, totals, after, cut, watch_free):
        """The (position, error) of the first run whose rows up to its cut
        hold a negative or NaN cost or reach the zero-cost limit, or None;
        ``after`` is each run's cumulative cost after each row."""
        count, k = cost.shape
        n, before = self._events, np.concatenate((totals[:count, None], after[:, :-1]), axis=1)
        fails = ~(cost >= 0.0)
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
        if cost[run, row] >= 0.0:
            return run, ValueError(
                f"{self._free_limit} evaluations in a row left the cumulative cost at "
                f"{float(after[run, row])!r}, so the cost budget may never be spent; add an "
                "evaluation limit (--evals)")
        config = self.bench.space.discretize(genotypes[run, row])
        return run, ValueError(f"benchmark cost {float(cost[run, row])!r} of {config!r} is "
                               "negative or not a number")

    def _ask(self, genotypes: np.ndarray):
        """The (objective, test error, cost, valid) rows of an (L, k, D)
        block as one (4, q, k) float array for its first q runs, valid 1.0 or
        0.0, and None or the (q, error) of the run that raised.

        One ``evaluate_batch`` call scores the whole block; when it raises,
        each run's rows are asked alone, so that a failure names its run.
        """
        count, k, dimension = genotypes.shape
        try:
            rows = self.bench.evaluate_batch(genotypes.reshape(-1, dimension))
            return np.array(rows, dtype=float).reshape(4, count, k), None
        except Exception:
            pass
        columns = np.empty((4, count, k))
        for i, block in enumerate(genotypes):
            try:
                columns[:, i] = self.bench.evaluate_batch(block)
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
    increments on invalid evaluations, which score 1.0, an incumbent equal
    to the lowest objective so far, and non-negative regret against the
    benchmark's best validation error. The message names the first
    offending event.
    """
    if not len(trace):
        raise ValueError("trace has no events")
    if not math.isfinite(trace.best_validation_error):
        raise ValueError(f"best validation error {trace.best_validation_error} is not finite")
    if trace.best_test_error is not None and not math.isfinite(trace.best_test_error):
        raise ValueError(f"best test error {trace.best_test_error} is not finite")
    cost, objective, incumbent = trace.cumulative_cost, trace.objective, trace.incumbent_objective
    prev_cost = np.concatenate(([0.0], cost[:-1]))
    # negated comparisons, so that NaN (null in a file) is a violation too
    violations = np.stack([
        ~((0.0 <= objective) & (objective <= 1.0)),
        ~(cost >= prev_cost),
        ~trace.valid & (cost != prev_cost),
        ~trace.valid & (objective != 1.0),
        incumbent != np.fmin.accumulate(objective),
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
        "invalid evaluation scored other than 1.0",
        "incumbent objective is not the best objective so far",
        "incumbent beats the benchmark's best (negative regret)",
    )
    raise ValueError(f"event {i} of {trace.optimizer_id} run (seed {trace.seed}): "
                     f"{messages[int(np.argmax(violations[:, i]))]}")


def _header_line(trace: RunTrace) -> str:
    return json.dumps({"run": {key: getattr(trace, attr) for key, (attr, *_) in _HEADER.items()}},
                      separators=(",", ":"), sort_keys=True)


# an event line's start, and the text from its valid flag, false or true, to the next one's
_LINE_START = '{"cumulative_cost":'
_VALID_TEXT = np.array([f',"valid":{v}}}\n{_LINE_START}' for v in ("false", "true")], dtype=object)


def write_traces(traces: list[RunTrace], path: str | Path):
    """Write traces as JSON Lines, atomically (temp file then rename), one run at a time,
    byte for byte as ``json.dumps`` spells them: a run's events are one join over a list
    that takes each column, or the key text between two, by one slice assignment."""
    index = list(map(',"eval_index":{},"incumbent_objective":'.format,
                     range(max(map(len, traces), default=0))))  # built once per call
    with replacing(path) as fh:
        for trace in traces:
            n = len(trace)
            parts = [_LINE_START] * (8 * n + 1)
            parts[1::8] = spell_floats(trace.cumulative_cost)
            parts[2::8] = index[:n]
            parts[3::8] = spell_floats(trace.incumbent_objective)
            parts[4::8] = [',"incumbent_test_error":'] * n
            parts[5::8] = spell_floats(trace.incumbent_test_error, nan="null")
            parts[6::8] = [',"objective":'] * n
            parts[7::8] = spell_floats(trace.objective)
            parts[8::8] = _VALID_TEXT[np.asarray(trace.valid, dtype=np.intp)].tolist()
            parts[-1] = parts[-1].removesuffix(_LINE_START)  # no next line
            fh.write(_header_line(trace) + "\n" + "".join(parts))


def read_traces(path: str | Path) -> list[RunTrace]:
    """Read a trace file; every run in it must pass :func:`check_trace_invariants`.

    The file is read once, :data:`jsonl.BLOCK_LINES` lines at a time. A run's
    event lines in a block are read as columns when spelled as
    :func:`write_traces` spells them; any other line is read alone, raising
    ValueError naming ``path:line`` when it is not JSON, is neither a run
    header nor an event, lacks a field, has a field of the wrong JSON type
    or a number too large for a float, or has an ``eval_index`` other than
    its position.
    """
    path = Path(path)
    traces: list[RunTrace] = []
    header: dict | None = None
    header_line = count = 0  # the line of the run's header, its events so far
    blocks: list[dict[str, np.ndarray]] = []  # the event columns of the run so far
    rows: list[tuple] = []  # then its events read a line at a time, ordered like COLUMNS
    index: list[str] = []  # the eval_index pieces ":0,", ":1,", ...

    def take_rows():
        if rows:  # None becomes NaN
            blocks.append({name: np.array(column, dtype=bool if name == "valid" else float)
                           for name, column in zip(COLUMNS, zip(*rows))})
            rows.clear()

    def flush():
        take_rows()
        if header is None:
            return
        if not count:
            raise ValueError(f"{path}:{header_line}: run (seed {header['seed']}) has no events")
        try:
            trace = RunTrace(**{attr: header.get(key, {}) for key, (attr, *_) in _HEADER.items()},
                             **{c: np.concatenate([b[c] for b in blocks]) for c in COLUMNS})
            check_trace_invariants(trace)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{header_line}: {exc}") from exc
        traces.append(trace)

    start = 1
    for lines in line_blocks(path):
        for is_header, group in itertools.groupby(lines, _is_header):
            group = list(group)
            index += map(":{},".format, range(len(index), count + len(group)))
            if not is_header and header and (block := _event_block("".join(group), index, count)):
                take_rows()
                blocks.append(block)
                count += len(group)
            else:  # a line at a time
                for lineno, doc in decode_lines(path, group, start):
                    run = doc.get("run") if type(doc) is dict else None
                    if type(run) is dict:
                        flush()
                        header, header_line, blocks, count = run, lineno, [], 0
                        check_fields(f"{path}:{lineno}: run header", header, _HEADER, ("config",))
                        header.update((key, float(header[key])) for key in (  # 0 reads as 0.0
                            "best_validation_error", "best_test_error") if header[key] is not None)
                    else:
                        _check_event(path, lineno, header, doc, count)
                        rows.append(tuple(doc[name] for name in COLUMNS))
                        count += 1
            start += len(group)
    flush()
    if not traces:
        raise ValueError(f"{path}: no runs found")
    return traces


_KEY_PIECES = sorted(EVENT_FIELDS)
_PIECE = {name: 2 + 2 * _KEY_PIECES.index(name) for name in EVENT_FIELDS}
_VALID_PIECES = {":true}\n{": True, ":false}\n{": False, ":true}\r\n{": True, ":false}\r\n{": False}
_is_header = operator.methodcaller("startswith", '{"run":')


def _event_block(text: str, index: list[str], offset: int) -> dict[str, np.ndarray] | None:
    """The columns of the event lines ``text`` (split at '"': "{", then each
    sorted field name and its value, ":<number>," or ":true}\\n{" with the next
    line's "{", "\\r\\n" ends too), the first event ``offset`` of its run, or None."""
    pieces = text.split('"')
    pieces[-1] += "{"  # as if the next line followed
    k = len(pieces) // 12
    valid = list(map(_VALID_PIECES.get, pieces[_PIECE["valid"]::12]))
    if (pieces[0] != "{" or pieces[1::2] != _KEY_PIECES * k or None in valid  # keys fix len(pieces)
            or pieces[_PIECE["eval_index"]::12] != index[offset:offset + k]):
        return None
    columns = {"valid": np.array(valid)}
    for name in COLUMNS[:-1]:
        values = pieces[_PIECE[name]::12]
        distinct = list(set(values))
        joined = '"'.join(distinct)  # a '"' not in ',":' starts a string, which types reject
        try:  # a comma in a piece adds a value, and brackets that join pieces make a list
            numbers = json.loads("[" + joined[1:-1].replace(',":', ",") + "]")
        except ValueError:  # not JSON
            return None
        if not (joined.startswith(":") and joined.endswith(",") and "\n" not in joined
                and len(numbers) == len(distinct) and fits(numbers, _EVENT_TYPES[name][1])):
            return None
        lookup = dict(zip(distinct, numbers))
        columns[name] = np.array(list(map(lookup.__getitem__, values)), dtype=float)
    return columns


def _check_event(path: Path, lineno: int, header: dict | None, doc, position: int):
    """Raise ValueError naming ``path:lineno`` when ``doc`` is not event
    ``position`` of the run under ``header``."""
    if not isinstance(doc, dict) or doc.keys().isdisjoint(_EVENT_TYPES):
        raise ValueError(f"{path}:{lineno}: unrecognized line")
    if header is None:
        raise ValueError(f"{path}:{lineno}: event before any run header")
    check_fields(f"{path}:{lineno}: event", doc, _EVENT_TYPES)
    if doc["eval_index"] != position:
        raise ValueError(f"{path}:{lineno}: eval_index {doc['eval_index']} "
                         f"!= position {position} in its run")
