import functools
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import diffevo.baselines as baselines
import diffevo.benchmarks as benchmarks
from diffevo import ParameterSpec, RunTrace, SearchSpace, load_tabular
from diffevo.trace import COLUMNS, EVENT_FIELDS, check_trace_invariants, run_failure

HEADER = ("seed", "optimizer_id", "benchmark_id", "best_validation_error", "best_test_error",
          "config")


def trace_from_rows(rows, best_validation_error=0.0, best_test_error=None, seed=0,
                    optimizer_id="x", benchmark_id="hand", config=None):
    """Hand-built trace from event rows ordered like ``COLUMNS``:
    (cumulative cost, objective, incumbent, incumbent test error or None, valid).
    """
    columns = zip(*rows) if rows else [()] * len(COLUMNS)
    cost, objective, incumbent, test, valid = (
        np.array(c, dtype=bool if name == "valid" else float) for name, c in zip(COLUMNS, columns)
    )
    return RunTrace(seed=seed, optimizer_id=optimizer_id, benchmark_id=benchmark_id,
                    best_validation_error=best_validation_error, best_test_error=best_test_error,
                    cumulative_cost=cost, objective=objective, incumbent_objective=incumbent,
                    incumbent_test_error=test, valid=valid, config=dict(config or {}))


def assert_same_traces(got, want):
    """Every header field and every column equal, run by run.

    Among the columns only ``incumbent_test_error`` may hold NaN (no test
    error), and NaN there matches NaN; a NaN header field matches NaN.
    """
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in HEADER:
            x, y = getattr(a, name), getattr(b, name)
            assert x == y or (x != x and y != y), name
        for name in COLUMNS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            assert np.array_equal(x, y, equal_nan=name == "incumbent_test_error"), name


def each_seed(run, bench, seeds):
    """The traces of the one-seed function ``run`` over ``seeds``, made one
    after another: the way the scalar references run. A run that raises
    ends them with ``run_failure()`` of its seed."""
    traces = []
    for seed in seeds:
        try:
            traces.append(run(bench, seed))
        except Exception as exc:
            raise run_failure(seed, exc) from exc
    return traces


def _too_large(x):
    """An integer whose magnitude is above the largest float: one that a
    float conversion would round to it, or overflow on."""
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) > sys.float_info.max


def reference_read_traces(path):
    """Reference trace reader: one ``json.loads`` and every check per line,
    in file order. ``read_traces`` must return the same traces or raise the
    same error."""
    path = Path(path)
    header_keys = {"seed", "optimizer", "benchmark", "best_validation_error", "best_test_error"}
    event_keys = set(EVENT_FIELDS)
    traces = []
    header = None
    header_line = 0
    rows = []

    def flush():
        if header is None:
            return
        if not rows:
            raise ValueError(f"{path}:{header_line}: run (seed {header['seed']}) has no events")
        try:
            columns = {name: np.array(column, dtype=bool if name == "valid" else float)
                       for name, column in zip(COLUMNS, zip(*rows))}
            trace = RunTrace(seed=header["seed"], optimizer_id=header["optimizer"],
                             benchmark_id=header["benchmark"],
                             best_validation_error=float(header["best_validation_error"]),
                             best_test_error=None if header["best_test_error"] is None
                             else float(header["best_test_error"]),
                             config=header.get("config", {}), **columns)
            check_trace_invariants(trace)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{header_line}: {exc}") from exc
        traces.append(trace)

    def require(doc, keys, what, lineno):
        if not keys <= doc.keys():
            raise ValueError(f"{path}:{lineno}: {what} lacks fields {sorted(keys - doc.keys())}")

    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def check_header_types(header, lineno):
        kinds = {"seed": "an integer", "optimizer": "a string", "benchmark": "a string",
                 "best_validation_error": "a number", "best_test_error": "a number or null",
                 "config": "an object"}
        ok = {"seed": isinstance(header["seed"], int) and not isinstance(header["seed"], bool),
              "optimizer": isinstance(header["optimizer"], str),
              "benchmark": isinstance(header["benchmark"], str),
              "best_validation_error": is_number(header["best_validation_error"]),
              "best_test_error": header["best_test_error"] is None
              or is_number(header["best_test_error"]),
              "config": isinstance(header.get("config", {}), dict)}
        for name in kinds:
            if not ok[name]:
                raise ValueError(f"{path}:{lineno}: run header field {name!r} is not "
                                 f"{kinds[name]}: {header[name]!r}")
            if name in ("best_validation_error", "best_test_error") and _too_large(header[name]):
                raise ValueError(f"{path}:{lineno}: run header field {name!r} is too large "
                                 "for a float")

    def check_event_types(doc, lineno):
        index = doc["eval_index"]
        checks = [("eval_index", "an integer", isinstance(index, int) and not isinstance(index, bool))]
        # null reads as NaN, which breaks the trace invariants instead
        checks += [(name, "a number", doc[name] is None or is_number(doc[name]))
                   for name in ("cumulative_cost", "objective", "incumbent_objective")]
        test = doc["incumbent_test_error"]
        checks.append(("incumbent_test_error", "a number or null", test is None or is_number(test)))
        checks.append(("valid", "true or false", isinstance(doc["valid"], bool)))
        for name, kind, ok in checks:
            if not ok:
                raise ValueError(f"{path}:{lineno}: event field {name!r} is not {kind}: "
                                 f"{doc[name]!r}")
            if name != "eval_index" and _too_large(doc[name]):
                raise ValueError(f"{path}:{lineno}: event field {name!r} is too large for a float")

    with open(path, newline="\n") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        if isinstance(doc, dict) and isinstance(doc.get("run"), dict):
            flush()
            header, header_line, rows = doc["run"], lineno, []
            require(header, header_keys, "run header", lineno)
            check_header_types(header, lineno)
        elif isinstance(doc, dict) and not doc.keys().isdisjoint(event_keys):
            if header is None:
                raise ValueError(f"{path}:{lineno}: event before any run header")
            require(doc, event_keys, "event", lineno)
            check_event_types(doc, lineno)
            if doc["eval_index"] != len(rows):
                raise ValueError(f"{path}:{lineno}: eval_index {doc['eval_index']} "
                                 f"!= position {len(rows)} in its run")
            rows.append(tuple(doc[name] for name in COLUMNS))
        else:
            raise ValueError(f"{path}:{lineno}: unrecognized line")
    flush()
    if not traces:
        raise ValueError(f"{path}: no runs found")
    return traces


def reference_load_tabular(path):
    """Reference tabular loader: one ``json.loads`` a line, keys checked as
    each line is read, and the values of every row read so far checked, in
    line order, before any error is raised, so that the error names the
    first bad line. Returns ``(table, best validation error, best test
    error)``, the table holding the file's raw JSON values in file order.
    ``load_tabular`` must give an equal table and best errors, or raise the
    same ValueError."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="\n") as fh:
        lines = (line.rstrip("\n") for line in fh)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty benchmark file")
        try:
            header = json.loads(first)
            space = SearchSpace.from_json_dict(header)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}:1: bad header: {exc}") from exc
        benchmarks._check_fields(f"{path}:1: bad header:", header,
                                 {"benchmark_id": ("a string", (str,))}, ("benchmark_id",))
        table, linenos = {}, []

        def check_rows():
            line_of = dict(zip(table, linenos))
            _reference_check_rows(space, table,
                                  where=lambda key: f"{path}:{line_of[key]}")

        def fail(lineno, msg):
            check_rows()
            raise ValueError(f"{path}:{lineno}: {msg}")

        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                fail(lineno, f"bad JSON: {exc}")
            if not isinstance(row, dict):
                fail(lineno, "record is not a JSON object")
            missing = {"key", "val_err", "cost"} - set(row)
            if missing:
                fail(lineno, f"record lacks fields {sorted(missing)}")
            if problem := _reference_record_types(row):
                fail(lineno, problem)
            try:
                key = _reference_key(space, row["key"])
            except ValueError as exc:
                fail(lineno, str(exc))
            values = (row["val_err"], row.get("test_err"), row["cost"])
            if key in table:
                check_rows()
                _reference_check_rows(space, {key: values},
                                      where=lambda _: f"{path}:{lineno}")
                fail(lineno, f"duplicate configuration key {list(key)!r}")
            table[key] = values
            linenos.append(lineno)
    if not table:
        raise ValueError(f"{path}: no configuration records")
    check_rows()
    tests = [test for _, test, _ in table.values() if test is not None]
    return table, min(val for val, _, _ in table.values()), min(tests) if tests else None


def _reference_record_types(row):
    """What makes the JSON type of a field of ``row`` wrong, or None: the
    key a list, the errors and cost numbers (no booleans), the test error
    possibly null, and no integer above the largest float."""
    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    checks = [("key", "a list", isinstance(row["key"], list)),
              ("val_err", "a number", is_number(row["val_err"])),
              ("test_err", "a number or null",
               row.get("test_err") is None or is_number(row["test_err"])),
              ("cost", "a number", is_number(row["cost"]))]
    for name, kind, ok in checks:
        if not ok:
            return f"record field {name!r} is not {kind}: {row[name]!r}"
        if _too_large(row.get(name)):
            return f"record field {name!r} is too large for a float"
    return None


def _reference_key(space, raw):
    if len(raw) != space.dimension:
        raise ValueError(f"key {raw!r} is not a {space.dimension}-element list")
    for p, v in zip(space.params, raw):
        if p.kind == "integer":
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"key component {v!r} for {p.name!r} is not an integer")
        elif not isinstance(v, str):
            raise ValueError(f"key component {v!r} for {p.name!r} is not a token")
    return tuple(raw)


def _reference_check_rows(space, table, where):
    """Raise ValueError, naming the row by ``where(key)``, for the
    first row of ``table`` whose key or values break the contract; the
    values are of the JSON types that ``_reference_record_types`` allows."""
    def inside(p, v):
        if p.kind == "integer":
            return isinstance(v, int) and not isinstance(v, bool) and p.lo <= v <= p.hi
        return v in p.tokens

    for key, (val, test, cost) in table.items():
        if not all(itertools.starmap(inside, zip(space.params, key))):
            problem = f"key {key!r} outside the declared space"
        elif not 0.0 <= val <= 1.0:
            problem = f"validation error {val} outside [0, 1]"
        elif test is not None and not 0.0 <= test <= 1.0:
            problem = f"test error {test} outside [0, 1]"
        elif not 0.0 <= cost <= sys.float_info.max:
            problem = f"cost {cost} is negative or not finite"
        else:
            continue
        raise ValueError(f"{where(key)}: {problem}")


def tabular(space, table, benchmark_id):
    """The tabular benchmark of ``table`` (``{configuration: (val, test or
    None, cost)}``) over ``space``, written in the README file format to a
    temporary file and read back by ``load_tabular``."""
    header = {**space.to_json_dict(), "benchmark_id": benchmark_id}
    records = [{"key": list(key), "val_err": val, "test_err": test, "cost": cost}
               for key, (val, test, cost) in table.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *records]),
                        encoding="utf-8")
        return load_tabular(path)


def bin_index(u, n):
    """Scalar reference for the token rule: the index of the bin holding
    ``u`` when [0, 1] is split into ``n`` bins ``[k/n, (k+1)/n)``, the last
    one closed at 1."""
    assert n >= 1 and 0.0 <= u <= 1.0
    return min(math.floor(u * n), n - 1)


@functools.cache
def token_space(n):
    """A one-parameter space whose ``n`` categorical tokens name their index."""
    return SearchSpace(params=(
        ParameterSpec(name="c", kind="categorical", choices=tuple(map(str, range(n)))),))


def decoded_bin(u, n):
    """The bin the shipped decoder picks for ``u`` among ``n`` tokens."""
    return int(token_space(n).discretize([u])[0])


def reference_discretize(space, genotype):
    """Scalar reference for discretization: one coordinate at a time, by the
    rules in the README (integers round half away from zero, tokens by
    ``bin_index``)."""
    assert len(genotype) == space.dimension
    config = []
    for p, u in zip(space.params, (float(u) for u in genotype)):
        assert 0.0 <= u <= 1.0
        if p.kind == "float":
            config.append(p.lo + (p.hi - p.lo) * u)
        elif p.kind == "integer":
            x = p.lo + (p.hi - p.lo) * u
            config.append(int(math.copysign(math.floor(abs(x) + 0.5), x)))
        else:
            config.append(p.tokens[bin_index(u, len(p.tokens))])
    return tuple(config)


class ReferenceRecorder:
    """Scalar reference for ``RunRecorder``: one genotype per call, with the
    budget checked before each evaluation. ``evaluate`` returns None once
    the budget is spent, raises ValueError for a negative or NaN cost, and
    under a cost-only budget raises ValueError after ``free_limit``
    (100,000) evaluations in a row that left the cumulative cost as it was."""

    def __init__(self, bench, budget, free_limit=100_000):
        self.bench, self.budget, self.free_limit = bench, budget, free_limit
        self.rows = []
        self.cumulative_cost = 0.0
        self.free = 0
        self.inc_objective, self.inc_test, self.inc_valid = math.inf, None, False

    def exhausted(self):
        if self.budget.max_evaluations is not None and len(self.rows) >= self.budget.max_evaluations:
            return True
        return self.budget.max_cost is not None and self.cumulative_cost >= self.budget.max_cost

    def evaluate(self, genotype):
        if self.exhausted():
            return None
        config = reference_discretize(self.bench.space, genotype)
        row = self.bench.evaluate(config)
        valid = row is not None
        objective, test, cost = row if valid else (1.0, None, 0.0)
        before = self.cumulative_cost
        if not cost >= 0.0:
            raise ValueError(f"benchmark cost {cost!r} of {config!r} is negative or not a number")
        self.cumulative_cost += cost
        self.free = self.free + 1 if self.cumulative_cost == before else 0
        if self.budget.max_evaluations is None and self.free == self.free_limit:
            raise ValueError(f"{self.free_limit} evaluations in a row left the cumulative cost at "
                             f"{before!r}, so the cost budget may never be spent; "
                             f"add an evaluation limit (--evals)")
        if objective < self.inc_objective or (
                valid and not self.inc_valid and objective <= self.inc_objective):
            self.inc_objective, self.inc_test, self.inc_valid = objective, test, valid
        self.rows.append((self.cumulative_cost, objective, self.inc_objective, self.inc_test,
                          valid))
        return objective

    def finish(self, seed, optimizer_id, config=None):
        trace = trace_from_rows(self.rows, self.bench.best_validation_error,
                                self.bench.best_test_error, seed, optimizer_id,
                                self.bench.benchmark_id, config)
        check_trace_invariants(trace)
        return trace


def tournament_select(fitness, draws):
    """Scalar reference: the index of the fittest of the entrants
    ``floor(u * P)``, one per uniform draw ``u``; ties go to the lowest
    population index."""
    entrants = sorted(int(u * len(fitness)) for u in draws)
    return min(entrants, key=fitness.__getitem__)  # min keeps the first of equals


def mutate_one_dimension(genotype, draws):
    """Scalar reference: coordinate ``floor(draws[1] * D)`` takes the value
    ``draws[0]``, both uniform on [0, 1)."""
    child = genotype.copy()
    child[int(draws[1] * len(genotype))] = draws[0]
    return child


def reference_run_re(bench, cfg, seed):
    """Scalar reference for one regularized-evolution run: one child at a
    time through ``ReferenceRecorder``, the population shifted by one row per
    child, each child from one draw of S + 2 uniforms (entrants, value,
    coordinate). Like the sequential loop it replaces, it draws one more
    tournament and mutation once the budget is spent; those draws reach no
    trace."""
    rng = np.random.default_rng(seed)
    recorder = ReferenceRecorder(bench, cfg.budget)
    genotypes = rng.random((cfg.population_size, bench.space.dimension))
    fitness = []
    for genotype in genotypes:
        value = recorder.evaluate(genotype)
        if value is None:
            break
        fitness.append(value)
    fitness = np.array(fitness)
    sample = cfg.sample_size
    while len(fitness) == cfg.population_size:
        draws = rng.random(sample + 2)
        child = mutate_one_dimension(genotypes[tournament_select(fitness, draws[:sample])],
                                     draws[sample:])
        child_fitness = recorder.evaluate(child)
        if child_fitness is None:
            break
        genotypes[:-1], fitness[:-1] = genotypes[1:], fitness[1:]
        genotypes[-1], fitness[-1] = child, child_fitness
    return recorder.finish(seed, "re", {"population_size": cfg.population_size,
                                        "sample_size": cfg.sample_size})


def reference_run_rs(bench, budget, seed):
    """Scalar reference for one random-search run: one uniform genotype at
    a time through ``ReferenceRecorder``."""
    rng = np.random.default_rng(seed)
    recorder = ReferenceRecorder(bench, budget)
    while recorder.evaluate(rng.random(bench.space.dimension)) is not None:
        pass
    return recorder.finish(seed, "rs", {})


def watch_tournaments(monkeypatch):
    """Record a copy of the age-ordered fitness row of every run in every RE
    tournament; the rows of one step come in seed order."""
    seen = []
    select = baselines.tournament_select

    def watching(fitness, entrants):
        seen.extend(row.copy() for row in fitness)
        return select(fitness, entrants)

    monkeypatch.setattr(baselines, "tournament_select", watching)
    return seen


def watch_line_reads(monkeypatch, module):
    """Record the number of every line that ``module``'s reader sends
    through the per-line decoder, and the files it opens."""
    lines, opened = [], []
    decode, real_open = module._decode_lines, open

    def decoding(path, block, start):
        lines.extend(range(start, start + len(block)))
        return decode(path, block, start)

    def opening(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(module, "_decode_lines", decoding)
    monkeypatch.setattr(benchmarks, "open", opening, raising=False)  # the one block reader
    return lines, opened


def row_columns(rows):
    """The (val, test, cost, valid) columns ``evaluate_batch`` gives for a
    list of ``evaluate`` rows: an invalid row holds 1.0, NaN and 0.0."""
    valid = np.array([row is not None for row in rows], dtype=bool)
    filled = [(1.0, None, 0.0) if row is None else row for row in rows]
    val, test, cost = np.array(filled, dtype=float).reshape(len(rows), 3).T  # None -> NaN
    return val, test, cost, valid


# floats that a speller must keep apart or spell by name beside any other float:
# -0.0 and 0.0, NaN, +-inf
REPEATABLE_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]) | st.floats()


@st.composite
def repeated_value_columns(draw, *strategies, max_size=40):
    """Columns of one length, the k-th drawn from ``strategies[k]`` as runs
    of 1-6 equal values, so that equal values often sit side by side."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    columns = []
    for values in strategies:
        column = []
        while len(column) < size:
            column += [draw(values)] * draw(st.integers(min_value=1, max_value=6))
        columns.append(column[:size])
    return columns


class ScalarBenchmark:
    """A test double scored by its own ``evaluate(config)``: its
    ``evaluate_batch`` asks ``evaluate`` for each row's configuration in turn."""

    def evaluate_batch(self, genotypes):
        configs = [self.space.discretize(genotype) for genotype in genotypes]
        return row_columns(list(map(self.evaluate, configs)))


class RecordingBenchmark(ScalarBenchmark):
    """Wraps a benchmark and logs every configuration it is asked to score."""

    def __init__(self, base):
        self.base = base
        self.space = base.space
        self.benchmark_id = base.benchmark_id
        self.best_validation_error = base.best_validation_error
        self.best_test_error = base.best_test_error
        self.configs = []

    def evaluate(self, config):
        self.configs.append(config)
        return self.base.evaluate(config)


class TransformedBenchmark(ScalarBenchmark):
    """Applies a strictly increasing map to the base validation errors."""

    def __init__(self, base, transform):
        self.base = base
        self.transform = transform
        self.space = base.space
        self.benchmark_id = base.benchmark_id + ":transformed"
        self.best_validation_error = transform(base.best_validation_error)
        self.best_test_error = base.best_test_error

    def evaluate(self, config):
        row = self.base.evaluate(config)
        if row is None:
            return None
        val, test, cost = row
        return self.transform(val), test, cost


@pytest.fixture
def mixed_space():
    return SearchSpace(params=(
        ParameterSpec(name="lr", kind="float", lo=-5.0, hi=5.0),
        ParameterSpec(name="layers", kind="integer", lo=0, hi=10),
        ParameterSpec(name="width", kind="ordinal", values=("narrow", "medium", "wide")),
        ParameterSpec(name="op", kind="categorical", choices=("1x1 conv", "skip", "3x3 conv")),
    ))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
