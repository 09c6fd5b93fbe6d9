"""Evaluation contract and concrete benchmarks.

A benchmark scores an (N, D) genotype block with ``evaluate_batch``, one row
for each configuration its ``space`` discretizes the block to: four length-N
columns, the validation error in [0, 1], the test error (NaN when missing) and
the cost in seconds as float64, and valid as bool; an invalid configuration
scores 1.0, NaN and 0.0. Three families are provided:

* :class:`TabularBenchmark` -- a lookup table keyed by the configuration
  codes of a finite discrete space, loadable from a JSON Lines file; keys
  absent from the table are invalid (error 1 at zero cost).
* :func:`make_synthetic` -- a seeded, exhaustively enumerated table with an
  additive-plus-pairwise score model, so nearby configurations have similar
  errors and the global optimum is known by construction.
* :class:`FunctionBenchmark` -- sphere/rastrigin over a box, with the raw
  objective squashed into [0, 1).

All benchmarks are immutable after construction and their ``evaluate`` and
``evaluate_batch`` are pure functions.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .jsonl import FLOAT_MAX, check_fields, decode_lines, fits, line_blocks, replacing, undecodable
from .space import Configuration, ParameterSpec, SearchSpace

# configurations at most this large may be enumerated exhaustively
MAX_SYNTHETIC_CONFIGS = 10**6


class Benchmark(Protocol):
    """What optimizers and the harness need from an objective."""

    space: SearchSpace
    benchmark_id: str
    best_validation_error: float
    best_test_error: float | None

    def evaluate_batch(self, genotypes: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rows of the configurations that ``space`` discretizes an (N, D)
        genotype block to, as four length-N columns: validation error, test
        error and cost as float64, valid as bool. An invalid row holds 1.0,
        NaN and 0.0, and a missing test error is NaN.

        The recorder scores the rows of every live run with one call, cut to
        the evaluation limit but not to a cost limit, so a benchmark may be
        asked for rows past a cost limit, which are then not recorded.
        """


@dataclass(frozen=True, init=False, eq=False)
class TabularBenchmark:
    """Finite lookup benchmark; keys are native-value configuration tuples.

    Only a space with configuration codes is allowed (no float parameter,
    whose lookup is ill-defined; :meth:`SearchSpace.check_codes`). The table
    is kept as two read-only arrays and nothing else: the sorted int64 codes
    the space gives its configurations and the (3, N) float64 ``(val, test,
    cost)`` rows in code order, a missing test error NaN. Best-known errors
    are recomputed from the rows, never trusted from a file.
    """

    space: SearchSpace
    benchmark_id: str
    best_validation_error: float
    best_test_error: float | None

    def __init__(self, space: SearchSpace, benchmark_id: str, codes: np.ndarray,
                 rows: np.ndarray):
        """Set every field from the sorted, distinct codes of a ``space`` that
        passes ``check_codes`` and their checked (3, N) float64 ``rows``, as
        :func:`load_tabular` and :func:`make_synthetic` build them."""
        tests = rows[1][rows[1] == rows[1]]  # NaN is a missing test error
        # after the rows, the invalid row, under a code above every code
        fields = {"space": space, "benchmark_id": benchmark_id,
                  "best_validation_error": float(rows[0].min()),
                  "best_test_error": float(tests.min()) if tests.size else None,
                  "_codes": np.append(codes, np.iinfo(np.int64).max),
                  "_rows": np.append(rows, [[1.0], [math.nan], [0.0]], axis=1)}
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def table(self) -> dict[Configuration, tuple[float, float | None, float]]:
        """The rows by configuration, in code order: a new dict rebuilt from
        the arrays at every access."""
        keys = self.space.configurations(self._codes[:-1])
        val, test, cost = self._rows[:, :-1].tolist()
        return dict(zip(keys, zip(val, [None if t != t else t for t in test], cost)))

    def evaluate(self, config: Configuration) -> tuple[float, float | None, float] | None:
        """The row ``(validation_error, test_error or None, cost_seconds)`` of
        ``config``, or None when it is not listed: the scalar reference for
        :meth:`evaluate_batch`."""
        if len(config) != self.space.dimension:
            return None
        code = self.space.key_codes([config]).item()  # -1, below every code, outside the space
        position = int(self._codes.searchsorted(code))
        if self._codes.item(position) != code:
            return None
        val, test, cost = self._rows[:, position].tolist()
        return val, None if test != test else test, cost

    def evaluate_batch(self, genotypes: np.ndarray) -> tuple[np.ndarray, ...]:
        """The (val, test, cost, valid) columns of an (N, D) genotype block:
        the rows ``evaluate`` gives for the discretized configurations."""
        codes = self.space.codes(self.space.decode(genotypes))
        position = self._codes.searchsorted(codes)
        valid = self._codes[position] == codes
        return (*self._rows[:, np.where(valid, position, len(self._codes) - 1)], valid)


def _row_problem(val, test, cost) -> str | None:
    """What makes the values of one row of a table, of the JSON types
    :data:`_RECORD` lists, break the contract, or None."""
    if not 0.0 <= val <= 1.0:
        return f"validation error {val} outside [0, 1]"
    if test is not None and not 0.0 <= test <= 1.0:
        return f"test error {test} outside [0, 1]"
    if not 0.0 <= cost <= FLOAT_MAX:
        return f"cost {cost} is negative or not finite"
    return None


# each tabular record field: its JSON type name and JSON types; test_err is optional
_RECORD = {"key": ("a list", (list,)), "val_err": ("a number", (int, float)),
           "test_err": ("a number or null", (int, float, type(None))),
           "cost": ("a number", (int, float))}


def load_tabular(path: str | Path) -> TabularBenchmark:
    """Load a JSON Lines tabular benchmark.

    Line 1 is a header holding the search-space document (and optionally a
    ``benchmark_id``); every further line is one configuration record
    ``{"key": [...], "val_err": ..., "test_err": ..., "cost": ...}``.
    The file is read once, :data:`jsonl.BLOCK_LINES` lines at a time, and each
    block is decoded and checked as columns. A block that cannot be, or that
    repeats a key, is read a line at a time, so that an error, a ValueError
    naming ``path:line``, names the first bad line. A space that no table
    can hold fails at the header.
    """
    path = Path(path)
    blocks = line_blocks(path)
    lines = next(blocks, None)
    if lines is None:
        raise ValueError(f"{path}: empty benchmark file")
    first = lines[0].rstrip("\n")
    if problem := undecodable(first):
        raise ValueError(f"{path}:1: {problem}")
    try:
        header = json.loads(first)
        space = SearchSpace.from_json_dict(header)
        space.check_codes()
    except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"{path}:1: bad header: {exc}") from exc
    check_fields(f"{path}:1: bad header:", header, {"benchmark_id": ("a string", (str,))},
                 ("benchmark_id",))
    benchmark_id = header.get("benchmark_id", f"tabular:{path.stem}")
    columns, seen, start = [], set(), 2  # the codes and rows of each block, every code so far
    for lines in itertools.chain([lines[1:]], blocks):
        block = _block_columns(space, lines)
        if block is not None:
            block_codes = set(block[0].tolist())
            if len(block_codes) < len(lines) or not seen.isdisjoint(block_codes):
                block = None  # a repeated key: the walk names its line
            else:
                seen |= block_codes
        columns.append(block or _walk_records(path, space, lines, start, seen))
        start += len(lines)
    codes = np.concatenate([c for c, _ in columns])
    if not codes.size:
        raise ValueError(f"{path}: no configuration records")
    order = codes.argsort(kind="stable")
    rows = np.concatenate([r for _, r in columns], axis=1)[:, order]
    return TabularBenchmark(space, benchmark_id, codes[order], rows)


def _block_columns(space: SearchSpace, lines: list[str]):
    """The configuration codes and (3, n) rows of the records on a block of
    lines, or None when the block does not decode in one call or one of them
    breaks the contract.

    The block is decoded in one call, and only when every line holds
    exactly one ``{`` and one ``}`` and that gives one object a line: then
    every brace is structural, no object nests, and item i is line i. Any
    other block, say one with a brace inside a token or a blank line, gives
    None. The checks run on the raw JSON values, a column at a time.
    """
    text, ones = ",".join(lines), [1] * len(lines)
    if (undecodable(text) or list(map(str.count, lines, itertools.repeat("{"))) != ones
            or list(map(str.count, lines, itertools.repeat("}"))) != ones):
        return None
    try:
        docs = json.loads(f"[{text}]")
    except ValueError:  # JSONDecodeError is a ValueError
        return None
    if len(docs) != len(lines) or set(map(type, docs)) != {dict}:
        return None
    # a missing field reads as null, which only test_err, the optional field, may hold
    columns = [[doc.get(name) for doc in docs] for name in _RECORD]
    if not all(fits(column, types) for column, (_, types) in zip(columns, _RECORD.values())):
        return None
    keys, *values = columns
    if not set(map(len, keys)) <= {space.dimension}:
        return None
    codes = space.key_codes(keys)
    if -1 in codes:  # a key outside the space or of the wrong type
        return None
    rows = np.array(values, dtype=float)  # null -> NaN
    val, test, cost = rows
    tests = test[test == test]  # a JSON NaN test error is not null, and fails
    if not (len(tests) + values[1].count(None) == len(test)
            and np.all((0.0 <= val) & (val <= 1.0)) and np.all((0.0 <= tests) & (tests <= 1.0))
            and np.all((0.0 <= cost) & (cost <= FLOAT_MAX))):
        return None
    return codes, rows


def _walk_records(path: Path, space: SearchSpace, lines: list[str], start: int, seen: set[int]):
    """The codes and (3, n) rows of the records on ``lines``, the first line
    numbered ``start``, read a line at a time; each code joins ``seen``.
    Raises ValueError for the first line with undecodable bytes, bad JSON, a
    record that is not an object or whose fields break :data:`_RECORD`, a bad
    key, bad values (:func:`_row_problem`), or a code in ``seen``."""
    def fail(problem):
        raise ValueError(f"{path}:{lineno}: {problem}")

    codes, rows = [], []
    for lineno, row in decode_lines(path, lines, start):
        if not isinstance(row, dict):
            fail("record is not a JSON object")
        check_fields(f"{path}:{lineno}: record", row, _RECORD, ("test_err",))
        key = row["key"]
        if len(key) != space.dimension:
            fail(f"key {key!r} is not a {space.dimension}-element list")
        code = space.key_codes([key]).item()
        if code < 0:  # a wrongly typed value, or else one outside its domain
            for p, v in zip(space.params, key):
                kind, what = (int, "an integer") if p.kind == "integer" else (str, "a token")
                if isinstance(v, bool) or not isinstance(v, kind):
                    fail(f"key component {v!r} for {p.name!r} is not {what}")
            fail(f"key {tuple(key)!r} outside the declared space")
        values = row["val_err"], row.get("test_err"), row["cost"]
        if problem := _row_problem(*values):
            fail(problem)
        if code in seen:
            fail(f"duplicate configuration key {key!r}")
        seen.add(code)
        codes.append(code)
        rows.append(values)
    return np.array(codes, dtype=np.int64), np.array(rows, dtype=float).reshape(-1, 3).T


def write_tabular(bench: TabularBenchmark, path: str | Path):
    """Write a tabular benchmark in the format :func:`load_tabular` reads.

    Rows are sorted by key, so identical benchmarks serialize to identical
    bytes.
    """
    header = {**bench.space.to_json_dict(), "benchmark_id": bench.benchmark_id}
    records = ({"key": list(key), "val_err": val, "test_err": test, "cost": cost}
               for key, (val, test, cost) in sorted(bench.table.items()))
    with replacing(path) as fh:
        fh.writelines(json.dumps(doc, separators=(",", ":")) + "\n" for doc in [header, *records])


COST_MODELS = ("unit", "lognormal")


def make_synthetic(
    num_params: int,
    choices_per_param: int,
    invalid_fraction: float = 0.0,
    cost_model: str = "lognormal",
    seed: int = 0,
) -> TabularBenchmark:
    """Build a seeded synthetic tabular benchmark with a known optimum.

    The space is ``num_params`` categorical parameters with
    ``choices_per_param`` tokens each. Every configuration gets a validation
    error from per-choice main effects plus weaker pairwise interactions
    (min-max rescaled into [0.05, 0.95]), so configurations sharing choices
    have similar errors. Test errors are the validation errors plus small
    clipped noise. Exactly ``floor(total * invalid_fraction)`` seeded
    configurations are dropped from the table, which marks them invalid.
    """
    if num_params < 1 or choices_per_param < 1:
        raise ValueError("need at least one parameter and one choice")
    if not 0.0 <= invalid_fraction < 1.0:
        raise ValueError(f"invalid_fraction must be in [0, 1), got {invalid_fraction}")
    if cost_model not in COST_MODELS:
        raise ValueError(f"unknown cost model {cost_model!r}; pick one of {COST_MODELS}")
    total = choices_per_param**num_params
    if total > MAX_SYNTHETIC_CONFIGS:
        raise ValueError(
            f"{num_params} params x {choices_per_param} choices enumerates to "
            f"{total} configurations, above the limit of {MAX_SYNTHETIC_CONFIGS}"
        )

    tokens = tuple(f"c{i}" for i in range(choices_per_param))
    space = SearchSpace(params=tuple(
        ParameterSpec(name=f"p{i}", kind="categorical", choices=tokens)
        for i in range(num_params)
    ))

    rng = np.random.default_rng(seed)
    main = rng.normal(0.0, 1.0, size=(num_params, choices_per_param))
    pairs = list(itertools.combinations(range(num_params), 2))
    inter = rng.normal(0.0, 0.5, size=(len(pairs), choices_per_param, choices_per_param))

    idx = np.indices((choices_per_param,) * num_params, dtype=np.intp).reshape(num_params, -1).T
    raw = np.zeros(total)
    for p in range(num_params):
        raw += main[p, idx[:, p]]
    for k, (p, q) in enumerate(pairs):
        raw += inter[k, idx[:, p], idx[:, q]]

    span = raw.max() - raw.min()
    if span > 0:
        val_err = 0.05 + 0.9 * (raw - raw.min()) / span
    else:
        val_err = np.full(total, 0.5)
    test_err = np.clip(val_err + rng.normal(0.0, 0.02, size=total), 0.0, 1.0)
    if cost_model == "unit":
        cost = np.ones(total)
    else:
        cost = rng.lognormal(mean=0.0, sigma=0.5, size=total)

    n_invalid = int(math.floor(total * invalid_fraction))
    listed = np.ones(total, dtype=bool)
    listed[rng.choice(total, size=n_invalid, replace=False)] = False

    benchmark_id = _spec_id("synthetic", f"{num_params}x{choices_per_param}", {
        "invalid_fraction": invalid_fraction, "cost_model": cost_model, "seed": seed})
    # configurations are enumerated in code order: the code of row r is r
    return TabularBenchmark(space, benchmark_id, np.flatnonzero(listed),
                            np.array([val_err, test_err, cost])[:, listed])


# f over the last axis: one value per point, for one point or a block of them
def _sphere(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=-1)


def _rastrigin(x: np.ndarray) -> np.ndarray:
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


_FUNCTIONS = {"sphere": _sphere, "rastrigin": _rastrigin}


@dataclass(frozen=True)
class FunctionBenchmark:
    """Continuous test function over a box, squashed into the error scale.

    The raw objective ``f >= 0`` (minimum 0 at the origin) is mapped to
    ``f / (1 + f)``, a strictly increasing squash onto [0, 1), so the
    benchmark's best validation error is exactly 0. Every evaluation costs
    one second. There is no test metric.
    """

    name: str
    dimension: int
    lo: float = -5.0
    hi: float = 5.0
    space: SearchSpace = field(init=False)
    benchmark_id: str = field(init=False)
    best_validation_error: float = field(init=False, default=0.0)
    best_test_error: None = field(init=False, default=None)

    def __post_init__(self):
        if self.name not in _FUNCTIONS:
            raise ValueError(f"unknown function {self.name!r}; pick one of {sorted(_FUNCTIONS)}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not self.lo < self.hi:
            raise ValueError(f"requires lo < hi, got [{self.lo}, {self.hi}]")
        if not self.lo <= 0.0 <= self.hi:
            # the advertised optimum is the origin, so it must be feasible
            raise ValueError(f"bounds [{self.lo}, {self.hi}] must contain 0")
        m = max(abs(self.lo), abs(self.hi))  # f peaks at D * m**2 (sphere), D * (m**2 + 20)
        if not math.isfinite(self.dimension * (m * m + 20.0 * (self.name == "rastrigin"))):
            raise ValueError(f"bounds [{self.lo}, {self.hi}] are too wide: {self.name} "
                             "exceeds the largest float on them")
        object.__setattr__(self, "space", SearchSpace(params=tuple(
            ParameterSpec(name=f"x{i}", kind="float", lo=self.lo, hi=self.hi)
            for i in range(self.dimension)
        )))
        object.__setattr__(self, "benchmark_id", _spec_id(self.name, self.dimension, vars(self)))

    def evaluate(self, config: Configuration) -> tuple[float, None, float]:
        x = np.asarray(config, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} coordinates, got {x.shape}")
        return float(self._squashed(x[None])[0]), None, 1.0

    def evaluate_batch(self, genotypes: np.ndarray) -> tuple[np.ndarray, ...]:
        """The (val, test, cost, valid) columns of an (N, D) genotype block,
        computed row-wise in one pass: no test error, unit cost, all valid."""
        n = len(genotypes)
        return (self._squashed(self.space.decode(genotypes)), np.full(n, math.nan), np.ones(n),
                np.ones(n, dtype=bool))

    def _squashed(self, x: np.ndarray) -> np.ndarray:
        f = _FUNCTIONS[self.name](x)
        return f / (1.0 + f)


# each spec family's option keys, in the order its ids spell them, with the
# builder parameter and type of each
SPECS = {"synthetic": {"invalid": ("invalid_fraction", float), "cost": ("cost_model", str),
                       "seed": ("seed", int)},
         **dict.fromkeys(_FUNCTIONS, {"lo": ("lo", float), "hi": ("hi", float)})}


def _spec_id(family: str, head: int | str, values: dict) -> str:
    """The id of a ``family`` benchmark: its spec with every option of :data:`SPECS`
    spelled from ``values``, by builder parameter, short (``:g`` for a float)
    where that reads back as the same value, else by ``repr``."""
    parts = [family, str(head)]
    for key, (name, kind) in SPECS[family].items():
        value = kind(values[name])  # a numpy scalar's repr names its type
        short = f"{value:g}" if kind is float else str(value)
        parts.append(f"{key}={short if kind(short) == value else repr(value)}")
    return ":".join(parts)


def parse_benchmark(spec: str) -> Benchmark:
    """The benchmark of ``synthetic:PxC[:invalid=F][:cost=unit|lognormal][:seed=K]``,
    ``sphere:D[:lo=A][:hi=B]``, ``rastrigin:D[:lo=A][:hi=B]``, ``tabular:PATH``
    or a bare PATH. Options come in any order and an empty one is skipped; a
    spec's ValueError quotes it, a tabular file's names its path instead."""
    family, _, rest = spec.partition(":")
    if family not in SPECS:
        path = rest if family == "tabular" else spec
        if not path:  # Path("") is ".", which would fail naming "."
            raise ValueError(f"benchmark {spec!r}: no tabular file path")
        return load_tabular(path)
    head, *parts = rest.split(":")
    schema, options = SPECS[family], {}
    try:
        shape = head.lower().split("x")
        if family == "synthetic" and len(shape) != 2:
            raise ValueError(f"synthetic spec needs PxC, got {head!r}")
        for part in filter(None, parts):
            key, eq, value = part.partition("=")
            if not eq or key not in schema:
                raise ValueError(f"bad benchmark option {part!r}; known: {sorted(schema)}")
            name, kind = schema[key]
            if name in options:
                raise ValueError(f"option {key!r} given twice")
            options[name] = kind(value)
        if family == "synthetic":
            return make_synthetic(*map(int, shape), **options)
        return FunctionBenchmark(family, int(head), **options)
    except ValueError as exc:
        raise ValueError(f"benchmark {spec!r}: {exc}") from None
