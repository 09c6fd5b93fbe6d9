"""Evaluation contract and concrete benchmarks.

A benchmark maps a native-domain configuration to one row: a validation
error in [0, 1], an optional test error, and a training cost in seconds; an
invalid configuration has no row (None). Three families are provided:

* :class:`TabularBenchmark` -- a lookup table over a finite discrete space,
  loadable from a JSON Lines file; configurations absent from the table are
  invalid (the optimizers penalize them with error 1 at zero cost).
* :func:`make_synthetic` -- a seeded, exhaustively enumerated table with an
  additive-plus-pairwise score model, so nearby configurations have similar
  errors and the global optimum is known by construction.
* :class:`FunctionBenchmark` -- sphere/rastrigin over a box, with the raw
  objective squashed into [0, 1).

All benchmarks are immutable after construction and their ``evaluate`` and
``evaluate_batch`` are pure functions, safe for any number of concurrent
callers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .space import Configuration, ParameterSpec, SearchSpace, _is_number

# configurations at most this large may be enumerated exhaustively
MAX_SYNTHETIC_CONFIGS = 10**6
# tabular integer bounds at most this large decode exactly through float genotypes
MAX_INTEGER_BOUND = 2**52


class BenchmarkLoadError(ValueError):
    """A tabular benchmark file failed validation; the message names the row."""


class Benchmark(Protocol):
    """What optimizers and the harness need from an objective."""

    space: SearchSpace
    benchmark_id: str
    best_validation_error: float
    best_test_error: float | None

    def evaluate(self, config: Configuration) -> tuple[float, float | None, float] | None:
        """The row ``(validation_error, test_error or None, cost_seconds)`` of
        ``config``, or None when the configuration is invalid."""

    # A benchmark may also offer ``evaluate_batch(genotypes)``: the list of the
    # rows ``evaluate`` gives for ``space.discretize_rows(genotypes)``. The
    # recorder then scores a whole block with one call, which may score rows
    # past a cost limit, so it suits only pure lookups.


@dataclass(frozen=True)
class TabularBenchmark:
    """Finite lookup benchmark; keys are native-value configuration tuples.

    Only categorical/ordinal/integer parameters are allowed (float-keyed
    lookup is ill-defined). Best-known errors are recomputed from the table
    at construction, never trusted from a file. Missing keys are invalid.
    """

    space: SearchSpace
    table: dict[Configuration, tuple[float, float | None, float]]
    benchmark_id: str
    best_validation_error: float = field(init=False)
    best_test_error: float | None = field(init=False)

    def __post_init__(self):
        for p in self.space.params:
            if p.kind == "float":
                raise ValueError(
                    f"tabular benchmarks require discrete parameters; {p.name!r} is float"
                )
            if p.kind == "integer" and max(-p.lo, p.hi) > MAX_INTEGER_BOUND:
                raise ValueError(f"integer parameter {p.name!r} has bounds [{p.lo}, {p.hi}] "
                                 f"beyond +-2**52, which genotypes cannot decode exactly")
        if not self.table:
            raise ValueError("tabular benchmark needs at least one listed configuration")
        sizes = [len(p.tokens) if p.tokens else p.hi - p.lo + 1 for p in self.space.params]
        total = math.prod(sizes)
        if total > np.iinfo(np.int64).max:
            raise ValueError(f"the space's {total} configurations are too many "
                             "for 64-bit configuration codes")
        index = _check_rows(self.space, self.table, where=repr)
        best_val = min(val for val, _, _ in self.table.values())
        tests = [t for _, t, _ in self.table.values() if t is not None]
        object.__setattr__(self, "best_validation_error", best_val)
        object.__setattr__(self, "best_test_error", min(tests) if tests else None)
        # the lookup by configuration code, sum(index_j * weight_j) with mixed-radix
        # weights; not fields, so equality sees only the table
        weights = np.array([math.prod(sizes[j + 1:]) for j in range(len(sizes))], dtype=np.int64)
        codes = (weights @ np.array(index, dtype=np.int64)).tolist()
        lookup = dict(zip(codes, self.table.values())).get
        base = [p.lo if p.kind == "integer" else 0 for p in self.space.params]
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_base", np.array(base, dtype=np.int64) if any(base) else None)
        object.__setattr__(self, "_lookup", lookup)

    def evaluate(self, config: Configuration) -> tuple[float, float | None, float] | None:
        return self.table.get(tuple(config))

    def evaluate_batch(self, genotypes: np.ndarray
                       ) -> list[tuple[float, float | None, float] | None]:
        """The rows of an (N, D) genotype block, one lookup per row: the same
        rows as ``evaluate`` gives for :meth:`SearchSpace.discretize_rows`."""
        index = self.space.decode(genotypes).astype(np.int64)
        if self._base is not None:
            index -= self._base
        return list(map(self._lookup, (index @ self._weights).tolist()))


def _check_rows(space, table, where) -> list[list[int]]:
    """Raise BenchmarkLoadError, naming the row by ``where(key)``, for the first
    row of ``table`` whose key or values break the contract.

    Returns the index of every key by parameter: one list per parameter of
    the position of each key's value in that parameter's domain.
    """
    d = space.dimension
    keys = zip(*(key if len(key) == d else (_OUTSIDE,) * d for key in table))
    index = [_domain_index(p, values) for p, values in zip(space.params, keys)]
    if any(-1 in column for column in index):
        outside = [-1 in key_index for key_index in zip(*index)]
    else:
        outside = itertools.repeat(False)
    for (key, (val, test, cost)), key_outside in zip(table.items(), outside):
        if key_outside:
            problem = f"key {key!r} outside the declared space"
        elif not _is_number(val):
            problem = f"validation error {val!r} is not a number"
        elif not 0.0 <= val <= 1.0:
            problem = f"validation error {val} outside [0, 1]"
        elif test is not None and not _is_number(test):
            problem = f"test error {test!r} is not a number or null"
        elif test is not None and not 0.0 <= test <= 1.0:
            problem = f"test error {test} outside [0, 1]"
        elif not _is_number(cost):
            problem = f"cost {cost!r} is not a number"
        elif not 0.0 <= cost < math.inf:
            problem = f"cost {cost} is negative or not finite"
        else:
            continue
        raise BenchmarkLoadError(f"{where(key)}: {problem}")
    return index


_OUTSIDE = object()  # stands in for every value of a key of the wrong length


def _domain_index(p: ParameterSpec, values) -> list[int]:
    """The position of each value in the domain of ``p``, or -1 outside it."""
    if p.kind == "integer":
        lo, hi = p.lo, p.hi
        return [v - lo if (type(v) is int or isinstance(v, int) and not isinstance(v, bool))
                and lo <= v <= hi else -1 for v in values]
    # a float parameter has no positions; tabular benchmarks reject it
    position = {token: i for i, token in enumerate(p.tokens or ())}
    return list(map(position.get, values, itertools.repeat(-1)))


def _canonical_key(space: SearchSpace, raw) -> Configuration:
    if not isinstance(raw, list) or len(raw) != space.dimension:
        raise BenchmarkLoadError(f"key {raw!r} is not a {space.dimension}-element list")
    key = []
    for p, v in zip(space.params, raw):
        if p.kind == "integer":
            if isinstance(v, bool) or not isinstance(v, int):
                raise BenchmarkLoadError(f"key component {v!r} for {p.name!r} is not an integer")
        elif not isinstance(v, str):
            raise BenchmarkLoadError(f"key component {v!r} for {p.name!r} is not a token")
        key.append(v)
    return tuple(key)


def load_tabular(path: str | Path) -> TabularBenchmark:
    """Load a JSON Lines tabular benchmark.

    Line 1 is a header holding the search-space document (and optionally a
    ``benchmark_id``); every further line is one configuration record
    ``{"key": [...], "val_err": ..., "test_err": ..., "cost": ...}``.
    """
    path = Path(path)
    with open(path) as fh:
        return _read_tabular(path, fh)


def _read_tabular(path: Path, fh) -> TabularBenchmark:
    # a line at a time: the file's text is never held whole, and lines end only
    # at a newline, not at the other breaks str.splitlines() knows, such as
    # U+2028, which JSON allows inside a string
    lines = (line.rstrip("\n") for line in fh)
    first = next(lines, None)
    if first is None:
        raise BenchmarkLoadError(f"{path}: empty benchmark file")

    try:
        header = json.loads(first)
        space = SearchSpace.from_json_dict(header)
        benchmark_id = header.get("benchmark_id", f"tabular:{path.stem}")
        if not isinstance(benchmark_id, str):
            raise ValueError(f"benchmark_id {benchmark_id!r} is not a string")
    except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise BenchmarkLoadError(f"{path}:1: bad header: {exc}") from exc

    table: dict[Configuration, tuple[float, float | None, float]] = {}
    linenos: list[int] = []  # the line of each table row, in insertion order

    # rows are range-checked once, by the TabularBenchmark constructor; on any
    # error, the rows read so far are checked here first, so that the error
    # names the first bad line as a line-by-line check would
    def check_rows():
        line_of = dict(zip(table, linenos))
        _check_rows(space, table, where=lambda key: f"{path}:{line_of[key]}: line {line_of[key]}")

    def fail(lineno: int, msg: str):
        check_rows()
        raise BenchmarkLoadError(f"{path}:{lineno}: {msg}")

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
        try:
            key = _canonical_key(space, row["key"])
        except BenchmarkLoadError as exc:
            fail(lineno, str(exc))
        values = (row["val_err"], row.get("test_err"), row["cost"])
        if key in table:
            check_rows()  # then this row's own values, then the repeat
            _check_rows(space, {key: values}, where=lambda _: f"{path}:{lineno}: line {lineno}")
            fail(lineno, f"duplicate configuration key {list(key)!r}")
        table[key] = values
        linenos.append(lineno)

    if not table:
        raise BenchmarkLoadError(f"{path}: no configuration records")
    try:
        return TabularBenchmark(space=space, table=table, benchmark_id=benchmark_id)
    except ValueError:
        check_rows()  # the constructor names a key; name its line instead
        raise


def write_tabular(bench: TabularBenchmark, path: str | Path):
    """Write a tabular benchmark in the format :func:`load_tabular` reads.

    Rows are sorted by key, so identical benchmarks serialize to identical
    bytes.
    """
    path = Path(path)
    header = bench.space.to_json_dict()
    header["benchmark_id"] = bench.benchmark_id
    out = [json.dumps(header, separators=(",", ":"))]
    for key in sorted(bench.table):
        val, test, cost = bench.table[key]
        out.append(json.dumps(
            {"key": list(key), "val_err": val, "test_err": test, "cost": cost},
            separators=(",", ":"),
        ))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(out) + "\n")
    tmp.replace(path)


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

    idx = np.array(list(itertools.product(range(choices_per_param), repeat=num_params)),
                   dtype=np.intp)
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
    invalid = set(rng.choice(total, size=n_invalid, replace=False).tolist())

    table = {}
    for row, combo in enumerate(idx):
        if row in invalid:
            continue
        key = tuple(tokens[c] for c in combo)
        table[key] = (float(val_err[row]), float(test_err[row]), float(cost[row]))

    benchmark_id = (
        f"synthetic:{num_params}x{choices_per_param}"
        f":invalid={invalid_fraction:g}:cost={cost_model}:seed={seed}"
    )
    return TabularBenchmark(space=space, table=table, benchmark_id=benchmark_id)


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
        object.__setattr__(self, "space", SearchSpace(params=tuple(
            ParameterSpec(name=f"x{i}", kind="float", lo=self.lo, hi=self.hi)
            for i in range(self.dimension)
        )))
        object.__setattr__(
            self, "benchmark_id",
            f"{self.name}:{self.dimension}:lo={self.lo:g}:hi={self.hi:g}",
        )

    def evaluate(self, config: Configuration) -> tuple[float, None, float]:
        x = np.asarray(config, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} coordinates, got {x.shape}")
        return self._rows(x[None])[0]

    def evaluate_batch(self, genotypes: np.ndarray) -> list[tuple[float, None, float]]:
        """The rows of an (N, D) genotype block, computed row-wise in one pass."""
        return self._rows(self.space.decode(genotypes))

    def _rows(self, x: np.ndarray) -> list[tuple[float, None, float]]:
        f = _FUNCTIONS[self.name](x)
        return [(v, None, 1.0) for v in (f / (1.0 + f)).tolist()]

