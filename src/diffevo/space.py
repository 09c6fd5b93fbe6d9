"""Mixed-type search spaces and the unit-interval genotype encoding.

A search space is an ordered list of parameters (float, integer, ordinal,
categorical). Optimizers operate on genotypes, vectors in [0, 1]^D, and map
them to native-domain configurations only when a point has to be evaluated:

* float ``[a, b]``      -> ``a + (b - a) * u``
* integer ``[a, b]``    -> same affine map, then rounded half away from zero
* ordinal/categorical   -> [0, 1] split uniformly into ``n`` left-closed bins,
  one per token; the final bin is closed at 1 so ``u = 1.0`` selects the last
  token.

Configurations are plain tuples, ordered exactly like the parameter list,
which makes them hashable keys for tabular benchmark lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Union

import numpy as np

Token = str
Value = Union[float, int, Token]
Configuration = tuple  # one native value per parameter, in declaration order

KINDS = ("float", "integer", "ordinal", "categorical")


@dataclass(frozen=True)
class ParameterSpec:
    """One tunable dimension and its native domain.

    ``lo``/``hi`` apply to float and integer kinds, ``values`` to ordinal,
    ``choices`` to categorical. Exactly the fields of the matching kind may
    be set. Numeric bounds must be finite, and degenerate single-value
    numeric ranges are rejected: every parameter must offer at least two
    distinct values for float/integer kinds, and at least one token
    otherwise.
    """

    name: str
    kind: str
    lo: float | int | None = None
    hi: float | int | None = None
    values: tuple[Token, ...] | None = None
    choices: tuple[Token, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("parameter name must be a non-empty string")
        if self.kind not in KINDS:
            raise ValueError(f"parameter {self.name!r}: unknown kind {self.kind!r}")
        # tuples keep the parameter hashable even when built from JSON lists
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))

        if self.kind in ("float", "integer"):
            if self.lo is None or self.hi is None:
                raise ValueError(f"parameter {self.name!r}: {self.kind} kind requires lo and hi")
            if self.values is not None or self.choices is not None:
                raise ValueError(f"parameter {self.name!r}: {self.kind} kind takes no token list")
            if not all(_is_number(b) for b in (self.lo, self.hi)):
                raise ValueError(f"parameter {self.name!r}: bounds must be numeric")
            if not all(math.isfinite(b) for b in (self.lo, self.hi)):
                raise ValueError(f"parameter {self.name!r}: bounds must be finite")
            if self.kind == "integer" and not (
                isinstance(self.lo, int) and isinstance(self.hi, int)
            ):
                raise ValueError(f"parameter {self.name!r}: integer bounds must be ints")
            if not self.lo < self.hi:
                raise ValueError(
                    f"parameter {self.name!r}: requires lo < hi, got [{self.lo}, {self.hi}]"
                )
        elif self.kind == "ordinal":
            if self.values is None or self.lo is not None or self.hi is not None or self.choices is not None:
                raise ValueError(f"parameter {self.name!r}: ordinal kind requires exactly 'values'")
            _check_tokens(self.name, self.values)
        else:  # categorical
            if self.choices is None or self.lo is not None or self.hi is not None or self.values is not None:
                raise ValueError(f"parameter {self.name!r}: categorical kind requires exactly 'choices'")
            _check_tokens(self.name, self.choices)

    @property
    def tokens(self) -> tuple[Token, ...] | None:
        """The ordered token list for ordinal/categorical kinds, else None."""
        if self.kind == "ordinal":
            return self.values
        if self.kind == "categorical":
            return self.choices
        return None

    def contains(self, value: Value) -> bool:
        """True when ``value`` lies in this parameter's native domain."""
        if self.kind == "float":
            return _is_number(value) and self.lo <= value <= self.hi
        if self.kind == "integer":
            return isinstance(value, int) and not isinstance(value, bool) and self.lo <= value <= self.hi
        return value in self.tokens

    def to_json_dict(self) -> dict[str, Any]:
        if self.kind in ("float", "integer"):
            return {"name": self.name, "kind": self.kind, "lo": self.lo, "hi": self.hi}
        if self.kind == "ordinal":
            return {"name": self.name, "kind": self.kind, "values": list(self.values)}
        return {"name": self.name, "kind": self.kind, "choices": list(self.choices)}

    @classmethod
    def from_json_dict(cls, doc: dict[str, Any]) -> "ParameterSpec":
        known = {"name", "kind", "lo", "hi", "values", "choices"}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"parameter document has unknown fields {sorted(extra)}")
        return cls(**doc)


def _is_number(value) -> bool:
    """A real number that is not a bool: Python's or numpy's."""
    return type(value) is float or (isinstance(value, (int, np.integer, np.floating))
                                    and not isinstance(value, bool))


def _check_tokens(name: str, tokens: tuple[Token, ...]):
    if len(tokens) < 1:
        raise ValueError(f"parameter {name!r}: needs at least one token")
    if len(set(tokens)) != len(tokens):
        raise ValueError(f"parameter {name!r}: tokens must be unique")


def _float_value(lo: float, span: float, u: float) -> float:
    return lo + span * u


def _integer_value(lo: int, span: int, u: float) -> int:
    # round() is half-to-even; integer discretization wants half away from zero
    x = lo + span * u
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _token_value(tokens: tuple[Token, ...], u: float) -> Token:
    return tokens[min(int(u * len(tokens)), len(tokens) - 1)]


def _decoder(p: ParameterSpec) -> Callable[[float], Value]:
    """The map of ``p`` for a coordinate already checked to lie in [0, 1]."""
    if p.kind in ("float", "integer"):
        return partial(_float_value if p.kind == "float" else _integer_value, p.lo, p.hi - p.lo)
    return partial(_token_value, p.tokens)


@dataclass(frozen=True)
class SearchSpace:
    """An ordered, immutable list of parameters; D is the genotype length."""

    params: tuple[ParameterSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if len(self.params) < 1:
            raise ValueError("search space needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        # not a field: equality, hashing and the JSON form see only the params
        object.__setattr__(self, "_decoders", tuple(_decoder(p) for p in self.params))

    @property
    def dimension(self) -> int:
        return len(self.params)

    def discretize(self, genotype: np.ndarray) -> Configuration:
        """Map a genotype in [0, 1]^D to a native-domain configuration.

        Deterministic and total on valid inputs; raises ValueError on a
        dimension mismatch or any coordinate outside [0, 1].
        """
        return next(self.discretize_rows(np.reshape(genotype, (1, -1))))

    def discretize_rows(self, genotypes: np.ndarray) -> Iterator[Configuration]:
        """The configurations of the rows of an (N, D) genotype block, in order.

        A wrong width or any coordinate outside [0, 1] raises ValueError
        before any row is decoded; rows are decoded as the iterator is read.
        """
        genotypes = np.asarray(genotypes, dtype=float)
        if genotypes.ndim != 2 or genotypes.shape[1] != self.dimension:
            raise ValueError(f"genotypes of shape {genotypes.shape} do not have "
                             f"{self.dimension} values a row, the space's dimension")
        rows = genotypes.tolist()
        # a Python pass: numpy's fixed cost per call would dominate one-row blocks
        if not all([0.0 <= u <= 1.0 for row in rows for u in row]):
            p, u = next((p, u) for row in rows for p, u in zip(self.params, row)
                        if not 0.0 <= u <= 1.0)
            raise ValueError(f"parameter {p.name!r}: genotype value {u} outside [0, 1]")
        decoders = self._decoders
        return (tuple([decode(u) for decode, u in zip(decoders, row)]) for row in rows)

    def contains(self, config: Iterable[Value]) -> bool:
        config = tuple(config)
        if len(config) != self.dimension:
            return False
        return all(p.contains(v) for p, v in zip(self.params, config))

    def to_json_dict(self) -> dict[str, Any]:
        return {"params": [p.to_json_dict() for p in self.params]}

    @classmethod
    def from_json_dict(cls, doc: dict[str, Any]) -> "SearchSpace":
        if "params" not in doc:
            raise ValueError("search space document lacks a 'params' list")
        return cls(params=tuple(ParameterSpec.from_json_dict(p) for p in doc["params"]))
