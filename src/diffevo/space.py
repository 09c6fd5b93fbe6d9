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

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Union

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
        if not self.name:
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

    @property
    def cardinality(self) -> int | None:
        """Number of distinct native values; None for float (uncountable)."""
        if self.kind == "float":
            return None
        if self.kind == "integer":
            return int(self.hi) - int(self.lo) + 1
        return len(self.tokens)

    def value_at(self, u: float) -> Value:
        """Map a unit-interval coordinate to this parameter's native domain."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"parameter {self.name!r}: genotype value {u} outside [0, 1]")
        if self.kind == "float":
            return self.lo + (self.hi - self.lo) * u
        if self.kind == "integer":
            return _round_half_away(self.lo + (self.hi - self.lo) * u)
        tokens = self.tokens
        return tokens[bin_index(u, len(tokens))]

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
        fields = dict(doc)
        for key in ("values", "choices"):
            if fields.get(key) is not None:
                fields[key] = tuple(fields[key])
        return cls(**fields)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_tokens(name: str, tokens: tuple[Token, ...]):
    if len(tokens) < 1:
        raise ValueError(f"parameter {name!r}: needs at least one token")
    if len(set(tokens)) != len(tokens):
        raise ValueError(f"parameter {name!r}: tokens must be unique")


def _round_half_away(x: float) -> int:
    # round() is half-to-even; integer discretization wants half away from zero
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


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

    @property
    def dimension(self) -> int:
        return len(self.params)

    def discretize(self, genotype: np.ndarray) -> Configuration:
        """Map a genotype in [0, 1]^D to a native-domain configuration.

        Deterministic and total on valid inputs; raises ValueError on a
        dimension mismatch or any coordinate outside [0, 1].
        """
        if len(genotype) != self.dimension:
            raise ValueError(
                f"genotype has {len(genotype)} values, space has dimension {self.dimension}"
            )
        return tuple(p.value_at(float(u)) for p, u in zip(self.params, genotype))

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

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def loads(cls, text: str) -> "SearchSpace":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "SearchSpace":
        return cls.loads(Path(path).read_text())


def bin_index(u: float, n: int) -> int:
    """Index of the bin containing ``u`` when [0, 1] is split into ``n`` bins.

    Bins are ``[k/n, (k+1)/n)`` for ``k < n - 1``; the final bin is closed at
    1, so ``u = 1.0`` maps to ``n - 1``. Kept separate from discretize so the
    rule can be property-tested against a brute-force interval scan.
    """
    if n < 1:
        raise ValueError(f"bin count must be >= 1, got {n}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"genotype value {u} outside [0, 1]")
    return min(int(math.floor(u * n)), n - 1)

