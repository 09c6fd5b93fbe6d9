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
which makes them hashable keys for tabular benchmark lookups by the int64
codes that the space owns, within limits it states (``check_codes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

Token = str
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

    def positions(self, values) -> list[int]:
        """Each value's position in the domain, or -1 outside it (a bool is no integer)."""
        if self.kind == "integer":
            lo, hi = self.lo, self.hi
            return [v - lo if (type(v) is int or isinstance(v, int) and not isinstance(v, bool))
                    and lo <= v <= hi else -1 for v in values]
        position = {token: i for i, token in enumerate(self.tokens or ())}
        return [position.get(v, -1) if isinstance(v, str) else -1 for v in values]

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
    if not all(isinstance(token, str) for token in tokens):
        raise ValueError(f"parameter {name!r}: tokens must be strings")
    if len(set(tokens)) != len(tokens):
        raise ValueError(f"parameter {name!r}: tokens must be unique")


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
        # the decoding terms; not fields, so equality, hashing and the JSON
        # form see only the params. A term the space does not need is None.
        kinds = [p.kind for p in self.params]
        n_tokens = [len(p.tokens) if p.tokens else 0 for p in self.params]
        lo = [0.0 if n else float(p.lo) for p, n in zip(self.params, n_tokens)]
        span = [float(n) if n else float(p.hi - p.lo) for p, n in zip(self.params, n_tokens)]
        # codes: each value's position in its domain, in mixed radix, last fastest
        sizes = [n or p.hi - p.lo + 1 for p, n in zip(self.params, n_tokens)]
        weights = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
        terms = {
            # a float column keeps lo = 0, which turns u = -0.0 into 0.0
            "_lo": np.array(lo) if any(lo) or "float" in kinds else None,
            "_span": np.array(span),
            "_half": (np.array([0.5 * (k == "integer") for k in kinds])
                      if "integer" in kinds else None),
            "_top": (np.array([n - 1.0 if n else math.inf for n in n_tokens])
                     if any(n_tokens) else None),
            "_floats": np.array([k == "float" for k in kinds]) if "float" in kinds else None,
            "_sizes": tuple(sizes),
            "_weights": None if "float" in kinds or math.prod(sizes) >= 2**63 else np.array(weights),
        }
        for name, value in terms.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return len(self.params)

    def discretize(self, genotype: np.ndarray) -> Configuration:
        """Map a genotype in [0, 1]^D to a native-domain configuration.

        Deterministic and total on valid inputs; raises ValueError on a
        dimension mismatch or any coordinate outside [0, 1].
        """
        values = self.decode(np.reshape(genotype, (1, -1)))[0].tolist()
        return tuple(v if p.kind == "float" else p.tokens[int(v)] if p.tokens else int(v)
                     for p, v in zip(self.params, values))

    def decode(self, genotypes: np.ndarray) -> np.ndarray:
        """The native numeric values of the rows of an (N, D) genotype block.

        Returns an (N, D) float array: a float column holds its value, an
        integer column its integer, and a token column the index of its
        token. Raises ValueError on a wrong width or any coordinate outside
        [0, 1].
        """
        # C order, so that a row sum adds pairwise as the sum of one configuration does
        u = np.asarray(genotypes, dtype=float, order="C")
        if u.ndim != 2 or u.shape[1] != self.dimension:
            raise ValueError(f"genotypes of shape {u.shape} do not have "
                             f"{self.dimension} values a row, the space's dimension")
        # NaN fails both; the ufunc reductions skip the wrappers of u.min() and u.max()
        if u.size and not (np.minimum.reduce(u, axis=None) >= 0.0
                           and np.maximum.reduce(u, axis=None) <= 1.0):
            p, v = next((p, v) for row in u.tolist() for p, v in zip(self.params, row)
                        if not 0.0 <= v <= 1.0)
            raise ValueError(f"parameter {p.name!r}: genotype value {v} outside [0, 1]")
        # x = lo + span * u, where a token column has lo 0 and span n
        x = self._span * u
        if self._lo is not None:
            x += self._lo
        if self._half is None and self._top is None:
            return x
        if self._half is None:
            values = np.floor(x)
        else:  # integers round half away from zero: copysign(floor(|x| + 0.5), x)
            values = np.abs(x)
            values += self._half
            np.floor(values, out=values)
            np.copysign(values, x, out=values)
        if self._top is not None:  # u = 1 selects the last token
            np.minimum(values, self._top, out=values)
        if self._floats is not None:
            np.copyto(values, x, where=self._floats)
        return values

    def check_codes(self):
        """Raise ValueError unless the space has the int64 codes that the three
        methods below assume: no float parameter, integer bounds within
        ``+-2**52`` and at most ``2**63 - 1`` configurations."""
        for p in self.params:
            if p.kind == "float":
                raise ValueError(f"tabular benchmarks require discrete parameters; {p.name!r} is float")
            if p.kind == "integer" and max(-p.lo, p.hi) > 2**52:
                raise ValueError(f"integer parameter {p.name!r} has bounds [{p.lo}, {p.hi}] "
                                 "beyond +-2**52, which genotypes cannot decode exactly")
        if self._weights is None:
            raise ValueError(f"the space's {math.prod(self._sizes)} configurations are too "
                             "many for 64-bit configuration codes")

    def codes(self, values: np.ndarray) -> np.ndarray:
        """The int64 configuration codes of an (N, D) block of decoded values."""
        index = values if self._lo is None else values - self._lo  # an integer's lo
        return index.astype(np.int64) @ self._weights

    def key_codes(self, keys) -> np.ndarray:
        """The int64 codes of sequences of D native values, -1 for one outside the space."""
        index = np.array([p.positions(column) for p, column in zip(self.params, zip(*keys))],
                         dtype=np.int64).reshape(self.dimension, -1)
        return np.where((index < 0).any(axis=0), -1, self._weights @ index)

    def configurations(self, codes: np.ndarray) -> list[Configuration]:
        """The configurations of an array of codes: the inverse of the two above."""
        index = np.unravel_index(codes, self._sizes)
        return list(zip(*((i + p.lo).tolist() if p.kind == "integer" else
                          [p.tokens[k] for k in i.tolist()] for p, i in zip(self.params, index))))

    def to_json_dict(self) -> dict[str, Any]:
        return {"params": [p.to_json_dict() for p in self.params]}

    @classmethod
    def from_json_dict(cls, doc: dict[str, Any]) -> "SearchSpace":
        if "params" not in doc or not isinstance(doc["params"], list):
            raise ValueError("search space document lacks a 'params' list")
        return cls(params=tuple(ParameterSpec.from_json_dict(p) for p in doc["params"]))
