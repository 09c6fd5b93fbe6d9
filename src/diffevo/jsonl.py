"""How the package reads and writes its files: JSON Lines and text.

Tabular benchmarks and traces are read in as JSON Lines; traces, tabular
benchmarks and curve CSVs are written out. Every reader and writer keeps
these rules:

* a line ends only at ``"\\n"``: JSON allows a lone ``"\\r"`` between
  tokens and U+2028 in a string;
* an undecodable byte fails with a ValueError naming ``path:line``;
* bool is not int: ``true`` is refused wherever a number is asked for;
* an integer above the largest float is refused wherever a float is
  allowed: a float conversion would round it to that float, or overflow;
* every file is written through ``path`` + ".tmp", which replaces ``path``
  only when complete;
* every finite float is spelled by ``repr``.
"""

from __future__ import annotations

import itertools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FLOAT_MAX = sys.float_info.max
# a JSON Lines file is read, decoded and checked this many lines at a time
BLOCK_LINES = 1024


def undecodable(line: str) -> str | None:
    """For text read with ``errors="surrogateescape"``: the UTF-8 decoder's
    message for the first undecodable byte of ``line``, or None."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            return str(exc)
    return None


def line_blocks(path: Path):
    """The lines of ``path`` in lists of :data:`BLOCK_LINES`, from one open
    file. A line ends only at "\\n". An undecodable byte reads as a lone
    surrogate."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        while lines := list(itertools.islice(fh, BLOCK_LINES)):
            yield lines


def decode_lines(path: Path, lines: list[str], start: int):
    """(line number, JSON value) of each line of ``lines`` that is not blank,
    the first numbered ``start``; raises ValueError naming ``path:line`` for
    an undecodable byte or bad JSON."""
    for lineno, line in enumerate(lines, start):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if problem := undecodable(line):
            raise ValueError(f"{path}:{lineno}: {problem}")
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        yield lineno, value


def fits(values: list, types: tuple) -> bool:
    """Whether each of the JSON ``values`` is of one of ``types`` (bool is
    not int here), with no integer above the largest float where ``types``
    lists float."""
    kinds = set(map(type, values))
    return kinds.issubset(types) and not (float in types and int in kinds and max(
        abs(v) for v in values if type(v) is int) > FLOAT_MAX)  # exact


def check_fields(where: str, doc: dict, fields: dict, optional=()):
    """Raise ValueError starting ``where`` when ``doc`` lacks a field of
    ``fields`` not in ``optional``, or holds one that its row's JSON types
    do not :func:`fits`; each row of ``fields`` ends in its JSON type name
    and JSON types."""
    if missing := fields.keys() - doc.keys() - set(optional):
        raise ValueError(f"{where} lacks fields {sorted(missing)}")
    for name, (*_, kind, types) in fields.items():
        if name not in doc:
            continue
        value = doc[name]
        if type(value) not in types:
            raise ValueError(f"{where} field {name!r} is not {kind}: {value!r}")
        if not fits([value], types):
            raise ValueError(f"{where} field {name!r} is too large for a float")


@contextmanager
def replacing(path: str | Path):
    """A file to write ``path`` through: ``path`` + ".tmp", opened as UTF-8
    text without newline translation. It replaces ``path`` when the block
    ends and is unlinked when the block raises."""
    tmp = Path(f"{path}.tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def spell_floats(column: np.ndarray, nan: str = "NaN", inf: str = "Infinity") -> list[str]:
    """Each value spelled by ``repr`` when finite, else as ``nan``, ``inf`` or ``"-" + inf``:
    by default, as ``json.dumps`` spells a float. Each distinct bit pattern (-0.0 is not 0.0)
    is spelled once, and each run of equal values looked up once; when the runs are in
    increasing bit order, such as a cumulative cost's, they are distinct and need no sort."""
    bits = np.asarray(column, dtype=float).view(np.int64)
    starts = np.flatnonzero(bits != np.concatenate((~bits[:1], bits[:-1])))  # each run's first row
    heads, inverse = bits[starts], None
    if not (heads[1:] > heads[:-1]).all():
        heads, inverse = np.unique(heads, return_inverse=True)
    values = heads.view(np.float64)
    text = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():  # repr gives nan, inf, -inf
        text[i] = {"nan": nan, "inf": inf, "-inf": "-" + inf}[text[i]]
    if inverse is None and len(text) == len(bits):  # distinct and in order
        return text
    text = np.array(text, dtype=object)
    return np.repeat(text if inverse is None else text[inverse],
                     np.diff(starts, append=len(bits))).tolist()
