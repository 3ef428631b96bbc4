"""Parsers for the on-disk algebra and module descriptions.

Algebra file (UTF-8, `#` comments, one `key = value` per line):

    dim = 2
    field_order = 1
    label 0 = e            # optional
    unit = [1, 0]
    mult 0 0 = [0:1]       # sparse coords k:scalar, comma separated
    mult 0 1 = [1:1]
    mult 1 0 = [1:1]
    mult 1 1 = [0:1]
    frobenius = [1, 0]     # optional trace functional

Module file:

    algebra = zn:2         # fixture name or path to an algebra file
    dim = 1
    action 0 = [[1]]
    action 1 = [[-1]]

Scalars use the shared text syntax (`1/2 + 1/2*z3^1`).  Each key is given
once, and a one-word key as one word; `label i` and `action i` once per
index and `mult i j` once per pair, and a sparse vector names each index
once.  A list may not hold an empty item, and an integer outside its range
(`dim` and `field_order` at least 1, an index inside its dimension) is
refused.  Parse errors carry the line and column of the offending token; an
`algebra` value that does not resolve is refused with its line.

The same readers (`split_items`, `parse_int`, `_parse_vector`,
`_parse_matrix`) read the fixture grammar and the command line, whose input
has no line: their errors carry no position.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from .algebra import Algebra, DictSC, SerreData
from .errors import ParseError
from .linalg import SparseMatrix
from .modules import ModuleRep
from .scalars import CycScalar, _is_digits, parse_scalar


def _parse_assignments(text: str) -> list[tuple[int, list[str], str]]:
    """Each line's number, the words of its key and its value; comments and
    blank lines are skipped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, eq, value = raw.split("#", 1)[0].partition("=")
        words = key.split()
        if not (eq or words):
            continue
        if not (eq and words):
            raise ParseError("expected 'key = value'", line=lineno)
        out.append((lineno, words, value.strip()))
    return out


def split_items(text: str, line: Optional[int] = None) -> list[str]:
    """The comma-separated items of `text` at bracket depth 0, stripped; none
    for blank text.  An empty item is refused."""
    if not text.strip():
        return []
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    if "" in parts:
        raise ParseError(f"empty item in {text!r}", line=line)
    return parts


def parse_int(text: str, what: str, line: Optional[int] = None,
              low: Optional[int] = None, high: Optional[int] = None,
              col: Optional[int] = None) -> int:
    """The integer `text`: ASCII digits 0-9 with an optional sign, refused
    outside low..high (a `high` needs a `low`)."""
    digits = text.strip()
    if not _is_digits(digits[1:] if digits[:1] in ("+", "-") else digits):
        raise ParseError(f"bad {what} {text!r}", line=line, col=col)
    n = int(digits)
    if high is not None and not low <= n <= high:
        raise ParseError(f"{what} {n} out of range {low}..{high}", line=line, col=col)
    if low is not None and n < low:
        raise ParseError(f"{what} must be at least {low}, got {n}", line=line, col=col)
    return n


def _scalar_at(text: str, line: Optional[int]) -> CycScalar:
    try:
        return parse_scalar(text)
    except ParseError as exc:
        if line is None:
            raise
        raise ParseError(f"bad scalar {text!r}: {exc}", line=line) from None


def _parse_vector(text: str, dim: int, line: Optional[int] = None) -> tuple[CycScalar, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected [ ... ] vector", line=line)
    parts = split_items(text[1:-1], line)
    if len(parts) != dim:
        raise ParseError(f"expected {dim} coordinates, got {len(parts)}", line=line)
    return tuple(_scalar_at(p, line) for p in parts)


def _parse_sparse(text: str, dim: int, line: int) -> dict[int, CycScalar]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected [ k:scalar, ... ]", line=line)
    out: dict[int, CycScalar] = {}
    for part in split_items(text[1:-1], line):
        if ":" not in part:
            raise ParseError(f"expected k:scalar in {part!r}", line=line)
        k_text, _, s_text = part.partition(":")
        k = parse_int(k_text, "index", line, 0, dim - 1)
        if k in out:
            raise ParseError(f"repeated index {k}", line=line)
        out[k] = _scalar_at(s_text, line)
    return {k: v for k, v in out.items() if v}


def _first(seen: set, key: tuple, line: int) -> None:
    """Refuse a second assignment to `key`, a key word and its indices."""
    if key in seen:
        raise ParseError(f"repeated key {' '.join(map(str, key))!r}", line=line)
    seen.add(key)


def _single(seen: set, words: list[str], line: int) -> None:
    """Refuse more words after a one-word key, and a second assignment to it."""
    if len(words) != 1:
        raise ParseError(f"expected '{words[0]} = ...', got {' '.join(words)!r}", line=line)
    _first(seen, (words[0],), line)


def parse_algebra_file(text: str, name: str = "file") -> Algebra:
    dim: Optional[int] = None
    field_order = 1
    unit = None
    frobenius = None
    label_lines: list[tuple[int, str, str]] = []
    mult: dict[tuple[int, int], dict[int, CycScalar]] = {}
    seen: set = set()
    for lineno, words, value in _parse_assignments(text):
        if words[0] in ("dim", "field_order", "unit", "frobenius"):
            _single(seen, words, lineno)
        if words[0] in ("unit", "mult", "frobenius") and dim is None:
            raise ParseError(f"dim must come before {words[0]}", line=lineno)
        if words[0] == "dim":
            dim = parse_int(value, "dim", lineno, low=1)
        elif words[0] == "field_order":
            field_order = parse_int(value, "field_order", lineno, low=1)
        elif words[0] == "label":
            label_lines.append((lineno, " ".join(words[1:]), value))
        elif words[0] == "unit":
            unit = _parse_vector(value, dim, lineno)
        elif words[0] == "mult":
            if len(words) != 3:
                raise ParseError("expected 'mult i j = [...]'", line=lineno)
            i, j = (parse_int(w, "mult index", lineno, 0, dim - 1) for w in words[1:])
            _first(seen, ("mult", i, j), lineno)
            mult[(i, j)] = _parse_sparse(value, dim, lineno)
        elif words[0] == "frobenius":
            frobenius = _parse_vector(value, dim, lineno)
        else:
            raise ParseError(f"unknown key {words[0]!r}", line=lineno)
    if dim is None:
        raise ParseError("missing dim")
    labels = [f"e{i}" for i in range(dim)]
    for lineno, index_text, value in label_lines:  # a label may come before dim
        i = parse_int(index_text, "label index", lineno, 0, dim - 1)
        _first(seen, ("label", i), lineno)
        labels[i] = value
    if unit is None:
        raise ParseError("missing unit")
    serre = SerreData(frobenius) if frobenius is not None else None
    return Algebra(dim, DictSC(mult), unit, labels=labels, serre=serre,
                   field_order=field_order, provenance=("custom", name))


def parse_module_file(text: str, resolve_algebra: Callable[[str], Algebra],
                      name: str = "file") -> ModuleRep:
    algebra: Optional[Algebra] = None
    dim: Optional[int] = None
    actions: dict[int, SparseMatrix] = {}
    seen: set = set()
    for lineno, words, value in _parse_assignments(text):
        if words[0] in ("algebra", "dim"):
            _single(seen, words, lineno)
        if words[0] == "algebra":
            try:
                algebra = resolve_algebra(value)
            except ParseError as exc:
                raise ParseError(f"bad algebra {value!r}: {exc}", line=lineno) from None
        elif words[0] == "dim":
            dim = parse_int(value, "dim", lineno, low=1)
        elif words[0] == "action":
            if algebra is None or dim is None:
                raise ParseError("algebra and dim must come before actions", line=lineno)
            i = parse_int(" ".join(words[1:]), "action index", lineno, 0, algebra.dim - 1)
            _first(seen, ("action", i), lineno)
            actions[i] = _parse_matrix(value, dim, lineno)
        else:
            raise ParseError(f"unknown key {words[0]!r}", line=lineno)
    if algebra is None or dim is None:
        raise ParseError("missing algebra or dim")
    missing = [i for i in range(algebra.dim) if i not in actions]
    if missing:
        raise ParseError(f"missing action rows for basis indices {missing}")
    module = ModuleRep(algebra, dim, [actions[i] for i in range(algebra.dim)],
                       name=name, check=True)
    return module


def _parse_matrix(text: str, dim: int, line: Optional[int] = None) -> SparseMatrix:
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ParseError("expected [[row], [row], ...]", line=line)
    rows = split_items(text[1:-1], line)
    if len(rows) != dim:
        raise ParseError(f"expected {dim} rows, got {len(rows)}", line=line)
    return SparseMatrix.from_dense([_parse_vector(row, dim, line) for row in rows])


def read_spec_file(path: str) -> str:
    """The text of a spec file.  A file that is not UTF-8 is a ParseError
    at the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.path.basename(path)!r} is not UTF-8 text",
                         line=data.count(b"\n", 0, exc.start) + 1,
                         col=exc.start - data.rfind(b"\n", 0, exc.start)) from None


def load_algebra_text(path: str) -> Algebra:
    return parse_algebra_file(read_spec_file(path), name=os.path.basename(path))
