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

Scalars use the shared text syntax (`1/2 + 1/2*z3^1`).  Parse errors carry
the line and column of the offending token.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from .algebra import Algebra, DictSC, SerreData
from .errors import ParseError
from .linalg import SparseMatrix
from .modules import ModuleRep
from .scalars import CycScalar, parse_scalar


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_assignments(text: str) -> list[tuple[int, str, str]]:
    out = []
    for lineno, line in _lines(text):
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        out.append((lineno, key.strip(), value.strip()))
    return out


def _scalar_at(text: str, lineno: int) -> CycScalar:
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}", line=lineno) from None


def _parse_vector(text: str, dim: int, lineno: int) -> tuple[CycScalar, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected [ ... ] vector", line=lineno)
    inner = text[1:-1].strip()
    parts = _split_top_level(inner) if inner else []
    if len(parts) != dim:
        raise ParseError(f"expected {dim} coordinates, got {len(parts)}", line=lineno)
    return tuple(_scalar_at(p, lineno) for p in parts)


def _int_at(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", line=lineno) from None


def _parse_sparse(text: str, dim: int, lineno: int) -> dict[int, CycScalar]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected [ k:scalar, ... ]", line=lineno)
    inner = text[1:-1].strip()
    out: dict[int, CycScalar] = {}
    if not inner:
        return out
    for part in _split_top_level(inner):
        if ":" not in part:
            raise ParseError(f"expected k:scalar in {part!r}", line=lineno)
        k_text, _, s_text = part.partition(":")
        k = _int_at(k_text, "index", lineno)
        if not (0 <= k < dim):
            raise ParseError(f"index {k} out of range 0..{dim - 1}", line=lineno)
        v = _scalar_at(s_text, lineno)
        if v:
            out[k] = v
    return out


def _split_top_level(text: str) -> list[str]:
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
    return [p for p in parts if p]


def parse_algebra_file(text: str, name: str = "file") -> Algebra:
    dim: Optional[int] = None
    field_order = 1
    unit = None
    frobenius = None
    labels: dict[int, str] = {}
    mult: dict[tuple[int, int], dict[int, CycScalar]] = {}
    for lineno, key, value in _parse_assignments(text):
        words = key.split()
        if words[0] == "dim":
            dim = _int_at(value, "dim", lineno)
            if dim < 1:
                raise ParseError(f"dim must be at least 1, got {dim}", line=lineno)
        elif words[0] == "field_order":
            field_order = _int_at(value, "field_order", lineno)
        elif words[0] == "label":
            labels[_int_at(" ".join(words[1:]), "label index", lineno)] = value
        elif words[0] == "unit":
            if dim is None:
                raise ParseError("dim must come before unit", line=lineno)
            unit = _parse_vector(value, dim, lineno)
        elif words[0] == "mult":
            if dim is None:
                raise ParseError("dim must come before mult", line=lineno)
            if len(words) != 3:
                raise ParseError("expected 'mult i j = [...]'", line=lineno)
            i, j = (_int_at(w, "mult index", lineno) for w in words[1:])
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(f"mult indices ({i}, {j}) out of range", line=lineno)
            mult[(i, j)] = _parse_sparse(value, dim, lineno)
        elif words[0] == "frobenius":
            if dim is None:
                raise ParseError("dim must come before frobenius", line=lineno)
            frobenius = _parse_vector(value, dim, lineno)
        else:
            raise ParseError(f"unknown key {words[0]!r}", line=lineno)
    if dim is None:
        raise ParseError("missing dim")
    if unit is None:
        raise ParseError("missing unit")
    label_list = [labels.get(i, f"e{i}") for i in range(dim)]
    serre = SerreData(frobenius) if frobenius is not None else None
    return Algebra(dim, DictSC(mult), unit, labels=label_list, serre=serre,
                   field_order=field_order, provenance=("custom", name))


def parse_module_file(text: str, resolve_algebra: Callable[[str], Algebra],
                      name: str = "file") -> ModuleRep:
    algebra: Optional[Algebra] = None
    dim: Optional[int] = None
    actions: dict[int, SparseMatrix] = {}
    for lineno, key, value in _parse_assignments(text):
        words = key.split()
        if words[0] == "algebra":
            algebra = resolve_algebra(value)
        elif words[0] == "dim":
            dim = _int_at(value, "dim", lineno)
        elif words[0] == "action":
            if algebra is None or dim is None:
                raise ParseError("algebra and dim must come before actions", line=lineno)
            i = _int_at(" ".join(words[1:]), "action index", lineno)
            if not (0 <= i < algebra.dim):
                raise ParseError(f"action index {i} out of range", line=lineno)
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


def _parse_matrix(text: str, dim: int, lineno: int) -> SparseMatrix:
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ParseError("expected [[row], [row], ...]", line=lineno)
    rows_text = _split_top_level(text[1:-1])
    if len(rows_text) != dim:
        raise ParseError(f"expected {dim} rows, got {len(rows_text)}", line=lineno)
    grid = []
    for row_text in rows_text:
        row_text = row_text.strip()
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError("expected [ ... ] row", line=lineno)
        entries = _split_top_level(row_text[1:-1])
        if len(entries) != dim:
            raise ParseError(f"expected {dim} entries per row", line=lineno)
        grid.append([_scalar_at(e, lineno) for e in entries])
    return SparseMatrix.from_dense(grid)


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
