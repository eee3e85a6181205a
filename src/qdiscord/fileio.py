"""On-disk formats: states, correlation rows, unitaries, and JSON reports.

Everything is JSON with complex entries stored as [re, im] pairs, one matrix
row per line.  Floats serialize through repr (shortest round-trip form, up to
17 significant digits), so save/load is bit-exact and files diff cleanly.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import DimensionError, ParseError
from .linalg import DensityMatrix, _is_integer


def _complex_rows(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _matrix_document(header: dict, mat: np.ndarray) -> str:
    lines = ["{"]
    for key, value in header.items():
        lines.append(f"  {json.dumps(key)}: {json.dumps(value)},")
    lines.append('  "matrix": [')
    rows = _complex_rows(mat)
    for i, row in enumerate(rows):
        comma = "," if i < len(rows) - 1 else ""
        lines.append(f"    {json.dumps(row)}{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _number(v: Any, where: str) -> float:
    """A finite JSON number as a float; booleans, NaN and infinities are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where} must be a number, got {json.dumps(v)[:40]}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{where} must be finite, got {json.dumps(v)[:40]}")
    return x


def _parse_complex_matrix(obj: Any, what: str, text: str) -> np.ndarray:
    # Fast path for a well-formed numeric n x n x 2 array.  numpy reads a JSON
    # boolean as 1.0 or 0.0, so a text with a boolean literal takes the checked
    # loop below, as does anything numpy cannot make a finite number array of.
    if "true" not in text and "false" not in text:
        try:
            arr = np.asarray(obj)
        except (ValueError, OverflowError):  # ragged rows or pairs
            arr = np.empty(0)
        n = arr.shape[0] if arr.ndim else 0
        if n and arr.shape == (n, n, 2) and arr.dtype.kind in "fiu" and np.isfinite(arr).all():
            # a complex view of the [re, im] pairs keeps every bit, -0.0 included
            return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{what}: 'matrix' must be a non-empty array of rows")
    n = len(obj)
    mat = np.empty((n, n), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{what}: row {i} must hold {n} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{what}: entry ({i}, {j}) must be an [re, im] pair")
            re, im = (_number(v, f"{what}: entry ({i}, {j})") for v in pair)
            mat[i, j] = complex(re, im)
    return mat


def state_document(rho: DensityMatrix) -> str:
    """Serialize a state; inverse of :func:`parse_state_document`."""
    return _matrix_document({"dims": [rho.dim_a, rho.dim_b]}, rho.mat)


def parse_state_document(text: str) -> DensityMatrix:
    obj = _load_json(text)
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise ParseError("state file needs 'dims' and 'matrix' fields")
    dims = obj["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_integer(d) and d >= 1 for d in dims)
    ):
        raise ParseError("'dims' must be two positive integers")
    mat = _parse_complex_matrix(obj["matrix"], "state file", text)
    if mat.shape[0] != dims[0] * dims[1]:
        raise DimensionError(
            f"matrix size {mat.shape[0]} does not match dims {dims[0]}x{dims[1]}"
        )
    return DensityMatrix(mat, dims[0], dims[1])


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(state_document(rho))


def load_state(path) -> DensityMatrix:
    return parse_state_document(_read_text(path))


def unitary_document(u: np.ndarray) -> str:
    return _matrix_document({}, np.asarray(u, dtype=complex))


def parse_unitary_document(text: str) -> np.ndarray:
    obj = _load_json(text)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("unitary file needs a 'matrix' field")
    return _parse_complex_matrix(obj["matrix"], "unitary file", text)


def save_unitary(u: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(unitary_document(u))


def load_unitary(path) -> np.ndarray:
    return parse_unitary_document(_read_text(path))


def rows_document(dim_a: int, dim_b: int, rows) -> str:
    lines = ["{", f'  "dims": {json.dumps([dim_a, dim_b])},', '  "rows": [']
    entries = [
        {"a_index": int(a_index), "values": [float(v) for v in values]}
        for a_index, values in rows
    ]
    for i, entry in enumerate(entries):
        comma = "," if i < len(entries) - 1 else ""
        lines.append(f"    {json.dumps(entry)}{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_rows_document(text: str):
    """Returns (dim_a, dim_b, [(a_index, vector), ...])."""
    obj = _load_json(text)
    if not isinstance(obj, dict) or "dims" not in obj or "rows" not in obj:
        raise ParseError("rows file needs 'dims' and 'rows' fields")
    dims = obj["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_integer(d) and d >= 2 for d in dims)
    ):
        raise ParseError("'dims' must be two integers >= 2")
    rows = []
    if not isinstance(obj["rows"], list) or not obj["rows"]:
        raise ParseError("'rows' must be a non-empty array")
    for i, entry in enumerate(obj["rows"]):
        if not isinstance(entry, dict) or "a_index" not in entry or "values" not in entry:
            raise ParseError(f"row {i} needs 'a_index' and 'values'")
        values = entry["values"]
        if not isinstance(values, list) or len(values) != dims[1] ** 2:
            raise ParseError(f"row {i} must hold {dims[1] ** 2} values")
        if not _is_integer(entry["a_index"]) or not 0 <= entry["a_index"] < dims[0] ** 2:
            raise ParseError(f"row {i}: 'a_index' must be an integer in 0..{dims[0] ** 2 - 1}")
        vector = np.array([_number(v, f"row {i}, value {k}") for k, v in enumerate(values)])
        rows.append((entry["a_index"], vector))
    return dims[0], dims[1], rows


def save_rows(dim_a: int, dim_b: int, rows, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(rows_document(dim_a, dim_b, rows))


def load_rows(path):
    return parse_rows_document(_read_text(path))


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
