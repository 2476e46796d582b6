"""Reading and writing joint states as canonical JSON documents.

A state file is a JSON object with keys ``dims`` (two ints), ``rho``
(an n x n grid of ``[re, im]`` pairs, n = dims[0] * dims[1]) and an
optional ``meta`` table of string pairs.  The writer is canonical:
objects render one key per line in insertion order, arrays render
inline, every float prints with up to 17 significant digits and both
zeros print as ``0``.  The same document therefore always produces the
same bytes, which makes file digests meaningful.

Structural problems raise StateFormatError; whether a well-formed grid
is a density matrix is left to ``BipartiteState``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .core import BipartiteState, QDisentError


class StateFormatError(QDisentError):
    """The document does not match the state-file schema."""


def format_real(x: float) -> str:
    """Canonical decimal text for one float; rejects non-finite values."""
    v = float(x)
    if not math.isfinite(v):
        raise StateFormatError(f"non-finite value {v!r} cannot be serialized")
    if v == 0.0:
        return "0"
    return format(v, ".17g")


def _render_matrix(m: np.ndarray) -> str:
    """Canonical text of a 2-D complex array as a grid of ``[re, im]`` cells.

    The same bytes the per-value recursion gives for the nested list of
    cells: ``+ 0.0`` turns -0.0 into 0.0, which ``%.17g`` prints as
    ``0`` just like ``format_real``, and a non-finite entry raises
    ``format_real``'s error for the first one, row-major, re before im.
    """
    leaves = np.ascontiguousarray(m, dtype=complex).view(float)
    finite = np.isfinite(leaves)
    if not finite.all():
        format_real(leaves[~finite][0])
    rows, cols = m.shape
    row = "[" + ", ".join(("[%.17g, %.17g]",) * cols) + "]"
    template = "[" + ", ".join((row,) * rows) + "]"
    return template % tuple((leaves + 0.0).ravel().tolist())


def _render(value, pad: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        lines = ["{"]
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            if not isinstance(key, str):
                raise StateFormatError(f"object keys must be strings, got {key!r}")
            comma = "," if i + 1 < len(items) else ""
            lines.append(f"{inner}{json.dumps(key)}: {_render(val, inner)}{comma}")
        lines.append(pad + "}")
        return "\n".join(lines)
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind == "c":
        return _render_matrix(value)
    if isinstance(value, (list, tuple)):
        if any(isinstance(v, dict) for v in value):
            inner = pad + "  "
            body = ",\n".join(inner + _render(v, inner) for v in value)
            return "[\n" + body + "\n" + pad + "]"
        return "[" + ", ".join(_render(v, pad) for v in value) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    if value is None:
        return "null"
    raise StateFormatError(f"cannot serialize {type(value).__name__} values")


def dumps_canonical(doc: dict) -> str:
    """Render a document to its canonical text, trailing newline included.

    A 2-D complex ndarray renders as its grid of ``[re, im]`` cells.
    """
    if not isinstance(doc, dict):
        raise StateFormatError("top level must be an object")
    return _render(doc, "") + "\n"


def state_to_doc(state: BipartiteState, meta: dict | None = None) -> dict:
    """The document of ``state``: ``rho`` is ``state.rho`` itself, not a copy."""
    doc: dict = {"dims": [state.n_a, state.n_b], "rho": state.rho}
    if meta:
        if not isinstance(meta, dict):
            raise StateFormatError("meta must map strings to strings")
        clean = {}
        for key, val in meta.items():
            if not isinstance(key, str) or not isinstance(val, str):
                raise StateFormatError("meta must map strings to strings")
            clean[key] = val
        doc["meta"] = clean
    return doc


def _want_int(value, what: str) -> int:
    # bool is an int subclass, keep it out
    if isinstance(value, bool) or not isinstance(value, int):
        raise StateFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _want_real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StateFormatError(f"{what} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the double range
        real = math.inf
    if not math.isfinite(real):
        raise StateFormatError(f"{what} must be finite, got {value!r}")
    return real


def _screen_grid(grid: list, n: int):
    """The n x n complex matrix of a well-formed grid, else None.

    Rows of n cells, cells of two leaves, leaves exactly ``int`` or
    ``float`` (so no bool) and all finite.  On None the caller runs
    ``_walk_grid``, which names the first offending row, cell or leaf.
    """
    if set(map(type, grid)) != {list} or set(map(len, grid)) != {n}:
        return None
    cells = list(chain.from_iterable(grid))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        return None
    leaves = list(chain.from_iterable(cells))
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        flat = np.array(leaves, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(complex).reshape(n, n)


def _walk_grid(grid: list, n: int) -> np.ndarray:
    """Cell-by-cell parse that names the first offending row, cell or leaf."""
    rho = np.empty((n, n), dtype=complex)
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise StateFormatError(f"rho row {i} must be a list of {n} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise StateFormatError(
                    f"rho[{i}][{j}] must be a [re, im] pair"
                )
            rho[i, j] = complex(_want_real(cell[0], f"rho[{i}][{j}][0]"),
                                _want_real(cell[1], f"rho[{i}][{j}][1]"))
    return rho


def doc_to_matrix(doc) -> tuple[np.ndarray, tuple[int, int]]:
    """Structural parse only: the raw grid and dims, no density checks.

    Raises StateFormatError for any schema violation, non-finite
    entries included; whether the grid is an actual density matrix is
    left to the caller.
    """
    if not isinstance(doc, dict):
        raise StateFormatError("top level must be an object")
    extra = set(doc) - {"dims", "rho", "meta"}
    if extra:
        raise StateFormatError(f"unknown keys {sorted(extra)}")
    for key in ("dims", "rho"):
        if key not in doc:
            raise StateFormatError(f"missing key {key!r}")
    dims = doc["dims"]
    if not isinstance(dims, list) or len(dims) != 2:
        raise StateFormatError("dims must be a list of two integers")
    n_a = _want_int(dims[0], "dims[0]")
    n_b = _want_int(dims[1], "dims[1]")
    n = n_a * n_b
    grid = doc["rho"]
    if not isinstance(grid, list) or len(grid) != n:
        raise StateFormatError(f"rho must be a list of {n} rows")
    rho = _screen_grid(grid, n)
    if rho is None:
        rho = _walk_grid(grid, n)
    meta = doc.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            raise StateFormatError("meta must be an object")
        for key, val in meta.items():
            if not isinstance(val, str):
                raise StateFormatError(f"meta[{key!r}] must be a string")
    return rho, (n_a, n_b)


def _read(path) -> tuple[bytes, str]:
    """The file's bytes and their digest: the one read of a state file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StateFormatError(f"cannot read {path}: {exc}") from exc
    return data, "sha256:" + hashlib.sha256(data).hexdigest()


def load_document(path) -> tuple[dict, str]:
    """Parse a state file, uninterpreted: (document, digest of the bytes parsed)."""
    data, digest = _read(path)
    try:  # decode as read_text does: universal newlines, same error positions
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StateFormatError(f"{path} nests too deeply to parse") from exc
    except ValueError as exc:  # only int() raises it: the digit limit
        raise StateFormatError(
            f"{path} holds an integer longer than"
            f" {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(doc, dict):
        raise StateFormatError("top level must be an object")
    return doc, digest


def save_state(path, state: BipartiteState, meta: dict | None = None) -> str:
    """Write the canonical document for ``state``; returns the text written."""
    text = dumps_canonical(state_to_doc(state, meta))
    Path(path).write_text(text, encoding="utf-8")
    return text


def file_digest(path) -> str:
    """sha256 digest of the file bytes, prefixed with the algorithm name."""
    return _read(path)[1]
