"""Reading and writing joint states as canonical JSON documents.

A state file is a JSON object with keys ``dims`` (two ints), ``rho``
(an n x n grid of ``[re, im]`` pairs, n = dims[0] * dims[1]) and an
optional ``meta`` table of string pairs.  The writer is canonical:
objects render one key per line in insertion order, arrays render
inline but a list of objects, or a generator, one value per line, every
float prints with up to 17 significant digits and both zeros print as
``0``.  The same document therefore always produces the same bytes,
which makes file digests meaningful.

The text goes out through a ``write`` callable (``write_canonical``).

Structural problems raise StateFormatError; whether a well-formed grid
is a density matrix is left to ``BipartiteState``.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import sys
from itertools import chain
from pathlib import Path
from types import GeneratorType

import numpy as np

from .core import BipartiteState, QDisentError, _check_state


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


# Smallest n whose hermitian n x n grid renders from its upper triangle,
# formatted by _codes17, instead of from one %.17g template.  Timing
# _render_matrix both ways on product states on a 2-core VM, the triangle
# lost at n = 12 (1.03-1.06x), tied at 13 (0.93-1.10x) and won from n = 14
# (0.82-0.87x).
_MIRROR_MIN_N = 13

# 10**p == _POW10[p] + _POW10_LO[p] exactly for 0 <= p <= 45: 5**p < 2**106
# fits two doubles.  _POW10_HEAD + _POW10_TAIL is _POW10 split in halves
# of at most 26 bits for Dekker's product, as _round17 splits the value.
_SPLITTER = 2.0 ** 27 + 1
_POW10 = np.array([float(10 ** p) for p in range(46)])
_POW10_LO = np.array([float(10 ** p - int(float(10 ** p))) for p in range(46)])
_POW10_HEAD = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_TAIL = _POW10 - _POW10_HEAD


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_codes17's three lookup tables, built on first use so that import stays cheap.

    The four digit codes of each of 0000 .. 9999; columns 0 - 5 of a
    text, the sign and the ``0.`` .. ``0.000`` prefix, at row ``neg * 6
    + form`` for the form ``-k`` (k = 0 .. -4, fixed point) or 5 (k <
    -4, exponent), k the decimal exponent; and columns 24 - 27, ``e-05``
    .. ``e-29`` at row ``-k``, NULs in the fixed-point rows 0 - 4.
    """
    digits4 = 48 + np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    forms = (b"", b"0.", b"0.0", b"0.00", b"0.000", b"")
    prefixes = b"".join(sign + form.ljust(5, b"\0") for sign in (b"\0", b"-") for form in forms)
    exponents = bytes(20) + b"".join(b"e-%02d" % e for e in range(5, 30))
    return (np.ascontiguousarray(digits4), np.frombuffer(prefixes, np.uint8).reshape(12, 6),
            np.frombuffer(exponents, np.uint8).reshape(30, 4))


def _round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(digits, k, proven)``: ``|x|`` rounded to ``digits * 10**(k - 16)``, 17 digits.

    A value with ``1e-29 <= |x| < 10`` has a decimal exponent
    ``-29 <= k <= 0``, and its 17 digits are ``|x| * 10**(16 - k)``
    rounded to an integer.  With ``10**p`` held as two doubles and the
    product with the first formed by Dekker's error-free product
    (1971), the integer part is exact and the fraction is off by less
    than 1e-14.  ``k`` comes from ``log10``, which may be one off; the
    digits then fall outside ``(10**16, 10**17)``.  A value is not
    proven when it is out of that range, when its digits are out of
    theirs (``10**16`` itself too: either ``k`` can give it), or when
    its fraction lies within ``2**-30`` of one half, where the rounding
    (to even on a tie) cannot be settled.  A zero is proven, with
    digits 0 and k 0.
    """
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= 1e-29) & (a < 10.0)
    a = np.where(ok, a, 1.0)  # keeps log10 and the int casts finite
    k = np.clip(np.floor(np.log10(a)), -29, 0).astype(np.intp)
    p = 16 - k
    top = a * _POW10[p]
    split = _SPLITTER * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    hi, lo = _POW10_HEAD[p], _POW10_TAIL[p]
    err = ((a_hi * hi - top) + a_hi * lo + a_lo * hi) + a_lo * lo  # a*_POW10 - top
    rest = err + a * _POW10_LO[p]
    whole = np.floor(rest)
    frac = rest - whole
    digits = top.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > 2.0 ** -30) & (digits > 10 ** 16) & (digits < 10 ** 17)
    ok |= zero
    digits[zero] = 0
    k[zero] = 0
    return digits, k, ok


def _codes17(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` for every value of a finite float64 array, as rows of 28 codes.

    Row i holds value i's text in text order, in fixed columns with NUL
    in those it does not use: 0 - 5 the sign and a ``0.`` .. ``0.000``
    prefix, 6 the first digit, 7 the point, 8 - 23 the other 16 digits
    (trailing zeros NUL), 24 - 27 ``e-XX``.  The digits come from
    ``_round17``; a value it cannot prove keeps its sign column and gets
    the ``%.17g`` text of its magnitude from column 1 on.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    digits, k, ok = _round17(x)
    digits4, prefixes, exponents = _text_tables()
    # the 17 digits, the leading one alone and the rest four at a time
    lead = digits // 10 ** 16
    low = digits - lead * 10 ** 16
    groups = np.empty((n, 4), dtype=np.intp)
    groups[:, 1] = low // 10 ** 8
    groups[:, 3] = low - groups[:, 1] * 10 ** 8
    groups[:, ::2] = groups[:, 1::2] // 10 ** 4
    groups[:, 1::2] -= groups[:, ::2] * 10 ** 4
    codes = np.empty((n, 28), dtype=np.uint8)
    codes[:, :6] = np.take(prefixes, np.signbit(x) * 6 + np.where(k >= -4, -k, 5), axis=0)
    codes[:, 6] = 48 + lead
    rest = codes[:, 8:24]
    rest[:] = np.take(digits4, groups, axis=0).reshape(n, 16)
    trailing = np.logical_and.accumulate(rest[:, ::-1] == 48, axis=1)[:, ::-1]
    np.copyto(rest, 0, where=trailing)
    codes[:, 7] = np.where((rest[:, 0] != 0) & ((k == 0) | (k < -4)), ord("."), 0)
    codes[:, 24:] = np.take(exponents, -k, axis=0)
    texts = ["%.17g" % v for v in np.abs(x[~ok]).tolist()]
    codes[~ok, 1:] = np.array(texts, dtype="S27").view(np.uint8).reshape(-1, 27)
    return codes


def _render_matrix(m: np.ndarray, write) -> None:
    """Write the canonical text of a 2-D complex array, a grid of ``[re, im]`` cells.

    The same bytes the per-value recursion gives for the nested list of
    cells: ``+ 0.0`` turns -0.0 into 0.0, which ``%.17g`` prints as
    ``0`` just like ``format_real``, and a non-finite entry raises
    ``format_real``'s error for the first one, row-major, re before im.
    """
    c = np.ascontiguousarray(m, dtype=complex)
    leaves = c.view(float)
    finite = np.isfinite(leaves)
    if not finite.all():
        format_real(leaves[~finite][0])
    rows, cols = c.shape
    if rows == cols >= _MIRROR_MIN_N and np.array_equal(c, c.conj().T):
        _render_hermitian(c, write)
        return
    row = "[" + ", ".join(("[%.17g, %.17g]",) * cols) + "]"
    template = "[" + ", ".join((row,) * rows) + "]"
    write(template % tuple((leaves + 0.0).ravel().tolist()))


@functools.cache
def _grid_plan(n: int) -> tuple:
    """``(mirror, upper)``, read-only, for rendering a hermitian n x n grid.

    ``upper`` is ``np.triu_indices(n)``, the cells whose values are
    formatted, and ``mirror[i * n + j]`` is the place there of cell
    (i, j) or of its mirror (j, i).
    """
    upper = np.triu_indices(n)
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[upper] = mirror.T[upper] = np.arange(len(upper[0]))
    for a in (mirror, *upper):
        a.flags.writeable = False
    return mirror.ravel(), upper


def _render_hermitian(c: np.ndarray, write) -> None:
    """Write the grid text of a finite hermitian array, formatting its upper triangle.

    A cell prints as ``[``, the text of re, ``, `` and, if im < 0, ``-``,
    the text of |im|, ``]``: ``%.17g`` of a negative value is ``-`` and
    the text of its magnitude.  Cell (j, i) below the diagonal shares re
    and |im| with (i, j), so only the triangle is formatted, by
    ``_codes17``.  Each grid cell takes 64 codes: ``[``, re's 28, ``, ``,
    |im|'s 28, whose sign column takes the ``-``, and ``], `` or, at a
    row's end, ``]], [``.  The grid's codes, without their NULs, are
    decoded once.
    """
    n = len(c)
    mirror, upper = _grid_plan(n)
    tri = c[upper]
    codes = _codes17(np.stack((tri.real + 0.0, np.abs(tri.imag)), axis=-1).ravel())
    upper_cells = np.empty((len(tri), 64), dtype=np.uint8)
    upper_cells[:, 0], upper_cells[:, 29:31] = ord("["), list(b", ")
    upper_cells[:, 1:29], upper_cells[:, 31:59] = codes[::2], codes[1::2]
    upper_cells[:, 59:] = list(b"], \0\0")
    text = bytearray(2 + 64 * n * n)
    text[:2] = b"[["
    cells = np.frombuffer(text, np.uint8, offset=2).reshape(n * n, 64)
    np.take(upper_cells, mirror, axis=0, out=cells, mode="clip")  # "raise" would buffer out
    cells[:, 31][(c.imag < 0).ravel()] = ord("-")
    cells[n - 1::n, 59:] = list(b"]], [")
    cells[-1, 59:] = list(b"]]]\0\0")
    write(text.translate(None, b"\0").decode("ascii"))


def _render(value, pad: str, write) -> None:
    """Write the canonical text of ``value`` through ``write``, nested lines at ``pad``."""
    if isinstance(value, bool):
        write("true" if value else "false")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = pad + "  "
        opener = "{\n" + inner
        for key, val in value.items():
            if not isinstance(key, str):
                raise StateFormatError(f"object keys must be strings, got {key!r}")
            write(opener + json.dumps(key) + ": ")
            _render(val, inner, write)
            opener = ",\n" + inner
        write("\n" + pad + "}")
    elif isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind == "c":
        _render_matrix(value, write)
    elif isinstance(value, (list, tuple)):
        if any(isinstance(v, dict) for v in value):
            _render_lines(value, pad, write)
            return
        opener = "["
        for v in value:
            write(opener)
            _render(v, pad, write)
            opener = ", "
        write("[]" if opener == "[" else "]")
    elif isinstance(value, str):
        write(json.dumps(value))
    elif isinstance(value, int):
        write(str(value))
    elif isinstance(value, float):
        write(format_real(value))
    elif value is None:
        write("null")
    elif isinstance(value, GeneratorType):
        _render_lines(value, pad, write)
    else:
        raise StateFormatError(f"cannot serialize {type(value).__name__} values")


def _render_lines(values, pad: str, write) -> None:
    """Write ``values`` as a list of one value a line, each drawn after the last is written."""
    inner = pad + "  "
    opener = "[\n" + inner
    for v in values:
        write(opener)
        _render(v, inner, write)
        opener = ",\n" + inner
    write("[]" if opener[0] == "[" else "\n" + pad + "]")


def write_canonical(doc: dict, write) -> None:
    """Write a document's canonical text through ``write``, trailing newline included.

    A 2-D complex ndarray renders as its grid of ``[re, im]`` cells; of
    a hermitian one only the upper triangle is formatted, to the same
    bytes.  A generator renders as a list of one value a line, so its
    values are made one at a time as the text goes out.
    """
    if not isinstance(doc, dict):
        raise StateFormatError("top level must be an object")
    _render(doc, "", write)
    write("\n")


def dumps_canonical(doc: dict) -> str:
    """Render a document to its canonical text, trailing newline included."""
    parts: list = []
    write_canonical(doc, parts.append)
    return "".join(parts)


def state_to_doc(state: BipartiteState, meta: dict | None = None) -> dict:
    """The document of ``state``: ``rho`` is ``state.rho`` itself, not a copy."""
    doc: dict = {"dims": [_check_state(state).n_a, state.n_b], "rho": state.rho}
    if meta:
        if not isinstance(meta, dict) or not all(
                isinstance(key, str) and isinstance(val, str) for key, val in meta.items()):
            raise StateFormatError("meta must map strings to strings")
        doc["meta"] = dict(meta)
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
