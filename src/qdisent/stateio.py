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
A report too large to hold renders straight into a spool, a temporary
text file (``spool_canonical``), its generator's values made one at a
time, and is then copied out in blocks (``copy_spool``).

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


# Smallest n whose hermitian n x n grid renders from its upper triangle,
# formatted by _codes17, instead of from one %.17g template.  Timing
# _render_matrix both ways on product states on a 2-core VM, the triangle
# lost at n = 12 (1.09-1.10x), tied or won at 13 (0.94-0.99x) and won from
# n = 14 (0.84-0.92x; 0.27x at n = 64).
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
def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """_codes17's two lookup tables, built on first use so that import stays cheap.

    The first holds the four digit codes of each of 0000 .. 9999.  The
    second says where each character of a ``%.17g`` text comes from.  A
    value's source row holds its 17 digit codes, then ``-``, ``.``,
    ``0``, ``e``, the two digits of its exponent's magnitude and a NUL.
    Row ``(neg * 6 + form) * 17 + s - 1`` of the table lists, for each
    of the 24 characters of a text, its column in the source row, for
    ``s`` significant digits and the form ``-k`` (k = 0 .. -4, fixed
    point) or 5 (k < -4, exponent), k the decimal exponent.  NULs pad
    the text to 24 codes.
    """
    digits4 = 48 + np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    minus, dot, zero, e, tens, ones, nul = range(17, 24)
    layouts = []
    for neg in (0, 1):
        for form in range(6):
            for s in range(1, 18):
                text = [minus] if neg else []
                if 1 <= form <= 4:  # 0.000ddd
                    text += [zero, dot] + [zero] * (form - 1) + list(range(s))
                else:  # d.ddd, then e-XX
                    text += [0] + ([dot] + list(range(1, s)) if s > 1 else [])
                    if form == 5:
                        text += [e, minus, tens, ones]
                layouts.append(text + [nul] * (24 - len(text)))
    return np.ascontiguousarray(digits4), np.array(layouts, dtype=np.intp)


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
    """``'%.17g' % x`` for every value of a finite float64 array, as rows of codes.

    Row i holds the ASCII codes of value i's text, then NULs up to 24
    codes, the widest text (``-1.2345678901234567e-300``).  The digits
    come from ``_round17``; a value it cannot prove gets the codes of
    ``%.17g`` itself.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    digits, k, ok = _round17(x)
    # the 17 digits, the leading one alone and the rest four at a time
    lead = digits // 10 ** 16
    low = digits - lead * 10 ** 16
    groups = np.empty((n, 4), dtype=np.intp)
    groups[:, 1] = low // 10 ** 8
    groups[:, 3] = low - groups[:, 1] * 10 ** 8
    groups[:, ::2] = groups[:, 1::2] // 10 ** 4
    groups[:, 1::2] -= groups[:, ::2] * 10 ** 4
    source = np.empty((n, 24), dtype=np.uint8)
    source[:, 0] = 48 + lead
    digits4, layouts = _text_tables()
    source[:, 1:17] = np.take(digits4, groups, axis=0).reshape(n, 16)
    source[:, 17:21] = (45, 46, 48, 101)  # - . 0 e
    source[:, 21] = 48 + (-k) // 10
    source[:, 22] = 48 + (-k) % 10
    source[:, 23] = 0
    s = 17 - np.argmax(source[:, 16::-1] != 48, axis=1)  # digits but trailing zeros
    s[digits == 0] = 1  # a zero prints as "0"
    form = np.where(k >= -4, -k, 5)
    at = np.take(layouts, (np.signbit(x) * 6 + form) * 17 + s - 1, axis=0)
    at += (24 * np.arange(n))[:, None]
    codes = np.take(source, at)
    texts = ["%.17g" % v for v in x[~ok].tolist()]
    codes[~ok] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
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
    """``(mirror, skeleton, upper)``, read-only, for rendering a hermitian n x n grid.

    ``upper`` is ``np.triu_indices(n)``, the cells whose values are
    formatted, and ``mirror[i * n + j]`` is the place there of cell
    (i, j) or of its mirror (j, i).  ``skeleton`` is the grid text's
    codes but the values': ``[[``, then 57 a cell, ``[``, 24 NULs for
    re, ``, ``, 25 NULs for the sign of im and |im|, and 5 codes that
    close the cell, ``], `` and NULs, ``]], [`` at a row's end or
    ``]]]`` and NULs at the grid's.
    """
    upper = np.triu_indices(n)
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[upper] = mirror.T[upper] = np.arange(len(upper[0]))
    cell = b"[" + bytes(24) + b", " + bytes(25)
    row = (cell + b"], \0\0") * (n - 1) + cell + b"]], ["
    skeleton = np.frombuffer((b"[[" + row * n)[:-5] + b"]]]\0\0", np.uint8)
    for a in (mirror, *upper):
        a.flags.writeable = False
    return mirror.ravel(), skeleton, upper


def _render_hermitian(c: np.ndarray, write) -> None:
    """Write the grid text of a finite hermitian array, formatting its upper triangle.

    A cell prints as ``[``, the text of re, ``, `` and, if im < 0, ``-``,
    the text of |im|, ``]``: ``%.17g`` of a negative value is ``-`` and
    the text of its magnitude.  Cell (j, i) below the diagonal shares re
    and |im| with (i, j), so only the triangle is formatted, by
    ``_codes17``.  Every cell's codes go into a copy of the plan's
    skeleton, and the buffer, without its NULs, is decoded once.
    """
    n = len(c)
    mirror, skeleton, upper = _grid_plan(n)
    tri = c[upper]
    codes = _codes17(np.stack((tri.real + 0.0, np.abs(tri.imag)), axis=-1).ravel())
    pairs = np.take(codes.reshape(-1, 48), mirror, axis=0)
    buf = skeleton.copy()
    cells = buf[2:].reshape(n * n, 57)
    cells[:, 1:25] = pairs[:, :24]
    cells[:, 28:52] = pairs[:, 24:]
    cells[:, 27][(c.imag < 0).ravel()] = ord("-")
    write(buf[buf != 0].tobytes().decode("ascii"))


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


def _spool_call(verb: str, call, *args):
    """``call(*args)``; an OSError raises as ``cannot <verb> the report spool``."""
    try:
        return call(*args)
    except OSError as exc:
        raise StateFormatError(f"cannot {verb} the report spool: {exc}") from exc


def spool_canonical(doc: dict, spool) -> None:
    """Write the canonical text of ``doc`` into ``spool``, a text file, and flush it.

    Only the spool's own write and flush errors raise as a
    StateFormatError; whatever a generator in ``doc`` raises passes
    through unchanged.
    """
    write_canonical(doc, functools.partial(_spool_call, "write", spool.write))
    _spool_call("write", spool.flush)


def copy_spool(spool, out) -> None:
    """Copy the text of ``spool`` to ``out`` from its start, in io.DEFAULT_BUFFER_SIZE blocks.

    Only the spool's own errors raise as a StateFormatError; those of
    ``out`` pass through unchanged.
    """
    _spool_call("read", spool.seek, 0)
    read = functools.partial(_spool_call, "read", spool.read, io.DEFAULT_BUFFER_SIZE)
    while block := read():
        out.write(block)


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
