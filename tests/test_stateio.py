"""Round-trip and format checks for the JSON state files."""

import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from qdisent import (
    BipartiteState,
    DimensionMismatch,
    StateFormatError,
    TraceNotOne,
    doc_to_matrix,
    dumps_canonical,
    file_digest,
    format_real,
    load_document,
    random_state,
    save_state,
    state_to_doc,
)
from qdisent import stateio
from qdisent.cli import main as cli_main
from qdisent.stateio import (
    _DIGITS4,
    _EXPONENTS,
    _MIRROR_MIN_N,
    _PREFIXES,
    _codes17,
    _parse_grid,
    _round17,
    _screen_grid,
    _walk_grid,
    write_canonical,
)


def _load(path):
    """A state file as the command line loads it."""
    return BipartiteState(*doc_to_matrix(load_document(path)[0]))


# ---------------------------------------------------------------- round trips


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_save_load_round_trip_is_bit_exact(tmp_path, dims):
    state = random_state(dims, seed=3)
    path = tmp_path / "state.json"
    save_state(path, state)
    back = _load(path)
    assert back.dims == dims
    # %.17g regenerates every double exactly
    assert np.array_equal(back.rho, state.rho)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4), (8, 8)])
def test_what_save_state_and_json_dumps_write_takes_the_grid_route(tmp_path, dims):
    state = random_state(dims, seed=3)
    path = tmp_path / "state.json"
    save_state(path, state, meta={"kind": "random", "dims": "%dx%d" % dims, "seed": "3"})
    doc = json.loads(path.read_text(encoding="utf-8"))
    for data in (path.read_bytes(), json.dumps(doc).encode(),
                 json.dumps(doc, separators=(",", ":")).encode(),
                 json.dumps(doc, indent=2).encode()):
        got = _parse_grid(data)
        assert got is not None
        assert np.array_equal(_bits(got["rho"]), _bits(state.rho + 0.0))  # -0.0 prints as 0


def test_resave_is_byte_identical(tmp_path):
    state = random_state((2, 3), seed=9)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_state(first, state)
    save_state(second, _load(first))
    assert first.read_bytes() == second.read_bytes()
    assert file_digest(first) == file_digest(second)


def test_save_state_returns_the_digest_of_the_bytes_written(tmp_path):
    state = random_state((2, 2), seed=1)
    path = tmp_path / "s.json"
    digest = save_state(path, state)
    assert digest == file_digest(path)
    text = path.read_bytes().decode("utf-8")
    assert text == dumps_canonical(state_to_doc(state))
    assert text.endswith("\n")


def test_meta_survives_round_trip(tmp_path):
    state = random_state((2, 2), seed=4)
    path = tmp_path / "m.json"
    save_state(path, state, meta={"kind": "random", "seed": "4"})
    doc, _ = load_document(path)
    assert doc["meta"] == {"kind": "random", "seed": "4"}


# ---------------------------------------------------------------- format_real


def test_format_real_zero_is_bare():
    assert format_real(0.0) == "0"
    assert format_real(-0.0) == "0"


def test_format_real_round_trips_doubles():
    rng = np.random.default_rng(5)
    for v in rng.standard_normal(200):
        assert float(format_real(float(v))) == float(v)
    assert float(format_real(0.1)) == 0.1
    assert float(format_real(1e-308)) == 1e-308


def test_format_real_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(StateFormatError):
            format_real(bad)


# 5**-p modulo 2**64 for p = 16 .. 23
_INVERSE_POW5 = np.array([pow(5 ** p, -1, 2 ** 64) for p in range(16, 24)], dtype=np.uint64)


def _ties(rng, count):
    """Doubles in [1e-7, 10) whose 17-digit scaling ends in exactly or nearly 1/2.

    ``x = m * 2**e`` with decimal exponent k, times ``10**p`` (p = 16 - k),
    is ``m * 5**p / 2**q`` (q = -(e + p), 33 to 53 here), so the low q bits
    of m pick the fraction: ``1/2 + t / 2**q``.  With |t| <= 2 the near
    ties sit as close as 2e-16 to one half.
    """
    k = rng.integers(-7, 1, count)
    m, e = np.frexp(rng.uniform(10.0 ** k, 10.0 ** (k + 1)))
    m, e = (m * 2.0 ** 53).astype(np.uint64), e - 53
    q = (k - 16 - e).astype(np.uint64)
    low = (np.uint64(1) << q) - np.uint64(1)
    t = rng.integers(-2, 3, count).astype(np.uint64)  # -1 wraps to 2**64 - 1
    half = (np.uint64(1) << (q - np.uint64(1))) + t
    r = half * _INVERSE_POW5[-k] & low  # wraps modulo 2**64
    return np.ldexp((m & ~low | r).astype(float), e)


def texts17_sample(count, seed):
    """``count`` seeded doubles of the classes ``_codes17`` must print exactly.

    A quarter each of exact and near ties of the 17th digit, of values
    within 3 ulps of a power of ten, and of matrix-like entries; a
    twentieth each of subnormals, of values of 10 and up, of values below
    1e-29, of arbitrary finite bit patterns and of zeros.  Signs are drawn.
    """
    rng = np.random.default_rng(seed)
    n, rare = -(-count // 4), -(-count // 20)
    powers = (10.0 ** rng.integers(-40, 26, n)).view(np.int64)
    classes = [
        _ties(rng, n),
        (powers + rng.integers(-3, 4, n)).view(float),
        rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 0.5, n),
        rng.integers(1, 2 ** 52, rare).view(float),
        10.0 ** rng.uniform(1, 308, rare),
        10.0 ** rng.uniform(-307, -29, rare),
        rng.integers(0, 2 ** 63, rare).view(float),
        np.zeros(rare),
    ]
    x = np.concatenate(classes)[:count]
    x[~np.isfinite(x)] = 1.5
    return np.where(rng.random(count) < 0.5, -x, x)


def texts17_mismatches(count, seed, block=100_000):
    """The values of ``texts17_sample(count, seed)`` whose ``_codes17`` row,
    its NULs removed and decoded, is not their ``%.17g`` text."""
    x = texts17_sample(count, seed)
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in range(0, count, block):
            part = x[start:start + block]
            rows = _codes17(part).view("S28").ravel().tolist()
            bad += [v for v, row in zip(part.tolist(), rows)
                    if row.translate(None, b"\0").decode("ascii") != "%.17g" % v]
    return bad


def hermitian_grid_mismatches(count, seed, n=64):
    """The starts, in ``texts17_sample(count, seed)``, of the n x n hermitian
    grids whose render is not the per-value walk's text.

    Each grid takes the sample's next values as the real parts of its
    upper triangle, then the imaginary parts above the diagonal, and
    mirrors them below; the last one repeats its values to fill up.
    """
    x = texts17_sample(count, seed)
    rows, cols = np.triu_indices(n)
    off = rows != cols
    per = len(rows) + int(off.sum())
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in range(0, count, per):
            part = np.resize(x[start:start + per], per)
            upper = part[:len(rows)] + 0j
            upper.imag[off] = part[len(rows):]
            m = np.empty((n, n), dtype=complex)
            m[cols, rows] = upper.conj()
            m[rows, cols] = upper
            if dumps_canonical({"g": m}) != '{\n  "g": ' + _reference_text(m) + "\n}\n":
                bad.append(start)
    return bad


def test_texts17_prints_what_percent_17g_prints():
    # the grid render's kernel, against the per-value format it stands
    # in for, and the grids it renders against the per-value walk (CI
    # sweeps 2,000,000 doubles both ways)
    assert texts17_mismatches(240_000, seed=0) == []
    assert hermitian_grid_mismatches(40_000, seed=0) == []


def test_an_unproven_value_keeps_its_sign_column():
    # values _round17 cannot prove (10 and up, below 1e-29, an exact tie
    # of the 17th digit) get the %.17g text of their magnitude from
    # column 1 on, so the grid render can put im's sign in column 0
    magnitudes = [10.0, 12.5, 1e300, 1.7976931348623157e308, 1e-30, 5e-324,
                  2.2250738585072014e-308, 131073 / 2 ** 17, 32769 / 2 ** 18]
    x = np.array([s * v for v in magnitudes for s in (1.0, -1.0)])
    assert not _round17(x)[2].any()
    codes = _codes17(x)
    assert codes[:, 0].tolist() == [ord("-") if v < 0 else 0 for v in x.tolist()]
    assert [bytes(row).translate(None, b"\0").decode("ascii") for row in codes[:, 1:]] \
        == ["%.17g" % abs(v) for v in x.tolist()]


def test_the_grid_kernel_tables_are_read_only():
    # built at import and shared by every render, as _grid_plan's arrays are
    assert not any(table.flags.writeable for table in (_DIGITS4, _PREFIXES, _EXPONENTS))


def test_the_grid_kernel_loads_no_numpy_string_module():
    # _codes17 builds its texts from code points, so neither importing the
    # command line nor rendering a large hermitian grid loads numpy's string
    # functions (np.char, np.strings), which would slow every command's start
    code = ("import sys, numpy as np\n"
            "import qdisent.cli\n"
            "from qdisent.stateio import dumps_canonical\n"
            "dumps_canonical({'g': np.eye(64, dtype=complex) / 3})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.endswith(('strings', 'defchararray'))))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_a_large_grid_render_holds_its_text_about_once():
    # one 64x64 product grid, the size a write-8x8 report prints, with its
    # plan and tables already built: the text is about 200 KB, and the
    # render's traced peak was 0.97 MiB (numpy 2.4.6), reached while the
    # grid's code buffer, its NUL-free copy and the text are all held, so
    # one more copy of the text held there goes over
    rng = np.random.default_rng(5)
    factors = []
    for _ in range(2):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        r = a @ a.conj().T
        factors.append((r + r.conj().T) / (2 * np.trace(r).real))
    doc = {"g": np.kron(*factors)}
    dumps_canonical(doc)
    tracemalloc.start()
    try:
        text = dumps_canonical(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 190_000
    assert peak < 1.15 * 2 ** 20


# ----------------------------------------------------------- canonical dumps


def test_dumps_canonical_layout():
    text = dumps_canonical({"b": [1, 2.5, "x"], "a": {"k": True, "n": None}})
    # insertion order kept, scalar lists inline, nested dict multiline
    assert text == (
        '{\n'
        '  "b": [1, 2.5, "x"],\n'
        '  "a": {\n'
        '    "k": true,\n'
        '    "n": null\n'
        '  }\n'
        '}\n'
    )
    assert dumps_canonical({"a": {}}) == '{\n  "a": {}\n}\n'
    # a list grid takes the per-value path
    assert dumps_canonical({"g": [[[1, 0.5]]]}) == '{\n  "g": [[[1, 0.5]]]\n}\n'
    # every container shape the one flat join emits: empty containers in a
    # list of dicts, a grid in a dict in a list, a scalar list
    doc = {"items": [{"e": [], "d": {}},
                     {"g": np.array([[1 + 2j, -0.0 - 0.5j]]), "s": [1, [2.5, "x"]]}]}
    assert dumps_canonical(doc) == (
        '{\n'
        '  "items": [\n'
        '    {\n'
        '      "e": [],\n'
        '      "d": {}\n'
        '    },\n'
        '    {\n'
        '      "g": [[[1, 2], [0, -0.5]]],\n'
        '      "s": [1, [2.5, "x"]]\n'
        '    }\n'
        '  ]\n'
        '}\n'
    )


def test_dumps_canonical_list_of_dicts_is_multiline():
    text = dumps_canonical({"items": [{"i": 1}, {"i": 2}]})
    assert '"items": [\n' in text
    assert text.count('"i":') == 2
    assert json.loads(text) == {"items": [{"i": 1}, {"i": 2}]}


def test_a_generator_renders_as_the_list_of_its_values():
    # at any depth a generator of objects, as a batch's items are, renders
    # to the same bytes as the list of its values: a newline inside a
    # string stays escaped, a grid (a large hermitian one too) nests at
    # its depth, and an empty generator renders as []
    values = [{"s": "two\nlines", "rho": np.eye(2, dtype=complex)},
              {"g": np.eye(_MIRROR_MIN_N + 3, dtype=complex) / 3,
               "sub": {"items": [{"i": 1}, {}], "e": []}},
              {}]

    def doc(wrap):
        return {"command": "c", "items": wrap(values), "none": wrap([]),
                "deep": {"x": [{"sub": wrap(values)}, 1]}}

    text = dumps_canonical(doc(lambda vs: (v for v in vs)))
    assert text == dumps_canonical(doc(list))
    assert '"s": "two\\nlines"' in text
    assert '\n  "none": [],\n' in text


def test_a_generator_value_is_drawn_after_the_last_is_written():
    writes, drawn = [], []

    def values():
        for i in range(3):
            drawn.append("".join(writes))
            yield {"i": i}

    write_canonical({"items": values()}, writes.append)
    text = "".join(writes)
    assert text == dumps_canonical({"items": [{"i": i} for i in range(3)]})
    # value i is drawn with the text up to the end of value i - 1 written,
    # and nothing of what follows it
    assert drawn[0] == '{\n  "items": '
    for i, before in enumerate(drawn[1:], 1):
        assert text.startswith(before)
        assert before.count('"i": ') == i
        assert before.endswith("}")


def test_dumps_canonical_escapes_strings():
    text = dumps_canonical({"s": 'a"b\\c'})
    assert json.loads(text) == {"s": 'a"b\\c'}


def test_dumps_canonical_floats_use_17_digits():
    text = dumps_canonical({"v": 1 / 3})
    assert "0.33333333333333331" in text


def test_dumps_canonical_bool_is_not_int():
    assert '"v": true' in dumps_canonical({"v": True})
    assert '"v": 1' in dumps_canonical({"v": 1})


def test_dumps_canonical_rejects_unknown_types():
    with pytest.raises(StateFormatError):
        dumps_canonical({"v": {1, 2}})
    with pytest.raises(StateFormatError):
        dumps_canonical({"v": complex(1, 2)})
    # of the arrays, only 2-D complex ones render, as grids
    for array in (np.ones(2), np.ones(2, dtype=complex), np.ones((2, 2)),
                  np.ones((1, 1, 1), dtype=complex)):
        with pytest.raises(StateFormatError, match="^cannot serialize ndarray values$"):
            dumps_canonical({"v": array})
    with pytest.raises(StateFormatError, match="object keys must be strings, got 1"):
        dumps_canonical({1: 2})
    for top in (dumps_canonical, doc_to_matrix):
        with pytest.raises(StateFormatError, match="top level must be an object"):
            top([])


def test_dumps_canonical_is_parseable_json():
    state = random_state((2, 3), seed=11)
    text = dumps_canonical(state_to_doc(state))
    doc = json.loads(text)
    assert doc["dims"] == [2, 3]
    assert len(doc["rho"]) == 6


# ------------------------------------------------------------- doc validation


def _good_doc():
    state = random_state((2, 2), seed=2)
    return json.loads(dumps_canonical(state_to_doc(state)))


def test_doc_to_matrix_accepts_good_doc():
    rho, dims = doc_to_matrix(_good_doc())
    assert dims == (2, 2)
    assert rho.shape == (4, 4)


def test_doc_to_matrix_rejects_missing_keys():
    doc = _good_doc()
    del doc["rho"]
    with pytest.raises(StateFormatError):
        doc_to_matrix(doc)
    doc = _good_doc()
    del doc["dims"]
    with pytest.raises(StateFormatError):
        doc_to_matrix(doc)


def test_doc_to_matrix_rejects_unknown_keys():
    doc = _good_doc()
    doc["extra"] = 1
    with pytest.raises(StateFormatError):
        doc_to_matrix(doc)


def test_doc_to_matrix_rejects_bad_dims():
    for dims in ([2], [2, 2, 2], [2.0, 2], ["2", "2"], [True, 2], "22"):
        doc = _good_doc()
        doc["dims"] = dims
        with pytest.raises(StateFormatError):
            doc_to_matrix(doc)


def test_doc_to_matrix_rejects_bad_grid_shape():
    doc = _good_doc()
    doc["rho"] = doc["rho"][:3]
    with pytest.raises(StateFormatError):
        doc_to_matrix(doc)
    doc = _good_doc()
    doc["rho"][1] = doc["rho"][1][:3]
    with pytest.raises(StateFormatError):
        doc_to_matrix(doc)


def test_doc_to_matrix_takes_a_state_documents_matrix_as_it_is():
    # state_to_doc holds the state's own matrix as rho, as the grid route
    # holds the grid's
    state = random_state((2, 3), seed=5)
    rho, dims = doc_to_matrix(state_to_doc(state, {"kind": "random"}))
    assert rho is state.rho
    assert dims == (2, 3)
    assert np.array_equal(_bits(BipartiteState(rho, dims).rho), _bits(state.rho))


def _with_entry(value):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = value
    return m


@pytest.mark.parametrize("rho", [
    _with_entry(np.nan), _with_entry(complex(0, np.inf)), np.eye(4) / 4,
    np.eye(4, dtype=np.complex64) / 4, np.eye(4, dtype=complex)[:3], np.eye(2, dtype=complex),
    np.eye(16, dtype=complex).reshape(4, 4, 4, 4), (np.eye(4, dtype=complex) / 4).ravel(),
], ids=["nan", "inf_imag", "real", "complex64", "3_rows", "2x2", "4_axes", "flat"])
def test_doc_to_matrix_turns_down_any_other_array(rho):
    with pytest.raises(StateFormatError) as info:
        doc_to_matrix({"dims": [2, 2], "rho": rho})
    assert str(info.value) == "rho must be a list of 4 rows"


def test_doc_to_matrix_rejects_bad_cells():
    for cell in ([1.0], [1.0, 0.0, 0.0], ["1", "0"], [True, 0.0], 1.0, None):
        doc = _good_doc()
        doc["rho"][0][0] = cell
        with pytest.raises(StateFormatError):
            doc_to_matrix(doc)


def test_doc_to_matrix_rejects_non_finite_cells():
    # json.loads lets NaN/Infinity through, the reader must not
    for bad in ("NaN", "Infinity", "-Infinity"):
        doc = _good_doc()
        doc["rho"][0][0] = json.loads(f"[{bad}, 0.0]")
        with pytest.raises(StateFormatError):
            doc_to_matrix(doc)


def test_doc_to_matrix_accepts_integer_cells():
    doc = {"dims": [2, 2],
           "rho": [[[1, 0] if i == j == 0 else [0, 0] for j in range(4)]
                   for i in range(4)]}
    rho, _ = doc_to_matrix(doc)
    assert rho[0, 0] == 1.0 + 0j


def test_doc_to_matrix_rejects_bad_meta():
    doc = _good_doc()
    doc["meta"] = "hello"
    with pytest.raises(StateFormatError):
        doc_to_matrix(doc)
    doc = _good_doc()
    doc["meta"] = {"k": 1}
    with pytest.raises(StateFormatError):
        doc_to_matrix(doc)


def test_doc_to_state_leaves_physics_errors_alone():
    # structure is fine, the trace is 2: that is the validator's complaint,
    # not a format problem
    doc = {"dims": [2, 2],
           "rho": [[[1.2 if i == j else 0, 0] for j in range(4)]
                   for i in range(4)]}
    doc["rho"][3][3] = [-1.6, 0]
    with pytest.raises(TraceNotOne):
        BipartiteState(*doc_to_matrix(doc))


def test_doc_to_state_rejects_degenerate_dims():
    doc = _good_doc()
    doc["dims"] = [1, 4]
    with pytest.raises(DimensionMismatch):
        BipartiteState(*doc_to_matrix(doc))


def test_state_to_doc_rejects_non_string_meta():
    state = random_state((2, 2), seed=6)
    with pytest.raises(StateFormatError):
        state_to_doc(state, meta={"seed": 6})
    with pytest.raises(StateFormatError):
        state_to_doc(state, meta=[("k", "v")])


# ----------------------------------------------------------------- file layer


def test_load_document_errors(tmp_path):
    with pytest.raises(StateFormatError):
        load_document(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(StateFormatError):
        load_document(bad)
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]\n")
    with pytest.raises(StateFormatError):
        load_document(toplevel)


def test_file_digest(tmp_path):
    path = tmp_path / "x.json"
    path.write_bytes(b"abc")
    assert file_digest(path) == (
        "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    with pytest.raises(StateFormatError):
        file_digest(tmp_path / "nope.json")


def test_load_document_digests_the_bytes_it_parsed(tmp_path):
    # CRLF line ends: the digest is of the raw bytes, not the decoded text
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{\r\n  "dims": [1, 1],\r\n  "rho": [[[1, 0]]]\r\n}\r\n')
    doc, digest = load_document(path)
    # the grid route's document: rho is the matrix
    assert _strict(doc) == _strict({"dims": [1, 1], "rho": np.array([[1 + 0j]])})
    assert digest == file_digest(path) == (
        "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest())


def test_load_state_validates(tmp_path):
    state = BipartiteState(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), (2, 2))
    path = tmp_path / "ok.json"
    save_state(path, state)
    back = _load(path)
    assert np.array_equal(back.rho, state.rho)


# ----------------------------------------------------- codec equivalence
#
# The grid codec formats and screens whole grids at once; the per-value
# rules below are the reference it must match byte for byte.

EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
                1.7e308, -1.7e308, 1 / 3, 0.1)
DOUBLES = st.one_of(st.sampled_from(EDGE_DOUBLES),
                    st.floats(allow_nan=False, allow_infinity=False))


def _complex_grids(rows, cols):
    return st.lists(DOUBLES, min_size=2 * rows * cols, max_size=2 * rows * cols).map(
        lambda xs: np.array(xs, dtype=float).view(complex).reshape(rows, cols))


def _reference_text(m):
    cell = lambda z: f"[{format_real(z.real)}, {format_real(z.imag)}]"
    return "[" + ", ".join("[" + ", ".join(map(cell, row)) + "]" for row in m) + "]"


def _bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def _laid_out(m, layout):
    """``m`` itself, its transposed view, or a strided view of its entries."""
    if layout == "transposed":
        return m.T
    if layout == "sliced":
        wide = np.zeros((m.shape[0], 2 * m.shape[1]), dtype=complex)
        wide[:, ::2] = m
        return wide[:, ::2]
    return m


LAYOUTS = st.sampled_from(["contiguous", "transposed", "sliced"])


def _list_grid(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# both sides of the size from which a hermitian grid renders from its
# upper triangle, through _codes17
HERMITIAN_SIZES = st.integers(1, _MIRROR_MIN_N + 4)


def _mostly(common, rare):
    """``common`` three times in four, else ``rare`` (st.one_of drops a
    repeated branch, so it cannot weight one)."""
    return st.sampled_from((rare, common, common, common)).flatmap(lambda s: s)


# only a wide hermitian grid takes the triangle path, so only there can a
# flaw show a wrong hermitian test: the render property draws those most
MOSTLY_WIDE_SIZES = _mostly(st.integers(_MIRROR_MIN_N, _MIRROR_MIN_N + 4),
                                  st.integers(1, _MIRROR_MIN_N - 1))


@st.composite
def _hermitian_grids(draw, flaws=("sign", "ulp"), sizes=MOSTLY_WIDE_SIZES):
    """A drawn upper triangle, its mirror below and a +-0 imaginary diagonal.

    Maybe one part, real or imaginary, then gets one of ``flaws`` or all
    of them, each at a drawn mirrored pair: a sign flip, or one ulp
    toward zero (a zero moves off it, so an ulp flaw always breaks
    hermiticity).  With the flaws in one part, a hermitian test that
    reads only the other part takes the grid for hermitian; with a sign
    flaw alone, so does one that reads only magnitudes.  The imaginary
    part is drawn twice as often as the real one, since the render shares
    |im| between mirrors: of the flaws there, only an ulp one shows.
    """
    n = draw(sizes)
    rows, cols = np.triu_indices(n)
    size = 2 * len(rows)
    upper = np.array(draw(st.lists(DOUBLES, min_size=size, max_size=size))).view(complex)
    m = np.empty((n, n), dtype=complex)
    m[cols, rows] = upper.conj()
    m[rows, cols] = upper
    m.imag[np.diag_indices(n)] = draw(st.lists(st.sampled_from((0.0, -0.0)),
                                               min_size=n, max_size=n))
    part = draw(st.sampled_from((None, "real", "imag", "imag"))) if n > 1 and flaws else None
    chosen = draw(st.sampled_from([(f,) for f in flaws] + [flaws])) if part else ()
    for flaw in chosen:
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(0, i - 1))
        leaves = getattr(m, part)
        x = leaves[i, j]
        leaves[i, j] = -x if flaw == "sign" else np.nextafter(x, 0.0 if x else 1.0)
    return m


GRIDS = _mostly(
    _hermitian_grids(),
    st.integers(1, 6).flatmap(lambda r: st.integers(1, 6).flatmap(
        lambda c: _complex_grids(r, c))))

# shrinking a failing grid of up to 20x20 leaves can take minutes, so the
# properties that draw them report the first failing grid as drawn
UNSHRUNK = settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])


def _one_ulp_off(n):
    """An exactly hermitian n x n grid, then leaf (1, 0)'s imaginary part one ulp
    toward 0: few drawn grids are both that wide and flawed there."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = (a + a.conj().T) / 2
    m.imag[1, 0] = np.nextafter(m.imag[1, 0], 0)
    return m


def _tied(n, ulp_off=False):
    """A hermitian n x n grid of exact ties of the 17th digit, maybe one leaf off.

    Each leaf is ``+-m * 2**-(17 - k)`` with m odd in decade k (0 .. -3):
    its digits end in a 5 at the 18th, which ``%.17g`` rounds to even.
    ``ulp_off`` moves leaf (1, 0)'s imaginary part one ulp toward zero.
    """
    rng = np.random.default_rng(n)
    k = rng.integers(-3, 1, (n, n, 2))
    scale = 2.0 ** (17 - k)
    odd = 2 * rng.integers(np.ceil(10.0 ** k * scale / 2), 10.0 ** (k + 1) * scale / 2) + 1
    leaves = np.where(rng.random((n, n, 2)) < 0.5, -1, 1) * odd / scale
    a = leaves.view(complex)[..., 0]
    m = np.triu(a) + np.triu(a, 1).conj().T
    m.imag[np.diag_indices(n)] = 0.0
    if ulp_off:
        m.imag[1, 0] = np.nextafter(m.imag[1, 0], 0)
    return m


def _widest(n):
    """A hermitian n x n grid whose texts reach 24 characters, most through %.17g.

    Leaves have 17 drawn digits and a sign, two thirds of them in decades
    -300 .. 300, which _codes17 leaves to ``%.17g`` (below 1e-29, or 10 and
    up), the rest in -29 .. 0.  Leaf (0, 1)'s real part,
    ``-1.2345678901234567e-300``, prints as 24 characters, the widest text.
    """
    rng = np.random.default_rng(n)
    k = np.where(rng.random((n, n, 2)) < 2 / 3, rng.integers(-300, 301, (n, n, 2)),
                 rng.integers(-29, 1, (n, n, 2)))
    leaves = rng.choice((-1.0, 1.0), (n, n, 2)) * rng.uniform(1, 10, (n, n, 2)) * 10.0 ** k
    a = leaves.view(complex)[..., 0]
    a[0, 1] = -1.2345678901234567e-300 + 1j * a[0, 1].imag
    m = np.triu(a) + np.triu(a, 1).conj().T
    m.imag[np.diag_indices(n)] = 0.0
    return m


@UNSHRUNK
@given(GRIDS, LAYOUTS)
@example(_one_ulp_off(_MIRROR_MIN_N - 1), "contiguous")
@example(_one_ulp_off(_MIRROR_MIN_N), "transposed")
@example(_tied(_MIRROR_MIN_N - 1), "contiguous")
@example(_tied(_MIRROR_MIN_N), "contiguous")
@example(_tied(64), "sliced")
@example(_tied(64, ulp_off=True), "contiguous")
@example(_widest(64), "contiguous")
def test_grid_render_matches_per_value_walk(m, layout):
    a = _laid_out(m, layout)
    want = '{\n  "g": ' + _reference_text(a) + "\n}\n"
    assert dumps_canonical({"g": a}) == want
    # a hand-built list grid takes the per-value path to the same bytes
    assert dumps_canonical({"g": _list_grid(a)}) == want


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _non_finite_grids(draw):
    """A grid with 1 to 3 nan or +-inf leaves planted, maybe each with its mirror."""
    m = draw(st.one_of(
        st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(
            lambda c: _complex_grids(r, c))),
        _hermitian_grids(flaws=(), sizes=HERMITIAN_SIZES)))
    rows, cols = m.shape
    mirrored = rows == cols and draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        part = draw(st.sampled_from(("real", "imag")))
        bad = draw(NON_FINITE)
        getattr(m, part)[i, j] = bad
        if mirrored:  # an infinite pair is then equal to its mirror
            getattr(m, part)[j, i] = bad if part == "real" else -bad
    return m


def _infinite_pair(n):
    m = np.eye(n, dtype=complex) / n
    m[0, 1] = m[1, 0] = np.inf
    return m


@UNSHRUNK
@given(_non_finite_grids(), LAYOUTS)
@example(_infinite_pair(_MIRROR_MIN_N - 1), "contiguous")
@example(_infinite_pair(_MIRROR_MIN_N), "contiguous")
def test_grid_render_names_the_first_non_finite_leaf(m, layout):
    a = _laid_out(m, layout)
    # the per-value walk raises for the first one, row-major, re before im
    with pytest.raises(StateFormatError) as want:
        dumps_canonical({"g": _list_grid(a)})
    with pytest.raises(StateFormatError) as got:
        dumps_canonical({"g": a})
    assert str(got.value) == str(want.value)


@settings(deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda d: st.tuples(st.just(d), _complex_grids(d[0] * d[1], d[0] * d[1]))), LAYOUTS)
def test_grid_parse_round_trips_rendered_text(case, layout):
    dims, m = case
    a = _laid_out(m, layout)
    doc = json.loads(dumps_canonical({"dims": list(dims), "rho": a}))
    rho, back_dims = doc_to_matrix(doc)
    assert back_dims == dims
    # both zeros print as 0, so -0.0 comes back as 0.0
    assert np.array_equal(_bits(rho), _bits(a + 0.0))
    assert np.array_equal(_bits(rho), _bits(_walk_grid(doc["rho"], len(m))))


LEAVES = st.one_of(DOUBLES, st.integers(-(2 ** 70), 2 ** 70),
                   st.sampled_from((2 ** 53 + 1, -(2 ** 63), 2 ** 64 + 1, 10 ** 300)))


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(LEAVES, min_size=2 * n * n, max_size=2 * n * n))))
def test_grid_screen_matches_walk_on_mixed_leaves(case):
    n, leaves = case
    it = iter(leaves)
    grid = [[[next(it), next(it)] for _ in range(n)] for _ in range(n)]
    fast = _screen_grid(grid, n)
    assert fast is not None
    assert np.array_equal(_bits(fast), _bits(_walk_grid(grid, n)))


def _set_cell(i, j, cell):
    def edit(doc):
        doc["rho"][i][j] = cell
    return edit


def _shorten_row(doc):
    doc["rho"][1] = doc["rho"][1][:3]


def _mixed_leaves(doc):
    doc["rho"][0][0] = [1, 0.0]
    doc["rho"][2][1] = [0, -0.0]


@pytest.mark.parametrize("edit, message", [
    (_set_cell(0, 1, [0.0, False]), "rho[0][1][1] must be a number, got False"),
    (_set_cell(1, 2, ["0.5", 0.0]), "rho[1][2][0] must be a number, got '0.5'"),
    (_set_cell(2, 3, None), "rho[2][3] must be a [re, im] pair"),
    (_set_cell(3, 0, [0.0, 0.0, 0.0]), "rho[3][0] must be a [re, im] pair"),
    (_set_cell(0, 0, [0.0, 0.0, 0.0]), "rho[0][0] must be a [re, im] pair"),
    (_shorten_row, "rho row 1 must be a list of 4 entries"),
    (_set_cell(0, 3, json.loads("[1e999, 0]")), "rho[0][3][0] must be finite, got inf"),
    (_mixed_leaves, None),
], ids=["bool", "str", "none", "triple", "first_triple", "short_row", "1e999",
        "mixed_int_float"])
def test_malformed_cells_keep_walk_messages(edit, message):
    doc = _good_doc()
    edit(doc)
    if message is None:
        rho, _ = doc_to_matrix(doc)
        assert np.array_equal(_bits(rho), _bits(_walk_grid(doc["rho"], 4)))
        return
    with pytest.raises(StateFormatError) as info:
        doc_to_matrix(doc)
    assert str(info.value) == message


def test_huge_integer_cell_is_a_format_error():
    # valid JSON, but no double holds it
    doc = _good_doc()
    doc["rho"][0][1] = json.loads("[0, 1" + "0" * 400 + "]")
    with pytest.raises(StateFormatError) as info:
        doc_to_matrix(doc)
    assert str(info.value) == "rho[0][1][1] must be finite, got 1" + "0" * 400


# ------------------------------------------------------------ the grid parse
#
# load_document parses a state file's grid in _parse_grid, orjson reading its
# numbers as one flat list and json.loads the rest of the file; where
# _parse_grid turns the bytes down, json.loads parses all of them.  Either way
# the matrix, the dims and the rest of the document are json.loads's, and so
# is every error text.


def _strict(value):
    """``value`` in pre-order, each container with its size, each leaf with its
    type and float bits, an array with its shape and bits: ``==`` takes ``1``,
    ``1.0`` and ``True`` for one another, and ``0.0`` for ``-0.0``.  A flat
    list, so any depth compares."""
    tokens, stack = [], [value]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            tokens.append(("dict", len(value)))
            for key, val in reversed(value.items()):
                stack += [val, key]
        elif isinstance(value, list):
            tokens.append(("list", len(value)))
            stack += reversed(value)
        elif isinstance(value, np.ndarray):
            tokens.append((value.dtype.str, value.shape, _bits(value).tobytes()))
        else:
            tokens.append((type(value).__name__,
                           value.hex() if isinstance(value, float) else value))
    return tokens


def _json_loads(data):
    """json's document of ``data``, decoded as load_document decodes it."""
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


def _json_values(clean):
    """JSON texts of nested lists and objects of numbers, words and strings.

    A ``clean`` one has no escape, control character, ``NaN``,
    ``Infinity``, ``1e400`` or integer of 19 digits or more; the others
    may hold any of them, and raw quotes.
    """
    digits = st.integers(1, 18 if clean else 25)
    integers = st.tuples(st.sampled_from(("", "-")), digits).flatmap(
        lambda t: st.integers(0 if t[1] == 1 else 10 ** (t[1] - 1), 10 ** t[1] - 1).map(
            lambda v: t[0] + str(v)))
    floats = st.tuples(st.sampled_from(("%.17g", "%r", "%.3e", "%.25g")),
                       st.floats(allow_nan=False, allow_infinity=False)).map(
        lambda t: t[0] % t[1])
    words = st.sampled_from(("true", "false", "null", "-0") + (() if clean else (
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400")))
    if clean:  # non-ASCII, but no control character, quote or backslash
        strings = st.text(st.characters(max_codepoint=0x1F600, exclude_categories=("Cs", "Cc"),
                                        exclude_characters='"\\'), max_size=6).map(
            lambda text: '"' + text + '"')
    else:  # control characters and non-ASCII ones, escaped by json.dumps or raw
        strings = st.tuples(
            st.text(st.characters(max_codepoint=0x1F600, exclude_categories=("Cs",)), max_size=6),
            st.sampled_from(("ascii", "utf-8", "raw"))).map(
            lambda t: '"' + t[0] + '"' if t[1] == "raw"
            else json.dumps(t[0], ensure_ascii=t[1] == "ascii"))
    keys = st.one_of(st.sampled_from(('"a"', '"b"', '"rho"')), strings)
    separators = st.sampled_from((", ", ",", ",\n  ", ",\r\n"))

    def containers(values):
        return st.one_of(
            st.tuples(st.lists(values, max_size=4), separators).map(
                lambda t: "[" + t[1].join(t[0]) + "]"),
            st.tuples(st.lists(st.tuples(keys, values), max_size=4), separators).map(
                lambda t: "{" + t[1].join(f"{k}: {v}" for k, v in t[0]) + "}"))

    return st.recursive(st.one_of(integers, floats, words, strings), containers, max_leaves=12)


JSON_TEXTS = {clean: _json_values(clean) for clean in (True, False)}
# leaves a grid may hold in place of a number: the ones json reads to the
# same number as a float below 1e18 in magnitude, then the ones that send
# the file to json's route (too large, not a number, not JSON)
ODD_LEAVES = ("-0", "-0.0", "0e0", "1E-5", "99999999999999999", "-999999999999999872",
              "999999999999999999", "1000000000000000000", "-9223372036854775809",
              "18446744073709551616", "1" * 25, "1e18", "-1e18", "1.7e308", "1e400", "NaN",
              "-Infinity", "true", "false", "null", '"0"', '"[,]"', "[]", "{}", "[1, 2]", "01",
              "1.", ".5", "+1", "1 2")
SMALL_DOUBLES = st.one_of(st.sampled_from([x for x in EDGE_DOUBLES if abs(x) < 1e18]),
                          st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300))


PERTURBATIONS = ("odd_leaf", "short_row", "triple", "misplaced", "grid_suffix", "dims",
                 "meta", "extra_key", "rho_twice", "overwrite", "bom", "trailing")


@st.composite
def _state_bytes(draw):
    """A state document as some writer might lay it out, half of them perturbed.

    Its leaves print in one of four float formats, or as integers, with
    any JSON whitespace, CRLF too, and its keys in any order; ``meta`` may
    hold brackets.  A perturbed one has one or two of: a few odd leaves, a
    short row, a triple cell, a number past its cell's ``]``, junk after
    the grid, wrong dims, ``"rho"`` or any JSON value in ``meta``, an extra
    key, a second ``rho``, overwritten bytes, a BOM, junk after the file.
    """
    count = draw(st.sampled_from((0, 0, 0, 1, 1, 2)))
    kinds = draw(st.lists(st.sampled_from(PERTURBATIONS), min_size=count, max_size=count))
    n_a, n_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = n_a * n_b
    fmt = draw(st.sampled_from(("%.17g", "%r", "%.25g", "%.3e", "int")))
    values = draw(st.lists(SMALL_DOUBLES, min_size=2 * n * n, max_size=2 * n * n))
    leaves = [str(int(v)) if fmt == "int" else fmt % v for v in values]
    for _ in range(draw(st.integers(1, 3)) if "odd_leaf" in kinds else 0):
        leaves[draw(st.integers(0, len(leaves) - 1))] = draw(st.sampled_from(ODD_LEAVES))
    sep = draw(st.sampled_from((", ", ",", ",\n    ", " ,\t", ",\r\n  ")))
    pad = draw(st.sampled_from(("", "", " ", "\n  ", "\r\n")))
    cells = [f"[{pad}{leaves[2 * k]}{sep}{leaves[2 * k + 1]}{pad}]" for k in range(n * n)]
    k = draw(st.integers(0, n * n - 1))
    if "triple" in kinds:
        cells[k] = cells[k][:-1] + sep + "0]"
    if "misplaced" in kinds:  # "[a, ]b": the skeleton of a pair, not JSON
        cells[k] = f"[{leaves[2 * k]}{sep}{pad}]{leaves[2 * k + 1]}"
    rows = [cells[i * n:(i + 1) * n] for i in range(n)]
    if "short_row" in kinds:
        del rows[k // n][-1]
    grid = "[" + pad + sep.join("[" + pad + sep.join(row) + pad + "]" for row in rows) + pad + "]"
    if "grid_suffix" in kinds:
        grid += draw(st.sampled_from((".5", "0", "]", " ]", "e5")))
    dims = f"[{n_a}, {n_b}]"
    if "dims" in kinds:
        dims = draw(st.sampled_from((f"[{n_b}, {n_a}]", f"[{n_a}, {n_b}, 1]", f"[true, {n_b}]",
                                     f"[0, {n}]", f"[{n_a}.0, {n_b}]", '"2x2"', f"[{n}]")))
    fields = [('"dims"', dims), ('"rho"', grid)]
    meta = draw(st.sampled_from((None, None, '"random"', '"[,]"', '"a]b"', '"é"')))
    if "meta" in kinds:
        meta = draw(st.one_of(st.sampled_from(('"rho"', '"\\u00e9"', '{"rho": "x"}')),
                              JSON_TEXTS[True], JSON_TEXTS[False]))
    if meta is not None:
        fields.append(('"meta"', '{"kind": ' + meta + "}"))
    if "extra_key" in kinds:
        fields.append((draw(st.sampled_from(('"extra"', '"rho "', '"dims"'))), "1"))
    if "rho_twice" in kinds:
        fields.append(('"rho"', grid))
    colon = draw(st.sampled_from((": ", ":", " : ", ":\r\n")))
    comma = draw(st.sampled_from((",\n  ", ", ", ",", ",\r\n")))
    text = "{" + comma.join(key + colon + value for key, value in draw(st.permutations(fields)))
    data = bytearray((text + "}" + draw(st.sampled_from(("\n", "", "\r\n", " ")))).encode())
    for _ in range(draw(st.integers(1, 2)) if "overwrite" in kinds else 0):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if "bom" in kinds:
        data[:0] = b"\xef\xbb\xbf"
    if "trailing" in kinds:
        data += draw(st.sampled_from((b"]", b"x", b"}", b"0", b" []")))
    return bytes(data)


def _outcome(path):
    """(dims, the matrix's bits, the rest of the document) as the command
    line loads ``path``, or the text of the error it raises."""
    try:
        doc, _ = load_document(path)
        rho, dims = doc_to_matrix(doc)
    except StateFormatError as exc:
        return str(exc)
    return dims, _bits(rho).tobytes(), _strict({k: v for k, v in doc.items() if k != "rho"})


def _json_outcome(path):
    """``_outcome`` with every file on json's route."""
    with mock.patch.object(stateio, "_parse_grid", lambda data: None):
        return _outcome(path)


# the share of _state_bytes documents the grid route must take: four runs of
# 500 examples took 49% - 67% of them
GRID_ROUTE_SHARE = (0.3, 0.85)


def test_either_route_gives_json_loads_matrix_or_error_text():
    on_grid = []

    @settings(max_examples=500, deadline=None)
    @given(_state_bytes())
    def same_as_json(data):
        on_grid.append(_parse_grid(data) is not None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            path.write_bytes(data)
            assert _outcome(path) == _json_outcome(path)

    same_as_json()
    share = sum(on_grid) / len(on_grid)
    assert GRID_ROUTE_SHARE[0] <= share <= GRID_ROUTE_SHARE[1], share


def test_large_dims_build_no_skeleton():
    # the skeleton of dims 65536 x 65536 would hold 2**66 bytes: a grid
    # shorter than it is turned down before one is built
    with mock.patch.object(stateio, "_skeleton", side_effect=AssertionError):
        assert _parse_grid(b'{"dims": [65536, 65536], "rho": [[[0.5, 0.25]]]}') is None
    assert _parse_grid(b'{"dims": [1, 1], "rho": [[[0.5, 0.25]]]}') is not None


def test_a_large_grid_read_holds_its_file_under_3_35_times(tmp_path):
    # load_document and doc_to_matrix of a 16x16 random state file (3.3 MB)
    # peak while the bytes, the grid's numbers as one flat text and orjson's
    # list of them are all live: 3.26 times the file (numpy 2.4.6, orjson
    # 3.8.3; 3.53 times on json's route), so one more copy of a grid-sized
    # temporary held there goes over
    path = tmp_path / "s.json"
    save_state(path, random_state((16, 16), seed=1))
    size = path.stat().st_size
    doc_to_matrix(load_document(path)[0])  # the skeleton is built and cached
    tracemalloc.start()
    try:
        doc_to_matrix(load_document(path)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 3_000_000
    assert peak < 3.35 * size


_NOT_AN_OBJECT = "top level must be an object"


def _state(grid=b"[[[0.5, 0.25]]]", dims=b"[1, 1]", before=b"", after=b""):
    """A 1 x 1 state document's bytes, with ``before`` and ``after`` inside its braces."""
    return b'{' + before + b'"dims": ' + dims + b', "rho": ' + grid + after + b"}"


_HALF = {"dims": [1, 1], "rho": [[[0.5, 0.25]]]}


@pytest.mark.parametrize("data, route, want", [
    (b'{"a": 18446744073709551616}', "json", {"a": 2 ** 64}),
    (b'{"a": ' + b"1" * 30 + b"}", "json", {"a": int("1" * 30)}),
    (b'{"a": -9999999999999999999}', "json", {"a": -9999999999999999999}),
    (b'{"a": -999999999999999999}', "json", {"a": -999999999999999999}),
    (b'{"a": 1.' + b"1" * 30 + b"}", "json", {"a": 1.1111111111111112}),
    (b'{"a": NaN}', "json", {"a": math.nan}),
    (b'{"a": 1e400}', "json", {"a": math.inf}),
    (b'{"a": "\\ud800"}', "json", {"a": "\ud800"}),
    (b'\xef\xbb\xbf{"a": 1}', "json", "is not valid JSON: Unexpected UTF-8 BOM"
     " (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b'{\r\n  "a": [1, -0.0]\r\n}\r\n', "json", {"a": [1, -0.0]}),
    (b'{"b": 1, "a": 2, "b": 3.0}', "json", {"b": 3.0, "a": 2}),
    (b'{"a": "x\\\\y"}', "json", {"a": "x\\y"}),
    (b'{"a": "x\\y"}', "json", "is not valid JSON: Invalid \\escape: line 1 column 9 (char 8)"),
    (b'{"a": "\xc0\xaf"}', "json", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xc0"
     " in position 7: invalid start byte"),
    (b"[" * 200_000 + b"]" * 200_000, "json", "nests too deeply to parse"),
    (b'{"a": [1, 2]', "json", "is not valid JSON: Expecting ',' delimiter:"
     " line 1 column 13 (char 12)"),
    (b"1" * 30, "json", _NOT_AN_OBJECT),
    (b" " + b"1" * 30, "json", _NOT_AN_OBJECT),
    (b"\xef\xbb\xbf" + b"1" * 30, "json", "is not valid JSON: Unexpected UTF-8 BOM"
     " (decode using utf-8-sig): line 1 column 1 (char 0)"),
    # state documents
    (_state(), "grid", _HALF),
    (json.dumps(_HALF).encode(), "grid", _HALF),
    (json.dumps(_HALF, indent=2).encode(), "grid", _HALF),
    (json.dumps(_HALF, separators=(",", ":")).encode(), "grid", _HALF),
    (_state(b"[ [ [0.5 ,\t0.25 ] ] ]").replace(b" ", b"\r\n"), "grid", _HALF),
    (b'{"rho": [[[0.5, 0.25]]], "dims": [1, 1]}', "grid", {"rho": [[[0.5, 0.25]]],
                                                           "dims": [1, 1]}),
    (_state(after=b', "meta": {"k": "a]b"}'), "grid", {**_HALF, "meta": {"k": "a]b"}}),
    (_state(after=b', "extra": [1]'), "grid", {**_HALF, "extra": [1]}),
    (_state(b"[[[-0, -0.0]]]"), "grid", {"dims": [1, 1], "rho": [[[0, -0.0]]]}),
    (_state(b"[[[99999999999999999, 1E-5]]]"), "grid",
     {"dims": [1, 1], "rho": [[[99999999999999999, 1e-5]]]}),
    # "[]" has the grid's first and last byte: a "0" in its place would
    # have read the grid's "]]].5" as 0.5
    (_state(b"[[[0.5, 0.25]]].5"), "json", "is not valid JSON: Expecting ',' delimiter:"
     " line 1 column 40 (char 39)"),
    # the skeleton of a pair with its second number past the "]"
    (_state(b"[[[0.5,]0.25]]"), "json", "is not valid JSON: Expecting value:"
     " line 1 column 32 (char 31)"),
    (_state(b"[[[0.5, 0.25]]]e5"), "json", "is not valid JSON: Expecting ',' delimiter:"
     " line 1 column 40 (char 39)"),
    (_state(before=b'"meta": {"k": "rho"}, '), "json", {"meta": {"k": "rho"}, **_HALF}),
    (_state(after=b', "meta": {"rho": "x"}'), "json", {**_HALF, "meta": {"rho": "x"}}),
    (_state(after=b', "rho": [[[1, 0]]]'), "json", {"dims": [1, 1], "rho": [[[1, 0]]]}),
    (_state(b"[]", before=b'"meta": {"rho": [[[0.5, 0.25]]]}, '), "json",
     {"meta": {"rho": [[[0.5, 0.25]]]}, "dims": [1, 1], "rho": []}),
    (b'{"dims": [1, 1], "meta": {"rho": [[[0.5, 0.25]]]}}', "json",
     {"dims": [1, 1], "meta": {"rho": [[[0.5, 0.25]]]}}),
    # with escapes the one '"rho"' can end another key, and "rho" be spelt otherwise
    (b'{"x\\"rho": [[[0.5, 0.25]]], "dims": [1, 1], "\\u0072ho": []}', "json",
     {'x"rho': [[[0.5, 0.25]]], "dims": [1, 1], "rho": []}),
    (b'[' + _state() + b']', "json", _NOT_AN_OBJECT),
    # no leaf of 19 digits or more, and none that reads to 1e18 or more
    (_state(b"[[[1000000000000000000, 0]]]"), "json",
     {"dims": [1, 1], "rho": [[[1000000000000000000, 0]]]}),
    (_state(b"[[[999999999999999999, 0]]]"), "json",
     {"dims": [1, 1], "rho": [[[999999999999999999, 0]]]}),
    (_state(b"[[[1e18, 0]]]"), "json", {"dims": [1, 1], "rho": [[[1e18, 0]]]}),
    (_state(b"[[[0, 1e400]]]"), "json", {"dims": [1, 1], "rho": [[[0, math.inf]]]}),
    (_state(b"[[[true, 0]]]"), "json", {"dims": [1, 1], "rho": [[[True, 0]]]}),
    (_state(b'[[["[,]", 0]]]'), "json", {"dims": [1, 1], "rho": [[["[,]", 0]]]}),
    (_state(b"[[[0.5, 0.25], [0, 0]]]"), "json", {"dims": [1, 1],
                                                  "rho": [[[0.5, 0.25], [0, 0]]]}),
    (_state(b"[]", b"[0, 1]"), "json", {"dims": [0, 1], "rho": []}),
    (_state(dims=b"[true, 1]"), "json", {"dims": [True, 1], "rho": [[[0.5, 0.25]]]}),
    (b"\xef\xbb\xbf" + _state(), "json", "is not valid JSON: Unexpected UTF-8 BOM"
     " (decode using utf-8-sig): line 1 column 1 (char 0)"),
], ids=["beyond_64_bits", "thirty_ones", "19_digits", "18_digits", "31_digit_float",
        "nan", "1e400", "lone_surrogate", "bom", "crlf", "duplicate_keys", "backslash",
        "bad_escape", "overlong_utf8", "200000_levels", "truncated", "digits_at_byte_0",
        "digits_after_a_space", "digits_after_a_bom",
        "state", "json_dumps", "indent_2", "compact", "crlf_tabs_in_grid", "dims_after_rho",
        "bracket_in_meta_after_rho", "extra_key", "minus_0_leaves", "17_digit_leaf",
        "grid_then_.5", "number_past_its_bracket", "grid_then_e5", "rho_as_meta_value",
        "rho_as_nested_key", "rho_twice", "nested_rho_then_empty_rho", "rho_only_nested",
        "rho_ending_an_escaped_key", "state_in_a_list", "19_digit_leaf", "18_nines_leaf",
        "1e18_leaf", "1e400_leaf", "bool_leaf", "string_leaf", "ragged", "zero_dim",
        "bool_dim", "bom_state"])
def test_which_route_a_file_takes_and_what_it_gives(tmp_path, data, route, want):
    path = tmp_path / "s.json"
    path.write_bytes(data)
    assert (_parse_grid(data) is not None) == (route == "grid")
    if isinstance(want, str):
        with pytest.raises(StateFormatError) as info:
            load_document(path)
        # the one text that names no path
        assert str(info.value) == (want if want == _NOT_AN_OBJECT else f"{path} {want}")
        return
    doc, digest = load_document(path)
    assert digest == file_digest(path)
    if route == "grid":  # rho is the matrix of json's grid
        want = {**want, "rho": doc_to_matrix({"dims": want["dims"], "rho": want["rho"]})[0]}
    assert _strict(doc) == _strict(want)


@pytest.mark.parametrize("depth", [512, 20_000, 200_000])
def test_a_deep_file_exits_3_on_a_1_mib_stack(tmp_path, monkeypatch, capsys, depth):
    # a state whose first leaf nests the file ``depth`` levels deep: json
    # parses the shallowest and refuses the others.  orjson, handed such a
    # grid, would overflow a 1 MiB C stack at 16,000 - 24,000 levels; the
    # grid route gives it only a flat list, so the child must exit 3, not
    # on a signal, with the item this process then gives
    leaf = b"[" * (depth - 4) + b"]" * (depth - 4)  # under the object, rho, row and cell
    (tmp_path / "deep.json").write_bytes(b'{"dims": [1, 1], "rho": [[[' + leaf + b", 0]]]}\n")

    def small_stack():
        hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
        resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, hard))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("QDISENT_TOL", None)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "qdisent.cli", "validate",
                           "deep.json"], cwd=tmp_path, env=env, preexec_fn=small_stack,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (3, "")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["validate", "deep.json"]) == 3
    assert proc.stdout == capsys.readouterr().out


def _bench_corpus():
    spec = importlib.util.spec_from_file_location(
        "qdbench_corpus", Path(__file__).resolve().parents[1] / "qdbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_state_files_take_the_grid_route_but_two_malformed_grids(tmp_path):
    # the read-8x8 corpus, planted defects too: of the 200 KB files the grid
    # route is for, only the bool cell and the short row go to json's
    entries = _bench_corpus().build("read-8x8", 0, tmp_path)
    assert len(entries) == 33
    off_route = set()
    for entry in entries:
        data = (tmp_path / entry.name).read_bytes()
        doc = _parse_grid(data)
        if doc is None:
            off_route.add(entry.kind)
            continue
        want = _json_loads(data)  # with rho the matrix of its grid
        want["rho"] = doc_to_matrix({"dims": want["dims"], "rho": want["rho"]})[0]
        assert _strict(doc) == _strict(want)
    assert off_route == {"bool_cell", "short_row"}


def parse17_mismatches(count, seed, directory, n=64):
    """(values parsed to other bits, documents off the grid route) over the
    finite ones below 1e18 in magnitude of ``count`` seeded float64 bit
    patterns.

    Each run of ``2 * n * n`` values is written as an n x n grid state
    document in ``%.17g`` and in ``repr``; each document goes through
    load_document and doc_to_matrix, and through json.loads and doc_to_matrix.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2 ** 64, count, dtype=np.uint64).view(float)
    x = x[np.abs(x) < 1e18]  # and so finite
    per = 2 * n * n
    row = "[" + ", ".join(["[%s, %s]"] * n) + "]"
    template = '{"dims": [%d, 1], "rho": [%s]}\n' % (n, ", ".join([row] * n))
    path = Path(directory) / "parse17.json"
    bad = off_route = 0
    for start in range(0, len(x), per):
        part = np.resize(x[start:start + per], per)
        for text in (template % tuple(map("%.17g".__mod__, part.tolist())),
                     template % tuple(map(repr, part.tolist()))):
            path.write_text(text, encoding="utf-8")
            off_route += _parse_grid(path.read_bytes()) is None
            got, want = (doc_to_matrix(doc)[0] for doc in (load_document(path)[0],
                                                           json.loads(text)))
            bad += np.count_nonzero(_bits(got) != _bits(want))
    return bad, off_route


def test_the_grid_route_parses_what_json_parses_bit_for_bit(tmp_path):
    # CI sweeps 2,000,000 bit patterns
    assert parse17_mismatches(40_000, seed=0, directory=tmp_path) == (0, 0)
