"""Round-trip and format checks for the JSON state files."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
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
from qdisent.stateio import _screen_grid, _walk_grid


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


def test_resave_is_byte_identical(tmp_path):
    state = random_state((2, 3), seed=9)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_state(first, state)
    save_state(second, _load(first))
    assert first.read_bytes() == second.read_bytes()
    assert file_digest(first) == file_digest(second)


def test_save_state_returns_the_text_written(tmp_path):
    state = random_state((2, 2), seed=1)
    path = tmp_path / "s.json"
    text = save_state(path, state)
    assert path.read_text() == text
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


def test_dumps_canonical_list_of_dicts_is_multiline():
    text = dumps_canonical({"items": [{"i": 1}, {"i": 2}]})
    assert '"items": [\n' in text
    assert text.count('"i":') == 2
    assert json.loads(text) == {"items": [{"i": 1}, {"i": 2}]}


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
    assert doc == {"dims": [1, 1], "rho": [[[1, 0]]]}
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


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(lambda c: _complex_grids(r, c))), LAYOUTS)
def test_grid_render_matches_per_value_walk(m, layout):
    a = _laid_out(m, layout)
    want = '{\n  "g": ' + _reference_text(a) + "\n}\n"
    assert dumps_canonical({"g": a}) == want
    # a hand-built list grid takes the per-value path to the same bytes
    assert dumps_canonical({"g": _list_grid(a)}) == want


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(lambda c: _complex_grids(r, c))), LAYOUTS,
    st.data())
def test_grid_render_names_the_first_non_finite_leaf(m, layout, data):
    leaves = m.view(float).reshape(-1)
    spots = st.integers(0, leaves.size - 1)
    for spot in data.draw(st.lists(spots, min_size=1, max_size=3)):
        leaves[spot] = data.draw(NON_FINITE)
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
