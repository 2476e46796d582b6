import inspect
import io
import re
import warnings
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdisent
from qdisent import core
from qdisent.core import (
    BipartiteState,
    DensityCheck,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    _eigh,
    _frobenius,
    _hermitize,
    _ptrace,
    _ptrace_plan,
    density_defects,
    embed_local,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    product_state,
    tensor_product,
    validate_density,
    validate_observable,
)
from qdisent.criteria import _spectrum_entropy, _state_entropy, von_neumann_entropy
from qdisent.states import random_density, random_state
from test_correlated import _raises_exactly


BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def test_tensor_product_matches_kron():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]])
    assert np.array_equal(tensor_product(a, b), np.kron(a, b))
    with _raises_exactly(DimensionMismatch,
                         "tensor product needs two matrices, got shapes (2,) and (2, 2)"):
        tensor_product(np.ones(2), b)
    with _raises_exactly(DimensionMismatch,
                         "tensor product needs two matrices, got shapes (2, 2) and ()"):
        tensor_product(a, 1.0)
    # inf and nan products are the result, with no numpy warning
    inf = np.full((2, 2), np.inf)
    got = tensor_product(inf, np.eye(2))
    assert np.isinf(got[0, 0]) and np.isnan(got[0, 1].real)
    assert np.isinf(tensor_product(np.full((2, 2), 1e308), np.full((2, 2), 1e308))).all()


# entries a product can meet: random complex, exact zeros of every sign
ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
KINDS = ("complex", "real", "negated real")
SIDES = st.integers(1, 6)


def _matrix(shape, seed, kind):
    """A random matrix with about a third of its entries zeroed, signs mixed."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    holes = rng.random(shape) < 0.3
    m[holes] = rng.choice(np.array(ZEROS), size=int(holes.sum()))
    if kind == "real":
        return m.real.copy()
    if kind == "negated real":
        return -m.real
    return m


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


@settings(max_examples=200, deadline=None)
@given(SIDES, SIDES, SIDES, SIDES, st.integers(0, 2**32 - 1),
       st.sampled_from(KINDS), st.sampled_from(KINDS))
def test_tensor_product_is_bit_identical_to_kron(ra, ca, rb, cb, seed, kind_a, kind_b):
    a = _matrix((ra, ca), seed, kind_a)
    b = _matrix((rb, cb), seed + 1, kind_b)
    want = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    assert _same_bits(tensor_product(a, b), want)


# a subsystem has at least 2 levels, here as in every state
@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(KINDS))
def test_embed_local_is_bit_identical_to_kron_with_identity(n, rest, seed, kind):
    op = _matrix((n, n), seed, kind)
    arr = np.asarray(op, dtype=complex)
    eye = np.eye(rest, dtype=complex)
    assert _same_bits(embed_local(op, "A", (n, rest)), np.kron(arr, eye))
    assert _same_bits(embed_local(op, "B", (rest, n)), np.kron(eye, arr))


@settings(max_examples=200, deadline=None)
@given(SIDES, SIDES, st.booleans(), st.integers(0, 2**32 - 1))
def test_frobenius_is_bit_identical_to_linalg_norm(rows, cols, flat, seed):
    x = _matrix((rows, cols), seed, "complex")
    if flat:
        x = x.ravel()
    got, want = np.float64(_frobenius(x)), np.linalg.norm(x)
    assert got.view(np.uint64) == want.view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(SIDES, st.integers(0, 2**32 - 1))
def test_hermitize_is_bit_identical_to_the_two_sided_formula(n, seed):
    m = _matrix((n, n), seed, "complex")
    defect, sym = _hermitize(m)
    want = np.abs(m - m.conj().T).max()
    assert np.float64(defect).view(np.uint64) == want.view(np.uint64)
    assert _same_bits(sym, (m + m.conj().T) / 2)


# joint states rich in exact zeros, whose products with a zero-padded
# weight must keep the lifted product's bits, signed zeros included
JOINT_KINDS = ("maximally mixed", "diagonal", "real", "negative zero imaginary",
               "pure", "random")
WEIGHT_KINDS = ("maximally mixed", "projector", "random")
PTRACE_SIDES = st.sampled_from((2, 3, 4, 5, 8))


def _joint_state(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "maximally mixed":
        return np.eye(n, dtype=complex) / n
    if kind == "diagonal":
        d = rng.random(n)
        return np.diag(d / d.sum()).astype(complex)
    if kind in ("real", "negative zero imaginary"):
        g = rng.standard_normal((n, n))
        m = (g @ g.T / np.trace(g @ g.T)).astype(complex)
        if kind == "negative zero imaginary":
            m.imag = -0.0
        return m
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "pure":
        return np.outer(v, v.conj()) / np.vdot(v, v).real
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g @ g.conj().T
    return h / np.trace(h).real


def _weight(k, seed, kind):
    if kind == "projector":
        return np.diag((np.arange(k) == seed % k).astype(complex))
    return _joint_state(k, seed, kind)


@settings(max_examples=300, deadline=None)
@given(PTRACE_SIDES, PTRACE_SIDES, st.integers(0, 2**32 - 1), st.sampled_from(JOINT_KINDS),
       st.sampled_from(WEIGHT_KINDS), st.sampled_from("AB"), st.integers(1, 3))
@example(2, 2, 0, "maximally mixed", "maximally mixed", "B", 1)
@example(2, 2, 1, "random", "random", "A", 2)
@example(8, 8, 2, "negative zero imaginary", "projector", "A", 3)
@example(4, 4, 3, "pure", "random", "B", 3)
@example(3, 2, 4, "random", "random", "B", 1)
@example(5, 3, 6, "pure", "random", "A", 2)
@example(2, 3, 5, "real", "projector", "A", 2)
def test_weighted_ptrace_is_bit_identical_to_the_lifted_product(n_a, n_b, seed, kind,
                                                                weight_kind, over, power):
    # joint dimensions that are multiples of 4 take the block contraction,
    # the others the lifted product itself; both must give its bytes,
    # and the trace that comes with it must be ndarray.trace's
    m = _joint_state(n_a * n_b, seed, kind)
    k, rest = (n_b, n_a) if over == "B" else (n_a, n_b)
    w = np.linalg.matrix_power(_weight(k, seed + 1, weight_kind), power)
    eye = np.eye(rest, dtype=complex)
    lift = np.kron(eye, w) if over == "B" else np.kron(w, eye)
    num, den = _ptrace_plan(m, n_a, n_b, over)(w)
    assert _same_bits(num, _ptrace(m @ lift, n_a, n_b, over))
    assert type(den) is float
    want = float(num.trace().real)
    assert np.float64(den).view(np.uint64) == np.float64(want).view(np.uint64)


def test_all_names_resolve_once():
    # __all__ lists each public name of the package once, and no other
    public = {name for name, value in vars(qdisent).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(qdisent.__all__) == len(set(qdisent.__all__))
    assert set(qdisent.__all__) == public


def test_readme_quick_start_prints_what_its_comments_claim():
    # the one python block of README.md, run with warnings as errors
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue().splitlines()[:2] == [
        "PptResult(min_eigenvalue=-0.5, passed=False)", "True 1"]


def test_partial_trace_splits_product_states():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho_a = random_density(2, rng)
        rho_b = random_density(3, rng)
        state = product_state(rho_a, rho_b)
        assert np.abs(partial_trace(state, over="B") - rho_a).max() < 1e-14
        assert np.abs(partial_trace(state, over="A") - rho_b).max() < 1e-14


def test_partial_trace_preserves_trace_and_positivity():
    for seed in range(10):
        state = BipartiteState(random_density(6, seed), (2, 3))
        for over in ("A", "B"):
            red = partial_trace(state, over=over)
            assert abs(np.trace(red) - 1.0) < 1e-12
            assert np.linalg.eigvalsh((red + red.conj().T) / 2)[0] > -1e-12


def test_partial_trace_rejects_bad_side():
    state = BipartiteState(np.eye(4) / 4, (2, 2))
    for bad, shown in (("C", "'C'"), (None, "None"), (["A"], "['A']")):
        with _raises_exactly(ValueError, f"over must be 'A' or 'B', got {shown}"):
            partial_trace(state, over=bad)
        with _raises_exactly(ValueError, f"on must be 'A' or 'B', got {shown}"):
            partial_transpose(state, on=bad)


def test_partial_transpose_is_an_involution():
    state = BipartiteState(random_density(6, 3), (2, 3))
    # the intermediate need not be a state, so undo the map on the raw array
    for on, axes in (("A", (2, 1, 0, 3)), ("B", (0, 3, 2, 1))):
        once = partial_transpose(state, on=on)
        # a fresh array of its own, not a view of the read-only state
        assert once.flags.writeable and not np.shares_memory(once, state.rho)
        back = once.reshape(2, 3, 2, 3).transpose(axes).reshape(6, 6)
        assert np.abs(back - state.rho).max() < 1e-15


def test_partial_transpose_on_product_transposes_one_factor():
    rng = np.random.default_rng(7)
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    state = product_state(rho_a, rho_b)
    assert np.abs(partial_transpose(state, on="A")
                  - np.kron(rho_a.T, rho_b)).max() < 1e-15
    assert np.abs(partial_transpose(state, on="B")
                  - np.kron(rho_a, rho_b.T)).max() < 1e-15


def test_partial_transpose_exposes_bell_negativity():
    state = BipartiteState(BELL, (2, 2))
    eigs = np.linalg.eigvalsh(partial_transpose(state, on="A"))
    assert abs(eigs[0] + 0.5) < 1e-12


def test_density_defects_reports_each_failure():
    herm = density_defects(np.array([[0.5, 1.0], [0.0, 0.5]]))
    assert abs(herm.hermiticity_defect - 1.0) < 1e-15
    trace = density_defects(np.diag([0.6, 0.6]))
    assert abs(trace.trace_defect - 0.2) < 1e-15
    negative = density_defects(np.diag([1.5, -0.5]))
    assert abs(negative.min_eigenvalue + 0.5) < 1e-12
    assert density_defects(np.eye(2) / 2) == DensityCheck(0.0, 0.0, 0.5)


def test_validate_density_error_order():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(TraceNotOne):
        validate_density(np.diag([0.6, 0.6]))
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(DimensionMismatch):
        validate_density(np.zeros((2, 3)))


def test_bipartite_state_validates_dims():
    with _raises_exactly(DimensionMismatch,
                         "both subsystem dimensions must be >= 2, got (1, 4)"):
        BipartiteState(np.eye(4) / 4, (1, 4))
    with pytest.raises(DimensionMismatch):
        BipartiteState(np.eye(4) / 4, (2, 3))
    inf, nan = float("inf"), float("nan")
    for bad in (("a", "b"), (2,), None, (inf, 2), (2, -inf), (nan, 2), (2.5, 2)):
        with _raises_exactly(DimensionMismatch,
                             f"dims must be a pair of integers, got {bad!r}"):
            BipartiteState(np.eye(4) / 4, bad)


def test_a_whole_number_is_a_count_or_a_dim_whatever_its_type():
    for value in (3, 3.0, np.float64(3.0), np.int64(3), np.uint8(3)):
        k = core._check_count(value, "k")
        assert type(k) is int and k == 3
    assert core._check_count(True, "k") == 1
    # dims are read once, so a one-shot iterable works
    dims = BipartiteState(np.eye(4) / 4, iter((2.0, np.int64(2)))).dims
    assert dims == (2, 2) and all(type(d) is int for d in dims)


def test_bipartite_state_is_frozen_and_read_only():
    source = np.eye(4, dtype=complex) / 4
    state = BipartiteState(source, (2, 2))
    source[0, 0] = 9.0  # later mutation of the input must not leak in
    assert state.rho[0, 0] == 0.25
    with pytest.raises(ValueError):
        state.rho[0, 0] = 1.0
    assert state.n_a == 2 and state.n_b == 2 and state.dim == 4


def test_embed_local_places_operator_on_requested_side():
    op = np.array([[0.0, 1.0], [1.0, 0.0]])
    left = embed_local(op, "A", (2, 3))
    right = embed_local(op, "B", (3, 2))
    assert np.array_equal(left, np.kron(op, np.eye(3)))
    assert np.array_equal(right, np.kron(np.eye(3), op))
    with pytest.raises(DimensionMismatch):
        embed_local(op, "A", (3, 2))
    with _raises_exactly(ValueError, "side must be 'A' or 'B', got 'C'"):
        embed_local(op, "C", (2, 2))
    # the dims rule of a state, checked before the op's shape
    with _raises_exactly(DimensionMismatch,
                         "both subsystem dimensions must be >= 2, got (1, 2)"):
        embed_local(op, "A", (1, 2))
    for dims in ((float("inf"), 2), ("a", 2), (2, 2.7)):
        with _raises_exactly(DimensionMismatch,
                             f"dims must be a pair of integers, got {dims!r}"):
            embed_local(op, "A", dims)


def test_hermitian_eigenvalues_sorted_and_guarded():
    eigs = hermitian_eigenvalues(np.diag([0.7, 0.1, 0.2]))
    assert np.all(np.diff(eigs) >= 0)
    for m, defect in [
        ([[0.0, 1.0], [0.0, 0.0]], "1.000e+00 exceeds tol 1.000e-09"),
        ([[1e308, 0.0], [-1e308, 0.0]], "1.000e+308 exceeds tol 1.000e-09"),
        # fails closed: a nan defect is a breach, not a pass
        ([[np.nan, 0.0], [0.0, 1.0]], "nan is not finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "nan is not finite"),
        ([[0.0, np.inf], [0.0, 0.0]], "inf is not finite"),
    ]:
        m = np.array(m, dtype=complex)
        for fn, what in ((hermitian_eigenvalues, ""), (von_neumann_entropy, ""),
                         (validate_observable, "observable ")):
            with pytest.raises(NotHermitian) as info:
                fn(m)
            assert str(info.value) == f"{what}hermiticity defect {defect}"
    # the entropy's PSD check fails closed too, with the same finite text
    for w, text in [([-0.5, 1.5], "-5.000e-01 is below -tol -1.000e-09"),
                    ([np.nan, 1.0], "nan is not finite")]:
        with pytest.raises(NotPSD) as info:
            _spectrum_entropy(np.array(w), 1e-9)
        assert str(info.value) == f"smallest eigenvalue {text}"


def test_projector_and_observable_validation():
    z = np.diag([1.0, -1.0])
    assert np.array_equal(validate_observable(z), z)
    with pytest.raises(NotHermitian):
        validate_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_empty_matrix_raises_dimension_mismatch():
    for fn in (density_defects, von_neumann_entropy):
        with pytest.raises(DimensionMismatch, match=r"non-empty, got shape \(0, 0\)"):
            fn(np.zeros((0, 0)))


# a state keeps its validation spectrum exactly when that spectrum is
# eigvalsh(rho): rho is hermitian and (rho + rho^dag)/2 keeps its bits
def _keeps_bits(rho):
    return (np.array_equal(rho, rho.conj().T)
            and _same_bits((rho + rho.conj().T) / 2, rho))


def _check_spectrum(state):
    if not _keeps_bits(state.rho):
        assert state._spectrum is None
        return
    assert state._spectrum is not None
    got = np.float64(_spectrum_entropy(state._spectrum, 1e-9))
    want = np.float64(von_neumann_entropy(state.rho))
    assert got.view(np.uint64) == want.view(np.uint64)
    assert _same_bits(state._spectrum, np.linalg.eigvalsh(state.rho))
    with pytest.raises(NotHermitian):  # as von_neumann_entropy does at defect 0
        _state_entropy(state, -1.0)


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(2, 5), st.integers(2, 5)), st.integers(0, 2**32 - 1))
def test_kept_spectrum_gives_the_entropy_bits(dims, seed):
    # random_state leaves some draws a few ulps from hermitian: those keep none
    _check_spectrum(random_state(dims, seed))
    rng = np.random.default_rng(seed)
    a, b = (random_density(n, rng) for n in dims)
    product = product_state((a + a.conj().T) / 2, (b + b.conj().T) / 2)
    assert product._spectrum is not None
    _check_spectrum(product)


def test_zero_defect_with_a_flipped_zero_keeps_no_spectrum():
    m = random_density(4, 0)
    m = ((m + m.conj().T) / 2 + np.eye(4) / 4) / 2
    m[1, 0] = m[0, 1] = complex(-0.0, 0.0)
    _, sym = _hermitize(m)
    assert density_defects(m).hermiticity_defect == 0.0
    # the hermitized zeros lose their sign, and LAPACK's bits move with them
    assert not _same_bits(np.linalg.eigvalsh(sym), np.linalg.eigvalsh(m))
    state = BipartiteState(m, (2, 2))
    assert state._spectrum is None
    got = np.float64(_state_entropy(state, 1e-9))
    assert got.view(np.uint64) == np.float64(von_neumann_entropy(m)).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_eigensolve_helper_is_numpys_eigh_bit_for_bit(n, seed):
    # core._eigh calls numpy's eigh gufuncs itself: the bits of
    # np.linalg.eigh and eigvalsh, on random hermitian matrices and on
    # ones built with their eigenvalues in equal pairs
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2
    q = np.linalg.qr(g)[0]
    flat = (q * np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]) @ q.conj().T
    for m in (h, flat):
        w, v = _eigh(m)
        want_w, want_v = np.linalg.eigh(m)
        assert _same_bits(w, want_w) and _same_bits(v, want_v)
        assert _same_bits(_eigh(m, vectors=False), np.linalg.eigvalsh(m))


def _errors():
    return np.geterr(), np.geterrcall()


def test_eigensolve_helper_runs_under_its_own_error_state(monkeypatch):
    # core._eigh enters a prebuilt error state: inside it the gufuncs see
    # exactly what np.errstate with the same settings sets, and the
    # caller's state is back afterwards, after a raise too
    with np.errstate(call=core._raise_nonconvergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        want = _errors()
    seen = []

    def recording(a, signature):
        seen.append(_errors())
        return np.linalg.eigh(a) if signature == "D->dD" else np.linalg.eigvalsh(a)

    def no_convergence(a, signature):
        seen.append(_errors())
        return np.sqrt(np.full(a.shape[-1], -1.0))  # nan with the invalid flag

    def caller_error(*args):
        raise AssertionError("the caller's handler ran inside _eigh")

    m = np.eye(3, dtype=complex)
    with np.errstate(all="raise", call=caller_error):
        caller = _errors()
        monkeypatch.setattr(core, "_umath_linalg",
                            SimpleNamespace(eigh_lo=recording, eigvalsh_lo=recording))
        assert _same_bits(_eigh(m)[0], np.ones(3))
        assert _same_bits(_eigh(m, vectors=False), np.ones(3))
        assert _errors() == caller
        monkeypatch.setattr(core, "_umath_linalg", SimpleNamespace(
            eigh_lo=no_convergence, eigvalsh_lo=no_convergence))
        for vectors in (True, False):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                _eigh(m, vectors)
            assert _errors() == caller
    assert seen == [want] * 4
    assert want != caller
