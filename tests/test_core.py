import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdisent
from qdisent.core import (
    BipartiteState,
    DensityCheck,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    _frobenius,
    _hermitize,
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


BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def test_tensor_product_matches_kron():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]])
    assert np.array_equal(tensor_product(a, b), np.kron(a, b))


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


@settings(max_examples=100, deadline=None)
@given(SIDES, SIDES, st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
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


def test_all_names_resolve_once():
    # __all__ lists each public name of the package once, and no other
    public = {name for name, value in vars(qdisent).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(qdisent.__all__) == len(set(qdisent.__all__))
    assert set(qdisent.__all__) == public


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
    with pytest.raises(ValueError):
        partial_trace(state, over="C")
    with pytest.raises(ValueError, match="on must be 'A' or 'B', got 'C'"):
        partial_transpose(state, on="C")


def test_partial_transpose_is_an_involution():
    state = BipartiteState(random_density(6, 3), (2, 3))
    # the intermediate need not be a state, so undo the map on the raw array
    for on, axes in (("A", (2, 1, 0, 3)), ("B", (0, 3, 2, 1))):
        once = partial_transpose(state, on=on)
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
    with pytest.raises(DimensionMismatch):
        BipartiteState(np.eye(4) / 4, (1, 4))
    with pytest.raises(DimensionMismatch):
        BipartiteState(np.eye(4) / 4, (2, 3))
    with pytest.raises(DimensionMismatch):
        BipartiteState(np.eye(4) / 4, ("a", "b"))


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
    with pytest.raises(ValueError):
        embed_local(op, "C", (2, 2))


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
