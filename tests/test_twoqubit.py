import numpy as np
import pytest

from qdisent.core import DimensionMismatch, InvalidPointer, ZeroDenominator
from qdisent.correlated import correlated_local_state
from qdisent.reductions import averaged_projective_state, neumann_reduce
from qdisent.states import coherent_pointer, random_state, thermal_pointer
from qdisent.twoqubit import (
    BENCH_GATE,
    coherent_pointer_local,
    coherent_pointer_product,
    diagonal_pointer_local,
    diagonal_pointer_product,
    transcription_bench,
)


def _cases(n):
    rng = np.random.default_rng(42)
    for _ in range(n):
        state = random_state((2, 2), rng)
        p = float(rng.uniform(0.1, 0.9))
        b = 0.8 * np.sqrt(p * (1 - p)) * np.exp(1j * float(rng.uniform(0, 7)))
        yield state, p, b


def test_diagonal_local_matches_generic_routes():
    for state, p, _ in _cases(50):
        table = diagonal_pointer_local(state.rho, p)
        avg = averaged_projective_state(state, np.array([p, 1 - p]))
        gen = correlated_local_state(state, thermal_pointer(p))
        assert np.abs(table - avg).max() < 1e-13
        assert np.abs(table - gen).max() < 1e-13


def test_diagonal_product_matches_composition():
    for state, p, _ in _cases(50):
        table = diagonal_pointer_product(state.rho, p)
        ref = np.kron(averaged_projective_state(state, np.array([p, 1 - p])),
                      thermal_pointer(p))
        assert np.abs(table - ref).max() < 1e-13
        assert abs(np.trace(table).real - 1.0) < 1e-12


def test_coherent_local_matches_generic_route():
    for state, p, b in _cases(50):
        table = coherent_pointer_local(state.rho, p, b)
        gen = correlated_local_state(state, coherent_pointer(p, b))
        assert np.abs(table - gen).max() < 1e-13


def test_coherent_product_matches_composition():
    for state, p, b in _cases(50):
        table = coherent_pointer_product(state.rho, p, b)
        ref = np.kron(correlated_local_state(state, coherent_pointer(p, b)),
                      coherent_pointer(p, b))
        assert np.abs(table - ref).max() < 1e-13


def test_literal_variants_differ_only_at_the_known_entry():
    for state, p, b in _cases(20):
        d = (diagonal_pointer_product(state.rho, p, literal=True)
             - diagonal_pointer_product(state.rho, p))
        nz = np.argwhere(np.abs(d) > 1e-14)
        assert [tuple(ix) for ix in nz] == [(3, 1)]

        c = (coherent_pointer_product(state.rho, p, b, literal=True)
             - coherent_pointer_product(state.rho, p, b))
        nz = np.argwhere(np.abs(c) > 1e-14)
        assert [tuple(ix) for ix in nz] == [(2, 3)]


def test_balanced_pointer_reproduces_plain_reduction():
    state = random_state((2, 2), seed=12)
    red = neumann_reduce(state, "A")
    local = coherent_pointer_local(state.rho, 0.5, 0.0)
    assert np.abs(local - red).max() < 1e-15
    prod = coherent_pointer_product(state.rho, 0.5, 0.0)
    assert np.abs(prod - np.kron(red, np.eye(2) / 2)).max() < 1e-15


def test_balanced_pointer_is_exact_on_dyadic_entries():
    # every entry a power-of-two fraction, so nothing rounds anywhere
    rho = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.125
    red = np.array([[0.75, 0.0], [0.0, 0.25]], dtype=complex)
    assert np.array_equal(coherent_pointer_local(rho, 0.5, 0.0), red)
    assert np.array_equal(coherent_pointer_product(rho, 0.5, 0.0),
                          np.kron(red, np.eye(2) / 2))
    assert np.array_equal(diagonal_pointer_local(rho, 0.5), red)
    assert np.array_equal(diagonal_pointer_product(rho, 0.5),
                          np.kron(red, np.eye(2) / 2))


def test_pointer_validation():
    state = random_state((2, 2), seed=1)
    with pytest.raises(InvalidPointer):
        diagonal_pointer_local(state.rho, 1.5)
    with pytest.raises(InvalidPointer):
        coherent_pointer_local(state.rho, 0.5, 0.9)
    with pytest.raises(DimensionMismatch):
        diagonal_pointer_local(np.eye(3) / 3, 0.5)
    with pytest.raises(DimensionMismatch):
        diagonal_pointer_local(random_state((2, 3), seed=0), 0.5)
    # a BipartiteState with matching dims is accepted directly
    table = diagonal_pointer_local(state, 0.5)
    assert np.abs(table - neumann_reduce(state, "A")).max() < 1e-15


def test_zero_denominator_guard():
    e1 = np.array([0.0, 1.0])
    rho = np.kron(np.eye(2) / 2, np.outer(e1, e1)).astype(complex)
    with pytest.raises(ZeroDenominator):
        diagonal_pointer_local(rho, 1.0)  # pointer fully on the empty level
    # fails closed: a nan entry off the diagonal makes a nan weight
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 0] = np.nan
    for table in (diagonal_pointer_local, coherent_pointer_local):
        with pytest.raises(ZeroDenominator, match="^normalization nan is not finite$"):
            table(rho, 0.5)


def test_transcription_bench_rows():
    rows = transcription_bench(cases=40, seed=0)
    labels = [r.label for r in rows]
    assert labels == ["diagonal local", "diagonal product", "coherent local",
                      "coherent product", "diagonal product literal",
                      "coherent product literal"]
    by_label = {r.label: r for r in rows}
    for label, row in by_label.items():
        assert row.cases == 40
        if row.gated:
            assert row.max_deviation <= BENCH_GATE
        else:
            assert row.max_deviation > 1e-6  # the misprint is visible
    assert not by_label["diagonal product literal"].gated
    assert not by_label["coherent product literal"].gated


def test_transcription_bench_deterministic():
    assert transcription_bench(cases=5, seed=3) == transcription_bench(
        cases=5, seed=3)
