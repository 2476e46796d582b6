import numpy as np
import pytest

from qdisent.core import InvalidPointer, InvalidSpec, validate_density
from qdisent.criteria import ppt_test, von_neumann_entropy
from qdisent.states import (
    GENERATOR_KINDS,
    GenSpec,
    bell_state,
    coherent_pointer,
    generate,
    maximally_mixed,
    pure_product,
    random_density,
    random_ket,
    random_state,
    random_unitary,
    separable_mixture,
)
from test_correlated import _raises_exactly


def test_bell_state_matrix():
    rho = bell_state().rho
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.abs(rho - expected).max() < 1e-15


def test_generators_are_deterministic():
    for kind in ("pure_product", "separable_mixture", "random"):
        a = generate(GenSpec(kind=kind, dims=(2, 3), seed=11))
        b = generate(GenSpec(kind=kind, dims=(2, 3), seed=11))
        c = generate(GenSpec(kind=kind, dims=(2, 3), seed=12))
        assert np.array_equal(a.rho, b.rho)
        assert np.abs(a.rho - c.rho).max() > 1e-6


def test_pure_product_is_pure_and_separable():
    for seed in range(20):
        state = pure_product((2, 2), seed=seed)
        purity = float(np.trace(state.rho @ state.rho).real)
        assert abs(purity - 1.0) < 1e-12
        assert ppt_test(state).passed


def test_separable_mixture_passes_ppt():
    for seed in range(50):
        state = separable_mixture((2, 2), seed=seed)
        assert ppt_test(state, tol=1e-10).passed


def test_separable_mixture_respects_k_terms():
    one = separable_mixture((2, 2), seed=0, k_terms=1)
    purity = float(np.trace(one.rho @ one.rho).real)
    assert abs(purity - 1.0) < 1e-12  # single term is a pure product


def test_maximally_mixed_entropy():
    state = maximally_mixed((2, 2))
    assert np.abs(state.rho - np.eye(4) / 4).max() < 1e-15
    assert abs(von_neumann_entropy(state.rho) - np.log(4)) < 1e-12


def test_random_state_is_full_rank():
    for seed in range(20):
        state = random_state((2, 2), seed=seed)
        assert np.linalg.eigvalsh(state.rho)[0] > 1e-6


def test_random_ket_normalized_and_rng_passthrough():
    ket = random_ket(5, seed=4)
    assert abs(np.linalg.norm(ket) - 1.0) < 1e-12
    rng = np.random.default_rng(4)
    again = random_ket(5, rng)
    assert np.array_equal(ket, again)


def test_random_unitary_is_unitary():
    for dim in (2, 3, 4):
        u = random_unitary(dim, seed=dim)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


def test_random_generators_check_their_dim():
    # the count rule: no empty draw for 0, no numpy or attribute error
    for draw in (random_ket, random_density, random_unitary):
        with _raises_exactly(ValueError, "dim must be >= 1, got 0"):
            draw(0)
        with _raises_exactly(ValueError, "dim must be >= 1, got -1"):
            draw(-1)
        with _raises_exactly(ValueError, "dim must be an integer, got None"):
            draw(None)
        with _raises_exactly(ValueError, "dim must be an integer, got inf"):
            draw(float("inf"))
        with _raises_exactly(ValueError, "dim must be an integer, got 2.9"):
            draw(2.9)
        assert draw(1).shape[0] == 1


def test_coherent_pointer_positivity_bound():
    ptr = coherent_pointer(0.5, 0.3 + 0.2j)
    validate_density(ptr)
    assert ptr[0, 1] == 0.3 + 0.2j and ptr[1, 0] == 0.3 - 0.2j
    with pytest.raises(InvalidPointer):
        coherent_pointer(0.5, 0.6)  # |b|^2 > p(1-p)
    with pytest.raises(InvalidPointer):
        coherent_pointer(1.2, 0.0)


def test_generate_dispatch_and_errors():
    assert set(GENERATOR_KINDS) >= {"bell", "pure_product", "separable_mixture",
                                    "maximally_mixed", "random"}
    bell = generate(GenSpec(kind="bell"))
    assert np.array_equal(bell.rho, bell_state().rho)
    with pytest.raises(InvalidSpec):
        generate(GenSpec(kind="thermal_pointer"))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(kind="bell", dims=(2, 3)))
    with pytest.raises(InvalidSpec):
        generate(GenSpec(kind="nope"))
    with _raises_exactly(InvalidSpec, "subsystem dimensions must be >= 2, got (1, 2)"):
        generate(GenSpec(kind="random", dims=(1, 2)))
    with _raises_exactly(InvalidSpec, "dims must be a pair of integers, got ('a', 2)"):
        generate(GenSpec(kind="random", dims=("a", 2)))
    # a recipe's dims are checked before its term count
    with _raises_exactly(InvalidSpec, "dims must be a pair of integers, got None"):
        generate(GenSpec(kind="separable_mixture", dims=None, k_terms=0))
    for k in (0, -1, 0.5):
        with _raises_exactly(InvalidSpec, f"k_terms must be >= 1, got {k}"):
            generate(GenSpec(kind="separable_mixture", k_terms=k))
    # a count or a dim with no int fails as the recipe's own error
    inf, nan = float("inf"), float("nan")
    for k in (nan, inf, None, "x", 2.5):
        with _raises_exactly(InvalidSpec, f"k_terms must be an integer, got {k!r}"):
            generate(GenSpec(kind="separable_mixture", k_terms=k))
    for dims in ((inf, 2), (2, nan), (2.9, 2)):
        with _raises_exactly(InvalidSpec, f"dims must be a pair of integers, got {dims!r}"):
            generate(GenSpec(kind="random", dims=dims))
