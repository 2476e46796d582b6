import numpy as np
import pytest

from qdisent.core import (
    BipartiteState,
    DimensionMismatch,
    InvalidSpec,
    ZeroDenominator,
    ZeroProbability,
    partial_trace,
    product_state,
)
from qdisent.reductions import (
    averaged_projective_state,
    conditional_state,
    neumann_equivalence_gap,
    neumann_reduce,
    projective_collapse,
    validate_outcome_probs,
    zeno_disentangle,
)
from qdisent.states import bell_state, random_density, random_state

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])


def test_neumann_reduce_is_partial_trace():
    state = random_state((2, 3), seed=2)
    assert np.array_equal(neumann_reduce(state, "A"), partial_trace(state, "B"))
    assert np.array_equal(neumann_reduce(state, "B"), partial_trace(state, "A"))
    with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
        neumann_reduce(state, keep="C")


def test_projective_collapse_basics():
    rho = np.diag([0.3, 0.7]).astype(complex)
    proj = np.outer(E0, E0)
    collapsed, prob = projective_collapse(rho, proj)
    assert abs(prob - 0.3) < 1e-15
    assert np.abs(collapsed - proj).max() < 1e-15

    with pytest.raises(ZeroProbability):
        projective_collapse(np.outer(E1, E1), proj)
    with pytest.raises(ValueError):
        projective_collapse(rho, np.eye(2) / 2)  # not a projector
    with pytest.raises(DimensionMismatch, match=r"projector shape \(2, 2\) does"
                       r" not match state shape \(4, 4\)"):
        projective_collapse(bell_state().rho, np.eye(2))


def test_conditional_state_on_bell():
    bell = bell_state()
    for outcome in (0, 1):
        cond, prob = conditional_state(bell, outcome)
        expected = np.outer(E0, E0) if outcome == 0 else np.outer(E1, E1)
        assert abs(prob - 0.5) < 1e-15
        assert np.abs(cond - expected).max() < 1e-15
    with pytest.raises(DimensionMismatch):
        conditional_state(bell, 2)
    with pytest.raises(DimensionMismatch):
        conditional_state(bell, -1)


def test_conditional_state_zero_probability():
    state = product_state(random_density(2, 1), np.outer(E0, E0))
    with pytest.raises(ZeroProbability):
        conditional_state(state, 1)


def test_zeno_disentangle_structure():
    bell = bell_state()
    frozen = zeno_disentangle(bell, 0)
    expected = np.kron(np.outer(E0, E0), np.outer(E0, E0))
    assert isinstance(frozen, BipartiteState)
    assert np.abs(frozen.rho - expected).max() < 1e-15

    # generic case factors as conditional (x) outcome projector
    state = random_state((2, 2), seed=6)
    cond, _ = conditional_state(state, 1)
    assert np.abs(zeno_disentangle(state, 1).rho
                  - np.kron(cond, np.outer(E1, E1))).max() < 1e-15


def test_validate_outcome_probs():
    probs = validate_outcome_probs([0.25, 0.75], 2)
    assert np.abs(probs - [0.25, 0.75]).max() < 1e-15
    with pytest.raises(DimensionMismatch):
        validate_outcome_probs([1.0], 2)
    with pytest.raises(InvalidSpec):
        validate_outcome_probs([-0.1, 1.1], 2)
    with pytest.raises(InvalidSpec):
        validate_outcome_probs([0.6, 0.6], 2)


def test_averaged_projective_state_uniform_equals_neumann():
    for seed in range(30):
        for dims in ((2, 2), (2, 3)):
            state = random_state(dims, seed=seed)
            avg = averaged_projective_state(state,
                                            np.full(dims[1], 1.0 / dims[1]))
            assert np.abs(avg - neumann_reduce(state, "A")).max() < 1e-12


def test_averaged_projective_state_biased_bell():
    bell = bell_state()
    avg = averaged_projective_state(bell, np.array([0.9, 0.1]))
    assert np.abs(avg - np.diag([0.9, 0.1])).max() < 1e-15
    # |01><01| weighted only by the B outcome it never takes
    ket = np.kron(E0, E1)
    state = BipartiteState(np.outer(ket, ket).astype(complex), (2, 2))
    with pytest.raises(ZeroDenominator, match="averaged trace 0.000e"):
        averaged_projective_state(state, np.array([1.0, 0.0]))


def test_neumann_equivalence_gap():
    bell = bell_state()
    gap = neumann_equivalence_gap(bell, np.array([0.9, 0.1]))
    assert abs(gap - 0.4 * np.sqrt(2.0)) < 1e-12
    uniform = neumann_equivalence_gap(bell, np.array([0.5, 0.5]))
    assert uniform < 1e-15
