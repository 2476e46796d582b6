import numpy as np
import pytest

from qdisent.core import (
    BipartiteState,
    DimensionMismatch,
    InvalidSpec,
    ZeroDenominator,
    _ptrace,
    partial_trace,
)
from qdisent.reductions import (
    averaged_projective_state,
    neumann_equivalence_gap,
    neumann_reduce,
    validate_outcome_probs,
)
from qdisent.states import bell_state, random_ket, random_state

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])


def test_neumann_reduce_is_partial_trace():
    state = random_state((2, 3), seed=2)
    assert np.array_equal(neumann_reduce(state, "A"), partial_trace(state, "B"))
    assert np.array_equal(neumann_reduce(state, "B"), partial_trace(state, "A"))
    with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
        neumann_reduce(state, keep="C")


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


def _reference_averaged(state, v):
    """The averaged state the plain way: weight each B column of rho, then trace B out."""
    num = _ptrace(state.rho * np.tile(v, state.n_a), state.n_a, state.n_b, "B")
    return num / float(np.trace(num).real)


# the joint dims 6, 9, 15 and 21 take the plan's lifted branch, the rest its block route
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 2), (3, 5), (7, 3),
                                  (4, 4), (8, 8)], ids="{0[0]}x{0[1]}".format)
def test_averaged_state_is_the_planned_weighted_trace_bit_for_bit(dims):
    n_a, n_b = dims
    rng = np.random.default_rng(n_a * 10 + n_b)
    for seed in range(6):
        if seed % 2:
            ket = random_ket(n_a * n_b, seed)
            state = BipartiteState(np.outer(ket, ket.conj()), dims)
        else:
            state = random_state(dims, seed=seed)
        v = rng.random(n_b)
        if seed < 4:
            v[seed % n_b] = 0.0  # an outcome that never counts
        v /= v.sum()
        got = averaged_projective_state(state, v)
        ref = _reference_averaged(state, v)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
