import contextlib
import io
from types import SimpleNamespace

import numpy as np
import pytest

from qdisent import core
from qdisent.cli import main
from qdisent.core import (
    BipartiteState,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    product_state,
)
from qdisent.criteria import (
    correlation_gap,
    ppt_test,
    reduction_criterion_test,
    separability_verdict,
    subadditivity_check,
    von_neumann_entropy,
    witness_expectation,
)
from qdisent.stateio import save_state
from qdisent.states import (
    bell_state,
    pure_product,
    random_density,
    random_ket,
    random_state,
    random_unitary,
    separable_mixture,
)

Z = np.diag([1.0, -1.0])


def test_entropy_reference_values():
    ket = random_ket(4, seed=0)
    assert von_neumann_entropy(np.outer(ket, ket.conj())) <= 1e-12
    for n in (2, 3, 4):
        assert abs(von_neumann_entropy(np.eye(n) / n) - np.log(n)) < 1e-12


def test_entropy_unitary_invariance():
    for seed in range(10):
        rho = random_density(4, seed)
        u = random_unitary(4, seed + 100)
        s0 = von_neumann_entropy(rho)
        s1 = von_neumann_entropy(u @ rho @ u.conj().T)
        assert abs(s0 - s1) < 1e-10


def test_entropy_eigenvalue_clamp():
    # a hair below zero is treated as zero, far below is an error
    rho = np.diag([1.0 + 5e-10, -5e-10])
    assert von_neumann_entropy(rho) <= 1e-8
    with pytest.raises(NotPSD):
        von_neumann_entropy(np.diag([1.001, -0.001]))


def test_ppt_bell_and_separable():
    bell = bell_state()
    res = ppt_test(bell)
    assert abs(res.min_eigenvalue + 0.5) < 1e-12
    assert not res.passed
    for seed in range(25):
        assert ppt_test(separable_mixture((2, 2), seed=seed), tol=1e-10).passed


def test_reduction_criterion_modes():
    bell = bell_state()
    std = reduction_criterion_test(bell, mode="standard")
    assert abs(std.min_eigenvalue_a + 0.5) < 1e-12
    assert not std.passed

    # |upper,upper> product state: fine under the standard test, broken
    # under the scaled variant
    e0 = np.zeros(2)
    e0[0] = 1.0
    prod = product_state(np.outer(e0, e0), np.outer(e0, e0))
    assert reduction_criterion_test(prod, mode="standard").passed
    lit = reduction_criterion_test(prod, mode="literal")
    assert not lit.passed
    assert abs(lit.min_eigenvalue_a + 0.5) < 1e-12

    for seed in range(25):
        state = separable_mixture((2, 2), seed=seed)
        assert reduction_criterion_test(state, mode="standard").passed

    with pytest.raises(ValueError):
        reduction_criterion_test(bell, mode="loose")


def test_subadditivity_on_random_states():
    for seed in range(50):
        for dims in ((2, 2), (2, 3)):
            res = subadditivity_check(random_state(dims, seed=seed))
            assert res.subadditive
            assert res.araki_lieb


def test_bell_breaks_naive_entropy_ordering():
    res = subadditivity_check(bell_state())
    assert res.entropy_ab <= 1e-12
    assert abs(res.entropy_a - np.log(2)) < 1e-12
    assert res.entropy_ab < res.entropy_a  # joint strictly below marginal
    assert res.subadditive and res.araki_lieb


def test_witness_expectation():
    bell = bell_state()
    witness = 0.5 * np.eye(4) - bell.rho
    assert abs(witness_expectation(bell, witness) + 0.5) < 1e-12
    for seed in range(25):
        state = separable_mixture((2, 2), seed=seed)
        assert witness_expectation(state, witness) >= -1e-10
    with pytest.raises(NotHermitian):
        witness_expectation(bell, np.triu(np.ones((4, 4))))
    with pytest.raises(DimensionMismatch, match=r"witness shape \(2, 2\)"):
        witness_expectation(bell, np.eye(2))
    # hermitian within tol=1e-3, but the expectation keeps i * 1e-4
    tilted = np.diag([1.0, -1.0, -1.0, 1.0]) + 1e-4j * np.eye(4)
    with pytest.raises(ValueError, match="imaginary part 1.000e-04"):
        witness_expectation(bell, tilted, tol=1e-3)


def test_correlation_gap_values():
    bell = bell_state()
    res = correlation_gap(bell, Z, Z)
    assert abs(res.joint - 1.0) < 1e-12
    assert abs(res.product) < 1e-12
    assert abs(res.gap - 1.0) < 1e-12
    for seed in range(25):
        prod = pure_product((2, 2), seed=seed)
        assert abs(correlation_gap(prod, Z, Z).gap) < 1e-12
    with pytest.raises(DimensionMismatch):
        correlation_gap(bell, np.eye(3), Z)
    with pytest.raises(DimensionMismatch,
                       match=r"obs_b shape \(3, 3\), expected \(2, 2\)"):
        correlation_gap(bell, np.eye(2), np.eye(3))


def test_separability_verdict_aggregates():
    bell = bell_state()
    v = separability_verdict(bell)
    assert not v.ppt_pass and not v.red_pass and not v.all_pass
    assert abs(v.ppt_min_eig + 0.5) < 1e-12
    assert v.subadditivity_pass and v.araki_lieb_pass
    assert v.red_mode == "standard"

    sep = separable_mixture((2, 2), seed=9)
    w = separability_verdict(sep)
    assert w.ppt_pass and w.red_pass and w.all_pass
    assert abs(w.entropy_ab - subadditivity_check(sep).entropy_ab) < 1e-15


def _joint_solves(monkeypatch, argv, n):
    """Run the CLI in-process; count the n x n eigenvalue-only solves it makes.

    Both ways to one are counted: the gufunc ``core._eigh`` calls and
    ``np.linalg.eigvalsh``.
    """
    calls = []
    gufuncs = core._umath_linalg
    eigvalsh = np.linalg.eigvalsh

    def spying(solve):
        def spy(a, *args, **kwargs):
            if np.shape(a) == (n, n):
                calls.append(1)
            return solve(a, *args, **kwargs)
        return spy

    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(core, "_umath_linalg", SimpleNamespace(
            eigh_lo=gufuncs.eigh_lo, eigvalsh_lo=spying(gufuncs.eigvalsh_lo)))
        patch.setattr(np.linalg, "eigvalsh", spying(eigvalsh))
        code = main(argv)
    return code, len(calls)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_each_joint_spectrum_is_solved_once(tmp_path, monkeypatch, dims):
    monkeypatch.delenv("QDISENT_TOL", raising=False)
    n = dims[0] * dims[1]
    rho = random_density(n, 3)
    rho = (rho + rho.conj().T) / 2  # exactly hermitian, as the bench corpus writes
    off = rho.copy()
    off[1, 0] = complex(np.nextafter(off[1, 0].real, 1.0), off[1, 0].imag)
    exact, near = tmp_path / "exact.json", tmp_path / "near.json"
    save_state(exact, BipartiteState(rho, dims))
    save_state(near, BipartiteState(off, dims))
    # validate: one solve serves the defect keys and validity; analyze:
    # validation, PPT, two reduction operators and S_AB, whose spectrum
    # validation already solved when rho keeps its bits; disentangle:
    # input and product, each validated once, their entropies reuse it
    expected = [("validate", exact, 1), ("analyze", exact, 4), ("disentangle", exact, 2),
                ("validate", near, 1), ("analyze", near, 5), ("disentangle", near, 3)]
    for cmd, path, solves in expected:
        code, count = _joint_solves(monkeypatch, [cmd, str(path)], n)
        assert code in (0, 1) and count == solves, (cmd, path.name, code, count)
