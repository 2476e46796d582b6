"""Properties over random dims 2..5, and a fuzz of every numeric CLI flag."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisent.cli import main
from qdisent.core import BipartiteState, partial_trace, product_state
from qdisent.correlated import (
    CorrelatedMethod,
    NeumannMethod,
    disentanglement_report,
    fixed_point_residuals,
    fixed_point_solve,
)
from qdisent.criteria import ppt_test, reduction_criterion_test
from qdisent.stateio import save_state
from qdisent.states import random_density, random_ket, random_state, separable_mixture

DIMS = st.tuples(st.integers(2, 5), st.integers(2, 5))
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS)
def test_partial_trace_of_a_product_returns_its_factors(dims, seed):
    rng = np.random.default_rng(seed)
    a = random_density(dims[0], rng)
    b = random_density(dims[1], rng)
    state = product_state(a, b)
    assert np.abs(partial_trace(state, over="B") - a).max() < 1e-12
    assert np.abs(partial_trace(state, over="A") - b).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(DIMS, SEEDS)
def test_converged_solve_resubstitutes(dims, seed):
    state = random_state(dims, seed)
    pair = fixed_point_solve(state)
    assert pair.converged
    assert max(fixed_point_residuals(state, pair.rho_a, pair.rho_b)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS, st.integers(1, 8))
def test_separable_mixtures_pass_ppt_and_reduction(dims, seed, terms):
    # Peres (quant-ph/9604005) and Horodecki (quant-ph/9708015): both
    # are necessary conditions, so every separable state passes them
    state = separable_mixture(dims, seed, k_terms=terms)
    assert ppt_test(state).passed
    assert reduction_criterion_test(state, mode="standard").passed


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS)
def test_correlated_pair_changes_near_pure_entropy_least(dims, seed):
    # the paper's claim: the correlated reduction "minimally changes the
    # entropy of composite system".  It holds in the near-pure regime the
    # paper argues from; on mixed states it can fail (generate random
    # --seed 8: 0.23637 correlated against 0.20529 von Neumann nats)
    n = dims[0] * dims[1]
    psi = random_ket(n, seed)
    rho = 0.99 * np.outer(psi, psi.conj()) + 0.01 * np.eye(n) / n
    state = BipartiteState((rho + rho.conj().T) / 2, dims)
    corr, neumann = disentanglement_report(state, [CorrelatedMethod(), NeumannMethod()])
    assert corr.error is None
    assert corr.entropy_change <= neumann.entropy_change + 1e-12


# Every numeric flag, each after the arguments that make it matter.  The
# bench2q base keeps --cases small; no listed value can reach an integer
# flag as a large count, because argparse refuses 1e308 for an int.
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308")
FUZZ_FLAGS = [
    (("validate", "s.json"), "--tol"),
    (("analyze", "s.json"), "--tol"),
    (("disentangle", "--method", "pointer", "s.json"), "--p"),
    (("disentangle", "--method", "pointer", "s.json"), "--b-re"),
    (("disentangle", "--method", "pointer", "s.json"), "--b-im"),
    (("disentangle", "--method", "pointer", "s.json"), "--m"),
    (("disentangle", "s.json"), "--m"),
    (("disentangle", "s.json"), "--tol"),
    (("disentangle", "s.json"), "--max-iter"),
    (("disentangle", "s.json"), "--damping"),
    (("generate", "separable", "--out", "g.json"), "--dims"),
    (("generate", "separable", "--out", "g.json"), "--seed"),
    (("generate", "separable", "--out", "g.json"), "--terms"),
    (("bench2q", "--cases", "2"), "--seed"),
    (("bench2q",), "--cases"),
]


@pytest.mark.parametrize("base, flag", FUZZ_FLAGS,
                         ids=[f"{b[0]}{f}" for b, f in FUZZ_FLAGS])
def test_numeric_flag_fuzz_keeps_the_exit_contract(tmp_path, monkeypatch, capsys,
                                                   base, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QDISENT_TOL", raising=False)
    save_state(tmp_path / "s.json", random_state((2, 2), seed=1))
    for value in FUZZ_VALUES:
        args = [flag, value, value] if flag == "--dims" else [f"{flag}={value}"]
        code = main([*base, *args])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (flag, value, code)
        assert "Traceback" not in err
