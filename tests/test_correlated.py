import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qdisent.core import (
    DEFAULT_TOL,
    BipartiteState,
    DimensionMismatch,
    InvalidPointer,
    InvalidSpec,
    NotPSDResult,
    ZeroDenominator,
    partial_trace,
    product_state,
)
from qdisent.correlated import (
    CorrelatedMethod,
    NeumannMethod,
    NonConvergence,
    PointerMethod,
    SolverConfig,
    _weighted_reduction,
    correlated_local_state,
    disentanglement_report,
    fixed_point_residuals,
    fixed_point_solve,
)
from qdisent.criteria import witness_expectation
from qdisent.reductions import (
    averaged_projective_state,
    neumann_reduce,
    validate_outcome_probs,
)
from qdisent.states import (
    bell_state,
    coherent_pointer,
    random_density,
    random_ket,
    random_state,
    separable_mixture,
)
from test_cli import _noisy_bell


def test_maximally_mixed_pointer_recovers_plain_reduction():
    """The uncorrelated special case: pointer I/n gives the partial trace."""
    for seed in range(20):
        for dims in ((2, 2), (2, 3)):
            state = random_state(dims, seed=seed)
            ref = neumann_reduce(state, "A")
            eye = np.eye(dims[1]) / dims[1]
            for m in (1, 2, 3):
                got = correlated_local_state(state, eye, side="A", m=m)
                assert np.abs(got - ref).max() < 1e-12


def test_diagonal_pointer_matches_averaged_route():
    for seed in range(20):
        state = random_state((2, 2), seed=seed)
        ptr = np.diag([0.7, 0.3]).astype(complex)
        got = correlated_local_state(state, ptr)
        ref = averaged_projective_state(state, np.array([0.7, 0.3]))
        assert np.abs(got - ref).max() < 1e-13


def test_pointer_power_changes_the_answer():
    # mix of two maximally entangled states; hand-computed factors
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.35
    rho[1, 1] = rho[2, 2] = 0.15
    rho[1, 2] = rho[2, 1] = -0.15
    state = BipartiteState(rho, (2, 2))
    ptr = np.diag([0.7, 0.3]).astype(complex)
    one = correlated_local_state(state, ptr, m=1)
    two = correlated_local_state(state, ptr, m=2)
    assert np.abs(one - np.diag([0.58, 0.42])).max() < 1e-14
    assert np.abs(two - np.diag([0.185 / 0.29, 0.105 / 0.29])).max() < 1e-14
    assert np.abs(one - two).max() > 1e-3


def test_correlated_local_state_argument_checks():
    state = random_state((2, 2), seed=0)
    with pytest.raises(ValueError):
        correlated_local_state(state, np.eye(2) / 2, side="Q")
    with pytest.raises(ValueError):
        correlated_local_state(state, np.eye(2) / 2, m=0)
    with pytest.raises(DimensionMismatch):
        correlated_local_state(state, np.eye(3) / 3, side="A")


def test_weighted_reduction_zero_denominator():
    e1 = np.array([0.0, 1.0])
    state = product_state(random_density(2, 5), np.outer(e1, e1))
    blind = np.array([[1.0, 0.0], [0.0, 0.0]])  # orthogonal to the B factor
    with pytest.raises(ZeroDenominator):
        correlated_local_state(state, blind, side="A")


def test_weighted_reduction_negative_eigenvalue_past_tol():
    # a pure (3, 2) state reduces to a rank-deficient factor whose zero
    # eigenvalue comes out at -1.487e-16, below -tol for tol=1e-30
    ket = random_ket(6, 0)
    state = BipartiteState(np.outer(ket, ket.conj()), (3, 2))
    with pytest.raises(NotPSDResult, match="eigenvalue -1.487e-16 below -tol"):
        correlated_local_state(state, np.eye(2) / 2, tol=1e-30)


def _raises_exactly(exc, text):
    return pytest.raises(exc, match="^" + re.escape(text) + "$")


def test_tolerance_checks_fail_closed_on_nan():
    nan = float("nan")
    with _raises_exactly(ZeroDenominator, "weighted trace nan is not finite"):
        fixed_point_residuals(bell_state(), np.eye(2) / 2, [[nan, 0], [0, 1]])
    # finite weighted trace, but the A-block coherences sum past the double
    # limit, so the hermitized factor and its spectrum come out nan
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 2] = rho[2, 0] = rho[1, 3] = rho[3, 1] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), _raises_exactly(
            NotPSDResult, "weighted reduction has eigenvalue nan is not finite"):
        _weighted_reduction(rho, (2, 2), np.eye(2, dtype=complex), "A", 1e-9)
    # a state that skipped validation, with a nan on its diagonal
    raw = SimpleNamespace(rho=np.diag([nan, 0.5, 0.25, 0.25]).astype(complex),
                          n_a=2, n_b=2)
    with _raises_exactly(ZeroDenominator, "averaged trace nan is not finite"):
        averaged_projective_state(raw, [0.5, 0.5])
    with _raises_exactly(InvalidSpec, "negative probability nan"):
        averaged_projective_state(bell_state(), [nan, nan])
    # an infinite tol lets -inf through the sign check; inf - inf sums to nan
    with np.errstate(invalid="ignore"), _raises_exactly(
            InvalidSpec, "probabilities sum to nan, not 1"):
        validate_outcome_probs([np.inf, -np.inf], 2, tol=np.inf)
    with _raises_exactly(InvalidPointer, "|b|^2 = nan exceeds p(1-p) = 2.500e-01"):
        coherent_pointer(0.5, complex(nan, 0.0))
    # a valid state and a finite hermitian witness whose products overflow
    # in rho @ W, so a diagonal entry of the product is -inf + nan j
    psi = np.array([-0.47 - 0.46j, 0.27 + 0.41j, -0.05 + 0.36j, 0.02 + 0.44j])
    psi /= np.linalg.norm(psi)
    witness = np.zeros((4, 4), dtype=complex)
    witness[1:, 0] = 1.7e308 * (1 + 1j)
    witness[0, 1:] = 1.7e308 * (1 - 1j)
    with np.errstate(over="ignore", invalid="ignore"), _raises_exactly(
            ValueError, "expectation has imaginary part nan beyond 1.0e-10"):
        witness_expectation(BipartiteState(np.outer(psi, psi.conj()), (2, 2)), witness)


def test_fixed_point_residuals_argument_checks():
    state = random_state((2, 3), seed=0)
    rho_a, rho_b = np.eye(2) / 2, np.eye(3) / 3
    assert min(fixed_point_residuals(state, rho_a, rho_b)) >= 0.0
    for m in (0, -1):
        with _raises_exactly(ValueError, f"m must be >= 1, got {m}"):
            fixed_point_residuals(state, rho_a, rho_b, m=m)
    for a, b in ((rho_b, rho_a), (np.eye(3) / 3, rho_b), (rho_a, rho_a),
                 (np.ones(2) / 2, rho_b)):
        with pytest.raises(DimensionMismatch):
            fixed_point_residuals(state, a, b)


def test_fixed_point_residuals_report_an_overflowing_candidate():
    # no numpy warning: an overflowing candidate gives an infinite
    # distance, or with m=2 a nan weighted trace that the guard names
    state = random_state((2, 2), seed=1)
    huge = [[1e308, 0], [0, 1e308]]
    res_a, res_b = fixed_point_residuals(state, np.eye(2) / 2, huge)
    assert np.isfinite(res_a) and res_b == np.inf
    with _raises_exactly(ZeroDenominator, "weighted trace nan is not finite"):
        fixed_point_residuals(state, np.eye(2) / 2, huge, m=2)


def test_solver_config_validation():
    state = random_state((2, 2), seed=1)
    for bad in (SolverConfig(damping=1.0), SolverConfig(damping=-0.1),
                SolverConfig(max_iter=0), SolverConfig(tol=0.0),
                SolverConfig(m_power=0)):
        with pytest.raises(ValueError):
            fixed_point_solve(state, bad)


def test_product_input_is_an_immediate_fixed_point():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = product_state(random_density(2, rng), random_density(3, rng))
        pair = fixed_point_solve(state)
        assert pair.converged
        assert pair.iterations <= 2
        assert max(pair.residual_a, pair.residual_b) < 1e-12
        prod = product_state(pair.rho_a, pair.rho_b)
        assert np.abs(prod.rho - state.rho).max() < 1e-12


def test_bell_is_stationary_at_the_mixed_pair():
    pair = fixed_point_solve(bell_state())
    assert pair.converged and pair.iterations == 1
    assert np.abs(pair.rho_a - np.eye(2) / 2).max() < 1e-15
    assert np.abs(pair.rho_b - np.eye(2) / 2).max() < 1e-15


def test_solver_summary_and_certificate():
    state = random_state((2, 2), seed=5)
    pair = fixed_point_solve(state)
    assert pair.converged
    assert pair.final_step_a < 1e-12 and pair.final_step_b < 1e-12
    res_a, res_b = fixed_point_residuals(state, pair.rho_a, pair.rho_b)
    assert max(res_a, res_b) <= 10e-12


def test_damping_reaches_the_same_fixed_point():
    state = random_state((2, 2), seed=8)
    plain = fixed_point_solve(state)
    damped = fixed_point_solve(state, SolverConfig(damping=0.5))
    assert damped.converged
    assert np.abs(plain.rho_a - damped.rho_a).max() < 1e-8
    assert np.abs(plain.rho_b - damped.rho_b).max() < 1e-8


def test_non_convergence_carries_best_iterate():
    state = random_state((2, 2), seed=5)
    with pytest.raises(NonConvergence) as err:
        fixed_point_solve(state, SolverConfig(max_iter=1))
    best = err.value.best
    assert not best.converged
    assert best.iterations == 1
    # the attached pair is still a usable (normalized, PSD) candidate
    assert abs(np.trace(best.rho_a).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(best.rho_b)[0] > -1e-12


def test_solver_summary_spans_every_sweep():
    # a pure 2x3 state: rho_B has a zero eigenvalue, which two of the
    # first three B half-steps round below zero and clamp; the largest
    # defect and the smallest eigenvalue both come before the last sweep
    psi = random_ket(6, 12)
    state = BipartiteState(np.outer(psi, psi.conj()), (2, 3))
    rho_a, rho_b = partial_trace(state, over="B"), partial_trace(state, over="A")
    defects, eigs = [], []
    for _ in range(3):
        new_a, defect_a, min_a = _weighted_reduction(
            state.rho, state.dims, rho_b, "A", DEFAULT_TOL)
        new_b, defect_b, min_b = _weighted_reduction(
            state.rho, state.dims, new_a, "B", DEFAULT_TOL)
        steps = np.linalg.norm(new_a - rho_a), np.linalg.norm(new_b - rho_b)
        defects += [defect_a, defect_b]
        eigs += [min_a, min_b]
        rho_a, rho_b = new_a, new_b
    with pytest.raises(NonConvergence) as err:
        fixed_point_solve(state, SolverConfig(max_iter=3))
    best = err.value.best
    assert best.min_eig_seen < 0.0
    assert (best.final_step_a, best.final_step_b) == steps
    assert best.max_herm_defect == max(defects) > max(defects[-2:])
    assert best.min_eig_seen == min(eigs) < min(eigs[-2:])


def _solve_peak_kib(state, sweeps):
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergence):
            fixed_point_solve(state, SolverConfig(max_iter=sweeps))
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_solver_memory_does_not_grow_with_the_sweep_count():
    # the eps = 1e-4 noisy Bell state needs about 127,000 sweeps, so
    # both solves run out of sweeps and spend every one of them
    state = BipartiteState(_noisy_bell(1e-4), (2, 2))
    short, long = (_solve_peak_kib(state, sweeps) for sweeps in (2000, 4000))
    assert long <= short + 8.0, f"peak {short:.1f} KiB -> {long:.1f} KiB"


def test_report_runs_all_methods():
    state = separable_mixture((2, 2), seed=7)
    reports = disentanglement_report(
        state, [NeumannMethod(), PointerMethod(), CorrelatedMethod()])
    tags = [r.method for r in reports]
    assert tags == ["neumann", "pointer", "correlated"]
    for rep in reports:
        assert rep.error is None
        assert rep.product is not None
        assert rep.frobenius_to_input >= 0.0
        assert abs(rep.entropy_change
                   - (rep.entropy_product - rep.entropy_input)) < 1e-12
    # default pointer (p = 1/2, b = 0) must agree with the plain reduction
    assert np.abs(reports[1].factor_a - reports[0].factor_a).max() < 1e-12
    # the solved pair should fit at least as well as the one-shot guesses
    assert reports[2].frobenius_to_input <= reports[0].frobenius_to_input + 1e-9


def test_report_on_bell_neumann_method():
    rep = disentanglement_report(bell_state(), [NeumannMethod()])[0]
    assert np.abs(rep.product.rho - np.eye(4) / 4).max() < 1e-15
    assert abs(rep.frobenius_to_input - np.sqrt(3.0) / 2.0) < 1e-12
    assert abs(rep.entropy_input) < 1e-12
    assert abs(rep.entropy_change - np.log(4.0)) < 1e-12


def test_report_captures_method_errors_without_raising():
    wide = random_state((2, 3), seed=3)
    rep = disentanglement_report(wide, [PointerMethod()])[0]
    assert rep.error is not None and "DimensionMismatch" in rep.error
    assert rep.factor_a is None and rep.product is None

    state = random_state((2, 2), seed=5)
    rep = disentanglement_report(
        state, [CorrelatedMethod(SolverConfig(max_iter=1))])[0]
    assert rep.error is not None and rep.error.startswith("NonConvergence")
    assert rep.solver is not None and not rep.solver.converged
    assert rep.factor_a is not None  # best iterate still reported
    assert rep.product is not None

    with pytest.raises(ValueError, match="unknown method spec 'bogus'"):
        disentanglement_report(state, ["bogus"])


def test_pointer_method_uses_coherent_pointer():
    state = random_state((2, 2), seed=9)
    rep = disentanglement_report(state, [PointerMethod(p=0.6, b=0.1j)])[0]
    assert np.abs(rep.factor_b - coherent_pointer(0.6, 0.1j)).max() < 1e-15
    direct = correlated_local_state(state, coherent_pointer(0.6, 0.1j))
    assert np.abs(rep.factor_a - direct).max() < 1e-15
