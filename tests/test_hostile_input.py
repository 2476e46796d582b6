"""Hostile values at the library's public entry points.

A plain table, not a hypothesis draw: every entry point below gets
every hostile value in the argument it names, and each call must
return or raise a ``QDisentError``, ``ValueError`` or ``TypeError``.
The suite's ``filterwarnings = error`` fails any numpy warning that
escapes.  A count argument must also reject every value that is not a
count, so a zero or negative count cannot return a result computed
over no work.  It gets no huge finite value: its check would pass and
the work would start.  A state argument must be a ``BipartiteState``:
every hostile value, and the raw array of a valid state, raises
``TypeError`` there.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

import qdisent as q
from qdisent.states import random_state
from test_correlated import _raises_exactly

STATE = random_state((2, 2), seed=1)
RHO = STATE.rho
# its solve converges in the first sweep, so any max_iter that is a count returns
MIXED = q.maximally_mixed()
HALF = np.eye(2) / 2
PAULI_Z = np.diag([1.0, -1.0])
BUDGET_S = 2.0  # per call: each is a check or a 2x2 / 4x4 computation


def _values(n: int) -> list[tuple[str, object]]:
    """The hostile values, matrices sized n x n where a slot takes an n x n operator."""
    return [
        ("nan", math.nan),
        ("inf", math.inf),
        ("-inf", -math.inf),
        ("1e308", 1e308),
        ("2.5", 2.5),
        ("np1e308", np.float64(1e308)),
        ("zero", 0),
        ("minus_one", -1),
        ("none", None),
        ("str", "x"),
        ("bool", True),
        ("object", object()),
        ("empty", np.array([])),
        ("1d", np.ones(n)),
        ("3d", np.ones((n, n, n))),
        ("nan_matrix", np.full((n, n), np.nan)),
        ("inf_matrix", np.full((n, n), np.inf)),
        ("1e308_matrix", np.full((n, n), 1e308)),
        ("int_matrix", np.eye(n, dtype=int)),
        ("nested_list", (np.eye(n) / n).tolist()),
        ("3x3", np.eye(3) / 3),
        ("non_hermitian", np.triu(np.ones((n, n))) / n),
    ]


COUNT_SKIP = {"1e308", "np1e308"}  # a count's check passes them, and the work is huge
VALID_COUNTS = {"bool"}  # True is the count 1

# (entry point, n, call with the hostile value in one argument, is it a count)
ENTRIES = [
    # core
    ("BipartiteState.rho", 4, lambda x: q.BipartiteState(x, (2, 2)), False),
    ("BipartiteState.dims", 4, lambda x: q.BipartiteState(RHO, x), False),
    ("density_defects", 2, q.density_defects, False),
    ("embed_local.op", 2, lambda x: q.embed_local(x, "A", (2, 2)), False),
    ("embed_local.side", 2, lambda x: q.embed_local(HALF, x, (2, 2)), False),
    ("embed_local.dims", 2, lambda x: q.embed_local(HALF, "B", x), False),
    ("hermitian_eigenvalues", 2, q.hermitian_eigenvalues, False),
    ("partial_trace", 2, lambda x: q.partial_trace(STATE, x), False),
    ("partial_transpose", 2, lambda x: q.partial_transpose(STATE, x), False),
    ("product_state", 2, lambda x: q.product_state(x, HALF), False),
    ("tensor_product.a", 2, lambda x: q.tensor_product(x, HALF), False),
    ("tensor_product.b", 2, lambda x: q.tensor_product(HALF, x), False),
    ("tensor_product.both", 2, lambda x: q.tensor_product(x, x), False),  # 1e308^2 overflows
    ("validate_density", 2, q.validate_density, False),
    ("validate_observable", 2, q.validate_observable, False),
    # states
    ("bell_state", 2, q.bell_state, False),
    ("coherent_pointer.p", 2, q.coherent_pointer, False),
    ("coherent_pointer.b", 2, lambda x: q.coherent_pointer(0.5, x), False),
    ("generate.kind", 2, lambda x: q.generate(q.GenSpec(x)), False),
    ("generate.dims", 2, lambda x: q.generate(q.GenSpec("random", x)), False),
    ("maximally_mixed", 2, q.maximally_mixed, False),
    ("pure_product", 2, q.pure_product, False),
    ("random_density", 2, q.random_density, True),
    ("random_ket", 2, q.random_ket, True),
    ("random_state", 2, q.random_state, False),
    ("random_unitary", 2, q.random_unitary, True),
    ("separable_mixture.dims", 2, q.separable_mixture, False),
    ("separable_mixture.k_terms", 2, lambda x: q.separable_mixture((2, 2), 0, x), True),
    # criteria
    ("correlation_gap", 2, lambda x: q.correlation_gap(STATE, x, PAULI_Z), False),
    ("ppt_test", 2, lambda x: q.ppt_test(STATE, x), False),
    ("reduction_criterion_test", 2, lambda x: q.reduction_criterion_test(STATE, x), False),
    ("separability_verdict", 2, lambda x: q.separability_verdict(STATE, x), False),
    ("subadditivity_check", 2, lambda x: q.subadditivity_check(STATE, x), False),
    ("von_neumann_entropy", 2, q.von_neumann_entropy, False),
    ("witness_expectation", 4, lambda x: q.witness_expectation(STATE, x), False),
    # reductions
    ("averaged_projective_state", 2, lambda x: q.averaged_projective_state(STATE, x), False),
    ("neumann_equivalence_gap", 2, lambda x: q.neumann_equivalence_gap(STATE, x), False),
    ("neumann_reduce", 2, lambda x: q.neumann_reduce(STATE, x), False),
    ("validate_outcome_probs", 2, lambda x: q.validate_outcome_probs(x, 2), False),
    # correlated
    ("correlated_local_state.pointer", 2,
     lambda x: q.correlated_local_state(STATE, x), False),
    ("correlated_local_state.m", 2,
     lambda x: q.correlated_local_state(STATE, HALF, "A", x), True),
    ("disentanglement_report", 2, lambda x: q.disentanglement_report(STATE, x), False),
    ("fixed_point_residuals", 2, lambda x: q.fixed_point_residuals(STATE, x, HALF), False),
    ("fixed_point_residuals.m", 2,
     lambda x: q.fixed_point_residuals(STATE, HALF, HALF, x), True),
    ("fixed_point_solve.damping", 2,
     lambda x: q.fixed_point_solve(STATE, q.SolverConfig(damping=x)), False),
    ("fixed_point_solve.tol", 2,
     lambda x: q.fixed_point_solve(STATE, q.SolverConfig(tol=x)), False),
    ("fixed_point_solve.max_iter", 2,
     lambda x: q.fixed_point_solve(MIXED, q.SolverConfig(max_iter=x)), True),
    ("fixed_point_solve.m_power", 2,
     lambda x: q.fixed_point_solve(STATE, q.SolverConfig(m_power=x)), True),
    # twoqubit
    ("coherent_pointer_local.rho", 4, lambda x: q.coherent_pointer_local(x, 0.5, 0.1), False),
    ("coherent_pointer_local.p", 2, lambda x: q.coherent_pointer_local(RHO, x), False),
    ("coherent_pointer_local.b", 2, lambda x: q.coherent_pointer_local(RHO, 0.5, x), False),
    ("coherent_pointer_product.rho", 4,
     lambda x: q.coherent_pointer_product(x, 0.5, 0.1), False),
    ("coherent_pointer_product.p", 2, lambda x: q.coherent_pointer_product(RHO, x), False),
    ("coherent_pointer_product.b", 2,
     lambda x: q.coherent_pointer_product(RHO, 0.5, x), False),
    ("diagonal_pointer_local.rho", 4, lambda x: q.diagonal_pointer_local(x, 0.5), False),
    ("diagonal_pointer_local.p", 2, lambda x: q.diagonal_pointer_local(RHO, x), False),
    ("diagonal_pointer_product.rho", 4, lambda x: q.diagonal_pointer_product(x, 0.5), False),
    ("diagonal_pointer_product.p", 2, lambda x: q.diagonal_pointer_product(RHO, x), False),
    ("transcription_bench", 2, q.transcription_bench, True),
    # stateio (the path-taking entry points raise OSError for a bad path, by design)
    ("doc_to_matrix", 2, q.doc_to_matrix, False),
    ("dumps_canonical", 2, lambda x: q.dumps_canonical({"value": x}), False),
    ("format_real", 2, q.format_real, False),
    ("state_to_doc", 2, lambda x: q.state_to_doc(STATE, x), False),
]


@pytest.mark.parametrize("call,n,count", [pytest.param(c, n, k, id=name)
                                          for name, n, c, k in ENTRIES])
def test_hostile_values_fail_with_a_library_error_or_return(call, n, count):
    leaks = []
    for label, value in _values(n):
        if count and label in COUNT_SKIP:
            continue
        start = time.perf_counter()
        try:
            call(value)
        except (q.QDisentError, ValueError, TypeError):
            pass
        except Exception as exc:  # anything else is a leak, reported below
            leaks.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            if count and label not in VALID_COUNTS:
                leaks.append(f"{label}: a count that is not one was accepted")
        took = time.perf_counter() - start
        if took > BUDGET_S:
            leaks.append(f"{label}: took {took:.2f} s")
    assert leaks == []


# (entry point, call with the hostile value as its state)
STATE_ENTRIES = [
    ("partial_trace", q.partial_trace),
    ("partial_transpose", q.partial_transpose),
    ("correlation_gap", lambda x: q.correlation_gap(x, PAULI_Z, PAULI_Z)),
    ("ppt_test", q.ppt_test),
    ("reduction_criterion_test", q.reduction_criterion_test),
    ("separability_verdict", q.separability_verdict),
    ("subadditivity_check", q.subadditivity_check),
    ("witness_expectation", lambda x: q.witness_expectation(x, np.eye(4))),
    ("averaged_projective_state", lambda x: q.averaged_projective_state(x, [0.5, 0.5])),
    ("neumann_equivalence_gap", lambda x: q.neumann_equivalence_gap(x, [0.5, 0.5])),
    ("neumann_reduce", q.neumann_reduce),
    ("correlated_local_state", lambda x: q.correlated_local_state(x, HALF)),
    ("disentanglement_report",
     lambda x: q.disentanglement_report(x, [q.NeumannMethod()])),
    ("fixed_point_residuals", lambda x: q.fixed_point_residuals(x, HALF, HALF)),
    ("fixed_point_solve", q.fixed_point_solve),
    ("NeumannMethod.factors", lambda x: q.NeumannMethod().factors(x, q.DEFAULT_TOL)),
    ("PointerMethod.factors", lambda x: q.PointerMethod().factors(x, q.DEFAULT_TOL)),
    ("CorrelatedMethod.factors",
     lambda x: q.CorrelatedMethod().factors(x, q.DEFAULT_TOL)),
    ("state_to_doc", q.state_to_doc),
    ("save_state", lambda x: q.save_state(os.devnull, x)),  # raises before it writes
]


@pytest.mark.parametrize("call", [pytest.param(c, id=name) for name, c in STATE_ENTRIES])
def test_a_state_argument_must_be_a_bipartite_state(call):
    leaks = []
    for label, value in _values(4) + [("raw_state", RHO)]:
        try:
            call(value)
        except TypeError as exc:
            if not str(exc).startswith("state must be a BipartiteState, got "):
                leaks.append(f"{label}: TypeError: {exc}")
        except Exception as exc:  # anything else is a leak, reported below
            leaks.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            leaks.append(f"{label}: accepted as a state")
    assert leaks == []


def test_the_state_check_names_the_type_it_got():
    with _raises_exactly(TypeError, "state must be a BipartiteState, got ndarray"):
        q.partial_trace(RHO)
