"""Separability criteria, entropies and correlation diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    BipartiteState,
    DimensionMismatch,
    NotPSD,
    _check_local,
    _check_state,
    _eigh,
    _guard,
    embed_local,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    tensor_product,
    validate_observable,
)

SUBADDITIVITY_SLACK = 1e-9
EXPECTATION_IMAG_TOL = 1e-10


def _spectrum_entropy(w: np.ndarray, tol: float) -> float:
    """Entropy -sum(lam ln lam) in nats of an ascending spectrum ``w``."""
    _guard(w[0] >= -tol, NotPSD, "smallest eigenvalue", w[0], "is below -tol", -tol)
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-(nz * np.log(nz)).sum())


def von_neumann_entropy(rho, tol: float = DEFAULT_TOL) -> float:
    """Entropy -sum(lam ln lam) in nats.

    Eigenvalues in (-tol, 0) count as exact zeros; anything below -tol
    raises NotPSD.
    """
    return _spectrum_entropy(hermitian_eigenvalues(rho, tol), tol)


def _state_entropy(state: BipartiteState, tol: float) -> float:
    """``von_neumann_entropy(state.rho, tol)``, from the spectrum validation kept, if any."""
    w = _check_state(state)._spectrum
    # a kept spectrum means a zero hermiticity defect, which only a
    # negative tol rejects
    if w is None or tol < 0.0:
        return von_neumann_entropy(state.rho, tol)
    return _spectrum_entropy(w, tol)


class PptResult(NamedTuple):
    min_eigenvalue: float
    passed: bool


def ppt_test(state: BipartiteState, tol: float = DEFAULT_TOL) -> PptResult:
    """Smallest eigenvalue of the partial transpose.

    A value below -tol certifies entanglement; a nonnegative spectrum
    is necessary for separability but not sufficient in general.
    """
    pt = partial_transpose(state, on="A")
    w = _eigh(pt, vectors=False)
    return PptResult(float(w[0]), bool(w[0] >= -tol))


class ReductionResult(NamedTuple):
    min_eigenvalue_a: float
    min_eigenvalue_b: float
    passed: bool


def reduction_criterion_test(state: BipartiteState, mode: str = "standard",
                             tol: float = DEFAULT_TOL) -> ReductionResult:
    """Reduction-map separability test, in two variants.

    ``standard`` checks that I (x) rho_B - rho and rho_A (x) I - rho are
    both positive semidefinite.  ``literal`` scales each identity factor
    by 1/n; that variant rejects even pure product states and is kept
    for comparison only.
    """
    if mode not in ("standard", "literal"):
        raise ValueError(f"mode must be 'standard' or 'literal', got {mode!r}")
    rho_a = partial_trace(state, over="B")
    rho_b = partial_trace(state, over="A")
    n_a, n_b = state.dims
    eye_a = np.eye(n_a, dtype=complex)
    eye_b = np.eye(n_b, dtype=complex)
    if mode == "literal":
        eye_a = eye_a / n_a
        eye_b = eye_b / n_b
    op_a = tensor_product(eye_a, rho_b) - state.rho
    op_b = tensor_product(rho_a, eye_b) - state.rho
    min_a = float(_eigh(op_a, vectors=False)[0])
    min_b = float(_eigh(op_b, vectors=False)[0])
    return ReductionResult(min_a, min_b, bool(min_a >= -tol and min_b >= -tol))


class SubadditivityResult(NamedTuple):
    entropy_ab: float
    entropy_a: float
    entropy_b: float
    subadditive: bool
    araki_lieb: bool


def subadditivity_check(state: BipartiteState, slack: float = SUBADDITIVITY_SLACK,
                        tol: float = DEFAULT_TOL) -> SubadditivityResult:
    """Joint and marginal entropies with both triangle-style bounds.

    ``subadditive`` checks S_AB <= S_A + S_B, ``araki_lieb`` checks
    |S_A - S_B| <= S_AB, each up to ``slack``.
    """
    s_ab = _state_entropy(state, tol)
    s_a = von_neumann_entropy(partial_trace(state, over="B"), tol)
    s_b = von_neumann_entropy(partial_trace(state, over="A"), tol)
    return SubadditivityResult(
        s_ab,
        s_a,
        s_b,
        bool(s_ab <= s_a + s_b + slack),
        bool(abs(s_a - s_b) <= s_ab + slack),
    )


def _real_expectation(rho: np.ndarray, op: np.ndarray) -> float:
    val = complex(np.trace(rho @ op))
    if not abs(val.imag) <= EXPECTATION_IMAG_TOL:
        raise ValueError(
            f"expectation has imaginary part {val.imag:.3e} beyond "
            f"{EXPECTATION_IMAG_TOL:.1e}"
        )
    return float(val.real)


def witness_expectation(state: BipartiteState, observable,
                        tol: float = DEFAULT_TOL) -> float:
    """Real expectation tr(rho W) of a hermitian W on the joint space."""
    w = validate_observable(observable, tol)
    if w.shape != _check_state(state).rho.shape:
        raise DimensionMismatch(
            f"witness shape {w.shape} does not match state shape {state.rho.shape}"
        )
    return _real_expectation(state.rho, w)


class CorrelationGap(NamedTuple):
    joint: float
    product: float
    gap: float


def correlation_gap(state: BipartiteState, obs_a, obs_b,
                    tol: float = DEFAULT_TOL) -> CorrelationGap:
    """Joint expectation of A (x) B minus the product of local expectations.

    Zero gap for every observable pair is what a product state looks
    like; a nonzero gap quantifies correlation in these observables.
    """
    a = _check_local(validate_observable(obs_a, tol), _check_state(state).n_a, "obs_a")
    b = _check_local(validate_observable(obs_b, tol), state.n_b, "obs_b")
    joint = _real_expectation(state.rho, tensor_product(a, b))
    mean_a = _real_expectation(state.rho, embed_local(a, "A", state.dims))
    mean_b = _real_expectation(state.rho, embed_local(b, "B", state.dims))
    return CorrelationGap(joint, mean_a * mean_b, joint - mean_a * mean_b)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Summary of every criterion run on one state."""

    ppt_min_eig: float
    ppt_pass: bool
    red_min_eig_a: float
    red_min_eig_b: float
    red_pass: bool
    red_mode: str
    entropy_ab: float
    entropy_a: float
    entropy_b: float
    subadditivity_pass: bool
    araki_lieb_pass: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.ppt_pass
            and self.red_pass
            and self.subadditivity_pass
            and self.araki_lieb_pass
        )


def separability_verdict(state: BipartiteState, mode: str = "standard",
                         tol: float = DEFAULT_TOL) -> SeparabilityVerdict:
    # the three results' fields, in order, with the mode, are the verdict's
    return SeparabilityVerdict(*ppt_test(state, tol),
                               *reduction_criterion_test(state, mode=mode, tol=tol),
                               mode, *subadditivity_check(state, tol=tol))
