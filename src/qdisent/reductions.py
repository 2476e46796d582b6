"""Measurement-driven reductions of a bipartite state.

Conventions: the observed subsystem is A, measurements act on B, and
outcomes are indices into the stored B basis.  To measure in another
basis, conjugate the state by I (x) U first.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    BipartiteState,
    DimensionMismatch,
    InvalidSpec,
    ZeroDenominator,
    _check_side,
    _check_state,
    _frobenius,
    _guard,
    _ptrace_plan,
    partial_trace,
)


def neumann_reduce(state: BipartiteState, keep: str = "A") -> np.ndarray:
    """Partial trace keeping one side."""
    return partial_trace(state, over="B" if _check_side(keep, "keep") == "A" else "A")


def validate_outcome_probs(probs, n_b: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Probability vector over the n_b outcomes: nonnegative, sums to 1."""
    v = np.asarray(probs, dtype=float)
    if v.shape != (int(n_b),):
        raise DimensionMismatch(f"expected {n_b} probabilities, got shape {v.shape}")
    if not float(v.min()) >= -tol:
        raise InvalidSpec(f"negative probability {float(v.min()):.3e}")
    if not abs(float(v.sum()) - 1.0) <= tol:
        raise InvalidSpec(f"probabilities sum to {float(v.sum()):.17g}, not 1")
    return np.clip(v, 0.0, None)


def averaged_projective_state(state: BipartiteState, probs,
                              tol: float = DEFAULT_TOL) -> np.ndarray:
    """The B blocks mixed by ``probs``: the trace over B against diag(probs), renormalized."""
    v = validate_outcome_probs(probs, _check_state(state).n_b, tol)
    num, den = _ptrace_plan(state.rho, state.n_a, state.n_b, "B")(np.diag(v))
    _guard(den > tol, ZeroDenominator, "averaged trace", den, "is not above tol", tol)
    return num / den


def neumann_equivalence_gap(state: BipartiteState, probs,
                            tol: float = DEFAULT_TOL) -> float:
    """Frobenius distance from the averaged state to the plain partial trace.

    Zero exactly when the outcome weights are uniform.
    """
    avg = averaged_projective_state(state, probs, tol)
    red = partial_trace(state, over="B")
    return _frobenius(avg - red)
