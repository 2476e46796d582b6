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
    _frobenius,
    _guard,
    _ptrace,
    partial_trace,
)


def neumann_reduce(state: BipartiteState, keep: str = "A") -> np.ndarray:
    """Partial trace keeping one side."""
    if keep == "A":
        return partial_trace(state, over="B")
    if keep == "B":
        return partial_trace(state, over="A")
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


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
    """Probability-weighted mix of the unnormalized B blocks, renormalized."""
    v = validate_outcome_probs(probs, state.n_b, tol)
    num = _ptrace(state.rho * np.tile(v, state.n_a), state.n_a, state.n_b, over="B")
    den = float(np.trace(num).real)
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
