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
    ZeroProbability,
    _as_square,
    _frobenius,
    partial_trace,
    tensor_product,
    validate_projector,
)


def neumann_reduce(state: BipartiteState, keep: str = "A") -> np.ndarray:
    """Partial trace keeping one side."""
    if keep == "A":
        return partial_trace(state, over="B")
    if keep == "B":
        return partial_trace(state, over="A")
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def projective_collapse(rho, projector, tol: float = DEFAULT_TOL):
    """Collapse through a projector: returns (P rho P / p, p).

    ``p = tr(P rho P)`` is the outcome probability; ``rho`` is taken as
    already validated.
    """
    m = _as_square(rho, "rho")
    p = validate_projector(projector, tol)
    if p.shape != m.shape:
        raise DimensionMismatch(
            f"projector shape {p.shape} does not match state shape {m.shape}"
        )
    num = p @ m @ p
    prob = float(np.trace(num).real)
    if prob <= tol:
        raise ZeroProbability(
            f"outcome probability {prob:.3e} is not above tol {tol:.3e}"
        )
    return num / prob, prob


def conditional_state(state: BipartiteState, outcome: int,
                      tol: float = DEFAULT_TOL):
    """A-side state given a sharp B outcome, plus its probability.

    The returned matrix is the diagonal B block of the joint state,
    renormalized.
    """
    n_a, n_b = state.dims
    beta = int(outcome)
    if not 0 <= beta < n_b:
        raise DimensionMismatch(f"outcome {beta} out of range for n_b = {n_b}")
    r = state.rho.reshape(n_a, n_b, n_a, n_b)
    block = np.array(r[:, beta, :, beta])
    prob = float(np.trace(block).real)
    if prob <= tol:
        raise ZeroProbability(
            f"outcome {beta} has probability {prob:.3e}, not above tol {tol:.3e}"
        )
    return block / prob, prob


def zeno_disentangle(state: BipartiteState, outcome: int,
                     tol: float = DEFAULT_TOL) -> BipartiteState:
    """Product state after a sharp outcome: conditional A-state (x) |beta><beta|."""
    cond, _ = conditional_state(state, outcome, tol)
    n_b = state.n_b
    proj = np.zeros((n_b, n_b), dtype=complex)
    proj[int(outcome), int(outcome)] = 1.0
    return BipartiteState(tensor_product(cond, proj), state.dims)


def validate_outcome_probs(probs, n_b: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Probability vector over the n_b outcomes: nonnegative, sums to 1."""
    v = np.asarray(probs, dtype=float)
    if v.shape != (int(n_b),):
        raise DimensionMismatch(f"expected {n_b} probabilities, got shape {v.shape}")
    if float(v.min()) < -tol:
        raise InvalidSpec(f"negative probability {float(v.min()):.3e}")
    if abs(float(v.sum()) - 1.0) > tol:
        raise InvalidSpec(f"probabilities sum to {float(v.sum()):.17g}, not 1")
    return np.clip(v, 0.0, None)


def averaged_projective_state(state: BipartiteState, probs,
                              tol: float = DEFAULT_TOL) -> np.ndarray:
    """Probability-weighted mix of the unnormalized B blocks, renormalized."""
    v = validate_outcome_probs(probs, state.n_b, tol)
    r = state.rho.reshape(state.n_a, state.n_b, state.n_a, state.n_b)
    num = np.einsum("b,abcb->ac", v, r)
    den = float(np.trace(num).real)
    if den <= tol:
        raise ZeroDenominator(
            f"averaged trace {den:.3e} is not above tol {tol:.3e}"
        )
    return num / den


def neumann_equivalence_gap(state: BipartiteState, probs,
                            tol: float = DEFAULT_TOL) -> float:
    """Frobenius distance from the averaged state to the plain partial trace.

    Zero exactly when the outcome weights are uniform.
    """
    avg = averaged_projective_state(state, probs, tol)
    red = partial_trace(state, over="B")
    return _frobenius(avg - red)
