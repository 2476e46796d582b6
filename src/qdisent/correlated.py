"""Correlated product-state approximations via a coupled fixed point.

One factor is refreshed from the other by weighting the joint state
with the partner factor (optionally raised to a power m), tracing out
the partner side and renormalizing to unit trace.  A single step with
a fixed pointer gives the one-shot reduction; alternating both
directions to a joint fixed point gives the correlated pair.  With the
maximally mixed pointer every step collapses to the plain partial
trace, so the ordinary reduction is the uncorrelated special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (
    DEFAULT_TOL,
    BipartiteState,
    DimensionMismatch,
    NotPSDResult,
    QDisentError,
    ZeroDenominator,
    _check_local,
    _frobenius,
    _guard,
    _hermitize,
    _ptrace,
    partial_trace,
    product_state,
    validate_density,
)
from .criteria import _state_entropy
from .states import coherent_pointer


class NonConvergence(QDisentError):
    """Solver ran out of sweeps; carries the best iterate seen."""

    def __init__(self, message: str, best: "CorrelatedPair"):
        super().__init__(message)
        self.best = best


def _power(m: np.ndarray, k: int) -> np.ndarray:
    return m if k == 1 else np.linalg.matrix_power(m, k)


def _check_power(m) -> int:
    k = int(m)
    if k < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return k


def _weighted_reduction(rho: np.ndarray, dims: tuple[int, int],
                        partner_pow: np.ndarray, side: str, tol: float):
    """One half-step: trace against the powered partner, renormalize.

    The caller checked every shape.  Returns
    (factor, hermiticity_defect, min_eigenvalue).  The raw quotient is
    hermitized as (M + M^dag)/2; eigenvalues in (-tol, 0) are clamped
    to zero at normalization, anything lower raises NotPSDResult
    instead of silently projecting.
    """
    other = "B" if side == "A" else "A"
    num = _ptrace(rho, dims[0], dims[1], other, weight=partner_pow)
    den = float(num.trace().real)
    _guard(den > tol, ZeroDenominator, "weighted trace", den, "is not above tol", tol)
    defect, m = _hermitize(num / den)
    w, v = np.linalg.eigh(m)
    min_eig = float(w[0])
    _guard(min_eig >= -tol, NotPSDResult, "weighted reduction has eigenvalue", min_eig,
           "below -tol", -tol)
    if min_eig < 0.0:
        w = np.clip(w, 0.0, None)
        m = (v * w) @ v.conj().T
        m = m / float(m.trace().real)
    return m, defect, min_eig


def correlated_local_state(state: BipartiteState, pointer, side: str = "A",
                           m: int = 1, tol: float = DEFAULT_TOL) -> np.ndarray:
    """One-shot reduced factor against a fixed pointer on the partner side.

    Parameters
    ----------
    state : BipartiteState
        Joint state to reduce.
    pointer : array_like
        Density matrix on the partner subsystem (B when ``side='A'``).
    side : str
        Which factor to produce.
    m : int
        Power applied to the pointer before weighting.  The heuristic
        bound ``min(dims)**2 - 1`` is not enforced.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    k = _check_power(m)
    partner_dim = state.n_b if side == "A" else state.n_a
    sigma = _check_local(validate_density(pointer, tol), partner_dim, "pointer")
    factor, _, _ = _weighted_reduction(state.rho, state.dims, _power(sigma, k),
                                       side, tol)
    return factor


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for fixed_point_solve.

    ``tol`` is the convergence threshold on successive-iterate
    Frobenius steps; ``damping`` blends each raw update with the
    previous iterate (0 means take the raw update); ``m_power`` is
    applied symmetrically to both directions.
    """

    tol: float = 1e-12
    max_iter: int = 10000
    damping: float = 0.0
    m_power: int = 1


@dataclass(frozen=True, eq=False)
class CorrelatedPair:
    """Pair of factors plus convergence evidence.

    ``final_step_a``/``final_step_b`` are the last sweep's steps;
    ``max_herm_defect`` and ``min_eig_seen`` are the largest
    hermiticity defect and the smallest eigenvalue over every sweep's
    two half-steps (below zero means a half-step was clamped).
    """

    rho_a: np.ndarray
    rho_b: np.ndarray
    residual_a: float
    residual_b: float
    iterations: int
    converged: bool
    final_step_a: float
    final_step_b: float
    max_herm_defect: float
    min_eig_seen: float

    def __post_init__(self):
        for name in ("rho_a", "rho_b"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_config(cfg: SolverConfig) -> None:
    if not 0.0 <= float(cfg.damping) < 1.0:
        raise ValueError(f"damping must sit in [0, 1), got {cfg.damping}")
    if int(cfg.max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {cfg.max_iter}")
    if not float(cfg.tol) > 0.0:
        raise ValueError(f"tol must be positive, got {cfg.tol}")
    if int(cfg.m_power) < 1:
        raise ValueError(f"m_power must be >= 1, got {cfg.m_power}")


def fixed_point_solve(state: BipartiteState,
                      config: SolverConfig | None = None) -> CorrelatedPair:
    """Alternate the two weighted reductions until both factors settle.

    The iteration starts from the two partial traces, the uncorrelated
    (von Neumann) pair.  Convergence is declared when both
    successive-iterate Frobenius steps drop below ``config.tol``; the
    residuals of the coupled equations are tracked separately.  Runs
    out of sweeps: raises NonConvergence with the best iterate
    (smallest max residual) attached, its steps, defect and eigenvalue
    summary taken over all sweeps as on the converged path.
    """
    cfg = config if config is not None else SolverConfig()
    _check_config(cfg)
    guard = DEFAULT_TOL  # denominator and positivity guard, not the convergence tol
    rho_a, rho_b = partial_trace(state, over="B"), partial_trace(state, over="A")
    k = int(cfg.m_power)
    d = float(cfg.damping)

    herm, low = 0.0, np.inf
    best = None
    best_score = np.inf
    # F_A at the current rho_b, carried across sweeps so the residual
    # evaluation doubles as the next raw update
    raw_a, defect_a, min_a = _weighted_reduction(
        state.rho, state.dims, _power(rho_b, k), "A", guard)

    for it in range(1, int(cfg.max_iter) + 1):
        new_a = raw_a if d == 0.0 else (1.0 - d) * raw_a + d * rho_a
        step_a = _frobenius(new_a - rho_a)
        rho_a = new_a

        raw_b, defect_b, min_b = _weighted_reduction(
            state.rho, state.dims, _power(rho_a, k), "B", guard)
        new_b = raw_b if d == 0.0 else (1.0 - d) * raw_b + d * rho_b
        step_b = _frobenius(new_b - rho_b)
        res_b = _frobenius(new_b - raw_b)
        rho_b = new_b

        raw_a, next_defect_a, next_min_a = _weighted_reduction(
            state.rho, state.dims, _power(rho_b, k), "A", guard)
        res_a = _frobenius(rho_a - raw_a)

        herm = max(herm, defect_a, defect_b)
        low = min(low, min_a, min_b)
        score = max(res_a, res_b)
        if score < best_score:
            best_score = score
            best = (rho_a, rho_b, res_a, res_b, it)
        if step_a < cfg.tol and step_b < cfg.tol:
            return CorrelatedPair(rho_a, rho_b, res_a, res_b, it, True,
                                  step_a, step_b, herm, low)
        defect_a, min_a = next_defect_a, next_min_a

    ba, bb, ra, rb, bit = best
    payload = CorrelatedPair(ba, bb, ra, rb, int(cfg.max_iter), False,
                             step_a, step_b, herm, low)
    raise NonConvergence(
        f"no convergence after {cfg.max_iter} sweeps; best residuals "
        f"({ra:.3e}, {rb:.3e}) at sweep {bit}",
        payload,
    )


def fixed_point_residuals(state: BipartiteState, rho_a, rho_b, m: int = 1,
                          tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Re-substitution distances of a candidate pair under the coupled maps."""
    k = _check_power(m)
    a = _check_local(np.asarray(rho_a, dtype=complex), state.n_a, "rho_a")
    b = _check_local(np.asarray(rho_b, dtype=complex), state.n_b, "rho_b")
    # a candidate near the double limit overflows the weighting; the
    # guards or an inf distance report it, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        fa, _, _ = _weighted_reduction(state.rho, state.dims, _power(b, k), "A", tol)
        fb, _, _ = _weighted_reduction(state.rho, state.dims, _power(a, k), "B", tol)
        return _frobenius(a - fa), _frobenius(b - fb)


@dataclass(frozen=True)
class NeumannMethod:
    """Product of the two partial traces."""

    tag: ClassVar[str] = "neumann"

    def factors(self, state: BipartiteState, tol: float):
        """Return (factor_a, factor_b, solver); the solver is always None here."""
        return partial_trace(state, over="B"), partial_trace(state, over="A"), None


@dataclass(frozen=True)
class PointerMethod:
    """One-shot reduction against a fixed qubit pointer [[p, b], [b*, 1-p]]."""

    p: float = 0.5
    b: complex = 0j
    m: int = 1
    tag: ClassVar[str] = "pointer"

    def factors(self, state: BipartiteState, tol: float):
        """Return (factor_a, pointer, None); B must be a qubit."""
        if state.n_b != 2:
            raise DimensionMismatch(
                f"pointer method needs n_b = 2, got n_b = {state.n_b}"
            )
        sigma = coherent_pointer(self.p, self.b, tol)
        factor_a = correlated_local_state(state, sigma, side="A", m=self.m, tol=tol)
        return factor_a, sigma, None


@dataclass(frozen=True)
class CorrelatedMethod:
    """Full coupled solve."""

    config: SolverConfig = field(default_factory=SolverConfig)
    tag: ClassVar[str] = "correlated"

    def factors(self, state: BipartiteState, tol: float):
        """Return (rho_a, rho_b, pair); NonConvergence propagates."""
        pair = fixed_point_solve(state, self.config)
        return pair.rho_a, pair.rho_b, pair


@dataclass(frozen=True, eq=False)
class DisentanglementReport:
    """Outcome of one product-approximation method on one state."""

    method: str
    factor_a: np.ndarray | None
    factor_b: np.ndarray | None
    product: BipartiteState | None
    frobenius_to_input: float | None
    entropy_input: float
    entropy_product: float | None
    entropy_change: float | None
    solver: CorrelatedPair | None = None
    error: str | None = None


def disentanglement_report(state: BipartiteState, methods,
                           tol: float = DEFAULT_TOL) -> list[DisentanglementReport]:
    """Run each method on ``state``; failures stay inside their own entry.

    A method is any object with a ``tag`` and a ``factors(state, tol)``
    returning (factor_a, factor_b, solver pair or None).
    """
    s_in = _state_entropy(state, tol)
    out: list[DisentanglementReport] = []
    for method in methods:
        try:
            tag, factors = method.tag, method.factors
        except AttributeError:
            raise ValueError(f"unknown method spec {method!r}") from None
        factor_a = factor_b = product = frob = s_prod = solver = err = None
        try:
            factor_a, factor_b, solver = factors(state, tol)
        except NonConvergence as exc:
            err = f"NonConvergence: {exc}"
            solver = exc.best
            factor_a, factor_b = solver.rho_a, solver.rho_b
        except QDisentError as exc:
            err = f"{type(exc).__name__}: {exc}"

        if factor_a is not None:
            try:
                product = product_state(factor_a, factor_b, tol)
                frob = _frobenius(product.rho - state.rho)
                s_prod = _state_entropy(product, tol)
            except QDisentError as exc:
                product = frob = None
                err = err or f"{type(exc).__name__}: {exc}"
        out.append(DisentanglementReport(
            tag, factor_a, factor_b, product, frob, s_in, s_prod,
            None if s_prod is None else s_prod - s_in, solver, err))
    return out
