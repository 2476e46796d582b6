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
    _check_count,
    _check_local,
    _check_side,
    _check_state,
    _eigh,
    _frobenius,
    _guard,
    _hermitize,
    _ptrace_plan,
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


def _half_step(state, side: str, k: int, tol: float):
    """Set up the refresh of ``side``'s factor once; return ``partner -> refreshed``.

    ``state`` needs only ``rho``, ``n_a`` and ``n_b``, and the caller
    checked every shape.  Each call weights ``rho`` by ``partner**k``,
    traces the partner side out and renormalizes, returning
    (unit-trace factor, hermiticity_defect, min_eigenvalue).  The raw
    quotient is hermitized as (M + M^dag)/2; eigenvalues in (-tol, 0)
    are clamped to zero at normalization, anything lower raises
    NotPSDResult instead of silently projecting.
    """
    contract = _ptrace_plan(state.rho, state.n_a, state.n_b, "B" if side == "A" else "A")

    def step(partner: np.ndarray):
        num, den = contract(partner if k == 1 else np.linalg.matrix_power(partner, k))
        _guard(den > tol, ZeroDenominator, "weighted trace", den, "is not above tol", tol)
        defect, m = _hermitize(num / den)
        w, v = _eigh(m)
        min_eig = float(w[0])
        _guard(min_eig >= -tol, NotPSDResult, "weighted reduction has eigenvalue", min_eig,
               "below -tol", -tol)
        if min_eig < 0.0:
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            m = m / float(m.trace().real)
        return m, defect, min_eig

    return step


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
    n_a, n_b = _check_state(state).dims
    partner_dim = n_b if _check_side(side, "side") == "A" else n_a
    k = _check_count(m, "m")
    sigma = _check_local(validate_density(pointer, tol), partner_dim, "pointer")
    return _half_step(state, side, k, tol)(sigma)[0]


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


def _check_config(cfg: SolverConfig) -> SolverConfig:
    """``cfg`` with each setting the float or int the solve runs with, else ValueError."""
    damping = float(cfg.damping)
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must sit in [0, 1), got {cfg.damping}")
    max_iter = _check_count(cfg.max_iter, "max_iter")
    tol = float(cfg.tol)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {cfg.tol}")
    return SolverConfig(tol, max_iter, damping, _check_count(cfg.m_power, "m_power"))


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
    cfg = _check_config(config if config is not None else SolverConfig())
    rho_a, rho_b = partial_trace(state, over="B"), partial_trace(state, over="A")
    d = cfg.damping
    # each factor's half-step, set up once for every sweep; DEFAULT_TOL
    # guards its denominator and positivity, not the convergence tol
    to_a, to_b = (_half_step(state, side, cfg.m_power, DEFAULT_TOL) for side in "AB")

    herm, low = 0.0, np.inf
    best = None
    best_score = np.inf
    # F_A at the current rho_b, carried across sweeps so the residual
    # evaluation doubles as the next raw update
    raw_a, defect_a, min_a = to_a(rho_b)
    res_a = _frobenius(rho_a - raw_a)

    for it in range(1, cfg.max_iter + 1):
        new_a = raw_a if d == 0.0 else (1.0 - d) * raw_a + d * rho_a
        # undamped, the step is the current pair's residual_a bit for bit:
        # ||x - y|| and ||y - x|| square the same values
        step_a = res_a if d == 0.0 else _frobenius(new_a - rho_a)
        rho_a = new_a

        raw_b, defect_b, min_b = to_b(rho_a)
        new_b = raw_b if d == 0.0 else (1.0 - d) * raw_b + d * rho_b
        step_b = _frobenius(new_b - rho_b)
        # undamped, new_b is the finite raw_b, so this is exactly 0.0
        res_b = 0.0 if d == 0.0 else _frobenius(new_b - raw_b)
        rho_b = new_b

        raw_a, next_defect_a, next_min_a = to_a(rho_b)
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
    payload = CorrelatedPair(ba, bb, ra, rb, cfg.max_iter, False,
                             step_a, step_b, herm, low)
    raise NonConvergence(
        f"no convergence after {cfg.max_iter} sweeps; best residuals "
        f"({ra:.3e}, {rb:.3e}) at sweep {bit}",
        payload,
    )


def fixed_point_residuals(state: BipartiteState, rho_a, rho_b, m: int = 1,
                          tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Re-substitution distances of a candidate pair under the coupled maps."""
    k = _check_count(m, "m")
    a = _check_local(np.asarray(rho_a, dtype=complex), _check_state(state).n_a, "rho_a")
    b = _check_local(np.asarray(rho_b, dtype=complex), state.n_b, "rho_b")
    # a candidate near the double limit overflows the weighting; the
    # guards or an inf distance report it, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        fa = _half_step(state, "A", k, tol)(b)[0]
        fb = _half_step(state, "B", k, tol)(a)[0]
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
        if _check_state(state).n_b != 2:
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
