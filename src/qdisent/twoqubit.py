"""Closed-form two-qubit reductions against qubit pointers.

Every function here writes out the weighted reduction entry by entry
for dims (2, 2) instead of going through the generic einsum machinery,
so the two routes can be checked against each other.  Flat indexing
follows the joint basis order: 0 = (0, 0), 1 = (0, 1), 2 = (1, 0),
3 = (1, 1), with index 0 on each side being the upper pointer level.

``transcription_bench`` draws random states and pointers and reports
the worst entrywise deviation between these tables and the composed
reference for each form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    BipartiteState,
    DimensionMismatch,
    ZeroDenominator,
    _guard,
    tensor_product,
)
from .correlated import correlated_local_state
from .reductions import averaged_projective_state
from .states import _check_pointer, coherent_pointer, random_state, thermal_pointer

BENCH_GATE = 1e-12


def _as_two_qubit(rho) -> np.ndarray:
    if isinstance(rho, BipartiteState):
        if rho.dims != (2, 2):
            raise DimensionMismatch(f"need dims (2, 2), got {rho.dims}")
        return rho.rho
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 joint state, got shape {r.shape}")
    return r


def _normalized(rho, p: float, b: complex, tol: float, terms) -> np.ndarray:
    """Check state and pointer, then divide the numerator ``terms(r)`` by its weight.

    The weight is tr(rho (I x sigma)) for the pointer [[p, b], [b*, 1-p]].
    At ``b = 0j`` its coherent terms add signed zeros, so a finite weight
    keeps its value.
    """
    r = _as_two_qubit(rho)
    _check_pointer(p, b, tol)
    num = terms(r)
    q, bc = 1.0 - p, np.conj(b)
    den = float((p * (r[0, 0] + r[2, 2]) + q * (r[1, 1] + r[3, 3])
                 + b * (r[1, 0] + r[3, 2]) + bc * (r[0, 1] + r[2, 3])).real)
    _guard(den > tol, ZeroDenominator, "normalization", den, "is not above tol", tol)
    return num / den


def _diagonal_local_terms(r: np.ndarray, p: float):
    q = 1.0 - p
    return np.array([
        [p * r[0, 0] + q * r[1, 1], p * r[0, 2] + q * r[1, 3]],
        [p * r[2, 0] + q * r[3, 1], p * r[2, 2] + q * r[3, 3]],
    ])


def _diagonal_product_terms(r: np.ndarray, p: float, literal: bool):
    q = 1.0 - p
    pq = p * q
    n = np.zeros((4, 4), dtype=complex)
    n[0, 0] = p * p * r[0, 0] + pq * r[1, 1]
    n[1, 1] = pq * r[0, 0] + q * q * r[1, 1]
    n[0, 2] = p * p * r[0, 2] + pq * r[1, 3]
    n[1, 3] = pq * r[0, 2] + q * q * r[1, 3]
    n[2, 0] = p * p * r[2, 0] + pq * r[3, 1]
    n[3, 1] = pq * r[2, 0] + q * q * (r[1, 1] if literal else r[3, 1])
    n[2, 2] = p * p * r[2, 2] + pq * r[3, 3]
    n[3, 3] = pq * r[2, 2] + q * q * r[3, 3]
    return n


def _coherent_local_terms(r: np.ndarray, p: float, b: complex):
    q = 1.0 - p
    bc = np.conj(b)
    return np.array([
        [p * r[0, 0] + bc * r[0, 1] + b * r[1, 0] + q * r[1, 1],
         p * r[0, 2] + bc * r[0, 3] + b * r[1, 2] + q * r[1, 3]],
        [p * r[2, 0] + bc * r[2, 1] + b * r[3, 0] + q * r[3, 1],
         p * r[2, 2] + bc * r[2, 3] + b * r[3, 2] + q * r[3, 3]],
    ])


def _coherent_product_terms(r: np.ndarray, p: float, b: complex, literal: bool):
    q = 1.0 - p
    pq = p * q
    bc = np.conj(b)
    ab2 = float(abs(b) ** 2)
    b2 = b * b
    bc2 = bc * bc
    n = np.empty((4, 4), dtype=complex)
    n[0, 0] = p * p * r[0, 0] + p * bc * r[0, 1] + p * b * r[1, 0] + pq * r[1, 1]
    n[0, 1] = p * b * r[0, 0] + ab2 * r[0, 1] + b2 * r[1, 0] + q * b * r[1, 1]
    n[1, 0] = p * bc * r[0, 0] + bc2 * r[0, 1] + ab2 * r[1, 0] + q * bc * r[1, 1]
    n[1, 1] = pq * r[0, 0] + q * bc * r[0, 1] + q * b * r[1, 0] + q * q * r[1, 1]
    n[0, 2] = p * p * r[0, 2] + p * bc * r[0, 3] + p * b * r[1, 2] + pq * r[1, 3]
    n[0, 3] = p * b * r[0, 2] + ab2 * r[0, 3] + b2 * r[1, 2] + q * b * r[1, 3]
    n[1, 2] = p * bc * r[0, 2] + bc2 * r[0, 3] + ab2 * r[1, 2] + q * bc * r[1, 3]
    n[1, 3] = pq * r[0, 2] + q * bc * r[0, 3] + q * b * r[1, 2] + q * q * r[1, 3]
    n[2, 0] = p * p * r[2, 0] + p * bc * r[2, 1] + p * b * r[3, 0] + pq * r[3, 1]
    n[2, 1] = p * b * r[2, 0] + ab2 * r[2, 1] + b2 * r[3, 0] + q * b * r[3, 1]
    n[3, 0] = p * bc * r[2, 0] + bc2 * r[2, 1] + ab2 * r[3, 0] + q * bc * r[3, 1]
    n[3, 1] = pq * r[2, 0] + q * bc * r[2, 1] + q * b * r[3, 0] + q * q * r[3, 1]
    n[2, 2] = p * p * r[2, 2] + p * bc * r[2, 3] + p * b * r[3, 2] + pq * r[3, 3]
    n[2, 3] = (p * b * r[2, 2] + ab2 * r[2, 3]
               + b2 * (r[3, 0] if literal else r[3, 2]) + q * b * r[3, 3])
    n[3, 2] = p * bc * r[2, 2] + bc2 * r[2, 3] + ab2 * r[3, 2] + q * bc * r[3, 3]
    n[3, 3] = pq * r[2, 2] + q * bc * r[2, 3] + q * b * r[3, 2] + q * q * r[3, 3]
    return n


def diagonal_pointer_local(rho, p: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Reduced A-factor against the pointer diag(p, 1-p), written out.

    Equals ``correlated_local_state`` with the same pointer up to
    floating-point noise; this version is the explicit 2x2 table.
    """
    return _normalized(rho, p, 0j, tol, lambda r: _diagonal_local_terms(r, p))


def diagonal_pointer_product(rho, p: float, tol: float = DEFAULT_TOL,
                             literal: bool = False) -> np.ndarray:
    """Joint product form for the diag(p, 1-p) pointer, entry by entry.

    With ``literal=True`` the last term of entry (3, 1) reads
    ``rho[1, 1]`` instead of ``rho[3, 1]``.  That variant no longer
    equals the local table tensored with the pointer; it is kept so the
    bench can report how far off it lands.
    """
    return _normalized(rho, p, 0j, tol, lambda r: _diagonal_product_terms(r, p, literal))


def coherent_pointer_local(rho, p: float, b: complex = 0j,
                           tol: float = DEFAULT_TOL) -> np.ndarray:
    """Reduced A-factor against the pointer [[p, b], [b*, 1-p]], written out."""
    return _normalized(rho, p, b, tol, lambda r: _coherent_local_terms(r, p, b))


def coherent_pointer_product(rho, p: float, b: complex = 0j,
                             tol: float = DEFAULT_TOL,
                             literal: bool = False) -> np.ndarray:
    """Joint product form for the [[p, b], [b*, 1-p]] pointer.

    With ``literal=True`` the ``b**2`` term of entry (2, 3) reads
    ``rho[3, 0]`` instead of ``rho[3, 2]`` and the table stops
    factoring; the bench reports that deviation separately.
    """
    return _normalized(rho, p, b, tol,
                       lambda r: _coherent_product_terms(r, p, b, literal))


class BenchRow(NamedTuple):
    label: str
    cases: int
    max_deviation: float
    gated: bool


def transcription_bench(cases: int = 1000, seed: int = 0) -> list[BenchRow]:
    """Worst entrywise deviation of each table from the composed route.

    Draws ``cases`` random full-rank states and pointers (p away from
    the endpoints, |b| capped at 0.9 of its ceiling).  Diagonal forms
    are checked against ``averaged_projective_state``, coherent forms
    against ``correlated_local_state``, and each product form against
    the matching local route tensored with the pointer.  The two
    literal variants are reported but not held to the gate.
    """
    rng = np.random.default_rng(seed)
    labels = ("diagonal local", "diagonal product", "coherent local",
              "coherent product", "diagonal product literal",
              "coherent product literal")
    worst = dict.fromkeys(labels, 0.0)

    def track(label: str, got: np.ndarray, ref: np.ndarray) -> None:
        dev = float(np.abs(got - ref).max())
        if dev > worst[label]:
            worst[label] = dev

    for _ in range(int(cases)):
        state = random_state((2, 2), rng)
        p = float(rng.uniform(0.05, 0.95))
        frac = float(rng.uniform(0.0, 0.9))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        b = frac * np.sqrt(p * (1.0 - p)) * np.exp(1j * phi)

        sig_d = thermal_pointer(p)
        ref_local = averaged_projective_state(state, np.array([p, 1.0 - p]))
        track("diagonal local", diagonal_pointer_local(state.rho, p), ref_local)
        ref_prod = tensor_product(ref_local, sig_d)
        track("diagonal product", diagonal_pointer_product(state.rho, p), ref_prod)
        track("diagonal product literal",
              diagonal_pointer_product(state.rho, p, literal=True), ref_prod)

        sig_c = coherent_pointer(p, b)
        ref_local = correlated_local_state(state, sig_c, side="A", m=1)
        track("coherent local", coherent_pointer_local(state.rho, p, b), ref_local)
        ref_prod = tensor_product(ref_local, sig_c)
        track("coherent product", coherent_pointer_product(state.rho, p, b),
              ref_prod)
        track("coherent product literal",
              coherent_pointer_product(state.rho, p, b, literal=True), ref_prod)

    gated = {"diagonal local", "diagonal product", "coherent local",
             "coherent product"}
    return [BenchRow(label, int(cases), worst[label], label in gated)
            for label in labels]
