"""Deterministic generators for states and qubit pointers.

Every generator is seeded and reproducible: randomness comes from a
single ``numpy.random.default_rng`` (PCG64) stream per call, and
complex Gaussian draws always take the real block first, then the
imaginary block.  Passing an existing Generator instead of an integer
seed continues that stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    BipartiteState,
    InvalidPointer,
    InvalidSpec,
    _check_count,
    _check_dims,
    _frobenius,
    tensor_product,
)

@dataclass(frozen=True)
class GenSpec:
    """Recipe for one generated matrix."""

    kind: str
    dims: tuple[int, int] = (2, 2)
    seed: int = 0
    k_terms: int = 4


# a recipe's dims are a spec, so a bad pair is InvalidSpec here
_check_dims = functools.partial(_check_dims, exc=InvalidSpec, noun="subsystem dimensions")


def random_ket(dim: int, seed=0) -> np.ndarray:
    """Normalized complex Gaussian vector."""
    dim = _check_count(dim, "dim")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / _frobenius(v)


def random_density(dim: int, seed=0) -> np.ndarray:
    """Full-rank random density matrix ``G G^dag / tr(G G^dag)``."""
    dim = _check_count(dim, "dim")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    dim = _check_count(dim, "dim")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def bell_state(tol: float = DEFAULT_TOL) -> BipartiteState:
    """Maximally entangled two-qubit state, 1/2 at the four outer corners."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    return BipartiteState(m, (2, 2), tol=tol)


def pure_product(dims=(2, 2), seed=0, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Random pure state on A times random pure state on B."""
    n_a, n_b = _check_dims(dims)
    rng = np.random.default_rng(seed)
    ka = random_ket(n_a, rng)
    kb = random_ket(n_b, rng)
    m = tensor_product(np.outer(ka, ka.conj()), np.outer(kb, kb.conj()))
    return BipartiteState(m, (n_a, n_b), tol=tol)


def separable_mixture(dims=(2, 2), seed=0, k_terms: int = 4,
                      tol: float = DEFAULT_TOL) -> BipartiteState:
    """Convex mix of ``k_terms`` random pure product states.

    Weights come from a flat Dirichlet draw on the simplex.
    """
    n_a, n_b = _check_dims(dims)
    k = _check_count(k_terms, "k_terms", InvalidSpec)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((n_a * n_b, n_a * n_b), dtype=complex)
    for w in weights:
        ka = random_ket(n_a, rng)
        kb = random_ket(n_b, rng)
        m += w * tensor_product(np.outer(ka, ka.conj()), np.outer(kb, kb.conj()))
    return BipartiteState(m, (n_a, n_b), tol=tol)


def maximally_mixed(dims=(2, 2), tol: float = DEFAULT_TOL) -> BipartiteState:
    n_a, n_b = _check_dims(dims)
    n = n_a * n_b
    return BipartiteState(np.eye(n, dtype=complex) / n, (n_a, n_b), tol=tol)


def random_state(dims=(2, 2), seed=0, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Generic full-rank random bipartite state."""
    n_a, n_b = _check_dims(dims)
    return BipartiteState(random_density(n_a * n_b, seed), (n_a, n_b), tol=tol)


def _check_pointer(p: float, b: complex, tol: float) -> tuple[float, complex]:
    """``float(p), complex(b)``; InvalidPointer unless p in [0, 1], |b|^2 <= p(1 - p) + tol."""
    p, b = float(p), complex(b)
    if not 0.0 <= p <= 1.0:
        raise InvalidPointer(f"p must sit in [0, 1], got {p}")
    try:
        b2 = abs(b) ** 2
    except OverflowError:  # |b| beyond about 1.3e154
        b2 = math.inf
    if not b2 <= p * (1.0 - p) + tol:
        raise InvalidPointer(f"|b|^2 = {b2:.3e} exceeds p(1-p) = {p * (1.0 - p):.3e}")
    return p, b


def coherent_pointer(p: float, b: complex = 0j, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Qubit pointer [[p, b], [b*, 1 - p]] with off-diagonal coherence b.

    Positivity needs |b|^2 <= p(1 - p); anything beyond that (plus
    ``tol``) raises InvalidPointer.
    """
    p, b = _check_pointer(p, b, tol)
    return np.array([[p, b], [b.conjugate(), 1.0 - p]], dtype=complex)


def _bell(spec: GenSpec, tol: float) -> BipartiteState:
    n_a, n_b = _check_dims(spec.dims)
    if (n_a, n_b) != (2, 2):
        raise InvalidSpec(f"bell requires dims (2, 2), got ({n_a}, {n_b})")
    return bell_state(tol)


_GENERATORS = {
    "bell": _bell,
    "pure_product": lambda spec, tol: pure_product(spec.dims, spec.seed, tol),
    "separable_mixture": lambda spec, tol: separable_mixture(
        spec.dims, spec.seed, spec.k_terms, tol),
    "maximally_mixed": lambda spec, tol: maximally_mixed(spec.dims, tol),
    "random": lambda spec, tol: random_state(spec.dims, spec.seed, tol),
}
GENERATOR_KINDS = tuple(_GENERATORS)


def generate(spec: GenSpec, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Dispatch on ``spec.kind``, one of GENERATOR_KINDS."""
    if spec.kind not in GENERATOR_KINDS:
        raise InvalidSpec(f"unknown kind {spec.kind!r}, expected one of {GENERATOR_KINDS}")
    return _GENERATORS[spec.kind](spec, tol)
