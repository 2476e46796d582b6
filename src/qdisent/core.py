"""Core types and operations for bipartite density matrices.

The joint Hilbert space uses a flat product basis: the row index of a
bipartite matrix is ``a * n_b + b`` for subsystem basis indices
``(a, b)``.  Everything here is dense complex numpy; the intended
regime is small dimensions (joint dimension up to a few dozen).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs behind eigh and eigvalsh

DEFAULT_TOL = 1e-9


class QDisentError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(QDisentError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class TraceNotOne(QDisentError):
    """Trace differs from 1 beyond tolerance."""


class NotPSD(QDisentError):
    """An eigenvalue sits below -tol."""


class DimensionMismatch(QDisentError):
    """Shapes or subsystem dimensions do not line up."""


class ZeroDenominator(QDisentError):
    """A weighted reduction has no trace to normalize by."""


class NotPSDResult(QDisentError):
    """A computed reduction came out non-positive beyond tolerance."""


class InvalidSpec(QDisentError):
    """Malformed generation recipe."""


class InvalidPointer(InvalidSpec):
    """Pointer parameters do not describe a valid state."""


def _as_square(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def _check_local(arr: np.ndarray, n: int, name: str) -> np.ndarray:
    """``arr`` if it is an n x n operator on one subsystem, else DimensionMismatch."""
    if arr.shape != (n, n):
        raise DimensionMismatch(f"{name} shape {arr.shape}, expected ({n}, {n})")
    return arr


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of a complex array: numpy's own ``sqrt(re.re + im.im)``, same bits."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _hermitize(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (largest entrywise distance from ``m`` to ``m^dag``, ``(m + m^dag)/2``).

    An empty ``m`` has no such distance and raises DimensionMismatch.
    """
    if not m.size:
        raise DimensionMismatch(f"matrix must be non-empty, got shape {m.shape}")
    mh = m.conj().T
    return float(np.abs(m - mh).max()), (m + mh) / 2.0


def _guard(passed: bool, exc: type[QDisentError], what: str, value: float,
           rule: str, bound: float) -> None:
    """Raise ``exc`` unless ``passed`` holds and ``value`` is finite.

    The caller writes the comparison that lets ``value`` through
    (``den > tol``), so a nan passes none and every check fails closed.
    The message is ``what value rule bound``, both numbers ``.3e``, or
    for a nan or infinite value that it is not finite; it is formatted
    only on a raise, so a passing check costs no string.
    """
    if not math.isfinite(value):
        raise exc(f"{what} {value} is not finite")
    if not passed:
        raise exc(f"{what} {value:.3e} {rule} {bound:.3e}")


def _require_hermitian(arr: np.ndarray, tol: float,
                       what: str = "hermiticity defect") -> None:
    """Raise NotHermitian, message led by ``what``, unless the defect is within tol.

    Entries near the double limit or infinite make the defect inf or
    nan, so numpy's overflow and invalid-value warnings are noise.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _hermitize(arr)[0]
    _guard(defect <= tol, NotHermitian, what, defect, "exceeds tol", tol)


@dataclass(frozen=True)
class DensityCheck:
    """Diagnostics from probing a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh(m: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh(m)``, or ``eigvalsh(m)`` without vectors: every eigensolve here.

    The wrapper's gufunc on the same square complex array, so the same
    bits, without its per-call checks; under its error state, so a
    LAPACK non-convergence raises LinAlgError and warns nothing.
    """
    with np.errstate(call=_raise_nonconvergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        if vectors:
            return _umath_linalg.eigh_lo(m, signature="D->dD")
        return _umath_linalg.eigvalsh_lo(m, signature="D->d")


def _density_spectrum(m: np.ndarray) -> tuple[DensityCheck, np.ndarray, np.ndarray]:
    """``density_defects`` of a square array, its hermitization and their ascending spectrum."""
    # entries near the double limit overflow to inf and nan here; the
    # eigensolve then reports the failure, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        herm, sym = _hermitize(m)
        trace = float(abs(m.trace() - 1.0))
    w = _eigh(sym, vectors=False)
    return DensityCheck(herm, trace, float(w[0])), sym, w


def density_defects(rho) -> DensityCheck:
    """Measure how far ``rho`` is from being a density matrix.

    Returns the max-abs hermiticity defect, the trace defect
    ``|tr(rho) - 1|`` and the smallest eigenvalue of the hermitized
    matrix.
    """
    return _density_spectrum(_as_square(rho))[0]


def _require_density(check: DensityCheck, tol: float) -> None:
    """Raise for the first of hermiticity, unit trace and PSD that ``check`` breaches."""
    herm, trace, low = check.hermiticity_defect, check.trace_defect, check.min_eigenvalue
    _guard(herm <= tol, NotHermitian, "hermiticity defect", herm, "exceeds tol", tol)
    _guard(trace <= tol, TraceNotOne, "trace defect", trace, "exceeds tol", tol)
    _guard(low >= -tol, NotPSD, "smallest eigenvalue", low, "is below -tol", -tol)


def validate_density(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return ``rho`` as a complex array, or raise if it is not a state.

    Checks hermiticity, unit trace and positive semidefiniteness, in
    that order, each within ``tol``.
    """
    m = _as_square(rho)
    _require_density(density_defects(m), tol)
    return m


def _check_dims(dims, exc: type[QDisentError] = DimensionMismatch,
                noun: str = "both subsystem dimensions") -> tuple[int, int]:
    """``dims`` as two ints each >= 2, else ``exc`` (its ">= 2" text led by ``noun``).

    Each dim must equal its int, so 2.5 is no dim; ``dims`` is read once.
    """
    try:
        pair = tuple(dims)
        n_a, n_b = (int(d) for d in pair)
    except (TypeError, ValueError, OverflowError):
        raise exc(f"dims must be a pair of integers, got {dims!r}") from None
    if n_a < 2 or n_b < 2:
        raise exc(f"{noun} must be >= 2, got ({n_a}, {n_b})")
    if (n_a, n_b) != pair:
        raise exc(f"dims must be a pair of integers, got {dims!r}")
    return n_a, n_b


def _check_count(value, name: str, exc: type[Exception] = ValueError) -> int:
    """``int(value)``, or ``exc`` quoting ``value`` unless that int is >= 1 and equals it."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        raise exc(f"{name} must be an integer, got {value!r}") from None
    if k < 1:
        raise exc(f"{name} must be >= 1, got {value}")
    if k != value:
        raise exc(f"{name} must be an integer, got {value!r}")
    return k


def _check_side(value, name: str) -> str:
    """``value`` if it names a subsystem, 'A' or 'B', else ValueError."""
    if value not in ("A", "B"):
        raise ValueError(f"{name} must be 'A' or 'B', got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """A validated density matrix on a two-part system.

    ``dims = (n_a, n_b)`` with the matrix on the flat product basis,
    row index ``a * n_b + b``.  The stored array is a read-only copy.
    """

    rho: np.ndarray
    dims: tuple[int, int]
    tol: InitVar[float] = DEFAULT_TOL

    # the spectrum validation solved, when it is eigvalsh(rho) bit for
    # bit (see __post_init__); entropies of the state reuse it
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, tol: float):
        n_a, n_b = dims = _check_dims(self.dims)
        m = _as_square(self.rho, "rho")
        if m.shape != (n_a * n_b, n_a * n_b):
            raise DimensionMismatch(
                f"rho has shape {m.shape}, expected {(n_a * n_b, n_a * n_b)} "
                f"for dims ({n_a}, {n_b})"
            )
        check, sym, w = _density_spectrum(m)
        _require_density(check, tol)
        # the spectrum is that of the hermitized matrix, so it is kept
        # only when the hermitization is ``m`` bit for bit (the same
        # bytes); then it is also ``eigvalsh(m)`` bit for bit.  A zero
        # hermiticity defect is not enough: a zero whose sign differs
        # from its mirror's changes the hermitized bits, and LAPACK's
        # last bits with them
        if sym.tobytes() == m.tobytes():
            w.setflags(write=False)
        else:
            w = None
        m = np.array(m)
        m.setflags(write=False)
        object.__setattr__(self, "rho", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_spectrum", w)

    @property
    def n_a(self) -> int:
        return self.dims[0]

    @property
    def n_b(self) -> int:
        return self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]


def _check_state(state) -> BipartiteState:
    """``state`` if it is a BipartiteState, else TypeError naming the type it got."""
    if not isinstance(state, BipartiteState):
        raise TypeError(f"state must be a BipartiteState, got {type(state).__name__}")
    return state


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two matrices on the flat product basis (A-major index).

    The same elementwise multiply ``np.kron`` does, broadcast over
    ``(a_row, b_row, a_col, b_col)``, so the bits match it, signed
    zeros included, without its per-call shape bookkeeping.  An inf or
    nan product is the result, so numpy's warnings about it are noise.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch(
            f"tensor product needs two matrices, got shapes {a.shape} and {b.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def product_state(rho_a, rho_b, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Build the bipartite state ``rho_a (x) rho_b`` from two factors."""
    a = validate_density(rho_a, tol)
    b = validate_density(rho_b, tol)
    return BipartiteState(tensor_product(a, b), (a.shape[0], b.shape[0]), tol=tol)


def _ptrace(m: np.ndarray, n_a: int, n_b: int, over: str) -> np.ndarray:
    """Trace ``m`` over one subsystem.

    ``over`` is not checked here: callers pass a checked side or a
    literal.  A trace weighted by a partner factor is a ``_ptrace_plan``.
    """
    r, trace = _contracted_last(m, n_a, n_b, over)
    return np.einsum(trace, r)


def _contracted_last(m: np.ndarray, n_a: int, n_b: int,
                     over: str) -> tuple[np.ndarray, str]:
    """``m``'s 4-index view with the contracted index last, and the einsum tracing it.

    The side only picks the axes: the view ``(a, b, c, d)`` keeps that
    order over B and swaps its last two axes over A.
    """
    r = m.reshape(n_a, n_b, n_a, n_b)
    if over == "B":
        return r, "abcb->ac"
    return r.transpose(0, 1, 3, 2), "abda->bd"


def _ptrace_plan(m: np.ndarray, n_a: int, n_b: int, over: str):
    """Set up ``m``'s weighted trace over one subsystem once; return ``weight -> trace``.

    The weighted trace is that of ``m @ (I x weight)`` over B, or of
    ``m @ (weight x I)`` over A.  It never forms that lift: one matmul
    of ``m``'s entries, laid out by the contracted index, against the
    weight does the lifted n^3 product's useful work.  OpenBLAS's zgemm
    rounds an output column differently when it falls outside a full
    group of 4 columns, so the weight is zero-padded to a multiple of 4
    columns, and a joint dimension that is not a multiple of 4, whose
    lifted product has a partial group, keeps that product.  The rows
    (over A a copy of the swapped axes), the padded weight and the
    matmul's output are the plan's own buffers, made once, so a plan
    serves one caller at a time; each result is a fresh array.
    """
    if (n_a * n_b) % 4:
        return lambda weight: _ptrace(m @ embed_local(weight, over, (n_a, n_b)),
                                      n_a, n_b, over)
    r, trace = _contracted_last(m, n_a, n_b, over)
    k = r.shape[3]
    rows = r.reshape(-1, k)
    padded = np.zeros((k, -(-k // 4) * 4), dtype=complex)
    out = np.empty((rows.shape[0], padded.shape[1]), dtype=complex)
    view = out.reshape(*r.shape[:3], -1)[..., :k]

    def apply(weight: np.ndarray) -> np.ndarray:
        padded[:, :k] = weight
        np.matmul(rows, padded, out=out)
        return np.einsum(trace, view)

    return apply


def partial_trace(state: BipartiteState, over: str = "B") -> np.ndarray:
    """Trace out one subsystem; ``over='B'`` keeps the A factor."""
    return _ptrace(_check_state(state).rho, state.n_a, state.n_b, _check_side(over, "over"))


def partial_transpose(state: BipartiteState, on: str = "A") -> np.ndarray:
    """Transpose one tensor factor, leaving the other untouched."""
    r = _check_state(state).rho.reshape(state.n_a, state.n_b, state.n_a, state.n_b)
    axes = (2, 1, 0, 3) if _check_side(on, "on") == "A" else (0, 3, 2, 1)
    # reshaping the transposed view copies it: a fresh, writable array
    return r.transpose(axes).reshape(state.dim, state.dim)


def hermitian_eigenvalues(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a hermitian matrix, ascending."""
    arr = _as_square(m)
    _require_hermitian(arr, tol)
    return _eigh(arr, vectors=False)


def embed_local(op, side: str, dims: tuple[int, int]) -> np.ndarray:
    """Lift a one-subsystem operator to the joint space, op (x) I or I (x) op."""
    n_a, n_b = _check_dims(dims)
    arr = _as_square(op, "op")
    n, rest = (n_a, n_b) if _check_side(side, "side") == "A" else (n_b, n_a)
    if arr.shape != (n, n):
        raise DimensionMismatch(
            f"op has shape {arr.shape}, expected ({n}, {n}) for side {side}"
        )
    eye = np.eye(rest, dtype=complex)
    return tensor_product(arr, eye) if side == "A" else tensor_product(eye, arr)


def validate_observable(o, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check hermiticity of an observable candidate."""
    arr = _as_square(o, "observable")
    _require_hermitian(arr, tol, "observable hermiticity defect")
    return arr
