"""Independent numpy oracle for the CLI reports.

Nothing here imports qdisent.  Each check takes the matrix the corpus
wrote, the report text the CLI printed and its exit code, and returns a
list of problems; an empty list means the report is right.  The
tolerances are far above rounding (the files round-trip exactly) and
far below any real defect.
"""

from __future__ import annotations

import json

import numpy as np

VALIDATION_TOL = 1e-9     # the CLI's default validation tolerance
CLOSE = 1e-9              # reported scalars against the oracle's own
GRID_CLOSE = 1e-12        # reported matrices against the oracle's own
RESIDUAL_MAX = 1e-8       # fixed-point re-substitution distance
AMBIGUOUS = 1e-10         # criterion margins this close to -tol may go either way


def _matrix(grid) -> np.ndarray:
    a = np.asarray(grid, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def ptrace(rho: np.ndarray, dims, keep: str) -> np.ndarray:
    r = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    return np.einsum("abcb->ac", r) if keep == "A" else np.einsum("abad->bd", r)


def entropy(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def weighted_factor(rho: np.ndarray, dims, partner: np.ndarray, keep: str) -> np.ndarray:
    """Partner-weighted reduction, normalised: the coupled map of one side."""
    r = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    if keep == "A":
        m = np.einsum("abcd,db->ac", r, partner)
    else:
        m = np.einsum("abcd,ca->bd", r, partner)
    m = (m + m.conj().T) / 2.0
    return m / m.trace().real


def _close(problems, what, got, want, tol=CLOSE):
    if got is None or not abs(float(got) - float(want)) <= tol:
        problems.append(f"{what}: reported {got!r}, oracle {want!r}")


def _grid_close(problems, what, grid, want, tol=GRID_CLOSE):
    if grid is None:
        problems.append(f"{what}: missing")
        return
    got = _matrix(grid)
    if got.shape != want.shape or not np.abs(got - want).max() <= tol:
        problems.append(f"{what}: differs from the oracle by more than {tol:g}")


def _verdict_code(min_eigs) -> int | None:
    """Exit code the separability battery must give, None when too close to call."""
    if any(abs(e + VALIDATION_TOL) < AMBIGUOUS for e in min_eigs):
        return None
    return 0 if all(e >= -VALIDATION_TOL for e in min_eigs) else 1


def _load_error(problems, item: dict, kind: str):
    want = {"bool_cell": "StateFormatError", "short_row": "StateFormatError",
            "unknown_key": "StateFormatError", "not_psd": "NotPSD",
            "not_hermitian": "NotHermitian"}[kind]
    err = item.get("error") or ""
    if not err.startswith(want + ":"):
        problems.append(f"error {err!r} does not report {want}")


def check(cmd: str, rho, dims, expect_load: int, kind: str,
          text: str, code: int) -> list[str]:
    """Problems with one report, checked against the oracle."""
    try:
        item = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems: list[str] = []
    if expect_load != 0:
        if code != expect_load:
            problems.append(f"exit {code}, expected {expect_load} for {kind}")
        _load_error(problems, item, kind)
        if cmd == "validate" and item.get("valid") is not False:
            problems.append("a rejected input is reported valid")
        if cmd == "validate" and rho is not None:
            _density_fields(problems, item, rho)
        return problems
    if cmd == "validate":
        _check_validate(problems, item, rho, code)
    elif cmd == "analyze":
        _check_analyze(problems, item, rho, dims, code)
    elif cmd == "disentangle":
        _check_disentangle(problems, item, rho, dims, code)
    else:
        problems.append(f"no oracle for {cmd!r}")
    return problems


def _density_fields(problems, item, rho):
    _close(problems, "hermiticity_defect", item.get("hermiticity_defect"),
           np.abs(rho - rho.conj().T).max())
    _close(problems, "trace_defect", item.get("trace_defect"),
           abs(rho.trace() - 1.0))
    _close(problems, "min_eigenvalue", item.get("min_eigenvalue"),
           np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])


def _check_validate(problems, item, rho, code):
    if code != 0 or item.get("valid") is not True or item.get("error") is not None:
        problems.append(f"valid state rejected: exit {code}, error {item.get('error')!r}")
    _density_fields(problems, item, rho)


def _check_analyze(problems, item, rho, dims, code):
    n_a, n_b = dims
    rho_a, rho_b = ptrace(rho, dims, "A"), ptrace(rho, dims, "B")
    _grid_close(problems, "reduced_a", item.get("reduced_a"), rho_a)
    _grid_close(problems, "reduced_b", item.get("reduced_b"), rho_b)
    v = item.get("verdict") or {}
    pt = rho.reshape(n_a, n_b, n_a, n_b).transpose(2, 1, 0, 3).reshape(n_a * n_b, -1)
    ppt = np.linalg.eigvalsh(pt)[0]
    red_a = np.linalg.eigvalsh(np.kron(np.eye(n_a), rho_b) - rho)[0]
    red_b = np.linalg.eigvalsh(np.kron(rho_a, np.eye(n_b)) - rho)[0]
    _close(problems, "ppt_min_eig", v.get("ppt_min_eig"), ppt)
    _close(problems, "red_min_eig_a", v.get("red_min_eig_a"), red_a)
    _close(problems, "red_min_eig_b", v.get("red_min_eig_b"), red_b)
    s_ab, s_a, s_b = entropy(rho), entropy(rho_a), entropy(rho_b)
    _close(problems, "entropy_ab", v.get("entropy_ab"), s_ab)
    _close(problems, "entropy_a", v.get("entropy_a"), s_a)
    _close(problems, "entropy_b", v.get("entropy_b"), s_b)
    want = _verdict_code([ppt, red_a, red_b])
    if want is not None and code != want:
        problems.append(f"exit {code}, oracle verdict {want}")
    if v.get("all_pass") is not (code == 0):
        problems.append(f"all_pass {v.get('all_pass')!r} disagrees with exit {code}")


def _check_disentangle(problems, item, rho, dims, code):
    if code != 0 or item.get("error") is not None:
        problems.append(f"solver failed: exit {code}, error {item.get('error')!r}")
        return
    solver = item.get("solver") or {}
    if solver.get("converged") is not True or not solver.get("iterations", 0) >= 1:
        problems.append(f"solver summary {solver!r} is not a converged run")
    try:
        fa, fb = _matrix(item["factor_a"]), _matrix(item["factor_b"])
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"factors unreadable: {exc!r}")
        return
    for name, f, n in (("factor_a", fa, dims[0]), ("factor_b", fb, dims[1])):
        if f.shape != (n, n):
            problems.append(f"{name} has shape {f.shape}, expected {(n, n)}")
            return
        _close(problems, f"{name} trace", f.trace().real, 1.0)
        if np.abs(f - f.conj().T).max() > CLOSE:
            problems.append(f"{name} is not hermitian")
        if np.linalg.eigvalsh(f)[0] < -VALIDATION_TOL:
            problems.append(f"{name} is not positive semidefinite")
    prod = np.kron(fa, fb)
    _grid_close(problems, "product", item.get("product"), prod)
    res_a = np.linalg.norm(fa - weighted_factor(rho, dims, fb, "A"))
    res_b = np.linalg.norm(fb - weighted_factor(rho, dims, fa, "B"))
    if not max(res_a, res_b) <= RESIDUAL_MAX:
        problems.append(f"factors are no fixed point: residuals {res_a:.3e}, {res_b:.3e}")
    _close(problems, "frobenius_to_input", item.get("frobenius_to_input"),
           np.linalg.norm(prod - rho))
    s_in, s_prod = entropy(rho), entropy(fa) + entropy(fb)
    _close(problems, "entropy_input", item.get("entropy_input"), s_in)
    _close(problems, "entropy_product", item.get("entropy_product"), s_prod)
    _close(problems, "entropy_change", item.get("entropy_change"), s_prod - s_in)
