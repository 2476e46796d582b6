"""Seeded corpus of state files for the benchmark, written without qdisent.

Every file is produced from numpy draws and rendered here in the
canonical state-file text (one key per line, arrays inline, floats with
``.17g`` and zeros as ``0``), so a change to ``qdisent.stateio`` cannot
change the inputs.  Each entry keeps the exact matrix it was written
from and the exit code the CLI must give for it, which is what the
oracle checks against.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NEAR_PURE_EPS = (1e-1, 1e-2, 1e-3)


@dataclass(frozen=True)
class Entry:
    """One state file of the corpus."""

    name: str              # file name inside the corpus directory
    kind: str              # generating family, or the planted defect
    dims: tuple[int, int]
    rho: np.ndarray | None  # the matrix written; None for schema violations
    expect_load: int       # exit code of loading: 0 ok, 1 invalid state, 3 format error


# ----------------------------------------------------------------- families

def _ket(n: int, rng) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _hermitize_unit(m: np.ndarray) -> np.ndarray:
    # (m + m^H) / 2 is hermitian to the last bit; the trace is then 1 up to rounding
    m = (m + m.conj().T) / 2.0
    return m / m.trace().real


def _ginibre(n: int, rng, rank: int | None = None) -> np.ndarray:
    k = n if rank is None else rank
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return _hermitize_unit(g @ g.conj().T)


def _near_pure(n: int, rng, eps: float) -> np.ndarray:
    v = _ket(n, rng)
    return _hermitize_unit((1.0 - eps) * np.outer(v, v.conj()) + eps * np.eye(n) / n)


def _pure_product(na: int, nb: int, rng) -> np.ndarray:
    a, b = _ket(na, rng), _ket(nb, rng)
    return _hermitize_unit(np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())))


def _separable(na: int, nb: int, rng, terms: int = 4) -> np.ndarray:
    p = rng.dirichlet(np.ones(terms))
    m = sum(pi * np.kron(_ginibre(na, rng), _ginibre(nb, rng)) for pi in p)
    return _hermitize_unit(m)


def draw(kind: str, dims: tuple[int, int], rng) -> np.ndarray:
    na, nb = dims
    n = na * nb
    if kind.startswith("near_pure_"):
        return _near_pure(n, rng, float(kind[len("near_pure_"):]))
    if kind == "random":
        return _ginibre(n, rng)
    if kind == "random_rank4":
        return _ginibre(n, rng, rank=4)
    if kind == "separable":
        return _separable(na, nb, rng)
    if kind == "pure_product":
        return _pure_product(na, nb, rng)
    raise ValueError(f"unknown family {kind!r}")


# ------------------------------------------------------------------- writer

def fmt(v: float) -> str:
    v = float(v)
    return "0" if v == 0.0 else format(v, ".17g")


def render(dims, rows, meta: dict | None = None,
           extra: dict | None = None) -> str:
    """Canonical state-file text; ``rows`` holds the cells as ready-made text."""
    body = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    lines = ["{", f'  "dims": [{dims[0]}, {dims[1]}],', f'  "rho": [{body}]']
    fields = {"meta": meta} if meta else {}
    fields.update(extra or {})
    for key, val in fields.items():
        lines[-1] += ","
        if isinstance(val, dict):
            inner = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}"
                               for k, v in val.items())
            lines.append(f"  {json.dumps(key)}: {{\n{inner}\n  }}")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(val)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cell_rows(rho: np.ndarray) -> list[list[str]]:
    return [[f"[{fmt(z.real)}, {fmt(z.imag)}]" for z in row] for row in rho]


# ------------------------------------------------------------------ planting

def _not_psd(rho: np.ndarray) -> np.ndarray:
    # push the smallest eigenvalue to about -0.02, keep hermiticity and trace
    w, v = np.linalg.eigh(rho)
    m = rho - (w[0] + 0.02) * np.outer(v[:, 0], v[:, 0].conj())
    return _hermitize_unit(m)


def _not_hermitian(rho: np.ndarray) -> np.ndarray:
    m = rho.copy()
    m[0, 1] += 1e-3
    return m


PLANTED = ("not_psd", "not_hermitian", "bool_cell", "short_row", "unknown_key")


def _planted_text(kind: str, dims, rho: np.ndarray, meta: dict):
    """(text, matrix or None, expected load code) for one planted defect."""
    if kind == "not_psd":
        m = _not_psd(rho)
        return render(dims, cell_rows(m), meta), m, 1
    if kind == "not_hermitian":
        m = _not_hermitian(rho)
        return render(dims, cell_rows(m), meta), m, 1
    rows = cell_rows(rho)
    if kind == "bool_cell":
        rows[1][2] = "[true, 0]"
        return render(dims, rows, meta), None, 3
    if kind == "short_row":
        rows[3] = rows[3][:-1]
        return render(dims, rows, meta), None, 3
    if kind == "unknown_key":
        return render(dims, rows, meta, extra={"extra": 1}), None, 3
    raise ValueError(f"unknown planted defect {kind!r}")


# ------------------------------------------------------------------ corpora

def _plan(workload: str) -> list[tuple[str, tuple[int, int], int]]:
    """(family, dims, count) strata; the counts never depend on the seed."""
    if workload == "solve-small":
        # twice as many 2x2 as 4x4 states, so that the median item sits
        # inside the 2x2 cluster rather than on the edge between the two
        kinds = [f"near_pure_{eps:g}" for eps in NEAR_PURE_EPS] + [
            "random", "separable", "pure_product"]
        return [(kind, dims, count) for dims, count in (((2, 2), 12), ((4, 4), 6))
                for kind in kinds]
    if workload == "read-8x8":
        return [("random", (8, 8), 8), ("random_rank4", (8, 8), 6),
                ("separable", (8, 8), 8), ("near_pure_0.01", (8, 8), 6)]
    if workload == "write-8x8":
        return [("random", (8, 8), 12), ("separable", (8, 8), 12)]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, directory: Path) -> list[Entry]:
    """Write the corpus for ``workload`` and ``seed`` into ``directory``."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    entries: list[Entry] = []
    for kind, dims, count in _plan(workload):
        for _ in range(count):
            rho = draw(kind, dims, rng)
            name = f"{len(entries):04d}-{kind}-{dims[0]}x{dims[1]}.json"
            meta = {"kind": kind}
            (directory / name).write_text(render(dims, cell_rows(rho), meta),
                                          encoding="utf-8")
            entries.append(Entry(name, kind, dims, rho, 0))
    if workload == "read-8x8":
        for kind in PLANTED:
            base = draw("random", (8, 8), rng)
            text, m, code = _planted_text(kind, (8, 8), base, {"kind": kind})
            name = f"{len(entries):04d}-{kind}-8x8.json"
            (directory / name).write_text(text, encoding="utf-8")
            entries.append(Entry(name, kind, (8, 8), m, code))
    return entries
