"""Command line front end.

Subcommands: ``validate``, ``analyze``, ``disentangle``, ``generate``,
``bench2q``.  Reports are canonical JSON documents on stdout (see
stateio for the rendering rules), so a report produced twice from the
same inputs is byte-identical; nothing time- or host-dependent is ever
printed.  A directory argument runs every ``.json`` file inside it,
sorted by filename, each item independent of the others.

Exit codes: 0 ok, 1 validation or criterion breach, 2 solver
non-convergence, 3 parse/usage/I-O trouble.  The default validation
tolerance can be set through the QDISENT_TOL environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_TOL,
    BipartiteState,
    QDisentError,
    _bipartite_matrix,
    _require_density,
    density_defects,
)
from .correlated import (
    CorrelatedMethod,
    CorrelatedPair,
    NeumannMethod,
    PointerMethod,
    SolverConfig,
    disentanglement_report,
)
from .criteria import separability_verdict
from .reductions import neumann_reduce
from .states import GenSpec, generate
from .stateio import (
    StateFormatError,
    doc_to_matrix,
    dumps_canonical,
    file_digest,
    format_real,
    load_document,
    save_state,
)
from .twoqubit import BENCH_GATE, transcription_bench

ENV_TOL = "QDISENT_TOL"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NONCONVERGENCE = 2
EXIT_FORMAT = 3

# largest n_a * n_b that ``generate`` draws: one complex matrix is then
# at most 16 MiB
GENERATE_MAX_DIM = 1024
# largest ``generate --terms`` and ``bench2q --cases``: the work of both
# grows linearly with the count, and at these caps each command takes
# seconds at 2x2 (about 1 s and 4 s on a 2-core VM)
GENERATE_MAX_TERMS = 10000
BENCH2Q_MAX_CASES = 10000
# largest ``generate`` work, terms * (n_a * n_b)**2: each mixture term
# adds one joint-size tensor product, about 20 ns per entry, so the cap
# is about 2 s of term work (on a 2-core VM) at any dims
GENERATE_MAX_WORK = 10**8

_KIND_ALIASES = {
    "bell": "bell",
    "product": "pure_product",
    "pure_product": "pure_product",
    "separable": "separable_mixture",
    "separable_mixture": "separable_mixture",
    "mixed": "maximally_mixed",
    "maximally_mixed": "maximally_mixed",
    "random": "random",
}


class _CliError(Exception):
    """A usage, input or I/O failure: ``main`` prints it and exits 3."""


def _check_finite(value: float, name: str, shown) -> None:
    """Reject a non-finite flag value; ``shown`` is echoed."""
    if not math.isfinite(value):
        raise _CliError(f"{name} must be finite, got {shown}")


def _check_at_least(value: int, low: int, name: str) -> None:
    if value < low:
        raise _CliError(f"{name} must be >= {low}, got {value}")


def _check_at_most(value: int, high: int, name: str) -> None:
    if value > high:
        raise _CliError(f"{name} {value} exceeds the cap {high}")


def _check_tol(value: float, name: str, shown) -> float:
    """Reject a non-finite or non-positive tolerance; ``shown`` is echoed."""
    _check_finite(value, name, shown)
    if value <= 0.0:
        raise _CliError(f"{name} must be positive, got {shown}")
    return value


def _resolve_tol(flag_value):
    if flag_value is not None:
        return _check_tol(float(flag_value), "--tol", flag_value)
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise _CliError(f"{ENV_TOL} must be a number, got {raw!r}") from None
    return _check_tol(value, ENV_TOL, repr(raw))


def _expand(path: str) -> tuple[list[str], bool]:
    """Resolve a CLI path to (file list, is_batch)."""
    p = Path(path)
    if p.is_dir():
        names = sorted((c for c in p.iterdir() if c.is_file()
                        and c.suffix == ".json"), key=lambda c: c.name)
        if not names:
            raise _CliError(f"no .json state files in {path}")
        return [str(c) for c in names], True
    return [path], False


def _run_batch(echo: str, path: str, item_fn) -> int:
    """Run ``item_fn`` per file under ``path``; emit one report, return the worst code."""
    paths, batch = _expand(path)
    items = []
    worst = EXIT_OK
    for item_path in paths:
        item, code = item_fn(item_path)
        items.append(item)
        worst = max(worst, code)
    if batch:
        doc = {"command": echo, "items": items}
    else:
        doc = {"command": echo, **items[0]}
    sys.stdout.write(dumps_canonical(doc))
    return worst


def _item_error(item: dict, exc: Exception) -> int:
    """Record ``exc`` as the item's error; a format error exits 3, the rest 1."""
    item["error"] = f"{type(exc).__name__}: {exc}"
    return EXIT_FORMAT if isinstance(exc, StateFormatError) else EXIT_INVALID


# ---------------------------------------------------------------- validate

def _validate_item(path: str, tol: float) -> tuple[dict, int]:
    item: dict = {"input": path}
    try:
        doc, item["digest"] = load_document(path)
        rho, dims = doc_to_matrix(doc)
        item["dims"] = [dims[0], dims[1]]
        # an empty grid (a zero dim) has no defects: the dims check
        # rejects it before they are needed; a non-finite defect has no
        # canonical text, and the density check's error names it instead
        check = None
        if rho.size:
            check = density_defects(rho)
            item.update((key, value) for key, value in
                        dataclasses.asdict(check).items() if math.isfinite(value))
        _bipartite_matrix(rho, dims)
        _require_density(check, tol)
    except (QDisentError, np.linalg.LinAlgError) as exc:
        item["valid"] = False
        return item, _item_error(item, exc)
    item["valid"] = True
    item["error"] = None
    return item, EXIT_OK


def cmd_validate(args) -> int:
    tol = _resolve_tol(args.tol)
    echo = f"validate --tol {format_real(tol)} {args.path}"
    return _run_batch(echo, args.path, lambda path: _validate_item(path, tol))


# ----------------------------------------------------------------- analyze

def _load_item(path: str, tol: float):
    """Shared load step: returns (state, header dict) or (None, error item)."""
    try:
        doc, digest = load_document(path)
        state = BipartiteState(*doc_to_matrix(doc), tol=tol)
    except (QDisentError, np.linalg.LinAlgError) as exc:
        item = {"input": path}
        return None, (item, _item_error(item, exc))
    return state, ({"input": path, "digest": digest,
                    "dims": [state.n_a, state.n_b]}, EXIT_OK)


def _analyze_item(path: str, tol: float, mode: str) -> tuple[dict, int]:
    state, (item, code) = _load_item(path, tol)
    if state is None:
        return item, code
    verdict = separability_verdict(state, mode=mode, tol=tol)
    fields = dataclasses.asdict(verdict)
    fields["all_pass"] = verdict.all_pass
    item["verdict"] = fields
    item["reduced_a"] = neumann_reduce(state, keep="A")
    item["reduced_b"] = neumann_reduce(state, keep="B")
    return item, EXIT_OK if verdict.all_pass else EXIT_INVALID


def cmd_analyze(args) -> int:
    tol = _resolve_tol(args.tol)
    echo = f"analyze --tol {format_real(tol)} --red-mode {args.red_mode} {args.path}"
    return _run_batch(echo, args.path,
                      lambda path: _analyze_item(path, tol, args.red_mode))


# ------------------------------------------------------------- disentangle

def _solver_doc(pair: CorrelatedPair | None):
    if pair is None:
        return None
    log = pair.trace_log
    return {
        "iterations": pair.iterations,
        "converged": pair.converged,
        "residual_a": pair.residual_a,
        "residual_b": pair.residual_b,
        # the solver logs every sweep and runs at least one
        "final_step_a": log[-1].step_a,
        "final_step_b": log[-1].step_b,
        "max_herm_defect": max(max(r.herm_defect_a, r.herm_defect_b) for r in log),
        "min_eig_seen": min(min(r.min_eig_a, r.min_eig_b) for r in log),
    }


def _method_spec(args):
    if args.method == "neumann":
        return NeumannMethod()
    if args.method == "pointer":
        return PointerMethod(p=args.p, b=complex(args.b_re, args.b_im), m=args.m)
    config = SolverConfig(tol=args.tol, max_iter=args.max_iter,
                          damping=args.damping, m_power=args.m)
    return CorrelatedMethod(config)


def _disentangle_item(path: str, vtol: float, spec) -> tuple[dict, int]:
    state, (item, code) = _load_item(path, vtol)
    if state is None:
        return item, code
    rep = disentanglement_report(state, [spec], tol=vtol)[0]
    item["method"] = rep.method
    item["factor_a"] = rep.factor_a
    item["factor_b"] = rep.factor_b
    item["product"] = None if rep.product is None else rep.product.rho
    item["frobenius_to_input"] = rep.frobenius_to_input
    item["entropy_input"] = rep.entropy_input
    item["entropy_product"] = rep.entropy_product
    item["entropy_change"] = rep.entropy_change
    item["solver"] = _solver_doc(rep.solver)
    item["error"] = rep.error
    if rep.solver is not None and not rep.solver.converged:
        return item, EXIT_NONCONVERGENCE
    return item, EXIT_OK if rep.error is None else EXIT_INVALID


def cmd_disentangle(args) -> int:
    vtol = _resolve_tol(None)
    _check_tol(args.tol, "--tol", args.tol)
    for name, value in (("--p", args.p), ("--b-re", args.b_re), ("--b-im", args.b_im)):
        _check_finite(value, name, value)
    _check_at_least(args.max_iter, 1, "--max-iter")
    if not 0.0 <= args.damping < 1.0:
        raise _CliError(f"--damping must sit in [0, 1), got {args.damping}")
    _check_at_least(args.m, 1, "--m")
    spec = _method_spec(args)
    echo = (f"disentangle --method {args.method} --p {format_real(args.p)}"
            f" --b-re {format_real(args.b_re)} --b-im {format_real(args.b_im)}"
            f" --m {args.m} --tol {format_real(args.tol)}"
            f" --max-iter {args.max_iter} --damping {format_real(args.damping)}"
            f" {args.path}")
    return _run_batch(echo, args.path,
                      lambda path: _disentangle_item(path, vtol, spec))


# ------------------------------------------------------------------ generate

def cmd_generate(args) -> int:
    _check_at_least(args.seed, 0, "--seed")
    n_a, n_b = args.dims
    # dims below 2 stay generate's InvalidSpec, exit 1
    sized = min(n_a, n_b) >= 2
    if sized and n_a * n_b > GENERATE_MAX_DIM:
        raise _CliError(f"--dims {n_a} {n_b} exceeds the joint"
                        f" dimension cap {GENERATE_MAX_DIM}")
    _check_at_most(args.terms, GENERATE_MAX_TERMS, "--terms")
    work = args.terms * (n_a * n_b) ** 2
    if sized and work > GENERATE_MAX_WORK:
        raise _CliError(f"--terms {args.terms} x (NA*NB)^2 = {work}"
                        f" exceeds the work cap {GENERATE_MAX_WORK}")
    vtol = _resolve_tol(None)
    kind = _KIND_ALIASES[args.kind]
    spec = GenSpec(kind=kind, dims=(n_a, n_b), seed=args.seed, k_terms=args.terms)
    try:
        state = generate(spec, tol=vtol)
    except QDisentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    meta = {"kind": kind, "dims": f"{n_a}x{n_b}",
            "seed": str(args.seed)}
    if kind == "separable_mixture":
        meta["terms"] = str(args.terms)
    try:
        save_state(args.out, state, meta=meta)
    except OSError as exc:
        raise _CliError(f"cannot write {args.out}: {exc}") from exc
    echo = (f"generate {kind} --dims {n_a} {n_b}"
            f" --seed {args.seed} --terms {args.terms} --out {args.out}")
    doc = {"command": echo, "out": args.out, "digest": file_digest(args.out),
           "dims": [n_a, n_b], "kind": kind,
           "seed": args.seed}
    sys.stdout.write(dumps_canonical(doc))
    return EXIT_OK


# ------------------------------------------------------------------- bench2q

def _short(x: float) -> str:
    v = float(x)
    return "0" if v == 0.0 else repr(v)


def cmd_bench2q(args) -> int:
    _check_at_least(args.cases, 1, "--cases")
    _check_at_most(args.cases, BENCH2Q_MAX_CASES, "--cases")
    _check_at_least(args.seed, 0, "--seed")
    rows = transcription_bench(cases=args.cases, seed=args.seed)
    print(f"two-qubit transcription bench cases={args.cases} seed={args.seed}"
          f" gate={_short(BENCH_GATE)}")
    breached = False
    for row in rows:
        if row.gated:
            ok = row.max_deviation <= BENCH_GATE
            breached = breached or not ok
            status = "ok" if ok else "BREACH"
        else:
            status = "reported"
        print(f"{row.label:<26} max_deviation={_short(row.max_deviation):<24}"
              f" {status}")
    print("result: " + ("breach" if breached else "pass"))
    return EXIT_INVALID if breached else EXIT_OK


# -------------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    """A fresh parser on each call; ``main`` reuses one, see ``_parser``."""
    # help and usage wrap at 78 columns, not at the terminal's width, so
    # the usage-error bytes do not depend on COLUMNS
    wrap = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="qdisent", description="Bipartite density-matrix analysis toolbox.",
        formatter_class=wrap)
    sub = parser.add_subparsers(
        dest="cmd", required=True, metavar="command",
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=wrap))

    v = sub.add_parser("validate",
                       help="check state files against the density contract")
    v.add_argument("path", help="state file or directory of .json files")
    v.add_argument("--tol", type=float, default=None,
                   help=f"validation tolerance (default {ENV_TOL} or"
                        f" {DEFAULT_TOL})")
    v.set_defaults(func=cmd_validate)

    a = sub.add_parser("analyze",
                       help="separability criteria and entropy diagnostics")
    a.add_argument("path", help="state file or directory of .json files")
    a.add_argument("--tol", type=float, default=None,
                   help=f"validation tolerance (default {ENV_TOL} or"
                        f" {DEFAULT_TOL})")
    a.add_argument("--red-mode", dest="red_mode",
                   choices=("standard", "literal"), default="standard",
                   help="reduction-criterion variant")
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("disentangle",
                       help="approximate a state by a product of local factors")
    d.add_argument("path", help="state file or directory of .json files")
    d.add_argument("--method", choices=("neumann", "pointer", "correlated"),
                   default="correlated")
    d.add_argument("--p", type=float, default=0.5,
                   help="pointer population of the upper level")
    d.add_argument("--b-re", dest="b_re", type=float, default=0.0,
                   help="pointer coherence, real part")
    d.add_argument("--b-im", dest="b_im", type=float, default=0.0,
                   help="pointer coherence, imaginary part")
    d.add_argument("--m", type=int, default=1,
                   help="partner-weight power for pointer/correlated methods")
    d.add_argument("--tol", type=float, default=1e-12,
                   help="solver convergence tolerance")
    d.add_argument("--max-iter", dest="max_iter", type=int, default=10000)
    d.add_argument("--damping", type=float, default=0.0,
                   help="blend factor toward the previous iterate")
    d.set_defaults(func=cmd_disentangle)

    g = sub.add_parser("generate", help="write a deterministic state file")
    g.add_argument("kind", choices=sorted(_KIND_ALIASES),
                   help="state family to draw from")
    g.add_argument("--dims", type=int, nargs=2, default=(2, 2),
                   metavar=("NA", "NB"),
                   help=f"subsystem dimensions, NA*NB <= {GENERATE_MAX_DIM}")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--terms", type=int, default=4,
                   help=f"mixture terms for separable_mixture, at most"
                        f" {GENERATE_MAX_TERMS} and at most"
                        f" {GENERATE_MAX_WORK} / (NA*NB)^2")
    g.add_argument("--out", required=True, help="output path")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("bench2q",
                       help="closed-form vs generic-route deviation table")
    b.add_argument("--cases", type=int, default=1000,
                   help=f"random states to draw, at most {BENCH2Q_MAX_CASES}")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench2q)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses in a process.

    ``parse_args`` leaves a parser unchanged, and every setting a
    command reads at run time (``QDISENT_TOL``) is read by the command,
    so sharing it is safe.  Built on first use, not at import.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means non-convergence here,
        # so usage trouble leaves through 3 with the rest of the parse/I-O
        # failures (--help exits 0)
        return EXIT_OK if exc.code == EXIT_OK else EXIT_FORMAT
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except QDisentError as exc:
        # a library error no command maps to an item, e.g. a report
        # value that cannot be rendered canonically
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
