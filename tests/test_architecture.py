"""Layout rules read from the source, not from behaviour.

The five rules of ROADMAP E, over ``src/qdisent/*.py`` with the stdlib
``ast``, and the parse route's one home: each names the functions that
may break it, so a second eigensolve, basis layout, stdout writer, file
access or parser, or an exception of another type, cannot land unseen.
A site is ``module.function`` (a method is ``module.Class.method``, a
nested function counts as its outer one, and module-level code is
``module``).  The last two tests check that CI's workflow runs each of
``ci/checks.py``'s checks by one command and holds no inline script,
and that README's command for them names exactly those checks.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted((ROOT / "src" / "qdisent").glob("*.py"))}


def _nodes():
    """Every (site, node) in the package."""
    for module, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from ((f"{module}.{stmt.name}", node) for node in ast.walk(stmt))
            elif isinstance(stmt, ast.ClassDef):
                for part in stmt.body:
                    site = (f"{module}.{stmt.name}.{part.name}"
                            if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef))
                            else f"{module}.{stmt.name}")
                    yield from ((site, node) for node in ast.walk(part))
            else:
                yield from ((module, node) for node in ast.walk(stmt))


def _dotted(node) -> str:
    """``a.b.c`` for a chain of names and attributes, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _uses() -> dict[str, set[str]]:
    """{name: sites} for every name, attribute and imported name in the package."""
    uses = defaultdict(set)
    for site, node in _nodes():
        if isinstance(node, ast.Name):
            uses[node.id].add(site)
        elif isinstance(node, ast.Attribute):
            uses[node.attr].add(site)
        elif isinstance(node, ast.alias):
            for name in filter(None, (node.name.rsplit(".", 1)[-1], node.asname)):
                uses[name].add(site)
    return uses


def _check_sites(allowed: dict[str, set[str]]) -> None:
    uses = _uses()
    assert {name: uses.get(name, set()) for name in allowed} == allowed


def _numpy_private() -> set[tuple[str, str]]:
    """(site, path) for each numpy module or name with a ``_``-led part the package names.

    A path is what an import names (``numpy.linalg._umath_linalg`` for a
    ``from numpy.linalg import _umath_linalg``) or an attribute chain on
    ``np`` or ``numpy``.
    """
    found = set()
    for site, node in _nodes():
        if isinstance(node, ast.ImportFrom) and not node.level:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            paths = [_dotted(node)]
        else:
            continue
        found.update((site, path) for path in paths if path.split(".")[0] in ("np", "numpy")
                     and any(part.startswith("_") for part in path.split(".")[1:]))
    return found


def test_one_eigensolve_route():
    # rule 1: every eigensolve goes through core._eigh's gufuncs, under
    # its prebuilt error state, so its counts, bits and error handling
    # are those of one route; no SVD.  numpy's private names, which a
    # numpy release may move, are named in core only
    _check_sites({"_umath_linalg": {"core", "core._eigh"},
                  "_extobj_contextvar": {"core", "core._eigh"}, "_make_extobj": {"core"},
                  **dict.fromkeys(("eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals"),
                                  set())})
    linalg = {node.attr for _, node in _nodes() if isinstance(node, ast.Attribute)
              and _dotted(node.value) in ("np.linalg", "numpy.linalg")}
    assert linalg == {"qr", "matrix_power", "LinAlgError"}
    imported = {alias.name for _, node in _nodes() if isinstance(node, ast.ImportFrom)
                and node.module in ("numpy.linalg", "scipy.linalg") for alias in node.names}
    assert imported == {"_umath_linalg"}
    assert _numpy_private() == {("core", "numpy.linalg._umath_linalg"),
                                ("core", "numpy._core.umath._extobj_contextvar"),
                                ("core", "numpy._core.umath._make_extobj")}


def test_the_basis_layout_lives_in_core():
    # rule 2: only these split a joint index into (a, b) pairs, so no
    # module outside core knows the basis layout
    def splits(call):
        args = call.args[0].elts if len(call.args) == 1 and isinstance(
            call.args[0], ast.Tuple) else call.args
        return len(args) >= 4 or any(isinstance(arg, ast.Starred) for arg in args)
    sites = {site for site, node in _nodes() if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "reshape"
             and splits(node)}
    assert sites == {"core._contracted_last", "core._ptrace_plan", "core.partial_transpose"}


def test_stdout_is_written_only_by_the_report():
    # rule 3: stdout is a contract, so only cli._report writes it, and
    # main only captures argparse's help there; diagnostics go to stderr
    _check_sites({"stdout": {"cli._report"}, "redirect_stdout": {"cli.main"},
                  "__stdout__": set()})
    prints = [(site, node) for site, node in _nodes() if isinstance(node, ast.Call)
              and _dotted(node.func) == "print"]
    assert prints
    assert [site for site, node in prints
            if [_dotted(kw.value) for kw in node.keywords if kw.arg == "file"]
            != ["sys.stderr"]] == []


def test_each_file_access_has_one_home():
    # rule 4: a state file is read once, by stateio._read, and written
    # once, by save_state; a batch's spool is its only temporary file
    _check_sites({"read_bytes": {"stateio._read"}, "read_text": set(), "open": set(),
                  "write_text": set(), "write_bytes": {"stateio.save_state"},
                  "TemporaryFile": {"cli._run_batch"}, "NamedTemporaryFile": set(),
                  "SpooledTemporaryFile": set(), "mkstemp": set()})
    # save_state returns the digest of what it wrote, so no command reads
    # back a file: cli calls stateio's readers (_read and the functions
    # that call it) only to load the state files it is given
    readers = {"_read"} | {node.name for node in MODULES["stateio"].body
                           if isinstance(node, ast.FunctionDef) and any(
                               isinstance(call, ast.Call) and _dotted(call.func) == "_read"
                               for call in ast.walk(node))}
    assert readers == {"_read", "load_document", "file_digest"}
    calls = {(site, _dotted(node.func)) for site, node in _nodes()
             if site.startswith("cli.") and isinstance(node, ast.Call)
             and _dotted(node.func).rsplit(".", 1)[-1] in readers}
    assert calls == {("cli._validate_item", "load_document"),
                     ("cli._load_state", "load_document")}


def test_the_parse_route_has_one_home():
    # a state file's bytes are parsed by orjson in stateio._parse_fast or,
    # where its guards or orjson turn them down, by json.loads in
    # load_document, so every error text is json's: no third parser
    _check_sites({"orjson": {"stateio", "stateio._parse_fast"},
                  "loads": {"stateio._parse_fast", "stateio.load_document"},
                  "load": set(), "raw_decode": set(), "JSONDecoder": set()})


def _raised(node: ast.Raise) -> str:
    """The name of what ``node`` raises, called or not; ``""`` for a bare re-raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return "" if exc is None else _dotted(exc).rsplit(".", 1)[-1]


def _subclasses(base: str) -> set[str]:
    """``base`` and every class of the package that derives from it."""
    parents = {node.name: {_dotted(b) for b in node.bases} for tree in MODULES.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found = {base}
    while grown := {name for name, bases in parents.items() if bases & found} - found:
        found |= grown
    return found


def test_each_raise_raises_an_allowed_type():
    # rule 5: a raise raises a core.QDisentError subclass, _CliError,
    # ValueError, TypeError or LinAlgError, or the ``exc`` a checking
    # helper is passed, or re-raises (""); each from these sites only
    raised = defaultdict(set)
    statements = defaultdict(int)
    for site, node in _nodes():
        if isinstance(node, ast.Raise):
            raised[_raised(node)].add(site)
            statements[_raised(node)] += 1
    assert set(raised) - _subclasses("QDisentError") == {
        "_CliError", "ValueError", "TypeError", "LinAlgError", "exc", ""}
    assert raised == {
        "_CliError": {"cli._report", "cli._check_finite", "cli._check_seed",
                      "cli._check_at_most", "cli._check_tol", "cli._resolve_tol",
                      "cli._expand", "cli._run_batch", "cli.cmd_disentangle",
                      "cli.cmd_generate"},
        "StateFormatError": {"cli._spool_call", "stateio.format_real", "stateio._render",
                             "stateio.write_canonical", "stateio.state_to_doc",
                             "stateio._want_int", "stateio._want_real", "stateio._walk_grid",
                             "stateio.doc_to_matrix", "stateio._read",
                             "stateio.load_document"},
        "DimensionMismatch": {"core._as_square", "core._check_local", "core._hermitize",
                              "core.BipartiteState.__post_init__", "core.tensor_product",
                              "core.embed_local", "correlated.PointerMethod.factors",
                              "criteria.witness_expectation",
                              "reductions.validate_outcome_probs", "twoqubit._as_two_qubit"},
        "InvalidSpec": {"reductions.validate_outcome_probs", "states._bell",
                        "states.generate"},
        "InvalidPointer": {"states._check_pointer"},
        "NonConvergence": {"correlated.fixed_point_solve"},
        "ValueError": {"core._check_side", "correlated._check_config",
                       "correlated.disentanglement_report",
                       "criteria.reduction_criterion_test", "criteria._real_expectation"},
        "TypeError": {"core._check_state"},
        "LinAlgError": {"core._raise_nonconvergence"},
        "exc": {"core._guard", "core._check_dims", "core._check_count"},
        "": {"cli._validate_item"},
    }
    assert statements["_CliError"] == 15  # a site may hold more than one
    helpers = {f"core.{node.name}": {arg.arg for arg in node.args.args}
               for node in MODULES["core"].body if isinstance(node, ast.FunctionDef)}
    assert all("exc" in helpers[site] for site in raised["exc"])


def _check_names() -> list[str]:
    """The keys of ``ci/checks.py``'s ``CHECKS``, sorted."""
    checks = ast.parse((ROOT / "ci" / "checks.py").read_text(encoding="utf-8"))
    [table] = [node.value for node in checks.body if isinstance(node, ast.Assign)
               and [_dotted(target) for target in node.targets] == ["CHECKS"]]
    return sorted(ast.literal_eval(key) for key in table.keys)


def test_the_workflow_runs_each_check_once_and_no_inline_script():
    # PyYAML is not installed on the runner: the workflow is read as text
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    calls = re.findall(r"python3 -W error ci/checks\.py ([\w-]+)", workflow)
    assert sorted(calls) == _check_names()
    assert "<<" not in workflow
    assert not re.search(r"python3? [^\n]*-c\b", workflow)
    assert not re.search(r"\w+\(\)\s*\{", workflow)
    assert "RUNNER_TEMP/vmhwm" not in workflow


def test_the_readme_names_each_check_once():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [listed] = re.findall(r"python3 -W error ci/checks\.py \{([\w,-]+)\} \[DIR\]", readme)
    assert sorted(listed.split(",")) == _check_names()  # each key once, as CHECKS has
