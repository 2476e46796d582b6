"""Layout rules read from the source, not from behaviour.

The first four rules of ROADMAP E, over ``src/qdisent/*.py`` with the
stdlib ``ast``: each names the functions that may break it, so a second
eigensolve, basis layout, stdout writer or file access cannot land
unseen.  A site is ``module.function`` (a method is
``module.Class.method``, a nested function counts as its outer one, and
module-level code is ``module``).  The last test checks that CI's
workflow runs each of ``ci/checks.py``'s checks by one command and holds
no inline script.
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


def test_one_eigensolve_route():
    # rule 1: every eigensolve goes through core._eigh's gufuncs, so its
    # counts and bits are those of one route; no SVD
    _check_sites({"_umath_linalg": {"core", "core._eigh"},
                  **dict.fromkeys(("eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals"),
                                  set())})
    linalg = {node.attr for _, node in _nodes() if isinstance(node, ast.Attribute)
              and _dotted(node.value) in ("np.linalg", "numpy.linalg")}
    assert linalg == {"qr", "matrix_power", "LinAlgError"}
    imported = {alias.name for _, node in _nodes() if isinstance(node, ast.ImportFrom)
                and node.module in ("numpy.linalg", "scipy.linalg") for alias in node.names}
    assert imported == {"_umath_linalg"}


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
    # only by save_state; a batch's spool is its only temporary file
    _check_sites({"read_bytes": {"stateio._read"}, "read_text": set(), "open": set(),
                  "write_text": {"stateio.save_state"}, "write_bytes": set(),
                  "TemporaryFile": {"cli._run_batch"}, "NamedTemporaryFile": set(),
                  "SpooledTemporaryFile": set(), "mkstemp": set()})


def test_the_workflow_runs_each_check_once_and_no_inline_script():
    # PyYAML is not installed on the runner: the workflow is read as text
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    checks = ast.parse((ROOT / "ci" / "checks.py").read_text(encoding="utf-8"))
    [table] = [node.value for node in checks.body if isinstance(node, ast.Assign)
               and [_dotted(target) for target in node.targets] == ["CHECKS"]]
    calls = re.findall(r"python3 -W error ci/checks\.py ([\w-]+)", workflow)
    assert sorted(calls) == sorted(ast.literal_eval(key) for key in table.keys)
    assert "<<" not in workflow
    assert not re.search(r"python3? [^\n]*-c\b", workflow)
    assert not re.search(r"\w+\(\)\s*\{", workflow)
    assert "RUNNER_TEMP/vmhwm" not in workflow
