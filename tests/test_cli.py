"""End-to-end checks of the qdisent command line."""

import argparse
import builtins
import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qdisent import cli, core, file_digest
from qdisent.cli import build_parser, main
from qdisent.correlated import disentanglement_report
from qdisent.stateio import _parse_grid, dumps_canonical, save_state
from qdisent.states import GENERATOR_KINDS, random_state
from test_properties import top_kronecker_pair

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("QDISENT_TOL", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def as_matrix(grid):
    return np.array([[complex(re, im) for re, im in row] for row in grid])


def run_subprocess(cwd, *argv, stdout=subprocess.PIPE, unbuffered=None, timeout=None):
    """Run ``python -W error -m qdisent.cli`` from ``cwd`` with ``src`` importable.

    ``unbuffered`` set (True or False) sets or clears PYTHONUNBUFFERED;
    past ``timeout`` seconds the child is killed and TimeoutExpired raises.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("QDISENT_TOL", None)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-W", "error", "-m", "qdisent.cli", *argv],
                          cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


def write_doc(path, diag, corner=None):
    n = len(diag)
    grid = [[[diag[i] if i == j else 0.0, 0.0] for j in range(n)]
            for i in range(n)]
    if corner is not None:
        grid[0][n - 1] = [corner, 0.0]
        grid[n - 1][0] = [corner, 0.0]
    path.write_text(dumps_canonical({"dims": [2, 2], "rho": grid}))


# ------------------------------------------------------------------ generate


def test_generate_then_validate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, doc, _ = run_json(capsys, "generate", "bell", "--out", "bell.json")
    assert code == 0
    assert doc["command"] == (
        "generate bell --dims 2 2 --seed 0 --terms 4 --out bell.json"
    )
    assert doc["kind"] == "bell"
    assert doc["dims"] == [2, 2]
    assert doc["digest"] == file_digest(tmp_path / "bell.json")

    code, report, _ = run_json(capsys, "validate", "bell.json")
    assert code == 0
    assert report["command"] == (
        "validate --tol 1.0000000000000001e-09 bell.json"
    )
    assert report["valid"] is True
    assert report["error"] is None
    assert report["digest"] == doc["digest"]
    assert report["trace_defect"] <= 1e-15
    assert abs(report["min_eigenvalue"]) <= 1e-15


def test_generate_is_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, doc1, _ = run_json(capsys, "generate", "separable", "--seed", "7",
                             "--out", "a.json")
    code2, doc2, _ = run_json(capsys, "generate", "separable", "--seed", "7",
                              "--out", "b.json")
    assert code == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert doc1["digest"] == doc2["digest"]


def test_generate_resolves_aliases(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, doc, _ = run_json(capsys, "generate", "product", "--seed", "2",
                            "--out", "p.json")
    assert code == 0
    assert doc["kind"] == "pure_product"
    assert doc["command"].startswith("generate pure_product ")
    meta = json.loads((tmp_path / "p.json").read_text())["meta"]
    assert meta == {"kind": "pure_product", "dims": "2x2", "seed": "2"}


@pytest.mark.parametrize("alias, kind", [("product", "pure_product"),
                                         ("separable", "separable_mixture"),
                                         ("mixed", "maximally_mixed")])
def test_a_short_name_writes_its_full_names_file(tmp_path, monkeypatch, capsys, alias, kind):
    monkeypatch.chdir(tmp_path)
    code, short, _ = run_json(capsys, "generate", alias, "--seed", "3", "--out", "short.json")
    code2, full, _ = run_json(capsys, "generate", kind, "--seed", "3", "--out", "full.json")
    assert code == code2 == 0
    assert (tmp_path / "short.json").read_bytes() == (tmp_path / "full.json").read_bytes()
    assert short["digest"] == full["digest"]
    assert short["command"].replace("short.json", "full.json") == full["command"]


def test_generate_offers_every_kind_and_three_short_names():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in sub.choices["generate"]._actions if a.dest == "kind")
    assert kind.choices == sorted(GENERATOR_KINDS + ("product", "separable", "mixed"))


def test_generate_bell_needs_two_qubits(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "generate", "bell", "--dims", "2", "3",
                         "--out", "x.json")
    assert code == 1
    assert out == ""
    assert "InvalidSpec" in err


def test_generate_dims_cap_exits_3_before_drawing(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("generate was called past the dims cap")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qdisent.cli.generate", refuse)
    for dims in (("300", "300"), ("2", "513")):
        code, out, err = run(capsys, "generate", "random", "--dims", *dims,
                             "--out", "x.json")
        assert code == 3
        assert out == ""
        assert err == (f"error: --dims {dims[0]} {dims[1]} exceeds the joint"
                       f" dimension cap 1024\n")
    assert not (tmp_path / "x.json").exists()


def test_count_caps_exit_3_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started past a count cap")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qdisent.cli.generate", refuse)
    monkeypatch.setattr("qdisent.cli.transcription_bench", refuse)
    monkeypatch.setattr("qdisent.cli._run_batch", refuse)
    for argv, line in (
        (("generate", "separable", "--terms", "10001", "--out", "x.json"),
         "error: --terms 10001 exceeds the cap 10000\n"),
        (("generate", "bell", "--terms", "1000000000", "--out", "x.json"),
         "error: --terms 1000000000 exceeds the cap 10000\n"),
        (("bench2q", "--cases", "10001"),
         "error: --cases 10001 exceeds the cap 10000\n"),
        (("generate", "separable", "--dims", "32", "32", "--terms", "10000",
          "--out", "x.json"),
         "error: --terms 10000 x (NA*NB)^2 = 10485760000 exceeds the work cap"
         " 100000000\n"),
        (("disentangle", "--max-iter", "1000001", "missing.json"),
         "error: --max-iter 1000001 exceeds the cap 1000000\n"),
        (("disentangle", "--method", "correlated", "--max-iter", "100000000", "."),
         "error: --max-iter 100000000 exceeds the cap 1000000\n"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", line)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ("generate", "random", "--out", "x.json", "--seed", "-1"),
    ("bench2q", "--seed", "-3"),
])
def test_negative_seed_exits_3(tmp_path, argv):
    proc = run_subprocess(tmp_path, *argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: --seed must be >= 0, got {argv[-1]}\n"
    assert not (tmp_path / "x.json").exists()


# ------------------------------------------------------------------ validate


def test_validate_trace_breach(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path / "t.json", [0.5, 0.5, 0.5, 0.5])
    code, report, _ = run_json(capsys, "validate", "t.json")
    assert code == 1
    assert report["valid"] is False
    assert report["error"].startswith("TraceNotOne")
    # defects still reported for the bad file
    assert abs(report["trace_defect"] - 1.0) < 1e-12
    assert report["hermiticity_defect"] == 0


def test_validate_zero_dim_is_an_invalid_item(tmp_path):
    (tmp_path / "z.json").write_text('{"dims": [0, 5], "rho": []}')
    proc = run_subprocess(tmp_path, "validate", "z.json")
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads(proc.stdout)
    assert report["valid"] is False
    assert report["error"] == ("DimensionMismatch: both subsystem dimensions"
                               " must be >= 2, got (0, 5)")
    # a one-dim grid is not empty, so its defects are still listed
    (tmp_path / "one.json").write_text(dumps_canonical(
        {"dims": [1, 2], "rho": [[[0.5, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.5, 0.0]]]}))
    proc = run_subprocess(tmp_path, "validate", "one.json")
    report = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert report["min_eigenvalue"] == 0.5
    assert report["error"] == ("DimensionMismatch: both subsystem dimensions"
                               " must be >= 2, got (1, 2)")


def test_validate_malformed_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    code, report, _ = run_json(capsys, "validate", "bad.json")
    assert code == 3
    assert report["valid"] is False
    assert report["error"].startswith("StateFormatError")


def test_validate_missing_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, report, _ = run_json(capsys, "validate", "nope.json")
    assert code == 3
    assert report["error"].startswith("StateFormatError")


def test_validate_output_reparses(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "mixed", "--out", "m.json")
    code, out, _ = run(capsys, "validate", "m.json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[0] == "command"
    # canonical text round trips byte for byte
    assert dumps_canonical(doc) == out


# ------------------------------------------------------------------- analyze


def test_analyze_bell(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "bell", "--out", "bell.json")
    code, doc, _ = run_json(capsys, "analyze", "bell.json")
    assert code == 1
    verdict = doc["verdict"]
    assert abs(verdict["ppt_min_eig"] + 0.5) < 1e-9
    assert verdict["ppt_pass"] is False
    assert verdict["red_pass"] is False
    assert verdict["subadditivity_pass"] is True
    assert verdict["araki_lieb_pass"] is True
    assert verdict["all_pass"] is False
    assert abs(verdict["entropy_a"] - np.log(2)) < 1e-12
    assert verdict["entropy_ab"] <= 1e-12
    half = np.eye(2) / 2
    assert np.allclose(as_matrix(doc["reduced_a"]), half, atol=1e-15)
    assert np.allclose(as_matrix(doc["reduced_b"]), half, atol=1e-15)


def test_analyze_separable_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "separable", "--seed", "3", "--out", "s.json")
    code, doc, _ = run_json(capsys, "analyze", "s.json")
    assert code == 0
    assert doc["verdict"]["all_pass"] is True


def test_analyze_red_mode_echo(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "bell", "--out", "bell.json")
    code, doc, _ = run_json(capsys, "analyze", "--red-mode", "literal",
                            "bell.json")
    assert doc["verdict"]["red_mode"] == "literal"
    assert "--red-mode literal" in doc["command"]


# --------------------------------------------------------------- disentangle


def test_disentangle_neumann_bell(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "bell", "--out", "bell.json")
    code, doc, _ = run_json(capsys, "disentangle", "--method", "neumann",
                            "bell.json")
    assert code == 0
    assert doc["command"] == (
        "disentangle --method neumann --p 0.5 --b-re 0 --b-im 0 --m 1"
        " --tol 9.9999999999999998e-13 --max-iter 10000 --damping 0 bell.json"
    )
    assert doc["error"] is None
    assert doc["solver"] is None
    assert np.allclose(as_matrix(doc["product"]), np.eye(4) / 4, atol=1e-15)
    assert abs(doc["frobenius_to_input"] - np.sqrt(3) / 2) < 1e-12
    assert abs(doc["entropy_change"] - np.log(4)) < 1e-12


def test_disentangle_pointer_default_matches_neumann(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "random", "--seed", "4", "--out", "r.json")
    _, base, _ = run_json(capsys, "disentangle", "--method", "neumann",
                          "r.json")
    code, doc, _ = run_json(capsys, "disentangle", "--method", "pointer",
                            "r.json")
    assert code == 0
    assert np.allclose(as_matrix(doc["factor_a"]),
                       as_matrix(base["factor_a"]), atol=1e-12)


def test_disentangle_correlated_product_is_immediate(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "product", "--seed", "5", "--out", "p.json")
    code, doc, _ = run_json(capsys, "disentangle", "--method", "correlated",
                            "p.json")
    assert code == 0
    assert doc["error"] is None
    assert doc["solver"]["converged"] is True
    assert doc["solver"]["iterations"] <= 2
    assert doc["solver"]["residual_a"] < 1e-12
    assert doc["solver"]["residual_b"] < 1e-12


def test_disentangle_nonconvergence_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "random", "--seed", "1", "--out", "r.json")
    code, doc, _ = run_json(capsys, "disentangle", "--method", "correlated",
                            "--max-iter", "1", "r.json")
    assert code == 2
    assert doc["error"].startswith("NonConvergence")
    assert doc["solver"]["iterations"] == 1
    assert doc["solver"]["converged"] is False
    # best-effort factors still emitted
    assert doc["factor_a"] is not None
    assert doc["product"] is not None


def test_neumann_factors_can_fail_validation_the_input_passed(
        tmp_path, monkeypatch, capsys):
    # I/4 with four imaginary entries of 4.5e-10 that are not mirrored:
    # defect 0.9e-9 in, but each partial trace sums two of them, so the
    # von Neumann factors carry 1.8e-9 and their product is refused
    grid = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
            for i in range(4)]
    for i, j in ((0, 2), (2, 0), (1, 3), (3, 1)):
        grid[i][j][1] = 4.5e-10
    (tmp_path / "h.json").write_text(dumps_canonical({"dims": [2, 2], "rho": grid}))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "validate", "h.json")
    assert code == 0
    assert '"hermiticity_defect": 8.9999999999999999e-10,' in out
    code, doc, _ = run_json(capsys, "disentangle", "--method", "neumann", "h.json")
    assert code == 1
    assert doc["product"] is None
    assert doc["factor_a"] is not None and doc["factor_b"] is not None
    assert doc["error"] == ("NotHermitian: hermiticity defect 1.800e-09"
                            " exceeds tol 1.000e-09")
    for method in ("correlated", "pointer"):
        code, doc, _ = run_json(capsys, "disentangle", "--method", method, "h.json")
        assert (code, doc["error"]) == (0, None)


# --------------------------------------------------------------------- batch


def test_batch_exit_is_worst_item(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    run(capsys, "generate", "bell", "--out", "d/bell.json")
    run(capsys, "generate", "separable", "--seed", "3", "--out", "d/sep.json")
    code, doc, _ = run_json(capsys, "analyze", "d")
    assert code == 1
    assert [item["input"] for item in doc["items"]] == [
        "d/bell.json", "d/sep.json"
    ]
    assert doc["items"][0]["verdict"]["all_pass"] is False
    assert doc["items"][1]["verdict"]["all_pass"] is True


def test_batch_format_error_dominates(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    run(capsys, "generate", "bell", "--out", "d/bell.json")
    (tmp_path / "d" / "junk.json").write_text("{oops")
    code, doc, _ = run_json(capsys, "validate", "d")
    assert code == 3
    inputs = [item["input"] for item in doc["items"]]
    assert inputs == sorted(inputs)
    assert len(doc["items"]) == 2


def test_batch_needs_json_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty").mkdir()
    code, out, err = run(capsys, "validate", "empty")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def _deny(monkeypatch, method, denied):
    """Make ``Path.<method>`` raise EACCES for every path ``denied(path)`` holds.

    Root reads and lists a mode-000 path, so ``chmod`` cannot show this
    on every host.
    """
    real = getattr(Path, method)

    def refuse(self, *args, **kwargs):
        if denied(self):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return real(self, *args, **kwargs)
    monkeypatch.setattr(Path, method, refuse)


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_a_file_that_cannot_be_reached_is_its_items_error(tmp_path, monkeypatch, capsys,
                                                          command):
    # a file in a directory that cannot be searched: its stat and its
    # open fail with EACCES, which Path.is_dir does not swallow
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path / "one.json", [0.25] * 4)
    for method in ("stat", "open"):
        _deny(monkeypatch, method, lambda path: path.name == "one.json")
    code, report, err = run_json(capsys, command, "one.json")
    assert (code, err) == (3, "")
    assert report["error"] == ("StateFormatError: cannot read one.json:"
                               " [Errno 13] Permission denied: 'one.json'")


def test_a_name_too_long_is_its_items_error(tmp_path, monkeypatch, capsys):
    # Path.is_dir raises ENAMETOOLONG too, on any host and as any user
    monkeypatch.chdir(tmp_path)
    name = "x" * 300
    code, report, err = run_json(capsys, "validate", name)
    assert (code, err) == (3, "")
    assert report["error"] == (f"StateFormatError: cannot read {name}: [Errno"
                               f" {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}:"
                               f" '{name}'")


@pytest.mark.parametrize("method, denied", [
    ("iterdir", lambda path: path.name == "d"),
    ("stat", lambda path: path.parent.name == "d"),
], ids=["the listing", "an entry's stat"])
def test_a_directory_that_cannot_be_listed_exits_3(tmp_path, monkeypatch, capsys,
                                                   method, denied):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    write_doc(tmp_path / "d" / "one.json", [0.25] * 4)
    _deny(monkeypatch, method, denied)
    code, out, err = run(capsys, "validate", "d")
    assert (code, out) == (3, "")
    path = "d" if method == "iterdir" else "d/one.json"
    assert err == f"error: cannot list d: [Errno 13] Permission denied: '{path}'\n"


@pytest.mark.parametrize("command", ["validate", "analyze", "disentangle"])
def test_an_empty_path_exits_3_before_any_listing(tmp_path, monkeypatch, capsys, command):
    # Path("") is the current directory, here one that holds a state file
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path / "one.json", [0.25] * 4)
    _deny(monkeypatch, "iterdir", lambda path: True)
    code, out, err = run(capsys, command, "")
    assert (code, out, err) == (3, "", "error: path must not be empty\n")


def test_an_empty_out_exits_3_before_generating(tmp_path, monkeypatch, capsys):
    # Path("") is the current directory, whose write fails only after the draw
    def refuse(*args, **kwargs):
        raise AssertionError("generate was called with an empty --out")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qdisent.cli.generate", refuse)
    code, out, err = run(capsys, "generate", "bell", "--out", "")
    assert (code, out, err) == (3, "", "error: --out must not be empty\n")


# ----------------------------------------------------------------- tolerance


def test_env_tol_is_used(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path / "near.json", [0.25 + 1e-6, 0.25, 0.25, 0.25])
    code, report, _ = run_json(capsys, "validate", "near.json")
    assert code == 1
    assert report["error"].startswith("TraceNotOne")

    monkeypatch.setenv("QDISENT_TOL", "1e-3")
    code, report, _ = run_json(capsys, "validate", "near.json")
    assert code == 0
    assert report["valid"] is True
    assert "--tol 0.001" in report["command"]


def test_flag_overrides_env_tol(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path / "near.json", [0.25 + 1e-6, 0.25, 0.25, 0.25])
    monkeypatch.setenv("QDISENT_TOL", "1e-3")
    code, report, _ = run_json(capsys, "validate", "--tol", "1e-9",
                               "near.json")
    assert code == 1
    assert report["error"].startswith("TraceNotOne")


def test_bad_env_tol_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path / "ok.json", [0.25, 0.25, 0.25, 0.25])
    for bad in ("bogus", "-1", "0", "nan", "inf"):
        monkeypatch.setenv("QDISENT_TOL", bad)
        code, out, err = run(capsys, "validate", "ok.json")
        assert code == 3
        assert err.startswith("error:")


# --------------------------------------------------------------- usage / fmt


def test_usage_errors_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "bogus")[0] == 3
    assert run(capsys)[0] == 3
    assert run(capsys, "generate", "bell")[0] == 3
    assert run(capsys, "validate", "--tol", "0", "x.json")[0] == 3
    assert run(capsys, "disentangle", "--damping", "1.5", "x.json")[0] == 3
    assert run(capsys, "disentangle", "--m", "0", "x.json")[0] == 3
    assert run(capsys, "bench2q", "--cases", "0")[0] == 3


@pytest.mark.parametrize("env, argv, err", [
    ({}, (),
     "usage: qdisent [-h] command ...\n"
     "qdisent: error: the following arguments are required: command\n"),
    ({}, ("disentangle", "--bogus", "x.json"),
     "usage: qdisent [-h] command ...\n"
     "qdisent: error: unrecognized arguments: --bogus\n"),
    ({}, ("analyze", "--red-mode", "nope", "x.json"),
     "usage: qdisent analyze [-h] [--tol TOL] [--red-mode {standard,literal}]"
     " path\n"
     "qdisent analyze: error: argument --red-mode: invalid choice: 'nope'"
     " (choose from 'standard', 'literal')\n"),
    ({}, ("validate", "--tol", "0", "x.json"),
     "error: --tol must be positive, got 0.0\n"),
    ({}, ("disentangle", "--damping", "1.5", "x.json"),
     "error: --damping must sit in [0, 1), got 1.5\n"),
    ({"QDISENT_TOL": "abc"}, ("validate", "x.json"),
     "error: QDISENT_TOL must be a number, got 'abc'\n"),
    ({}, ("generate", "bell", "--dims", "64", "64", "--out", "x.json"),
     "error: --dims 64 64 exceeds the joint dimension cap 1024\n"),
    ({}, ("validate", "empty"),
     "error: no .json state files in empty\n"),
], ids=["no_command", "unknown_flag", "bad_choice", "zero_tol", "damping",
        "env_tol", "dims_cap", "empty_dir"])
def test_failure_routes_exit_3_with_exact_stderr(tmp_path, monkeypatch, capsys,
                                                 env, argv, err):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty").mkdir()
    # the usage line wraps at a fixed width, whatever the terminal's
    for columns in ("40", "80", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        assert run(capsys, *argv) == (3, "", err), columns
    assert not (tmp_path / "x.json").exists()


def test_unwritable_out_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "generate", "bell", "--out", "missing/x.json") == (
        3, "", "error: cannot write missing/x.json: [Errno 2] No such file or"
               " directory: 'missing/x.json'\n")


def test_main_reuses_one_parser_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    # main shares one parser per process; build_parser hands out fresh ones
    assert build_parser() is not build_parser()
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path / "s.json", [0.4, 0.3, 0.2, 0.1], corner=0.05)
    assert run(capsys, "disentangle", "--bogus", "s.json")[0] == 3
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: qdisent")
    assert run(capsys, "disentangle", "--m", "2", "--damping", "0.3", "s.json")[0] == 0
    code, out, _ = run(capsys, "disentangle", "s.json")
    fresh = run_subprocess(tmp_path, "disentangle", "s.json")
    assert (code, out) == (fresh.returncode, fresh.stdout)


def test_bench2q_small_run(capsys):
    code, out, _ = run(capsys, "bench2q", "--cases", "40")
    assert code == 0
    assert "result: pass" in out
    code2, out2, _ = run(capsys, "bench2q", "--cases", "40")
    assert out2 == out


@pytest.mark.parametrize("flags", [
    ("validate", "--tol", "nan"),
    ("analyze", "--tol", "inf"),
    ("disentangle", "--tol", "nan"),
    ("disentangle", "--method", "pointer", "--p", "nan"),
    ("disentangle", "--method", "neumann", "--b-im", "inf"),
])
def test_non_finite_flags_exit_3(tmp_path, flags):
    write_doc(tmp_path / "ok.json", [0.25, 0.25, 0.25, 0.25])
    proc = run_subprocess(tmp_path, *flags, "ok.json")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    name, value = flags[-2:]
    assert proc.stderr == f"error: {name} must be finite, got {value}\n"


@pytest.mark.parametrize("cmd", ["validate", "analyze"])
@pytest.mark.parametrize("data, text", [
    (b'{"dims": [2, 2], "meta": {"k": "\xe9"}}\n', "is not UTF-8 text: "),
    (b"[" * 200000 + b"]" * 200000, "nests too deeply to parse"),
    (b'{"dims": [' + b"9" * 5000 + b', 2]}\n', "holds an integer longer than 4300 digits"),
], ids=["non_utf8", "deep_nesting", "long_integer"])
def test_unreadable_file_exits_3(tmp_path, cmd, data, text):
    (tmp_path / "bad.json").write_bytes(data)
    proc = run_subprocess(tmp_path, cmd, "bad.json")
    assert proc.returncode == 3
    assert f'"error": "StateFormatError: bad.json {text}' in proc.stdout
    assert "Traceback" not in proc.stderr


# the same two parse failures in this process, where a line tracer over
# the suite sees load_document's branches for them
@pytest.mark.parametrize("name, data, text", [
    ("deep.json", b"[" * 200000 + b"]" * 200000, "nests too deeply to parse"),
    ("long.json", b'{"dims": [' + b"9" * (sys.get_int_max_str_digits() + 700) + b', 2]}\n',
     f"holds an integer longer than {sys.get_int_max_str_digits()} digits"),
], ids=["deep_nesting", "long_integer"])
def test_unparsable_file_is_a_format_error_in_process(tmp_path, monkeypatch, capsys,
                                                       name, data, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(data)
    code, doc, err = run_json(capsys, "validate", name)
    assert (code, err) == (3, "")
    assert doc["error"] == f"StateFormatError: {name} {text}"


@pytest.mark.parametrize("cmd", ["analyze", "disentangle"])
def test_linalg_error_is_an_invalid_item(tmp_path, monkeypatch, capsys, cmd):
    write_doc(tmp_path / "s.json", [0.25, 0.25, 0.25, 0.25])

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def no_convergence(a, signature):
        # how numpy's eigensolve gufuncs report a LAPACK failure: nan
        # out and the invalid flag raised, which core._eigh's error
        # state turns into LinAlgError
        return np.sqrt(np.full(a.shape[-1], -1.0))

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(core, "_umath_linalg",
                        SimpleNamespace(eigh_lo=no_convergence, eigvalsh_lo=no_convergence))
    code, doc, _ = run_json(capsys, cmd, str(tmp_path / "s.json"))
    assert code == 1
    assert doc["error"] == "LinAlgError: Eigenvalues did not converge"


def _plant_nan_factor(monkeypatch, nan_call):
    """Give a nan to factor_a of the ``nan_call``-th disentanglement_report call.

    Returns the list of calls made so far.
    """
    calls = []

    def with_nan(*args, **kwargs):
        reps = disentanglement_report(*args, **kwargs)
        calls.append(reps)
        if len(calls) != nan_call:
            return reps
        factor = reps[0].factor_a.copy()
        factor[1, 0] = complex(0.5, np.nan)
        return [dataclasses.replace(reps[0], factor_a=factor)]

    monkeypatch.setattr("qdisent.cli.disentanglement_report", with_nan)
    return calls


def _two_file_batch(tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_doc(batch / "a.json", [0.25, 0.25, 0.25, 0.25])
    write_doc(batch / "b.json", [0.5, 0.5, 0.0, 0.0])
    return batch


def _unrenderable_batch(tmp_path, monkeypatch):
    """(batch directory, calls): two files, only the second item's report holds a nan."""
    return _two_file_batch(tmp_path), _plant_nan_factor(monkeypatch, 2)


def test_unrenderable_report_exits_3(tmp_path, monkeypatch, capsys):
    # no state reaches a NaN factor; a report that holds one anyway fails
    # the canonical render, which no item owns: alone, or as the second
    # item of a batch whose first item rendered, nothing reaches stdout
    write_doc(tmp_path / "s.json", [0.25, 0.25, 0.25, 0.25])
    _plant_nan_factor(monkeypatch, 1)
    error = "error: StateFormatError: non-finite value nan cannot be serialized\n"
    assert run(capsys, "disentangle", str(tmp_path / "s.json")) == (3, "", error)
    batch, calls = _unrenderable_batch(tmp_path, monkeypatch)
    assert run(capsys, "disentangle", str(batch)) == (3, "", error)
    assert len(calls) == 2


BATCH_COMMANDS = {
    "validate": ("validate",),
    "analyze": ("analyze",),
    "correlated": ("disentangle", "--method", "correlated"),
    "neumann": ("disentangle", "--method", "neumann"),
    "pointer": ("disentangle", "--method", "pointer"),
}


@pytest.mark.parametrize("cmd", BATCH_COMMANDS.values(), ids=BATCH_COMMANDS.keys())
def test_batch_report_nests_the_single_file_reports(tmp_path, monkeypatch, capsys, cmd):
    # the batch report is the canonical render of its items, each the
    # single-file report of the same path without its command: a 16x16
    # and a 64x64 product (rendered from their upper triangles; the 8x8
    # item's text, about 200 KB, crosses many copy blocks), a 3x2 state,
    # an exit-1 and an exit-3 item, and an input path that needs JSON
    # escapes
    monkeypatch.chdir(tmp_path)
    batch = Path("batch")
    batch.mkdir()
    save_state(batch / "3x2.json", random_state((3, 2), seed=2))
    save_state(batch / "4x4.json", random_state((4, 4), seed=3))
    save_state(batch / "8x8.json", random_state((8, 8), seed=4))
    (batch / "bad.json").write_text("{")
    write_doc(batch / "notpsd.json", [1.5, -0.5, 0.0, 0.0])
    write_doc(batch / 'q"\u00e9.json', [0.5, 0.0, 0.0, 0.5], corner=0.25)
    worst, items = 0, []
    for name in sorted(os.listdir(batch)):
        code, report, err = run_json(capsys, *cmd, str(batch / name))
        assert err == ""
        del report["command"]
        worst = max(worst, code)
        items.append(report)
    failed = {item["input"] for item in items if item.get("error")}
    assert {"batch/bad.json", "batch/notpsd.json"} <= failed
    if cmd[-1] in ("correlated", "neumann"):  # pointer needs n_b = 2
        for item, n in zip(items[1:3], (16, 64)):
            product = as_matrix(item["product"])
            assert product.shape == (n, n)
            assert np.array_equal(product, product.conj().T)
    code, out, err = run(capsys, *cmd, str(batch))
    command = json.loads(out)["command"]
    assert command.endswith(" batch")
    assert (code, out, err) == (
        worst, dumps_canonical({"command": command, "items": items}), "")


def test_batch_report_is_written_in_blocks(tmp_path, monkeypatch):
    # three 4x4 states, each item with a 16x16 product: the report spans
    # several blocks, and each reaches stdout as one write of at most
    # io.DEFAULT_BUFFER_SIZE characters
    for seed in range(3):
        save_state(tmp_path / f"{seed}.json", random_state((4, 4), seed=seed))
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["disentangle", str(tmp_path)]) == 0
    text = "".join(writes)
    assert len(json.loads(text)["items"]) == 3
    assert len(writes) == -(-len(text) // io.DEFAULT_BUFFER_SIZE) > 2
    assert max(map(len, writes)) == io.DEFAULT_BUFFER_SIZE


@pytest.mark.parametrize("cmd", ["validate", "analyze", "disentangle"])
def test_each_item_opens_its_file_once(tmp_path, monkeypatch, capsys, cmd):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_doc(batch / "a.json", [0.25, 0.25, 0.25, 0.25])
    write_doc(batch / "b.json", [0.5, 0.5, 0.0, 0.0])
    opened = []
    real_open = io.open

    def spy(file, *args, **kwargs):
        opened.append(os.path.basename(os.fspath(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    code, doc, _ = run_json(capsys, cmd, str(batch))
    assert code == 0
    # besides its state files, a batch opens its report spool, which
    # tempfile opens through the temporary directory's path
    spool = os.path.basename(tempfile.gettempdir())
    assert sorted(opened) == sorted(["a.json", "b.json", spool])
    for item in doc["items"]:
        data = (batch / os.path.basename(item["input"])).read_bytes()
        assert item["digest"] == "sha256:" + hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cmd", ["validate", "analyze", "disentangle"])
@pytest.mark.parametrize("diag, corner", [
    ([0.25, 0.25, 0.25, 0.25], 1e308), ([1e308, 1e308, 1e308, 1e308], None),
], ids=["off_diagonal", "diagonal"])
def test_overflowing_entries_print_no_warning(tmp_path, cmd, diag, corner):
    # m + m^dag or the trace overflows and the eigensolve fails: an
    # invalid item, reported on stdout only
    write_doc(tmp_path / "big.json", diag, corner=corner)
    proc = run_subprocess(tmp_path, cmd, "big.json")
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert '"error": "LinAlgError: Eigenvalues did not converge"' in proc.stdout


# I/4 on dims (2, 2) with a pair of entries near the double limit: every
# entry is finite, but the hermitized matrix (mirrored pair) or the
# hermiticity defect (unmirrored pair) overflows.  Per file: the entries
# set, the defects validate can still report, the item's error.
NON_FINITE_FILES = {
    "mirrored": ({(2, 3): -1e308, (3, 2): -1e308},
                 {"hermiticity_defect": 0.0, "trace_defect": 0.0},
                 "NotPSD: smallest eigenvalue nan is not finite"),
    "unmirrored": ({(0, 1): 1e308, (1, 0): -1e308},
                   {"trace_defect": 0.0, "min_eigenvalue": 0.25},
                   "NotHermitian: hermiticity defect inf is not finite"),
}

DEFAULT_ECHO = {
    "validate": "validate --tol 1.0000000000000001e-09",
    "analyze": "analyze --tol 1.0000000000000001e-09 --red-mode standard",
    "disentangle": ("disentangle --method correlated --p 0.5 --b-re 0 --b-im 0"
                    " --m 1 --tol 9.9999999999999998e-13 --max-iter 10000"
                    " --damping 0"),
}

HALF_I2 = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]

# the report fields of `generate bell`'s file after its dims
BELL_FIELDS = {
    "validate": {"hermiticity_defect": 0.0, "trace_defect": 0.0,
                 "min_eigenvalue": 0.0, "valid": True, "error": None},
    "analyze": {
        "verdict": {"ppt_min_eig": -0.5, "ppt_pass": False,
                    "red_min_eig_a": -0.5, "red_min_eig_b": -0.5,
                    "red_pass": False, "red_mode": "standard",
                    "entropy_ab": 0.0, "entropy_a": 0.69314718055994529,
                    "entropy_b": 0.69314718055994529,
                    "subadditivity_pass": True, "araki_lieb_pass": True,
                    "all_pass": False},
        "reduced_a": HALF_I2, "reduced_b": HALF_I2},
    "disentangle": {
        "method": "correlated", "factor_a": HALF_I2, "factor_b": HALF_I2,
        "product": [[[0.25 if i == j else 0, 0] for j in range(4)]
                    for i in range(4)],
        "frobenius_to_input": 0.8660254037844386, "entropy_input": 0.0,
        "entropy_product": 1.3862943611198906,
        "entropy_change": 1.3862943611198906,
        "solver": {"iterations": 1, "converged": True, "residual_a": 0.0,
                   "residual_b": 0.0, "final_step_a": 0.0,
                   "final_step_b": 0.0, "max_herm_defect": 0.0,
                   "min_eig_seen": 0.5},
        "error": None},
}


@pytest.mark.parametrize("cmd", ["validate", "analyze", "disentangle"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_FILES))
def test_non_finite_defect_is_an_invalid_item(tmp_path, monkeypatch, capsys,
                                              cmd, name):
    # alone and in a batch: exit 1, nothing on stderr, and a batch keeps
    # the valid file's item; validate leaves the non-finite defect out
    entries, defects, error = NON_FINITE_FILES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    run(capsys, "generate", "bell", "--out", "d/bell.json")
    grid = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    for (i, j), value in entries.items():
        grid[i][j] = [value, 0.0]
    path = f"d/{name}.json"
    Path(path).write_text(dumps_canonical({"dims": [2, 2], "rho": grid}))
    item: dict = {"input": path}
    if cmd == "validate":
        item.update(digest=file_digest(path), dims=[2, 2], **defects, valid=False)
    item["error"] = error
    bell = {"input": "d/bell.json", "digest": file_digest("d/bell.json"),
            "dims": [2, 2], **BELL_FIELDS[cmd]}
    echo = DEFAULT_ECHO[cmd]
    assert run(capsys, cmd, path) == (
        1, dumps_canonical({"command": f"{echo} {path}", **item}), "")
    assert run(capsys, cmd, "d") == (
        1, dumps_canonical({"command": f"{echo} d", "items": [bell, item]}), "")


# I/4 with small edits that validate accepts.  In "a" the partial trace
# over B sums two imaginary parts, so it is not hermitian within tol;
# "b" is not exactly hermitian, so its entropy re-solves the spectrum
# from the lower triangle, which sits below -tol
NEAR_BOUND_EDITS = {
    "a": (1, dict.fromkeys([(0, 2), (2, 0), (1, 3), (3, 1)], 4.5e-10)),
    "b": (0, {(0, 1): 0.25 + 0.3e-9, (1, 0): 0.25 + 1.2e-9}),
    "i4": (0, {}),
}
HERM_A = "NotHermitian: hermiticity defect 1.800e-09 exceeds tol 1.000e-09"
PSD_B = "NotPSD: smallest eigenvalue -1.200e-09 is below -tol -1.000e-09"
QUARTER = [[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]
LN4 = 1.3862943611198906
I4_PAIR = {"factor_a": HALF_I2, "factor_b": HALF_I2, "product": QUARTER,
           "frobenius_to_input": 0.0, "entropy_input": LN4, "entropy_product": LN4,
           "entropy_change": 0.0}
# (exit code, report fields after dims) of each file, per command
NEAR_BOUND_ITEMS = {
    "analyze": {
        "a": (1, {"error": HERM_A}),
        "b": (1, {"error": PSD_B}),
        "i4": (0, {"verdict": {"ppt_min_eig": 0.25, "ppt_pass": True,
                               "red_min_eig_a": 0.25, "red_min_eig_b": 0.25,
                               "red_pass": True, "red_mode": "standard",
                               "entropy_ab": LN4, "entropy_a": 0.69314718055994529,
                               "entropy_b": 0.69314718055994529,
                               "subadditivity_pass": True, "araki_lieb_pass": True,
                               "all_pass": True},
                   "reduced_a": HALF_I2, "reduced_b": HALF_I2}),
    },
    "correlated": {
        "a": (0, {"method": "correlated", "factor_a": HALF_I2, "factor_b": HALF_I2,
                  "product": QUARTER, "frobenius_to_input": 9e-10,
                  "entropy_input": 1.3862943611198908, "entropy_product": LN4,
                  "entropy_change": -2.2204460492503131e-16,
                  "solver": {"iterations": 2, "converged": True, "residual_a": 0.0,
                             "residual_b": 0.0, "final_step_a": 0.0,
                             "final_step_b": 0.0, "max_herm_defect": 1.8e-09,
                             "min_eig_seen": 0.5},
                  "error": None}),
        "b": (1, {"error": PSD_B}),
        "i4": (0, {"method": "correlated", **I4_PAIR,
                   "solver": {"iterations": 1, "converged": True, "residual_a": 0.0,
                              "residual_b": 0.0, "final_step_a": 0.0,
                              "final_step_b": 0.0, "max_herm_defect": 0.0,
                              "min_eig_seen": 0.5},
                   "error": None}),
    },
    "neumann": {
        "a": (1, {"method": "neumann",
                  "factor_a": [[[0.5, 0], [0, 9e-10]], [[0, 9e-10], [0.5, 0]]],
                  "factor_b": HALF_I2, "product": None, "frobenius_to_input": None,
                  "entropy_input": 1.3862943611198908, "entropy_product": None,
                  "entropy_change": None, "solver": None, "error": HERM_A}),
        "b": (1, {"error": PSD_B}),
        "i4": (0, {"method": "neumann", **I4_PAIR, "solver": None, "error": None}),
    },
}


@pytest.mark.parametrize("key", sorted(NEAR_BOUND_ITEMS))
def test_library_error_after_load_is_an_invalid_item(tmp_path, monkeypatch, capsys,
                                                     key):
    # a library error raised after a state loads is that item's error,
    # exit 1: alone and in a batch, where the other items keep their reports
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    expected = NEAR_BOUND_ITEMS[key]
    argv = ["analyze"] if key == "analyze" else ["disentangle", "--method", key]
    echo = DEFAULT_ECHO[argv[0]].replace("correlated", key)
    items, worst = [], 0
    for name, (part, entries) in NEAR_BOUND_EDITS.items():
        grid = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        for (i, j), value in entries.items():
            grid[i][j][part] = value
        path = f"d/{name}.json"
        Path(path).write_text(dumps_canonical({"dims": [2, 2], "rho": grid}))
        code, fields = expected[name]
        item = {"input": path, "digest": file_digest(path), "dims": [2, 2], **fields}
        assert run(capsys, *argv, path) == (
            code, dumps_canonical({"command": f"{echo} {path}", **item}), "")
        items.append(item)
        worst = max(worst, code)
    assert run(capsys, *argv, "d") == (
        worst, dumps_canonical({"command": f"{echo} d", "items": items}), "")


# ----------------------------------------------------------------- collector


@pytest.fixture
def default_gc_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    yield
    gc.set_threshold(*saved)


def test_no_collection_starts_while_an_item_runs(tmp_path, capsys, default_gc_thresholds):
    # a 200 KB 8x8 state file read on json's route is a tree of about
    # 4,160 lists, which would set off young collections; none can find a
    # cycle in a parse tree, so items run with the collector paused.  The
    # escape its meta needs keeps this file off the grid route, whose one
    # list of floats would set off none
    path = str(tmp_path / "s.json")
    save_state(path, random_state((8, 8), seed=4), meta={"note": "é"})
    assert _parse_grid(Path(path).read_bytes()) is None
    assert run(capsys, "validate", path)[0] == 0  # a warm-up run: first-use setup is done
    assert gc.isenabled()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        code = main(["validate", path])
    finally:
        gc.callbacks.remove(hook)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert starts == []


def _one_valid_file(tmp_path, monkeypatch):
    write_doc(tmp_path / "s.json", [0.25, 0.25, 0.25, 0.25])
    return ["validate", str(tmp_path / "s.json")], 0


def _exit_1_and_exit_3_items(tmp_path, monkeypatch):
    write_doc(tmp_path / "notpsd.json", [1.5, -0.5, 0.0, 0.0])
    (tmp_path / "bad.json").write_text("{")
    return ["analyze", str(tmp_path)], 3


def _unrenderable(tmp_path, monkeypatch):
    batch, _ = _unrenderable_batch(tmp_path, monkeypatch)
    return ["disentangle", str(batch)], 3


def _usage_error(tmp_path, monkeypatch):
    return ["disentangle", "--m", "0", str(tmp_path / "s.json")], 3


def _spool_cannot_be_created(tmp_path, monkeypatch):
    _failing_spool(monkeypatch, "create")
    return ["disentangle", str(_two_file_batch(tmp_path))], 3


def _spool_cannot_be_written(tmp_path, monkeypatch):
    _failing_spool(monkeypatch, "write")
    return ["disentangle", str(_two_file_batch(tmp_path))], 3


COLLECTOR_CASES = [_one_valid_file, _exit_1_and_exit_3_items, _unrenderable, _usage_error,
                   _spool_cannot_be_created, _spool_cannot_be_written]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", COLLECTOR_CASES,
                         ids=[case.__name__.strip("_") for case in COLLECTOR_CASES])
def test_main_leaves_the_collector_as_its_caller_had_it(tmp_path, monkeypatch, capsys,
                                                        case, enabled):
    argv, expected = case(tmp_path, monkeypatch)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == expected
    assert after is enabled


@pytest.mark.parametrize("cmd", ["validate", "analyze", "disentangle"])
def test_a_batch_leaves_no_cycles(tmp_path, capsys, cmd):
    # the pause costs no memory: a batch, error items included, leaves
    # nothing for the collector to reclaim
    save_state(tmp_path / "4x4.json", random_state((4, 4), seed=3))
    write_doc(tmp_path / "notpsd.json", [1.5, -0.5, 0.0, 0.0])
    (tmp_path / "bad.json").write_text("{")
    assert run(capsys, cmd, str(tmp_path))[0] == 3  # warm-up
    gc.collect()
    assert run(capsys, cmd, str(tmp_path))[0] == 3
    assert gc.collect() == 0


# --------------------------------------------------------------------- spool


def _failing_spool(monkeypatch, fails):
    """Make the report spool fail on ``create`` or on one of its own methods.

    ``fails`` is ``create``, ``write`` or ``flush`` (a full disk),
    ``seek`` or ``read`` (an I/O error), or None (no failure).  Like a
    file's, the spool's ``close`` flushes it first.  Returns the spools
    made.
    """
    made = []
    code = errno.EIO if fails in ("seek", "read") else errno.ENOSPC

    def fail(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    class Spool(io.StringIO):
        def close(self):
            try:
                self.flush()
            finally:
                super().close()

    def create(*args, **kwargs):
        if fails == "create":
            fail()
        made.append(Spool())
        if fails is not None:
            setattr(made[-1], fails, fail)
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", create)
    return made


SPOOL_ERRORS = {
    "create": "error: cannot create the report spool: [Errno 28] No space left on device\n",
    "write": "error: StateFormatError: cannot write the report spool:"
             " [Errno 28] No space left on device\n",
    "flush": "error: StateFormatError: cannot write the report spool:"
             " [Errno 28] No space left on device\n",
    "seek": "error: StateFormatError: cannot read the report spool:"
            " [Errno 5] Input/output error\n",
    "read": "error: StateFormatError: cannot read the report spool:"
            " [Errno 5] Input/output error\n",
}


def _count_loads(monkeypatch, fail_at=None):
    """Count the files ``main`` loads; the load number ``fail_at`` raises a bare OSError."""
    loaded = []
    load = cli.load_document

    def counted(path):
        loaded.append(path)
        if len(loaded) == fail_at:
            raise OSError(errno.EIO, "Input/output error")
        return load(path)

    monkeypatch.setattr(cli, "load_document", counted)
    return loaded


@pytest.mark.parametrize("fails", SPOOL_ERRORS)
def test_a_spool_failure_exits_3_with_nothing_on_stdout(tmp_path, monkeypatch, capsys,
                                                         fails):
    batch = _two_file_batch(tmp_path)
    spools = _failing_spool(monkeypatch, fails)
    loaded = _count_loads(monkeypatch)
    assert run(capsys, "disentangle", str(batch)) == (3, "", SPOOL_ERRORS[fails])
    assert [spool.closed for spool in spools] == ([] if fails == "create" else [True])
    # a spool that cannot take the report's first text runs no item
    assert len(loaded) == (0 if fails in ("create", "write") else 2)
    # a single file opens no spool
    assert run(capsys, "disentangle", str(batch / "a.json"))[0] == 0
    assert len(spools) == (fails != "create")


def test_an_items_own_os_error_is_no_spool_error(tmp_path, monkeypatch, capsys):
    # only the spool's own calls map an OSError to a spool error: one
    # raised while an item runs leaves ``main`` as itself
    batch = _two_file_batch(tmp_path)
    spools = _failing_spool(monkeypatch, None)
    _count_loads(monkeypatch, fail_at=2)
    with pytest.raises(OSError) as info:
        main(["disentangle", str(batch)])
    assert type(info.value) is OSError
    assert str(info.value) == "[Errno 5] Input/output error"
    assert [spool.closed for spool in spools] == [True]
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_spool_on_a_full_device_exits_3_without_a_traceback(tmp_path, monkeypatch,
                                                               capsys):
    # a real file that failed a write fails its close too; that second
    # error must not replace the first
    batch = _two_file_batch(tmp_path)
    save_state(batch / "c.json", random_state((4, 4), seed=1))
    spools = []

    def create(*args, **kwargs):
        spools.append(open("/dev/full", "w+", encoding="utf-8"))
        return spools[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", create)
    assert run(capsys, "disentangle", str(batch)) == (3, "", SPOOL_ERRORS["write"])
    assert [spool.closed for spool in spools] == [True]


class _Discard:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_batch_memory_stays_flat_as_the_file_count_grows(tmp_path, monkeypatch, capsys):
    # item texts wait in the spool, not in memory: three times the files
    # raise a batch's traced peak by less than one item's text
    batches = []
    for count in (4, 12):
        batch = tmp_path / str(count)
        batch.mkdir()
        for i in range(count):
            save_state(batch / f"{i:02d}.json", random_state((4, 4), seed=i))
        batches.append(str(batch))
    item_text = len(run(capsys, "disentangle", os.path.join(batches[0], "00.json"))[1])
    monkeypatch.setattr(sys, "stdout", _Discard())
    assert main(["disentangle", batches[0]]) == 0  # warm-up
    peaks = []
    tracemalloc.start()
    try:
        for batch in batches:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["disentangle", batch]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < item_text


# ------------------------------------------------------------- full stdout

WRITE_ERROR = "error: cannot write the report: [Errno 28] No space left on device\n"


class _FullStdout(io.StringIO):
    """A stdout on a full disk: ``write`` or only ``flush`` raises ENOSPC.

    A buffered stdout takes a short report and fails when it is flushed.
    """

    def __init__(self, fails):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def flush(self):
        if not self.closed:
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("cmd", [["validate", "a.json"], ["disentangle", "."],
                                 ["generate", "bell", "--out", "g.json"],
                                 ["bench2q", "--cases", "2"], ["--help"]],
                         ids=["single", "batch", "generate", "bench2q", "help"])
def test_a_report_that_cannot_be_written_exits_3(tmp_path, monkeypatch, capsys, cmd,
                                                 fails):
    # one error line, exit 3, and stdout closed, so that nothing is left
    # for the interpreter's own flush at exit
    monkeypatch.chdir(_two_file_batch(tmp_path))
    out = _FullStdout(fails)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(cmd) == 3
    assert capsys.readouterr().err == WRITE_ERROR
    assert out.closed


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("cmd", [["validate", "a.json"], ["disentangle", "."],
                                 ["--help"], ["disentangle", "--help"]],
                         ids=["single", "batch", "help", "command-help"])
def test_a_full_disk_on_stdout_exits_3_without_a_traceback(tmp_path, cmd, unbuffered):
    # argparse swallows a failed write of its own help text, so with
    # stdout unbuffered only the report write can see the full disk
    batch = _two_file_batch(tmp_path)
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = run_subprocess(batch, *cmd, stdout=full, unbuffered=unbuffered)
    # no traceback, and no "Exception ignored" from the flush at exit
    assert (proc.returncode, proc.stderr) == (3, WRITE_ERROR)


# ---------------------------------------------------------------- noisy Bell


def _noisy_bell(eps):
    """(1 - eps)|Phi+><Phi+| + eps diag(0.7, 0.3) x diag(0.6, 0.4)."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    noise = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
    return ((1.0 - eps) * np.outer(phi, phi) + eps * noise).astype(complex)


def test_noisy_bell_states_meet_the_sweep_limit(tmp_path):
    # the realigned state's (s2/s1)^2 is 0.978 at eps = 1e-2 and 0.9998
    # at eps = 1e-4; the solver needs about log(tol) / log((s2/s1)^2)
    # sweeps, 1263 and 126837, against the default 10000
    for eps in ("1e-2", "1e-4"):
        (tmp_path / f"{eps}.json").write_text(
            dumps_canonical({"dims": [2, 2], "rho": _noisy_bell(float(eps))}))
    proc = run_subprocess(tmp_path, "disentangle", "1e-4.json")
    assert (proc.returncode, proc.stderr) == (2, "")
    item = json.loads(proc.stdout)
    assert item["error"].startswith("NonConvergence: no convergence after 10000 sweeps")
    assert item["solver"]["iterations"] == 10000
    proc = run_subprocess(tmp_path, "disentangle", "1e-2.json")
    assert (proc.returncode, proc.stderr) == (0, "")
    item = json.loads(proc.stdout)
    a, b, gap = top_kronecker_pair(_noisy_bell(1e-2), (2, 2))
    assert 0.97 < gap < 0.98
    # the limit pair is not Bell's (I/2, I/2)
    assert abs(a[0, 0] - 0.6489) < 1e-4
    assert np.abs(as_matrix(item["factor_a"]) - a).max() <= 1e-9
    assert np.abs(as_matrix(item["factor_b"]) - b).max() <= 1e-9


def test_heavy_damping_stops_on_the_damped_step(tmp_path, monkeypatch, capsys):
    # a known limit: the stop test compares the damped step
    # (1 - d) * |raw - previous| against --tol, not the residual, so a
    # heavily damped solve is declared converged with residuals past --tol
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "generate", "random", "--dims", "2", "2", "--out", "r.json")[0] == 0
    code, item, err = run_json(capsys, "disentangle", "--method", "correlated",
                               "--damping", "0.9", "r.json")
    solver = item["solver"]
    assert (code, err, item["error"]) == (0, "", None)
    assert solver["converged"] and solver["iterations"] == 308
    assert max(solver["final_step_a"], solver["final_step_b"]) < 1e-12
    assert f"{solver['residual_a']:.1e}" == "9.0e-12"
    code, item, err = run_json(capsys, "disentangle", "--method", "correlated",
                               "--damping", "0.9999999999999999", "r.json")
    solver = item["solver"]
    assert (code, err, item["error"]) == (0, "", None)
    assert solver["converged"] and solver["iterations"] == 1
    assert (f"{solver['residual_a']:.3g}", f"{solver['residual_b']:.3g}") == ("0.0285", "0.0892")


def test_generate_into_a_pipe_writes_the_state_then_the_report(tmp_path):
    # generate opens --out once, to write it: a read-back of /dev/stdout
    # would wait on the pipe forever
    run_subprocess(tmp_path, "generate", "bell", "--out", "bell.json")
    state = (tmp_path / "bell.json").read_text(encoding="utf-8")
    proc = run_subprocess(tmp_path, "generate", "bell", "--out", "/dev/stdout", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(state)
    report = json.loads(proc.stdout[len(state):])
    assert report["out"] == "/dev/stdout"
    assert report["digest"] == file_digest(tmp_path / "bell.json")


def test_generate_reports_the_digest_of_what_it_wrote(tmp_path, monkeypatch, capsys):
    # not that of a read-back: /dev/null reads back as no bytes
    monkeypatch.chdir(tmp_path)
    _, regular, _ = run_json(capsys, "generate", "random", "--seed", "3", "--out", "r.json")
    code, null, err = run_json(capsys, "generate", "random", "--seed", "3",
                               "--out", os.devnull)
    assert (code, err) == (0, "")
    assert null["digest"] == regular["digest"] == file_digest(tmp_path / "r.json")


def test_subprocess_entry_point(tmp_path):
    proc = run_subprocess(tmp_path, "generate", "bell", "--out", "bell.json")
    assert proc.returncode == 0
    assert (tmp_path / "bell.json").exists()
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "bell"
