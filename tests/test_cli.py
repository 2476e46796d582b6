"""End-to-end checks of the qdisent command line."""

import builtins
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdisent import file_digest
from qdisent.cli import build_parser, main
from qdisent.correlated import disentanglement_report
from qdisent.stateio import dumps_canonical

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


def run_subprocess(cwd, *argv):
    """Run ``python -m qdisent.cli`` from ``cwd`` with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("QDISENT_TOL", None)
    return subprocess.run([sys.executable, "-m", "qdisent.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)


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


@pytest.mark.parametrize("cmd", ["analyze", "disentangle"])
def test_linalg_error_is_an_invalid_item(tmp_path, monkeypatch, capsys, cmd):
    write_doc(tmp_path / "s.json", [0.25, 0.25, 0.25, 0.25])

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, doc, _ = run_json(capsys, cmd, str(tmp_path / "s.json"))
    assert code == 1
    assert doc["error"] == "LinAlgError: Eigenvalues did not converge"


def test_unrenderable_report_exits_3(tmp_path, monkeypatch, capsys):
    # no state reaches a NaN factor; a report that holds one anyway fails
    # the canonical render, which no item owns
    write_doc(tmp_path / "s.json", [0.25, 0.25, 0.25, 0.25])

    def with_nan(*args, **kwargs):
        reps = disentanglement_report(*args, **kwargs)
        factor = reps[0].factor_a.copy()
        factor[1, 0] = complex(0.5, np.nan)
        return [dataclasses.replace(reps[0], factor_a=factor)]

    monkeypatch.setattr("qdisent.cli.disentanglement_report", with_nan)
    assert run(capsys, "disentangle", str(tmp_path / "s.json")) == (
        3, "", "error: StateFormatError: non-finite value nan cannot be serialized\n")


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
    assert sorted(opened) == ["a.json", "b.json"]
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


def test_subprocess_entry_point(tmp_path):
    proc = run_subprocess(tmp_path, "generate", "bell", "--out", "bell.json")
    assert proc.returncode == 0
    assert (tmp_path / "bell.json").exists()
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "bell"
