"""Quick self-test of the benchmark itself.

    python3 qdbench/selftest.py

Shows that the oracle accepts real reports and rejects corrupted ones,
that the corpus writer produces the package's canonical bytes, that the
span arithmetic is right and that an absent entry point is reported
rather than fatal, and that every workload runs end to end for one pass
in both modes.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"  # scratch stays inside the checkout
WORK.mkdir(exist_ok=True)
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _cli(argv, cwd: Path):
    from qdisent.cli import main
    out = io.StringIO()
    old = Path.cwd()
    try:
        os.chdir(cwd)
        with redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(old)
    return code, out.getvalue()


class OracleTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=WORK)
        cls.dir = Path(cls.tmp.name)
        rng = np.random.default_rng(3)
        cls.rho = corpus.draw("near_pure_0.01", (2, 2), rng)
        (cls.dir / "s.json").write_text(
            corpus.render((2, 2), corpus.cell_rows(cls.rho), {"kind": "t"}))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _check(self, cmd, text, code):
        return oracle.check(cmd, self.rho, (2, 2), 0, "near_pure_0.01", text, code)

    def test_real_reports_pass(self):
        for cmd in (["validate"], ["analyze"], ["disentangle", "--method", "correlated"]):
            code, text = _cli(cmd + ["s.json"], self.dir)
            self.assertEqual(self._check(cmd[0], text, code), [], cmd)

    def test_perturbed_factor_is_rejected(self):
        code, text = _cli(["disentangle", "s.json"], self.dir)
        doc = json.loads(text)
        doc["factor_a"][0][1][0] += 1e-6
        problems = self._check("disentangle", json.dumps(doc), code)
        self.assertTrue(any("product" in p for p in problems), problems)
        self.assertTrue(any("fixed point" in p for p in problems), problems)

    def test_perturbed_reduction_and_exit_code_are_rejected(self):
        code, text = _cli(["analyze", "s.json"], self.dir)
        doc = json.loads(text)
        doc["reduced_b"][1][1][0] += 1e-9
        self.assertTrue(self._check("analyze", json.dumps(doc), code))
        # a near-pure entangled state must fail the battery: exit 0 is wrong
        self.assertEqual(code, 1)
        self.assertTrue(self._check("analyze", text, 0))

    def test_perturbed_eigenvalue_is_rejected(self):
        code, text = _cli(["validate", "s.json"], self.dir)
        doc = json.loads(text)
        doc["min_eigenvalue"] += 1e-6
        self.assertTrue(self._check("validate", json.dumps(doc), code))

    def test_planted_inputs_need_their_code(self):
        for kind in corpus.PLANTED:
            text, m, want = corpus._planted_text(kind, (2, 2), self.rho, {"kind": kind})
            (self.dir / "p.json").write_text(text)
            for cmd in ("validate", "analyze"):
                code, out = _cli([cmd, "p.json"], self.dir)
                self.assertEqual(oracle.check(cmd, m, (2, 2), want, kind, out, code),
                                 [], (kind, cmd))
                self.assertTrue(oracle.check(cmd, m, (2, 2), want, kind, out, 0))


class CorpusTest(unittest.TestCase):

    def test_writer_matches_the_canonical_writer(self):
        from qdisent import BipartiteState
        from qdisent.stateio import dumps_canonical, state_to_doc
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            entries = corpus.build("solve-small", 5, Path(tmp))
            for e in entries[::7]:
                doc = state_to_doc(BipartiteState(e.rho, e.dims), meta={"kind": e.kind})
                self.assertEqual(dumps_canonical(doc),
                                 (Path(tmp) / e.name).read_text(), e.name)

    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory(dir=WORK) as a, tempfile.TemporaryDirectory(dir=WORK) as b:
            ea = corpus.build("read-8x8", 9, Path(a))
            corpus.build("read-8x8", 9, Path(b))
            for e in ea:
                self.assertEqual((Path(a) / e.name).read_bytes(),
                                 (Path(b) / e.name).read_bytes())


class TraceTest(unittest.TestCase):

    def test_self_time_subtracts_children(self):
        recs = [
            [spans.ROOT, 0, 100, -1, 0, False, None],
            ["correlated.report", 10, 60, 0, 0, False, None],
            ["correlated.solve", 20, 50, 1, 0, False, {"sweeps": 7, "converged": 1}],
            ["stateio.render", 70, 90, 0, 0, True, {"bytes": 40}],
        ]
        m = spans.layer_metrics(recs, items=1, passes=1)
        self.assertEqual(m["cli.self.self_ms"][0], 30 / 1e6)
        self.assertEqual(m["correlated.report.self_ms"][0], 20 / 1e6)
        self.assertEqual(m["correlated.solve.self_ms"][0], 30 / 1e6)
        self.assertEqual(m["stateio.render.errors"][0], 1)
        self.assertEqual(m["stateio.render.ns_per_byte"][0], 0.5)
        self.assertEqual(m["correlated.solve.sweeps"][0], 7)

    def test_absent_entry_point_is_reported(self):
        tracer = spans.Tracer({})
        tracer._table += (("qdisent.cli", "no_such_entry", "stateio.read", None),)
        tracer.install()
        try:
            self.assertEqual(tracer.absent, ["qdisent.cli.no_such_entry"])
        finally:
            tracer.uninstall()
        import qdisent.cli
        self.assertFalse(hasattr(qdisent.cli.doc_to_matrix, "__wrapped__"))


class EndToEndTest(unittest.TestCase):

    def test_every_workload_one_pass(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        listed = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                  "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
        # the per-layer names do not depend on the workload: trace one of them
        for workload, mode in [(w, "0") for w in sorted(WORKLOADS)] + [("solve-small", "1")]:
            with self.subTest(workload=workload, mode=mode):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", "11", "--seconds", "0", "--trace", mode],
                    capture_output=True, text=True, timeout=170, check=False)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 listed[mode], (workload, mode))


if __name__ == "__main__":
    unittest.main()
