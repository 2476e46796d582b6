"""Benchmark of the qdisent command line over a seeded corpus of state files.

    python3 qdbench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One closed-loop caller in one process calls
``qdisent.cli.main([cmd, ..., file])`` on each corpus file in turn,
stdout captured, each call waiting for the previous one, in whole
passes over the corpus until ``--seconds`` have gone by.  Every report
is checked against the numpy oracle in ``oracle.py``: the first time an
item is seen in full, afterwards by its bytes.

The host's CPU speed drifts on a sub-second scale, so the gated times
are normalised: a fixed qdisent-free calibration kernel runs right
before every item, and ``item_cost_cal`` is the summed item time over
the summed calibration time.  The raw times are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which every layer of the package is
wrapped (see ``spans.py``) and prints the per-layer metrics plus the
tracing overhead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads:

* ``solve-small``: ``disentangle --method correlated`` on 2x2 and 4x4
  states, half of them near-pure entangled.  Solver and CLI overhead
  dominate.
* ``read-8x8``: ``validate`` then ``analyze`` on each 8x8 file, with
  planted invalid files (exit 1 and exit 3).  Reading and parsing
  dominate; the solver never runs.
* ``write-8x8``: ``disentangle --method correlated`` on 8x8 states;
  each report is about 200 KB, so rendering dominates.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import quantile

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden_seed0.json"
GOLDEN_SEED = 0

# (commands run on every file, index of the command used for the batch run)
WORKLOADS = {
    "solve-small": ((("disentangle", "--method", "correlated"),), 0),
    "read-8x8": ((("validate",), ("analyze",)), 1),
    "write-8x8": ((("disentangle", "--method", "correlated"),), 0),
}
SETUP_PAIRS = 9
# Spawn time drifts with the host as much as item time does, and the
# in-process kernel does not track it (exec, page faults, loading), so
# each qdisent spawn is paired with the spawn of a fixed qdisent-free
# interpreter importing stdlib modules.  setup_s is the median ratio of
# the pair, in seconds at the speed where that baseline takes BASELINE_S.
BASELINE_IMPORTS = "import json, decimal, email.parser, argparse, dataclasses, hashlib"
BASELINE_S = 0.110
WARMUP_CAL = 20


class Calibration:
    """Fixed qdisent-free work, timed right before every item.

    20 ``eigh`` of a 16x16 hermitian matrix, one ``json.loads`` of a
    16x16 grid and 2000 ``.17g`` float formats: the same kinds of work
    as an item, about 2.5 ms in all on the reference host.
    """

    def __init__(self, np):
        rng = np.random.default_rng(20061017)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._eigh = np.linalg.eigh
        self._h = g + g.conj().T
        self._text = json.dumps([[[z.real, z.imag] for z in row] for row in g.tolist()])
        self._floats = rng.standard_normal(2000).tolist()

    def sample(self) -> int:
        t0 = perf_counter_ns()
        for _ in range(20):
            self._eigh(self._h)
        json.loads(self._text)
        for v in self._floats:
            format(v, ".17g")
        return perf_counter_ns() - t0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("QDISENT_TOL", None)
    # absolute, so it resolves from any working directory
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _spawn(code: str, cwd: Path) -> float:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          check=False)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{code!r} failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def measure_setup(cwd: Path) -> list[tuple[float, float]]:
    """(seconds until qdisent.cli is imported, seconds of the baseline spawn) pairs."""
    return [(_spawn("import qdisent.cli", cwd), _spawn(BASELINE_IMPORTS, cwd))
            for _ in range(SETUP_PAIRS)]


def batch_run(cmd, corpus_dir: Path, out_path: Path) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one fresh batch-mode run over the corpus."""
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "qdisent.cli", *cmd, "."],
                                cwd=corpus_dir, env=_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def _check_batch(code: int, out_path: Path, entries) -> str | None:
    """What is wrong with a batch run's exit code or item list, if anything."""
    want = max(e.expect_load for e in entries)
    if code != want:
        return f"exited {code}, expected {want}"
    try:
        items = json.loads(out_path.read_text(encoding="utf-8"))["items"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc!r}"
    if [item.get("input") for item in items] != [e.name for e in entries]:
        return "items do not list the corpus files in filename order"
    return None


def invoke(fn, argv) -> tuple[int | None, str, int]:
    """(exit code, stdout, ns) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = perf_counter_ns()
    try:
        code = fn(argv)
    except Exception as exc:  # a traceback the user would see: a failed item
        code = None
        print(f"{type(exc).__name__}: {exc}", file=err)
    finally:
        t1 = perf_counter_ns()
        sys.stdout, sys.stderr = saved
    if code is None:
        return None, err.getvalue(), t1 - t0
    return code, out.getvalue(), t1 - t0


def _src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "qdisent").glob("*.py")))


def _blas_threads() -> int:
    """Threads of the OpenBLAS numpy loaded, or nproc when it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return os.cpu_count() or 1


class Bench:
    """One run: the corpus, the checked closed loop and its samples."""

    def __init__(self, workload: str, entries, cli, oracle, cal):
        cmds, _ = WORKLOADS[workload]
        self.items = [(cmd, entry) for entry in entries for cmd in cmds]
        self.cli, self.oracle, self.cal = cli, oracle, cal
        self.seen: dict[int, tuple] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def _check(self, i: int, code, text: str) -> bool:
        cmd, entry = self.items[i]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if i in self.seen:
            if self.seen[i] == (code, digest):
                return True
            problems = ["report or exit code changed between identical calls"]
        elif code is None:
            problems = [f"uncaught exception: {text.strip()[-300:]}"]
        else:
            self.digests[f"{cmd[0]}:{entry.name}"] = digest
            problems = self.oracle.check(cmd[0], entry.rho, entry.dims,
                                         entry.expect_load, entry.kind, text, code)
            self.seen[i] = (code, digest)
        if problems:
            self.problems.extend(f"{cmd[0]} {entry.name}: {p}" for p in problems)
        return not problems

    def one_pass(self, tracer=None) -> list[tuple[int, int]]:
        """(calibration ns, item ns) for every item of one pass over the corpus."""
        samples = []
        for i, (cmd, entry) in enumerate(self.items):
            argv = [*cmd, entry.name]
            cal_ns = self.cal.sample()
            # the span item id is the call's sequence number, unique over passes
            fn = (self.cli.main if tracer is None
                  else partial(tracer.call, self.attempted, self.cli.main))
            code, text, ns = invoke(fn, argv)
            samples.append((cal_ns, ns))
            self.attempted += 1
            if not self._check(i, code, text):
                self.failed += 1
        return samples

    def warm_up(self) -> None:
        for _ in range(WARMUP_CAL):
            self.cal.sample()
        done = set()
        for cmd, entry in self.items:
            if cmd not in done and entry.expect_load == 0:
                invoke(self.cli.main, [*cmd, entry.name])
                done.add(cmd)


def _cost(samples) -> float:
    return sum(t for _, t in samples) / sum(c for c, _ in samples)


def closed_loop(bench: Bench, seconds: float, tracer=None):
    """Whole passes until ``seconds`` are up: (untraced samples, traced samples, passes).

    With a tracer, odd passes run traced, and there is at least one of each.
    """
    plain, traced, passes = [], [], 0
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None and passes % 2 == 1:
            tracer.install()
            try:
                traced += bench.one_pass(tracer)
            finally:
                tracer.uninstall()
        else:
            plain += bench.one_pass()
        passes += 1
        if perf_counter() >= deadline and (tracer is None or passes >= 2):
            return plain, traced, passes


def e2e_metrics(samples, setup_times, rss_mb) -> dict:
    cal = [c for c, _ in samples]
    item = [t for _, t in samples]
    # one calibration sample is noisy next to a long item: take the median
    # of the samples of the two items before, this one and the two after
    ref = [statistics.median(cal[max(0, i - 2):i + 3]) for i in range(len(cal))]
    ratio = [t / r for t, r in zip(item, ref)]
    return {
        "item_cost_cal": (_cost(samples), "ratio"),
        "item_p50_cal": (quantile(ratio, 0.5), "ratio"),
        "item_p90_cal": (quantile(ratio, 0.9), "ratio"),
        "setup_s": (statistics.median(x / z for x, z in setup_times) * BASELINE_S, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def raw_metrics(samples, setup_times, failed: int, attempted: int) -> dict:
    item = [t for _, t in samples]
    return {
        "setup_raw_s": (statistics.median(x for x, _ in setup_times), "s"),
        "baseline_spawn_s": (statistics.median(z for _, z in setup_times), "s"),
        "items_per_s": (len(item) / (sum(item) / 1e9), "items/s"),
        "item_p50_ms": (quantile(item, 0.5) / 1e6, "ms"),
        "item_p90_ms": (quantile(item, 0.9) / 1e6, "ms"),
        "error_rate": (failed / attempted, "share"),
        "cal_ms": (statistics.median(c for c, _ in samples) / 1e6, "ms"),
    }


def run(args, work: Path) -> tuple[dict, Bench, list[str]]:
    import numpy as np

    import corpus
    import oracle
    import spans

    setup_times = measure_setup(work)
    corpus_dir = work / "corpus"
    corpus_dir.mkdir()
    entries = corpus.build(args.workload, args.seed, corpus_dir)

    cmds, batch_index = WORKLOADS[args.workload]
    batch_cmd = cmds[batch_index]
    rss_code, rss_mb = batch_run(batch_cmd, corpus_dir, work / "batch.out")
    batch_problem = _check_batch(rss_code, work / "batch.out", entries)

    os.environ.pop("QDISENT_TOL", None)
    sys.path.insert(0, str(SRC))
    import qdisent.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "qdisent":
        raise RuntimeError(f"qdisent imported from {cli.__file__}, not {SRC}")

    os.chdir(corpus_dir)  # reports name their input as given: keep it relative
    bench = Bench(args.workload, entries, cli, oracle, Calibration(np))
    bench.warm_up()
    sizes = {e.name: (corpus_dir / e.name).stat().st_size for e in entries}
    tracer = spans.Tracer(sizes) if args.trace else None

    plain, traced, passes = closed_loop(bench, args.seconds, tracer)
    os.chdir(HERE.parent)

    info = [f"numpy={np.__version__}", f"nproc={os.cpu_count()}",
            f"blas_threads={_blas_threads()}", f"src_loc={_src_loc()}",
            f"items={bench.attempted}", f"passes={passes}",
            f"corpus_files={len(entries)}"]
    if tracer is None:
        metrics = e2e_metrics(plain, setup_times, rss_mb)
        shown = dict(metrics, **raw_metrics(plain, setup_times, bench.failed, bench.attempted))
    else:
        traced_passes = passes // 2
        metrics = spans.layer_metrics(tracer.spans, len(traced), traced_passes)
        metrics["bench.trace_overhead"] = (_cost(traced) / _cost(plain), "ratio")
        metrics["bench.cal_ms"] = (
            statistics.median(c for c, _ in plain + traced) / 1e6, "ms")
        metrics["bench.src_loc"] = (float(_src_loc()), "lines")
        shown = metrics
        if tracer.absent:
            info.append("absent_layers=" + ",".join(tracer.absent))
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-s{args.seed}.jsonl")
    bench.attempted += 1  # the batch run
    if batch_problem:
        bench.failed += 1
        bench.problems.insert(0, f"batch {batch_cmd[0]}: {batch_problem}")
    return metrics, bench, [" ".join(info)] + [
        f"  {name:<36} {value:>16.6g} {unit}" for name, (value, unit) in shown.items()]


def _golden_report(bench: Bench, args) -> str | None:
    if args.seed != GOLDEN_SEED or not GOLDEN.is_file():
        return None
    stored = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload, {})
    same = sum(stored.get(k) == v for k, v in bench.digests.items())
    return f"golden digests (seed {GOLDEN_SEED}): {same}/{len(bench.digests)} reports byte-identical"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help=f"store the report digests of seed {GOLDEN_SEED} in {GOLDEN.name}")
    args = p.parse_args(argv)
    if not (SRC / "qdisent" / "cli.py").is_file():
        print(f"qdbench: no qdisent sources at {SRC}", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != GOLDEN_SEED:
        p.error(f"--write-golden needs --seed {GOLDEN_SEED}")

    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        metrics, bench, lines = run(args, work)
    finally:
        os.chdir(HERE.parent)
        shutil.rmtree(work, ignore_errors=True)

    print(f"qdbench workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    golden = _golden_report(bench, args)
    if golden:
        print(golden)
    if args.write_golden:
        stored = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
        stored[args.workload] = dict(sorted(bench.digests.items()))
        GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    for problem in bench.problems[:20]:
        print(f"qdbench: {problem}", file=sys.stderr)
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
