"""CI's longer checks, one command each: ``python3 -W error ci/checks.py CHECK [DIR]``.

CHECK, a key of ``CHECKS``, writes into DIR (an existing directory, by default a temporary
one), prints what it measured and exits 1 if a bound fails.  Importing this module puts
src, tests and qdbench on the import path."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / d) for d in ("src", "tests", "qdbench")]
CORRELATED = ("disentangle", "--method", "correlated")


def run(*argv) -> tuple[int, str, str]:
    """``qdisent.cli.main(argv)`` in this process: (exit code, stdout, stderr)."""
    from qdisent.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def vmhwm(*argv) -> tuple[int, int]:
    """(exit code, VmHWM in KiB) of ``qdisent.cli.main(argv)`` in a fresh ``-W error`` child
    that sends the report to /dev/null: unlike ru_maxrss, its VmHWM holds none of our pages."""
    proc = subprocess.run([sys.executable, "-W", "error", __file__, "vmhwm", *map(str, argv)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return tuple(map(int, proc.stdout.split()))


def build(out: Path, workload: str, *seeds: int) -> set[str]:
    """Write ``workload``'s ``seeds`` corpora into ``out``; return the planted format errors."""
    import corpus
    planted = set()
    for seed in seeds:
        part = out / f"seed-{seed}"
        part.mkdir(parents=True, exist_ok=True)
        for entry in corpus.build(workload, seed, part):
            name = f"s{seed}-{entry.name}"
            (part / entry.name).rename(out / name)
            if entry.expect_load == 3:
                planted.add(name)
        part.rmdir()
    return planted


def blas_kernel(out: Path) -> bool:
    """The golden digests and the block contraction's bit identity hold on the OpenBLAS kernel
    numpy picks at run time (checked on SkylakeX): name it, so a digest failure can be traced to
    its kernel."""
    import ctypes
    import numpy  # loads its OpenBLAS
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for lib in libs:  # the config names the kernel picked at run time
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_config64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            print(fn().decode())
    return False


def texts17(out: Path) -> bool:
    """Large hermitian grids print through stateio._codes17, a vectorised %.17g that writes each
    value's text into 28 fixed columns, NUL in those it does not use: sweep 2,000,000 seeded
    doubles of the classes it must print exactly (ties, powers of ten, subnormals, both signs,
    the fallback ranges, zeros) against %.17g itself, then render the same sample as mirrored
    64x64 hermitian grids against the per-value walk, so its fallback values also reach |im|'s
    sign column."""
    from test_stateio import hermitian_grid_mismatches, texts17_mismatches
    bad = texts17_mismatches(2_000_000, seed=1)
    print(f"{len(bad)} of 2000000 doubles misprinted", bad[:5])
    grids = hermitian_grid_mismatches(2_000_000, seed=1)
    print(f"{len(grids)} 64x64 grids misrendered, at sample offsets", grids[:5])
    return bool(bad or grids)


def parse17(out: Path) -> bool:
    """The parse-side twin of texts17: a state file's grid goes to orjson as one flat list of
    numbers, in stateio._parse_grid, and must then give the matrix json.loads's grid gives.  Sweep
    2,000,000 seeded float64 bit patterns, the finite ones below 1e18 in magnitude (the grid
    route's bound), rendered as 64x64 grid state documents in %.17g and in repr, each through
    load_document and json.loads, then doc_to_matrix: every value keeps its bits, and every
    document takes the grid route."""
    from test_stateio import parse17_mismatches
    bad, off_route = parse17_mismatches(2_000_000, seed=1, directory=out)
    print(f"{bad} values parsed to other bits, {off_route} documents off the grid route")
    return bool(bad or off_route)


def batch_warnings(out: Path) -> bool:
    """The benchmark's batch run sends stderr to /dev/null, so a warning on the batch path would
    pass unseen there: run the same batches with warnings as errors, over the seed-0 write-8x8
    corpus (disentangle, exit 0), the seed-0 solve-small corpus (disentangle, exit 0, where the
    solver's clamp path runs) and the seed-0 read-8x8 corpus (analyze and validate, exit 3 from
    its planted format errors, so items also raise there).  Each batch leaves stderr empty and
    has one item per file, and its StateFormatError items are exactly the planted files.  The
    real-size write-8x8 batch report is then byte for byte the canonical render of its
    single-file reports: each 200 KB item text crosses many blocks of the spool's copy-out."""
    from qdisent.stateio import dumps_canonical
    planted = {w: build(out / w, w, 0) for w in ("write-8x8", "solve-small", "read-8x8")}
    failed, reports = False, {}
    for workload, expect, *argv in (("write-8x8", 0, *CORRELATED), ("solve-small", 0, *CORRELATED),
                                    ("read-8x8", 3, "analyze"), ("read-8x8", 3, "validate")):
        code, reports[workload], err = run(*argv, out / workload)
        sys.stdout.write(err)
        items = json.loads(reports[workload])["items"]
        files = len(list((out / workload).glob("*.json")))
        formats = {Path(item["input"]).name for item in items
                   if (item.get("error") or "").startswith("StateFormatError: ")}
        print(f"{workload} {argv[0]}: exit {code}, {len(items)}/{files} items", sorted(formats))
        failed |= ((code, err) != (expect, "") or len(items) != files
                   or formats != planted[workload])
    batch, items, codes = out / "write-8x8", [], set()
    for path in sorted(batch.glob("*.json")):
        code, report, _ = run(*CORRELATED, path)
        codes.add(code)
        items.append(json.loads(report))
        command = items[-1].pop("command").removesuffix(str(path)) + str(batch)
    same = dumps_canonical({"command": command, "items": items}) == reports["write-8x8"]
    print(f"write-8x8 batch report equals its {len(items)} single-file reports: {same}", codes)
    return failed or not same or codes != {0}


def batch_memory(out: Path) -> bool:
    """A batch renders its report straight into a temporary file, so its peak memory must not grow
    with the file count: the write-8x8 batch over the seed-0 corpus and over the seed 0, 1 and 2
    corpora in one directory (exit 0), each peak the process's own VmHWM at exit (the 3x
    corpus's 15 MB report once raised it by about 10 MiB)."""
    build(out / "flat-1x", "write-8x8", 0)
    build(out / "flat-3x", "write-8x8", 0, 1, 2)
    one_code, one = vmhwm(*CORRELATED, out / "flat-1x")
    three_code, three = vmhwm(*CORRELATED, out / "flat-3x")
    print(f"exit {one_code}, {three_code}; VmHWM: 1x {one} KiB, 3x {three} KiB")
    return (one_code, three_code) != (0, 0) or three > one + 1024


def solver_memory(out: Path) -> bool:
    """The solver keeps running aggregates, not a record per sweep, so its peak memory must not
    grow with the sweep count: disentangle the eps = 1e-4 noisy Bell state, which runs out of
    sweeps (exit 2), at --max-iter 10,000 and 40,000, each peak the process's own VmHWM at exit
    (a record per sweep once added about 10 MiB at 40,000)."""
    from qdisent.core import BipartiteState
    from qdisent.stateio import save_state
    from test_cli import _noisy_bell
    state = out / "noisy-bell.json"
    save_state(state, BipartiteState(_noisy_bell(1e-4), (2, 2)))
    short_code, short = vmhwm("disentangle", state, "--max-iter", 10000)
    long_code, long = vmhwm("disentangle", state, "--max-iter", 40000)
    print(f"exit {short_code}, {long_code}; VmHWM: 10,000 sweeps {short} KiB, 40,000 {long} KiB")
    return (short_code, long_code) != (2, 2) or long > short + 1024


CHECKS = {"blas-kernel": blas_kernel, "texts17": texts17, "parse17": parse17,
          "batch-warnings": batch_warnings, "batch-memory": batch_memory,
          "solver-memory": solver_memory}


def main(argv: list[str]) -> int:
    if argv[:1] == ["vmhwm"]:  # vmhwm's child
        from qdisent.cli import main as qdisent
        with open(os.devnull, "w", encoding="utf-8") as null, contextlib.redirect_stdout(null):
            code = qdisent(argv[1:])
        print(code, Path("/proc/self/status").read_text().split("VmHWM:")[1].split()[0])
        return 0
    if len(argv) not in (1, 2) or argv[0] not in CHECKS:
        sys.exit(f"usage: ci/checks.py {{{','.join(CHECKS)}}} [DIR]")
    with tempfile.TemporaryDirectory() as tmp:
        return int(CHECKS[argv[0]](Path(argv[1] if len(argv) == 2 else tmp)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
