"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line on the real stdout so the
summary survives pytest's capture. The whole file runs in well under a
minute.
"""

import json
import os
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from qdisent import (
    BipartiteState,
    CorrelatedMethod,
    GenSpec,
    NeumannMethod,
    SolverConfig,
    averaged_projective_state,
    bell_state,
    correlated_local_state,
    correlation_gap,
    diagonal_pointer_local,
    diagonal_pointer_product,
    disentanglement_report,
    coherent_pointer_local,
    coherent_pointer_product,
    fixed_point_residuals,
    fixed_point_solve,
    generate,
    neumann_equivalence_gap,
    neumann_reduce,
    partial_transpose,
    ppt_test,
    random_density,
    random_ket,
    random_state,
    random_unitary,
    reduction_criterion_test,
    subadditivity_check,
    transcription_bench,
    von_neumann_entropy,
    witness_expectation,
)
from qdisent.cli import main as cli_main


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _say(line: str) -> None:
    # step around pytest's fd capture so the line reaches the terminal
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def _crit(n: int, label: str):
    info = {}
    try:
        yield info
    except BaseException:
        _say(f"FAIL criterion {n}: {label}")
        raise
    detail = info.get("detail", "")
    _say(f"PASS criterion {n}: {label}" + (f" [{detail}]" if detail else ""))


def _dims_for(seed: int) -> tuple[int, int]:
    return (2, 2) if seed % 2 == 0 else (2, 3)


def test_criterion_1_identity_pointer_equals_plain_reduction():
    with _crit(1, "identity pointer reduction matches partial trace"
                  " for m in {1,2,3}") as info:
        worst = 0.0
        for seed in range(1000):
            state = random_state(_dims_for(seed), seed=seed)
            red = neumann_reduce(state, "A")
            pointer = np.eye(state.n_b) / state.n_b
            for m in (1, 2, 3):
                got = correlated_local_state(state, pointer, side="A", m=m)
                worst = max(worst, np.abs(got - red).max())
        assert worst <= 1e-12
        info["detail"] = f"worst deviation {worst:.2e} over 1000 states"


def test_criterion_2_uniform_average_equals_plain_reduction():
    with _crit(2, "uniformly averaged collapse matches partial trace;"
                  " biased Bell average does not") as info:
        worst = 0.0
        for seed in range(1000):
            state = random_state(_dims_for(seed), seed=seed)
            uniform = np.full(state.n_b, 1.0 / state.n_b)
            avg = averaged_projective_state(state, uniform)
            worst = max(worst, np.abs(avg - neumann_reduce(state, "A")).max())
        assert worst <= 1e-12
        gap = neumann_equivalence_gap(bell_state(), np.array([0.9, 0.1]))
        assert gap > 1e-3
        info["detail"] = f"worst uniform deviation {worst:.2e}, Bell gap {gap:.4f}"


def test_criterion_3_ppt_sanity():
    with _crit(3, "Bell partial transpose hits -1/2; separable samples"
                  " all pass PPT") as info:
        bell = bell_state()
        res = ppt_test(bell)
        assert abs(res.min_eigenvalue + 0.5) <= 1e-9
        assert not res.passed
        low = np.inf
        for seed in range(1000):
            state = generate(GenSpec(kind="separable_mixture",
                                     dims=_dims_for(seed), seed=seed))
            r = ppt_test(state, tol=1e-10)
            assert r.passed
            low = min(low, r.min_eigenvalue)
        info["detail"] = f"lowest separable PT eigenvalue {low:.2e}"


def test_criterion_4_entropy_suite():
    with _crit(4, "entropy zero/ln N anchors, unitary invariance,"
                  " entropy inequalities, Bell counterexample") as info:
        rng = np.random.default_rng(77)
        for n in (2, 3, 4):
            ket = random_ket(n, rng)
            assert von_neumann_entropy(np.outer(ket, ket.conj())) <= 1e-12
            ent = von_neumann_entropy(np.eye(n) / n)
            assert abs(ent - np.log(n)) <= 1e-12
        for seed in range(100):
            state = random_state((2, 2), seed=seed)
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            s0 = von_neumann_entropy(state.rho)
            s1 = von_neumann_entropy(u @ state.rho @ u.conj().T)
            assert abs(s0 - s1) <= 1e-10
        for seed in range(1000):
            res = subadditivity_check(random_state(_dims_for(seed), seed=seed),
                                      slack=1e-9)
            assert res.subadditive and res.araki_lieb
        bell = subadditivity_check(bell_state())
        assert bell.entropy_ab <= 1e-12
        assert abs(bell.entropy_a - np.log(2)) <= 1e-12
        assert bell.entropy_ab < bell.entropy_a
        info["detail"] = "joint entropy 0 < marginal ln 2 on Bell"


def test_criterion_5_reduction_modes_disagree_on_a_product_state():
    with _crit(5, "literal reduction variant flags the upper-upper"
                  " product state; standard passes it") as info:
        up = np.zeros((2, 2), dtype=complex)
        up[0, 0] = 1.0
        state = BipartiteState(np.kron(up, up), (2, 2))
        literal = reduction_criterion_test(state, mode="literal")
        standard = reduction_criterion_test(state, mode="standard")
        low = min(literal.min_eigenvalue_a, literal.min_eigenvalue_b)
        assert low < -1e-9
        assert not literal.passed
        assert standard.passed
        bell = reduction_criterion_test(bell_state(), mode="standard")
        assert abs(min(bell.min_eigenvalue_a, bell.min_eigenvalue_b) + 0.5) <= 1e-9
        assert not bell.passed
        info["detail"] = f"literal min eigenvalue {low:.3f} on a product state"


def test_criterion_6_two_qubit_transcription():
    with _crit(6, "closed two-qubit tables match their generic routes;"
                  " balanced pointer returns the plain pair") as info:
        rows = {row.label: row for row in transcription_bench(cases=1000, seed=0)}
        for label in ("diagonal local", "diagonal product",
                      "coherent local", "coherent product"):
            row = rows[label]
            assert row.gated
            assert row.max_deviation <= 1e-12, label
        for label in ("diagonal product literal", "coherent product literal"):
            row = rows[label]
            assert not row.gated
            _say(f"     note: {label} deviates by {row.max_deviation:.3e}"
                 " (reported, not gated)")

        # balanced pointer: bit-exact whenever no entry ever rounds
        rho = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.125
        for mat in (rho, bell_state().rho):
            red = neumann_reduce(BipartiteState(mat, (2, 2)), "A")
            pair_b = np.kron(red, np.eye(2) / 2)
            assert np.array_equal(coherent_pointer_local(mat, 0.5, 0.0), red)
            assert np.array_equal(coherent_pointer_product(mat, 0.5, 0.0), pair_b)
            assert np.array_equal(diagonal_pointer_local(mat, 0.5), red)
            assert np.array_equal(diagonal_pointer_product(mat, 0.5), pair_b)
        # trace-normalized inputs can sit one ulp off
        ulp = np.finfo(float).eps
        for seed in range(200):
            state = random_state((2, 2), seed=seed)
            red = neumann_reduce(state, "A")
            assert np.abs(coherent_pointer_local(state.rho, 0.5, 0.0)
                          - red).max() <= ulp
            assert np.abs(coherent_pointer_product(state.rho, 0.5, 0.0)
                          - np.kron(red, np.eye(2) / 2)).max() <= ulp
        worst = max(rows[k].max_deviation for k in
                    ("diagonal local", "diagonal product",
                     "coherent local", "coherent product"))
        info["detail"] = f"worst gated deviation {worst:.2e} over 1000 cases"


def test_criterion_7_fixed_point_solver():
    with _crit(7, "solver: immediate on products, stationary on Bell,"
                  " convergent with certificate on near-pure states") as info:
        rng = np.random.default_rng(3)
        for seed in range(20):
            a = random_density(2, rng)
            b = random_density(2, rng)
            state = BipartiteState(np.kron(a, b), (2, 2))
            pair = fixed_point_solve(state)
            assert pair.converged
            assert pair.iterations <= 2
            assert pair.residual_a < 1e-12 and pair.residual_b < 1e-12

        bell_pair = fixed_point_solve(bell_state())
        assert bell_pair.converged and bell_pair.iterations == 1
        assert np.allclose(bell_pair.rho_a, np.eye(2) / 2, atol=1e-14)
        assert np.allclose(bell_pair.rho_b, np.eye(2) / 2, atol=1e-14)

        cfg = SolverConfig(tol=1e-12, max_iter=10000)
        slowest = 0
        for seed in range(100):
            gen = np.random.default_rng(seed)
            ket = random_ket(4, gen)
            rho = 0.95 * np.outer(ket, ket.conj()) + 0.05 * random_density(4, gen)
            state = BipartiteState(rho, (2, 2))
            assert np.trace(rho @ rho).real >= 0.9
            pair = fixed_point_solve(state, cfg)
            assert pair.converged and pair.iterations <= 10000
            assert pair.residual_a < 1e-10 and pair.residual_b < 1e-10
            res_a, res_b = fixed_point_residuals(state, pair.rho_a, pair.rho_b)
            assert res_a <= 10 * cfg.tol and res_b <= 10 * cfg.tol
            slowest = max(slowest, pair.iterations)
        info["detail"] = f"slowest near-pure convergence {slowest} iterations"


def _pipeline(capsys, workdir) -> tuple[list[int], str, dict[str, bytes]]:
    old = os.getcwd()
    os.chdir(workdir)
    try:
        codes = []
        chunks = []
        for argv in (
            ["generate", "bell", "--out", "bell.json"],
            ["generate", "separable", "--seed", "11", "--out", "sep.json"],
            ["validate", "bell.json"],
            ["validate", "sep.json"],
            ["analyze", "bell.json"],
            ["analyze", "sep.json"],
            ["disentangle", "--method", "neumann", "bell.json"],
            ["disentangle", "--method", "correlated", "sep.json"],
        ):
            codes.append(cli_main(argv))
            chunks.append(capsys.readouterr().out)
        files = {name: (workdir / name).read_bytes()
                 for name in ("bell.json", "sep.json")}
        return codes, "".join(chunks), files
    finally:
        os.chdir(old)


def test_criterion_8_cli_pipeline_is_byte_stable(tmp_path_factory, capsys,
                                                 monkeypatch):
    with _crit(8, "two CLI pipeline runs emit identical bytes and the"
                  " documented exit codes") as info:
        monkeypatch.delenv("QDISENT_TOL", raising=False)
        first = _pipeline(capsys, tmp_path_factory.mktemp("run1"))
        second = _pipeline(capsys, tmp_path_factory.mktemp("run2"))
        assert first[0] == second[0] == [0, 0, 0, 0, 1, 0, 0, 0]
        assert first[1] == second[1]
        assert first[2] == second[2]

        breach = tmp_path_factory.mktemp("breach")
        old = os.getcwd()
        os.chdir(breach)
        try:
            grid = [[[0.5 if i == j else 0.0, 0.0] for j in range(4)]
                    for i in range(4)]
            (breach / "trace2.json").write_text(
                json.dumps({"dims": [2, 2], "rho": grid}))
            assert cli_main(["validate", "trace2.json"]) == 1
            assert cli_main(["generate", "random", "--seed", "1",
                             "--out", "r.json"]) == 0
            assert cli_main(["disentangle", "--method", "correlated",
                             "--max-iter", "1", "r.json"]) == 2
            (breach / "broken.json").write_text("{oops")
            assert cli_main(["validate", "broken.json"]) == 3
            assert cli_main(["disentangle", "--damping", "2", "r.json"]) == 3
            capsys.readouterr()
        finally:
            os.chdir(old)
        info["detail"] = "exit codes 0/1/2/3 all exercised"


def test_criterion_9_witness_and_correlation_gap():
    with _crit(9, "Bell witness hits -1/2, separable samples stay"
                  " non-negative, correlation gap separates Bell from"
                  " products") as info:
        bell = bell_state()
        witness = 0.5 * np.eye(4) - bell.rho
        assert abs(witness_expectation(bell, witness) + 0.5) <= 1e-9
        low = np.inf
        for seed in range(1000):
            state = generate(GenSpec(kind="separable_mixture", dims=(2, 2),
                                     seed=seed))
            val = witness_expectation(state, witness)
            assert val >= -1e-10
            low = min(low, val)

        z = np.diag([1.0, -1.0]).astype(complex)
        gap = correlation_gap(bell, z, z)
        assert abs(gap.joint - 1.0) <= 1e-12
        assert abs(gap.product) <= 1e-12
        assert abs(gap.gap - 1.0) <= 1e-12
        for seed in range(200):
            state = generate(GenSpec(kind="pure_product", dims=(2, 2),
                                     seed=seed))
            assert abs(correlation_gap(state, z, z).gap) <= 1e-12
        info["detail"] = f"lowest separable witness value {low:.3f}"


def test_criterion_10_isotropic_family_keeps_the_entropy_claim():
    with _crit(10, "correlated pair changes the entropy no more than the"
                   " von Neumann pair on p|psi><psi| + (1-p)I/n") as info:
        levels = (1.0, 0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
        low, count = np.inf, 0
        for dims in ((2, 2), (2, 3), (3, 3)):
            n = dims[0] * dims[1]
            for seed in range(10):
                psi = random_ket(n, seed)
                for p in levels:
                    rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(n) / n
                    state = BipartiteState((rho + rho.conj().T) / 2, dims)
                    corr, neumann = disentanglement_report(
                        state, [CorrelatedMethod(), NeumannMethod()])
                    assert corr.error is None
                    margin = neumann.entropy_change - corr.entropy_change
                    assert margin >= -1e-12
                    low, count = min(low, margin), count + 1
        info["detail"] = f"smallest margin {low:.2e} nats over {count} states"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
