"""Properties over random dims 2..5, and fuzzes of every numeric CLI flag and of state files."""

import importlib.util
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdisent.cli import main
from qdisent.core import BipartiteState, partial_trace, product_state, tensor_product
from qdisent.correlated import (
    CorrelatedMethod,
    NeumannMethod,
    correlated_local_state,
    disentanglement_report,
    fixed_point_residuals,
    fixed_point_solve,
)
from qdisent.criteria import (
    correlation_gap,
    ppt_test,
    reduction_criterion_test,
    subadditivity_check,
    von_neumann_entropy,
    witness_expectation,
)
from qdisent.reductions import averaged_projective_state, validate_outcome_probs
from qdisent.stateio import save_state
from qdisent.states import (
    pure_product,
    random_density,
    random_ket,
    random_state,
    random_unitary,
    separable_mixture,
)

DIMS = st.tuples(st.integers(2, 5), st.integers(2, 5))
SEEDS = st.integers(0, 2**32 - 1)
QDBENCH = Path(__file__).resolve().parents[1] / "qdbench"


def _load_qdbench(name):
    spec = importlib.util.spec_from_file_location(f"qdbench_{name}", QDBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # corpus.py's dataclass looks its module up while it is being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


corpus = _load_qdbench("corpus")
oracle = _load_qdbench("oracle")


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS)
def test_partial_trace_of_a_product_returns_its_factors(dims, seed):
    rng = np.random.default_rng(seed)
    a = random_density(dims[0], rng)
    b = random_density(dims[1], rng)
    state = product_state(a, b)
    assert np.abs(partial_trace(state, over="B") - a).max() < 1e-12
    assert np.abs(partial_trace(state, over="A") - b).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS)
def test_identity_pointer_reduction_is_the_partial_trace(dims, seed):
    # acceptance criterion 1 at every dims pair, both sides, m = 1, 2, 3
    state = random_state(dims, seed)
    for side, partner, over in (("A", state.n_b, "B"), ("B", state.n_a, "A")):
        red = partial_trace(state, over=over)
        for m in (1, 2, 3):
            got = correlated_local_state(state, np.eye(partner) / partner, side=side, m=m)
            assert np.abs(got - red).max() <= 1e-12


@settings(max_examples=50, deadline=None)
@given(DIMS, SEEDS, st.data())
def test_averaged_projective_state_matches_the_weighted_einsum(dims, seed, data):
    # the column-weighted partial trace has the bytes of the direct
    # contraction, zero weights included
    n_a, n_b = dims
    state = random_state(dims, seed)
    weights = data.draw(st.lists(st.sampled_from((0.0, 0.25, 1.0)) | st.floats(0.0, 1.0),
                                 min_size=n_b, max_size=n_b).filter(any))
    probs = np.array(weights) / sum(weights)
    v = validate_outcome_probs(probs, n_b)
    num = np.einsum("b,abcb->ac", v, state.rho.reshape(n_a, n_b, n_a, n_b))
    expected = num / float(np.trace(num).real)
    assert averaged_projective_state(state, probs).tobytes() == expected.tobytes()


@settings(max_examples=10, deadline=None)
@given(DIMS, SEEDS)
def test_converged_solve_resubstitutes(dims, seed):
    state = random_state(dims, seed)
    pair = fixed_point_solve(state)
    assert pair.converged
    assert max(fixed_point_residuals(state, pair.rho_a, pair.rho_b)) <= 1e-10


def top_kronecker_pair(rho, dims):
    """(A, B, (s2/s1)^2): the unit-trace top singular pair of ``rho`` realigned.

    ``R[(a,c),(b,d)] = rho[(a,b),(c,d)]`` is the realigned matrix of the
    CCNR criterion.  Its top singular pair, reshaped to matrices, is
    the Kronecker product nearest to ``rho`` in Frobenius norm (Van
    Loan & Pitsianis, 1993).  Only ``np.linalg.svd`` is used.
    """
    n_a, n_b = dims
    r = rho.reshape(n_a, n_b, n_a, n_b).transpose(0, 2, 1, 3).reshape(n_a**2, n_b**2)
    u, s, vh = np.linalg.svd(r)
    a, b = u[:, 0].reshape(n_a, n_a), vh[0].reshape(n_b, n_b)
    return a / np.trace(a), b / np.trace(b), (s[1] / s[0]) ** 2


def _density_of_rank(n, rank, rng, noise=0.0):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return (1.0 - noise) * m / np.trace(m).real + noise * np.eye(n) / n


@settings(max_examples=100, deadline=None)
@given(DIMS, SEEDS, st.sampled_from(["full", "any_rank", "near_pure", "pure"]))
def test_m1_pair_is_the_top_singular_pair_of_the_realigned_state(dims, seed, kind):
    # at m = 1 a sweep is a step of power iteration on R R^dag, so the
    # solver reaches the top singular pair of R whenever its top
    # singular value stands clear; pure states take the clamp path
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1]
    rank = {"full": n, "any_rank": int(rng.integers(1, n + 1))}.get(kind, 1)
    rho = _density_of_rank(n, rank, rng, noise=0.01 if kind == "near_pure" else 0.0)
    a, b, gap = top_kronecker_pair(rho, dims)
    assume(gap <= 0.9)
    pair = fixed_point_solve(BipartiteState(rho, dims))
    assert np.abs(pair.rho_a - a).max() <= 1e-9
    assert np.abs(pair.rho_b - b).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS, st.integers(1, 8))
def test_separable_mixtures_pass_ppt_and_reduction(dims, seed, terms):
    # Peres (quant-ph/9604005) and Horodecki (quant-ph/9708015): both
    # are necessary conditions, so every separable state passes them
    state = separable_mixture(dims, seed, k_terms=terms)
    assert ppt_test(state).passed
    assert reduction_criterion_test(state, mode="standard").passed


def _phi(d):
    """The maximally entangled ket sum_i |ii> / sqrt(d)."""
    return np.eye(d).reshape(d * d) / np.sqrt(d)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.floats(0.0, 1.0))
def test_ppt_implies_the_reduction_criterion_on_isotropic_states(d, fidelity):
    # M. & P. Horodecki (PRA 59, 4206, 1999).  On the isotropic family
    # F|phi><phi| + (1 - F)(I - |phi><phi|)/(d^2 - 1) both criteria
    # pass exactly when F <= 1/d; draw clear of the tol band there.  The
    # separable half is the property above
    assume(abs(fidelity - 1.0 / d) >= 0.02)
    proj = np.outer(_phi(d), _phi(d))
    rho = fidelity * proj + (1.0 - fidelity) * (np.eye(d * d) - proj) / (d * d - 1)
    state = BipartiteState(rho, (d, d))
    ppt = ppt_test(state).passed
    assert ppt == reduction_criterion_test(state, mode="standard").passed
    assert ppt == (fidelity < 1.0 / d)


def _entropy_state(dims, rng, kind):
    """A full-rank, a pure (Araki-Lieb tight) or a product (subadditivity tight) state."""
    if kind == "product":
        return product_state(random_density(dims[0], rng), random_density(dims[1], rng))
    n = dims[0] * dims[1]
    return BipartiteState(_density_of_rank(n, n if kind == "full" else 1, rng), dims)


ENTROPY_KINDS = st.sampled_from(["full", "pure", "product"])


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS, ENTROPY_KINDS)
def test_entropy_is_invariant_under_local_unitaries(dims, seed, kind):
    rng = np.random.default_rng(seed)
    state = _entropy_state(dims, rng, kind)
    u = tensor_product(random_unitary(dims[0], rng), random_unitary(dims[1], rng))
    moved = BipartiteState(u @ state.rho @ u.conj().T, dims)
    for over in (None, "A", "B"):
        s0, s1 = (von_neumann_entropy(s.rho if over is None else partial_trace(s, over))
                  for s in (state, moved))
        assert abs(s0 - s1) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS, ENTROPY_KINDS)
def test_entropy_is_subadditive_and_obeys_araki_lieb(dims, seed, kind):
    res = subadditivity_check(_entropy_state(dims, np.random.default_rng(seed), kind))
    assert res.subadditive and res.araki_lieb


def _local_observable(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), SEEDS, st.integers(1, 8))
def test_maximally_entangled_witness_is_non_negative_on_separable_mixtures(d, seed, terms):
    # criterion 9 at d x d: <phi|rho|phi> <= 1/d on every separable rho,
    # and |phi><phi| itself reaches 1/d - 1
    proj = np.outer(_phi(d), _phi(d))
    witness = np.eye(d * d) / d - proj
    assert witness_expectation(separable_mixture((d, d), seed, k_terms=terms), witness) >= -1e-10
    at_phi = witness_expectation(BipartiteState(proj, (d, d)), witness)
    assert abs(at_phi - (1.0 / d - 1.0)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS)
def test_correlation_gap_is_zero_on_pure_products(dims, seed):
    # criterion 9's gap at any dims, for local observables drawn at random
    rng = np.random.default_rng(seed)
    state = pure_product(dims, seed)
    obs_a, obs_b = _local_observable(dims[0], rng), _local_observable(dims[1], rng)
    assert abs(correlation_gap(state, obs_a, obs_b).gap) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS)
def test_correlated_pair_changes_near_pure_entropy_least(dims, seed):
    # the paper's claim: the correlated reduction "minimally changes the
    # entropy of composite system".  It holds in the near-pure regime the
    # paper argues from; on mixed states it can fail (generate random
    # --seed 8: 0.23637 correlated against 0.20529 von Neumann nats)
    n = dims[0] * dims[1]
    psi = random_ket(n, seed)
    rho = 0.99 * np.outer(psi, psi.conj()) + 0.01 * np.eye(n) / n
    state = BipartiteState((rho + rho.conj().T) / 2, dims)
    corr, neumann = disentanglement_report(state, [CorrelatedMethod(), NeumannMethod()])
    assert corr.error is None
    assert corr.entropy_change <= neumann.entropy_change + 1e-12


@st.composite
def _pure_states(draw):
    """Dims 2..5 each and a random ket on their joint space."""
    dims = draw(DIMS)
    return dims, random_ket(dims[0] * dims[1], draw(SEEDS))


@settings(max_examples=100, deadline=None)
@given(_pure_states(), st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
def test_correlated_pair_changes_isotropic_entropy_least(pure, p):
    # the claim over the whole isotropic family p|psi><psi| + (1-p)I/n:
    # white noise at any level keeps it
    dims, psi = pure
    n = len(psi)
    rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(n) / n
    state = BipartiteState((rho + rho.conj().T) / 2, dims)
    corr, neumann = disentanglement_report(state, [CorrelatedMethod(), NeumannMethod()])
    assert corr.error is None
    assert corr.entropy_change <= neumann.entropy_change + 1e-12


def test_correlated_pair_can_change_isotropic_entropy_more_in_magnitude():
    # the property above is the signed reading of the claim: the
    # correlated product is no more mixed than the von Neumann one.  Read
    # as the smallest |change|, it fails inside the same family
    psi, p = random_ket(4, 5), 0.7
    rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4
    state = BipartiteState((rho + rho.conj().T) / 2, (2, 2))
    corr, neumann = disentanglement_report(state, [CorrelatedMethod(), NeumannMethod()])
    assert corr.entropy_change == pytest.approx(-0.14267302036715002, abs=1e-12)
    assert neumann.entropy_change == pytest.approx(0.08441745844050541, abs=1e-12)
    assert corr.entropy_change < 0.0 < neumann.entropy_change
    assert abs(corr.entropy_change) > abs(neumann.entropy_change)


# Every numeric flag, each after the arguments that make it matter.  The
# bench2q base keeps --cases small; no listed value can reach an integer
# flag as a large count, because argparse refuses 1e308 for an int.
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308")
FUZZ_FLAGS = [
    (("validate", "s.json"), "--tol"),
    (("analyze", "s.json"), "--tol"),
    (("disentangle", "--method", "pointer", "s.json"), "--p"),
    (("disentangle", "--method", "pointer", "s.json"), "--b-re"),
    (("disentangle", "--method", "pointer", "s.json"), "--b-im"),
    (("disentangle", "--method", "pointer", "s.json"), "--m"),
    (("disentangle", "s.json"), "--m"),
    (("disentangle", "s.json"), "--tol"),
    (("disentangle", "s.json"), "--max-iter"),
    (("disentangle", "s.json"), "--damping"),
    (("generate", "separable", "--out", "g.json"), "--dims"),
    (("generate", "separable", "--out", "g.json"), "--seed"),
    (("generate", "separable", "--out", "g.json"), "--terms"),
    (("bench2q", "--cases", "2"), "--seed"),
    (("bench2q",), "--cases"),
]


@pytest.mark.parametrize("base, flag", FUZZ_FLAGS,
                         ids=[f"{b[0]}{f}" for b, f in FUZZ_FLAGS])
def test_numeric_flag_fuzz_keeps_the_exit_contract(tmp_path, monkeypatch, capsys,
                                                   base, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QDISENT_TOL", raising=False)
    save_state(tmp_path / "s.json", random_state((2, 2), seed=1))
    for value in FUZZ_VALUES:
        args = [flag, value, value] if flag == "--dims" else [f"{flag}={value}"]
        code = main([*base, *args])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (flag, value, code)
        assert "Traceback" not in err


# Leaves at the edges of the double range: zeros of both signs, denormals,
# entries whose m + m^H overflows, one whose square does, and an int no
# double holds.  Scales push a whole state out of range or to zero.
FUZZ_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e154, 2 ** 53 + 1)
FUZZ_SCALES = (1.0, 1e300, 1e-300, 0.0, -1.0)
# powers past min(dims)**2 - 1 (3 at dims 2x2, 2x3 and 3x2) run silently too
FUZZ_COMMANDS = (("validate",), ("analyze",), ("disentangle",),
                 ("disentangle", "--method", "neumann"), ("disentangle", "--m", "2"),
                 ("disentangle", "--m", "4"), ("disentangle", "--method", "pointer", "--m", "4"))


@st.composite
def _fuzzed_documents(draw):
    """A state document: I/n, a rank-1 projector or a 0/1 diagonal, scaled,
    then up to three leaves set from FUZZ_ENTRIES, each maybe with its mirror."""
    # at 4x4 the product grid is wide enough to render from its upper triangle
    n_a, n_b = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 4)]))
    n = n_a * n_b
    base = draw(st.sampled_from(["mixed", "projector", "diagonal"]))
    if base == "mixed":
        rho = np.eye(n) / n
    elif base == "projector":
        psi = random_ket(n, draw(SEEDS))
        rho = np.outer(psi, psi.conj())
    else:
        rho = np.diag(draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n)))
    # most states keep scale 1, so that edits reach the checks after the trace
    scale = draw(st.one_of(st.just(1.0), st.sampled_from(FUZZ_SCALES)))
    rho = np.asarray(rho, dtype=complex) * scale
    grid = [[[z.real, z.imag] for z in row] for row in rho.tolist()]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        part = draw(st.integers(0, 1))
        value = draw(st.sampled_from(FUZZ_ENTRIES))
        grid[i][j][part] = value
        if draw(st.booleans()):  # mirrored: a hermitian grid stays hermitian
            grid[j][i][part] = value if part == 0 else -value
    return {"dims": [n_a, n_b], "rho": grid}


def _edited(rho, entries, part=0):
    """The 2x2 document of ``rho`` with the real (part 0) or imaginary
    (part 1) part of each ``entries`` position set to its value."""
    grid = [[[z.real, z.imag] for z in row] for row in np.asarray(rho, dtype=complex).tolist()]
    for (i, j), value in entries.items():
        grid[i][j][part] = value
    return {"dims": [2, 2], "rho": grid}


def _edited_quarter_identity(entries, part=0):
    return _edited(np.eye(4) / 4, entries, part)


def _no_constant(name):
    raise ValueError(f"a report holds {name}")


@settings(max_examples=1000, deadline=None)
@given(_fuzzed_documents())
@example(_edited_quarter_identity({(2, 3): -1e308, (3, 2): -1e308}))
@example(_edited_quarter_identity({(0, 1): 1e308, (1, 0): -1e308}))
# valid states whose partial trace (a) or entropy re-solve (b) fails a check
@example(_edited_quarter_identity(dict.fromkeys([(0, 2), (2, 0), (1, 3), (3, 1)], 4.5e-10),
                                  part=1))
@example(_edited_quarter_identity({(0, 1): 0.25 + 0.3e-9, (1, 0): 0.25 + 1.2e-9}))
def test_state_document_fuzz_keeps_the_exit_contract(doc):
    # warnings are errors in this suite, so a numpy warning that would
    # reach stderr fails here too; every failure is the item's own, in
    # the report, and only a file that does not parse exits 3
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "s.json")
        Path(path).write_text(json.dumps(doc))
        for cmd in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*cmd, path])
            assert code in (0, 1, 2, 3), (cmd, code)
            assert err.getvalue() == "", (cmd, err.getvalue())
            report = json.loads(out.getvalue(), parse_constant=_no_constant)
            error = report.get("error") or ""
            assert (code == 3) == error.startswith("StateFormatError: "), (cmd, code, error)


NEAR_TOLERANCE_OFFSETS = (-1.5e-9, -0.9e-9, -0.5e-9, 0.5e-9, 0.9e-9, 1.5e-9)
_PSI = random_ket(4, 0)
NEAR_TOLERANCE_BASES = {
    "I/4": np.eye(4) / 4,
    "projector": np.outer(_PSI, _PSI.conj()),
    "diag(1, 0, 0, 0)": np.diag([1.0, 0.0, 0.0, 0.0]),
}
# Of the 384 near-tolerance edits of each base that the next test
# enumerates, every one that ``validate`` accepts and another command
# rejects, as (row, column, part, mirrored, offset, rejecting command,
# error class).  At I/4 all are README's trace route of "Method factors
# are validated again": the Neumann factors keep the input's trace, so
# their product's defect is about twice the edit's.  The projector and
# the diagonal base add the hermiticity route: an imaginary part moved
# on the diagonal passes validate and fails the hermiticity check of the
# Neumann factors (on the projector, of analyze too).  A change that
# widens or narrows these known limits, or opens another route, changes
# this table.
VALID_BUT_REJECTED = {
    "I/4": {
        (0, 0, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
    },
    "projector": {
        (0, 0, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 1, False, -0.5e-9, "analyze", "NotHermitian"),
        (0, 0, 1, False, -0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (1, 1, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 1, False, 0.5e-9, "analyze", "NotHermitian"),
        (1, 1, 1, False, 0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (1, 1, 1, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 1, False, 0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (2, 2, 1, True, 0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (3, 3, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 1, False, 0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (3, 3, 1, True, 0.5e-9, "analyze", "NotHermitian"),
        (3, 3, 1, True, 0.5e-9, "disentangle --method neumann", "NotHermitian"),
    },
    "diag(1, 0, 0, 0)": {
        (0, 0, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (0, 0, 1, False, -0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (0, 0, 1, False, 0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (0, 0, 1, True, -0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (0, 0, 1, True, 0.5e-9, "disentangle --method neumann", "NotHermitian"),
        (1, 1, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (1, 1, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (2, 2, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, False, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, -0.9e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, -0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, 0.5e-9, "disentangle --method neumann", "TraceNotOne"),
        (3, 3, 0, True, 0.9e-9, "disentangle --method neumann", "TraceNotOne"),
    },
}


def test_near_tolerance_edits_split_validate_from_the_other_commands(tmp_path):
    # one leaf of each base moved by an offset near the 1e-9 tolerance: every
    # position, real or imaginary part, with or without its hermitian mirror
    path = tmp_path / "s.json"
    splits = {}
    for name, rho in NEAR_TOLERANCE_BASES.items():
        base = _edited(rho, {})["rho"]
        split = splits[name] = set()
        for i, j, part, mirrored, offset in itertools.product(
                range(4), range(4), (0, 1), (False, True), NEAR_TOLERANCE_OFFSETS):
            value = base[i][j][part] + offset
            entries = {(i, j): value}
            if mirrored:  # as in the fuzz; on the diagonal the mirror overwrites the edit
                entries[(j, i)] = value if part == 0 else -value
            path.write_text(json.dumps(_edited(rho, entries, part)))
            # a command rejects the document when its item has an error;
            # analyze's exit 1 with no error is the criteria's verdict
            rejected = {}
            for cmd in FUZZ_COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    main([*cmd, str(path)])
                assert err.getvalue() == "", (cmd, err.getvalue())
                error = json.loads(out.getvalue()).get("error")
                if error:
                    rejected[" ".join(cmd)] = error.split(":")[0]
            if "validate" not in rejected:
                split.update((i, j, part, mirrored, offset, *r) for r in rejected.items())
    assert splits == VALID_BUT_REJECTED


BENCH_FAMILIES = ("random", "random_rank4", "separable", "pure_product", "near_pure_0.01")


@settings(max_examples=50, deadline=None)
@given(DIMS, SEEDS, st.sampled_from(BENCH_FAMILIES))
# joint dims that are not a multiple of 4 take the lifted branch of
# core._ptrace's weighted trace
@example((2, 3), 0, "random")
@example((3, 2), 0, "random")
@example((3, 5), 0, "random")
def test_the_bench_oracle_accepts_every_report_at_any_dims(dims, seed, family):
    # the bench corpus and oracle, both free of qdisent, at the
    # non-square dims the bench's own corpus never draws
    rho = corpus.draw(family, dims, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(corpus.render(dims, corpus.cell_rows(rho)), encoding="utf-8")
        for cmd in (("validate",), ("analyze",), ("disentangle", "--method", "correlated")):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*cmd, str(path)])
            assert err.getvalue() == "", (cmd, err.getvalue())
            text = out.getvalue()
            assert oracle.check(cmd[0], rho, dims, 0, family, text, code) == [], cmd
