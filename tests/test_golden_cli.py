"""Byte-level golden digests for command-line paths the benchmark corpus misses.

Each case runs ``qdisent.cli.main`` in-process from a fresh directory and
records the exit code and the sha256 of stdout.  The digests were taken
from the implementation before the batch driver and the shared
validation helpers were factored out, (for the ``errwalk`` cases)
before the state-grid codec was vectorised, and (for the ``wide`` cases)
before the tensor product and the solver half-step lost ``np.kron``, so
any change to the report bytes or to the cell-walk error texts shows up
here.  The ``wide`` cases cover a 4x4 solve, a powered and damped solve
and a powered pointer reduction on a 3x2 state.  The ``readerr`` cases
were recorded while the CLI still read each file twice (digest, then
text): they pin the read path's error texts for CRLF and lone-CR line
ends, an invalid UTF-8 byte past the first 8 KiB and a UTF-8 BOM, and
the digest of a valid state written with CRLF line ends.  The
``bench2q_1000_seed1`` case was recorded before the closed two-qubit
tables shared one normalisation weight; it draws 1000 cases where the
``bench2q`` case draws 50.
Floating-point results depend on the numpy build, so the digests only
hold for the numpy version they were recorded with.
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from qdisent.cli import main

NUMPY_VERSION = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"golden digests were recorded with numpy {NUMPY_VERSION},"
           f" this is numpy {np.__version__}",
)

# a well-formed grid with trace 2: a validation failure (exit 1)
TRACE_BREACH = (
    '{\n  "dims": [2, 2],\n  "rho": [[[0.5, 0], [0, 0], [0, 0], [0, 0]],'
    ' [[0, 0], [0.5, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0.5, 0], [0, 0]],'
    ' [[0, 0], [0, 0], [0, 0], [0.5, 0]]]\n}\n'
)


def _int_doc():
    # |00><00| with every cell an int: a valid state
    return {"dims": [2, 2],
            "rho": [[[1 if i == j == 0 else 0, 0] for j in range(4)]
                    for i in range(4)]}


def _error_walk_files():
    """File name -> document text for the batch that exercises the cell walk."""
    bool_cell = _int_doc()
    bool_cell["rho"][1][2] = [True, 0]
    short_row = _int_doc()
    short_row["rho"][2] = short_row["rho"][2][:3]
    unknown_key = _int_doc()
    unknown_key["extra"] = 1
    docs = {"bool_cell.json": bool_cell, "ints.json": _int_doc(),
            "short_row.json": short_row, "unknown_key.json": unknown_key}
    return {name: json.dumps(doc) + "\n" for name, doc in docs.items()}


def _read_error_files():
    """File name -> raw bytes for the batch that exercises the read path."""
    broken = '{\n  "dims": [2, 2],\n  "rho": oops\n}\n'
    pad = json.dumps({"dims": [2, 2], "meta": {"pad": "x" * 9000}})
    return {
        "bom.json": b"\xef\xbb\xbf" + json.dumps(_int_doc()).encode(),
        "crlf_state.json": json.dumps(_int_doc(), indent=2).replace(
            "\n", "\r\n").encode() + b"\r\n",
        "crlf_syntax.json": broken.replace("\n", "\r\n").encode(),
        "cr_syntax.json": broken.replace("\n", "\r").encode(),
        "late_bad_byte.json": pad[:-2].encode() + b'\xff"}}\n',
    }

# (name, argv), run in this order: the generate cases write the batch
# directory that the later cases read
CASES = (
    ("generate_bell", ("generate", "bell", "--out", "batch/bell.json")),
    ("generate_pure_product", ("generate", "pure_product", "--dims", "3", "2",
                               "--seed", "2", "--out", "batch/product.json")),
    ("generate_separable_mixture", ("generate", "separable_mixture", "--seed", "7",
                                    "--terms", "3", "--out", "batch/separable.json")),
    ("generate_maximally_mixed", ("generate", "maximally_mixed", "--dims", "2", "3",
                                  "--out", "batch/mixed.json")),
    ("generate_random", ("generate", "random", "--dims", "3", "2", "--seed", "4",
                         "--out", "batch/random.json")),
    ("disentangle_neumann", ("disentangle", "--method", "neumann",
                             "batch/random.json")),
    ("disentangle_pointer", ("disentangle", "--method", "pointer", "--p", "0.3",
                             "--b-re", "0.1", "batch/random.json")),
    ("batch_validate", ("validate", "batch")),
    ("batch_analyze", ("analyze", "batch")),
    ("batch_disentangle", ("disentangle", "batch")),
    ("bench2q", ("bench2q", "--cases", "50")),
    ("bench2q_1000_seed1", ("bench2q", "--cases", "1000", "--seed", "1")),
    ("errwalk_validate", ("validate", "errwalk")),
    ("errwalk_analyze", ("analyze", "errwalk")),
    ("wide_generate_random44", ("generate", "random", "--dims", "4", "4",
                                "--seed", "11", "--out", "wide/random44.json")),
    ("wide_generate_random32", ("generate", "random", "--dims", "3", "2",
                                "--seed", "12", "--out", "wide/random32.json")),
    ("wide_disentangle", ("disentangle", "wide/random44.json")),
    ("wide_disentangle_m2_damped", ("disentangle", "--m", "2", "--damping", "0.3",
                                    "wide/random44.json")),
    ("wide_pointer_m2", ("disentangle", "--method", "pointer", "--m", "2",
                         "wide/random32.json")),
    ("wide_analyze", ("analyze", "wide/random44.json")),
    ("readerr_validate", ("validate", "readerr")),
    ("readerr_analyze", ("analyze", "readerr")),
)

# name -> (exit code, sha256 of stdout)
GOLDEN = {
    "generate_bell": (0, "9978749bd023688774e1d7b0472f28a480f5326afe847877031883acee543a99"),
    "generate_pure_product": (0, "d800f84c45d21bc18782ddcf895ac51da8239d30867ffe6ecb6af726cd3f6518"),
    "generate_separable_mixture": (0, "bd5d97b44bf72f3051d4b98efeb28458e2997314fc8d882508d2a907929a76bf"),
    "generate_maximally_mixed": (0, "7635b33088527ff1d247b5b094a664d22c0ba5a604845dc869d7da352573cd32"),
    "generate_random": (0, "d1d842883abce8d6af7aa937da5118e323103540ac6971d4c7a044d66b84fb62"),
    "disentangle_neumann": (0, "029880b25f14ad7e8f82334777f13af4620fbf35028c995c64c21dad4274ef69"),
    "disentangle_pointer": (0, "4b99af8c08378073926ced5f5c10e86b4c4fce956c1f9974992f65e459a0bf5b"),
    "batch_validate": (3, "b8e022351a94d408112fc45fe0e9c5974aefffcba8350f811ab8b10627601f24"),
    "batch_analyze": (3, "f1136392b312241440a505b61431d283021764b1a5b7dc912bf9653594e0f77d"),
    "batch_disentangle": (3, "82bf543f1f29a51ea26ab62032224e09a6d9630f5a62a0de23b84c36742d781d"),
    "bench2q": (0, "b7d79d7578f77de226a5014065de7c8f5509f906cdc7beaa1af0fd08e7b9a620"),
    "bench2q_1000_seed1": (0, "d2d3a7ea88675be52b8cd0f70d65a2ec1ed248227c8b08923edd9abd61e1d12b"),
    "errwalk_validate": (3, "49b3707f4301338809eacce14037fb498f94ea49c832937b7f1d8b0044380033"),
    "errwalk_analyze": (3, "9411d9f4e65dacdbcac54af290a87abc49003c75a73369944726c3c75beea39f"),
    "wide_generate_random44": (0, "599c26f48c603f4d5534d6c04ecdc9c0787507ec883882fefaad9ffd71b15569"),
    "wide_generate_random32": (0, "ef22473901f2d1735b85072ab1d003e22210f55c0fb4def0094e4866b3f7a385"),
    "wide_disentangle": (0, "29cc9829427c89bec713e600c41927c8804fbba716f1ea485df5312be98e6f53"),
    "wide_disentangle_m2_damped": (0, "24a91df9c0dd6e0c3f0d3755d0e6e204285f5c329e4e8c767dce1b78a1be4818"),
    "wide_pointer_m2": (0, "60ecc7edb58ee9798992babe2bb2f5bf0d0ceadcc6554644859866bcf3ffcd8a"),
    "wide_analyze": (1, "09ca453646eb38c13f3c60a1993287828f3cd56688ee8fa65246ecdfe34b8931"),
    "readerr_validate": (3, "9d75deb22421bf4777e9e6be796060ab2296f32a555bba406c14c91e64e72c35"),
    "readerr_analyze": (3, "efc6fb45d837fdc7a6e26cd2ec5a27c18ef7bb607551c1afc77355b41912680e"),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "batch").mkdir()
    (root / "batch" / "junk.json").write_text("{oops", encoding="utf-8")
    (root / "batch" / "trace.json").write_text(TRACE_BREACH, encoding="utf-8")
    (root / "errwalk").mkdir()
    (root / "wide").mkdir()
    for name, text in _error_walk_files().items():
        (root / "errwalk" / name).write_text(text, encoding="utf-8")
    (root / "readerr").mkdir()
    for name, data in _read_error_files().items():
        (root / "readerr" / name).write_bytes(data)
    out = {}
    cwd = os.getcwd()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QDISENT_TOL", raising=False)
        os.chdir(root)
        try:
            for name, argv in CASES:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(argv))
                digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
                out[name] = (code, digest)
        finally:
            os.chdir(cwd)
    return out


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_report_bytes_match_golden(reports, name):
    assert reports[name] == GOLDEN[name]
