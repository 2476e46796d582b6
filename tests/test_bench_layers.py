"""The benchmark's per-layer trace must still find every entry point it wraps.

``qdbench/spans.py`` replaces functions at the module attributes their
callers resolve, such as ``qdisent.cli.doc_to_matrix``.  If the CLI
stops looking a layer up under that name, the traced run reports the
layer as absent or records no calls for it, and the per-layer numbers
silently go missing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qdisent.cli import main
from qdisent.stateio import dumps_canonical

SPANS_PATH = Path(__file__).resolve().parents[1] / "qdbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("qdbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _, _ in spans.layer_table({})
])
def test_layer_entry_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_traced_commands_reach_every_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QDISENT_TOL", raising=False)
    grid = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    (tmp_path / "mixed.json").write_text(
        dumps_canonical({"dims": [2, 2], "rho": grid}))
    tracer = spans.Tracer({})
    tracer.install()
    try:
        assert tracer.absent == []
        for argv in (["validate", "mixed.json"], ["analyze", "mixed.json"],
                     ["disentangle", "mixed.json"]):
            assert tracer.call(0, main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    seen = {rec[spans.NAME] for rec in tracer.spans}
    assert seen == {spans.ROOT} | {layer for _, _, layer, _ in spans.layer_table({})}
