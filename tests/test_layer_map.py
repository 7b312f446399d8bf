"""The benchmark's layer map names library functions that exist."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_layer_map_name_resolves(monkeypatch):
    """Each (owner, attribute) of `perfbench/spans.py`'s `LAYER_MAP` is an
    attribute the library's module or class holds itself, as the traced
    benchmark run wraps it; spans.py is loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layer_map_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_MAP
    missing = ["%s.%s" % (owner, attr) for owner, attr, *_ in spans.LAYER_MAP
               if attr not in vars(spans._resolve(owner))]
    assert missing == []
