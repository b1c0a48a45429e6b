"""The benchmark's tracer wraps package functions by module attribute
(``bench/spans.py``, ``WRAPPED``); a renamed or removed function must fail
here rather than only in a bench run."""
import importlib.util
import os
import sys

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def test_every_wrapped_binding_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert len(spans.WRAPPED) > 0
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _name, _count in spans.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
