"""The benchmark's trace hooks resolve against the package.

perfbench/spans.py wraps the TARGETS names from outside tarry2d.  A rename or
deletion of one makes Tracer.patched() fail; this catches it in the tests,
before a traced benchmark run would.
"""

import functools
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_targets_patch_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")

    def lookup():
        found = []
        for module, path, *_ in spans.TARGETS:
            *outer, attr = path.split(".")
            owner = functools.reduce(getattr, outer, importlib.import_module(module))
            found.append(vars(owner)[attr])
        return found

    originals = lookup()
    with spans.Tracer().patched():
        assert all(now is not raw for now, raw in zip(lookup(), originals))
    assert all(now is raw for now, raw in zip(lookup(), originals))
