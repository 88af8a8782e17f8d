"""The span tracer in perfbench/ wraps package names by module attribute.

``tracing.Tracer.install`` reads ``owner.__dict__[attr]`` for every entry of
``tracing.TARGETS``, so a function that is renamed, removed or no longer
imported into the module that calls it breaks ``perfbench/run.py --trace``.
This checks every binding without running the benchmark.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    resolved = tracing.originals()
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(resolved[(owner, attr)]), f"{owner.__name__}.{attr}"
