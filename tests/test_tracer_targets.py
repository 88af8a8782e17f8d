"""The span tracer in perfbench/ wraps package names by module attribute.

``tracing.Tracer.install`` reads ``owner.__dict__[attr]`` for every entry of
``tracing.TARGETS``, so a function that is renamed, removed or no longer
imported into the module that calls it breaks ``perfbench/run.py --trace``.
This checks every binding without running the benchmark, and pins which
traced names no CLI driver calls.
"""

import importlib
from pathlib import Path

from papradmm import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    resolved = tracing.originals()
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(resolved[(owner, attr)]), f"{owner.__name__}.{attr}"


# Traced names that no CLI driver calls: public helpers and certificates that
# only tests and callers outside the package reach.  A change that stops a
# driver calling a traced name, or starts calling one of these, edits this set.
NEVER_CALLED_BY_A_DRIVER = {
    "channel.multipath_apply",
    "direct.augmented_lagrangian",
    "experiments.rng_for",
    "metrics.MetricAccumulator.add_bits",
    "relax.descent_check",
    "relax.multiplier_identity_residual",
    "relax.relax_lagrangian",
}


def test_traced_names_no_driver_calls(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (
            ["table2", "--symbols", "16"],
            ["ccdf", "--symbols", "8"],
            ["psd", "--symbols", "4"],
            ["ber", "--symbols", "16", "--channel", "multipath", "--workers", "2"],
            ["convergence", "--symbols", "4"],
        ):
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0, argv
    finally:
        tracer.uninstall()
    fired = {span[1] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.TARGETS} - fired == NEVER_CALLED_BY_A_DRIVER
