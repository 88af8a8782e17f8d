"""Smoke test of the benchmark harness, run at tiny scale.

    python3 -m pytest -q perfbench/test_smoke.py

Takes about a minute.  It is not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, reference_dir, workload_argv  # noqa: E402

LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_and_no_output_fails(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = LISTED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["attempted"] > 0
    assert result["failed"] == 0  # failed_frac = 0
    assert result["correct"]


def test_tracer_restores_attributes_and_self_time_fits_wall(tmp_path):
    from papradmm import cli

    before = tracing.originals()
    tracer = tracing.Tracer()
    argv = workload_argv(WORKLOADS["ber_multipath"], "tiny", DEFAULT_SEED, tmp_path)
    tracer.install()
    try:
        start = time.perf_counter()
        assert cli.main(argv) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert tracing.originals() == before
    totals = tracing.thread_self_totals(tracer.spans)
    assert len(totals) >= 2  # the caller and at least one solve_batch worker
    assert all(total <= wall for total in totals.values())
    layers = tracing.run_layers(tracer.spans)
    assert layers["experiments.solve_batch.imbalance_s"] >= 0.0
    assert layers["dsp.demap_bits.rows"] > 0


def _perturbed(tmp_path, name: str, column: str, change) -> tuple:
    workload = next(w for w in WORKLOADS.values() if name in w.csvs)
    ref = reference_dir(workload, "full", DEFAULT_SEED) / name
    out = tmp_path / name
    shutil.copy(ref, out)
    rows = [line.split(",") for line in out.read_text().splitlines()]
    col = rows[0].index(column)
    rows[1][col] = change(rows[1][col], rows[1])
    out.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return ref, out


@pytest.mark.parametrize("name,column,change", [
    ("table2.csv", "evm_db", lambda v, row: f"{float(v) + 2e-4:.4f}"),
    ("ber.csv", "ber", lambda v, row: repr(float(v) + 1.0 / int(row[4]))),
    ("convergence.csv", "median_residual", lambda v, row: repr(float(v) * 1.001)),
    ("consensus_gap.csv", "median_gap", lambda v, row: repr(float(v) * 0.999)),
    ("consensus_gap.csv", "bound_ok_fraction", lambda v, row: "0.95"),
])
def test_check_rejects_a_perturbed_reference(tmp_path, name, column, change):
    ref, out = _perturbed(tmp_path, name, column, change)
    checked, failed, _ = check.compare(ref, out)
    assert (checked, failed) == (check.reference_rows(ref), 1)


@pytest.mark.parametrize("name,column", [
    ("convergence.csv", "median_residual"),
    ("consensus_gap.csv", "median_gap"),
])
def test_check_accepts_drift_far_below_tolerance(tmp_path, name, column):
    ref, out = _perturbed(tmp_path, name, column, lambda v, row: repr(float(v) * (1 + 1e-6)))
    assert check.compare(ref, out)[1] == 0
