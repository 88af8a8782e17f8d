"""Workload definitions shared by the runner, the worker and the reference capture.

A workload is one ``papradmm`` CLI invocation.  The benchmark seed selects a
program seed from ``SEED_POOL``; every pool seed has reference CSVs captured
at the commit named in ``reference/CAPTURED_AT``, so each run's output can be
checked row by row.
"""

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
BUILD_DIR = REPO_ROOT / ".bench_build" / "perfbench"

# Program seeds with captured references.  Benchmark seed n runs
# SEED_POOL[n % len(SEED_POOL)].  Seed 0 is the package default; seed 1 is
# held out: tune a change on seed 0 and re-check its claim on seed 1.
SEED_POOL = (12345, 31415, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# Pinned in every workload process so that ``--workers 2`` is the only
# parallelism.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    tiny_argv: tuple
    csvs: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table2",
            ("table2", "--symbols", "1000"),
            ("table2", "--symbols", "16"),
            ("table2.csv",),
            "both engines on a 1000-row batch for 5 sweeps: the engines' hot path",
        ),
        Workload(
            "ber_multipath",
            ("ber", "--symbols", "1000", "--channel", "multipath", "--workers", "2"),
            ("ber", "--symbols", "16", "--channel", "multipath", "--workers", "2"),
            ("ber.csv",),
            "link simulator with PA, multipath and noise; the only 2-thread workload",
        ),
        Workload(
            "convergence_small",
            ("convergence", "--symbols", "8"),
            ("convergence", "--symbols", "4"),
            ("convergence.csv", "consensus_gap.csv"),
            "8-row batches over ~1,600 sweeps: per-call and per-sweep cost dominate",
        ),
    )
}

SCALES = ("full", "tiny")


def program_seed(bench_seed: int) -> int:
    return SEED_POOL[bench_seed % len(SEED_POOL)]


def workload_argv(workload: Workload, scale: str, bench_seed: int, out_dir) -> list:
    base = workload.argv if scale == "full" else workload.tiny_argv
    return [*base, "--seed", str(program_seed(bench_seed)), "--out", str(out_dir)]


def reference_dir(workload: Workload, scale: str, bench_seed: int) -> Path:
    return REFERENCE_DIR / scale / workload.name / f"seed{program_seed(bench_seed)}"
