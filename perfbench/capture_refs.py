"""Capture the reference CSVs that every benchmark run is checked against.

Run from the repository root at the commit whose outputs define "correct":

    python3 perfbench/capture_refs.py [WORKLOAD ...]

It runs each named workload (default: all) once per pool seed at full scale
and for the default and held-out seeds at tiny scale, and writes the CSVs under
``perfbench/reference/<scale>/<workload>/seed<n>/``.  Re-capture only in a
change that alters the program's intended output, and say so there.
"""

import os
import subprocess
import sys

from workloads import (
    DEFAULT_SEED, HELD_OUT_SEED, REFERENCE_DIR, SEED_POOL, SRC_DIR, THREAD_ENV,
    WORKLOADS, reference_dir, workload_argv,
)


def capture(names, scale: str, bench_seeds) -> None:
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC_DIR)}
    for workload in (WORKLOADS[name] for name in names):
        for bench_seed in bench_seeds:
            out = reference_dir(workload, scale, bench_seed)
            argv = workload_argv(workload, scale, bench_seed, out)
            subprocess.run(
                [sys.executable, "-m", "papradmm.cli", *argv],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
            print(f"captured {out.relative_to(REFERENCE_DIR)}", flush=True)


def main(names) -> int:
    names = names or list(WORKLOADS)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    capture(names, "full", range(len(SEED_POOL)))
    capture(names, "tiny", (DEFAULT_SEED, HELD_OUT_SEED))
    (REFERENCE_DIR / "CAPTURED_AT").write_text(commit + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
