"""papradmm benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Runs from the repository root.  Each invocation starts fresh processes (see
worker.py), pins the BLAS/OpenMP thread counts to 1, checks every driver
run's CSVs against the references in perfbench/reference, and prints a
summary, an environment record and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count checked CSV rows, so ``failed_frac = failed / attempted``.

Metrics (names and units are those listed in BENCHMARK.json):

* --trace 0: ``wall_s`` and ``cpu_s`` are medians over the warm runs of one
  process; ``setup_s`` is the median over SETUP_SAMPLES fresh processes of
  the time to import papradmm and resolve the config; ``peak_rss_mb`` is
  the peak RSS (1 MB = 1e6 B) of a fresh process after one run.
* --trace 1: per-layer self times (medians over traced runs), exact counts,
  which must repeat across traced runs, ``dsp.fft_pair.bytes_computed``
  (computed from shapes, not measured), the tracing overhead and the
  ``import scipy.signal`` time of a fresh process.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import (
    BENCH_DIR, BUILD_DIR, REPO_ROOT, SCALES, SRC_DIR, THREAD_ENV, WORKLOADS,
    program_seed, reference_dir, workload_argv,
)

SETUP_SAMPLES = {"full": 8, "tiny": 2}
SCIPY_SIGNAL_SAMPLES = {"full": 2, "tiny": 1}
CHILD_TIMEOUT_S = 150


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_frac"):
        return "1"
    return "count"


def _child(args, env, timeout=CHILD_TIMEOUT_S) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout


def _setup_sample(program_argv, env) -> float:
    return json.loads(_child(["setup", "--", *program_argv], env))["setup_s"]


def environment(env) -> dict:
    """What a result depends on besides the code: recorded with every result."""
    commit = None
    if (REPO_ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "papradmm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        **{key: env.get(key) for key in THREAD_ENV},
    }


def end_to_end(result, setup_samples) -> dict:
    return {
        "wall_s": statistics.median(result["walls"]),
        "cpu_s": statistics.median(result["cpus"]),
        "setup_s": statistics.median([result["setup_s"], *setup_samples]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, scipy_samples) -> tuple:
    """Per-layer metrics and a list of problems that make the run incorrect."""
    runs, traced, untraced = result["layers"], result["traced_walls"], result["untraced_walls"]
    problems = []
    metrics = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if unit_of(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs across traced runs: {values}")
            metrics[name] = values[0]
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["setup.scipy_signal_import_s"] = statistics.median(scipy_samples)
    if not result["restored"]:
        problems.append("a wrapped attribute was not restored")
    for wall, self_total in zip(traced, result["max_thread_self_s"]):
        if self_total > wall:
            problems.append(f"per-thread self time {self_total} exceeds traced wall {wall}")
    return metrics, problems


def layer_check(metrics) -> list:
    """Which layer each workload loads, as lines for the summary."""
    self_times = {
        k[: -len(".self_s")]: v for k, v in metrics.items()
        if k.endswith(".self_s") and k != "cli.main.self_s"
    }
    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:3]
    link = sum(
        v for k, v in self_times.items()
        if k.startswith("channel.") or k in ("dsp.demap_bits", "experiments.driver")
    )
    relax_trace = sum(
        self_times[k] for k in
        ("relax.relax_lagrangian", "relax.multiplier_identity_residual", "relax.descent_check")
    )
    return [
        "largest self times: " + ", ".join(f"{k} {v:.4f} s" for k, v in top),
        f"channel.* + dsp.demap_bits + experiments.driver self {link:.4f} s; "
        f"engine calls (direct, relax, rcf, children included) {metrics['engines.inclusive_s']:.4f} s",
        f"relax trace share (lagrangian + identity + descent) {relax_trace / metrics['trace.wall_s']:.4f} "
        "of traced wall",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="all runs every workload in turn, each with its own result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny runs each workload at a few symbols (smoke test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        return max(main(["--workload", name, *rest]) for name in WORKLOADS)

    if not (SRC_DIR / "papradmm" / "__init__.py").is_file():
        print(f"no papradmm sources under {SRC_DIR}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ref_dir = reference_dir(workload, args.scale, args.seed)
    if not ref_dir.is_dir():
        print(f"no reference outputs in {ref_dir}", file=sys.stderr)
        return 2
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    out_dir = BUILD_DIR / "out" / f"{args.scale}-{workload.name}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"result-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    program_argv = workload_argv(workload, args.scale, args.seed, out_dir)
    env = {**os.environ, **THREAD_ENV}
    try:
        # Set-up samples run before and after the workload process, so that
        # their median spans the whole invocation rather than one moment.
        n_setup = 0 if args.trace else SETUP_SAMPLES[args.scale] - 1
        setup_samples = [_setup_sample(program_argv, env) for _ in range(n_setup // 2)]
        _child(["run", workload.name, str(args.seed), str(args.seconds), str(args.trace),
                args.scale, str(result_path), "--", *program_argv], env)
        result = json.loads(result_path.read_text())
        setup_samples += [_setup_sample(program_argv, env) for _ in range(n_setup - n_setup // 2)]
        if args.trace:
            scipy_samples = [
                json.loads(_child(["scipy-signal"], env))["scipy_signal_import_s"]
                for _ in range(SCIPY_SIGNAL_SAMPLES[args.scale])
            ]
            metrics, problems = per_layer(result, scipy_samples)
            timed_runs = len(result["traced_walls"])
        else:
            metrics, problems = end_to_end(result, setup_samples), []
            timed_runs = len(result["walls"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not produced: {missing}", file=sys.stderr)
        return 1
    checked, failed = result["checked"], result["failed"]
    for problem in problems:
        print(f"trace check: {problem}", file=sys.stderr)

    env_record = {**environment(env), "versions": result["versions"]}
    print(f"workload {workload.name}: {' '.join(program_argv[:-2])} "
          f"(benchmark seed {args.seed}, program seed {program_seed(args.seed)}, "
          f"{timed_runs} timed runs)")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<44} {value:>16.6g} {unit_of(name)}")
    print(f"  {'failed_frac':<44} {failed / checked:>16.6g} 1  ({failed} of {checked} rows)")
    if args.trace:
        for line in layer_check(metrics):
            print(f"  {line}")
    print("env " + json.dumps(env_record, sort_keys=True))
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "time": time.time(), "env": env_record, "raw": result, "metrics": metrics,
    }
    (out_dir / f"record-trace{args.trace}-{time.time_ns()}.json").write_text(json.dumps(record))

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": checked,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": unit_of(m["name"])}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
