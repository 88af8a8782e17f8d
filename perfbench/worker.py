"""One fresh workload process, started by run.py.

    worker.py setup -- PROGRAM_ARGV...
        Time ``import papradmm`` plus config resolution; print it as JSON.
    worker.py scipy-signal
        Time ``import scipy.signal`` alone; print it as JSON.
    worker.py run WORKLOAD SEED SECONDS TRACE SCALE RESULT_JSON -- PROGRAM_ARGV...
        Set up, run the workload once cold (its peak RSS is read right
        after), then measure warm runs for SECONDS.  With TRACE=1 the warm
        runs alternate untraced and traced.  Every run's CSVs are checked
        against the reference.  The result goes to RESULT_JSON.

The clock starts before any other import so that ``setup_s`` covers the
whole import.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2


def _setup(program_argv):
    from papradmm import cli

    cli.load_config(cli.build_parser().parse_args(program_argv))
    return cli, time.perf_counter() - _T0


def _one_run(cli, check, program_argv, out_dir, csvs, ref_dir):
    """Run the driver once; return (wall_s, cpu_s, rows_checked, rows_failed)."""
    for name in csvs:
        (out_dir / name).unlink(missing_ok=True)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(program_argv)
    except Exception as exc:  # a crash fails every row of the run
        code = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    checked = failed = 0
    for name in csvs:
        if code == 0:
            n, bad, messages = check.compare(ref_dir / name, out_dir / name)
        else:
            n = bad = check.reference_rows(ref_dir / name)
            messages = [f"{name}: driver returned {code!r}"]
        checked, failed = checked + n, failed + bad
        for msg in messages[:5]:
            print(f"output check: {msg}", file=sys.stderr)
    return wall, cpu, checked, failed


def _run(workload_name, bench_seed, seconds, trace, scale, result_path, program_argv):
    cli, setup_s = _setup(program_argv)

    import json
    import resource
    import statistics
    from pathlib import Path

    import numpy
    import scipy

    import check
    from workloads import WORKLOADS, reference_dir

    workload = WORKLOADS[workload_name]
    ref_dir = reference_dir(workload, scale, bench_seed)
    out_dir = Path(program_argv[program_argv.index("--out") + 1])
    checked = failed = 0

    def run_once():
        nonlocal checked, failed
        wall, cpu, n, bad = _one_run(cli, check, program_argv, out_dir, workload.csvs, ref_dir)
        checked, failed = checked + n, failed + bad
        return wall, cpu

    run_once()  # cold run: warms caches and sets the peak RSS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        },
    }
    start = time.perf_counter()
    if not trace:
        walls, cpus = [], []
        while len(walls) < MIN_TIMED_RUNS or (
            time.perf_counter() - start + statistics.median(walls) <= seconds
        ):
            wall, cpu = run_once()
            walls.append(wall)
            cpus.append(cpu)
        result.update(walls=walls, cpus=cpus)
    else:
        import tracing

        tracer = tracing.Tracer()
        before = tracing.originals()
        untraced, traced, per_run, thread_totals = [], [], [], []
        while len(traced) < MIN_TRACED_RUNS or (
            time.perf_counter() - start + statistics.median(untraced) + statistics.median(traced)
            <= seconds
        ):
            untraced.append(run_once()[0])
            tracer.run += 1
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_once()[0])
            finally:
                tracer.uninstall()
            spans = tracer.spans[first:]
            per_run.append(tracing.run_layers(spans))
            thread_totals.append(max(tracing.thread_self_totals(spans).values()))
        restored = tracing.originals() == before
        tracer.write_spans(out_dir / "spans.csv")
        result.update(
            untraced_walls=untraced, traced_walls=traced, layers=per_run,
            max_thread_self_s=thread_totals, restored=restored,
        )
    result.update(checked=checked, failed=failed)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    program_argv = rest[rest.index("--") + 1:] if "--" in rest else []
    if mode == "setup":
        _, setup_s = _setup(program_argv)
        print(f'{{"setup_s": {setup_s!r}}}')
        return 0
    if mode == "scipy-signal":
        t0 = time.perf_counter()
        import scipy.signal  # noqa: F401

        print(f'{{"scipy_signal_import_s": {time.perf_counter() - t0!r}}}')
        return 0
    if mode == "run":
        workload, seed, seconds, trace, scale, result_path = rest[:6]
        return _run(
            workload, int(seed), float(seconds), trace == "1", scale, result_path, program_argv
        )
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
