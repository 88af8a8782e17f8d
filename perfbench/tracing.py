"""Span tracing of papradmm from outside the package.

``Tracer.install`` replaces module attributes that the package looks up at
call time (``dsp.fft_oversampled``, the names ``experiments``, ``direct`` and
``relax`` import, ...) with wrappers that record one span per call;
``Tracer.uninstall`` puts every original back.  Nothing in ``src/papradmm``
is edited.

A span is ``(id, name, start, end, parent, thread, run, counts)``.  Each
thread keeps its own stack, so the two ``solve_batch`` worker threads nest
their spans correctly; a task submitted to the pool takes the submitting
thread's open span as its parent.  Spans stay in memory until
``write_spans``.
"""

import functools
import itertools
import statistics
import threading
import time

import numpy as np

from papradmm import cli, direct, dsp, experiments, metrics, relax

TASK_SPAN = "experiments.solve_batch.task"
_BYTES_PER_SAMPLE = 16  # complex128


def _rows(a) -> int:
    shape = np.shape(a)
    return shape[0] if len(shape) > 1 else 1


def _count_rows(args, kwargs, result):
    return {"rows": _rows(args[0])}


def _count_ifft(args, kwargs, result):
    rows = _rows(args[0])
    # rows x L*N samples in and out, computed from shapes, not measured.
    return {"rows": rows, "bytes": 2 * rows * np.shape(result)[-1] * _BYTES_PER_SAMPLE}


def _count_fft(args, kwargs, result):
    rows = _rows(args[0])
    return {"rows": rows, "bytes": 2 * rows * np.shape(args[0])[-1] * _BYTES_PER_SAMPLE}


def _count_engine(args, kwargs, result):
    report = result[2]
    active = ~np.asarray(report.bypassed)
    return {
        "rows": _rows(args[0]),
        "sweeps": int(report.iterations),
        "active_rows": int(active.sum()),
        "converged_rows": int((np.asarray(report.converged) & active).sum()),
    }


# (owner, attribute, span name, counter).  A function imported into several
# modules is wrapped at every binding the package calls it through.
TARGETS = (
    (cli, "main", "cli.main", None),
    (dsp, "ifft_oversampled", "dsp.ifft_oversampled", _count_ifft),
    (dsp, "fft_oversampled", "dsp.fft_oversampled", _count_fft),
    (dsp, "papr", "dsp.papr", None),
    (dsp, "papr_db", "dsp.papr_db", None),
    (dsp, "map_bits", "dsp.map_bits", _count_rows),
    (dsp, "demap_bits", "dsp.demap_bits", _count_rows),
    (direct, "c_update", "subproblems.c_update", None),
    (direct, "x_update", "subproblems.x_update", _count_rows),
    (direct, "augmented_lagrangian", "direct.augmented_lagrangian", None),
    (relax, "c_update", "subproblems.c_update", None),
    (relax, "x_update", "subproblems.x_update", _count_rows),
    (relax, "uw_update", "subproblems.uw_update", None),
    (relax, "relax_lagrangian", "relax.relax_lagrangian", None),
    (relax, "descent_check", "relax.descent_check", None),
    (relax, "multiplier_identity_residual", "relax.multiplier_identity_residual", None),
    (relax, "feasible_start_state", "relax.feasible_start_state", None),
    (experiments, "direct_solve", "direct.direct_solve", _count_engine),
    (experiments, "relax_solve", "relax.relax_solve", _count_engine),
    (experiments, "rcf", "rcf.rcf", None),
    (experiments, "sspa", "channel.sspa", None),
    (experiments, "saturation_amplitude", "channel.saturation_amplitude", None),
    (experiments, "multipath_apply", "channel.multipath_apply", None),
    (experiments, "equalize_zero_forcing", "channel.equalize_zero_forcing", None),
    (experiments, "channel_frequency_response", "channel.channel_frequency_response", None),
    (experiments, "noise_variance_per_sample", "channel.noise_variance_per_sample", None),
    (experiments, "rng_for", "experiments.rng_for", None),
    (experiments, "generate_bits", "experiments.generate_bits", None),
    (experiments, "solve_batch", "experiments.solve_batch", None),
    (experiments, "write_csv", "experiments.write_csv", None),
    (experiments, "run_table2", "experiments.driver", None),
    (experiments, "run_ccdf", "experiments.driver", None),
    (experiments, "run_convergence", "experiments.driver", None),
    (experiments, "run_consensus_gap", "experiments.driver", None),
    (experiments, "run_ber", "experiments.driver", None),
    (experiments, "run_psd", "experiments.driver", None),
    (experiments, "run_bench", "experiments.driver", None),
    (metrics, "evm_db", "metrics.evm_db", None),
    (metrics.MetricAccumulator, "add_bits", "metrics.MetricAccumulator.add_bits", None),
)


class Tracer:
    """Records spans while installed; ``run`` tags the spans of one driver run."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.root = None
        return local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else self._local.root

    def call(self, name, fn, counter, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._local.root
        stack.append(span_id)
        start = time.perf_counter()
        result = counts = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if counter is not None and result is not None:
                counts = counter(args, kwargs, result)
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), self.run, counts)
            )

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        self._saved.append((experiments, "ThreadPoolExecutor", experiments.ThreadPoolExecutor))
        experiments.ThreadPoolExecutor = self._pool_class(experiments.ThreadPoolExecutor)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    tracer._stack()
                    tracer._local.root = parent
                    try:
                        return tracer.call(TASK_SPAN, fn, None, args, kwargs)
                    finally:
                        tracer._local.root = None

                return super().submit(task)

        return TracedPool

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run,id,name,start,end,parent,thread\n")
            for span_id, name, start, end, parent, thread, run, _ in self.spans:
                fh.write(f"{run},{span_id},{name},{start!r},{end!r},{parent or ''},{thread}\n")


def originals() -> dict:
    """The attributes ``install`` replaces, as ``{(owner, attr): object}``."""
    out = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in TARGETS}
    out[(experiments, "ThreadPoolExecutor")] = experiments.ThreadPoolExecutor
    return out


def self_times(spans) -> dict:
    """Per-span self time: duration minus same-thread child durations."""
    self_s = {s[0]: s[3] - s[2] for s in spans}
    thread_of = {s[0]: s[5] for s in spans}
    for span_id, _, start, end, parent, thread, _, _ in spans:
        if parent in self_s and thread_of[parent] == thread:
            self_s[parent] -= end - start
    return self_s


def thread_self_totals(spans) -> dict:
    """Sum of self time per thread; each is at most the traced wall time."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s[5]] = totals.get(s[5], 0.0) + own[s[0]]
    return totals


def run_layers(spans) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        agg = by_name.setdefault(s[1], {"self_s": 0.0, "calls": 0, "counts": {}})
        agg["self_s"] += own[s[0]]
        agg["calls"] += 1
        for key, value in (s[7] or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value

    def get(name, field):
        agg = by_name.get(name)
        if agg is None:
            return 0.0 if field == "self_s" else 0
        if field in ("self_s", "calls"):
            return agg[field]
        return agg["counts"].get(field, 0)

    out = {}
    for name in ("dsp.ifft_oversampled", "dsp.fft_oversampled", "subproblems.x_update"):
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.rows"] = get(name, "rows")
    out["dsp.fft_pair.bytes_computed"] = get("dsp.ifft_oversampled", "bytes") + get(
        "dsp.fft_oversampled", "bytes"
    )
    out["dsp.demap_bits.rows"] = get("dsp.demap_bits", "rows")
    for name in ("subproblems.c_update", "subproblems.uw_update", "experiments.rng_for"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("direct.direct_solve", "relax.relax_solve"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.sweeps"] = get(name, "sweeps")
        active = get(name, "active_rows")
        out[f"{name}.converged_frac"] = get(name, "converged_rows") / active if active else 0.0
    for name in (
        "dsp.papr", "dsp.map_bits", "dsp.demap_bits",
        "subproblems.c_update", "subproblems.uw_update",
        "direct.direct_solve", "direct.augmented_lagrangian",
        "relax.relax_solve", "relax.relax_lagrangian",
        "relax.multiplier_identity_residual", "relax.descent_check",
        "relax.feasible_start_state", "rcf.rcf",
        "channel.sspa", "channel.multipath_apply", "channel.equalize_zero_forcing",
        "metrics.evm_db", "metrics.MetricAccumulator.add_bits",
        "experiments.generate_bits", "experiments.rng_for", "experiments.driver",
        "experiments.write_csv", "experiments.solve_batch", "cli.main",
    ):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["experiments.solve_batch.imbalance_s"] = _imbalance(spans)
    # Thread time inside engine calls, children included.
    out["engines.inclusive_s"] = sum(
        s[3] - s[2] for s in spans
        if s[1] in ("direct.direct_solve", "relax.relax_solve", "rcf.rcf")
    )
    return out


def _imbalance(spans) -> float:
    """Sum over solve_batch spans of (longest pool task - mean pool task)."""
    tasks = {}
    for s in spans:
        if s[1] == TASK_SPAN:
            tasks.setdefault(s[4], []).append(s[3] - s[2])
    return sum(max(d) - statistics.fmean(d) for d in tasks.values())
