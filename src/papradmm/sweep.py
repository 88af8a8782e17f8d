"""The sweep loop shared by the direct and relaxed engines.

Both engines solve the carrier-domain update, the PAPR projection and a dual
step in closed form once per sweep; they differ only in how the coupling
``Ac = x`` is split.  :func:`run_sweeps` owns everything around that step:
the input check, the single-symbol round trip, the bypass of symbols that
already meet the PAPR target, the per-symbol stop, the freezing of stopped
symbols and the stacking of per-sweep traces.
"""

import numpy as np
from dataclasses import dataclass

from . import dsp


def row_norm(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, axis=-1)


@dataclass
class Sweeps:
    """Outcome of :func:`run_sweeps`, always on a 2-D batch.

    ``x`` and ``c`` hold the raw signal and ``c_o`` on bypassed rows and the
    final state everywhere else.  ``residual`` has shape ``(n_iters, K)``;
    ``rows`` holds one entry per sweep whose step recorded a trace.
    """

    c_o: np.ndarray
    x: np.ndarray
    c: np.ndarray
    state: dict
    bypassed: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    rows: list
    single: bool

    @property
    def iterations(self) -> int:
        return len(self.residual)

    def trace(self, name: str) -> np.ndarray:
        """Per-sweep values of one trace entry, shape ``(n_iters, K)``."""
        return np.array([row[name] for row in self.rows])

    def result(self, report):
        """``(x, c, report)`` with ``x`` and ``c`` shaped like the input."""
        if self.single:
            return self.x[0], self.c[0], report
        return self.x, self.c, report


def run_sweeps(c_o, plan: dsp.CarrierPlan, params, oversample: int, start, step) -> Sweeps:
    """Run an engine's sweeps until every symbol stops.

    ``start(c_o, x_raw)`` returns the initial state: a dict of per-symbol
    arrays (leading axis = symbol) that holds at least ``"c"`` and ``"x"``.
    ``step(c_o, state, where_active)`` returns ``(state, residual, trace)``:
    the next state, the squared step that the stop at ``params.eps``
    compares, and a dict of per-symbol values to record for this sweep (empty
    to record nothing).
    ``where_active(new, old)`` takes ``new`` on symbols still running and
    ``old`` on stopped ones; the step applies it to every state array it
    updates, so a stopped symbol keeps its state and traces its last values
    with a zero step.  While every symbol is running it returns ``new`` itself.
    """
    c_o = dsp._as_complex(c_o)
    single = c_o.ndim == 1
    c_o = np.atleast_2d(c_o)
    if not np.all(np.isfinite(c_o)):
        raise ValueError("input symbols must be finite (found NaN or inf)")
    if np.any(np.abs(c_o[..., plan.free_idx]) > 0):
        raise ValueError("input symbols must have zero free carriers")

    x_raw = dsp.ifft_oversampled(c_o, oversample)
    bypassed = dsp.papr(x_raw) <= params.alpha
    state = start(c_o, x_raw)
    done = bypassed.copy()
    residuals, rows = [], []

    def where_active(new, old):
        if all_active:
            return new
        mask = active[:, None] if np.ndim(new) == 2 else active
        return np.where(mask, new, old)

    for _ in range(params.max_iters):
        if np.all(done):
            break
        active = ~done
        all_active = np.all(active)
        state, residual, row = step(c_o, state, where_active)
        residuals.append(residual)
        if row:
            rows.append(row)
        done = done | (active & (residual < params.eps))

    return Sweeps(
        c_o=c_o,
        x=np.where(bypassed[:, None], x_raw, state["x"]),
        c=np.where(bypassed[:, None], c_o, state["c"]),
        state=state,
        bypassed=bypassed,
        converged=done,
        residual=np.array(residuals),
        rows=rows,
        single=single,
    )
