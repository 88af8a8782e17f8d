"""The sweep loop shared by the direct and relaxed engines.

Both engines solve the carrier-domain update, the PAPR projection and a dual
step in closed form once per sweep; they differ only in how the coupling
``Ac = x`` is split.  Each engine's step is a plain map on every symbol's
state, and :func:`run_sweeps` owns everything around it: the input check, the
single-symbol round trip, the bypass of symbols that already meet the PAPR
target, the per-symbol stop, the state that stopped symbols keep, the
stacking of the per-sweep squared steps and the FCPO flag.
"""

import numpy as np
from dataclasses import dataclass

from . import dsp


def row_norm(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)`` to the bit, with one temporary, not two.

    A row's norm has the same bits alone as in any batch only if ``a`` is
    C-contiguous: a fancy-index gather such as ``a[..., plan.data_idx]`` lays
    two or more rows out column by column, so gather carrier sets with
    ``np.take(a, plan.data_idx, axis=-1)``.
    """
    sq = np.conjugate(a)
    np.multiply(sq, a, out=sq)
    return np.sqrt(np.add.reduce(sq.real, axis=-1))


@dataclass
class SweepReport:
    """The per-row outcome that opens every engine's report.

    ``residual`` has shape ``(n_iters, K)``, ``n_iters = iterations``, and
    holds each sweep's squared step; a symbol records zeros from the sweep
    after its stop on.
    ``bypassed`` flags the symbols whose raw PAPR already met the target, and
    ``converged`` those that stopped, bypassed ones included.
    ``fcpo_active`` flags the symbols whose FCPO multiplier was positive in
    at least one of their sweeps (every symbol that sweeps, at ``beta = 0``);
    an unflagged symbol runs the same sweeps, bit for bit, at any larger ``beta``.
    The sweep loop sets these fields, and each engine's report adds its own.
    """

    iterations: int
    bypassed: np.ndarray
    converged: np.ndarray
    fcpo_active: np.ndarray
    residual: np.ndarray


@dataclass
class Sweeps:
    """Outcome of :func:`run_sweeps`, always on a 2-D batch.

    ``state`` holds each symbol's state at its stop or after the last sweep,
    with the raw signal and ``c_o`` in the bypassed rows of ``"x"`` and
    ``"c"``.  ``ran`` counts each symbol's sweeps, its stop sweep included.
    ``residual`` has shape ``(n_iters, K)``, also when no sweep ran.
    """

    c_o: np.ndarray
    state: dict
    bypassed: np.ndarray
    converged: np.ndarray
    fcpo_active: np.ndarray
    residual: np.ndarray
    ran: np.ndarray
    single: bool

    def result(self, report_type, **fields):
        """``(x, c, report)``, with ``x`` and ``c`` shaped like the input; the
        ``report_type`` report takes the loop's :class:`SweepReport` fields
        and ``fields`` for the rest."""
        report = report_type(
            iterations=len(self.residual),
            bypassed=self.bypassed,
            converged=self.converged,
            fcpo_active=self.fcpo_active,
            residual=self.residual,
            **fields,
        )
        x, c = self.state["x"], self.state["c"]
        if self.single:
            return x[0], c[0], report
        return x, c, report


def run_sweeps(c_o, plan: dsp.CarrierPlan, params, oversample: int, start, step) -> Sweeps:
    """Run an engine's sweeps until every symbol stops.

    ``start(c_o, x_raw)`` returns the initial state: a dict of per-symbol
    arrays (leading axis = symbol) that holds at least ``"c"`` and ``"x"``.
    Every state array that is written in place, ``"c"`` and ``"x"`` by this
    loop and any buffer the step reuses, must be the engine's own: it may not
    share memory with ``c_o``, ``x_raw`` or another state array.
    ``step(c_o, state)`` updates every symbol's ``state`` in place, row by
    row, and returns ``(residual, mu)``: the per-symbol squared step, which
    the stop at ``params.eps`` compares and ``Sweeps.residual`` stacks, and
    the FCPO multiplier, whose ``mu > 0`` the loop ORs into ``fcpo_active``
    on the symbols that ran the sweep.  A stopped symbol keeps sweeping, so
    no row of a step may depend on another.  The loop copies a symbol's
    state right before the first step after its stop (before the first step,
    if it is bypassed), writes it back after the last sweep and records a
    zero step for it from its stop on.  Then the raw signal and ``c_o`` go
    into the bypassed rows of ``"x"`` and ``"c"``, and the engine returns
    :meth:`Sweeps.result` with its own report fields.
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
    done, stops = bypassed.copy(), bypassed
    ran = np.zeros(len(c_o), dtype=int)
    fcpo_active = np.zeros(len(c_o), dtype=bool)
    residuals, held = [], []

    for _ in range(params.max_iters):
        if np.all(done):
            break
        # hold, then step; write back only at the end: a start array may be x_raw
        if np.any(stops):
            held.append((stops, {k: v[stops] for k, v in state.items()}))
        residual, mu = step(c_o, state)
        residual[done] = 0.0
        residuals.append(residual)
        np.logical_or(fcpo_active, mu > 0, out=fcpo_active, where=~done)
        ran += ~done
        stops = ~done & (residual < params.eps)
        done = done | stops

    for stops, rows in held:
        for k, v in rows.items():
            state[k][stops] = v
    if bypassed.any():
        np.copyto(state["x"], x_raw, where=bypassed[:, None])
        np.copyto(state["c"], c_o, where=bypassed[:, None])
    return Sweeps(
        c_o=c_o,
        state=state,
        bypassed=bypassed,
        converged=done,
        fcpo_active=fcpo_active,
        residual=np.array(residuals).reshape(len(residuals), len(c_o)),
        ran=ran,
        single=single,
    )
