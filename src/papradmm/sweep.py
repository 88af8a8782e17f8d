"""The sweep loop shared by the direct and relaxed engines.

Both engines solve the carrier-domain update, the PAPR projection and a dual
step in closed form once per sweep; they differ only in how the coupling
``Ac = x`` is split.  :func:`run_sweeps` owns everything around that step:
the input check, the single-symbol round trip, the bypass of symbols that
already meet the PAPR target, the per-symbol stop, the freezing of stopped
symbols, the stacking of the per-sweep squared steps and the FCPO flag.
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
    holds each sweep's squared step; a frozen symbol records zeros.
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

    ``x`` and ``c`` hold the raw signal and ``c_o`` on bypassed rows and the
    final state everywhere else.  ``residual`` has shape ``(n_iters, K)``,
    also when no sweep ran.
    """

    c_o: np.ndarray
    x: np.ndarray
    c: np.ndarray
    state: dict
    bypassed: np.ndarray
    converged: np.ndarray
    fcpo_active: np.ndarray
    residual: np.ndarray
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
        if self.single:
            return self.x[0], self.c[0], report
        return self.x, self.c, report


def run_sweeps(c_o, plan: dsp.CarrierPlan, params, oversample: int, start, step) -> Sweeps:
    """Run an engine's sweeps until every symbol stops.

    ``start(c_o, x_raw)`` returns the initial state: a dict of per-symbol
    arrays (leading axis = symbol) that holds at least ``"c"`` and ``"x"``.
    Every state array that is written in place, ``"c"`` and ``"x"`` by this
    loop and any buffer the step reuses, must be the engine's own: it may not
    share memory with ``c_o``, ``x_raw`` or another state array.
    ``step(c_o, state, where_active)`` updates ``state`` in place and returns
    ``(residual, mu)``: the per-symbol squared step, which the stop at
    ``params.eps`` compares and ``Sweeps.residual`` stacks, and the FCPO
    multiplier, whose ``mu > 0`` the loop ORs into ``fcpo_active`` on the
    symbols that ran the sweep.
    ``where_active(new, old)`` writes ``old`` into ``new`` in place on the
    symbols that have stopped (``np.copyto(new, old, where=stopped)``) and
    returns ``new``, so ``new`` must be an array the step owns, such as a
    kernel's fresh result or a state buffer it no longer needs.  The step
    applies it to every state array it updates, so a stopped symbol keeps its
    state and records a zero step.  While every symbol is running it writes
    nothing.  On return ``x`` and ``c`` are the state's own arrays, with the
    raw signal and ``c_o`` written into their bypassed rows, and the engine
    returns :meth:`Sweeps.result` with its own report fields.
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
    fcpo_active = np.zeros(len(c_o), dtype=bool)
    residuals = []

    def where_active(new, old):
        if stopped is not None:
            np.copyto(new, old, where=stopped[:, None] if new.ndim == 2 else stopped)
        return new

    for _ in range(params.max_iters):
        if np.all(done):
            break
        stopped = done if np.any(done) else None
        residual, mu = step(c_o, state, where_active)
        residuals.append(residual)
        np.logical_or(fcpo_active, mu > 0, out=fcpo_active, where=~done)
        done = done | (residual < params.eps)

    if bypassed.any():
        np.copyto(state["x"], x_raw, where=bypassed[:, None])
        np.copyto(state["c"], c_o, where=bypassed[:, None])
    return Sweeps(
        c_o=c_o,
        x=state["x"],
        c=state["c"],
        state=state,
        bypassed=bypassed,
        converged=done,
        fcpo_active=fcpo_active,
        residual=np.array(residuals).reshape(len(residuals), len(c_o)),
        single=single,
    )
