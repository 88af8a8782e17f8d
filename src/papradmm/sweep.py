"""The sweep loop shared by the direct and relaxed engines.

Both engines solve the carrier-domain update, the PAPR projection and a dual
step in closed form once per sweep; they differ only in how the coupling
``Ac = x`` is split.  Each engine's step is a plain map on every symbol's
state, and :func:`run_sweeps` owns everything around it: the input check, the
single-symbol round trip, the bypass of symbols that already meet the PAPR
target, the per-symbol stop, the state that stopped symbols keep, the
stacking of the per-sweep squared steps and the FCPO flag.  Each engine
supplies only its start state, its step and its report, which the loop
builds once, after the last sweep.
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


def run_sweeps(
    c_o, plan: dsp.CarrierPlan, params, oversample: int, start, step, report, raw=None
):
    """Run an engine's sweeps until every symbol stops; return ``(x, c, report)``.

    ``raw``, if given, is the pair ``(x_raw, x_proj)`` of the raw signal
    ``ifft_oversampled(c_o, oversample)`` and its projection
    ``x_update(x_raw, params.alpha)``, each shaped like that transform (a
    mismatched shape raises ``ValueError``).  Both are read-only, so any
    number of solves may share one pair; the result has the bits of a call
    without ``raw`` and shares no memory with the pair.
    ``start(c_o, x_raw, x_proj)``, with ``x_proj = None`` when no pair is
    given, returns the initial state: a dict of per-symbol arrays (leading
    axis = symbol) that holds at least ``"c"`` and ``"x"``.  Every state
    array written in place must be the engine's own, sharing memory with
    neither ``c_o``, the pair nor another state array.  The loop writes into
    ``"c"`` and into the arrays a step leaves in the state, and replaces
    ``"x"``, so a start may hold ``x_raw`` or ``x_proj`` where each step
    replaces it unwritten.
    ``step(c_o, state)`` updates every symbol's ``state`` in place, row by
    row, and returns ``(residual, mu)``: the per-symbol squared step, which
    the stop at ``params.eps`` compares, and the FCPO multiplier, whose
    ``mu > 0`` the loop ORs into ``fcpo_active`` on the symbols that ran the
    sweep.  A stopped symbol keeps sweeping, so no row of a step may depend
    on another.  The loop copies a symbol's state right before the first step
    after its stop (before the first step, if it is bypassed), writes it back
    after the last sweep and records a zero step for it from its stop on.
    Then the raw signal and ``c_o`` go into the bypassed rows of ``"x"``, as
    a new array (after no sweep, too), and of ``"c"``, and ``report(c_o,
    state, ran, **fields)`` builds the engine's report from the checked 2-D
    input, the final state, each symbol's sweep count (its stop sweep
    included) and the :class:`SweepReport` fields.
    """
    c_o = dsp._as_complex(c_o)
    single = c_o.ndim == 1
    raw_shape = c_o.shape[:-1] + (oversample * c_o.shape[-1],)
    c_o = np.atleast_2d(c_o)
    if c_o.shape[-1] != plan.n_carriers:
        raise ValueError(
            f"input symbols have {c_o.shape[-1]} carriers, the plan {plan.n_carriers}"
        )
    if not np.all(np.isfinite(c_o)):
        raise ValueError("input symbols must be finite (found NaN or inf)")
    if np.any(np.abs(c_o[..., plan.free_idx]) > 0):
        raise ValueError("input symbols must have zero free carriers")

    if raw is None:
        x_raw, x_proj = dsp.ifft_oversampled(c_o, oversample), None
    else:
        for name, a in zip(("x_raw", "x_proj"), raw):
            if np.shape(a) != raw_shape:
                raise ValueError(f"{name} has shape {np.shape(a)}, expected {raw_shape}")
        x_raw, x_proj = (np.atleast_2d(dsp._as_complex(a)) for a in raw)
    bypassed = dsp.papr(x_raw) <= params.alpha
    state = start(c_o, x_raw, x_proj)
    done, stops = bypassed.copy(), bypassed
    ran = np.zeros(len(c_o), dtype=int)
    fcpo_active = np.zeros(len(c_o), dtype=bool)
    residuals, held = [], []

    for _ in range(params.max_iters):
        if np.all(done):
            break
        # hold, then step; write back only at the end: a start array may be
        # x_raw or x_proj
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
    if bypassed.any() or not residuals:
        # a new array: after no sweep, "x" is still the start's
        state["x"] = np.where(bypassed[:, None], x_raw, state["x"])
        np.copyto(state["c"], c_o, where=bypassed[:, None])
    residual = np.array(residuals).reshape(len(residuals), len(c_o))
    rep = report(
        c_o, state, ran, iterations=len(residual), bypassed=bypassed, converged=done,
        fcpo_active=fcpo_active, residual=residual,
    )
    x, c = state["x"], state["c"]
    return (x[0], c[0], rep) if single else (x, c, rep)
