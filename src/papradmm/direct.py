"""Direct ADMM engine on the exact PAPR/FCPO model, with KKT diagnostics.

One sweep alternates the carrier-domain update, the time-domain PAPR
projection, and a dual ascent step on the coupling ``Ac = x``, in the scaled
form that carries ``ys = y/rho`` (Boyd et al., FnT ML 2011, sec. 3.1.1):

    v   = c_o + (rho/n) * F(x - ys)            # F = truncated forward DFT
    c'  = c_update(v)
    x'  = x_update(F^-1(c') + ys)
    ys' = ys + F^-1(c') - x'

Symbols whose raw PAPR already meets the target are passed through untouched
(see :mod:`papradmm.sweep` for the loop around the sweep).  Convergence of
this engine is an empirical observation, not a guarantee;
:func:`direct_kkt_residual` quantifies the quality of whatever point a run
reaches.
"""

import numpy as np
from dataclasses import dataclass

from . import dsp
from .params import AdmmParams
from .subproblems import c_update, x_update, z_projection
from .sweep import SweepReport, row_norm, run_sweeps, split_raw


@dataclass
class DirectReport(SweepReport):
    """Trace and final multipliers of a direct-engine run.

    ``residual`` is the squared step ``||dc||^2 + ||dx||^2`` of each sweep,
    so ``converged`` at ``eps`` means steps of about ``sqrt(eps)``.
    ``y_final`` and ``mu_final`` are the final multipliers of the coupling
    and of the FCPO bound.
    """

    y_final: np.ndarray
    mu_final: np.ndarray


def augmented_lagrangian(c, ac, x, y, c_o, plan, rho: float) -> np.ndarray:
    """Objective plus linear and quadratic coupling terms, per symbol.

    ``ac`` is the modulated ``c`` (``A c``), which a sweep already holds.
    The engine itself does not evaluate it; its stop rule reads the step.
    """
    gap = ac - x
    dist = row_norm(np.take(c - c_o, plan.data_idx, axis=-1)) ** 2
    return (
        0.5 * dist
        + np.real(np.sum(np.conj(y) * gap, axis=-1))
        + 0.5 * rho * row_norm(gap) ** 2
    )


def direct_solve(c_o, plan: dsp.CarrierPlan, params: AdmmParams, oversample: int, *, raw=None):
    """Run the direct engine on a batch of symbols.

    Parameters
    ----------
    c_o : array_like, shape (K, N) or (N,)
        Original frequency-domain symbols: finite, with zero free carriers.
    plan, params, oversample
        Carrier partition, engine parameters and over-sampling factor.  A
        symbol stops once its squared step ``||dc||^2 + ||dx||^2`` falls
        below ``params.eps``; for :func:`direct_kkt_residual` to certify a
        bound ``tau``, pick ``params.eps`` of about ``tau**2`` or less.
    raw : tuple, optional
        ``(x_raw, x_proj)`` for a caller that solves the same rows more than
        once: the raw signal ``ifft_oversampled(c_o, oversample)`` and its
        projection ``x_update(x_raw, params.alpha)``, or ``None`` in its
        place.  The start takes ``x_proj`` over and writes into it, so it
        may not share memory with ``x_raw``; the result has the bits of a
        call without ``raw``.

    Returns
    -------
    (x, c, report)
        Transmit-ready time symbols, their carrier-domain counterparts for
        distortion accounting, and a :class:`DirectReport`.  The KKT
        residual of the run is
        ``direct_kkt_residual(c_o, plan, params, oversample, c, x,
        report.y_final, report.mu_final)``.
    """
    rho = params.rho
    r = rho / (plan.n_carriers * oversample)
    x_raw, x_proj = split_raw(raw, c_o, oversample)
    # the start hands x_proj to the state, so that a sweep can free it
    del raw

    def start(c_o, x_raw):
        nonlocal x_proj
        x, x_proj = x_proj, None
        return {
            "c": c_o.copy(),
            "x": x_update(x_raw, params.alpha) if x is None else x,
            "ys": np.zeros_like(x_raw),
            "mu": np.zeros(c_o.shape[0]),
        }

    def step(c_o, s):
        c, x, ys = s["c"], s["x"], s["ys"]
        b = np.subtract(x, ys)
        v = c_o + r * dsp.fft_oversampled(b, oversample)
        c_new, mu = c_update(v, plan, params.beta, r)
        ac = dsp.ifft_oversampled(c_new, oversample)
        x_new = x_update(np.add(ac, ys, out=b), params.alpha)
        # the dual step ys + (ac - x') is built in ac, and the x step in the
        # old x, which no longer belongs to the state
        np.subtract(ac, x_new, out=ac)
        ys_new = np.add(ys, ac, out=ac)
        change = row_norm(c_new - c) ** 2 + row_norm(np.subtract(x_new, x, out=x)) ** 2
        s.update(c=c_new, x=x_new, ys=ys_new, mu=mu)
        return change, mu

    def report(c_o, s, ran, **fields):
        return DirectReport(**fields, y_final=rho * s["ys"], mu_final=s["mu"])

    return run_sweeps(c_o, plan, params, oversample, start, step, report, x_raw)


def direct_kkt_residual(
    c_o,
    plan: dsp.CarrierPlan,
    params: AdmmParams,
    oversample: int,
    c,
    x,
    y,
    mu,
) -> np.ndarray:
    """First-order optimality residual of a (supposedly converged) state.

    Returns, per symbol, the max of: the coupling residual ``||Ac - x||``;
    the carrier- and time-domain stationarity residuals of the full
    Lagrangian; the complementary-slackness residual of the FCPO bound; and
    the negative-multiplier violation.

    The time-domain constraint multipliers are those of the projection
    subproblem that produced ``x`` itself: because the dual step sets
    ``y_new = y_old + rho*(Ac - x)``, that subproblem's input equals
    ``x + y/rho`` in terms of the *current* state, so projecting it
    recovers exactly the multipliers ``gamma`` and, per clipped sample,
    ``delta_i = |b_i|/(2*cap) - gamma`` (x-space multiplier
    ``rho*delta_i/t``) that certify the state's own stationarity.
    """
    c_o = np.atleast_2d(dsp._as_complex(c_o))
    c = np.atleast_2d(dsp._as_complex(c))
    x = np.atleast_2d(dsp._as_complex(x))
    y = np.atleast_2d(dsp._as_complex(y))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = plan.n_carriers
    ln = n * oversample
    alpha, beta, rho = params.alpha, params.beta, params.rho

    ac = dsp.ifft_oversampled(c, oversample)
    primal = row_norm(ac - x)

    ah_y = dsp.fft_oversampled(y, oversample) / ln
    diff = c - c_o + ah_y
    if beta == 0.0:
        # Free carriers are pinned by an equality constraint whose multiplier
        # absorbs any gradient there; stationarity is checked on data bins.
        grad_c = row_norm(np.take(diff, plan.data_idx, axis=-1))
        slack = row_norm(np.take(c, plan.free_idx, axis=-1)) ** 2
        neg_mu = np.zeros_like(primal)
    else:
        grad = diff.copy()
        grad[..., plan.free_idx] = (
            ah_y[..., plan.free_idx] + 2.0 * mu[:, None] * c[..., plan.free_idx]
        )
        grad[..., plan.data_idx] = (
            diff[..., plan.data_idx]
            - 2.0 * (mu * beta)[:, None] * c[..., plan.data_idx]
        )
        grad_c = row_norm(grad)
        f_sq = row_norm(np.take(c, plan.free_idx, axis=-1)) ** 2
        d_sq = row_norm(np.take(c, plan.data_idx, axis=-1)) ** 2
        slack = np.abs(mu * (f_sq - beta * d_sq))
        neg_mu = np.maximum(0.0, -mu)

    b = x + y / rho
    z, gamma = z_projection(b, alpha)
    cap = np.sqrt(alpha / ln)
    mag_b = np.abs(b)
    clipped = mag_b >= 2.0 * gamma[:, None] * cap
    t = np.real(np.sum(np.conj(z) * b, axis=-1))
    delta = np.where(clipped, mag_b / (2.0 * cap) - gamma[:, None], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_mult = np.where(t[:, None] > 0, rho * delta / t[:, None], 0.0)
    grad_x = -y + 2.0 * d_mult * x - (2.0 * alpha / ln) * d_mult.sum(
        axis=-1, keepdims=True
    ) * x
    grad_x_norm = row_norm(grad_x)

    return np.max(np.stack([primal, grad_c, grad_x_norm, slack, neg_mu]), axis=0)
