"""Direct ADMM engine on the exact PAPR/FCPO model, with KKT diagnostics.

One sweep alternates the carrier-domain update, the time-domain PAPR
projection, and a dual ascent step on the coupling ``Ac = x``:

    v  = c_o + (rho/n) * F(x - y/rho)          # F = truncated forward DFT
    c' = c_update(v)
    b  = F^-1(c') + y/rho
    x' = x_update(b)
    y' = y + rho * (F^-1(c') - x')

Symbols whose raw PAPR already meets the target are passed through untouched.
Convergence of this engine is an empirical observation, not a guarantee; the
per-run KKT residual quantifies the quality of whatever point it reaches.
"""

import numpy as np
from dataclasses import dataclass

from . import dsp
from .params import AdmmParams
from .subproblems import c_update, x_update, z_projection


@dataclass
class DirectReport:
    """Per-iteration trace and final multipliers of a direct-engine run.

    Trace arrays have shape ``(n_iters, K)``; frozen (converged or bypassed)
    symbols repeat their last values with zero residuals.
    ``change_residual`` is the squared step ``||dc||^2 + ||dx||^2`` of each
    sweep, so ``converged`` at ``eps`` means steps of about ``sqrt(eps)``.
    """

    iterations: int
    bypassed: np.ndarray
    converged: np.ndarray
    primal_residual: np.ndarray
    change_residual: np.ndarray
    lagrangian: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    y_final: np.ndarray
    mu_final: np.ndarray
    kkt_residual: np.ndarray | None = None


def _row_norm(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, axis=-1)


def augmented_lagrangian(c, x, y, c_o, plan, rho: float, oversample: int) -> np.ndarray:
    """Objective plus linear and quadratic coupling terms, per symbol."""
    ac = dsp.ifft_oversampled(c, oversample)
    gap = ac - x
    dist = _row_norm((c - c_o)[..., plan.data_idx]) ** 2
    return (
        0.5 * dist
        + np.real(np.sum(np.conj(y) * gap, axis=-1))
        + 0.5 * rho * _row_norm(gap) ** 2
    )


def direct_solve(
    c_o,
    plan: dsp.CarrierPlan,
    params: AdmmParams,
    oversample: int,
    compute_kkt: bool = True,
):
    """Run the direct engine on a batch of symbols.

    Parameters
    ----------
    c_o : array_like, shape (K, N) or (N,)
        Original frequency-domain symbols with zero free carriers.
    plan, params, oversample
        Carrier partition, engine parameters and over-sampling factor.  A
        symbol stops once its squared step ``||dc||^2 + ||dx||^2`` falls
        below ``params.eps``; for ``kkt_residual`` to certify a bound
        ``tau``, pick ``params.eps`` of about ``tau**2`` or less.
    compute_kkt : bool
        Attach the per-symbol KKT residual to the report (costs one extra
        projection pass; timing runs switch it off).

    Returns
    -------
    (x, c, report)
        Transmit-ready time symbols, their carrier-domain counterparts for
        distortion accounting, and a :class:`DirectReport`.
    """
    c_o = dsp._as_complex(c_o)
    single = c_o.ndim == 1
    c_o = np.atleast_2d(c_o)
    if np.any(np.abs(c_o[..., plan.free_idx]) > 0):
        raise ValueError("input symbols must have zero free carriers")
    n = plan.n_carriers
    ln = n * oversample
    rho = params.rho
    r = rho / ln

    x_raw = dsp.ifft_oversampled(c_o, oversample)
    bypassed = dsp.papr(x_raw) <= params.alpha

    c = c_o.copy()
    x = x_update(x_raw, params.alpha).x
    y = np.zeros_like(x_raw)
    mu_final = np.zeros(c_o.shape[0])
    done = bypassed.copy()

    trace = {k: [] for k in ("primal", "change", "lagr", "mu", "gamma")}
    iters_run = 0
    for _ in range(params.max_iters):
        if np.all(done):
            break
        iters_run += 1
        active = ~done

        v = c_o + r * dsp.fft_oversampled(x - y / rho, oversample)
        cres = c_update(v, plan, params.beta, r)
        c_new = np.where(active[:, None], cres.c, c)
        ac = dsp.ifft_oversampled(c_new, oversample)
        b = ac + y / rho
        xres = x_update(b, params.alpha)
        x_new = np.where(active[:, None], xres.x, x)
        y_new = np.where(active[:, None], y + rho * (ac - x_new), y)
        mu_final = np.where(active, cres.mu, mu_final)

        change = _row_norm(c_new - c) ** 2 + _row_norm(x_new - x) ** 2
        trace["primal"].append(np.where(active, _row_norm(ac - x_new), 0.0))
        trace["change"].append(change)
        trace["lagr"].append(
            augmented_lagrangian(c_new, x_new, y_new, c_o, plan, rho, oversample)
        )
        trace["mu"].append(np.where(active, cres.mu, np.nan))
        trace["gamma"].append(np.where(active, xres.gamma, np.nan))

        c, x, y = c_new, x_new, y_new
        done = done | (active & (change < params.eps))

    x_out = np.where(bypassed[:, None], x_raw, x)
    c_out = np.where(bypassed[:, None], c_o, c)
    report = DirectReport(
        iterations=iters_run,
        bypassed=bypassed,
        converged=done,
        primal_residual=np.array(trace["primal"]),
        change_residual=np.array(trace["change"]),
        lagrangian=np.array(trace["lagr"]),
        mu=np.array(trace["mu"]),
        gamma=np.array(trace["gamma"]),
        y_final=y,
        mu_final=mu_final,
    )
    if compute_kkt:
        report.kkt_residual = direct_kkt_residual(
            c_o, plan, params, oversample, c_out, x_out, y, mu_final
        )
    if single:
        return x_out[0], c_out[0], report
    return x_out, c_out, report


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
    primal = _row_norm(ac - x)

    ah_y = dsp.fft_oversampled(y, oversample) / ln
    diff = c - c_o + ah_y
    if beta == 0.0:
        # Free carriers are pinned by an equality constraint whose multiplier
        # absorbs any gradient there; stationarity is checked on data bins.
        grad_c = _row_norm(diff[..., plan.data_idx])
        slack = _row_norm(c[..., plan.free_idx]) ** 2
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
        grad_c = _row_norm(grad)
        f_sq = _row_norm(c[..., plan.free_idx]) ** 2
        d_sq = _row_norm(c[..., plan.data_idx]) ** 2
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
    grad_x_norm = _row_norm(grad_x)

    return np.max(np.stack([primal, grad_c, grad_x_norm, slack, neg_mu]), axis=0)
