"""Relaxed ADMM engine with provable descent, plus its theory instrumentation.

The coupling ``Ac = x`` is split through auxiliaries ``u, w`` (``Ac = u``,
``x = w``) and a quadratic tie ``0.5*rho_tilde*||u - w||^2`` is added to the
objective.  With ``rho > 2*rho_tilde`` every sweep decreases the augmented
Lagrangian by at least ``lambda_min(Q)`` times the squared (u, w) step, where

    Q = [[ (rho_tilde+rho)/2 - 2*rho_tilde^2/rho ,  2*rho_tilde^2/rho - rho_tilde/2 ],
         [ 2*rho_tilde^2/rho - rho_tilde/2 ,  (rho_tilde+rho)/2 - 2*rho_tilde^2/rho ]]

whose eigenvalues are ``rho/2`` and ``(rho^2 + 2*rho*rho_tilde -
8*rho_tilde^2) / (2*rho)``.  From the start state on the multipliers obey
``y1 = rho_tilde*(u - w) = -y2``, so the engine keeps only (u, w) and derives
them; a run with ``certify=True`` records the Lagrangian and the identity per
iteration, so it can certify its own convergence behaviour.
"""

import numpy as np
from dataclasses import dataclass

from . import dsp
from .params import AdmmParams
from .subproblems import c_update, uw_update, x_update
from .sweep import SweepReport, row_norm, run_sweeps, split_raw

# Slack of the descent check, relative to the size of the Lagrangian drop
DESCENT_REL_TOL = 1e-8
# Alternations of the feasible start, and its relative feasibility slack
FEASIBLE_START_ROUNDS = 60
FEASIBLE_START_REL_TOL = 1e-9


@dataclass
class RelaxReport(SweepReport):
    """Trace of a relaxed-engine run.

    ``residual`` is the squared (u, w) step ``||du||^2 + ||dw||^2`` of each
    sweep.  ``lagrangian_initial`` is the augmented Lagrangian at the initial state.
    The certificate traces are recorded only by a run with ``certify=True``
    and are ``None`` otherwise: ``lagrangian`` has shape ``(n_iters + 1, K)``
    and starts with ``lagrangian_initial``; ``descent_lhs/rhs`` are the two
    sides of the per-sweep descent bound, read off that trace and
    ``residual`` by one :func:`descent_check`; ``identity_residual`` is the
    max-norm distance of the explicit dual steps from the multipliers derived
    at the new (u, w) (0 after a symbol's stop).  All other traces have shape
    ``(n_iters, K)``; ``u_final`` and ``w_final`` give the final multipliers.
    ``feasible_start`` flags symbols whose initial pair satisfied all
    constraints with ``Ac1 = x1`` (see :func:`feasible_start_state`).
    """

    lagrangian_initial: np.ndarray
    lagrangian: np.ndarray | None
    descent_lhs: np.ndarray | None
    descent_rhs: np.ndarray | None
    identity_residual: np.ndarray | None
    consensus_gap: np.ndarray
    sd_dist_initial: np.ndarray
    sd_dist_final: np.ndarray
    uw_gap_final: np.ndarray
    u_final: np.ndarray
    w_final: np.ndarray
    feasible_start: np.ndarray | None = None


def lambda_min_q(rho: float, rho_tilde: float) -> float:
    """Smaller eigenvalue of the descent matrix Q; positive iff rho > 2*rho_tilde."""
    return min(rho / 2.0, (rho**2 + 2.0 * rho * rho_tilde - 8.0 * rho_tilde**2) / (2.0 * rho))


def descent_check(lagr_before, lagr_after, step_sq, rho: float, rho_tilde: float):
    """Check the sufficient-descent inequality of one or more sweeps.

    ``step_sq`` is the squared (u, w) step ``||du||^2 + ||dw||^2``, the
    report's ``residual``.  Returns ``(lhs, rhs, ok)`` with ``lhs`` the
    Lagrangian drop, ``rhs`` the required margin ``lambda_min(Q) * step_sq``,
    and ``ok = lhs >= rhs - DESCENT_REL_TOL*(1 + |lhs|)``.
    """
    lhs = np.asarray(lagr_before, dtype=float) - np.asarray(lagr_after, dtype=float)
    rhs = lambda_min_q(rho, rho_tilde) * np.asarray(step_sq)
    ok = lhs >= rhs - DESCENT_REL_TOL * (1.0 + np.abs(lhs))
    return lhs, rhs, ok


def multiplier_identity_residual(u, w, y1, y2, rho_tilde: float) -> np.ndarray:
    """Max-norm violation of ``y1 = rho_tilde*(u - w)`` and ``y2 = -y1``."""
    tie = rho_tilde * (u - w)
    r1 = np.abs(y1 - tie).max(axis=-1)
    r2 = np.abs(y2 + tie).max(axis=-1)
    return np.maximum(r1, r2)


def relax_lagrangian(c, ac, x, u, w, y1, c_o, plan, rho, rho_tilde):
    """Augmented Lagrangian of the relaxed model, per symbol, at ``y2 = -y1``.

    ``ac`` is the modulated ``c`` (``A c``), which the sweep already holds.
    """
    gap_u = ac - u
    gap_w = x - w
    dist = row_norm(np.take(c - c_o, plan.data_idx, axis=-1)) ** 2
    return (
        0.5 * dist
        + np.real(np.sum(np.conj(y1) * (gap_u - gap_w), axis=-1))
        + 0.5 * rho_tilde * row_norm(u - w) ** 2
        + 0.5 * rho * (row_norm(gap_u) ** 2 + row_norm(gap_w) ** 2)
    )


def feasible_start_state(c_o, plan: dsp.CarrierPlan, params: AdmmParams, oversample: int):
    """Build an initial pair with ``x1 = A c1`` inside both constraint sets.

    Alternates the PAPR projection with the band-limiting projection until
    the band-limited signal itself meets the PAPR target.  The projection
    runs against a slightly tightened target (0.1% inside ``alpha``) because
    the alternation approaches its limit from the infeasible side; the
    tightening leaves a strictly feasible start.  At most
    ``FEASIBLE_START_ROUNDS`` alternations run.  Returns ``(c1, x1,
    feasible)`` where ``feasible`` flags symbols for which the construction
    succeeded (PAPR and FCPO both satisfied up to a relative
    ``FEASIBLE_START_REL_TOL``); the others are still returned but cannot
    back the feasible-start bound.
    """
    c_o = np.atleast_2d(dsp._as_complex(c_o))
    alpha_inner = max(1.0, params.alpha * (1.0 - 1e-3))
    x = dsp.ifft_oversampled(c_o, oversample)
    settled = dsp.papr(x) <= params.alpha
    for _ in range(FEASIBLE_START_ROUNDS):
        if np.all(settled):
            break
        proj = x_update(x, alpha_inner)
        x_new = dsp.ifft_oversampled(
            dsp.fft_oversampled(proj, oversample), oversample
        )
        x = np.where(settled[:, None], x, x_new)
        settled = settled | (dsp.papr(x) <= params.alpha)
    c1 = dsp.fft_oversampled(x, oversample)
    x1 = dsp.ifft_oversampled(c1, oversample)
    f_sq = row_norm(np.take(c1, plan.free_idx, axis=-1)) ** 2
    d_sq = row_norm(np.take(c1, plan.data_idx, axis=-1)) ** 2
    fcpo_ok = f_sq <= params.beta * d_sq * (1.0 + FEASIBLE_START_REL_TOL) + 1e-30
    papr_ok = dsp.papr(x1) <= params.alpha * (1.0 + FEASIBLE_START_REL_TOL)
    return c1, x1, papr_ok & fcpo_ok


def relax_solve(
    c_o,
    plan: dsp.CarrierPlan,
    params: AdmmParams,
    oversample: int,
    feasible_start: bool = False,
    *,
    certify: bool = False,
    raw=None,
):
    """Run the relaxed engine on a batch of symbols.

    Requires ``params.rho > 2*params.rho_tilde > 0``.  With
    ``feasible_start=True`` the initial state is built by
    :func:`feasible_start_state` (so the consensus-gap bound applies to the
    flagged symbols); otherwise ``c1 = c_o`` and ``x1`` is the PAPR
    projection of the raw signal.  Either way the auxiliaries start at their
    common mean, ``u1 = w1 = (A c1 + x1)/2``, so the multipliers start at zero.
    With ``certify=True`` every sweep also records the Lagrangian and the
    multiplier identities, and the descent sides are read off the Lagrangian
    trace after the last sweep (see :class:`RelaxReport`); the iterates do
    not depend on it.  ``raw=(x_raw, x_proj)`` hands over the raw signal
    and its projection as for :func:`papradmm.direct.direct_solve`; it
    cannot be combined with ``feasible_start``, which builds its own start.

    Returns ``(x, c, report)`` like the direct engine.
    """
    if params.rho_tilde is None or params.rho_tilde <= 0.0:
        raise ValueError("relaxed engine needs rho_tilde > 0")
    if params.rho <= 2.0 * params.rho_tilde:
        raise ValueError(
            f"descent requires rho > 2*rho_tilde, got rho={params.rho}, "
            f"rho_tilde={params.rho_tilde}"
        )
    if feasible_start and raw is not None:
        raise ValueError("raw= gives the projected start; feasible_start builds its own")
    rho, rho_tilde = params.rho, params.rho_tilde
    r = rho / (plan.n_carriers * oversample)
    x_raw, x_proj = split_raw(raw, c_o, oversample)
    # the start hands x_proj to the state, so that a sweep can free it
    del raw
    # y1/rho = (rho_tilde/rho)*(u - w)
    tie = rho_tilde / rho
    # the initial Lagrangian, then one per sweep of a certified run
    lagrangians, identities = [], []
    sd_dist_initial = feasible = None

    def start(c_o, x_raw):
        nonlocal sd_dist_initial, feasible, x_proj
        if feasible_start:
            c, ac, feasible = feasible_start_state(c_o, plan, params, oversample)
            x = ac.copy()
        else:
            # From c = c_o, A c is x_raw itself; the sweeps never write into ac.
            c, ac = c_o.copy(), x_raw
            x, x_proj = x_proj, None
            if x is None:
                x = x_update(x_raw, params.alpha)
        # Starting with u = w keeps y1 = rho_tilde*(u - w) = 0 true at the very
        # first state, so the sufficient-descent margin provably covers every
        # sweep, the first one included.
        u = np.add(ac, x)
        np.multiply(0.5, u, out=u)
        sd_dist_initial = row_norm(np.take(c - c_o, plan.data_idx, axis=-1)) ** 2
        # relax_lagrangian's multiplier and tie terms are exact zeros here
        # (y1 = y2 = 0, u = w), and adding a zero to the nonnegative distance
        # term leaves it unchanged, so dropping them keeps every bit.
        lagrangians.append(
            0.5 * sd_dist_initial + 0.5 * rho * (row_norm(ac - u) ** 2 + row_norm(x - u) ** 2)
        )
        return {"c": c, "ac": ac, "x": x, "u": u, "w": u.copy()}

    def step(c_o, s):
        u, w = s["u"], s["w"]
        d = np.subtract(u, w)
        b = np.multiply(tie, d)
        v = c_o + r * dsp.fft_oversampled(u - b, oversample)
        c, mu = c_update(v, plan, params.beta, r)
        ac = dsp.ifft_oversampled(c, oversample)
        x = x_update(np.add(w, b, out=b), params.alpha)
        # free b and the old ac and x before uw_update's three arrays, the
        # peak of the sweep's working set
        del b
        s.update(c=c, ac=ac, x=x)
        y1 = np.multiply(rho_tilde, d, out=d)
        u_new, w_new = uw_update(x, ac, y1, rho, rho_tilde)
        # the old u and w leave the state here, each taking its step
        du_sq = row_norm(np.subtract(u_new, u, out=u)) ** 2
        dw_sq = row_norm(np.subtract(w_new, w, out=w)) ** 2
        s.update(u=u_new, w=w_new)

        if certify:
            # the explicit dual steps from y1
            y1_new = rho_tilde * (u_new - w_new)
            step_u = y1 + rho * (ac - u_new)
            step_w = rho * (x - w_new) - y1
            ident = multiplier_identity_residual(u_new, w_new, step_u, step_w, rho_tilde)
            lagr = relax_lagrangian(c, ac, x, u_new, w_new, y1_new, c_o, plan, rho, rho_tilde)
            identities.append(ident)
            lagrangians.append(lagr)
        return du_sq + dw_sq, mu

    def report(c_o, s, ran, **fields):
        residual, bypassed = fields["residual"], fields["bypassed"]
        trace = lhs = rhs = identity = None
        if certify:
            # a stopped row repeats the Lagrangian of its stop sweep and records
            # a zero step, so both of its sides are 0 from then on
            sweep_no = np.arange(len(lagrangians))[:, None]
            trace = np.take_along_axis(np.array(lagrangians), np.minimum(sweep_no, ran), 0)
            lhs, rhs, _ = descent_check(trace[:-1], trace[1:], residual, rho, rho_tilde)
            identity = np.array(identities).reshape(residual.shape)
            identity[sweep_no[1:] > ran] = 0.0
        # A bypassed row transmits x_raw = A c_o, so its coupling gap is zero.
        consensus_gap = row_norm(s["ac"] - s["x"]) ** 2
        consensus_gap[bypassed] = 0.0
        return RelaxReport(
            **fields,
            lagrangian_initial=lagrangians[0],
            lagrangian=trace,
            descent_lhs=lhs,
            descent_rhs=rhs,
            identity_residual=identity,
            consensus_gap=consensus_gap,
            sd_dist_initial=sd_dist_initial,
            sd_dist_final=row_norm(np.take(s["c"] - c_o, plan.data_idx, axis=-1)) ** 2,
            uw_gap_final=row_norm(s["u"] - s["w"]) ** 2,
            u_final=s["u"],
            w_final=s["w"],
            feasible_start=feasible,
        )

    return run_sweeps(c_o, plan, params, oversample, start, step, report, x_raw)


def iteration_complexity_bound(report: RelaxReport, params: AdmmParams, eps: float):
    """First-passage iteration versus the descent-derived complexity bound.

    ``bound = (L(1) - L*) / (lambda_min(Q) * eps)`` with ``L*`` estimated
    from the run's final state (data-carrier distortion plus the tie
    penalty).  Returns ``(bound, actual_r, ok)`` per symbol; ``actual_r`` is
    ``-1`` where the residual never reached ``eps`` within the run.

    A first passage at the very first sweep carries no information (no
    above-threshold descent has accumulated yet, and the telescoped descent
    argument only constrains the iterations before the passage), so
    ``actual_r == 1`` is accepted regardless of the bound value.
    """
    if report.residual.size == 0:
        raise ValueError("report holds no iterations")
    l_init = report.lagrangian_initial
    l_star = 0.5 * report.sd_dist_final + 0.5 * params.rho_tilde * report.uw_gap_final
    c_min = lambda_min_q(params.rho, params.rho_tilde)
    bound = (l_init - l_star) / (c_min * eps)
    hit = report.residual <= eps
    any_hit = hit.any(axis=0)
    actual = np.where(any_hit, hit.argmax(axis=0) + 1, -1)
    ok = any_hit & ((actual <= bound) | (actual == 1))
    return bound, actual, ok
