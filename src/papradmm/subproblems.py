"""Semi-analytic solvers for the three block subproblems shared by both engines.

* :func:`c_update` -- penalized least-squares in the carrier domain subject to
  the free-carrier power overhead (FCPO) bound, solved in closed form through
  a single nonnegative multiplier.
* :func:`z_projection` / :func:`x_update` -- projection of a time-domain point
  onto the set of signals with PAPR at most ``alpha``, via the factorization
  ``x = t*z`` with ``||z||^2 = 1`` and per-sample caps ``|z_i|^2 <= alpha/n``,
  where the cap multiplier ``gamma`` is solved exactly from one sort per row.
* :func:`uw_update` -- closed-form joint minimizer of the two auxiliary
  consensus blocks used by the relaxed engine.

All functions are vectorized over leading axes (batch of symbols).
"""

import numpy as np
from dataclasses import dataclass

from .dsp import CarrierPlan, DegenerateSymbolError, _as_complex


@dataclass
class CUpdateResult:
    """Carrier-domain update: optimizer and its FCPO multiplier.

    ``mu`` is the nonnegative multiplier of the bound
    ``||c_F||^2 <= beta*||c_D||^2`` (``inf`` sentinel in the ``beta = 0``
    limit, where the free carriers are pinned to zero exactly).
    """

    c: np.ndarray
    mu: np.ndarray


@dataclass
class XUpdateResult:
    """PAPR projection output ``x = t*z`` plus its internals.

    ``degenerate`` flags rows whose input was identically zero; those rows
    return ``x = 0`` (the unique minimizer even though ``z`` is not unique).
    """

    x: np.ndarray
    z: np.ndarray
    t: np.ndarray
    gamma: np.ndarray
    degenerate: np.ndarray


def c_update(v, plan: CarrierPlan, beta: float, r: float) -> CUpdateResult:
    """Minimize ``0.5*||c_D - v_D||^2-style`` carrier objective under the FCPO bound.

    Solves, in closed form, the diagonal system

        ``(S_D + r*I + 2*mu*(S_F - beta*S_D)) c = v``

    with ``mu = max(0, ((1+r)*||v_F|| - sqrt(beta)*r*||v_D||) /
    (2*(beta*||v_F|| + sqrt(beta)*||v_D||)))``, which activates the bound
    exactly when the unconstrained solution would violate it.  ``r`` is the
    caller's quadratic-coupling weight (``rho`` scaled by the time-domain
    length).
    """
    v = _as_complex(v)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if r <= 0:
        raise ValueError(f"r must be > 0, got {r}")
    d_norm = np.linalg.norm(v[..., plan.data_idx], axis=-1)
    f_norm = np.linalg.norm(v[..., plan.free_idx], axis=-1)
    if np.any((d_norm == 0.0) & (f_norm == 0.0)):
        raise DegenerateSymbolError("c_update input is identically zero")

    c = np.zeros_like(v)
    if beta == 0.0:
        c[..., plan.data_idx] = v[..., plan.data_idx] / (1.0 + r)
        mu = np.full(v.shape[:-1], np.inf)
        return CUpdateResult(c=c, mu=mu)

    if np.any(d_norm == 0.0):
        # Constraint boundary collapses: the optimal data part has arbitrary
        # direction, so there is no well-defined diagonal solution.
        raise DegenerateSymbolError("c_update input has no data-carrier content")

    sb = np.sqrt(beta)
    numer = (1.0 + r) * f_norm - sb * r * d_norm
    denom = 2.0 * (beta * f_norm + sb * d_norm)
    mu = np.maximum(0.0, numer / denom)
    c[..., plan.data_idx] = v[..., plan.data_idx] / (1.0 + r - 2.0 * mu * beta)[..., None]
    c[..., plan.free_idx] = v[..., plan.free_idx] / (r + 2.0 * mu)[..., None]
    return CUpdateResult(c=c, mu=mu)


def z_projection(b, alpha: float):
    """Direction of the PAPR projection: maximize ``Re(z^H b)`` on the cap set.

    Each entry follows the clip rule ``z_i = b_i/(2*gamma)`` while below the
    cap ``sqrt(alpha/n)`` and saturates at the cap with the phase of ``b_i``
    otherwise, with ``gamma`` chosen so that ``||z||^2 = 1``.  Returns
    ``(z, gamma)``.

    ``gamma`` is solved exactly from one sort per row (the water-filling
    argument of Duchi et al., ICML 2008, and Condat, Math. Prog. 2016).  With
    the magnitudes sorted as ``m_(1) >= ... >= m_(n)`` and the ``k`` largest
    capped, unit energy gives ``2*gamma_k = sqrt(S_k / (1 - k*alpha/n))``,
    where ``S_k`` sums ``m_(i)^2`` over ``i > k``.  The energy of the clip
    rule is the minimum over ``k`` of the energies with the top ``k`` capped,
    so the crossing is the smallest ``gamma_k``; it is also the first ``k``
    whose uncapped head fits under the cap.  Only ``k`` below the number of
    nonzero entries is admissible: when all of them sit exactly at the cap,
    ``k = n_nonzero - 1`` gives that limit.

    The phase of a zero entry is taken as 0.  If so many entries of ``b`` are
    zero that even ``gamma -> 0`` cannot reach unit energy, the remaining
    energy is spread uniformly over the zero entries (any such completion is
    optimal) and ``gamma = 0`` is reported.
    """
    b = _as_complex(b)
    n = b.shape[-1]
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1 (linear), got {alpha}")
    cap_sq = alpha / n
    cap = np.sqrt(cap_sq)

    shape = b.shape[:-1]
    flat = b.reshape(-1, n)
    mag = np.abs(flat)
    nonzero = mag > 0.0
    n_nonzero = nonzero.sum(axis=-1)
    if np.any(n_nonzero == 0):
        raise DegenerateSymbolError("z_projection input is identically zero")

    z = np.empty_like(flat)
    gamma = np.empty(flat.shape[0])

    # Rows whose clip-rule energy saturates below 1: fill the slack uniformly
    # over the zero entries (alpha >= 1 guarantees the caps admit it).
    saturated = n_nonzero * cap_sq < 1.0 - 1e-14
    if np.any(saturated):
        nz = nonzero[saturated]
        n_zero = n - n_nonzero[saturated]
        fill = np.sqrt((1.0 - n_nonzero[saturated] * cap_sq) / n_zero)
        phase = flat[saturated] / np.where(nz, mag[saturated], 1.0)
        z[saturated] = np.where(nz, cap * phase, fill[:, None])
        gamma[saturated] = 0.0

    active = ~saturated
    if np.any(active):
        m = mag[active]
        # tail[:, k] = S_k, summed from the smallest magnitude up
        tail = np.cumsum(np.sort(m, axis=-1) ** 2, axis=-1)[:, ::-1]
        k = np.arange(n)
        room = 1.0 - k * cap_sq
        admissible = (k < n_nonzero[active][:, None]) & (room > 0.0)
        two_gamma_sq = np.divide(
            tail, room, out=np.full_like(tail, np.inf), where=admissible
        )
        two_gamma = np.sqrt(two_gamma_sq.min(axis=-1))
        # the clip rule min(|b|/(2*gamma), cap) * phase(b); zeros stay zero
        z[active] = flat[active] / np.maximum(two_gamma[:, None], m / cap)
        gamma[active] = 0.5 * two_gamma

    return z.reshape(b.shape), gamma.reshape(shape)


def x_update(b, alpha: float) -> XUpdateResult:
    """Project ``b`` onto the PAPR-limited cone: ``x = t*z``, ``t = max(0, Re(z^H b))``.

    The output satisfies ``papr(x) <= alpha`` up to rounding.
    All-zero rows of ``b`` are flagged degenerate and mapped to ``x = 0``.
    """
    b = _as_complex(b)
    shape = b.shape[:-1]
    flat = b.reshape(-1, b.shape[-1])
    degenerate = ~np.any(flat != 0.0, axis=-1)

    z = np.zeros_like(flat)
    gamma = np.full(flat.shape[0], np.nan)
    if np.any(~degenerate):
        z_ok, gamma_ok = z_projection(flat[~degenerate], alpha)
        z[~degenerate] = z_ok
        gamma[~degenerate] = gamma_ok
    t = np.maximum(0.0, np.real(np.sum(np.conj(z) * flat, axis=-1)))
    x = t[..., None] * z
    return XUpdateResult(
        x=x.reshape(b.shape),
        z=z.reshape(b.shape),
        t=t.reshape(shape),
        gamma=gamma.reshape(shape),
        degenerate=degenerate.reshape(shape),
    )


def uw_update(x, ac, y1, y2, rho: float, rho_tilde: float):
    """Joint closed-form minimizer of the two consensus blocks.

    Returns ``(u, w)`` solving the stationarity pair

        ``-y1 + rho_tilde*(u - w) - rho*(ac - u) = 0``
        ``-y2 - rho_tilde*(u - w) - rho*(x - w)  = 0``

    by inverting the 2x2 coefficient block exactly.  On the engine's own
    trajectory the multipliers satisfy ``y2 = -y1``, and the solution then
    collapses to the familiar averaged form
    ``u = (y1 + rho_tilde*x + (rho + rho_tilde)*ac) / (2*rho_tilde + rho)``
    (and symmetrically for ``w``); the general solve keeps the stationarity
    guarantee for arbitrary multiplier inputs as well.
    """
    if rho <= 0 or rho_tilde <= 0:
        raise ValueError("rho and rho_tilde must be positive")
    x = _as_complex(x)
    ac = _as_complex(ac)
    y1 = _as_complex(y1)
    y2 = _as_complex(y2)
    rhs_u = y1 + rho * ac
    rhs_w = y2 + rho * x
    det = rho * (rho + 2.0 * rho_tilde)
    u = ((rho_tilde + rho) * rhs_u + rho_tilde * rhs_w) / det
    w = (rho_tilde * rhs_u + (rho_tilde + rho) * rhs_w) / det
    return u, w
