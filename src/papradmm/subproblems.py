"""Semi-analytic solvers for the three block subproblems shared by both engines.

* :func:`c_update` -- penalized least-squares in the carrier domain subject to
  the free-carrier power overhead (FCPO) bound, solved in closed form through
  a single nonnegative multiplier.
* :func:`z_projection` / :func:`x_update` -- projection of a time-domain point
  onto the set of signals with PAPR at most ``alpha``, via the factorization
  ``x = t*z`` with ``||z||^2 = 1`` and per-sample caps ``|z_i|^2 <= alpha/n``,
  where the cap multiplier ``gamma`` is solved exactly from one sort per row
  and that row's prefix sums, which run two rows per dependency chain.
* :func:`uw_update` -- closed-form joint minimizer of the two auxiliary
  consensus blocks used by the relaxed engine, at its multipliers y2 = -y1.

All functions are vectorized over leading axes (batch of symbols).
"""

import numpy as np

from .dsp import CarrierPlan, DegenerateSymbolError, _as_complex
from .sweep import row_norm


def c_update(v, plan: CarrierPlan, beta: float, r: float):
    """Minimize ``0.5*||c_D - v_D||^2-style`` carrier objective under the FCPO bound.

    Solves, in closed form, the diagonal system

        ``(S_D + r*I + 2*mu*(S_F - beta*S_D)) c = v``

    with ``mu = max(0, ((1+r)*||v_F|| - sqrt(beta)*r*||v_D||) /
    (2*(beta*||v_F|| + sqrt(beta)*||v_D||)))``, which activates the bound
    exactly when the unconstrained solution would violate it.  ``r`` is the
    caller's quadratic-coupling weight (``rho`` scaled by the time-domain
    length).  Returns ``(c, mu)`` with ``mu`` the nonnegative multiplier of the
    bound ``||c_F||^2 <= beta*||c_D||^2`` (``inf`` in the ``beta = 0`` limit,
    where the free carriers are pinned to zero exactly).
    """
    v = _as_complex(v)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if r <= 0:
        raise ValueError(f"r must be > 0, got {r}")
    # one gather per carrier set, for the norms (and, at beta = 0, the data)
    v_data = np.take(v, plan.data_idx, axis=-1)
    v_free = np.take(v, plan.free_idx, axis=-1)
    d_norm = row_norm(v_data)
    f_norm = row_norm(v_free)
    if np.any((d_norm == 0.0) & (f_norm == 0.0)):
        raise DegenerateSymbolError("c_update input is identically zero")

    # Multiplying by the reciprocal of a positive real divisor has the bits
    # of the complex division, which reduces to it, without its cost.
    if beta == 0.0:
        # scattered, not multiplied: a pinned free carrier must be +0.0, and
        # v * 0.0 can give -0.0
        c = np.empty_like(v)
        c[..., plan.data_idx] = np.multiply(v_data, 1.0 / (1.0 + r), out=v_data)
        c[..., plan.free_idx] = 0.0
        return c, np.full(v.shape[:-1], np.inf)

    if np.any(d_norm == 0.0):
        # Constraint boundary collapses: the optimal data part has arbitrary
        # direction, so there is no well-defined diagonal solution.
        raise DegenerateSymbolError("c_update input has no data-carrier content")

    sb = np.sqrt(beta)
    numer = (1.0 + r) * f_norm - sb * r * d_norm
    denom = 2.0 * (beta * f_norm + sb * d_norm)
    mu = np.maximum(0.0, numer / denom)
    # both divisors are positive: 2*mu*beta < 1 + r while ||v_D|| > 0; one
    # multiply by each carrier's factor, with the bits of a scale per set
    factor = np.where(
        plan._is_data,
        (1.0 / (1.0 + r - 2.0 * mu * beta))[..., None],
        (1.0 / (r + 2.0 * mu))[..., None],
    )
    return np.multiply(v, factor), mu


def _clip_scale(mag, mag_sq, n_nonzero, alpha: float):
    """``(scale, two_gamma, saturated)`` of the clip rule on a 2-D batch.

    ``z = scale*b`` per sample and ``two_gamma = 2*gamma`` per row, from the
    magnitudes of ``b`` and their squares.  The scale is written over ``mag``.
    Rows with no nonzero entry get ``2*gamma = inf`` and a zero scale.
    ``saturated`` indexes the rows whose clip-rule energy stays below 1; their
    scale is finite but not their direction, so the callers replace those rows
    with :func:`_saturated_direction`.
    """
    rows, n = mag.shape
    cap_sq = alpha / n
    # Only k with room 1 - k*cap_sq > 0 are admissible, so the sums are
    # divided on those columns alone; on rows with fewer nonzero entries, the
    # columns k >= n_nonzero are masked to inf.
    k_max = np.count_nonzero(1.0 - np.arange(n) * cap_sq > 0.0)
    k = np.arange(k_max - 1, -1, -1)
    room = 1.0 - k * cap_sq
    # Prefix sums of each row's sorted squares (squaring is monotone, so
    # sorting the squares sorts the magnitudes), two rows per chain: row i
    # sits in the real lane of pair[i] and row half + i in its imaginary lane
    # (an odd batch's spare lane is zero).  A complex add adds its lanes
    # apart, so each lane has the bits of its row's float cumsum, in half as
    # many dependent adds.  The rows are sorted contiguous and then copied
    # into the lanes, which is faster than sorting the strided lanes.
    # Column j sums the j + 1 smallest squares, so the last k_max columns
    # hold S_k for k = k_max - 1 down to 0.
    half = rows - rows // 2
    pair = np.empty((half, n), dtype=np.complex128)
    tail = np.sort(mag_sq, axis=-1)
    pair.real = tail[:half]
    pair.imag[:rows - half] = tail[half:]
    pair.imag[rows - half:] = 0.0
    del tail
    np.cumsum(pair, axis=-1, out=pair)
    two_gamma_sq = np.empty((rows, k_max))
    np.divide(pair.real[:, n - k_max:], room, out=two_gamma_sq[:half])
    np.divide(pair.imag[:rows - half, n - k_max:], room, out=two_gamma_sq[half:])
    short = np.flatnonzero(n_nonzero < k_max)
    if short.size:
        admissible = k < n_nonzero[short, None]
        two_gamma_sq[short] = np.where(admissible, two_gamma_sq[short], np.inf)
    two_gamma = np.sqrt(two_gamma_sq.min(axis=-1))
    saturated = (n_nonzero * cap_sq < 1.0 - 1e-14) & (n_nonzero > 0)
    # the clip rule min(|b|/(2*gamma), cap) * phase(b); zeros stay zero
    scale = np.divide(mag, np.sqrt(cap_sq), out=mag)
    np.maximum(two_gamma[:, None], scale, out=scale)
    np.divide(1.0, scale, out=scale)
    return scale, two_gamma, np.flatnonzero(saturated)


def _saturated_direction(b, n_nonzero, alpha: float):
    """Direction on rows whose clip-rule energy saturates below 1 (``gamma = 0``).

    The slack is filled uniformly over the zero entries (``alpha >= 1``
    guarantees the caps admit it).
    """
    n = b.shape[-1]
    cap_sq = alpha / n
    mag = np.abs(b)
    nz = mag > 0.0
    fill = np.sqrt((1.0 - n_nonzero * cap_sq) / (n - n_nonzero))
    phase = b / np.where(nz, mag, 1.0)
    return np.where(nz, np.sqrt(cap_sq) * phase, fill[:, None])


def _magnitudes(b, alpha: float):
    """``(flat, mag, n_nonzero)`` of ``b`` as a 2-D batch; checks ``alpha``."""
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1 (linear), got {alpha}")
    flat = b.reshape(-1, b.shape[-1])
    mag = np.abs(flat)
    if mag.size and mag.min() == 0.0:
        return flat, mag, np.count_nonzero(mag, axis=-1)
    # no zero entry: every row has n nonzero ones
    return flat, mag, np.full(len(mag), mag.shape[-1], dtype=np.intp)


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
    ``k = n_nonzero - 1`` gives that limit.  The ``S_k`` are exact prefix
    sums of the sorted squares, taken two rows per chain in the two lanes of
    one complex cumsum: each row gets the bits of its own float cumsum, in
    either lane and in any batch.

    The phase of a zero entry is taken as 0.  If so many entries of ``b`` are
    zero that even ``gamma -> 0`` cannot reach unit energy, the remaining
    energy is spread uniformly over the zero entries (any such completion is
    optimal) and ``gamma = 0`` is reported.
    """
    b = _as_complex(b)
    flat, mag, n_nonzero = _magnitudes(b, alpha)
    if np.any(n_nonzero == 0):
        raise DegenerateSymbolError("z_projection input is identically zero")
    scale, two_gamma, sat = _clip_scale(mag, mag * mag, n_nonzero, alpha)
    z = flat * scale
    gamma = 0.5 * two_gamma
    if sat.size:
        z[sat] = _saturated_direction(flat[sat], n_nonzero[sat], alpha)
        gamma[sat] = 0.0
    return z.reshape(b.shape), gamma.reshape(b.shape[:-1])


def x_update(b, alpha: float) -> np.ndarray:
    """Project ``b`` onto the PAPR-limited cone: ``x = t*z``, ``t = max(0, Re(z^H b))``.

    Returns ``x``, shaped like ``b``; it satisfies ``papr(x) <= alpha`` up
    to rounding.  Since ``||z|| = 1``, the scale is ``t = ||x||``.  Off the
    saturated rows ``z = b/den`` with a real ``den``, so ``t`` is formed as
    ``sum(|b|^2/den)`` and ``x`` as ``b*(t/den)`` without forming ``z``.
    All-zero rows of ``b`` map to ``x = 0``, the unique minimizer although
    ``z`` is not unique there.
    """
    b = _as_complex(b)
    flat, mag, n_nonzero = _magnitudes(b, alpha)
    mag_sq = mag * mag
    scale, _, sat = _clip_scale(mag, mag_sq, n_nonzero, alpha)
    t = np.sum(np.multiply(mag_sq, scale, out=mag_sq), axis=-1)
    x = flat * np.multiply(t[:, None], scale, out=scale)
    if sat.size:
        z = _saturated_direction(flat[sat], n_nonzero[sat], alpha)
        t_sat = np.maximum(0.0, np.real(np.sum(np.conj(z) * flat[sat], axis=-1)))
        x[sat] = t_sat[:, None] * z
    return x.reshape(b.shape)


def uw_update(x, ac, y1, rho: float, rho_tilde: float):
    """Joint closed-form minimizer of the two consensus blocks at ``y2 = -y1``.

    Returns ``(u, w)`` solving the stationarity pair

        ``-y1 + rho_tilde*(u - w) - rho*(ac - u) = 0``
        `` y1 - rho_tilde*(u - w) - rho*(x - w)  = 0``

    in closed form, ``u = (y1 + rho_tilde*x + (rho + rho_tilde)*ac) /
    (rho + 2*rho_tilde)`` and symmetrically for ``w``.  The relaxed engine's
    multipliers start at zero and its dual steps keep ``y2 = -y1``.
    """
    if rho <= 0 or rho_tilde <= 0:
        raise ValueError("rho and rho_tilde must be positive")
    x = _as_complex(x)
    ac = _as_complex(ac)
    y1 = _as_complex(y1)
    # Multiplying by the inverse has the values of the division without a
    # complex division.
    inv = 1.0 / (rho + 2.0 * rho_tilde)
    u = np.multiply(rho + rho_tilde, ac)
    w = np.multiply(rho_tilde, x)
    np.add(u, w, out=u)
    np.add(u, y1, out=u)
    np.multiply(u, inv, out=u)
    np.multiply(rho + rho_tilde, x, out=w)
    np.add(w, np.multiply(rho_tilde, ac), out=w)
    np.subtract(w, y1, out=w)
    np.multiply(w, inv, out=w)
    return u, w
