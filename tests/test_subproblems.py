from itertools import combinations

import numpy as np
import pytest
from scipy import optimize

from papradmm import (
    CarrierPlan,
    DegenerateSymbolError,
    c_update,
    papr,
    uw_update,
    x_update,
    z_projection,
)

PLAN2 = CarrierPlan(2, data_idx=[0], free_idx=[1])


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def c_objective(c, v, plan, r):
    """0.5*||c_D||^2 + (r/2)*||c||^2 - Re(v^H c), the carrier subproblem."""
    return (
        0.5 * np.linalg.norm(c[plan.data_idx]) ** 2
        + 0.5 * r * np.linalg.norm(c) ** 2
        - np.real(np.vdot(v, c))
    )


def c_update_oracle(v, plan, beta, r):
    """Constrained numeric solve over stacked real/imaginary parts."""
    n = v.size

    def unpack(t):
        return t[:n] + 1j * t[n:]

    def fun(t):
        return c_objective(unpack(t), v, plan, r)

    def constraint(t):
        c = unpack(t)
        return beta * np.linalg.norm(c[plan.data_idx]) ** 2 - np.linalg.norm(
            c[plan.free_idx]
        ) ** 2

    t0 = np.concatenate([v.real, v.imag]) / (1.0 + r)
    res = optimize.minimize(
        fun,
        t0,
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": constraint}],
        options={"maxiter": 400, "ftol": 1e-14},
    )
    return unpack(res.x), res.fun


def z_oracle(b, alpha):
    """Exact maximizer of Re(z^H b) via clipped-subset enumeration.

    Optimal magnitudes, phases aligned with b: the clipped set carries the
    cap, the rest splits the remaining energy proportionally to |b_i|.
    """
    n = b.size
    cap_sq = alpha / n
    cap = np.sqrt(cap_sq)
    mag = np.abs(b)
    best = -np.inf
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            rest = [i for i in range(n) if i not in subset]
            energy = 1.0 - size * cap_sq
            if energy < -1e-15:
                continue
            energy = max(energy, 0.0)
            rest_norm = np.linalg.norm(mag[rest]) if rest else 0.0
            if rest:
                if rest_norm > 0:
                    m_rest = np.sqrt(energy) * mag[rest] / rest_norm
                    if np.any(m_rest > cap * (1 + 1e-12)):
                        continue
                elif energy > 1e-15:
                    # objective unaffected; energy parked on zero entries
                    if energy > len(rest) * cap_sq * (1 + 1e-12):
                        continue
            elif energy > 1e-15:
                continue
            value = cap * mag[list(subset)].sum() + np.sqrt(energy) * rest_norm
            best = max(best, value)
    return best


def bisection_x_update(b, alpha, iters=200):
    """``x = t*z`` with ``gamma`` bisected on the clip-rule energy.

    Rows need at least ``n/alpha`` nonzero entries, so that the energy
    ``sum(min(|b|/(2*gamma), cap)^2)`` crosses 1.
    """
    cap = np.sqrt(alpha / b.shape[-1])
    mag = np.abs(b)
    lo = np.zeros(b.shape[0])
    hi = np.maximum(mag.max(axis=-1) / (2 * cap), np.linalg.norm(mag, axis=-1) / 2)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        energy = np.sum(np.minimum(mag / (2 * mid[:, None]), cap) ** 2, axis=-1)
        lo = np.where(energy > 1.0, mid, lo)
        hi = np.where(energy > 1.0, hi, mid)
    z_mag = np.minimum(mag / (2 * hi[:, None]), cap)
    z = z_mag * np.exp(1j * np.angle(b))
    return np.sum(z_mag * mag, axis=-1)[:, None] * z


def random_feasible_z(rng, n, alpha, count):
    cap_sq = alpha / n
    draws = rng.normal(size=(count * 8, n)) + 1j * rng.normal(size=(count * 8, n))
    draws /= np.linalg.norm(draws, axis=-1, keepdims=True)
    ok = np.max(np.abs(draws) ** 2, axis=-1) <= cap_sq
    feasible = draws[ok]
    assert feasible.shape[0] >= count, "rejection sampling starved"
    return feasible[:count]


# ---------------------------------------------------------------------------
# c_update
# ---------------------------------------------------------------------------

class TestCUpdate:
    def test_inactive_bound_example(self):
        c, mu = c_update(np.array([2.0, 0.0]), PLAN2, beta=0.15, r=25.0)
        assert mu == pytest.approx(0.0)
        assert c[0] == pytest.approx(2.0 / 26.0)
        assert c[1] == 0.0

    def test_active_bound_example(self):
        c, mu = c_update(np.array([1.0, 1.0]), PLAN2, beta=1.0, r=1.0)
        assert mu == pytest.approx(0.25)
        assert np.allclose(c, [2.0 / 3.0, 2.0 / 3.0])
        f_sq = abs(c[1]) ** 2
        d_sq = abs(c[0]) ** 2
        assert f_sq == pytest.approx(d_sq)  # boundary is tight

    def test_beta_zero_branch(self):
        rng = np.random.default_rng(0)
        plan = CarrierPlan.default(8, 2)
        v = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        c, mu = c_update(v, plan, beta=0.0, r=3.0)
        assert np.all(c[:, plan.free_idx] == 0.0)
        assert np.allclose(c[:, plan.data_idx], v[:, plan.data_idx] / 4.0)
        assert np.all(np.isinf(mu))

    def test_rejects_negative_beta_and_zero_input(self):
        with pytest.raises(ValueError):
            c_update(np.array([1.0, 1.0]), PLAN2, beta=-0.1, r=1.0)
        with pytest.raises(DegenerateSymbolError):
            c_update(np.zeros(2), PLAN2, beta=0.5, r=1.0)

    def test_rows_alone_match_the_batch_with_the_bound_active(self):
        rng = np.random.default_rng(23)
        plan = CarrierPlan.default(64, 12)
        v = rng.normal(size=(9, 64)) + 1j * rng.normal(size=(9, 64))
        v[::2, plan.free_idx] *= 0.01  # the bound is inactive on these rows
        c, mu = c_update(v, plan, beta=0.15, r=0.4)
        assert np.array_equal(mu > 0, np.arange(9) % 2 == 1)
        for i in range(9):
            for row in (v[i : i + 1], v[i]):
                c_alone, mu_alone = c_update(row, plan, 0.15, 0.4)
                assert np.array_equal(np.atleast_2d(c_alone)[0], c[i])
                assert np.atleast_1d(mu_alone)[0] == mu[i]

    def test_matches_numeric_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(60):
            n = int(rng.integers(2, 9))
            n_free = int(rng.integers(1, n))
            free = rng.choice(n, size=n_free, replace=False)
            plan = CarrierPlan(n, np.setdiff1d(np.arange(n), free), free)
            beta = float(rng.uniform(0.02, 1.5))
            r = float(rng.uniform(0.05, 30.0))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            c, mu = c_update(v, plan, beta, r)
            ours = c_objective(c, v, plan, r)
            _, ref = c_update_oracle(v, plan, beta, r)
            worst = max(worst, ours - ref)
            # feasibility and multiplier sign
            f_sq = np.linalg.norm(c[plan.free_idx]) ** 2
            d_sq = np.linalg.norm(c[plan.data_idx]) ** 2
            assert f_sq <= beta * d_sq + 1e-9
            assert mu >= 0.0
            slack = mu * (f_sq - beta * d_sq)
            assert abs(slack) <= 1e-6 * (1.0 + f_sq + beta * d_sq)
        assert worst < 1e-5

    def test_beats_random_feasible_perturbations(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            free = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            plan = CarrierPlan(n, np.setdiff1d(np.arange(n), free), free)
            beta = float(rng.uniform(0.05, 1.0))
            r = float(rng.uniform(0.1, 10.0))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            c, _ = c_update(v, plan, beta, r)
            ours = c_objective(c, v, plan, r)
            trial_pts = c + 0.3 * (
                rng.normal(size=(1000, n)) + 1j * rng.normal(size=(1000, n))
            )
            f_sq = np.linalg.norm(trial_pts[:, plan.free_idx], axis=-1) ** 2
            d_sq = np.linalg.norm(trial_pts[:, plan.data_idx], axis=-1) ** 2
            feasible = trial_pts[f_sq <= beta * d_sq]
            values = (
                0.5 * np.linalg.norm(feasible[:, plan.data_idx], axis=-1) ** 2
                + 0.5 * r * np.linalg.norm(feasible, axis=-1) ** 2
                - np.real(feasible @ np.conj(v))
            )
            assert np.all(values >= ours - 1e-9)


# ---------------------------------------------------------------------------
# z_projection / x_update
# ---------------------------------------------------------------------------

class TestZProjection:
    def test_constant_modulus_input_unclipped(self):
        b = np.ones(4, dtype=complex)
        z, gamma = z_projection(b, alpha=1.0)
        assert np.allclose(z, b / 2.0, atol=1e-7)
        assert abs(np.linalg.norm(z) ** 2 - 1.0) <= 1e-8

    def test_two_sample_worked_example(self):
        z, gamma = z_projection(np.array([2.0, 1.0]), alpha=1.2)
        assert z[0] == pytest.approx(np.sqrt(0.6), abs=1e-7)
        assert z[1] == pytest.approx(np.sqrt(0.4), abs=1e-7)
        assert gamma == pytest.approx(1.0 / (2.0 * np.sqrt(0.4)), abs=1e-6)

    def test_unit_energy_and_cap_invariants(self):
        rng = np.random.default_rng(11)
        cases = []
        for n, alpha in ((2, 1.2), (4, 2.0), (16, 10 ** 0.4), (64, 4.0)):
            cases.append((rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n)), alpha))
        # boundary: 3 unequal nonzero entries with 3*alpha/n = 1, so the
        # optimum puts every nonzero entry exactly at the cap
        for n in (4, 16):
            b = np.zeros((40, n), dtype=complex)
            for row in b:
                idx = rng.choice(n, size=3, replace=False)
                row[idx] = rng.normal(size=3) + 1j * rng.normal(size=3)
            cases.append((b, n / 3))
        for b, alpha in cases:
            n = b.shape[-1]
            z, gamma = z_projection(b, alpha)
            assert np.all(np.isfinite(z))
            nsq = np.linalg.norm(z, axis=-1) ** 2
            assert np.abs(nsq - 1.0).max() <= 1e-12  # tight at the optimum
            assert (np.abs(z) ** 2).max() <= alpha / n + 1e-12
            assert np.all(gamma > 0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for trial in range(200):
            n = int(rng.integers(2, 5))
            alpha = float(rng.uniform(1.0, n))
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            z, _ = z_projection(b, alpha)
            ours = float(np.real(np.vdot(z, b)))
            worst = max(worst, z_oracle(b, alpha) - ours)
        assert worst < 1e-5

    def test_dominates_random_feasible_points(self):
        rng = np.random.default_rng(13)
        for n, alpha in ((2, 1.5), (4, 2.0)):
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            z, _ = z_projection(b, alpha)
            ours = np.real(np.vdot(z, b))
            rivals = random_feasible_z(rng, n, alpha, 1000)
            values = np.real(rivals @ np.conj(b))
            assert np.all(ours >= values - 1e-9)

    def test_capped_energy_monotone_in_gamma(self):
        rng = np.random.default_rng(14)
        b = rng.normal(size=32) + 1j * rng.normal(size=32)
        cap = np.sqrt(2.0 / 32)
        grid = np.linspace(0.01, 50.0, 400)
        nsq = [
            np.sum(np.minimum(np.abs(b) / (2 * g), cap) ** 2) for g in grid
        ]
        assert np.all(np.diff(nsq) <= 1e-12)

    def test_sparse_input_energy_completion(self):
        # only one nonzero entry: the clip family saturates below unit energy,
        # so the slack is spread over the zero entries
        b = np.array([3.0, 0.0, 0.0, 0.0], dtype=complex)
        z, gamma = z_projection(b, alpha=1.5)
        assert gamma == 0.0
        assert np.linalg.norm(z) ** 2 == pytest.approx(1.0)
        assert abs(z[0]) ** 2 == pytest.approx(1.5 / 4)
        assert np.allclose(np.abs(z[1:]) ** 2, (1 - 1.5 / 4) / 3)

    def test_zero_input_rejected(self):
        with pytest.raises(DegenerateSymbolError):
            z_projection(np.zeros(4), alpha=2.0)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            z_projection(np.ones(4), alpha=0.5)


class TestXUpdate:
    # x = t*z with ||z|| = 1, so the scale t is ||x||, and an all-zero input
    # row is an all-zero output row

    def test_feasible_point_is_fixed(self):
        b = np.exp(1j * np.linspace(0, 3, 8))
        x = x_update(b, alpha=1.3)
        assert np.abs(x - b).max() < 1e-7

    def test_two_sample_worked_example(self):
        x = x_update(np.array([2.0, 1.0]), alpha=1.2)
        t_expected = 2 * np.sqrt(0.6) + np.sqrt(0.4)
        assert np.linalg.norm(x) == pytest.approx(t_expected, abs=1e-6)
        assert x[0] == pytest.approx(t_expected * np.sqrt(0.6), abs=1e-6)
        assert x[1] == pytest.approx(t_expected * np.sqrt(0.4), abs=1e-6)
        assert papr(x) == pytest.approx(1.2, abs=1e-7)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(15)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        base = x_update(b, alpha=2.0)
        for s in (0.1, 3.0, 42.0):
            scaled = x_update(s * b, alpha=2.0)
            assert np.abs(scaled - s * base).max() < 1e-6 * s

    def test_output_papr_bounded(self):
        rng = np.random.default_rng(16)
        b = rng.normal(size=(100, 64)) + 1j * rng.normal(size=(100, 64))
        for alpha in (1.5, 10 ** 0.4, 6.0):
            x = x_update(b, alpha)
            assert papr(x).max() <= alpha * (1 + 1e-7)

    def test_mixed_batch_rows_match_rows_alone(self):
        rng = np.random.default_rng(21)
        n, alpha = 64, 10 ** 0.4
        b = rng.normal(size=(9, n)) + 1j * rng.normal(size=(9, n))
        b[2] = 0.0  # all zero
        b[4, 3:] = 0.0  # 3 nonzero samples: the clip rule saturates
        b[6, 20:] = 0.0  # 20 < n/alpha nonzero samples: saturates too
        b[7, ::2] = 0.0  # half the samples zero, still reaches unit energy
        x = x_update(b, alpha)
        assert [not row.any() for row in x] == [i == 2 for i in range(9)]
        assert papr(np.delete(x, 2, axis=0)).max() <= alpha * (1 + 1e-12)
        for i in range(9):
            assert np.array_equal(x[i], x_update(b[i], alpha))

    def test_large_batch_matches_bisection_and_direction_formula(self):
        rng = np.random.default_rng(22)
        alpha = 10 ** 0.4
        b = rng.normal(size=(5000, 256)) + 1j * rng.normal(size=(5000, 256))
        b *= rng.uniform(0.1, 10.0, size=(5000, 1))
        x = x_update(b, alpha)

        def rel_dist(x, ref):
            return float((np.abs(x - ref).max(axis=-1) / np.abs(ref).max(axis=-1)).max())

        oracle = rel_dist(x, bisection_x_update(b, alpha))
        # x = t*z with z from z_projection and t = Re(z^H b), as formed
        # before x_update derived t and x from the magnitudes
        z, _ = z_projection(b, alpha)
        t = np.maximum(0.0, np.real(np.sum(np.conj(z) * b, axis=-1)))
        direction = rel_dist(x, t[:, None] * z)
        print(f"x_update vs bisection {oracle:.1e}, vs t*z {direction:.1e} (relative)")
        assert oracle <= 1e-9
        assert direction <= 1e-12
        assert np.abs(np.linalg.norm(x, axis=-1) - t).max() <= 1e-12 * t.max()

    def test_zero_rows_mapped_to_zero(self):
        b = np.zeros((3, 8), dtype=complex)
        b[1] = np.arange(8) + 1.0
        x = x_update(b, alpha=2.0)
        assert np.all(x[0] == 0) and np.all(x[2] == 0)
        assert np.all(x[1] != 0)


# ---------------------------------------------------------------------------
# uw_update
# ---------------------------------------------------------------------------

class TestUwUpdate:
    def test_consensus_is_fixed_point(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        u, w = uw_update(v, v, np.zeros(12), 300.0, 100.0)
        assert np.abs(u - v).max() < 1e-12
        assert np.abs(w - v).max() < 1e-12

    def test_stationarity_residuals_vanish(self):
        # both equations of the pair, with the engine's y2 = -y1
        rng = np.random.default_rng(18)
        for _ in range(20):
            rho = float(rng.uniform(10, 500))
            rho_tilde = float(rng.uniform(1, rho / 2.01))
            shape = (3, 16)
            x, ac, y1 = (
                rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)
            )
            u, w = uw_update(x, ac, y1, rho, rho_tilde)
            g1 = -y1 + rho_tilde * (u - w) - rho * (ac - u)
            g2 = y1 - rho_tilde * (u - w) - rho * (x - w)
            scale = max(np.abs(y1).max(), 1.0)
            assert np.abs(g1).max() <= 1e-10 * scale
            assert np.abs(g2).max() <= 1e-10 * scale

    def test_multiplier_identity_after_dual_step(self):
        # the explicit dual steps land on y1 = rho_tilde*(u - w) = -y2, which
        # is what lets the relaxed engine derive its multipliers from (u, w)
        rng = np.random.default_rng(20)
        rho, rho_tilde = 300.0, 100.0
        x, ac = (rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2))
        y1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        u, w = uw_update(x, ac, y1, rho, rho_tilde)
        y1_next = y1 + rho * (ac - u)
        y2_next = -y1 + rho * (x - w)
        assert np.abs(y1_next - rho_tilde * (u - w)).max() < 1e-10
        assert np.abs(y2_next + rho_tilde * (u - w)).max() < 1e-10

    def test_rejects_bad_penalties(self):
        with pytest.raises(ValueError):
            uw_update(np.ones(4), np.ones(4), np.zeros(4), 0.0, 1.0)
        with pytest.raises(ValueError):
            uw_update(np.ones(4), np.ones(4), np.zeros(4), 1.0, 0.0)
