import numpy as np
import pytest
from scipy import optimize

from papradmm import (
    AdmmParams,
    CarrierPlan,
    Constellation,
    direct_kkt_residual,
    direct_solve,
    ifft_oversampled,
    map_bits,
    papr,
)
from papradmm.direct import augmented_lagrangian

ALPHA = 10 ** 0.4
PLAN = CarrierPlan.default(64, 12)
QAM16 = Constellation.qam16()


def random_symbols(rng, count, plan=PLAN, const=QAM16):
    bits = rng.integers(0, 2, size=(count, plan.n_data * const.bits_per_symbol))
    return map_bits(bits, const, plan)


def run_kkt_residual(c_o, params, x, c, report):
    return direct_kkt_residual(
        c_o, PLAN, params, 4, c, x, report.y_final, report.mu_final
    )


def dense_modulator(n_carriers, oversample):
    ln = n_carriers * oversample
    n, k = np.meshgrid(np.arange(ln), np.arange(n_carriers), indexing="ij")
    return np.exp(2j * np.pi * n * k / ln) / ln


# ---------------------------------------------------------------------------
# oracle mirror of one engine sweep (dense transforms + numeric subproblems)
# ---------------------------------------------------------------------------

def oracle_c_update(v, plan, beta, r):
    n = v.size

    def unpack(t):
        return t[:n] + 1j * t[n:]

    def fun(t):
        c = unpack(t)
        return (
            0.5 * np.linalg.norm(c[plan.data_idx]) ** 2
            + 0.5 * r * np.linalg.norm(c) ** 2
            - np.real(np.vdot(v, c))
        )

    def constraint(t):
        c = unpack(t)
        return beta * np.linalg.norm(c[plan.data_idx]) ** 2 - np.linalg.norm(
            c[plan.free_idx]
        ) ** 2

    res = optimize.minimize(
        fun,
        np.concatenate([v.real, v.imag]) / (1 + r),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": constraint}],
        options={"maxiter": 500, "ftol": 1e-16},
    )
    return unpack(res.x)


def oracle_x_update(b, alpha):
    n = b.size
    cap_sq = alpha / n

    def unpack(t):
        return t[:n] + 1j * t[n:]

    def fun(t):
        return -np.real(np.vdot(unpack(t), b))

    constraints = [
        {"type": "eq", "fun": lambda t: np.linalg.norm(unpack(t)) ** 2 - 1.0}
    ]
    for i in range(n):
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda t, i=i: cap_sq - abs(unpack(t)[i]) ** 2,
            }
        )
    z0 = b / np.linalg.norm(b)
    z0 = np.minimum(np.abs(z0), np.sqrt(cap_sq) * 0.999) * np.exp(1j * np.angle(z0))
    z0 /= np.linalg.norm(z0)
    res = optimize.minimize(
        fun,
        np.concatenate([z0.real, z0.imag]),
        method="SLSQP",
        constraints=constraints,
        options={"maxiter": 800, "ftol": 1e-16},
    )
    z = unpack(res.x)
    t = max(0.0, float(np.real(np.vdot(z, b))))
    return t * z


def test_trajectory_matches_oracle_subproblems():
    # tiny instance: 2 carriers, oversampling 2, a handful of sweeps
    plan = CarrierPlan(2, data_idx=[0], free_idx=[1])
    a = dense_modulator(2, 2)
    rng = np.random.default_rng(99)
    c_o = np.array([1.1 - 0.4j, 0.0])
    alpha, beta, rho = 1.4, 0.3, 2.0
    r = rho / 4.0

    params = AdmmParams(alpha=alpha, beta=beta, rho=rho, max_iters=4, eps=0.0)
    x_eng, c_eng, report = direct_solve(c_o, plan, params, 2)

    # mirror run
    x = oracle_x_update(a @ c_o, alpha)
    y = np.zeros(4, dtype=complex)
    for _ in range(4):
        v = c_o + rho * np.conj(a.T) @ (x - y / rho)
        c = oracle_c_update(v, plan, beta, r)
        b = a @ c + y / rho
        x = oracle_x_update(b, alpha)
        y = y + rho * (a @ c - x)

    assert np.abs(c_eng - c).max() < 1e-6
    assert np.abs(x_eng - x).max() < 1e-6
    assert np.abs(report.y_final[0] - y).max() < 1e-6


# ---------------------------------------------------------------------------
# engine behaviour
# ---------------------------------------------------------------------------

class TestDirectSolve:
    def test_low_papr_symbol_bypassed(self):
        c_o = np.zeros(64, dtype=complex)
        c_o[PLAN.data_idx[0]] = 1.0  # single tone: papr == 1
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0)
        x, c, report = direct_solve(c_o, PLAN, params, 4)
        assert report.bypassed[0]
        assert np.abs(x - ifft_oversampled(c_o, 4)).max() == 0.0
        assert np.array_equal(c, c_o)

    def test_every_iterate_feasible(self):
        rng = np.random.default_rng(1)
        c_o = random_symbols(rng, 30)
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=8, eps=0.0)
        x, c, report = direct_solve(c_o, PLAN, params, 4)
        assert papr(x).max() <= ALPHA * (1 + 1e-7)
        f_sq = np.linalg.norm(c[:, PLAN.free_idx], axis=-1) ** 2
        d_sq = np.linalg.norm(c[:, PLAN.data_idx], axis=-1) ** 2
        assert np.all(f_sq <= 0.15 * d_sq + 1e-9)
        assert np.all(report.mu_final[~report.bypassed] >= 0.0)

    def test_dual_update_identity(self):
        # y' - y = rho*(Ac' - x') holds exactly for the recorded final sweep
        rng = np.random.default_rng(2)
        c_o = random_symbols(rng, 4)
        rho = 100.0
        p1 = AdmmParams(alpha=ALPHA, beta=0.15, rho=rho, max_iters=3, eps=0.0)
        p2 = AdmmParams(alpha=ALPHA, beta=0.15, rho=rho, max_iters=4, eps=0.0)
        _, _, rep1 = direct_solve(c_o, PLAN, p1, 4)
        x2, c2, rep2 = direct_solve(c_o, PLAN, p2, 4)
        step = rep2.y_final - rep1.y_final
        expected = rho * (ifft_oversampled(c2, 4) - x2)
        assert np.abs(step - expected).max() < 1e-10

    def test_iterates_stay_finite_and_residual_settles(self):
        rng = np.random.default_rng(3)
        c_o = random_symbols(rng, 10)
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=60, eps=0.0)
        _, _, report = direct_solve(c_o, PLAN, params, 4)
        assert np.all(np.isfinite(report.residual))
        first = report.residual[0]
        last = report.residual[-1]
        assert np.all(last < first)

    def test_stopped_row_keeps_state_of_run_capped_at_its_stop(self):
        rng = np.random.default_rng(10)
        c_o = random_symbols(rng, 12)
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=80, eps=1e-6)
        x, c, rep = direct_solve(c_o, PLAN, params, 4)
        stop = (rep.residual < params.eps).argmax(axis=0) + 1
        rows = np.flatnonzero(rep.converged & ~rep.bypassed & (stop < rep.iterations))
        assert rows.size >= 2
        for i in rows[:3]:
            k = int(stop[i])
            capped = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=k, eps=1e-6)
            x_k, c_k, rep_k = direct_solve(c_o, PLAN, capped, 4)
            assert np.array_equal(x[i], x_k[i]) and np.array_equal(c[i], c_k[i])
            assert np.array_equal(rep.y_final[i], rep_k.y_final[i])
            assert rep.mu_final[i] == rep_k.mu_final[i]
            assert np.all(rep.residual[k:, i] == 0.0)

    def test_single_symbol_shape_round_trip(self):
        rng = np.random.default_rng(4)
        c_o = random_symbols(rng, 1)[0]
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0)
        x, c, _ = direct_solve(c_o, PLAN, params, 4)
        assert x.shape == (256,) and c.shape == (64,)

    def test_scale_and_phase_equivariance(self):
        # the whole program is positively homogeneous and phase-covariant,
        # so the engine must commute with complex scaling of the input
        rng = np.random.default_rng(9)
        c_o = random_symbols(rng, 10)
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=4, eps=0.0)
        x_ref, c_ref, _ = direct_solve(c_o, PLAN, params, 4)
        for s in (0.5, 3.0, 1j, np.exp(0.7j)):
            x_s, c_s, _ = direct_solve(s * c_o, PLAN, params, 4)
            assert np.abs(x_s - s * x_ref).max() < 1e-6 * abs(s)
            assert np.abs(c_s - s * c_ref).max() < 1e-6 * abs(s)

    def test_nonzero_free_carriers_rejected(self):
        c_o = np.ones(64, dtype=complex)
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0)
        with pytest.raises(ValueError):
            direct_solve(c_o, PLAN, params, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_input_rejected(self, bad):
        c_o = random_symbols(np.random.default_rng(11), 3)
        c_o[1, PLAN.data_idx[5]] = bad
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0)
        with pytest.raises(ValueError, match="finite"):
            direct_solve(c_o, PLAN, params, 4)


def test_converged_distortion_levels():
    # near-converged runs land on the reference distortion table; the stock
    # 5-sweep budget is still mid-transient (see the README's note on
    # acceptance criterion 1)
    from papradmm import evm_db

    rng = np.random.default_rng(20240901)
    c_o = random_symbols(rng, 1500)
    targets = {0.0: -16.58, 0.15: -27.33, 0.3: -32.96}
    for beta, target in targets.items():
        params = AdmmParams(alpha=ALPHA, beta=beta, rho=100.0, max_iters=60, eps=1e-10)
        _, c, _ = direct_solve(c_o, PLAN, params, 4)
        assert evm_db(c, c_o, PLAN) == pytest.approx(target, abs=1.0)


class TestKktResidual:
    def test_exact_kkt_tuple_scores_zero(self):
        # single tone: constant modulus, feasible, globally optimal at c_o with
        # every multiplier zero
        c_o = np.zeros(64, dtype=complex)
        c_o[PLAN.data_idx[0]] = 1.0
        x0 = ifft_oversampled(c_o, 4)
        assert papr(x0) <= ALPHA
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0)
        res = direct_kkt_residual(
            c_o, PLAN, params, 4,
            c=c_o, x=x0, y=np.zeros(256), mu=0.0,
        )
        assert res[0] < 1e-9

    def test_residual_shrinks_with_deeper_convergence(self):
        rng = np.random.default_rng(5)
        c_o = random_symbols(rng, 6)
        values = []
        for eps in (1e-6, 1e-10, 1e-14):
            params = AdmmParams(
                alpha=ALPHA, beta=0.15, rho=100.0, max_iters=4000, eps=eps
            )
            x, c, report = direct_solve(c_o, PLAN, params, 4)
            assert report.converged.all()
            values.append(run_kkt_residual(c_o, params, x, c, report).max())
        assert values[2] < values[0]
        assert values[2] <= 1e-5  # deep stop reaches the diagnostic target

    def test_zero_budget_branch_reaches_stationarity(self):
        # beta = 0 pins the free carriers; the reduced stationarity check
        # still drops with convergence depth
        rng = np.random.default_rng(17)
        c_o = random_symbols(rng, 5)
        params = AdmmParams(alpha=ALPHA, beta=0.0, rho=100.0, max_iters=4000, eps=1e-12)
        x, c, report = direct_solve(c_o, PLAN, params, 4)
        assert report.converged.all()
        assert np.all(c[:, PLAN.free_idx] == 0.0)
        assert run_kkt_residual(c_o, params, x, c, report).max() < 1e-4

    def test_perturbation_increases_residual(self):
        rng = np.random.default_rng(6)
        c_o = random_symbols(rng, 3)
        params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=3000, eps=1e-14)
        x, c, report = direct_solve(c_o, PLAN, params, 4)
        noise = 1e-2 * (rng.normal(size=c.shape) + 1j * rng.normal(size=c.shape))
        perturbed = direct_kkt_residual(
            c_o, PLAN, params, 4, c=c + noise, x=x, y=report.y_final,
            mu=report.mu_final,
        )
        assert np.all(perturbed > 10 * run_kkt_residual(c_o, params, x, c, report))


@pytest.mark.parametrize("beta", [0.0, 0.15, 0.3])
def test_diagnostics_of_a_row_do_not_depend_on_its_batch(beta):
    # 200 stock-sized rows after 5 sweeps: each row's KKT residual and
    # augmented Lagrangian, evaluated alone, carry the same bits as in the batch
    c_o = random_symbols(np.random.default_rng(23), 200)
    params = AdmmParams(alpha=ALPHA, beta=beta, rho=100.0, max_iters=5)
    x, c, report = direct_solve(c_o, PLAN, params, 4)
    y, mu = report.y_final, report.mu_final
    ac = ifft_oversampled(c, 4)
    kkt = direct_kkt_residual(c_o, PLAN, params, 4, c, x, y, mu)
    lagr = augmented_lagrangian(c, ac, x, y, c_o, PLAN, params.rho)
    for i in range(len(c_o)):
        row = slice(i, i + 1)
        kkt_alone = direct_kkt_residual(
            c_o[row], PLAN, params, 4, c[row], x[row], y[row], mu[row]
        )
        assert kkt_alone[0] == kkt[i], i
        lagr_alone = augmented_lagrangian(c[i], ac[i], x[i], y[i], c_o[i], PLAN, params.rho)
        assert lagr_alone == lagr[i], i
