import numpy as np
import pytest

from papradmm import (
    AdmmParams,
    CarrierPlan,
    Constellation,
    descent_check,
    feasible_start_state,
    ifft_oversampled,
    lambda_min_q,
    map_bits,
    multiplier_identity_residual,
    papr,
    relax_solve,
    iteration_complexity_bound,
)

ALPHA = 10 ** 0.4
PLAN = CarrierPlan.default(64, 12)
QAM16 = Constellation.qam16()


def random_symbols(rng, count):
    bits = rng.integers(0, 2, size=(count, PLAN.n_data * 4))
    return map_bits(bits, QAM16, PLAN)


def stock_params(**kwargs):
    defaults = dict(alpha=ALPHA, beta=0.15, rho=300.0, rho_tilde=100.0)
    defaults.update(kwargs)
    return AdmmParams(**defaults)


def test_penalty_hypothesis_enforced():
    with pytest.raises(ValueError):
        relax_solve(np.zeros(64), PLAN, stock_params(rho=150.0), 4)
    with pytest.raises(ValueError):
        relax_solve(np.zeros(64), PLAN, stock_params(rho_tilde=None), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_input_rejected(bad):
    c_o = random_symbols(np.random.default_rng(28), 3)
    c_o[1, PLAN.data_idx[5]] = bad
    with pytest.raises(ValueError, match="finite"):
        relax_solve(c_o, PLAN, stock_params(), 4)


def test_lambda_min_matches_eigen_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rho_tilde = float(rng.uniform(0.5, 100.0))
        rho = float(rng.uniform(2.001 * rho_tilde, 8.0 * rho_tilde))
        off = 2.0 * rho_tilde**2 / rho - rho_tilde / 2.0
        diag = (rho_tilde + rho) / 2.0 - 2.0 * rho_tilde**2 / rho
        q = np.array([[diag, off], [off, diag]])
        eigs = np.linalg.eigvalsh(q)
        assert lambda_min_q(rho, rho_tilde) == pytest.approx(eigs.min(), rel=1e-12)
        assert eigs.min() > 0  # positive definite whenever rho > 2*rho_tilde


def test_lambda_min_stock_value():
    assert lambda_min_q(300.0, 100.0) == pytest.approx(350.0 / 3.0)
    assert lambda_min_q(300.0, 100.0) == pytest.approx(116.6667, abs=1e-4)


def test_descent_check_stationary_point_is_tight():
    lhs, rhs, ok = descent_check(2.5, 2.5, 0.0, 300.0, 100.0)
    assert lhs == 0.0 and rhs == 0.0 and ok


class TestRelaxRun:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.c_o = random_symbols(rng, 40)

    def test_start_reuses_the_raw_signal(self, monkeypatch):
        # with c1 = c_o the start's A c1 is the x_raw the sweep loop made
        from papradmm import dsp

        calls = []
        original = dsp.ifft_oversampled

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dsp, "ifft_oversampled", counting)
        params = stock_params(max_iters=3, eps=0.0)
        _, _, rep = relax_solve(self.c_o, PLAN, params, 4)
        assert not rep.bypassed.any()
        assert len(calls) == 1 + rep.iterations == 4

    def test_feasible_start_reuses_its_signal(self, monkeypatch):
        # feasible_start_state returns x1 = A c1, so the start makes no
        # transform of its own beyond the sweep loop's x_raw
        from papradmm import dsp

        calls = []
        original = dsp.ifft_oversampled

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dsp, "ifft_oversampled", counting)
        params = stock_params(max_iters=3, eps=0.0)
        feasible_start_state(self.c_o, PLAN, params, 4)
        in_start = len(calls)
        calls.clear()
        _, _, rep = relax_solve(self.c_o, PLAN, params, 4, feasible_start=True)
        assert not rep.bypassed.any() and rep.iterations == 3
        assert len(calls) == 1 + in_start + rep.iterations

    def test_descent_margin_every_sweep(self):
        params = stock_params(max_iters=50, eps=0.0)
        _, _, rep = relax_solve(self.c_o, PLAN, params, 4, certify=True)
        lhs, rhs = rep.descent_lhs, rep.descent_rhs
        assert np.all(lhs >= rhs - 1e-8 * (1.0 + np.abs(lhs)))

    def test_multiplier_identities_from_first_sweep(self):
        params = stock_params(max_iters=50, eps=0.0)
        _, _, rep = relax_solve(self.c_o, PLAN, params, 4, certify=True)
        assert rep.identity_residual[0].max() <= 1e-10
        assert rep.identity_residual.max() <= 1e-9

    def test_descent_sides_are_read_off_the_lagrangian_trace(self):
        # at 6.5 dB 8 of these rows bypass and, at eps 1e-6, the others stop
        # at sweeps 1 to 27 (at 1e-4 all stop at the first)
        params = stock_params(alpha=10 ** 0.65, max_iters=30, eps=1e-6)
        _, _, rep = relax_solve(self.c_o, PLAN, params, 4, certify=True)
        lagr = rep.lagrangian
        assert np.array_equal(rep.descent_lhs, lagr[:-1] - lagr[1:])
        assert np.array_equal(rep.descent_rhs, lambda_min_q(300.0, 100.0) * rep.residual)
        stop = np.where(rep.bypassed, 0, (rep.residual < params.eps).argmax(axis=0) + 1)
        stopped = rep.converged & (stop < rep.iterations)
        assert rep.bypassed.any() and (stopped & ~rep.bypassed).any()
        for i in np.flatnonzero(stopped):
            assert np.all(rep.descent_lhs[stop[i] :, i] == 0.0), i
            assert np.all(rep.descent_rhs[stop[i] :, i] == 0.0), i

    def test_lagrangian_nonnegative_and_nonincreasing(self):
        params = stock_params(max_iters=50, eps=0.0)
        _, _, rep = relax_solve(self.c_o, PLAN, params, 4, certify=True)
        assert rep.lagrangian.min() >= 0.0
        assert np.all(np.diff(rep.lagrangian, axis=0) <= 1e-10)

    def test_lagrangian_matches_sum_of_squares_form(self):
        # once the multiplier identities hold, the augmented Lagrangian equals
        # an explicitly nonnegative combination of squared gaps
        params = stock_params(max_iters=6, eps=0.0)
        rng = np.random.default_rng(3)
        c_o = random_symbols(rng, 5)
        x, c, rep = relax_solve(c_o, PLAN, params, 4, certify=True)
        rho, rho_tilde = 300.0, 100.0
        ac = ifft_oversampled(c, 4)
        u, w = rep.u_final, rep.w_final
        mid = 0.5 * (u + w)
        closed_form = (
            0.5 * np.linalg.norm((c - c_o)[:, PLAN.data_idx], axis=-1) ** 2
            + rho_tilde * np.linalg.norm(ac - mid, axis=-1) ** 2
            + (rho / 2 - rho_tilde)
            * (
                np.linalg.norm(ac - u, axis=-1) ** 2
                + np.linalg.norm(x - w, axis=-1) ** 2
            )
            + rho_tilde * np.linalg.norm(x - mid, axis=-1) ** 2
        )
        assert np.abs(rep.lagrangian[-1] - closed_form).max() < 1e-10
        assert np.all(closed_form >= 0.0)

    def test_stopped_row_keeps_state_of_run_capped_at_its_stop(self):
        params = stock_params(max_iters=80, eps=1e-6)
        x, c, rep = relax_solve(self.c_o, PLAN, params, 4, certify=True)
        stop = (rep.residual < params.eps).argmax(axis=0) + 1
        rows = np.flatnonzero(rep.converged & ~rep.bypassed & (stop < rep.iterations))
        assert rows.size >= 2
        for i in rows[:3]:
            k = int(stop[i])
            x_k, c_k, rep_k = relax_solve(
                self.c_o, PLAN, stock_params(max_iters=k, eps=1e-6), 4
            )
            assert np.array_equal(x[i], x_k[i]) and np.array_equal(c[i], c_k[i])
            assert np.array_equal(rep.u_final[i], rep_k.u_final[i])
            assert np.array_equal(rep.w_final[i], rep_k.w_final[i])
            assert np.all(rep.residual[k:, i] == 0.0)
            assert np.all(rep.lagrangian[k:, i] == rep.lagrangian[k, i])

    def test_output_papr_feasible_for_any_tie_penalty(self):
        for rho_tilde in (10.0, 100.0, 300.0):
            params = AdmmParams(
                alpha=ALPHA, beta=0.15, rho=3.0 * rho_tilde, rho_tilde=rho_tilde,
                max_iters=5,
            )
            x, _, _ = relax_solve(self.c_o, PLAN, params, 4)
            assert papr(x).max() <= ALPHA * (1 + 1e-7)

    def test_scale_and_phase_equivariance(self):
        rng = np.random.default_rng(27)
        c_o = random_symbols(rng, 8)
        params = stock_params(max_iters=4, eps=0.0)
        x_ref, c_ref, _ = relax_solve(c_o, PLAN, params, 4)
        for s in (0.5, 2j):
            x_s, c_s, _ = relax_solve(s * c_o, PLAN, params, 4)
            assert np.abs(x_s - s * x_ref).max() < 1e-6 * abs(s)
            assert np.abs(c_s - s * c_ref).max() < 1e-6 * abs(s)

    def test_consensus_gap_median_decreases_with_tie_penalty(self):
        rng = np.random.default_rng(22)
        c_o = random_symbols(rng, 30)
        medians = []
        for rho_tilde in (10.0, 30.0, 100.0, 300.0):
            params = AdmmParams(
                alpha=ALPHA, beta=0.15, rho=3.0 * rho_tilde, rho_tilde=rho_tilde,
                max_iters=300, eps=1e-13,
            )
            _, _, rep = relax_solve(c_o, PLAN, params, 4, feasible_start=True)
            medians.append(np.median(rep.consensus_gap[rep.feasible_start]))
        assert np.all(np.diff(medians) < 0)


class TestFeasibleStart:
    def test_initial_pair_is_consistent_and_feasible(self):
        rng = np.random.default_rng(23)
        c_o = random_symbols(rng, 25)
        params = stock_params()
        c1, x1, feasible = feasible_start_state(c_o, PLAN, params, 4)
        assert np.abs(ifft_oversampled(c1, 4) - x1).max() < 1e-12
        assert feasible.mean() > 0.9
        assert papr(x1[feasible]).max() <= ALPHA * (1 + 1e-9)
        f_sq = np.linalg.norm(c1[:, PLAN.free_idx], axis=-1) ** 2
        d_sq = np.linalg.norm(c1[:, PLAN.data_idx], axis=-1) ** 2
        assert np.all(f_sq[feasible] <= 0.15 * d_sq[feasible] * (1 + 1e-9))

    def test_consensus_gap_bound_per_symbol(self):
        rng = np.random.default_rng(24)
        c_o = random_symbols(rng, 25)
        params = stock_params(max_iters=400, eps=1e-14)
        _, _, rep = relax_solve(c_o, PLAN, params, 4, feasible_start=True)
        feas = rep.feasible_start & ~rep.bypassed
        bound = (rep.sd_dist_initial[feas] - rep.sd_dist_final[feas]) / 100.0
        assert np.all(rep.consensus_gap[feas] <= bound + 1e-12)


class TestIterationBound:
    def setup_method(self):
        rng = np.random.default_rng(25)
        self.c_o = random_symbols(rng, 20)
        self.params = stock_params(max_iters=300, eps=0.0)
        _, _, self.rep = relax_solve(self.c_o, PLAN, self.params, 4)

    def test_large_epsilon_first_sweep(self):
        eps = float(self.rep.residual[0].max() * 2.0)
        bound, actual, ok = iteration_complexity_bound(self.rep, self.params, eps)
        assert np.all(actual == 1)
        assert ok.all()

    def test_bound_holds_at_tight_epsilon(self):
        for eps in (1e-3, 1e-5):
            bound, actual, ok = iteration_complexity_bound(self.rep, self.params, eps)
            assert np.all(actual > 0), "run too short for first passage"
            assert ok.all()

    def test_first_passage_monotone_in_epsilon(self):
        _, r_loose, _ = iteration_complexity_bound(self.rep, self.params, 1e-3)
        _, r_tight, _ = iteration_complexity_bound(self.rep, self.params, 1e-4)
        assert np.all(r_tight >= r_loose)


def test_identity_residual_helper_zero_when_tied():
    rng = np.random.default_rng(26)
    u = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    w = u.copy()
    res = multiplier_identity_residual(u, w, np.zeros((2, 8)), np.zeros((2, 8)), 100.0)
    assert res.max() == 0.0
