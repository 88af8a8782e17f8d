"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they happen.  The heavy Monte Carlo artefacts (the
5000-symbol solver runs) are computed once per session and shared.
"""

import time
from itertools import combinations

import numpy as np
import pytest
from scipy import optimize

from papradmm import (
    AdmmParams,
    CarrierPlan,
    Constellation,
    ccdf,
    c_update,
    direct_kkt_residual,
    direct_solve,
    evm_db,
    fft_oversampled,
    ifft_oversampled,
    lambda_min_q,
    map_bits,
    papr_db,
    relax_solve,
    iteration_complexity_bound,
    z_projection,
)
from papradmm.config import ExperimentConfig
from papradmm import experiments

PLAN = CarrierPlan.default(64, 12)
QAM16 = Constellation.qam16()
ALPHA = 10 ** 0.4
OVERSAMPLE = 4
N_SYMBOLS = 5000
SEED = 20240901

TABLE2_TARGETS = {
    ("direct", 0.0): -16.58,
    ("direct", 0.15): -27.33,
    ("direct", 0.3): -32.96,
    ("relax", 0.0): -16.36,
    ("relax", 0.15): -27.51,
    ("relax", 0.3): -32.89,
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def _symbols(count: int, seed: int = SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, PLAN.n_data * QAM16.bits_per_symbol))
    return map_bits(bits, QAM16, PLAN)


@pytest.fixture(scope="module")
def monte_carlo_batch():
    return _symbols(N_SYMBOLS)


@pytest.fixture(scope="module")
def table2_runs(monte_carlo_batch):
    """(solver, beta) -> (x, c, seconds) for the stock 5-iteration runs."""
    runs = {}
    for beta in (0.0, 0.15, 0.3):
        t0 = time.perf_counter()
        x, c, _ = direct_solve(
            monte_carlo_batch, PLAN,
            AdmmParams(alpha=ALPHA, beta=beta, rho=100.0, max_iters=5),
            OVERSAMPLE,
        )
        runs[("direct", beta)] = (x, c, time.perf_counter() - t0)
        t0 = time.perf_counter()
        x, c, _ = relax_solve(
            monte_carlo_batch, PLAN,
            AdmmParams(alpha=ALPHA, beta=beta, rho=300.0, rho_tilde=100.0, max_iters=5),
            OVERSAMPLE,
        )
        runs[("relax", beta)] = (x, c, time.perf_counter() - t0)
    return runs


def test_criterion_1_table2_evm(monte_carlo_batch, table2_runs):
    """EVM of both engines within 1 dB of the reference table, 5 sweeps."""
    failures = []
    details = []
    for (solver, beta), (x, c, seconds) in sorted(table2_runs.items()):
        value = evm_db(c, monte_carlo_batch, PLAN)
        target = TABLE2_TARGETS[(solver, beta)]
        ok = abs(value - target) <= 1.0 and seconds < 120.0
        details.append(f"{solver}/beta={beta}: {value:.2f} dB (target {target}, {seconds:.0f}s)")
        if not ok:
            failures.append(details[-1])
    _report("criterion-1 (EVM table)", not failures, "; ".join(details))
    assert not failures, (
        "EVM outside +/-1 dB of the reference at 5 sweeps: " + "; ".join(failures)
    )


def test_criterion_2_quasi_constant_papr(table2_runs):
    """Hard PAPR ceiling and concentration just below it."""
    problems = []
    details = []
    for solver in ("direct", "relax"):
        x, _, _ = table2_runs[(solver, 0.15)]
        values = papr_db(x)
        exceed = float(ccdf(values, [4.05])[0])
        # upper edge padded by 1e-6 dB: the projection meets the ceiling
        # exactly, up to rounding in the PAPR of the returned samples
        window = float(np.mean((values >= 3.7) & (values <= 4.0 + 1e-6)))
        details.append(f"{solver}: CCDF(4.05dB)={exceed:.1e}, in [3.7,4.0]dB: {window:.3f}")
        if exceed > 1e-3 or window < 0.9:
            problems.append(details[-1])
    _report("criterion-2 (quasi-constant PAPR)", not problems, "; ".join(details))
    assert not problems


def test_criterion_3_descent_machinery():
    """Sufficient descent, multiplier identities and nonnegativity, 500 symbols."""
    c_o = _symbols(500, seed=SEED + 1)
    params = AdmmParams(
        alpha=ALPHA, beta=0.15, rho=300.0, rho_tilde=100.0, max_iters=30, eps=0.0
    )
    _, _, rep = relax_solve(c_o, PLAN, params, OVERSAMPLE, certify=True)
    margin = rep.descent_lhs - (rep.descent_rhs - 1e-8 * (1 + np.abs(rep.descent_lhs)))
    descent_ok = bool(np.all(margin >= 0.0))
    ident_ok = bool(rep.identity_residual.max() <= 1e-9)
    nonneg_ok = bool(rep.lagrangian.min() >= 0.0)
    lam_ok = lambda_min_q(300.0, 100.0) == pytest.approx(116.6667, abs=5e-5)
    ok = descent_ok and ident_ok and nonneg_ok and lam_ok
    _report(
        "criterion-3 (descent machinery)", ok,
        f"min margin {margin.min():.2e}, max identity residual "
        f"{rep.identity_residual.max():.2e}, min L {rep.lagrangian.min():.2e}, "
        f"lambda_min(Q)={lambda_min_q(300.0, 100.0):.4f}",
    )
    assert ok


@pytest.fixture(scope="module")
def consensus_sweep():
    c_o = _symbols(200, seed=SEED + 2)
    out = {}
    for rho_tilde in (10.0, 30.0, 100.0, 300.0):
        params = AdmmParams(
            alpha=ALPHA, beta=0.15, rho=3.0 * rho_tilde, rho_tilde=rho_tilde,
            max_iters=400, eps=1e-14,
        )
        _, _, rep = relax_solve(c_o, PLAN, params, OVERSAMPLE, feasible_start=True)
        out[rho_tilde] = rep
    return out


def test_criterion_4_consensus_gap_trend(consensus_sweep):
    """Median coupling gap shrinks with the tie penalty; per-symbol bound holds."""
    medians = []
    bound_ok = True
    feas_note = []
    for rho_tilde, rep in sorted(consensus_sweep.items()):
        feas = rep.feasible_start & ~rep.bypassed
        gap = rep.consensus_gap[feas]
        bound = (rep.sd_dist_initial[feas] - rep.sd_dist_final[feas]) / rho_tilde
        bound_ok &= bool(np.all(gap <= bound + 1e-12))
        medians.append(float(np.median(gap)))
        feas_note.append(f"{int(rho_tilde)}:{feas.mean():.2f}")
    monotone = bool(np.all(np.diff(medians) < 0))
    ok = monotone and bound_ok
    _report(
        "criterion-4 (gap vs tie penalty)", ok,
        f"medians {['%.2e' % m for m in medians]}, monotone={monotone}, "
        f"bound ok={bound_ok}, feasible fractions {','.join(feas_note)}",
    )
    assert ok


def test_criterion_5_iteration_complexity(consensus_sweep):
    """First passage below eps never beats the descent-derived bound."""
    rep = consensus_sweep[100.0]
    params = AdmmParams(
        alpha=ALPHA, beta=0.15, rho=300.0, rho_tilde=100.0, max_iters=400, eps=1e-14
    )
    all_ok = True
    details = []
    for eps in (1e-3, 1e-5):
        bound, actual, ok = iteration_complexity_bound(rep, params, eps)
        hit = bool(np.all(actual > 0))
        all_ok &= hit and bool(ok.all())
        details.append(
            f"eps={eps:.0e}: max r={actual.max()}, min bound={bound.min():.2f}"
        )
    _report("criterion-5 (iteration bound)", all_ok, "; ".join(details))
    assert all_ok


def test_criterion_6_direct_kkt_diagnostic():
    """KKT residual of direct runs that reach the change-residual target.

    The change residual is a squared step, so a stop at ``eps`` leaves steps
    of about ``sqrt(eps)``; certifying a residual of 1e-5 needs
    ``eps <= (1e-5)**2``.  ``eps=1e-12`` (steps of ~1e-6) keeps that margin.
    """
    c_o = _symbols(100, seed=SEED + 3)
    params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=500, eps=1e-12)
    x, c, rep = direct_solve(c_o, PLAN, params, OVERSAMPLE)
    qualifying = rep.converged & ~rep.bypassed
    n_qualifying = int(qualifying.sum())
    if n_qualifying < 25:
        _report(
            "criterion-6 (direct KKT)", False,
            f"only {n_qualifying}/100 runs reached change residual < 1e-12 "
            "within 500 sweeps (need 25)",
        )
        assert n_qualifying >= 25, f"only {n_qualifying} qualifying runs"
    kkt = direct_kkt_residual(
        c_o, PLAN, params, OVERSAMPLE, c, x, rep.y_final, rep.mu_final
    )
    worst = float(kkt[qualifying].max())
    ok = worst <= 1e-5
    _report(
        "criterion-6 (direct KKT)", ok,
        f"{n_qualifying}/100 runs qualified, worst KKT residual {worst:.2e}",
    )
    assert ok, f"KKT residual {worst:.2e} exceeds 1e-5"


def test_criterion_7_subproblem_oracles():
    """Closed-form subproblem solutions match brute-force/numeric oracles."""
    rng = np.random.default_rng(SEED + 4)
    worst_c, worst_z, worst_tight = 0.0, 0.0, 0.0
    for _ in range(200):
        # carrier update, N <= 4
        n = int(rng.integers(2, 5))
        free = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        plan = CarrierPlan(n, np.setdiff1d(np.arange(n), free), free)
        beta = float(rng.uniform(0.05, 1.2))
        r = float(rng.uniform(0.1, 20.0))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        c, _ = c_update(v, plan, beta, r)
        ours = _c_objective(c, v, plan, r)
        ref = _c_oracle_value(v, plan, beta, r)
        worst_c = max(worst_c, ours - ref)
        # projection direction, ln <= 4
        ln = int(rng.integers(2, 5))
        alpha = float(rng.uniform(1.0, ln))
        b = rng.normal(size=ln) + 1j * rng.normal(size=ln)
        z, _ = z_projection(b, alpha)
        worst_z = max(worst_z, _z_oracle_value(b, alpha) - float(np.real(np.vdot(z, b))))
        worst_tight = max(worst_tight, abs(float(np.linalg.norm(z) ** 2) - 1.0))
    ok = worst_c < 1e-5 and worst_z < 1e-5 and worst_tight <= 1e-6
    _report(
        "criterion-7 (subproblem oracles)", ok,
        f"carrier-update gap {worst_c:.2e}, projection gap {worst_z:.2e}, "
        f"unit-energy violation {worst_tight:.2e}",
    )
    assert ok


def test_criterion_8_transform_oracle():
    """Dense-matrix agreement and round-trip identity at three sizes."""
    rng = np.random.default_rng(SEED + 5)
    worst_fwd, worst_rt = 0.0, 0.0
    for n, oversample in ((4, 2), (8, 2), (8, 4)):
        ln = n * oversample
        idx_n, idx_k = np.meshgrid(np.arange(ln), np.arange(n), indexing="ij")
        a = np.exp(2j * np.pi * idx_n * idx_k / ln) / ln
        c = rng.normal(size=(32, n)) + 1j * rng.normal(size=(32, n))
        x = ifft_oversampled(c, oversample)
        worst_fwd = max(worst_fwd, float(np.abs(x - c @ a.T).max()))
        worst_rt = max(
            worst_rt, float(np.abs(fft_oversampled(x, oversample) - c).max())
        )
    ok = worst_fwd < 1e-12 and worst_rt < 1e-12
    _report(
        "criterion-8 (transform oracle)", ok,
        f"dense gap {worst_fwd:.2e}, round-trip gap {worst_rt:.2e}",
    )
    assert ok


def test_criterion_9_ber_ordering():
    """After the amplifier, both engines beat clip-and-filter, which beats no processing."""
    cfg = ExperimentConfig().with_overrides(
        n_symbols=500, ebn0_db="6,8,10", beta=0.15, seed=SEED + 6
    )
    rows = experiments.run_ber(cfg)
    table = {(r[0], r[2]): (r[3], r[4]) for r in rows[1:]}
    problems = []
    details = []
    for ebn0 in (6.0, 8.0, 10.0):
        values = {s: table[(s, ebn0)][0] for s in ("none", "direct", "relax", "rcf")}
        bits = min(table[(s, ebn0)][1] for s in values)
        details.append(
            f"Eb/N0={ebn0:g}: none={values['none']:.3e} direct={values['direct']:.3e} "
            f"relax={values['relax']:.3e} rcf={values['rcf']:.3e}"
        )
        if bits < 10**5:
            problems.append(f"only {bits} bits at {ebn0} dB")
        if not (values["direct"] <= values["rcf"] and values["relax"] <= values["rcf"]):
            problems.append(f"engine worse than rcf at {ebn0} dB")
        if not values["rcf"] <= values["none"]:
            problems.append(f"rcf worse than unprocessed at {ebn0} dB")
    _report("criterion-9 (BER ordering)", not problems, "; ".join(details))
    assert not problems, "; ".join(problems)


def test_criterion_10_complexity_scaling():
    """Per-sweep runtime follows n*log2(n) across a 16x size range."""
    cfg = ExperimentConfig()
    rows = experiments.run_bench(cfg)
    sizes = [row[1] for row in rows[1:]]
    times = [row[2] for row in rows[1:]]
    r_sq, slope = experiments.loglog_fit(sizes, times)
    ok = r_sq >= 0.95
    _report(
        "criterion-10 (complexity scaling)", ok,
        f"R^2={r_sq:.4f}, slope={slope:.3f}, times(ms)="
        + ",".join(f"{t * 1e3:.2f}" for t in times),
    )
    assert ok


# ---------------------------------------------------------------------------
# oracle helpers (duplicated minimally so this module stands alone)
# ---------------------------------------------------------------------------

def _c_objective(c, v, plan, r):
    return (
        0.5 * np.linalg.norm(c[plan.data_idx]) ** 2
        + 0.5 * r * np.linalg.norm(c) ** 2
        - np.real(np.vdot(v, c))
    )


def _c_oracle_value(v, plan, beta, r):
    n = v.size

    def unpack(t):
        return t[:n] + 1j * t[n:]

    res = optimize.minimize(
        lambda t: _c_objective(unpack(t), v, plan, r),
        np.concatenate([v.real, v.imag]) / (1 + r),
        method="SLSQP",
        constraints=[
            {
                "type": "ineq",
                "fun": lambda t: beta
                * np.linalg.norm(unpack(t)[plan.data_idx]) ** 2
                - np.linalg.norm(unpack(t)[plan.free_idx]) ** 2,
            }
        ],
        options={"maxiter": 400, "ftol": 1e-14},
    )
    return float(res.fun)


def _z_oracle_value(b, alpha):
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
            if rest and rest_norm > 0:
                m_rest = np.sqrt(energy) * mag[rest] / rest_norm
                if np.any(m_rest > cap * (1 + 1e-12)):
                    continue
            elif rest and energy > len(rest) * cap_sq * (1 + 1e-12):
                continue
            elif not rest and energy > 1e-15:
                continue
            best = max(best, cap * mag[list(subset)].sum() + np.sqrt(energy) * rest_norm)
    return float(best)
