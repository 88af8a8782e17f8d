"""The sweep loop's in-place contract, shared by both engines.

The engines write their state in place, so these tests pin what that must
never change: the caller's input, a ``raw=`` pair that solves share, the
independence of the returned arrays, the working set of one row block and
the bits of every row, whatever batch it is solved in.  They also pin what
the drivers rely on: a row whose FCPO bound never bound (``fcpo_active``
False) keeps its bits at a larger beta, and both engines commute with
scaling and rotating the input.  A toy step pins the loop's own contract: a
stopped row ends with the state of its stop sweep, however long the others
sweep on.
"""

import dataclasses
import functools
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papradmm import (
    AdmmParams,
    CarrierPlan,
    Constellation,
    c_update,
    direct_solve,
    fft_oversampled,
    ifft_oversampled,
    map_bits,
    papr,
    relax_solve,
    uw_update,
    x_update,
    z_projection,
)
from papradmm import dsp, experiments
from papradmm.config import ExperimentConfig
from papradmm.sweep import row_norm, run_sweeps

ALPHA = 10 ** 0.4
PLAN = CarrierPlan.default(64, 12)
QAM16 = Constellation.qam16()
# squared steps at which some rows stop within 8 sweeps and others do not
LOOSE_EPS = {"direct": 0.05, "relax": 2e-5}


def random_symbols(rng, count):
    bits = rng.integers(0, 2, size=(count, PLAN.n_data * 4))
    return map_bits(bits, QAM16, PLAN)


def tone_row():
    """A single data carrier: PAPR 1, so every engine bypasses it."""
    c = np.zeros(PLAN.n_carriers, dtype=complex)
    c[PLAN.data_idx[3]] = 1.0
    return c


def two_tone_row():
    """Two data carriers: PAPR 2, bypassed, and its projection differs in the last bits."""
    c = np.zeros(PLAN.n_carriers, dtype=complex)
    c[PLAN.data_idx[[3, 5]]] = 1.0
    return c


def solve(engine, c_o, beta=0.15, max_iters=5, eps=1e-8, raw=None, **kwargs):
    if engine == "direct":
        params = AdmmParams(alpha=ALPHA, beta=beta, rho=100.0, max_iters=max_iters, eps=eps)
        return direct_solve(c_o, PLAN, params, 4, raw=raw)
    params = AdmmParams(
        alpha=ALPHA, beta=beta, rho=300.0, rho_tilde=100.0, max_iters=max_iters, eps=eps
    )
    return relax_solve(c_o, PLAN, params, 4, raw=raw, **kwargs)


def final_state(engine, rep):
    """Per-row final values, row axis first."""
    if engine == "direct":
        return {"y_final": rep.y_final, "mu_final": rep.mu_final}
    state = {"u_final": rep.u_final, "w_final": rep.w_final, "sd_dist_final": rep.sd_dist_final}
    if rep.lagrangian is not None:
        # a stopped row repeats its last Lagrangian
        state["lagrangian_final"] = rep.lagrangian[-1]
    return state


def residual(rep, n_rows):
    return rep.residual.reshape(-1, n_rows)


ENGINES = [
    ("direct", {}),
    ("relax", {}),
    ("relax", {"certify": True}),
    ("relax", {"feasible_start": True}),
    ("relax", {"feasible_start": True, "certify": True}),
]


class TestOwnership:
    @pytest.mark.parametrize("engine,kwargs", ENGINES)
    @pytest.mark.parametrize("max_iters", [0, 3])
    @pytest.mark.parametrize("batch", ["single_row", "with_bypassed"])
    def test_outputs_share_no_memory_and_input_is_kept(self, engine, kwargs, max_iters, batch):
        rng = np.random.default_rng(5)
        if batch == "single_row":
            c_o = random_symbols(rng, 1)[0]
        else:
            c_o = np.vstack([random_symbols(rng, 3), tone_row(), random_symbols(rng, 2)])
        kept = c_o.copy()
        x, c, rep = solve(engine, c_o, max_iters=max_iters, eps=0.0, **kwargs)
        assert c_o.tobytes() == kept.tobytes()
        if batch == "single_row":
            # the loop hands a 1-D input back 1-D; the report keeps its row axis
            assert x.shape == (256,) and c.shape == (64,)
            assert rep.bypassed.shape == (1,)
            assert rep.residual.shape == (rep.iterations, 1)
        if batch == "with_bypassed":
            assert rep.bypassed.tolist() == [False] * 3 + [True] + [False] * 2
            # bypassed rows transmit the raw signal and keep c_o
            assert np.array_equal(x[3], ifft_oversampled(c_o[3], 4))
            assert np.array_equal(c[3], c_o[3])
        arrays = {"c_o": c_o, "x": x, "c": c, **final_state(engine, rep)}
        for (name_a, a), (name_b, b) in combinations(arrays.items(), 2):
            assert not np.shares_memory(a, b), (name_a, name_b)

    @pytest.mark.parametrize("engine,kwargs", [("direct", {}), ("relax", {"certify": True})])
    def test_a_run_with_no_sweep_returns_empty_traces(self, engine, kwargs):
        c_o = random_symbols(np.random.default_rng(5), 3)
        _, _, rep = solve(engine, c_o, max_iters=0, **kwargs)
        assert rep.iterations == 0 and rep.residual.shape == (0, 3)
        if engine == "relax":
            assert rep.lagrangian.shape == (1, 3)
            for trace in (rep.descent_lhs, rep.descent_rhs, rep.identity_residual):
                assert trace.shape == (0, 3)

    def test_kernels_leave_their_inputs_unchanged(self):
        rng = np.random.default_rng(9)
        c = random_symbols(rng, 4)
        b = ifft_oversampled(c, 4)
        b[1, 2:] = 0.0  # two nonzero samples: the saturated branch
        b[2] = 0.0  # the degenerate branch
        ac = ifft_oversampled(random_symbols(rng, 4), 4)
        y1 = 0.1 * ac[::-1]
        inputs = [c, b, ac, y1]
        kept = [a.copy() for a in inputs]
        x_update(b, ALPHA)
        z_projection(b[[0, 1, 3]], ALPHA)
        for beta in (0.0, 0.15):
            c_update(c, PLAN, beta, 0.4)
        uw_update(b, ac, y1, 300.0, 100.0)
        ifft_oversampled(c, 4)
        fft_oversampled(b, 4)
        for a, k in zip(inputs, kept):
            assert a.tobytes() == k.tobytes()


class TestRawStart:
    """``raw=`` gives an engine the raw signal and its projection, read-only."""

    @staticmethod
    def assert_same_result(got, want):
        (x, c, rep), (x_want, c_want, rep_want) = got, want
        assert x.shape == x_want.shape and x.tobytes() == x_want.tobytes()
        assert c.shape == c_want.shape and c.tobytes() == c_want.tobytes()
        for field in dataclasses.fields(rep):
            got, want = getattr(rep, field.name), getattr(rep_want, field.name)
            if want is None:
                assert got is None, field.name
            else:
                got, want = np.asarray(got), np.asarray(want)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name

    @pytest.mark.parametrize(
        "engine,kwargs", [("direct", {}), ("relax", {}), ("relax", {"certify": True})]
    )
    @pytest.mark.parametrize("batch", ["single_row", "with_bypassed"])
    @pytest.mark.parametrize("max_iters", [0, 8])
    def test_a_raw_start_keeps_every_bit(self, engine, kwargs, batch, max_iters):
        rng = np.random.default_rng(6)
        if batch == "single_row":
            c_o = random_symbols(rng, 1)[0]
        else:
            c_o = np.vstack([random_symbols(rng, 3), tone_row(), random_symbols(rng, 2)])
        x_raw = ifft_oversampled(c_o, 4)
        x_proj = x_update(x_raw, ALPHA)
        kept = x_raw.copy()
        loose = {"max_iters": max_iters, "eps": LOOSE_EPS[engine], **kwargs}
        x, c, rep = solve(engine, c_o, raw=(x_raw, x_proj), **loose)
        assert x_raw.tobytes() == kept.tobytes()
        for a in (x_raw, x_proj):
            assert not np.shares_memory(x, a) and not np.shares_memory(c, a)
        if batch == "with_bypassed":
            assert rep.bypassed.tolist() == [False] * 3 + [True] + [False] * 2
        self.assert_same_result((x, c, rep), solve(engine, c_o, **loose))

    @pytest.mark.parametrize("max_iters", [0, 8])
    def test_solves_share_one_pair_unwritten(self, max_iters):
        rng = np.random.default_rng(7)
        c_o = np.vstack([random_symbols(rng, 3), two_tone_row(), random_symbols(rng, 2)])
        x_raw = ifft_oversampled(c_o, 4)
        x_proj = x_update(x_raw, ALPHA)
        # so that a bypassed row merged into x_proj would show
        assert x_proj[3].tobytes() != x_raw[3].tobytes()
        kept = x_raw.copy(), x_proj.copy()
        for engine, kwargs in [
            ("direct", {"beta": 0.0}),
            ("direct", {"beta": 0.15}),
            ("relax", {}),
            ("relax", {"certify": True}),
        ]:
            loose = {"max_iters": max_iters, "eps": LOOSE_EPS[engine], **kwargs}
            got = solve(engine, c_o, raw=(x_raw, x_proj), **loose)
            assert got[2].bypassed.tolist() == [False] * 3 + [True] + [False] * 2
            for a, k in zip((x_raw, x_proj), kept):
                assert a.tobytes() == k.tobytes(), (engine, kwargs)
            self.assert_same_result(got, solve(engine, c_o, **loose))

    @pytest.mark.parametrize("engine", ["direct", "relax"])
    def test_a_mismatched_shape_is_rejected(self, engine):
        c_o = random_symbols(np.random.default_rng(6), 3)
        x_raw = ifft_oversampled(c_o, 4)
        x_proj = x_update(x_raw, ALPHA)
        for raw in (
            (x_raw[:2], x_proj),
            (x_raw[0], x_proj),
            (x_raw, x_raw[:, :128]),
            (x_raw, x_proj[1]),
            (ifft_oversampled(c_o, 2), x_proj),
        ):
            with pytest.raises(ValueError, match="shape"):
                solve(engine, c_o, raw=raw)

    def test_a_feasible_start_takes_no_raw_start(self):
        c_o = random_symbols(np.random.default_rng(6), 3)
        x_raw = ifft_oversampled(c_o, 4)
        with pytest.raises(ValueError, match="feasible_start"):
            solve("relax", c_o, feasible_start=True, raw=(x_raw, x_update(x_raw, ALPHA)))


class TestInputChecks:
    @pytest.mark.parametrize("engine", ["direct", "relax"])
    @pytest.mark.parametrize("beta", [0.0, 0.15])
    @pytest.mark.parametrize("n_carriers", [32, 128])
    def test_a_carrier_count_off_the_plan_is_rejected(self, engine, beta, n_carriers):
        # carriers past the plan's are nonzero, carriers on its free set zero
        c_o = np.zeros((3, n_carriers), dtype=complex)
        n = min(n_carriers, PLAN.n_carriers)
        c_o[:, :n] = random_symbols(np.random.default_rng(8), 3)[:, :n]
        c_o[:, PLAN.n_carriers:] = 1.0 + 0.5j
        with pytest.raises(ValueError, match=f"{n_carriers} carriers, the plan 64"):
            solve(engine, c_o, beta=beta)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", np.nan),
            ("alpha", np.inf),
            ("beta", np.nan),
            ("beta", np.inf),
            ("rho", np.nan),
            ("rho", np.inf),
            ("rho_tilde", np.nan),
            ("rho_tilde", np.inf),
            ("eps", np.nan),
            ("max_iters", 2.5),
        ],
    )
    def test_params_reject_values_the_engines_cannot_run(self, field, value):
        kwargs = {"alpha": ALPHA, "beta": 0.15, "rho": 300.0, "rho_tilde": 100.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            AdmmParams(**kwargs)


def test_loop_holds_the_state_of_each_stopped_row():
    # a toy map that shrinks each row's x at its own rate, sweeps every row
    # and never asks which ones stopped; the bypassed tone row sweeps too
    rng = np.random.default_rng(5)
    c_o = np.vstack([random_symbols(rng, 3), tone_row()])
    rates = np.array([0.5, 0.1, 0.9, 0.5])

    def start(c_o, x_raw, x_proj):
        return {"c": c_o.copy(), "x": x_raw / row_norm(x_raw)[:, None], "k": np.zeros(4)}

    def step(c_o, s):
        x = s["x"] * rates[:, None]
        change = row_norm(x - s["x"]) ** 2
        s.update(x=x, k=s["k"] + 1.0)
        # positive from sweep 4 on, on every row
        return change, s["k"] - 3.0

    # unit rows: the squared step of sweep k is rate**(2k - 2) * (1 - rate)**2
    def report(c_o, state, ran, **fields):
        return SimpleNamespace(state=state, ran=ran, **fields)

    params = AdmmParams(alpha=ALPHA, beta=0.15, rho=100.0, max_iters=12, eps=1e-4)
    x_out, c_out, sweeps = run_sweeps(c_o, PLAN, params, 4, start, step, report)
    assert x_out is sweeps.state["x"] and c_out is sweeps.state["c"]
    stop = [7, 3, 12, 0]
    assert sweeps.ran.tolist() == stop
    assert sweeps.converged.tolist() == [True, True, False, True]
    assert sweeps.fcpo_active.tolist() == [True, False, True, False]
    assert sweeps.residual.shape == (12, 4)
    x_raw = ifft_oversampled(c_o, 4)
    for i in range(3):
        x = x_raw[i] / row_norm(x_raw[i])
        for _ in range(stop[i]):
            x = x * rates[i]
        assert np.array_equal(sweeps.state["x"][i], x)
        assert sweeps.state["k"][i] == stop[i]
        assert np.all(sweeps.residual[: stop[i], i] > 0)
        assert not sweeps.residual[stop[i] :, i].any()
    assert np.array_equal(sweeps.state["x"][3], x_raw[3])
    assert sweeps.state["k"][3] == 0 and not sweeps.residual[:, 3].any()


@pytest.mark.parametrize("engine,limit_mb", [("relax", 6.2), ("direct", 4.6)])
def test_row_block_working_set(engine, limit_mb):
    # One stock row block (128 symbols x 256 samples, 512 KB per complex
    # array) at beta 0.15 and 5 sweeps.  Above glibc's ~8 MB trim threshold
    # the heap top is handed back and faulted in again block after block.
    cfg = ExperimentConfig()
    plan = dsp.CarrierPlan.default(cfg.n_carriers, cfg.n_free)
    const = dsp.Constellation.from_name(cfg.constellation)
    c_o = dsp.map_bits(experiments.generate_bits(cfg, 128, const, plan), const, plan)
    params = experiments.admm_params(cfg, solver=engine, beta=0.15, iterations=5)
    solver = direct_solve if engine == "direct" else relax_solve
    tracemalloc.start()
    try:
        solver(c_o, plan, params, cfg.oversample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6, peak


POOL = np.vstack([random_symbols(np.random.default_rng(8), 8), tone_row()])


def solve_loose(engine, c_o, beta, certify):
    return solve(engine, c_o, beta=beta, max_iters=8, eps=LOOSE_EPS[engine], certify=certify)


@functools.lru_cache(maxsize=None)
def solved_alone(engine, certify, beta, row):
    return solve_loose(engine, POOL[row : row + 1], beta, certify)


@settings(deadline=None)
@given(
    rows=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=12),
    engine_certify=st.sampled_from([("direct", False), ("relax", False), ("relax", True)]),
    beta=st.sampled_from([0.0, 0.15, 0.3]),
)
def test_rows_solve_alone_as_in_any_batch(rows, engine_certify, beta):
    engine, certify = engine_certify
    x, c, rep = solve_loose(engine, POOL[rows], beta, certify)
    batch_residual = residual(rep, len(rows))
    batch_state = final_state(engine, rep)
    for i, row in enumerate(rows):
        x1, c1, rep1 = solved_alone(engine, certify, beta, row)
        assert np.array_equal(x[i], x1[0]) and np.array_equal(c[i], c1[0])
        assert rep.bypassed[i] == rep1.bypassed[0]
        assert rep.converged[i] == rep1.converged[0]
        # a row that stopped earlier than the batch records zero steps after
        alone = residual(rep1, 1)[:, 0]
        assert np.array_equal(batch_residual[: alone.size, i], alone)
        assert not batch_residual[alone.size :, i].any()
        for name, value in final_state(engine, rep1).items():
            assert np.array_equal(batch_state[name][i], value[0]), name
    assert np.all(papr(x) <= ALPHA * (1.0 + 1e-9))
    free = np.sum(np.abs(c[:, PLAN.free_idx]) ** 2, axis=-1)
    data = np.sum(np.abs(c[:, PLAN.data_idx]) ** 2, axis=-1)
    assert np.all(free <= beta * (1.0 + 1e-9) * data)


@functools.lru_cache(maxsize=None)
def solved_at(engine, certify, beta, rows):
    return solve_loose(engine, POOL[list(rows)], beta, certify)


def padded_trace(rep, i, n_sweeps):
    """Row ``i``'s squared steps, with zeros after the batch's last sweep."""
    trace = np.zeros(n_sweeps)
    trace[: rep.iterations] = residual(rep, len(rep.bypassed))[:, i]
    return trace


@settings(deadline=None)
@given(
    rows=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=12),
    engine_certify=st.sampled_from([("direct", False), ("relax", False), ("relax", True)]),
    betas=st.sampled_from([(0.0, 0.15), (0.0, 0.3), (0.15, 0.3)]),
)
def test_rows_the_bound_never_held_keep_their_bits_at_a_larger_beta(rows, engine_certify, betas):
    # run_table2 keeps these rows' c when it steps up the beta grid
    engine, certify = engine_certify
    rows = tuple(rows)
    x, c, rep = solved_at(engine, certify, betas[0], rows)
    x2, c2, rep2 = solved_at(engine, certify, betas[1], rows)
    if betas[0] == 0.0:
        # the free carriers are pinned, so every row that sweeps is flagged
        assert np.array_equal(rep.fcpo_active, ~rep.bypassed)
    n_sweeps = max(rep.iterations, rep2.iterations)
    state, state2 = final_state(engine, rep), final_state(engine, rep2)
    for i in np.flatnonzero(~rep.fcpo_active):
        assert np.array_equal(x[i], x2[i]) and np.array_equal(c[i], c2[i])
        assert np.array_equal(padded_trace(rep, i, n_sweeps), padded_trace(rep2, i, n_sweeps))
        assert rep.converged[i] == rep2.converged[i]
        assert not rep2.fcpo_active[i]
        for name, value in state.items():
            assert np.array_equal(value[i], state2[name][i]), name


# rows whose multiplier turns positive and back to zero within 20 direct
# sweeps at beta 0.1, so that only the flag of an earlier sweep marks them
FLIP_ROWS = random_symbols(np.random.default_rng(8), 400)[[79, 118, 355]]


@pytest.mark.parametrize(
    "engine,beta,rows,max_iters,eps",
    [
        *[(e, b, "pool", 8, LOOSE_EPS[e]) for e in ("direct", "relax") for b in (0.0, 0.15, 0.3)],
        ("direct", 0.1, "flip_rows", 20, 0.0),
    ],
)
def test_fcpo_active_flags_a_positive_multiplier_in_a_swept_step(
    engine, beta, rows, max_iters, eps, monkeypatch
):
    # oracle: every c_update multiplier, on the rows still running that sweep
    from papradmm import direct, relax

    module = direct if engine == "direct" else relax
    mus = []

    def recording(*args, **kwargs):
        c, mu = c_update(*args, **kwargs)
        mus.append(mu.copy())
        return c, mu

    monkeypatch.setattr(module, "c_update", recording)
    c_o = POOL if rows == "pool" else FLIP_ROWS
    _, _, rep = solve(engine, c_o, beta=beta, max_iters=max_iters, eps=eps)
    running = ~rep.bypassed
    want = np.zeros(len(c_o), dtype=bool)
    for mu, step in zip(mus, rep.residual):
        want |= running & (mu > 0)
        running &= step >= eps
    assert len(mus) == rep.iterations
    assert np.array_equal(rep.fcpo_active, want)
    if (engine, beta) == ("direct", 0.15):
        # a mix of flagged and unflagged rows, as on the stock config
        assert 0 < want.sum() < (~rep.bypassed).sum()
    if rows == "flip_rows":
        assert np.all(want) and np.all(mus[-1] == 0)


@functools.lru_cache(maxsize=None)
def solved_fixed(engine, beta, scale=1.0):
    return solve(engine, POOL * scale, beta=beta, eps=0.0)


@settings(deadline=None)
@given(
    k=st.integers(-8, 8),
    engine=st.sampled_from(["direct", "relax"]),
    beta=st.sampled_from([0.0, 0.15]),
)
def test_scaling_by_a_power_of_two_scales_the_iterates_exactly(k, engine, beta):
    # every operation of a sweep commutes with an exact power-of-two scale
    x, c, rep = solved_fixed(engine, beta)
    xs, cs, reps = solved_fixed(engine, beta, 2.0**k)
    assert np.array_equal(xs, x * 2.0**k) and np.array_equal(cs, c * 2.0**k)
    assert np.array_equal(reps.residual, rep.residual * 4.0**k)
    assert np.array_equal(reps.bypassed, rep.bypassed)
    assert np.array_equal(reps.fcpo_active, rep.fcpo_active)


@settings(deadline=None)
@given(
    phase=st.floats(-np.pi, np.pi),
    engine=st.sampled_from(["direct", "relax"]),
    beta=st.sampled_from([0.0, 0.15]),
)
def test_a_phase_rotation_rotates_the_iterates(phase, engine, beta):
    turn = np.exp(1j * phase)
    x, c, _ = solved_fixed(engine, beta)
    xr, cr, _ = solved_fixed(engine, beta, turn)
    for got, want in ((xr, x * turn), (cr, c * turn)):
        error = np.linalg.norm(got - want, axis=-1)
        assert np.all(error <= 1e-12 * np.linalg.norm(want, axis=-1))
