"""Reproducible Monte Carlo drivers behind the CLI subcommands.

Every driver is a pure function of an :class:`ExperimentConfig`: the RNG
stream of symbol ``i`` is derived from ``(seed, i, stage)``, so results are
byte-identical regardless of chunking or worker count.  Drivers return CSV
rows (list of tuples, first row the header); :func:`write_csv` renders them
with fixed formatting.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dsp, metrics
from .channel import (
    NATIVE_BANDWIDTH_HZ,
    MultipathProfile,
    SspaParams,
    channel_frequency_response,
    equalize_zero_forcing,
    multipath_apply,
    noise_variance_per_sample,
    saturation_amplitude,
    sspa,
)
from .config import ConfigError, ExperimentConfig
from .direct import direct_solve
from .params import AdmmParams, db_to_linear
from .rcf import RcfParams, rcf
from .relax import relax_solve

_BITS_STAGE = 0
_NOISE_STAGE = 1

# FCPO bounds of the table2 rows
BETA_GRID = (0.0, 0.15, 0.3)
# PAPR thresholds of the ccdf curves: 2 to 12 dB in 0.05 dB steps
CCDF_THRESHOLDS_DB = np.arange(2.0, 12.0 + 0.05 / 2, 0.05)
PSD_SEG_LEN = 1024
# bench: carrier counts, symbols per timed batch, timed repeats (best kept)
BENCH_SIZES = (64, 256, 1024)
BENCH_BATCH = 64
BENCH_REPEATS = 5
# Time samples per solve_batch block (128 symbols at 64 carriers and L=4, or
# 512 KB per complex array).  A sweep makes about thirty temporaries the size
# of its input.  Batch-sized ones (4 MB each at 1000 symbols) go back to the
# OS when freed and are faulted in again on the next sweep; block-sized ones
# mostly stay in the allocator's free lists, and the working set is per
# block, not per batch.
BLOCK_SAMPLES = 2**15


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (symbol, stage) pair."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def make_plan(cfg: ExperimentConfig) -> dsp.CarrierPlan:
    return dsp.CarrierPlan.default(cfg.n_carriers, cfg.n_free)


def _symbols(cfg: ExperimentConfig, n_symbols: int):
    """(plan, constellation, bits, c_o) of symbols ``0..n_symbols-1``."""
    plan = make_plan(cfg)
    const = dsp.Constellation.from_name(cfg.constellation)
    bits = generate_bits(cfg, n_symbols, const, plan)
    return plan, const, bits, dsp.map_bits(bits, const, plan)


def generate_bits(cfg: ExperimentConfig, n_symbols: int, const, plan) -> np.ndarray:
    per_symbol = plan.n_data * const.bits_per_symbol
    out = np.empty((n_symbols, per_symbol), dtype=np.int8)
    for i in range(n_symbols):
        out[i] = rng_for(cfg.seed, i, _BITS_STAGE).integers(0, 2, size=per_symbol)
    return out


def admm_params(
    cfg: ExperimentConfig, solver: str, beta=None, iterations=None, eps=AdmmParams.eps
) -> AdmmParams:
    rho, rho_tilde = cfg.resolved_penalties(solver)
    return AdmmParams(
        alpha=db_to_linear(cfg.alpha_db),
        beta=cfg.beta if beta is None else beta,
        rho=rho,
        rho_tilde=rho_tilde,
        max_iters=cfg.iterations if iterations is None else iterations,
        eps=eps,
    )


def _solve_chunk(cfg, solver, c_o, plan, beta=None):
    """(x, c) for one chunk; c is the solver's frequency-domain output."""
    if solver == "none":
        return dsp.ifft_oversampled(c_o, cfg.oversample), c_o
    if solver == "rcf":
        x = rcf(c_o, plan, RcfParams(cfg.alpha_db), cfg.oversample)
        return x, dsp.fft_oversampled(x, cfg.oversample)
    params = admm_params(cfg, solver=solver, beta=beta)
    if solver == "direct":
        x, c, _ = direct_solve(c_o, plan, params, cfg.oversample)
    else:
        x, c, _ = relax_solve(c_o, plan, params, cfg.oversample)
    return x, c


def solve_batch(cfg: ExperimentConfig, solver: str, c_o, plan, beta=None):
    """Dispatch one symbol batch to a solver in fixed row blocks.

    The batch is cut into equal blocks of at most ``BLOCK_SAMPLES`` time
    samples each, their count a multiple of the thread count, and every block
    is solved on its own and written in place into preallocated ``x`` and
    ``c``.  Threads: ``cfg.workers``, but at most one per core and one per
    row; with one thread the blocks run inline.  Each symbol's solve does
    not depend on the other symbols in its block, so the result does not
    depend on ``cfg.workers`` or on where the block boundaries fall.
    """
    c_o = np.atleast_2d(c_o)
    n_rows, n_carriers = c_o.shape
    threads = min(cfg.workers, os.cpu_count() or 1, n_rows)
    block_rows = max(1, BLOCK_SAMPLES // (cfg.oversample * n_carriers))
    n_blocks = -(-n_rows // block_rows)
    n_blocks = -(-n_blocks // threads) * threads
    bounds = [i * n_rows // n_blocks for i in range(n_blocks + 1)]
    x = np.empty((n_rows, cfg.oversample * n_carriers), dtype=np.complex128)
    c = np.empty((n_rows, n_carriers), dtype=np.complex128)

    def solve_block(lo, hi):
        x[lo:hi], c[lo:hi] = _solve_chunk(cfg, solver, c_o[lo:hi], plan, beta)

    blocks = zip(bounds[:-1], bounds[1:])
    if threads == 1:
        for lo, hi in blocks:
            solve_block(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(solve_block, lo, hi) for lo, hi in blocks]:
                future.result()
    return x, c


def write_csv(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if cell != cell or cell in (float("inf"), float("-inf")):
            return str(cell)
        return f"{cell:.10g}"
    return str(cell)


def run_table2(cfg: ExperimentConfig):
    """EVM of both engines over the beta grid (dB, 4 decimals)."""
    plan, _, _, c_o = _symbols(cfg, cfg.n_symbols)
    rows = [("solver", "beta", "evm_db")]
    for solver in ("direct", "relax"):
        for beta in BETA_GRID:
            _, c = solve_batch(cfg, solver, c_o, plan, beta=beta)
            value = metrics.evm_db(c, c_o, plan)
            rows.append((solver, float(beta), round(value, 4)))
    return rows


def run_ccdf(cfg: ExperimentConfig):
    """PAPR exceedance curves for the original signal and each solver."""
    plan, _, _, c_o = _symbols(cfg, cfg.n_symbols)
    rows = [("solver", "threshold_db", "ccdf")]
    for solver in ("none", "direct", "relax", "rcf"):
        x, _ = solve_batch(cfg, solver, c_o, plan)
        curve = metrics.ccdf(dsp.papr_db(x), CCDF_THRESHOLDS_DB)
        label = "original" if solver == "none" else solver
        for t, p in zip(CCDF_THRESHOLDS_DB, curve):
            rows.append((label, round(float(t), 4), float(p)))
    return rows


def run_convergence(cfg: ExperimentConfig):
    """Median residual per iteration for both engines (fixed symbol set)."""
    plan, _, _, c_o = _symbols(cfg, min(cfg.n_symbols, 500))
    iters = max(cfg.iterations, 15)
    rows = [("solver", "iteration", "median_residual")]
    params = admm_params(cfg, solver="direct", iterations=iters, eps=0.0)
    _, _, rep = direct_solve(c_o, plan, params, cfg.oversample)
    for k in range(rep.change_residual.shape[0]):
        rows.append(("direct", k + 1, float(np.median(rep.change_residual[k]))))
    rparams = admm_params(cfg, solver="relax", iterations=iters, eps=0.0)
    _, _, rep = relax_solve(c_o, plan, rparams, cfg.oversample)
    for k in range(rep.residual.shape[0]):
        rows.append(("relax", k + 1, float(np.median(rep.residual[k]))))
    return rows


def run_consensus_gap(cfg: ExperimentConfig, rho_tilde_grid=(10.0, 30.0, 100.0, 300.0)):
    """Median converged coupling gap versus the tie penalty (rho = 3*rho_tilde).

    Runs in feasible-start mode so the analytical gap bound applies; emits
    the per-grid-point bound satisfaction fraction alongside the median.
    """
    plan, _, _, c_o = _symbols(cfg, min(cfg.n_symbols, 200))
    rows = [("rho_tilde", "median_gap", "bound_ok_fraction", "feasible_fraction")]
    for rho_tilde in rho_tilde_grid:
        params = AdmmParams(
            alpha=db_to_linear(cfg.alpha_db), beta=cfg.beta,
            rho=3.0 * rho_tilde, rho_tilde=rho_tilde,
            max_iters=max(cfg.iterations, 400), eps=1e-14,
        )
        _, _, rep = relax_solve(c_o, plan, params, cfg.oversample, feasible_start=True)
        feas = rep.feasible_start & ~rep.bypassed
        gap = rep.consensus_gap[feas]
        bound = (rep.sd_dist_initial[feas] - rep.sd_dist_final[feas]) / rho_tilde
        ok = gap <= bound + 1e-12
        rows.append(
            (
                float(rho_tilde),
                float(np.median(gap)),
                float(np.mean(ok)) if ok.size else float("nan"),
                float(np.mean(feas)),
            )
        )
    return rows


def run_ber(cfg: ExperimentConfig, solvers=("none", "direct", "relax", "rcf")):
    """BER sweep over Eb/N0 for each solver, with the PA and channel applied.

    Eb is referenced to the averaged energy of the transmitted frequency
    symbols; noise is added per sample so the per-data-carrier SNR meets the
    requested Eb/N0.  With ``channel=multipath`` each symbol goes through an
    ideal cyclic prefix, so the channel is a circular convolution, and the
    known tap response is equalized away (perfect CSI).

    Each solver is solved, amplified and sent through the channel once.  The
    unit noise of each Eb/N0 point is drawn once, one stream per symbol, and
    shared by every solver, each scaling it to its own noise variance.  Rows
    come out solver by solver, each over the Eb/N0 grid.
    """
    plan, const, bits, c_o = _symbols(cfg, cfg.n_symbols)
    n_samples = cfg.n_carriers * cfg.oversample
    profile = MultipathProfile()
    h = profile.impulse_response(cfg.oversample * NATIVE_BANDWIDTH_HZ)
    resp = channel_frequency_response(h, n_samples, cfg.n_carriers)
    received = []  # (noiseless received batch, Eb) per solver
    for solver in solvers:
        x_clean, _ = solve_batch(cfg, solver, c_o, plan)
        c_tx = dsp.fft_oversampled(x_clean, cfg.oversample)
        es_bar = float(np.mean(np.linalg.norm(c_tx, axis=-1) ** 2))
        eb = es_bar / (plan.n_data * const.bits_per_symbol)
        if cfg.pa_enabled:
            a_sat = saturation_amplitude(x_clean, SspaParams().input_backoff_db)
            x_tx = sspa(x_clean, a_sat=a_sat)
        else:
            x_tx = x_clean
        clean = multipath_apply(x_tx, h) if cfg.channel == "multipath" else x_tx
        received.append((clean, eb))
    results = [[] for _ in solvers]
    for ebn0 in cfg.ebn0_db:
        unit = _unit_noise(cfg, (cfg.n_symbols, n_samples), int(round(ebn0 * 1000)))
        for out, (clean, eb) in zip(results, received):
            var = noise_variance_per_sample(ebn0, eb, n_samples)
            c_hat = dsp.fft_oversampled(clean + unit * np.sqrt(var / 2.0), cfg.oversample)
            if cfg.channel == "multipath":
                c_hat = equalize_zero_forcing(c_hat, resp)
            acc = metrics.MetricAccumulator()
            acc.add_bits(bits, dsp.demap_bits(c_hat, const, plan))
            out.append((float(ebn0), acc.ber_value, acc.bits_total))
    rows = [("solver", "channel", "ebn0_db", "ber", "bits")]
    for solver, out in zip(solvers, results):
        rows.extend((solver, cfg.channel, *point) for point in out)
    return rows


def _unit_noise(cfg, shape, ebn0_key) -> np.ndarray:
    """Complex noise with standard normal rails, one stream per symbol index.

    Row ``i`` takes ``2 * shape[1]`` standard normals from its stream: the
    first half is the real part, the second the imaginary part.  Scaled by
    ``sqrt(var / 2)`` it is noise of per-sample variance ``var``.
    """
    out = np.empty(shape, dtype=np.complex128)
    for i in range(shape[0]):
        block = rng_for(cfg.seed, i, _NOISE_STAGE, ebn0_key).standard_normal((2, shape[1]))
        out[i] = block[0] + 1j * block[1]
    return out


def run_psd(cfg: ExperimentConfig, solvers=("none", "direct", "relax", "rcf")):
    """Normalized emission spectra after the PA, one curve per solver."""
    n_symbols = min(cfg.n_symbols, 1000)
    n_samples = n_symbols * cfg.oversample * cfg.n_carriers
    if n_samples < PSD_SEG_LEN:
        raise ConfigError(
            f"psd needs at least psd_seg_len = {PSD_SEG_LEN} samples, but "
            f"{n_symbols} symbols give {n_samples}"
        )
    plan, _, _, c_o = _symbols(cfg, n_symbols)
    rows = [("solver", "freq_norm", "psd_db")]
    for solver in solvers:
        x, _ = solve_batch(cfg, solver, c_o, plan)
        if cfg.pa_enabled:
            x = sspa(x)
        freqs, pxx = metrics.psd(x.ravel(), seg_len=PSD_SEG_LEN, normalize_peak=True)
        label = "original" if solver == "none" else solver
        # frequency axis in carrier spacings: sample rate is oversample*N spacings
        scale = cfg.oversample * cfg.n_carriers
        for f, p in zip(freqs, pxx):
            rows.append((label, round(float(f * scale), 4), round(float(10 * np.log10(p + 1e-300)), 4)))
    return rows


def run_bench(cfg: ExperimentConfig):
    """Per-iteration wall time of the direct engine versus transform size."""
    rows = [("n_carriers", "ln", "seconds_per_iteration", "fft_pair_seconds")]
    rng = np.random.default_rng(cfg.seed)
    for n in BENCH_SIZES:
        n_data = n - max(2, n // 8)
        plan = dsp.CarrierPlan.default(n, n - n_data)
        const = dsp.Constellation.qpsk()
        bits = rng.integers(0, 2, size=(BENCH_BATCH, plan.n_data * 2))
        c_o = dsp.map_bits(bits, const, plan)
        params_warm = admm_params(cfg, solver="direct", iterations=1, eps=0.0)
        direct_solve(c_o, plan, params_warm, cfg.oversample)
        iters = 8
        params = admm_params(cfg, solver="direct", iterations=iters, eps=0.0)
        params0 = admm_params(cfg, solver="direct", iterations=0, eps=0.0)
        best = np.inf
        for _ in range(BENCH_REPEATS):
            t0 = time.perf_counter()
            direct_solve(c_o, plan, params, cfg.oversample)
            t1 = time.perf_counter()
            direct_solve(c_o, plan, params0, cfg.oversample)
            t2 = time.perf_counter()
            per_iter = ((t1 - t0) - (t2 - t1)) / iters
            best = min(best, per_iter)
        x = dsp.ifft_oversampled(c_o, cfg.oversample)
        t0 = time.perf_counter()
        for _ in range(10):
            dsp.fft_oversampled(dsp.ifft_oversampled(c_o, cfg.oversample), cfg.oversample)
        fft_pair = (time.perf_counter() - t0) / 10.0
        rows.append((n, n * cfg.oversample, float(best), float(fft_pair)))
    return rows


def loglog_fit(sizes, times):
    """R^2 and slope of log(time) against log(n*log2(n))."""
    sizes = np.asarray(sizes, dtype=float)
    times = np.asarray(times, dtype=float)
    xs = np.log(sizes * np.log2(sizes))
    ys = np.log(times)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return r_sq, float(slope)
