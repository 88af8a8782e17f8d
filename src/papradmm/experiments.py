"""Reproducible Monte Carlo drivers behind the CLI subcommands.

Every driver is a pure function of an :class:`ExperimentConfig`: the RNG
stream of symbol ``i`` is derived from ``(seed, i, stage[, key])``, so
results are byte-identical regardless of chunking or worker count.  Drivers
return CSV rows (list of tuples, first row the header); :func:`write_csv`
renders them with fixed formatting.
"""

import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import direct, dsp, metrics
from .channel import (
    NATIVE_BANDWIDTH_HZ,
    channel_frequency_response,
    equalize_zero_forcing,
    # run_ber never sends the signal through the channel (see its docstring),
    # but perfbench/tracing.py::TARGETS wraps the name in this module and
    # tests/test_tracer_targets.py checks that binding
    multipath_apply,
    multipath_impulse_response,
    noise_variance_per_sample,
    saturation_amplitude,
    sspa,
)
from .config import ConfigError, ExperimentConfig
from .direct import direct_solve
from .params import AdmmParams, db_to_linear
from .rcf import rcf
from .relax import relax_solve

_BITS_STAGE = 0
_NOISE_STAGE = 1
# Noise of the Eb/N0 points whose key round(1000 * ebn0) is negative, keyed
# by its magnitude: SeedSequence takes no negative key, and a stage of their
# own keeps their streams apart from those of the other points.
_NEGATIVE_NOISE_STAGE = 2

# Solvers of the ccdf, ber and psd drivers, in row order; "none" transmits
# the raw signal
SOLVERS = ("none", "direct", "relax", "rcf")
# FCPO bounds of the table2 rows, ascending: run_table2 re-solves the last
# one only on the rows whose bound was active at the one before
BETA_GRID = (0.0, 0.15, 0.3)
# Tie penalties of the consensus-gap rows (rho = 3*rho_tilde)
RHO_TILDE_GRID = (10.0, 30.0, 100.0, 300.0)
# PAPR thresholds of the ccdf curves: 2 to 12 dB in 0.05 dB steps
CCDF_THRESHOLDS_DB = np.arange(2.0, 12.0 + 0.05 / 2, 0.05)
PSD_SEG_LEN = 1024
# bench: carrier counts, symbols per timed batch, timed repeats (best kept)
BENCH_SIZES = (64, 256, 1024)
BENCH_BATCH = 64
BENCH_REPEATS = 5
# Time samples per solve_batch block (128 symbols at 64 carriers and L=4, or
# 512 KB per complex array).  Both engines update their state in place, so
# one block's working set peaks at about 5.8 MB for the relaxed engine and
# 4.3 MB for the direct one (tracemalloc, 5 sweeps; tests/test_sweep.py pins
# 6.2 and 4.6 MB).  That is below glibc's heap-trim threshold, which is
# twice the largest mmapped chunk freed so far: the batch array that every
# driver allocates and frees (solve_batch's x, or run_table2's c of the
# full-beta solves, 4 MB each at 1000 symbols) lifts it to ~8 MB, so
# block-sized arrays are reused from the allocator's free lists rather than
# handed back to the OS and faulted in again, and the working set is per
# block, not per batch.
BLOCK_SAMPLES = 2**15


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) on 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list:
    """``n`` as little-endian 32-bit words, as ``SeedSequence`` splits it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def seed_table(seed: int, lo: int, hi: int, *key: int) -> np.ndarray:
    """PCG64 seeds of the streams ``(seed, i, *key)`` for rows ``lo..hi-1``.

    Row ``i - lo`` of the ``(hi - lo, 4)`` uint64 result equals
    ``SeedSequence(entropy=seed, spawn_key=(i, *key)).generate_state(4,
    np.uint64)``.  The hash constant of ``SeedSequence`` steps the same way
    for every row, so each step of its hash is one uint32 vector operation
    over all rows (uint32 arithmetic wraps like the C code's).
    """
    if not 0 <= lo <= hi <= 2**32:
        raise ValueError(f"rows {lo}..{hi} outside 0..2**32")
    n_rows = hi - lo
    run = _uint32_words(seed)
    # a spawn key pads the run entropy to the pool size
    run += [0] * (_POOL_SIZE - len(run))
    words = [np.full(n_rows, w, dtype=np.uint32) for w in run]
    words.append(np.arange(lo, hi, dtype=np.uint64).astype(np.uint32))
    words += [np.full(n_rows, w, dtype=np.uint32) for k in key for w in _uint32_words(k)]

    def hasher(hash_const, mult):
        # seed_seq_fe's hashmix; the constant steps once per call
        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = (hash_const * mult) & _MASK32
            value *= np.uint32(hash_const)
            return value ^ (value >> 16)

        return hashmix

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> 16)

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state: 8 uint32 words, paired little-endian into 4 uint64
    out_hash = hasher(_INIT_B, _MULT_B)
    state = np.empty((n_rows, 8), dtype=np.uint64)
    for i in range(8):
        state[:, i] = out_hash(pool[i % _POOL_SIZE])
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


# PCG64 steps state * _PCG_MULT + inc mod 2**128 (numpy's pcg64.h); the
# lanes of _pcg64_words jump _PCG_LANES steps: state * _PCG_JUMP + inc * _PCG_JUMP_INC
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_LANES = 8
_PCG_JUMP = pow(_PCG_MULT, _PCG_LANES, 2**128)
_PCG_JUMP_INC = sum(pow(_PCG_MULT, j, 2**128) for j in range(_PCG_LANES)) % 2**128


def _mul_add(hi, lo, mult: int, c_hi, c_lo) -> None:
    """``(hi, lo) = (hi, lo) * mult + (c_hi, c_lo)`` mod 2**128, in place, on uint64 halves.

    The high word of ``lo * (mult % 2**64)`` is formed from 32-bit halves.
    """
    m_lo = np.uint64(mult & 2**64 - 1)
    v0, v1 = np.uint64(mult & _MASK32), np.uint64(mult >> 32 & _MASK32)
    u0, u1 = lo & _MASK32, lo >> 32
    mid = u1 * v0 + (u0 * v0 >> 32)  # < 2**64
    hi *= m_lo
    hi += lo * np.uint64(mult >> 64) + u1 * v1 + (mid >> 32) + ((mid & _MASK32) + u0 * v1 >> 32)
    lo *= m_lo
    lo += c_lo
    hi += c_hi
    hi += lo < c_lo


def _pcg64_words(seeds: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` raw words of the PCG64 stream of each row of ``seeds``.

    Row ``r`` is ``PCG64(s).random_raw(n_words)`` for the seed sequence
    ``s`` that hands over ``seeds[r]`` (a :func:`seed_table` row).  As
    numpy seeds it, the state starts at 0 with increment ``inc =
    2 * seeds[r, 2:] + 1``, steps once, adds ``seeds[r, :2]`` and steps
    again; each word then steps it and reads ``rotr64(hi ^ lo, hi >> 58)``.
    """
    n_rows, n_steps = len(seeds), -(-n_words // _PCG_LANES)
    inc_hi, inc_lo = seeds[:, 2] << 1 | seeds[:, 3] >> 63, seeds[:, 3] << 1 | 1
    hi, lo = seeds[:, 0].copy(), seeds[:, 1].copy()
    _mul_add(hi, lo, 1, inc_hi, inc_lo)  # the zero state stepped once is inc
    # column 0 is the seeded state, column j + 1 the state word j reads
    lanes = np.empty((2, 1 + _PCG_LANES, n_rows), dtype=np.uint64)
    for j in range(1 + _PCG_LANES):
        _mul_add(hi, lo, _PCG_MULT, inc_hi, inc_lo)
        lanes[:, j] = hi, lo
    hi, lo = lanes[:, 1:]
    _mul_add(inc_hi, inc_lo, _PCG_JUMP_INC, 0, 0)  # a jump's increment
    out = np.empty((n_steps, _PCG_LANES, n_rows), dtype=np.uint64)
    for step, word in enumerate(out):
        if step:
            _mul_add(hi, lo, _PCG_JUMP, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        np.bitwise_or(x >> rot, x << (-rot & 63), out=word)
    return out.reshape(n_steps * _PCG_LANES, n_rows)[:n_words].T.copy()


@functools.cache
def _seed_words() -> type:
    """The seed sequence that hands one :func:`seed_table` row to ``PCG64``.

    Built once, on first use, since its base class imports ``numpy.random``.
    """

    class _SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds only the 4 uint64 words PCG64 asks for")
            return self.words

    return _SeedWords


def _generator(words: np.ndarray) -> "np.random.Generator":
    """The generator seeded by one row of :func:`seed_table` (imports ``numpy.random``)."""
    return np.random.Generator(np.random.PCG64(_seed_words()(words)))


def rng_for(seed: int, *key: int) -> "np.random.Generator":
    """Independent generator for one (symbol, stage[, key]) stream.

    ``key[0]`` is the symbol.  The stream is that of
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))``.  No driver
    calls it: of their streams only ``run_ber``'s noise needs a ``Generator``.
    """
    return _generator(seed_table(seed, key[0], key[0] + 1, *key[1:])[0])


def _symbols(cfg: ExperimentConfig, n_symbols: int):
    """(plan, constellation, bits, c_o) of symbols ``0..n_symbols-1``."""
    plan = dsp.CarrierPlan.default(cfg.n_carriers, cfg.n_free)
    const = dsp.Constellation.from_name(cfg.constellation)
    bits = generate_bits(cfg, n_symbols, const, plan)
    return plan, const, bits, dsp.map_bits(bits, const, plan)


def generate_bits(cfg: ExperimentConfig, n_symbols: int, const, plan) -> np.ndarray:
    """Data bits of symbols ``0..n_symbols-1``, int8, one stream per symbol.

    Row ``i`` is ``rng_for(cfg.seed, i, _BITS_STAGE).integers(0, 2,
    size=n)``, ``n = plan.n_data * const.bits_per_symbol``, drawn without a
    ``Generator``.  That call takes Lemire's bounded draw on PCG64's 32-bit
    halves, low half first; for a range of 2 it never rejects and keeps the
    top bit of each half.  So row ``i`` is bits 31 and 63 of each of the
    stream's first ``ceil(n / 2)`` raw words, in that order (an odd ``n``
    drops the last bit 63), and :func:`_pcg64_words` computes those words
    for all rows at once, without importing ``numpy.random``.
    """
    per_symbol = plan.n_data * const.bits_per_symbol
    n_words = -(-per_symbol // 2)
    raw = _pcg64_words(seed_table(cfg.seed, 0, n_symbols, _BITS_STAGE), n_words)
    bits = np.empty((n_symbols, n_words, 2), dtype=np.int8)
    bits[..., 0] = raw >> 31 & 1
    bits[..., 1] = raw >> 63
    return bits.reshape(n_symbols, 2 * n_words)[:, :per_symbol]


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


def _solve_chunk(cfg, solver, c_o, plan):
    """The time-domain signal ``x`` that ``solver`` transmits for one chunk."""
    if solver == "none":
        return dsp.ifft_oversampled(c_o, cfg.oversample)
    if solver == "rcf":
        return rcf(c_o, plan, cfg.alpha_db, cfg.oversample)
    solve = direct_solve if solver == "direct" else relax_solve
    return solve(c_o, plan, admm_params(cfg, solver=solver), cfg.oversample)[0]


def _c_and_flags(solved):
    """``(c, fcpo_active)`` of an engine's ``(x, c, report)``; the rest is freed."""
    _, c, report = solved
    return c, report.fcpo_active


def _run_blocks(workers: int, n_rows: int, row_samples: int, task) -> list:
    """``task(lo, hi)`` on each row block of a batch, results in block order.

    The ``n_rows`` rows of ``row_samples`` time samples each are cut into
    equal blocks (to within one row) of at most ``BLOCK_SAMPLES`` samples,
    their count a multiple of the thread count.  Threads: ``workers``, but
    at most one per CPU this process may run on and one per row; with one
    thread the blocks run inline.  No rows make no blocks and run no task.
    """
    if n_rows == 0:
        return []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(workers, cpus or 1, n_rows)
    block_rows = max(1, BLOCK_SAMPLES // row_samples)
    n_blocks = -(-n_rows // block_rows)
    n_blocks = -(-n_blocks // threads) * threads
    bounds = [i * n_rows // n_blocks for i in range(n_blocks + 1)]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if threads == 1:
        return [task(lo, hi) for lo, hi in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task, lo, hi) for lo, hi in blocks]
        return [future.result() for future in futures]


def solve_batch(cfg: ExperimentConfig, solver: str, c_o, plan):
    """Dispatch one symbol batch to a solver in fixed row blocks.

    Returns the time-domain batch ``x`` that the solver transmits, at
    ``cfg.beta``.  :func:`_run_blocks` cuts the batch on ``cfg.workers``
    threads, and every block is solved on its own and written in place into
    a preallocated ``x``.  Each symbol's solve does not depend on the other
    symbols in its block, so the result does not depend on ``cfg.workers``,
    on where the block boundaries fall or on which other rows share the
    batch.  A batch of no rows returns an array of no rows.  ``run_ber``
    cuts its own row-block passes the same way, through :func:`_run_blocks`:
    after each solve, a transmit pass over the returned ``x`` on
    ``cfg.workers`` threads; after the last solve, the link stage over the
    stored carrier spectra, on one.
    """
    c_o = np.atleast_2d(c_o)
    n_rows, n_carriers = c_o.shape
    x = np.empty((n_rows, cfg.oversample * n_carriers), dtype=np.complex128)

    def solve_block(lo, hi):
        x[lo:hi] = _solve_chunk(cfg, solver, c_o[lo:hi], plan)

    _run_blocks(cfg.workers, n_rows, x.shape[1], solve_block)
    return x


def write_csv(path, rows):
    path = Path(path)
    # a float as .10g, which writes nan, inf and -inf as str() does
    lines = [
        ",".join(f"{cell:.10g}" if isinstance(cell, float) else str(cell) for cell in row)
        for row in rows
    ]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    return path


def run_table2(cfg: ExperimentConfig):
    """EVM of both engines over the beta grid (dB, 4 decimals).

    One :func:`_run_blocks` pass solves the whole grid.  Each row block
    builds its raw signal and that signal's PAPR projection once, and every
    (engine, beta) solve of the block starts from the pair (the engines'
    ``raw=``), which depends on neither.  Each engine solves the
    block in full at every beta but the last, in ``BETA_GRID`` order, and at
    the last beta re-solves only the rows whose FCPO bound was active at the
    one before (``fcpo_active``); every other row keeps its ``c``, with the
    bits a full solve would give it.  The reuse is exact:

    * ``c_update``'s multiplier is ``max(0, ((1+r)*||v_F|| -
      sqrt(beta)*r*||v_D||) / denom)``.  For the same ``v``, a larger beta
      gives a numerator no larger, since ``sqrt`` and multiplication by a
      positive number are monotone under rounding, so ``mu = 0`` at beta
      gives ``mu = 0`` at any larger beta.
    * With ``mu = 0`` the divisors are ``1 + r`` and ``r``, free of beta, so
      ``c`` keeps its bits.  The projection, the dual step, the bypass test
      and the stop rule read no beta, so by induction over the sweeps the
      row's whole trajectory, its stop and its flag are the same.
    * At beta = 0 the free carriers are pinned and ``mu = inf``: every row
      that sweeps is flagged.
    * A row's solve does not depend on its batch (see :func:`solve_batch`),
      so a re-solved subset, or a block, gets the bits of the full batch.

    Every solve but the last full one starts from a copy of the projection,
    which the engine writes into; the last takes it over.  Of each solve
    only ``c`` and the flags are kept: the engine's ``x`` and report are
    freed as it returns.  The full solves' ``c`` go into one batch array,
    and each engine's last-beta rows are written over its ``c`` at the beta
    before, once that beta's EVM is taken.
    """
    plan, _, _, c_o = _symbols(cfg, cfg.n_symbols)
    n_rows, n_carriers = c_o.shape
    engines = ("direct", "relax")
    *full, last = BETA_GRID
    params = {
        (solver, beta): admm_params(cfg, solver=solver, beta=beta)
        for solver in engines for beta in BETA_GRID
    }
    c = np.empty((len(engines), len(full), n_rows, n_carriers), dtype=np.complex128)

    def solve_block(lo, hi):
        c_blk = c_o[lo:hi]
        x_raw = dsp.ifft_oversampled(c_blk, cfg.oversample)
        # the binding the direct engine's start calls, so that a tracer
        # wrapping it counts this projection's rows too
        x_proj = direct.x_update(x_raw, db_to_linear(cfg.alpha_db))
        resolved = {}
        for e, solver in enumerate(engines):
            engine = direct_solve if solver == "direct" else relax_solve
            for b, beta in enumerate(full):
                # An engine writes into its start, so every full solve but the
                # last gets a copy, made in the call so that the engine holds
                # it alone and its sweeps free it.
                takes = e == len(engines) - 1 and b == len(full) - 1
                c[e, b, lo:hi], active = _c_and_flags(engine(
                    c_blk, plan, params[solver, beta], cfg.oversample,
                    raw=(x_raw, x_proj if takes else x_proj.copy()),
                ))
                if takes:
                    x_proj = None
            redo = np.flatnonzero(active)
            if redo.size:
                c_redo, _ = _c_and_flags(engine(
                    c_blk[redo], plan, params[solver, last], cfg.oversample,
                    raw=(x_raw[redo], None if x_proj is None else x_proj[redo]),
                ))
                resolved[e] = lo + redo, c_redo
        return resolved

    resolved = _run_blocks(cfg.workers, n_rows, cfg.oversample * n_carriers, solve_block)
    rows = [("solver", "beta", "evm_db")]
    for e, solver in enumerate(engines):
        for b, beta in enumerate(full):
            rows.append((solver, float(beta), round(metrics.evm_db(c[e, b], c_o, plan), 4)))
        for redo, c_redo in (block[e] for block in resolved if e in block):
            c[e, -1, redo] = c_redo
        rows.append((solver, float(last), round(metrics.evm_db(c[e, -1], c_o, plan), 4)))
    return rows


def run_ccdf(cfg: ExperimentConfig):
    """PAPR exceedance curves for the original signal and each solver.

    Each solver's ``x`` is freed once its PAPRs are taken, before the next
    solve starts.
    """
    plan, _, _, c_o = _symbols(cfg, cfg.n_symbols)
    rows = [("solver", "threshold_db", "ccdf")]
    for solver in SOLVERS:
        papr = dsp.papr_db(solve_batch(cfg, solver, c_o, plan))
        curve = metrics.ccdf(papr, CCDF_THRESHOLDS_DB)
        label = "original" if solver == "none" else solver
        for t, p in zip(CCDF_THRESHOLDS_DB, curve):
            rows.append((label, round(float(t), 4), float(p)))
    return rows


def run_convergence(cfg: ExperimentConfig):
    """Median residual per iteration for both engines (fixed symbol set)."""
    plan, _, _, c_o = _symbols(cfg, min(cfg.n_symbols, 500))
    iters = max(cfg.iterations, 15)
    rows = [("solver", "iteration", "median_residual")]
    for solver, solve in (("direct", direct_solve), ("relax", relax_solve)):
        params = admm_params(cfg, solver=solver, iterations=iters, eps=0.0)
        _, _, rep = solve(c_o, plan, params, cfg.oversample)
        for k, residual in enumerate(rep.residual, start=1):
            rows.append((solver, k, float(np.median(residual))))
    return rows


def run_consensus_gap(cfg: ExperimentConfig):
    """Median coupling gap after ``max(iterations, 400)`` sweeps versus the tie penalty.

    Runs at ``rho = 3*rho_tilde`` in feasible-start mode so the analytical
    gap bound applies; emits the per-grid-point bound satisfaction fraction
    alongside the median.
    """
    plan, _, _, c_o = _symbols(cfg, min(cfg.n_symbols, 200))
    rows = [("rho_tilde", "median_gap", "bound_ok_fraction", "feasible_fraction")]
    for rho_tilde in RHO_TILDE_GRID:
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


def run_ber(cfg: ExperimentConfig):
    """BER sweep over Eb/N0 for each of ``SOLVERS``, with the PA and channel applied.

    Eb is referenced to the averaged energy of the transmitted frequency
    symbols; noise is added per sample so the per-data-carrier SNR meets the
    requested Eb/N0.  With ``channel=multipath`` each symbol goes through an
    ideal cyclic prefix, so the channel is a circular convolution, and the
    known tap response is equalized away (perfect CSI).

    The channel acts on the noise alone.  Behind the ideal prefix it is one
    gain ``H`` per carrier, so the received spectrum is ``H * F(s) + F(n)``
    for a transmitted symbol ``s`` and noise ``n``, and perfect-CSI zero
    forcing leaves ``F(s) + F(n) / H``.  The noiseless spectrum is therefore
    ``F(s)`` itself, and only the noise is transformed and equalized.

    The solvers run one at a time, so only one time-domain batch ``x`` is
    alive.  After a solver solves the whole batch, the amplifier's saturation
    amplitude is the mean over that batch.  One pass over the row blocks of
    :func:`solve_batch`, on its threads, then transmits the batch: a block
    writes each row's carrier energy ``||F(x)||^2`` into ``es`` and the
    spectrum of its amplified signal, ``F(sspa(x))`` (``F(x)`` with the PA
    off), into ``clean[k]``.  ``x`` is then dropped and Eb is the mean of
    ``es``.  A row's ``||F(x)||^2`` does not depend on the block it sits
    in, so Eb keeps the bits of the mean over one whole-batch transform.

    The link stage runs in the same row blocks, on the calling thread at any
    ``cfg.workers`` (its noise draws trade the GIL row by row, so a second
    thread only adds CPU), and reads only ``clean``, the
    ``(n_solvers, n_symbols, N)`` noiseless spectra.  The noise streams of
    each Eb/N0 point are seeded once for the whole batch.  For each point a
    block draws the unit noise once (one stream per symbol), into buffers it
    reuses across points, and transforms and equalizes it once.  Every
    solver's received spectrum is then one broadcast
    ``clean + s_k * F(unit) / H``, with ``s_k`` that solver's noise scale,
    and one :func:`dsp.demap_bits` call decides all solvers' rows; one
    comparison with the sent bits then counts each solver's errors.  The
    integer error counts of the blocks add up to the same totals for any
    block layout.  Rows come out solver by solver, each over the Eb/N0 grid.
    """
    plan, const, bits, c_o = _symbols(cfg, cfg.n_symbols)
    n_solvers, n_points = len(SOLVERS), len(cfg.ebn0_db)
    n_samples = cfg.n_carriers * cfg.oversample
    multipath = cfg.channel == "multipath"
    h = multipath_impulse_response(cfg.oversample * NATIVE_BANDWIDTH_HZ)
    resp = channel_frequency_response(h, n_samples, cfg.n_carriers)

    es = np.empty(cfg.n_symbols)  # ||F(x)||^2 per row of the current solver
    clean = np.empty((n_solvers, cfg.n_symbols, cfg.n_carriers), dtype=np.complex128)
    scales = np.empty((n_solvers, n_points))  # sqrt(var / 2) per Eb/N0 point
    for k, solver in enumerate(SOLVERS):
        x = solve_batch(cfg, solver, c_o, plan)
        a_sat = saturation_amplitude(x) if cfg.pa_enabled else None

        def transmit_block(lo, hi):
            spectrum = dsp.fft_oversampled(x[lo:hi], cfg.oversample)
            es[lo:hi] = np.linalg.norm(spectrum, axis=-1) ** 2
            if a_sat is not None:
                spectrum = dsp.fft_oversampled(sspa(x[lo:hi], a_sat=a_sat), cfg.oversample)
            clean[k, lo:hi] = spectrum

        _run_blocks(cfg.workers, cfg.n_symbols, n_samples, transmit_block)
        del x
        eb = float(np.mean(es)) / (plan.n_data * const.bits_per_symbol)
        scales[k] = [
            np.sqrt(noise_variance_per_sample(e, eb, n_samples) / 2.0) for e in cfg.ebn0_db
        ]

    seeds = [_noise_seeds(cfg.seed, int(round(e * 1000)), 0, cfg.n_symbols) for e in cfg.ebn0_db]

    def link_block(lo, hi):
        n_rows = hi - lo
        rails = np.empty((n_rows, 2, n_samples))
        noise = np.empty((n_rows, n_samples), dtype=np.complex128)
        received = np.empty((n_solvers, n_rows, cfg.n_carriers), dtype=np.complex128)
        errors = np.zeros((n_solvers, n_points), dtype=np.int64)
        for j, table in enumerate(seeds):
            spectrum = dsp.fft_oversampled(_unit_noise(table[lo:hi], rails, noise), cfg.oversample)
            if multipath:
                spectrum = equalize_zero_forcing(spectrum, resp)
            np.multiply(scales[:, j, None, None], spectrum, out=received)
            received += clean[:, lo:hi]
            decided = dsp.demap_bits(received.reshape(-1, cfg.n_carriers), const, plan)
            errors[:, j] = np.count_nonzero(
                decided.reshape(n_solvers, n_rows, -1) != bits[lo:hi], axis=(1, 2)
            )
        return errors

    # One thread at any --workers: _unit_noise makes one standard_normal call
    # per row, and each call releases and retakes the GIL, so two threads
    # trade it row by row.  At 1000 multipath symbols on 2 cores the stage
    # took 0.18-0.20 s wall and 0.25-0.27 s CPU, with ~4 400-5 000 voluntary
    # context switches, on two threads, and 0.14-0.17 s of each on one.
    errors = sum(_run_blocks(1, cfg.n_symbols, n_samples, link_block))
    rows = [("solver", "channel", "ebn0_db", "ber", "bits")]
    for solver, counts in zip(SOLVERS, errors):
        for ebn0, n_err in zip(cfg.ebn0_db, counts):
            rows.append((solver, cfg.channel, float(ebn0), int(n_err) / bits.size, bits.size))
    return rows


def _noise_seeds(seed: int, ebn0_key: int, lo: int, hi: int) -> np.ndarray:
    """:func:`seed_table` rows ``lo..hi-1`` of the noise streams of one Eb/N0 point.

    ``ebn0_key`` is ``round(1000 * ebn0_db)``; a negative key seeds from a
    stage of its own, keyed by its magnitude.
    """
    if ebn0_key >= 0:
        return seed_table(seed, lo, hi, _NOISE_STAGE, ebn0_key)
    return seed_table(seed, lo, hi, _NEGATIVE_NOISE_STAGE, -ebn0_key)


def _unit_noise(seeds, rails, out) -> np.ndarray:
    """Complex noise with standard normal rails, one stream per row, drawn into ``out``.

    Row ``r`` comes from the stream that ``seeds[r]`` (a row of
    :func:`_noise_seeds`) seeds, and takes ``2 * n_samples`` standard
    normals from it into ``rails[r]`` (float, ``(n_rows, 2, n_samples)``):
    the first half is the real part of ``out[r]`` (complex,
    ``(n_rows, n_samples)``), the second the imaginary part.  Scaled by
    ``sqrt(var / 2)`` it is noise of per-sample variance ``var``.  A caller
    that draws block after block passes the same two buffers every time.
    """
    for row, words in zip(rails, seeds):
        _generator(words).standard_normal(out=row)
    out.real = rails[:, 0]
    out.imag = rails[:, 1]
    return out


def run_psd(cfg: ExperimentConfig):
    """Emission spectra after the PA, one curve per solver, peak at 0 dB.

    The amplifier's saturation amplitude is taken over the solver's whole
    batch (:func:`channel.saturation_amplitude`); the batch is then amplified
    in place, row block by row block on ``cfg.workers`` threads, and freed
    once its spectrum is taken, before the next solve starts.
    """
    n_symbols = min(cfg.n_symbols, 1000)
    n_samples = n_symbols * cfg.oversample * cfg.n_carriers
    if n_samples < PSD_SEG_LEN:
        raise ConfigError(
            f"psd needs at least psd_seg_len = {PSD_SEG_LEN} samples, but "
            f"{n_symbols} symbols give {n_samples}"
        )
    plan, _, _, c_o = _symbols(cfg, n_symbols)
    rows = [("solver", "freq_norm", "psd_db")]
    for solver in SOLVERS:
        x = solve_batch(cfg, solver, c_o, plan)
        if cfg.pa_enabled:
            a_sat = saturation_amplitude(x)

            def amplify_block(lo, hi):
                x[lo:hi] = sspa(x[lo:hi], a_sat=a_sat)

            _run_blocks(cfg.workers, n_symbols, x.shape[1], amplify_block)
        freqs, pxx = metrics.psd(x.ravel(), seg_len=PSD_SEG_LEN)
        del x
        pxx = pxx / pxx.max()
        label = "original" if solver == "none" else solver
        # frequency axis in carrier spacings: sample rate is oversample*N spacings
        scale = cfg.oversample * cfg.n_carriers
        for f, p in zip(freqs, pxx):
            rows.append((label, round(float(f * scale), 4), round(float(10 * np.log10(p + 1e-300)), 4)))
    return rows


def run_bench(cfg: ExperimentConfig):
    """Per-iteration wall time of the direct engine versus transform size."""
    rows = [("n_carriers", "ln", "seconds_per_iteration", "fft_pair_seconds")]
    for n in BENCH_SIZES:
        size_cfg = cfg.with_overrides(n_carriers=n, n_free=max(2, n // 8), constellation="qpsk")
        plan, _, _, c_o = _symbols(size_cfg, BENCH_BATCH)
        params_warm = admm_params(cfg, solver="direct", iterations=1, eps=0.0)
        direct_solve(c_o, plan, params_warm, cfg.oversample)
        iters = 8
        params = [admm_params(cfg, solver="direct", iterations=k, eps=0.0) for k in (iters, 0)]
        # the fastest repeat of each sweep count, so a stall in one call moves neither
        best = [np.inf, np.inf]
        for _ in range(BENCH_REPEATS):
            for j in (0, 1):
                t0 = time.perf_counter()
                direct_solve(c_o, plan, params[j], cfg.oversample)
                best[j] = min(best[j], time.perf_counter() - t0)
        per_iter = (best[0] - best[1]) / iters
        t0 = time.perf_counter()
        for _ in range(10):
            dsp.fft_oversampled(dsp.ifft_oversampled(c_o, cfg.oversample), cfg.oversample)
        fft_pair = (time.perf_counter() - t0) / 10.0
        rows.append((n, n * cfg.oversample, float(per_iter), float(fft_pair)))
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
