import dataclasses
import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from papradmm.cli import build_parser, load_config, main
from papradmm.config import ConfigError, ExperimentConfig
from papradmm import dsp, experiments, metrics
from papradmm.direct import direct_solve
from papradmm.relax import relax_solve


def _batch(cfg, n_symbols):
    plan = dsp.CarrierPlan.default(cfg.n_carriers, cfg.n_free)
    const = dsp.Constellation.from_name(cfg.constellation)
    bits = experiments.generate_bits(cfg, n_symbols, const, plan)
    return dsp.map_bits(bits, const, plan), plan


# The type of every ExperimentConfig key, and values of other types it rejects
FIELD_KINDS = {
    "n_carriers": "int", "n_free": "int", "oversample": "int", "n_symbols": "int",
    "iterations": "int", "seed": "int", "workers": "int",
    "alpha_db": "float", "beta": "float", "rho": "float", "rho_tilde": "float",
    "ebn0_db": "tuple", "pa_enabled": "bool",
    "constellation": "str", "channel": "str", "out_dir": "str",
}
WRONG_VALUES = {
    "int": (2.5, 2.0, True, "2.5", [2], 1j),
    "float": (True, "fast", [1.0], 1j, object()),
    "tuple": (
        5.0, 5, "4 x", [4.0, "8"], [True], [[4.0, 8.0]], np.ones((2, 2)), np.array(5.0), {4.0: 8.0}
    ),
    "bool": (0.5, 1, "maybe", [True]),
    "str": (16, 1.5, ["qpsk"], b"qpsk"),
}


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig().validate()
        assert dsp.CarrierPlan.default(cfg.n_carriers, cfg.n_free).n_data == 52

    def test_per_solver_penalty_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.resolved_penalties("direct") == (100.0, None)
        assert cfg.resolved_penalties("relax") == (300.0, 100.0)
        explicit = cfg.with_overrides(rho=500.0, rho_tilde=50.0)
        assert explicit.resolved_penalties("relax") == (500.0, 50.0)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "n_symbols = 100\n"
            "beta = 0.3\n"
            "ebn0_db = 6, 8, 10\n"
            "pa_enabled = off\n"
        )
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.n_symbols == 100
        assert cfg.beta == 0.3
        assert cfg.ebn0_db == (6.0, 8.0, 10.0)
        assert cfg.pa_enabled is False

    def test_unknown_key_rejected(self, tmp_path):
        # besides no_such_knob: names of module constants, which no file may set
        path = tmp_path / "bad.cfg"
        for key in (
            "no_such_knob", "beta_grid", "rcf_iterations", "eps", "sspa_p",
            "ibo_db", "bandwidth_hz", "ccdf_min_db", "ccdf_max_db",
            "ccdf_step_db", "psd_seg_len", "bench_sizes", "bench_batch",
            "bench_repeats",
        ):
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_file(str(path))

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().with_overrides(n_free=0)
        with pytest.raises(ConfigError):
            ExperimentConfig().with_overrides(n_free=64)

    def test_relax_penalty_hypothesis_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().with_overrides(rho=120.0, rho_tilde=100.0)

    def test_bad_value_types_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().with_overrides(n_symbols="many")

    @pytest.mark.parametrize(
        "key", ["oversample", "n_symbols", "workers", "seed", "iterations", "n_carriers", "n_free"]
    )
    def test_integer_keys_reject_a_float(self, key):
        for value in (2.5, 2.0):
            with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {value}$"):
                ExperimentConfig().with_overrides(**{key: value})

    def test_integer_keys_take_any_integer_type(self):
        cfg = ExperimentConfig().with_overrides(oversample=np.int64(2), n_symbols=np.int32(20))
        assert (cfg.oversample, cfg.n_symbols) == (2, 20)
        assert type(cfg.oversample) is int and type(cfg.n_symbols) is int

    def test_every_key_has_a_type_check(self):
        # a new field fails here until FIELD_KINDS, and so the tests below, cover it
        names = {f.name for f in dataclasses.fields(ExperimentConfig) if not f.name.startswith("_")}
        assert set(FIELD_KINDS) == names

    @pytest.mark.parametrize("kind", sorted(set(FIELD_KINDS.values())))
    def test_wrong_type_names_its_key(self, kind):
        for key in (k for k, v in FIELD_KINDS.items() if v == kind):
            for value in WRONG_VALUES[kind]:
                with pytest.raises(ConfigError, match=key):
                    ExperimentConfig().with_overrides(**{key: value})

    def test_integer_keys(self):
        cfg = ExperimentConfig().with_overrides(seed=" 7 ", workers=np.uint8(2))
        assert (cfg.seed, cfg.workers) == (7, 2) and type(cfg.workers) is int

    def test_float_keys(self):
        cfg = ExperimentConfig().with_overrides(alpha_db=5, beta=np.float32(0.5), rho="400")
        assert (cfg.alpha_db, cfg.beta, cfg.rho) == (5.0, 0.5, 400.0)
        assert all(type(v) is float for v in (cfg.alpha_db, cfg.beta, cfg.rho))

    @pytest.mark.parametrize("value", [[4, 8.5], (4, 8.5), [np.int64(4), np.float64(8.5)], "4, 8.5"])
    def test_tuple_key_takes_numbers_or_their_string(self, value):
        assert ExperimentConfig().with_overrides(ebn0_db=value).ebn0_db == (4.0, 8.5)

    def test_tuple_key_checks_finiteness(self):
        with pytest.raises(ConfigError, match="ebn0_db must be finite"):
            ExperimentConfig().with_overrides(ebn0_db=[4.0, float("inf")])

    @pytest.mark.parametrize("value,want", [(False, False), (True, True), ("off", False)])
    def test_bool_key(self, value, want):
        assert ExperimentConfig().with_overrides(pa_enabled=value).pa_enabled is want

    def test_string_keys(self):
        cfg = ExperimentConfig().with_overrides(constellation="qpsk", out_dir=" out ")
        assert (cfg.constellation, cfg.out_dir) == ("qpsk", "out")


class TestDeterminism:
    def test_fixed_seed_reruns_identical(self):
        cfg = ExperimentConfig().with_overrides(n_symbols=50, iterations=3)
        rows1 = experiments.run_table2(cfg)
        rows2 = experiments.run_table2(cfg)
        assert rows1 == rows2

    def test_worker_count_does_not_change_results(self):
        # 64 rows: one block on one thread, two blocks of 32 on two
        base = ExperimentConfig().with_overrides(iterations=3)
        c_o, plan = _batch(base, 64)
        for solver, solve in (("direct", direct_solve), ("relax", relax_solve)):
            for beta in experiments.BETA_GRID:
                cfg = base.with_overrides(beta=beta)
                params = experiments.admm_params(cfg, solver=solver)
                x, c, report = solve(c_o, plan, params, cfg.oversample)
                for workers in (1, 2):
                    x_blocks = experiments.solve_batch(
                        cfg.with_overrides(workers=workers), solver, c_o, plan
                    )
                    assert np.array_equal(x_blocks, x), (solver, beta, workers)
                # the c and flags of the two-thread cut are the whole batch's
                halves = [solve(c_o[lo:lo + 32], plan, params, cfg.oversample) for lo in (0, 32)]
                assert np.array_equal(np.concatenate([h[1] for h in halves]), c), (solver, beta)
                active = np.concatenate([h[2].fcpo_active for h in halves])
                assert np.array_equal(active, report.fcpo_active), (solver, beta)

    def test_row_alone_matches_row_in_batch(self):
        cfg = ExperimentConfig()
        c_o, plan = _batch(cfg, 400)
        for solver, solve in (("direct", direct_solve), ("relax", relax_solve)):
            params = experiments.admm_params(cfg, solver=solver)
            x_all, c_all, _ = solve(c_o, plan, params, cfg.oversample)
            for i in (0, 7, 199, 399):
                x_i, c_i, _ = solve(c_o[i], plan, params, cfg.oversample)
                assert np.array_equal(x_i, x_all[i]), (solver, i)
                assert np.array_equal(c_i, c_all[i]), (solver, i)

    def test_different_seed_changes_results(self):
        cfg1 = ExperimentConfig().with_overrides(n_symbols=50, iterations=3)
        cfg2 = cfg1.with_overrides(seed=99)
        assert experiments.run_table2(cfg1) != experiments.run_table2(cfg2)


class TestSeedTable:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        n_rows=st.integers(0, 12),
        lo=st.integers(0, 2**32 - 12),
        key=st.lists(st.integers(0, 2**32 - 1), max_size=3),
    )
    def test_rows_are_numpys_seed_sequence(self, seed, n_rows, lo, key):
        table = experiments.seed_table(seed, lo, lo + n_rows, *key)
        assert table.shape == (n_rows, 4) and table.dtype == np.uint64
        for i, words in zip(range(lo, lo + n_rows), table):
            rng = experiments._generator(words)
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(i, *key))
            assert np.array_equal(words, seq.generate_state(4, np.uint64)), i
            want = np.random.default_rng(seq)
            assert np.array_equal(rng.integers(0, 2, size=64), want.integers(0, 2, size=64))
            assert np.array_equal(rng.standard_normal((2, 8)), want.standard_normal((2, 8)))
            one = experiments.rng_for(seed, i, *key)
            again = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i, *key)))
            assert np.array_equal(one.standard_normal(8), again.standard_normal(8))


class TestGenerateBits:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        constellation=st.sampled_from(["qpsk", "16qam"]),
        n_free=st.sampled_from([1, 2, 12, 31, 63]),
        n_symbols=st.integers(0, 4),
    )
    @example(seed=2**32, constellation="16qam", n_free=12, n_symbols=3)
    @example(seed=2**64 + 5, constellation="qpsk", n_free=1, n_symbols=2)
    def test_rows_are_the_per_row_integers_draw(self, seed, constellation, n_free, n_symbols):
        cfg = ExperimentConfig().with_overrides(
            seed=seed, constellation=constellation, n_free=n_free
        )
        plan = dsp.CarrierPlan.default(cfg.n_carriers, cfg.n_free)
        const = dsp.Constellation.from_name(constellation)
        n = plan.n_data * const.bits_per_symbol
        bits = experiments.generate_bits(cfg, n_symbols, const, plan)
        assert bits.shape == (n_symbols, n) and bits.dtype == np.int8
        for i, row in enumerate(bits):
            want = experiments.rng_for(seed, i, experiments._BITS_STAGE).integers(0, 2, size=n)
            assert np.array_equal(row, want), i

    @pytest.mark.parametrize("n_data", [1, 3, 51])
    def test_odd_bit_count_is_the_integers_draw(self, n_data):
        # the stock constellations give an even count; an odd one drops the
        # unused half of the last raw word
        cfg = ExperimentConfig().with_overrides(seed=2**40 + 3)
        plan = dsp.CarrierPlan(n_data + 1, np.arange(1, n_data + 1), [0])
        one_bit = SimpleNamespace(bits_per_symbol=1)
        bits = experiments.generate_bits(cfg, 3, one_bit, plan)
        for i, row in enumerate(bits):
            rng = experiments.rng_for(cfg.seed, i, experiments._BITS_STAGE)
            assert np.array_equal(row, rng.integers(0, 2, size=n_data)), i


class TestPcg64Words:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        lo=st.integers(0, 2**32 - 8),
        n_rows=st.integers(0, 8),
        key=st.lists(st.integers(0, 2**32 - 1), max_size=3),
        n_words=st.sampled_from([0, 1, 2, 51, 104]),
    )
    def test_words_are_numpys_pcg64(self, seed, lo, n_rows, key, n_words):
        table = experiments.seed_table(seed, lo, lo + n_rows, *key)
        words = experiments._pcg64_words(table, n_words)
        assert words.shape == (n_rows, n_words) and words.dtype == np.uint64
        for i, (row, got) in enumerate(zip(table, words)):
            want = np.random.PCG64(experiments._seed_words()(row)).random_raw(n_words)
            assert np.array_equal(got, want), i

    def test_rows_cover_rotation_zero_and_a_low_word_carry(self):
        # 64 stock bit streams against PCG64 on Python integers; they read a
        # word at rotation 0 and step through a carry out of the low word
        table = experiments.seed_table(12345, 0, 64, experiments._BITS_STAGE)
        words = experiments._pcg64_words(table, 104)
        mult, mask = experiments._PCG_MULT, 2**64 - 1
        rotations, carries = set(), 0
        for (s_hi, s_lo, i_hi, i_lo), got in zip(table.tolist(), words.tolist()):
            inc = (i_hi << 65 | i_lo << 1 | 1) % 2**128
            state = ((s_hi << 64 | s_lo) + inc) * mult + inc
            want = []
            for _ in range(104):
                carries += (state * mult & mask) + (inc & mask) > mask
                state = (state * mult + inc) % 2**128
                hi, lo = state >> 64, state & mask
                rotations.add(hi >> 58)
                want.append(((hi ^ lo) >> (hi >> 58) | (hi ^ lo) << (64 - (hi >> 58))) & mask)
            assert got == want
        assert 0 in rotations and carries > 0


class TestBlockedDispatch:
    # the call each solver makes on its block: (module, attribute)
    SOLVER_CALL = {
        "none": (dsp, "ifft_oversampled"),
        "direct": (experiments, "direct_solve"),
        "relax": (experiments, "relax_solve"),
        "rcf": (experiments, "rcf"),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVER_CALL))
    def test_blocks_bit_exact_and_bounded(self, solver, monkeypatch):
        cfg = ExperimentConfig()
        c_o, plan = _batch(cfg, 300)
        block_rows = experiments.BLOCK_SAMPLES // (cfg.oversample * cfg.n_carriers)
        assert block_rows < 300  # so the batch spans several blocks
        x_ref = experiments._solve_chunk(cfg, solver, c_o, plan)
        rows = []
        module, name = self.SOLVER_CALL[solver]
        original = getattr(module, name)

        def recording(c_block, *args, **kwargs):
            rows.append(c_block.shape[0])
            return original(c_block, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        for workers in (1, 2):
            rows.clear()
            x = experiments.solve_batch(cfg.with_overrides(workers=workers), solver, c_o, plan)
            assert np.array_equal(x, x_ref), workers
            assert max(rows) <= block_rows and sum(rows) == 300, (workers, rows)
            if workers == 1:
                # no view that pins a larger array
                assert x.base is None

    def test_working_set_is_per_block(self):
        cfg = ExperimentConfig().with_overrides(iterations=2)
        c_o, plan = _batch(cfg, 4096)
        excess = {}
        for n_rows in (1024, 4096):
            tracemalloc.start()
            try:
                x = experiments.solve_batch(cfg, "relax", c_o[:n_rows], plan)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            excess[n_rows] = peak - x.nbytes
        assert excess[4096] <= 1.25 * excess[1024], excess

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_threads_capped_at_usable_cpus(self, cpus, monkeypatch):
        # the cap is the CPUs this process may run on, not the host's cores:
        # under a one-CPU affinity mask the blocks run on the calling thread
        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = ExperimentConfig().with_overrides(workers=cpus + 3)
        c_o, plan = _batch(cfg, 2 * cfg.workers)
        x = experiments.solve_batch(cfg, "none", c_o, plan)
        assert np.array_equal(x, dsp.ifft_oversampled(c_o, cfg.oversample))
        assert seen == ([cpus] if cpus > 1 else [])

    @pytest.mark.parametrize("solver", sorted(SOLVER_CALL))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_batch_solves_no_block(self, solver, workers, monkeypatch):
        cfg = ExperimentConfig().with_overrides(workers=workers)
        c_o, plan = _batch(cfg, 4)
        calls = {name: 0 for name in ("_solve_chunk", "ThreadPoolExecutor")}
        count_calls(monkeypatch, experiments, "_solve_chunk", calls)
        count_calls(monkeypatch, experiments, "ThreadPoolExecutor", calls)
        x = experiments.solve_batch(cfg, solver, c_o[:0], plan)
        assert x.shape == (0, cfg.oversample * cfg.n_carriers) and x.dtype == complex
        assert calls == {"_solve_chunk": 0, "ThreadPoolExecutor": 0}


class TestCli:
    def test_table2_writes_csv(self, tmp_path, capsys):
        code = main(
            ["table2", "--symbols", "40", "--iters", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        text = (tmp_path / "table2.csv").read_text()
        assert text.splitlines()[0] == "solver,beta,evm_db"
        assert len(text.splitlines()) == 7
        assert "EVM" in capsys.readouterr().out

    def test_csv_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ccdf", "--symbols", "30", "--out", str(a)]) == 0
        assert main(["ccdf", "--symbols", "30", "--out", str(b)]) == 0
        assert (a / "ccdf.csv").read_bytes() == (b / "ccdf.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("channel = sorcery\n")
        code = main(["table2", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_constellation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("constellation = 8psk\n")
        code = main(["table2", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown constellation" in capsys.readouterr().err

    def test_relax_penalty_error_exit_code(self, tmp_path, capsys):
        code = main(["table2", "--rho", "100", "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = main(["table2", "--config", str(missing), "--out", str(tmp_path)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        # SeedSequence takes only non-negative entropy
        code = main(["table2", "--seed", "-1", "--symbols", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "table2.csv").exists()

    @pytest.mark.parametrize(
        "flag,text,key",
        [("--symbols", "many", "n_symbols"), ("--workers", "2.5", "workers"), ("--beta", "fast", "beta")],
    )
    def test_malformed_flag_exit_code(self, tmp_path, capsys, flag, text, key):
        # a flag's text is parsed by the same code as a config file's value
        code = main(["table2", flag, text, "--out", str(tmp_path)])
        assert code == 2
        assert f"configuration error: cannot parse {key}={text!r}" in capsys.readouterr().err
        assert not (tmp_path / "table2.csv").exists()

    def test_unknown_flag_exit_code(self, tmp_path, capsys):
        # argparse prints its usage error; main returns its status, not SystemExit
        code = main(["table2", "--bogus", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
        assert not (tmp_path / "table2.csv").exists()

    def test_help_exit_code(self, capsys):
        assert main(["table2", "--help"]) == 0
        assert "--symbols" in capsys.readouterr().out

    def test_each_flag_sets_its_key(self, tmp_path):
        argv = [
            "ber", "--beta", "0.3", "--alpha-db", "5.5", "--rho", "700", "--rho-tilde", "50",
            "--symbols", "17", "--iters", "3", "--seed", "9", "--channel", "multipath",
            "--workers", "2", "--out", str(tmp_path),
        ]
        want = ExperimentConfig(
            beta=0.3, alpha_db=5.5, rho=700.0, rho_tilde=50.0, n_symbols=17, iterations=3,
            seed=9, channel="multipath", workers=2, out_dir=str(tmp_path),
        )
        assert load_config(build_parser().parse_args(argv)) == want

    def test_write_csv_renders_non_finite_floats(self, tmp_path):
        row = (float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 3, "x")
        path = experiments.write_csv(tmp_path / "cells.csv", [row, tuple(map(np.float64, row[:5]))])
        assert path.read_text() == "nan,inf,-inf,-0,1e-300,3,x\nnan,inf,-inf,-0,1e-300\n"

    def test_negative_ebn0_point_has_its_own_stream(self, tmp_path):
        # round(1000 * ebn0) < 0 was passed to SeedSequence as a spawn key
        rows = {}
        for name, grid in (("with", "-2 0 2"), ("without", "0 2")):
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_text(f"ebn0_db = {grid}\n")
            out = tmp_path / name
            code = main(["ber", "--config", str(cfg_file), "--symbols", "8", "--out", str(out)])
            assert code == 0
            rows[name] = (out / "ber.csv").read_text().splitlines()
        assert [r for r in rows["with"] if r.split(",")[2] != "-2"] == rows["without"]
        assert len(rows["with"]) == 1 + 4 * 3
        buffers = (np.empty((2, 2, 16)), np.empty((2, 16), dtype=complex))
        minus, plus = (
            experiments._unit_noise(experiments._noise_seeds(3, k, 0, 2), *buffers).copy()
            for k in (-2000, 2000)
        )
        assert not np.any(minus == plus)

    def test_empty_ebn0_grid_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("ebn0_db =\n")
        code = main(["ber", "--config", str(cfg_file), "--symbols", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "ebn0_db" in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    def test_carrier_count_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_free = 0\n")
        code = main(["table2", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_psd_stream_shorter_than_segment_exit_code(self, tmp_path, capsys):
        # 2 symbols give 2*4*64 = 512 samples against psd_seg_len = 1024
        code = main(["psd", "--symbols", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "psd_seg_len" in capsys.readouterr().err
        assert not (tmp_path / "psd.csv").exists()
        # the stream length concerns psd alone
        assert main(["table2", "--symbols", "2", "--out", str(tmp_path)]) == 0

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from papradmm import cli
        from papradmm.dsp import DegenerateSymbolError

        def explode(cfg):
            raise DegenerateSymbolError("input is identically zero")

        monkeypatch.setattr(cli.experiments, "run_table2", explode)
        code = main(["table2", "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_out_path_that_is_a_file_exit_code(self, tmp_path, capsys, monkeypatch):
        # rejected before the driver runs, not by write_csv after it
        from papradmm import cli

        runs = []
        monkeypatch.setattr(cli.experiments, "run_table2", runs.append)
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["table2", "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("csv_is_dir", [True, False])
    def test_csv_write_failure_exit_code(self, tmp_path, capsys, csv_is_dir):
        # table2.csv is a directory, or --out lies under a plain file
        if csv_is_dir:
            out = tmp_path
            (out / "table2.csv").mkdir()
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "sub"
        code = main(["table2", "--symbols", "2", "--iters", "1", "--out", str(out)])
        assert code == 2
        assert str(out / "table2.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha-db", "beta", "rho", "rho-tilde"])
    def test_nan_setting_exit_code(self, tmp_path, capsys, key):
        # NaN compares false, so it slips past a bare range check
        code = main(["ber", f"--{key}", "nan", "--symbols", "4", "--out", str(tmp_path)])
        assert code == 2
        assert key.replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    @pytest.mark.parametrize("grid", ["6, nan", "inf"])
    def test_non_finite_ebn0_exit_code(self, tmp_path, capsys, grid):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"ebn0_db = {grid}\n")
        code = main(["ber", "--config", str(cfg_file), "--symbols", "4", "--out", str(tmp_path)])
        assert code == 2
        assert "ebn0_db" in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    def test_cli_override_beats_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n_symbols = 10000\n")
        code = main(
            [
                "ber",
                "--config", str(cfg_file),
                "--symbols", "20",
                "--iters", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "ber.csv").read_text().splitlines()
        # 4 solvers x default ebn0 grid, plus header; 20 symbols per point
        assert lines[1].endswith(",4160")


@pytest.fixture(scope="module")
def curves():
    cfg = ExperimentConfig().with_overrides(n_symbols=400, seed=11)
    rows = experiments.run_ccdf(cfg)
    out = {}
    for solver, t, p in rows[1:]:
        out.setdefault(solver, {})[t] = p
    return out


class TestCcdfCurves:
    def test_unprocessed_papr_tail(self, curves):
        # raw 64-carrier symbols exceed 8 dB with probability in the
        # percent range; every one of them exceeds the 4 dB target
        assert 0.01 < curves["original"][8.0] < 0.5
        assert curves["original"][4.0] == 1.0

    def test_original_dominates_processed_curves(self, curves):
        thresholds = sorted(curves["original"])
        for solver in ("direct", "relax", "rcf"):
            for t in thresholds:
                assert curves["original"][t] >= curves[solver][t] - 1e-12

    def test_rcf_curve_sits_between(self, curves):
        # slower cut-off than the engines, far sharper than no processing
        assert curves["rcf"][4.2] > curves["direct"][4.2]
        assert curves["rcf"][4.2] > curves["relax"][4.2]
        assert curves["rcf"][5.0] < 0.01 < curves["original"][5.0]

    def test_engines_cut_off_at_target(self, curves):
        assert curves["direct"][4.05] == 0.0
        assert curves["relax"][4.05] == 0.0


class TestBerDriver:
    def test_ideal_qpsk_matches_closed_form(self):
        from scipy import special

        cfg = ExperimentConfig().with_overrides(
            n_symbols=400, constellation="qpsk", pa_enabled=False,
            ebn0_db="4,6", seed=5,
        )
        rows = [row for row in experiments.run_ber(cfg)[1:] if row[0] == "none"]
        assert len(rows) == len(cfg.ebn0_db)
        for _, _, ebn0, value, bits in rows:
            p = 0.5 * special.erfc(np.sqrt(10 ** (ebn0 / 10.0)))
            sigma = np.sqrt(p * (1 - p) / bits)
            assert abs(value - p) < 3.0 * sigma

    def test_multipath_degrades_every_solver(self):
        cfg = ExperimentConfig().with_overrides(n_symbols=200, ebn0_db="8", seed=6)
        awgn_ber = {r[0]: r[3] for r in experiments.run_ber(cfg)[1:]}
        multi = cfg.with_overrides(channel="multipath")
        multi_ber = {r[0]: r[3] for r in experiments.run_ber(multi)[1:]}
        for solver in ("none", "direct", "relax", "rcf"):
            assert multi_ber[solver] > awgn_ber[solver]


def count_calls(monkeypatch, module, name, calls):
    """Replace ``module.name`` with a wrapper that adds one to ``calls[name]``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


# Bit errors per solver over the default Eb/N0 grid (2..12 dB), 64 16-QAM
# symbols at seed 7 with the PA on (13312 bits per point).  Computed when
# each solver still drew its own noise; the shared draw must reproduce them.
BER_ERRORS_SEED_7 = {
    "awgn": {
        "none": (1590, 1038, 617, 338, 123, 51),
        "direct": (1569, 1038, 581, 329, 105, 41),
        "relax": (1590, 1035, 630, 387, 171, 81),
        "rcf": (1805, 1377, 1058, 821, 610, 491),
    },
    "multipath": {
        "none": (1580, 1024, 653, 364, 145, 78),
        "direct": (1586, 1039, 631, 352, 138, 66),
        "relax": (1594, 1056, 679, 402, 169, 107),
        "rcf": (1810, 1388, 1065, 842, 619, 509),
    },
}


# The same at 300 symbols and the default seed (62400 bits per point): three
# link-stage blocks of at most 128 rows, four with two threads.  Computed
# when the whole batch went through the link stage at once.
BER_ERRORS_300 = {
    "awgn": {
        "none": (7342, 4864, 2882, 1411, 576, 176),
        "direct": (7337, 4845, 2791, 1368, 546, 168),
        "relax": (7225, 4908, 2995, 1579, 750, 324),
        "rcf": (8302, 6343, 4817, 3579, 2684, 2137),
    },
    "multipath": {
        "none": (7381, 4967, 2971, 1554, 700, 244),
        "direct": (7374, 4925, 2911, 1460, 657, 211),
        "relax": (7339, 4944, 3123, 1682, 849, 372),
        "rcf": (8382, 6419, 4858, 3683, 2723, 2164),
    },
}


def assert_ber_rows(cfg, errors, bits):
    want = [("solver", "channel", "ebn0_db", "ber", "bits")]
    for solver, counts in errors.items():
        for ebn0, n_err in zip(cfg.ebn0_db, counts):
            want.append((solver, cfg.channel, ebn0, n_err / bits, bits))
    for workers in (1, 2):
        assert experiments.run_ber(cfg.with_overrides(workers=workers)) == want, workers


class TestBerLinkStage:
    @pytest.mark.parametrize("channel", ["awgn", "multipath"])
    def test_rows_pinned_and_independent_of_workers(self, channel):
        cfg = ExperimentConfig().with_overrides(n_symbols=64, seed=7, channel=channel)
        assert_ber_rows(cfg, BER_ERRORS_SEED_7[channel], 13312)

    @pytest.mark.parametrize("channel", ["awgn", "multipath"])
    def test_blocked_rows_pinned_and_independent_of_workers(self, channel):
        cfg = ExperimentConfig().with_overrides(n_symbols=300, channel=channel)
        assert 2 * experiments.BLOCK_SAMPLES < 300 * cfg.oversample * cfg.n_carriers
        assert_ber_rows(cfg, BER_ERRORS_300[channel], 62400)

    def test_noise_drawn_once_per_symbol_and_amplifier_once_per_solver(self, monkeypatch):
        streams, amplified_rows, solved = [], [], []
        seed_table, sspa = experiments.seed_table, experiments.sspa
        solve_batch = experiments.solve_batch

        def recording_table(seed, lo, hi, *key):
            streams.extend((i, *key) for i in range(lo, hi))
            return seed_table(seed, lo, hi, *key)

        def recording_sspa(x, a_sat=None):
            # (the solver solved last, rows)
            amplified_rows.append((solved[-1], len(x)))
            return sspa(x, a_sat=a_sat)

        def recording_solve_batch(cfg, solver, *args, **kwargs):
            solved.append(solver)
            return solve_batch(cfg, solver, *args, **kwargs)

        monkeypatch.setattr(experiments, "seed_table", recording_table)
        monkeypatch.setattr(experiments, "sspa", recording_sspa)
        monkeypatch.setattr(experiments, "solve_batch", recording_solve_batch)
        cfg = ExperimentConfig().with_overrides(
            n_symbols=300, iterations=2, ebn0_db="4,8,12", channel="multipath"
        )
        block_rows = experiments.BLOCK_SAMPLES // (cfg.oversample * cfg.n_carriers)
        solvers = experiments.SOLVERS
        experiments.run_ber(cfg)
        # one bit stream per symbol, then one noise stream per (symbol, Eb/N0),
        # each seeded exactly once
        assert len(streams) == len(set(streams)) == cfg.n_symbols * (1 + len(cfg.ebn0_db))
        # solver-major: each solver's rows go through the amplifier right after
        # its solve, in blocks, and before the next solver's solve
        assert solved == list(solvers)
        order = [k for k, _ in amplified_rows]
        assert order == sorted(order, key=solvers.index)
        assert max(rows for _, rows in amplified_rows) <= block_rows
        for solver in solvers:
            rows = [rows for k, rows in amplified_rows if k == solver]
            assert len(rows) > 1 and sum(rows) == cfg.n_symbols, solver

    def test_link_stage_runs_on_the_calling_thread(self, monkeypatch):
        # the solves and the transmit pass keep the pool; the noise draws do not
        noise_threads, amplifier_threads = set(), set()
        unit_noise, sspa = experiments._unit_noise, experiments.sspa

        def recording_noise(*args, **kwargs):
            noise_threads.add(threading.get_ident())
            return unit_noise(*args, **kwargs)

        def recording_sspa(*args, **kwargs):
            amplifier_threads.add(threading.get_ident())
            return sspa(*args, **kwargs)

        monkeypatch.setattr(experiments, "_unit_noise", recording_noise)
        monkeypatch.setattr(experiments, "sspa", recording_sspa)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = ExperimentConfig().with_overrides(
            n_symbols=300, iterations=2, ebn0_db="4,8", channel="multipath", workers=2
        )
        experiments.run_ber(cfg)
        assert noise_threads == {threading.get_ident()}
        assert amplifier_threads and threading.get_ident() not in amplifier_threads

    def test_link_stage_transforms_once_per_solver_and_point(self, monkeypatch):
        # the row-block passes that run outside solve_batch: one transmit pass
        # per solver, then the link stage
        state = {"solving": 0, "in_blocks": 0}
        passes, demap_shapes = [], []
        solve_batch, run_blocks = experiments.solve_batch, experiments._run_blocks
        fft_oversampled, demap_bits = dsp.fft_oversampled, dsp.demap_bits

        def in_pass():
            return state["in_blocks"] and not state["solving"]

        def recording_solve_batch(*args, **kwargs):
            state["solving"] += 1
            try:
                return solve_batch(*args, **kwargs)
            finally:
                state["solving"] -= 1

        def recording_run_blocks(*args, **kwargs):
            if not state["solving"]:
                passes.append({"fft_rows": 0, "demap": []})
            state["in_blocks"] += 1
            try:
                return run_blocks(*args, **kwargs)
            finally:
                state["in_blocks"] -= 1

        def recording_fft(x, oversample):
            if in_pass():
                passes[-1]["fft_rows"] += len(x)
            return fft_oversampled(x, oversample)

        def recording_demap(c, const, plan):
            if in_pass():
                passes[-1]["demap"].append(np.shape(c))
            return demap_bits(c, const, plan)

        monkeypatch.setattr(experiments, "solve_batch", recording_solve_batch)
        monkeypatch.setattr(experiments, "_run_blocks", recording_run_blocks)
        monkeypatch.setattr(dsp, "fft_oversampled", recording_fft)
        monkeypatch.setattr(dsp, "demap_bits", recording_demap)
        cfg = ExperimentConfig().with_overrides(
            n_symbols=300, iterations=2, ebn0_db="4,8,12", channel="multipath"
        )
        n_solvers, n_points = len(experiments.SOLVERS), len(cfg.ebn0_db)
        experiments.run_ber(cfg)
        assert len(passes) == n_solvers + 1
        *transmit, link = passes
        # each solver's rows transformed twice, for Eb and for the clean spectrum
        assert [p["fft_rows"] for p in transmit] == [2 * cfg.n_symbols] * n_solvers
        assert not any(p["demap"] for p in transmit)
        # the link stage transforms each Eb/N0 point's noise once
        assert link["fft_rows"] == cfg.n_symbols * n_points
        # as many rows as one whole-batch transform per solver for Eb plus a
        # link stage that transformed each solver's clean rows and each point's noise
        total = sum(p["fft_rows"] for p in passes)
        assert total == cfg.n_symbols * n_solvers + cfg.n_symbols * (n_solvers + n_points)
        # every solver decided in one call per (block, point), on a 2-D batch
        demap_shapes = link["demap"]
        assert demap_shapes and all(len(shape) == 2 for shape in demap_shapes)
        assert sum(shape[0] for shape in demap_shapes) == cfg.n_symbols * n_solvers * n_points

    def test_traced_peak_bounded(self):
        # 300 multipath symbols on one thread peaked at 9.54 MB while every
        # solver's time-domain batch stayed alive through the link stage
        cfg = ExperimentConfig().with_overrides(n_symbols=300, channel="multipath", workers=1)
        experiments.run_ber(cfg.with_overrides(n_symbols=8))
        tracemalloc.start()
        try:
            experiments.run_ber(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8.2e6, peak

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_eb_keeps_the_whole_batch_bits(self, block_rows, monkeypatch):
        cfg = ExperimentConfig().with_overrides(n_symbols=10, iterations=2, ebn0_db="8")
        if block_rows is not None:
            monkeypatch.setattr(
                experiments, "BLOCK_SAMPLES", block_rows * cfg.oversample * cfg.n_carriers
            )
        ebs = []
        noise_variance = experiments.noise_variance_per_sample

        def recording(ebn0_db, eb, n_samples):
            ebs.append(eb)
            return noise_variance(ebn0_db, eb, n_samples)

        monkeypatch.setattr(experiments, "noise_variance_per_sample", recording)
        experiments.run_ber(cfg)
        plan, const, _, c_o = experiments._symbols(cfg, cfg.n_symbols)
        want = []
        for solver in experiments.SOLVERS:
            x = experiments.solve_batch(cfg, solver, c_o, plan)
            c_tx = dsp.fft_oversampled(x, cfg.oversample)
            es_bar = float(np.mean(np.linalg.norm(c_tx, axis=-1) ** 2))
            want.append(es_bar / (plan.n_data * const.bits_per_symbol))
        assert ebs == want


@pytest.mark.parametrize("driver", ["run_table2", "run_ccdf", "run_psd"])
def test_driver_rows_independent_of_workers(driver):
    # 300 symbols: three row blocks on one thread, four on two
    cfg = ExperimentConfig().with_overrides(n_symbols=300, iterations=2)
    assert 2 * experiments.BLOCK_SAMPLES < 300 * cfg.oversample * cfg.n_carriers
    run = getattr(experiments, driver)
    assert run(cfg.with_overrides(workers=2)) == run(cfg.with_overrides(workers=1))


@pytest.mark.parametrize("driver", ["run_table2", "run_ccdf", "run_psd", "run_ber"])
def test_one_time_domain_batch_alive(driver, monkeypatch):
    batch_refs, engine_refs, engine_rows, solved = [], [], [], []
    solve_batch, sspa = experiments.solve_batch, experiments.sspa
    cfg = ExperimentConfig().with_overrides(n_symbols=16, iterations=2, channel="multipath")
    # four row blocks of four symbols
    block_rows = 4
    monkeypatch.setattr(
        experiments, "BLOCK_SAMPLES", block_rows * cfg.oversample * cfg.n_carriers
    )

    def tracking_solve_batch(cfg_, solver, c_o, plan):
        gc.collect()
        # every earlier solve's x, and every amplified signal, is gone before
        # the next solve starts
        assert all(ref() is None for ref in batch_refs), len(batch_refs)
        solved.append(solver)
        x = solve_batch(cfg_, solver, c_o, plan)
        batch_refs.append(weakref.ref(x))
        return x

    def tracking_engine(engine):
        def solve(c_o, *args, **kwargs):
            gc.collect()
            # every earlier engine call's x and report is gone before the next
            assert all(ref() is None for ref in engine_refs), len(engine_refs)
            engine_rows.append(len(c_o))
            x, c, report = engine(c_o, *args, **kwargs)
            engine_refs.extend([weakref.ref(x), weakref.ref(report)])
            return x, c, report

        return solve

    def tracking_sspa(x, a_sat=None):
        out = sspa(x, a_sat)
        batch_refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(experiments, "solve_batch", tracking_solve_batch)
    monkeypatch.setattr(experiments, "sspa", tracking_sspa)
    for name in ("direct_solve", "relax_solve"):
        monkeypatch.setattr(experiments, name, tracking_engine(getattr(experiments, name)))
    getattr(experiments, driver)(cfg)
    # no engine call sees more than one row block
    assert engine_rows and max(engine_rows) <= block_rows
    if driver == "run_table2":
        # one pass of row blocks solves the whole grid: no batch is ever built
        assert not solved
    else:
        assert solved == list(experiments.SOLVERS)


@pytest.mark.parametrize("driver", ["run_table2", "run_ccdf", "run_psd"])
def test_driver_traced_peak_bounded(driver):
    # 300 symbols on one thread peaked at 6.46 (table2), 6.48 (ccdf) and
    # 6.60 MB (psd), against 7.94, 7.71 and 7.82 MB while the previous
    # solve's x stayed alive through the next solve (and psd transformed all
    # 149 Welch segments at once); the pin is 0.4 MB above the highest
    run = getattr(experiments, driver)
    cfg = ExperimentConfig().with_overrides(n_symbols=300, workers=1)
    run(cfg.with_overrides(n_symbols=8))
    tracemalloc.start()
    try:
        run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.0e6, peak


def test_beta_grid_ascends():
    # run_table2 reuses a row's solve at every larger beta
    assert list(experiments.BETA_GRID) == sorted(set(experiments.BETA_GRID))


@pytest.mark.parametrize("seed", [12345, 1])
@pytest.mark.parametrize("workers", [1, 2])
def test_table2_evaluates_full_solves(seed, workers, monkeypatch):
    # the c whose EVM each (engine, beta) row reports equals a full solve of
    # the batch at that beta, bit for bit, though at the last beta only the
    # rows flagged at the beta before are solved again
    cfg = ExperimentConfig().with_overrides(n_symbols=200, seed=seed, workers=workers)
    evaluated, calls = [], []
    evm_db = metrics.evm_db

    def recording_evm(c, c_o, plan):
        evaluated.append(c.copy())  # the walk writes the last beta into c
        return evm_db(c, c_o, plan)

    def recording(solver, engine):
        def solve(c_o, plan, params, *args, **kwargs):
            calls.append((solver, params.beta, len(c_o)))  # atomic on every thread
            return engine(c_o, plan, params, *args, **kwargs)

        return solve

    monkeypatch.setattr(metrics, "evm_db", recording_evm)
    for solver in ("direct", "relax"):
        name = f"{solver}_solve"
        monkeypatch.setattr(experiments, name, recording(solver, getattr(experiments, name)))
    rows = experiments.run_table2(cfg)
    monkeypatch.undo()
    solved_rows = {}
    for solver, beta, n_rows in calls:
        solved_rows[solver, beta] = solved_rows.get((solver, beta), 0) + n_rows
    plan, _, _, c_o = experiments._symbols(cfg, cfg.n_symbols)
    pairs = [(solver, beta) for solver in ("direct", "relax") for beta in experiments.BETA_GRID]
    assert [row[:2] for row in rows[1:]] == pairs
    assert len(evaluated) == len(pairs) and set(solved_rows) <= set(pairs)
    last = experiments.BETA_GRID[-1]
    flagged = None
    for (solver, beta), c in zip(pairs, evaluated):
        engine = getattr(experiments, f"{solver}_solve")
        params = experiments.admm_params(cfg, solver=solver, beta=beta)
        _, want, report = engine(c_o, plan, params, cfg.oversample)
        assert np.array_equal(c, want), (solver, beta)
        n_rows = flagged if beta == last else cfg.n_symbols
        assert solved_rows.get((solver, beta), 0) == n_rows, (solver, beta)
        flagged = report.fcpo_active.sum()
    # the stock config binds on a few direct rows at beta 0.15
    assert 0 < solved_rows["direct", last] < cfg.n_symbols


def test_psd_curves_peak_at_zero_db():
    cfg = ExperimentConfig().with_overrides(n_symbols=8, iterations=2)
    rows = experiments.run_psd(cfg)
    peaks = {}
    for label, _, psd_db in rows[1:]:
        peaks[label] = max(peaks.get(label, -np.inf), psd_db)
    assert peaks == {"original": 0.0, "direct": 0.0, "relax": 0.0, "rcf": 0.0}


def test_drivers_skip_per_sweep_lagrangians(monkeypatch):
    # the drivers read no certificate trace, so no sweep may pay for one;
    # the relaxed engine evaluates its initial Lagrangian once per solve
    from papradmm import direct, relax

    calls = {"relax_solve": 0, "relax_lagrangian": 0, "augmented_lagrangian": 0}
    count_calls(monkeypatch, relax, "relax_lagrangian", calls)
    count_calls(monkeypatch, direct, "augmented_lagrangian", calls)
    count_calls(monkeypatch, experiments, "relax_solve", calls)
    cfg = ExperimentConfig().with_overrides(n_symbols=20, iterations=5)
    experiments.run_table2(cfg)
    # at most once per beta: the walk re-solves only the rows flagged before
    assert calls["relax_lagrangian"] <= calls["relax_solve"] <= len(experiments.BETA_GRID)
    assert calls["augmented_lagrangian"] == 0


class TestBench:
    def test_loglog_fit_on_synthetic_data(self):
        sizes = np.array([256.0, 1024.0, 4096.0])
        times = 3e-9 * sizes * np.log2(sizes)
        r_sq, slope = experiments.loglog_fit(sizes, times)
        assert r_sq == pytest.approx(1.0)
        assert slope == pytest.approx(1.0)

    def test_a_stalled_zero_sweep_call_moves_no_estimate(self, monkeypatch):
        # a fake clock: each solve takes 0.1 plus its sweep count, and the
        # third 0-sweep call stalls by 100; each point then reads 1 per sweep
        clock, zero_calls = [0.0], []

        def fake_solve(c_o, plan, params, oversample):
            if params.max_iters == 0:
                zero_calls.append(None)
                clock[0] += 100.0 if len(zero_calls) == 3 else 0.0
            clock[0] += 0.1 + params.max_iters

        monkeypatch.setattr(experiments.time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(experiments, "direct_solve", fake_solve)
        rows = experiments.run_bench(ExperimentConfig())
        assert [row[2] for row in rows[1:]] == pytest.approx([1.0] * len(experiments.BENCH_SIZES))

    def test_each_size_solves_the_driver_symbols_of_its_config(self, monkeypatch):
        # the batch of size n is symbols 0..BENCH_BATCH-1 of the QPSK config
        # with n carriers and max(2, n // 8) free ones, as every driver draws
        seen = {}

        def recording_solve(c_o, plan, params, oversample):
            seen.setdefault(plan.n_carriers, []).append(c_o)

        monkeypatch.setattr(experiments, "direct_solve", recording_solve)
        cfg = ExperimentConfig(seed=7)
        experiments.run_bench(cfg)
        assert sorted(seen) == sorted(experiments.BENCH_SIZES)
        for n, batches in seen.items():
            size_cfg = cfg.with_overrides(n_carriers=n, n_free=max(2, n // 8), constellation="qpsk")
            c_o, plan = _batch(size_cfg, experiments.BENCH_BATCH)
            assert plan.n_free == max(2, n // 8)
            for got in batches:
                assert np.array_equal(got, c_o), n

    def test_bench_loads_no_numpy_random(self):
        # the solve is stubbed: only the symbol draw and the FFT pair run
        import papradmm

        src = str(Path(papradmm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys; from papradmm import experiments; "
            "from papradmm.config import ExperimentConfig; "
            "experiments.direct_solve = lambda *args: None; "
            "experiments.run_bench(ExperimentConfig()); "
            "print([m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["table2", "ber"])
def test_driver_run_loads_no_numpy_ma(command, tmp_path):
    # np.setdiff1d imports numpy.ma through np.unique; CarrierPlan.default
    # builds its data carriers without it
    import papradmm

    src = str(Path(papradmm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from papradmm.cli import main; "
        f"assert main([{command!r}, '--symbols', '4', '--iters', '2', '--out', sys.argv[1]]) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["table2", "ccdf", "psd", "convergence", "ber"])
def test_driver_run_loads_no_numpy_random(command, tmp_path):
    # numpy.random imports secrets, hmac and hashlib (OpenSSL); the data bits
    # come from _pcg64_words, and only ber's noise draws through a Generator,
    # whose seed class is built once per process
    import papradmm

    src = str(Path(papradmm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from papradmm.cli import main; from papradmm import experiments; "
        f"assert main([{command!r}, '--symbols', '4', '--iters', '2', '--out', sys.argv[1]]) == 0; "
        "print([m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules], "
        "experiments._seed_words.cache_info().misses)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    last = out.stdout.strip().splitlines()[-1]
    if command == "ber":
        assert last == "['numpy.random', 'secrets', '_hashlib'] 1"
    else:
        assert last == "[] 0"


def test_import_loads_no_scipy():
    import papradmm

    src = str(Path(papradmm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, papradmm; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
