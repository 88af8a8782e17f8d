"""Command-line front end.

Subcommands mirror the experiment drivers; every run writes one CSV under
``--out`` and prints a one-line summary per result group.  Flag values are
parsed and checked as a config file's are, by
:meth:`ExperimentConfig.with_overrides`.  Exit codes: 0 success,
2 configuration error (a malformed or unknown flag too), 3 numerical failure.
"""

import argparse
import sys
from pathlib import Path

from . import experiments
from .config import ConfigError, ExperimentConfig
from .dsp import DegenerateSymbolError

# The flags that override a configuration key, each with the key it sets
_OVERRIDE_FLAGS = {
    "--beta": "beta", "--alpha-db": "alpha_db", "--rho": "rho", "--rho-tilde": "rho_tilde",
    "--symbols": "n_symbols", "--iters": "iterations", "--seed": "seed",
    "--channel": "channel", "--workers": "workers",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="papradmm",
        description="PAPR reduction experiments: EVM table, CCDF, convergence, BER, PSD, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table2", "EVM of both engines over the beta grid"),
        ("ccdf", "PAPR exceedance curves per solver"),
        ("convergence", "residual-vs-iteration curves and consensus-gap sweep"),
        ("ber", "bit error rate sweep over Eb/N0"),
        ("psd", "post-amplifier emission spectra"),
        ("bench", "per-iteration runtime versus transform size"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="key=value file")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        for flag, key in _OVERRIDE_FLAGS.items():
            cmd.add_argument(flag, dest=key, default=None)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig() if args.config is None else ExperimentConfig.from_file(args.config)
    overrides = {key: getattr(args, key) for key in _OVERRIDE_FLAGS.values()}
    out_dir = None if args.out is None else str(args.out)
    return cfg.with_overrides(out_dir=out_dir, **overrides)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or --help
        return exc.code
    try:
        cfg = load_config(args)
        out_dir = Path(cfg.out_dir)
        if out_dir.exists() and not out_dir.is_dir():
            raise ConfigError(f"output directory {out_dir} exists and is not a directory")
        if args.command == "table2":
            rows = experiments.run_table2(cfg)
            path = experiments.write_csv(out_dir / "table2.csv", rows)
            for solver, beta, evm in rows[1:]:
                print(f"{solver} beta={beta}: EVM {evm:.4f} dB")
        elif args.command == "ccdf":
            rows = experiments.run_ccdf(cfg)
            path = experiments.write_csv(out_dir / "ccdf.csv", rows)
            print(f"{len(rows) - 1} CCDF points over {cfg.n_symbols} symbols")
        elif args.command == "convergence":
            rows = experiments.run_convergence(cfg)
            path = experiments.write_csv(out_dir / "convergence.csv", rows)
            gap_rows = experiments.run_consensus_gap(cfg)
            gap_path = experiments.write_csv(out_dir / "consensus_gap.csv", gap_rows)
            for rho_tilde, gap, ok_frac, feas in gap_rows[1:]:
                print(
                    f"rho_tilde={rho_tilde:g}: median gap {gap:.3e}, "
                    f"bound ok {ok_frac:.3f}, feasible {feas:.3f}"
                )
            print(f"wrote {gap_path}")
        elif args.command == "ber":
            rows = experiments.run_ber(cfg)
            path = experiments.write_csv(out_dir / "ber.csv", rows)
            for solver, chan, ebn0, value, bits in rows[1:]:
                print(f"{solver} {chan} Eb/N0={ebn0:g} dB: BER {value:.3e} ({bits} bits)")
        elif args.command == "psd":
            rows = experiments.run_psd(cfg)
            path = experiments.write_csv(out_dir / "psd.csv", rows)
            print(f"{len(rows) - 1} PSD points")
        elif args.command == "bench":
            rows = experiments.run_bench(cfg)
            path = experiments.write_csv(out_dir / "bench.csv", rows)
            sizes = [row[1] for row in rows[1:]]
            times = [row[2] for row in rows[1:]]
            r_sq, slope = experiments.loglog_fit(sizes, times)
            for n, ln, per_iter, fft_pair in rows[1:]:
                print(f"N={n} (ln={ln}): {per_iter * 1e3:.3f} ms/iter, fft pair {fft_pair * 1e3:.3f} ms")
            print(f"log-log fit against ln*log2(ln): R^2={r_sq:.4f}, slope={slope:.3f}")
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateSymbolError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
