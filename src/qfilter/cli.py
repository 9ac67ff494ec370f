"""Command-line front end.

Subcommands: master, simulate, filter, ensemble, classical, verify.
Exit codes: 0 success, 1 validation, usage, file-system or out-of-memory error,
2 numerical failure.
All randomness flows from --seed (default 0); outputs land under --out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

# ensemble, classical and verify are imported by the commands that run them.
from . import io as qio
from .config import ConfigError, RunConfig, parse_config
from .linalg import NumericalError
from .master import integrate_master
from .trajectory import filter_record, simulate_record

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the validation code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfilter",
        description=(
            "Quantum filtering simulator for quadrature and photon-counting "
            "measurements with coherent-state input fields."
        ),
        epilog=(
            "File formats: config is JSON (complex entries as [re, im]; matrices as "
            "flat row-major lists of [re, im] pairs). State CSVs have columns "
            "t,<observables...>,trace,purity[,innovations]. Record CSVs start with "
            "the line 'kind,dt,steps', a metadata row, then one increment per line. "
            "All CSVs are UTF-8 with LF line endings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")

    def add_common(p):
        p.add_argument("--config", required=True, help="path to JSON run config")
        add_seed(p)
        p.add_argument("--out", default=".", help="output directory (default current)")

    add_common(sub.add_parser("master", help="integrate the coherent-state master equation"))
    add_common(sub.add_parser("simulate", help="simulate a measurement record and its filter path"))
    add_common(sub.add_parser("filter", help="replay the filter on the configured stored record"))
    p_ens = sub.add_parser("ensemble", help="Monte Carlo ensemble vs the master equation")
    add_common(p_ens)
    p_ens.add_argument("--trajectories", type=int, default=100, help="trajectory count N")
    add_common(sub.add_parser("classical", help="classical particle-filter benchmark"))
    p_ver = sub.add_parser("verify", help="run the operator-algebra identity suites")
    add_seed(p_ver)
    p_ver.add_argument(
        "--dims-check", action="store_true", help="extend the qprob suite to dimension 8"
    )
    return parser


def _out_path(args, cfg: RunConfig, key: str) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / cfg.outputs[key]


def cmd_master(args, cfg: RunConfig) -> int:
    states = integrate_master(cfg.model, cfg.beta, cfg.rho0, cfg.grid)
    qio.write_states_csv(_out_path(args, cfg, "master"), cfg.grid.times(), states, cfg.observables)
    return EXIT_OK


def _write_filter_path(args, cfg: RunConfig, states, innovations) -> None:
    qio.write_states_csv(
        _out_path(args, cfg, "states"), cfg.grid.times(), states, cfg.observables,
        innovations=np.concatenate([[0.0], np.cumsum(innovations)]),
    )


def cmd_simulate(args, cfg: RunConfig) -> int:
    record, states, innov = simulate_record(
        cfg.model, cfg.beta, cfg.rho0, cfg.measurement, cfg.grid, args.seed
    )
    qio.write_record_csv(_out_path(args, cfg, "record"), record)
    _write_filter_path(args, cfg, states, innov)
    return EXIT_OK


def cmd_filter(args, cfg: RunConfig) -> int:
    record_path = Path(args.out) / cfg.outputs["record"]  # a failed filter creates no --out
    if not record_path.exists():
        raise ConfigError(str(record_path), "record file does not exist; run simulate first")
    record = qio.read_record_csv(record_path)
    if record.kind != cfg.measurement:
        raise ConfigError(
            "measurement",
            f"record kind {record.kind!r} does not match configured kind {cfg.measurement!r}",
        )
    if record.grid != cfg.grid:
        raise ConfigError("grid", f"record {record.grid} does not match configured {cfg.grid}")
    states, innov = filter_record(cfg.model, cfg.beta, cfg.rho0, record)
    _write_filter_path(args, cfg, states, innov)
    return EXIT_OK


def cmd_ensemble(args, cfg: RunConfig) -> int:
    if args.trajectories < 1:
        raise ValueError(f"--trajectories: must be >= 1, got {args.trajectories}")
    from .ensemble import run_ensemble
    columns = run_ensemble(
        cfg.model, cfg.beta, cfg.rho0, cfg.measurement, cfg.grid, args.trajectories,
        master_seed=args.seed, observables=cfg.observables,
    )
    qio.write_ensemble_outputs(
        _out_path(args, cfg, "ensemble_summary"), _out_path(args, cfg, "ensemble_series"),
        columns, args.trajectories, args.seed, cfg.measurement,
    )
    return EXIT_OK


def cmd_classical(args, cfg: RunConfig) -> int:
    if cfg.classical is None:
        raise ConfigError("classical", "config has no 'classical' section")
    from .classical import run_benchmark
    columns = run_benchmark(cfg.grid, args.seed, **cfg.classical)
    qio.write_classical_csv(_out_path(args, cfg, "classical"), cfg.grid.times(), columns)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import full_suite
    results = full_suite(seed=args.seed, dims_check=args.dims_check)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} identity checks failed")
        return EXIT_NUMERICAL
    print(f"all {len(results)} identity checks passed")
    return EXIT_OK


def dispatch(args) -> int:
    # mix_seed works modulo 2**64, where a larger seed would alias a smaller one.
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed: must be in [0, 2**64), got {args.seed}")
    if args.command == "verify":
        return cmd_verify(args)
    cfg = parse_config(args.config)
    handler = {
        "master": cmd_master,
        "simulate": cmd_simulate,
        "filter": cmd_filter,
        "ensemble": cmd_ensemble,
        "classical": cmd_classical,
    }[args.command]
    return handler(args, cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # each loop rejects non-finite values, naming the step
            return dispatch(args)
    except (ValueError, OSError) as exc:
        # An OSError when e.g. --config names a directory, or --out lies below a file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # The size that fails depends on d, N and the machine, so no config key is named.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, ArithmeticError) as exc:  # a float overflow or division by zero too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
