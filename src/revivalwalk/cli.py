"""Command-line surface.

Subcommands::

    coin-build       build the configured coin, emit its matrix
    coin-order       smallest power of the coin equal to the identity
    walk-run         full trajectory record (optionally + probability CSV)
    walk-period      revival search only
    spectrum         momentum-space eigenvalue sweep
    reproduce-table  replay a bundled golden walk against its frozen table

Exit codes: 0 success (or PASS), 1 golden-table FAIL, 2 config or argument
error (including a walk whose initial positions lead it out of the signed
64-bit coordinate range, a spectrum sweep over its memory budget, and a
walk-run --csv naming the --out file), 3 output error (--out or --csv
cannot be written).
Records are one line of compact JSON, to --out when given, else stdout.
walk-run streams its record and CSV while the walk runs. Files are renamed
into place from ``<path>.partial`` only on success, so a failed command
leaves existing targets as they were; on stdout, a failed walk-run may
leave a partial record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext, suppress

import numpy as np

from .config import ConfigError, build_instance, load_config
from .engine import detect_revival
from .errors import CoordinateOverflowError, OracleTooLargeError
from .golden import reproduce_table
from .linalg import matrix_order
from .records import COMPACT, run_spectrum, run_walk

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@contextmanager
def _output(path: str | None):
    """Text handle for ``path`` (stdout when None), via ``<path>.partial``.

    The partial file replaces ``path`` if the block succeeds and is removed if not.
    """
    if path is None:
        yield sys.stdout
        return
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        with suppress(OSError):
            os.remove(partial)
        raise


def _emit(record: dict, out: str | None) -> None:
    text = json.dumps(record, separators=COMPACT) + "\n"
    with _output(out) as handle:
        handle.write(text)


def _cmd_coin_build(args) -> int:
    coin = load_config(args.config).instance.coin
    record = {
        "schema_version": 1,
        "kind": coin.kind.value,
        "n": coin.n,
        "matrix": [
            [{"re": v.real, "im": v.imag} for v in row] for row in np.asarray(coin.matrix)
        ],
    }
    if coin.phases is not None:
        record["phases"] = list(coin.phases)
    if coin.cycle_length is not None:
        record["cycle_length"] = coin.cycle_length
    _emit(record, args.out)
    return EXIT_OK


def _cmd_coin_order(args) -> int:
    config = load_config(args.config)
    order = matrix_order(config.instance.coin.matrix, args.max_order, config.tolerances.mat)
    _emit(
        {
            "schema_version": 1,
            "order": order,
            "max_order": args.max_order,
            "tolerance": config.tolerances.mat,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_walk_run(args) -> int:
    if None not in (args.out, args.csv) and (
            os.path.realpath(args.out) == os.path.realpath(args.csv)):
        print(f"argument error: --csv {args.csv} is the --out file", file=sys.stderr)
        return EXIT_CONFIG
    config = load_config(args.config)
    csv = nullcontext() if args.csv is None else _output(args.csv)
    with _output(args.out) as out, csv as csv_handle:
        run_walk(config, out, csv_handle)
    return EXIT_OK


def _cmd_walk_period(args) -> int:
    config = load_config(args.config)
    report = detect_revival(build_instance(config), config.max_steps, config.revival_mode)
    _emit(
        {
            "schema_version": 1,
            "period": report.period,
            "mode": report.mode.value,
            "max_steps": config.max_steps,
            "fidelity_series": list(report.fidelity_series),
            "distance_series": list(report.distance_series),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    config = load_config(args.config)
    record = run_spectrum(config, args.samples, seed=args.seed)
    _emit(record, args.out)
    return EXIT_OK


def _cmd_reproduce_table(args) -> int:
    comparison = reproduce_table(args.which)
    _emit(comparison.to_record(), args.out)
    return EXIT_OK if comparison.passed else EXIT_FAIL


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low`` (else a usage error, exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revivalwalk",
        description="Coined lattice walks with coins engineered for exact revivals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True, help="path to a JSON walk config")
        p.add_argument("--out", default=None, help="write the JSON record here instead of stdout")
        p.set_defaults(func=func)
        return p

    add("coin-build", _cmd_coin_build, "build the configured coin and emit its matrix")
    p = add("coin-order", _cmd_coin_order, "find the coin's matrix order")
    p.add_argument("--max-order", type=_int_at_least(1), default=128, help="largest power to try")
    p = add("walk-run", _cmd_walk_run, "run the walk, dumping every state")
    p.add_argument("--csv", default=None, help="also write a per-step probability CSV here")
    add("walk-period", _cmd_walk_period, "search for the revival period")
    p = add("spectrum", _cmd_spectrum, "sweep the momentum propagator's eigenvalues")
    p.add_argument("--samples", type=_int_at_least(2), default=10,
                   help="number of momentum samples")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override the config's sampling seed")
    p = add("reproduce-table", _cmd_reproduce_table,
            "replay a bundled golden walk against its frozen amplitudes", config=False)
    p.add_argument("--which", type=int, required=True, choices=(1, 2, 3),
                   help="which bundled walk to replay")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CoordinateOverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleTooLargeError as exc:  # e.g. spectrum --samples beyond the sweep's budget
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # config files are read by load_config, so this is output
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
