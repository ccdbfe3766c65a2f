"""Command-line entry point: run a scenario and write CSV plus a manifest.

Seed precedence: --seed flag, then the config file, then the built-in
default. Power budgets are in dB, on the command line and in config files.
"""

import argparse
import functools
import logging

from .harness import (
    SCHEMES,
    default_config,
    emit_csv,
    load_config_file,
    run_scenario,
    write_manifest,
)
from .oracle import MAX_ORACLE_USERS, OracleGrid


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process: callers must not change it (build_parser.__wrapped__()
    builds a private one)."""
    parser = argparse.ArgumentParser(
        prog="fblopt",
        description=(
            "Monte Carlo evaluation of joint error-probability and power "
            "optimization for a finite-blocklength downlink."
        ),
    )
    parser.add_argument("--config", help="scenario config file (key = value sections)")
    parser.add_argument(
        "--seed", dest="master_seed", type=int, help="master seed (overrides config)"
    )
    parser.add_argument("--trials", dest="n_trials", type=int, help="trials per cell")
    parser.add_argument("--omega", dest="omega_grid", type=float, nargs="+", help="weight grid")
    parser.add_argument("--lgrid", dest="l_grid", type=int, nargs="+", help="block-length grid")
    parser.add_argument(
        "--pmax-db", dest="p_max_grid", type=float, nargs="+", help="power budget grid, dB"
    )
    parser.add_argument("--schemes", nargs="+", choices=SCHEMES, help="schemes to evaluate")
    parser.add_argument("--out", default="results.csv", help="output CSV path")
    parser.add_argument(
        "--oracle",
        type=int,
        nargs=2,
        metavar=("P_POINTS", "EPS_POINTS"),
        help=f"also run the exhaustive grid oracle ({MAX_ORACLE_USERS} users max)",
    )
    parser.add_argument(
        "--jobs", dest="n_jobs", type=int,
        help="processes to run trials on, this one included (default 1)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO)

    # every flag but these two sets the ScenarioConfig field its dest
    # names, and the config's constructor raises on a dest that names none
    overrides = {
        dest: value for dest, value in vars(args).items()
        if value is not None and dest not in ("config", "out")
    }
    if args.oracle is not None:
        overrides["oracle"] = OracleGrid(*args.oracle)
    # the flags join the file's or the default values, and the scenario is
    # built and checked once
    config = load_config_file(args.config, **overrides) if args.config else default_config(**overrides)

    rows = run_scenario(config)
    emit_csv(rows, args.out)
    manifest = write_manifest(config, args.out)
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {manifest})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
