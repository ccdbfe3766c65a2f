"""Command-line entry point: run a scenario and write CSV plus a manifest.

Seed precedence: --seed flag, then the config file, then the FBLOPT_SEED
environment variable, then the built-in default.
"""

import argparse
import logging
from dataclasses import replace

from .harness import (
    SCHEMES,
    default_config,
    emit_csv,
    load_config_file,
    run_scenario,
    write_manifest,
)
from .joint import OracleGrid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblopt",
        description=(
            "Monte Carlo evaluation of joint error-probability and power "
            "optimization for a finite-blocklength downlink."
        ),
    )
    parser.add_argument("--config", help="scenario config file (key = value sections)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--trials", type=int, help="trials per cell")
    parser.add_argument("--omega", type=float, nargs="+", help="weight grid")
    parser.add_argument("--lgrid", type=int, nargs="+", help="block-length grid")
    parser.add_argument("--pmax-db", type=float, nargs="+", help="power budget grid, dB")
    parser.add_argument(
        "--schemes", nargs="+", choices=SCHEMES, help="schemes to evaluate"
    )
    parser.add_argument("--out", default="results.csv", help="output CSV path")
    parser.add_argument(
        "--oracle",
        type=int,
        nargs=2,
        metavar=("P_POINTS", "EPS_POINTS"),
        help="also run the exhaustive grid oracle (3 users max)",
    )
    parser.add_argument("--jobs", type=int, help="worker processes (default 1)")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    config = load_config_file(args.config) if args.config else default_config()

    overrides = {}
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.omega is not None:
        overrides["omega_grid"] = tuple(args.omega)
    if args.lgrid is not None:
        overrides["l_grid"] = tuple(args.lgrid)
    if args.pmax_db is not None:
        overrides["p_max_grid"] = tuple(args.pmax_db)
        overrides["p_max_unit"] = "db"
    if args.schemes is not None:
        overrides["schemes"] = tuple(args.schemes)
    if args.oracle is not None:
        overrides["oracle"] = OracleGrid(p_points=args.oracle[0], eps_points=args.oracle[1])
    if args.jobs is not None:
        overrides["n_jobs"] = args.jobs
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)

    rows = run_scenario(config)
    emit_csv(rows, args.out)
    manifest = write_manifest(config, args.out)
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {manifest})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
