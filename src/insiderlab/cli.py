"""Command line entry point: ``insider-lab run <config.json>`` / ``list``.

Exit codes: 0 all configured checks pass, 1 a check failed, 2 invalid
config, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    CAPS,
    InvalidConfigError,
    check_cap,
    list_experiments,
    load_config,
    run_experiment,
)
from .optimality import DivergenceError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_CONFIG = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insider-lab",
        description="Run configured experiments and emit CSV/JSON results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment config")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--n-paths", type=int, default=None,
                     help="override the config path count")
    run.add_argument("--out", default=None,
                     help="override the output directory")
    run.add_argument("--workers", type=int, default=None,
                     help="process pool size; 1 runs the op in process on "
                          "two threads (default: available cores, at most "
                          f"{CAPS['workers']})")

    sub.add_parser("list", help="list experiment kinds and their config schema")
    return parser


def _check_overrides(args: argparse.Namespace) -> None:
    """Reject a command-line override that no config could make valid."""
    if args.seed is not None and args.seed < 0:
        raise InvalidConfigError("'--seed' must be >= 0")
    if args.n_paths is not None:
        if args.n_paths < 2:
            raise InvalidConfigError("'--n-paths' must be >= 2")
        check_cap("n_paths", args.n_paths, "--n-paths")
    if args.workers is not None:
        if args.workers < 1:
            raise InvalidConfigError("'--workers' must be >= 1")
        check_cap("workers", args.workers, "--workers")


def _run(args: argparse.Namespace) -> int:
    # the overrides are checked before the config is read; the config is
    # read all the same, so that a fault in it is named as well
    errors = []
    try:
        _check_overrides(args)
    except InvalidConfigError as e:
        errors.append(str(e))
    try:
        cfg = load_config(args.config)
    except InvalidConfigError as e:
        errors.append(str(e))
    if errors:
        print(f"invalid config: {'; '.join(errors)}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.n_paths is not None:
        cfg["n_paths"] = args.n_paths
    if args.out is not None:
        cfg["out"] = args.out
    workers = args.workers or min(os.cpu_count() or 1, CAPS["workers"])
    try:
        summary = run_experiment(cfg, workers=workers)
    except InvalidConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except DivergenceError as e:
        print(f"numerical divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED

    for check in summary["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    print(f"{summary['experiment']}: {summary['verdict']}")
    return EXIT_OK if summary["all_pass"] else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return EXIT_OK
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
