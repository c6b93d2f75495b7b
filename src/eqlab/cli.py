"""Command-line interface: run experiment suites, print constants, quick identity checks.

Exit status: 0 when every guaranteed bound is satisfied, 2 when any fails,
1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigInvalidError, DimensionOverflowError, EqlabError
from .runner import ExperimentConfig, all_bounds_satisfied, emit, run_experiment
from .verifiers import CONSTANTS, identity_checks


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigInvalidError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _apply_override(doc: dict, key: str, value: object) -> None:
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigInvalidError(f"--set path {key!r} crosses a non-object field")
    node[parts[-1]] = value


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigInvalidError(f"--workers: must be >= 1, got {args.workers}")
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        raise ConfigInvalidError(f"config {args.config!r}: must be an object, got {doc!r}")
    for override in args.set or []:
        key, value = _parse_override(override)
        _apply_override(doc, key, value)
    config = ExperimentConfig.from_dict(doc)
    base = config.output_path
    directory = os.path.dirname(base) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        # Refused before any trial runs, with the error `emit` would raise after them.
        raise OSError(
            f"failed writing csv output to {base + '.csv'!r}: "
            f"{directory!r} is not a writable directory"
        )
    records = run_experiment(config, workers=args.workers)
    emit(records, "csv", base + ".csv", include_walltime=args.walltime)
    emit(records, "json", base + ".json", include_walltime=args.walltime)
    ok = all_bounds_satisfied(records)
    print(
        f"{config.experiment}: {len(records)} records "
        f"(config {config.config_hash()}) -> {base}.csv, {base}.json; "
        f"{'all bounds satisfied' if ok else 'BOUND VIOLATION'}"
    )
    return 0 if ok else 2


def _cmd_constants(_args) -> int:
    print(f"c        = {CONSTANTS.c!r}   [(ln 2)^2 / (72 pi^3)]")
    print(f"c_prime  = {CONSTANTS.c_prime!r}   [2 / (9 pi^3)]")
    print(f"c_dprime = {CONSTANTS.c_double_prime!r}   [1 / (128 pi^2)]")
    return 0


def _cmd_check_identities(args) -> int:
    if not 0 <= args.seed < 2**64:  # the range of master_seed
        raise ConfigInvalidError(f"--seed: must be an integer in [0, 2^64), got {args.seed}")
    checks = identity_checks(np.random.default_rng(args.seed))
    swap = checks["swap_identity_max_dev"]
    moment = checks["haar_pair_moment_dev"]
    print(f"swap trace identity: max deviation {swap.empirical:.3e} "
          f"({'ok' if swap.satisfied else 'FAIL'})")
    print(f"haar pair moment:    max deviation {moment.empirical:.3e} at "
          f"{moment.metadata['trials']} trials ({'ok' if moment.satisfied else 'FAIL'})")
    return 0 if swap.satisfied and moment.satisfied else 2


def _cmd_version(_args) -> int:
    print(f"eqlab {__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eqlab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("--config", required=True, help="path to a JSON config document")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config field (dotted paths allowed)")
    run.add_argument("--workers", type=int, default=1, help="worker processes for trials (>= 1)")
    run.add_argument("--walltime", action="store_true",
                     help="emit measured wall times (breaks byte-identical reruns)")
    run.set_defaults(func=_cmd_run)

    constants = sub.add_parser("constants", help="print the concentration constants")
    constants.set_defaults(func=_cmd_constants)

    check = sub.add_parser("check-identities", help="quick SWAP + pair-moment suite")
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_check_identities)

    version = sub.add_parser("version", help="print the package version")
    version.set_defaults(func=_cmd_version)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigInvalidError, DimensionOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EqlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
