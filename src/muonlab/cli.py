"""Command line interface.

Subcommands: ``run`` (execute an experiment and write a CSV trace),
``verify`` (property-check suites), ``bound`` (print the convergence bound).
Exit codes: 0 success, 1 property failure, 2 config error (or an output
that cannot be written or allocated), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, linalg, optim

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muonlab",
        description="Non-Euclidean subgradient methods, compression "
                    "operators, and adversarial non-convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write a CSV trace")
    p_run.add_argument("--config", help="path to a JSON experiment config")
    p_run.add_argument("--preset", choices=sorted(harness.PRESETS),
                       help="named preset config (overridden by --config fields)")
    p_run.add_argument("--out", default="trace.csv", help="output CSV path")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--polar", choices=("exact", "ns"),
                       help="polar factor backend")

    p_verify = sub.add_parser("verify", help="run a property-check suite")
    p_verify.add_argument("suite", choices=sorted(harness.SUITES))
    p_verify.add_argument("--trials", type=int, default=None,
                          help="override the suite's trial count")

    p_bound = sub.add_parser("bound", help="print the error-feedback convergence bound")
    p_bound.add_argument("--T", type=int, required=True)
    for name in ("delta", "beta", "sigma", "dist0"):
        p_bound.add_argument(f"--{name}", type=float, required=True)
    return parser


def cmd_run(args) -> int:
    if args.config is None and args.preset is None:
        print("error: run needs --config and/or --preset", file=sys.stderr)
        return EXIT_CONFIG
    cfg = harness.PRESETS[args.preset]() if args.preset else {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"error: config parse failure at line {exc.lineno}, "
                  f"column {exc.colno}: {exc.msg}", file=sys.stderr)
            return EXIT_CONFIG
        except (OSError, ValueError) as exc:  # bad UTF-8, or an integer past 4300 digits
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(loaded, dict):
            print(f"error: config must be a JSON object, not {type(loaded).__name__}",
                  file=sys.stderr)
            return EXIT_CONFIG
        cfg.update(loaded)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.polar is not None:
        cfg["polar"] = args.polar
    try:
        trace, bound, resolved = harness.run_experiment(cfg)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        harness.write_csv(args.out, trace, bound)
        harness.write_sidecar(args.out, resolved)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {len(trace)} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = harness.SUITES[args.suite]
    if args.trials is not None:
        if args.suite not in harness.TRIAL_ARGS:
            print(f"error: suite {args.suite!r} has no trial count; "
                  f"--trials applies to {', '.join(sorted(harness.TRIAL_ARGS))}",
                  file=sys.stderr)
            return EXIT_CONFIG
        if args.trials < 1:
            print("error: --trials must be at least 1", file=sys.stderr)
            return EXIT_CONFIG
    results = suite() if args.trials is None else suite(trials=args.trials)
    failed = 0
    for res in results:
        print(res.line())
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_PROPERTY


def cmd_bound(args) -> int:
    try:
        value = optim.efm_bound(args.T, args.delta, args.beta, args.sigma, args.dist0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("%.17g" % value)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "verify": cmd_verify, "bound": cmd_bound}[args.command]
    try:
        return handler(args)
    except linalg.NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a run, CSV or suite too large for this machine
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
