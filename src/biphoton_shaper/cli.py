"""Command-line scenario runner.

    biphoton-shaper run <config.yaml> [--out DIR] [--force] [--seed N]
    biphoton-shaper validate <config.yaml>

Exit codes: 0 success, 1 I/O problems, 2 invalid configuration (the message
names the offending key path), 3 numerical/simulation failure.
"""

import argparse
import sys

from .config import load_config, validate_config
from .errors import ConfigError, ShaperSimError
from .scenarios import emit_outputs, run_scenario_experiments

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton-shaper",
        description="Run desk-scale shaper-assisted entangled-photon experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every experiment of a scenario config")
    run.add_argument("config", help="path to the YAML scenario file")
    run.add_argument("--out", help="output directory (default: config output_dir)")
    run.add_argument("--force", action="store_true",
                     help="overwrite existing output files")
    run.add_argument("--seed", type=int, help="override the config seed")

    val = sub.add_parser("validate", help="check a scenario config and exit")
    val.add_argument("config", help="path to the YAML scenario file")
    return parser


def _load_scenario(path, seed=None):
    tree = load_config(path)
    if seed is not None:
        # the override passes the same checks as the config's own seed
        tree["seed"] = seed
    return validate_config(tree)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _load_scenario(args.config, getattr(args, "seed", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.command == "validate":
        print(f"{args.config}: OK ({len(scenario.experiments)} experiments)")
        return EXIT_OK

    out_dir = args.out if args.out is not None else scenario.output_dir

    try:
        results = run_scenario_experiments(scenario)
    except ShaperSimError as exc:
        print(f"simulation error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        manifest = emit_outputs(results, out_dir, force=args.force)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO

    for result in results:
        print(result.summary)
    print(f"wrote {len(manifest['files']) + 1} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
