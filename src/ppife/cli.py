"""Command-line interface.

Subcommands: solve (single run), convergence (mesh-refinement study),
verify (analytical-property scans). Every `RunConfig` field has a flag of
the same name, read as the field's annotation says. Exit codes: 0 success,
2 config error, 3 numerical failure, 4 verification failure.
"""
from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import (AsymmetricInput, ConfigError, GeometryError, NotConverged,
                     PpifeError, SingularLocalSystem)
from .harness import CONFIG_TYPES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppife",
        description="Immersed finite element solver for elliptic interface problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("solve", "run a single solve"),
                            ("convergence", "run a mesh-refinement study"),
                            ("verify", "run the analytical-property scans")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a key=value config file")
        for key, hint in CONFIG_TYPES.items():
            flag = "--" + key.replace("_", "-")
            if hint is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=key, default=None)
        p.add_argument("--scheme", dest="schemes", default=None,
                       help="alias for --schemes")
    return parser


def _attach_values(argv):
    """`argv` with each flag that takes a value joined to the argument after
    it, as `--flag=value`: argparse reads a value that starts with "-", like
    -pi or -0.1,0,0.5, as a flag of its own."""
    flags = {"--config", "--scheme"} | {"--" + key.replace("_", "-")
                                        for key, hint in CONFIG_TYPES.items() if hint is not bool}
    out, args = [], iter(argv)
    for arg in args:
        value = next(args, None) if arg in flags else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    try:
        config = harness.load_config(args.config, overrides)
        if args.command == "solve":
            harness.cmd_solve(config)
            return EXIT_OK
        if args.command == "convergence":
            harness.cmd_convergence(config)
            return EXIT_OK
        _, ok = harness.cmd_verify(config)
        return EXIT_OK if ok else EXIT_VERIFICATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeometryError, SingularLocalSystem, NotConverged, AsymmetricInput) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PpifeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
