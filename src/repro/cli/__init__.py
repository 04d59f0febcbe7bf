"""Command-line interface: ``python -m repro <command>``.

Small operational entry points for exploring the reproduction without
writing code, one module per group of subcommands:

* :mod:`repro.cli.monitor` — ``world-info``, ``catalog``, ``generate``,
  ``map`` and ``monitor`` (the simulated bus fleet);
* :mod:`repro.cli.obs`     — ``obs report|watch|diff`` over telemetry;
* :mod:`repro.cli.sweep`   — ``sweep run|status|merge|list``;
* :mod:`repro.cli.serve`   — ``serve run|loadgen|replay|cluster``;
* :mod:`repro.cli.store`   — ``store init|import|query|report|compact``.

:data:`DISPATCH` maps each top-level word to its group module, so
``main`` imports and registers only the invoked command's parser: a
``repro serve run`` process never loads the simulation commands, and a
``repro monitor`` run builds two of the CLI's 26 parsers.
No arguments, ``--help``, ``--version`` or an unknown word get the full
parser, so usage and error messages list every command.

``repro --version`` prints the package version (from installed
metadata when available, else the source tree's ``__version__``).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional, Tuple

from repro.cli.common import CommandError

__all__ = ["DISPATCH", "build_parser", "main", "package_version"]

#: The ``repro.cli`` module of each top-level word, in ``repro --help``
#: order.
DISPATCH = {
    "world-info": "monitor",
    "catalog": "monitor",
    "generate": "monitor",
    "map": "monitor",
    "monitor": "monitor",
    "obs": "obs",
    "sweep": "sweep",
    "serve": "serve",
    "store": "store",
}


def package_version() -> str:
    """The installed package version, else the source ``__version__``.

    ``importlib.metadata`` answers for a pip-installed tree; running
    straight off ``PYTHONPATH=src`` (the repo's usual mode) has no
    installed distribution, so fall back to the package attribute.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except (ImportError, PackageNotFoundError):
        import repro

        return getattr(repro, "__version__", "unknown")


class _VersionAction(argparse.Action):
    """``--version`` that resolves :func:`package_version` only when given.

    ``importlib.metadata`` scans the installed distributions; resolving
    the version while building the parser would charge that to every
    command, ``serve run`` included.
    """

    def __init__(self, option_strings, dest=argparse.SUPPRESS,
                 default=argparse.SUPPRESS,
                 help="show program's version number and exit"):
        super().__init__(option_strings, dest=dest, default=default,
                         nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {package_version()}")
        parser.exit()


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    With ``command`` one of :data:`DISPATCH`'s words, only that word's
    group module is imported and only its parser is registered; any
    other value (``None`` included) gives the full parser with every
    subcommand wired.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiScape (IMC 2011) reproduction toolkit",
    )
    parser.add_argument("--version", action=_VersionAction)
    only = command if command in DISPATCH else None
    # A one-command parser's usage line still lists every command.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(DISPATCH) + "}" if only else None)
    modules = [DISPATCH[only]] if only else dict.fromkeys(DISPATCH.values())
    for module in modules:
        group = importlib.import_module(f"repro.cli.{module}").COMMANDS
        group.register(sub, only=only)
    return parser


def _error_exit(exc: Exception) -> Optional[Tuple[str, int]]:
    """The message and exit code of an expected failure, else None.

    The store, schema and WAL error types are looked up in
    ``sys.modules`` rather than imported: a module that was never
    loaded raised nothing, and importing the store would load
    ``sqlite3`` into ``serve run``.
    """
    wal = sys.modules.get("repro.serve.wal")
    if wal is not None and isinstance(exc, wal.WalCorruptionError):
        return f"WAL is corrupt: {exc}", 1
    db = sys.modules.get("repro.store.db")
    schema = sys.modules.get("repro.store.schema")
    if (isinstance(exc, CommandError)
            or (db is not None and isinstance(exc, db.StoreError))
            or (schema is not None and isinstance(exc, schema.SchemaError))):
        return str(exc), 2
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Report-style output piped into `head`/`less` that exits early;
        # redirect stdout so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        failure = _error_exit(exc)
        if failure is None:
            raise
        print(failure[0], file=sys.stderr)
        return failure[1]

