"""Plumbing shared by the ``repro`` subcommand groups.

Each group module builds one :class:`Group` and decorates its handlers
with :meth:`Group.command`, so the flags a handler reads are declared
right above it.  A handler fails by raising: :func:`repro.cli.main`
turns :class:`CommandError` and the store and WAL errors into exit
codes.  Nothing here imports the store or the WAL.
"""

from __future__ import annotations

import argparse
import contextlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One ``add_argument`` call: its positional flags and its keywords.
Arg = Tuple[Tuple[str, ...], Dict[str, Any]]
#: A subcommand handler: parsed arguments in, process exit code out.
Handler = Callable[[argparse.Namespace], int]


def arg(*flags: str, **kwargs: Any) -> Arg:
    """One argument of a :meth:`Group.command`, as ``add_argument`` has it."""
    return flags, kwargs


def one_of(*args: Arg, required: bool = False) -> Arg:
    """A mutually exclusive set of :func:`arg` entries."""
    return (), {"args": args, "required": required}


def _add_arguments(target, args) -> None:
    for flags, kwargs in args:
        if flags:
            target.add_argument(*flags, **kwargs)
        else:
            _add_arguments(target.add_mutually_exclusive_group(
                required=kwargs["required"]), kwargs["args"])


class CommandError(Exception):
    """A failed command: ``main`` prints the message and exits 2."""


#: ``--seed``, shared by every command that builds the world.
SEED = arg("--seed", type=int, default=7, help="world seed")


class Group:
    """The subcommands of ``repro <name>`` (top-level ones when unnamed)."""

    def __init__(self, name: Optional[str] = None,
                 help: Optional[str] = None) -> None:
        self.name = name
        self.help = help
        self.commands: List[Tuple[str, str, Tuple[Arg, ...], Handler]] = []

    def command(self, name: str, help: str,
                *args: Arg) -> Callable[[Handler], Handler]:
        """Register the decorated handler as ``name`` with flags ``args``."""
        def bind(func: Handler) -> Handler:
            self.commands.append((name, help, args, func))
            return func
        return bind

    def register(self, sub) -> None:
        """Add one parser per command to ``sub``, in definition order."""
        if self.name is not None:
            sub = sub.add_parser(self.name, help=self.help).add_subparsers(
                dest=f"{self.name}_command", required=True)
        for name, help, args, func in self.commands:
            parser = sub.add_parser(name, help=help)
            _add_arguments(parser, args)
            parser.set_defaults(func=func)


def print_json(payload: Any) -> None:
    """Print ``payload`` as a ``--format json`` document."""
    print(json.dumps(payload, indent=2, sort_keys=True))


def open_store(path: str, create: bool = False):
    """The store a CLI argument names, closed when the ``with`` exits.

    Raises :class:`~repro.store.StoreError` when it cannot be opened.
    """
    from repro.store import connect, resolve_store_path

    return contextlib.closing(connect(resolve_store_path(path),
                                      create=create))
