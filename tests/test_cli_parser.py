"""The ``repro`` parser tree against a recorded structure fixture.

``tests/data/cli_parsers.json`` holds every parser of the CLI -- the
top level, each subcommand group and each leaf -- with each action's
option strings, dest, default, type, choices, required flag, nargs,
metavar and help, in registration order.  Comparing the structure
instead of ``--help`` text keeps the check independent of the Python
version, whose help formatting differs.  ``main`` builds only the
invoked command's parser (``repro.cli.DISPATCH``); each of those is
checked against its subtree of the full parser, so the fixture covers
them too.  Regenerate the fixture only for a deliberate CLI change::

    PYTHONPATH=src python -m tests.test_cli_parser > tests/data/cli_parsers.json
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro.cli import DISPATCH, build_parser

FIXTURE = Path(__file__).parent / "data" / "cli_parsers.json"


def _action(action):
    choices = action.choices
    record = {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": repr(action.default),
        "const": repr(action.const),
        "type": getattr(action.type, "__name__", None),
        "choices": list(choices) if choices is not None else None,
        "required": action.required,
        "nargs": action.nargs,
        "metavar": action.metavar,
        "help": action.help,
    }
    if isinstance(action, argparse._SubParsersAction):
        record["choices_help"] = [[a.dest, a.help]
                                  for a in action._choices_actions]
    return record


def dump_parsers(parser, out=None):
    """``{prog: structure}`` for ``parser`` and every parser below it."""
    out = {} if out is None else out
    out[parser.prog] = {
        "description": parser.description,
        "actions": [_action(a) for a in parser._actions],
        "exclusive": [
            {"required": g.required,
             "dests": [a.dest for a in g._group_actions]}
            for g in parser._mutually_exclusive_groups
        ],
    }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                dump_parsers(child, out)
    return out


def test_parser_tree_matches_fixture():
    expected = json.loads(FIXTURE.read_text())
    # ``serve run --uvloop`` and ``--seed`` were removed after the
    # fixture was recorded.
    serve_run = expected["repro serve run"]
    serve_run["actions"] = [a for a in serve_run["actions"]
                            if a["dest"] not in ("uvloop", "seed")]
    actual = dump_parsers(build_parser())
    assert list(actual) == list(expected)
    assert len(actual) == 26  # top level, 4 groups, 21 commands
    for prog, structure in expected.items():
        assert actual[prog] == structure, prog


def test_dispatch_table_lists_every_top_level_command():
    full = build_parser()
    choices = next(a.choices for a in full._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert list(choices) == list(DISPATCH)


def _subtree(dump, word):
    prog = f"repro {word}"
    return {name: structure for name, structure in dump.items()
            if name == prog or name.startswith(prog + " ")}


@pytest.mark.parametrize("word", list(DISPATCH))
def test_command_parser_is_its_subtree_of_the_full_parser(word):
    lazy = dump_parsers(build_parser(word))
    full = dump_parsers(build_parser())
    assert _subtree(lazy, word) and _subtree(lazy, word) == _subtree(full,
                                                                      word)
    # Nothing but the top level and the invoked command's tree.
    assert set(lazy) == {"repro"} | set(_subtree(lazy, word))


@pytest.mark.parametrize("word", [None, "--help", "--version",
                                  "no-such-command"])
def test_other_words_get_the_full_parser(word):
    assert dump_parsers(build_parser(word)) == dump_parsers(build_parser())


if __name__ == "__main__":
    json.dump(dump_parsers(build_parser()), sys.stdout, indent=1)
    sys.stdout.write("\n")
