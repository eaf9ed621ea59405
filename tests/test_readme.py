"""README names every public name, every command-line option and every
exit code, so a user can find each of them there."""
import argparse
import re
from pathlib import Path

import pytest

import graphbpe
from graphbpe import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def named(word: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", README) is not None


def long_options() -> list[str]:
    """Every long option of the top-level parser and of each subcommand."""
    parser = cli._build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    return sorted({
        option
        for each in parsers
        for action in each._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    })


@pytest.mark.parametrize("name", graphbpe.__all__)
def test_every_public_name_is_documented(name):
    assert named(name)


@pytest.mark.parametrize("option", long_options())
def test_every_long_option_is_documented(option):
    assert named(option)


def test_every_exit_code_is_documented():
    codes = (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_PARSE, cli.EXIT_FORMAT)
    assert codes == (0, 2, 3, 4)
    listing = README[README.index("Exit codes:"):]
    listing = listing[: listing.index("\n\n")]
    for code in codes:
        assert f"`{code}`" in listing
