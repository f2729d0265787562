"""The README's Python quick start runs as documented, and its CLI flags are the parser's."""

import argparse
import re
import warnings
from pathlib import Path

import numpy as np

from mslca.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading):
    """The README text from ``heading`` up to the next second-level heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def _quick_start_block():
    section = _section("## Library quick start")
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs():
    namespace = {"__name__": "readme_quick_start"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(_quick_start_block(), str(README), "exec"), namespace)
    # the values the block's comments state
    np.testing.assert_allclose(namespace["solution"].rho, [0.8, -0.8], atol=1e-12)
    assert 0.0 <= namespace["report"].p_value <= 1.0


def test_readme_command_line_flags_are_the_parsers():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _section("## Command line")))
    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        option
        for command in subparsers.choices.values()
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == accepted
