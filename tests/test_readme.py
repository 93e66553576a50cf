"""README.md against the code: its commands parse, its flags exist, its imports resolve and its Python blocks run.

Nothing here starts a command; the Python blocks run in this process, from the repository root.
"""
import argparse
import importlib
import pathlib
import re
import shlex

import pytest

from macrosim.cli import FLAG_FLOORS, _build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)  # (language, body) of every fenced block
PROSE = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)
COMMANDS = [words[1:] for _, body in BLOCKS for line in body.replace("\\\n", " ").splitlines()
            if (words := shlex.split(line, comments=True))[:1] == ["macrosim"]]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_every_command_parses(argv):
    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: macrosim {shlex.join(argv)}")


def test_the_quick_start_shows_every_pipeline_command():
    assert {"calibrate-fd", "simulate", "gen-dataset", "train-surrogate", "optimize"} <= {a[0] for a in COMMANDS}


def test_every_flag_named_in_backticks_is_an_option():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices.values()
    options = {option for command in commands for action in command._actions for option in action.option_strings}
    named = {flag for span in re.findall(r"`([^`]+)`", PROSE) for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    assert "--seed" in named
    assert sorted(named - options) == []


def test_the_floor_table_is_flag_floors():
    table = re.findall(r"^\| `--(\w+)` \| (-?\d+) \|$", README, re.M)
    assert {flag: int(floor) for flag, floor in table} == FLAG_FLOORS


def test_every_import_resolves():
    imports = re.findall(r"from (macrosim[\w.]*) import ([\w, ]+)", README)
    assert imports
    for module, names in imports:
        for name in names.split(","):
            assert hasattr(importlib.import_module(module), name.strip()), f"from {module} import {name.strip()}"


def test_every_python_block_runs(monkeypatch):
    sources = [body for language, body in BLOCKS if language == "python"]
    assert sources
    monkeypatch.chdir(ROOT)
    for source in sources:
        exec(compile(source, "README.md", "exec"), {"__name__": "readme"})
