"""Rules that the modules' syntax trees keep.

numpy stays the only runtime dependency: every module imports only the
standard library, numpy or macrosim. Only ``_files`` reads and writes JSON and
CSV. Only ``signals`` names a timing: every other module reads the names and
their order from ``signals.TIMINGS``.
"""
import ast
import pathlib
import sys

import pytest

from macrosim.signals import TIMINGS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "macrosim"
SCRIPTS = SRC.parent.parent / "scripts"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "macrosim"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_stdlib_numpy_or_macrosim(module):
    roots = set(_imported_roots(ast.parse(module.read_text(), filename=str(module))))
    assert sorted(roots - ALLOWED) == []


def test_only_the_file_module_reads_and_writes_json_and_csv():
    users = {
        path.name
        for path in [*SRC.glob("*.py"), *SCRIPTS.glob("*.py")]
        if {"json", "csv"} & set(_imported_roots(ast.parse(path.read_text())))
    }
    assert users == {"_files.py"}


def _non_docstring_strings(tree):
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield node.lineno, node.value


def test_only_the_signals_module_names_a_timing():
    """A string such as "red" or "_offset" outside signals.py states the timing layout a second time."""
    found = [
        f"{path.name}:{line}: {text!r}"
        for path in sorted(SRC.glob("*.py")) if path.name != "signals.py"
        for line, text in _non_docstring_strings(ast.parse(path.read_text()))
        if text in TIMINGS or text.endswith(tuple(f"_{name}" for name in TIMINGS))
    ]
    assert found == []
