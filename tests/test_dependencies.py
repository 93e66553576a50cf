"""numpy stays the only runtime dependency: every module imports only the standard library, numpy or macrosim."""
import ast
import pathlib
import sys

import pytest

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
