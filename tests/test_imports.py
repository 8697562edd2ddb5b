"""Every name a package module imports is read somewhere in that module.

A module is parsed with `ast`; an imported name that no `ast.Name` node
reads is an import left behind by a deleted caller. There is no escape
comment: a re-export needs a reader too.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "orderlab"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from x import a, b\n"
        "b()\n"
        "np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "a (line 3)"]
