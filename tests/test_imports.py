"""Every import in ``octacolor`` is read.

Every module of the package is parsed, and a name that an import binds
(at module level, inside a function or under ``if TYPE_CHECKING:``) but
that no expression of the module reads is a finding.  ``from __future__
import annotations`` binds no name and is exempt.
"""

import ast
from pathlib import Path

import pytest

import octacolor

PACKAGE = Path(octacolor.__file__).parent
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unread_imports(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append(f"{filename}:{node.lineno}: {alias.name} is never read")
    return out


@pytest.mark.parametrize("filename", SOURCES)
def test_every_import_is_read(filename):
    assert unread_imports((PACKAGE / filename).read_text(encoding="utf-8"), filename) == []


def test_the_scan_finds_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import TYPE_CHECKING\n"
              "from .emg import BLUE, WHITE\n"
              "if TYPE_CHECKING:\n"
              "    from .grid import GridPoint\n"
              "def f(p: GridPoint):\n"
              "    from . import svg as s\n"
              "    return WHITE\n")
    assert unread_imports(source, "m.py") == ["m.py:2: os.path is never read",
                                              "m.py:4: BLUE is never read",
                                              "m.py:8: svg is never read"]
