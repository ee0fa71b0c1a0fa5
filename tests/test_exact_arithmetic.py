"""No floating point before SVG emission.

Every module of ``octacolor`` but ``svg`` is parsed, and a float literal, a
``float()`` or ``round()`` call, a true division or a ``math`` name other
than ``gcd`` is a finding, with no exemption: half of an odd integer is
``Fraction(total, 2)``, and stage times are integer microseconds.
"""

import ast
from pathlib import Path

import pytest

import octacolor

PACKAGE = Path(octacolor.__file__).parent
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "svg.py")


def findings(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    out = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            what = f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            what = f"{node.func.id}() call"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = f"true division {ast.unparse(node)}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr != "gcd"):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            what = ", ".join(f"math.{a.name}" for a in node.names if a.name != "gcd") or None
        if what:
            out.append(f"{filename}:{node.lineno}: {what}")
    return out


def _source(name: str) -> str:
    return (PACKAGE / name).read_text()


def test_no_float_before_svg_emission():
    assert {"cone.py", "geometry.py", "mesh.py", "pipeline.py", "qform.py"} <= set(SOURCES)
    assert "svg.py" not in SOURCES
    assert [f for name in SOURCES for f in findings(_source(name), name)] == []


@pytest.mark.parametrize("snippet, what", [
    ("x = 1.5", "float literal 1.5"), ("x = float(3)", "float() call"),
    ("x = round(3)", "round() call"), ("x = 3 / 2", "true division 3 / 2"),
    ("x /= 2", "true division x /= 2"), ("x = math.inf", "math.inf"),
    ("from math import gcd, sqrt", "math.sqrt"),
    ("def walk():\n    return Fraction(total) / 2", "true division Fraction(total) / 2"),
])
def test_an_injected_float_is_found(snippet, what):
    # the scan cannot pass vacuously: each kind is caught in a real module
    source = _source("cone.py")
    assert findings(source, "cone.py") == []
    lineno = source.count("\n") + 2 + snippet.count("\n")
    assert findings(f"{source}\n{snippet}\n", "cone.py") == [f"cone.py:{lineno}: {what}"]

