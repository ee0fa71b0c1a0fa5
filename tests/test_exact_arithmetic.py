"""No floating point before SVG emission.

Every module of ``octacolor`` but ``svg`` is parsed, and a float literal, a
``float()`` or ``round()`` call, a true division or a ``math`` name other
than ``gcd`` is a finding.  Two uses are exempt, each by name: the one true
division, half of an integer as a ``Fraction`` in ``qform``, and the stage
timer of ``pipeline.Instance.walk``, which rounds wall times.
"""

import ast
from pathlib import Path

import pytest

import octacolor

PACKAGE = Path(octacolor.__file__).parent
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "svg.py")
ALLOWED_DIVISIONS = {("qform.py", "Fraction(total) / 2")}
TIMING_FUNCTIONS = {("pipeline.py", "walk")}


def findings(source: str, filename: str, exempt: bool = True) -> list[str]:
    tree = ast.parse(source, filename)
    timing = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and exempt and (filename, fn.name) in TIMING_FUNCTIONS
              for node in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            what = f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")
              and not (node.func.id == "round" and id(node) in timing)):
            what = f"{node.func.id}() call"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not (exempt and (filename, ast.unparse(node)) in ALLOWED_DIVISIONS):
                what = f"true division {ast.unparse(node)}"
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
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


def test_each_exemption_is_in_use():
    # without the exemptions the scan finds exactly the exempted uses
    found = [f.split(": ", 1)[1] for name in ("pipeline.py", "qform.py")
             for f in findings(_source(name), name, exempt=False)]
    assert sorted(found) == ["round() call", "round() call", "true division Fraction(total) / 2"]


@pytest.mark.parametrize("snippet, what", [
    ("x = 1.5", "float literal 1.5"), ("x = float(3)", "float() call"),
    ("x = round(3)", "round() call"), ("x = 3 / 2", "true division 3 / 2"),
    ("x /= 2", "true division x /= 2"), ("x = math.inf", "math.inf"),
    ("from math import gcd, sqrt", "math.sqrt"),
    ("def walk():\n    return Fraction(total) / 2", "true division Fraction(total) / 2"),
])
def test_an_injected_float_is_found(snippet, what):
    # the scan cannot pass vacuously: each kind is caught in a real module,
    # and an exemption holds only where it is named
    source = _source("cone.py")
    assert findings(source, "cone.py") == []
    lineno = source.count("\n") + 2 + snippet.count("\n")
    assert findings(f"{source}\n{snippet}\n", "cone.py") == [f"cone.py:{lineno}: {what}"]


def test_the_timer_exemption_is_the_walk_alone():
    source = _source("pipeline.py")
    assert findings(source + "\ndef walk():\n    return round(2)\n", "pipeline.py") == []
    lineno = source.count("\n") + 3
    assert findings(source + "\ndef run():\n    return round(2)\n", "pipeline.py") == \
        [f"pipeline.py:{lineno}: round() call"]
