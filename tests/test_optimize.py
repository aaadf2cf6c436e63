"""``python -O`` cannot change what the package computes.

``-O`` strips ``assert`` statements and sets ``__debug__`` to False; with
neither in ``src/mfk`` the optimized and the plain interpreter run the same
code, so the suite does not need a second run under ``-O``.  A hand-written
``raise AssertionError`` is a self-check by another name and is refused too:
the tests are the verify layer.
"""

import ast
import os

import mfk

PACKAGE = os.path.dirname(os.path.abspath(mfk.__file__))


def test_package_has_no_assert_and_no_debug_flag():
    found = []
    sources = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "cli.py" in sources
    for name in sources:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}: assert")
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                found.append(f"{name}:{node.lineno}: __debug__")
            elif isinstance(node, ast.Raise) and "AssertionError" in {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
                found.append(f"{name}:{node.lineno}: raise AssertionError")
    assert found == []
