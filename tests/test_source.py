"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import ffb

SRC = Path(ffb.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/ffb: {found}"


def test_no_quadratic_convolution():
    # every cyclic convolution goes through repfn._cyclic_convolve
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "convolve"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name == "convolve" for alias in node.names))
    ]
    assert not found, f"numpy.convolve in src/ffb: {found}"
