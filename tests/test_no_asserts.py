"""Invariants in src/ must be real errors: python -O strips assert statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
