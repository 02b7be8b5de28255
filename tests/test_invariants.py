"""Invariants in the package are explicit checks that hold under `python -O`."""

import ast
from pathlib import Path

import edtorus

SOURCES = sorted(Path(edtorus.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"monogrp.py", "pipeline.py", "zlat.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
