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


def test_one_exception_class():
    """Every failure is an EdtorusError carrying its code, and `cli.main` maps
    that code to an exit status in its one handler."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    classes = [
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id.endswith(("Exception", "Error")) for base in node.bases)
    ]
    assert classes == ["EdtorusError"]
    main = next(
        node for node in trees["cli.py"].body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    handlers = [ast.unparse(node.type) for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert handlers == ["EdtorusError"]
