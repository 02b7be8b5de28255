"""Invariants in the package are explicit checks that hold under `python -O`."""

import ast
import collections
import os
import subprocess
import sys
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
    that code to an exit status; its one other handler maps a MemoryError,
    which the package never raises, to BUDGET_EXCEEDED."""
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
    assert handlers == ["MemoryError", "EdtorusError"]


def test_one_step_limit():
    """Every search reads the one step limit, `monogrp.MAX_STEPS`, at its check:
    no function takes a budget parameter, and no module keeps its own limit."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    params = [
        f"{name}:{node.name}({arg.arg})"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg in {"budget", "box_budget", "node_budget", "max_steps"}
    ]
    assert params == []
    context_vars = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ContextVar")
    ]
    assert context_vars == ["monogrp.py"]
    limits = [
        f"{name}:{target.id}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and ("BUDGET" in target.id or "STEPS" in target.id)
        and not target.id.startswith("EXIT_")
    ]
    assert limits == ["cli.py:MAX_STEPS_ENV", "monogrp.py:DEFAULT_MAX_STEPS", "monogrp.py:MAX_STEPS"]
    # the default is spelled once, as DEFAULT_MAX_STEPS
    spelled = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Constant, ast.BinOp)) and ast.unparse(node) in {"10 ** 8", "100000000"}
    ]
    assert spelled == ["monogrp.py"]


def _referenced(node) -> collections.Counter:
    """How often each name is read below `node`: as a name, an attribute or an import."""
    return collections.Counter(
        name
        for sub in ast.walk(node)
        for name in (
            [sub.id] if isinstance(sub, ast.Name)
            else [sub.attr] if isinstance(sub, ast.Attribute)
            else [alias.name for alias in sub.names] if isinstance(sub, ast.ImportFrom)
            else []
        )
    )


def test_no_test_only_surface():
    """Every public top-level function and class, and every public method of a
    class, is used in the package outside its own definition: not only exported
    by `__init__` or used by the tests."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    del trees["__init__.py"]
    everywhere = sum((_referenced(tree) for tree in trees.values()), collections.Counter())
    unused = [
        f"{module}:{member.name}"
        for module, tree in trees.items()
        for node in tree.body
        for member in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]
        if isinstance(member, (ast.FunctionDef, ast.ClassDef))
        and not member.name.startswith("_")
        and everywhere[member.name] == _referenced(member)[member.name]
    ]
    assert unused == []


def test_import_loads_no_numpy_and_no_oracle():
    """`import edtorus` loads neither numpy nor the oracle, numpy's one user
    in the package: only importing `edtorus.oracle` does, as `edtorus.cli`
    does.  Checked in a fresh interpreter, since this suite imports both."""
    src = str(Path(edtorus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, edtorus; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy' or m == 'edtorus.oracle'))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_cli_import_loads_no_fractions():
    """The CLI reads and writes JSON coefficients as reduced integer pairs:
    `import edtorus.cli` loads neither `fractions` nor, through it, `decimal`.
    Checked in a fresh interpreter, since this suite's references use both."""
    src = str(Path(edtorus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, edtorus.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_stabilizer_oracle_loads_no_numpy_random():
    """`oracle.ff_stabilizer` draws its trial points with the standard
    library's `random`: a call leaves `numpy.random` unloaded.  Checked in a
    fresh interpreter, since this suite imports it."""
    src = str(Path(edtorus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys; from edtorus import oracle; from edtorus.pipeline import so_case; "
        "print(oracle.ff_stabilizer(so_case(1).presentation).min_order, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "2 False"), proc.stderr
