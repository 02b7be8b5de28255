"""The benchmark's answer check, run as a test: every request of every
workload in bench/workloads.py, through bench/worker.py in a fresh process,
plain and traced, must give the exit code and answer recorded in
bench/expected.json.  Nothing under bench/ is written.

Fixtures are the case-study presentations themselves, without the
benchmark's seeded relabelling: bench/record_expected.py requires the
answers to be the same for every relabelling.
"""

import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from edtorus.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "bench"
sys.path.insert(0, str(BENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ under bench/
import run  # noqa: E402  (bench/run.py)
import tracer  # noqa: E402  (bench/tracer.py)
import workloads  # noqa: E402  (bench/workloads.py)

sys.dont_write_bytecode = _write_bytecode

EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))

# deleted with the multiplication-table characters; the tracer reports it missing
STALE_TARGETS = {"monogrp.ComponentGroup.characters"}

# mapped per-layer metrics that read zero on their workload: the stale target,
# and `rep_actions`, which only the oracle calls
ZERO_MAPPED_METRICS = {
    "sylow-cases": {"monogrp.ComponentGroup.rep_actions.self_s"},
    "abelian-session": {"monogrp.ComponentGroup.characters.self_s", "monogrp.ComponentGroup.rep_actions.self_s"},
    "lattice-search": set(),
}


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bench_fixtures")
    paths = {}
    for name, case in workloads.FIXTURE_CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["case", *case, "--format", "json"]) == EXIT_OK
        paths[name] = str(folder / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(json.loads(out.getvalue())["presentation"]), encoding="utf-8")
    return paths


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bench_answers(workload, trace, fixtures):
    requests = workloads.WORKLOADS[workload]
    argvs = [run.resolve(argv, fixtures) for argv in requests]
    env = {**run.worker_env(), "PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, run.WORKER, "--requests", json.dumps(argvs)] + (["--trace"] if trace else []),
        capture_output=True, text=True, timeout=120, env=env, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    replies = lines[1 : 1 + len(argvs)]
    ids = [workloads.request_id(argv) for argv in requests]
    assert run.check_pass(ids, {"replies": replies}, EXPECTED[workload]) == []
    if trace:  # the rest of `bench/run.py --self-test`: which targets and mapped metrics are dead
        final = lines[-1]
        assert final["missing"] == sorted(STALE_TARGETS)
        zero = {m for m in workloads.MAPPED_LAYER_METRICS[workload] if not final["layers"].get(m)}
        assert zero == ZERO_MAPPED_METRICS[workload]


@pytest.mark.parametrize("name", sorted(set(tracer.TARGETS) - STALE_TARGETS))
def test_tracer_target_resolves(name):
    """Each function the traced benchmark wraps is still defined where the
    tracer looks for it: in its module, or on its class for a method."""
    modname, *path = name.split(".")
    owner = importlib.import_module(f"edtorus.{modname}")
    if len(path) == 2:
        owner = vars(owner)[path[0]]
    assert callable(vars(owner).get(path[-1]))
