"""Canonical CLI output, byte-compared against checked-in files.

Each entry of GOLDEN names a file under tests/golden/ and the CLI argv whose
stdout it holds: a bare argv runs with `--format json` and must exit 0, and a
`Golden` entry gives its own format and exit code (a `--format table` file is
name.txt).  `@name` stands for the presentation tests/golden/inputs/
name.json.  For the names in INPUTS that file is the `presentation` field of
`edtorus case ... --format json`.  Two inputs are written by hand:
`so_1_char` is the `case so 1` presentation plus one weight-zero line on
which generator 1 acts by 1/2 and generator 2 by 0, a block whose
denominator does not divide e = 1; `gm_times_z2` is G_m x Z/2, split, with
Z/2 acting trivially on the lattice (eta is 2, one above its SymRank).

Regenerate (only for a deliberate output change, noted in CHANGES.md) every
input and golden file, or only the named golden files:

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py eta_so_2 eta_sl_9_3
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from edtorus.cli import EXIT_INCONCLUSIVE, EXIT_OK, build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"
INPUTS = {
    "sl_9_3": ["sl", "9", "3"],
    "so_2": ["so", "2"],
    "sl_7_2": ["sl", "7", "2"],
    "sl_7_3": ["sl", "7", "3"],
}


class Golden(NamedTuple):
    argv: list
    fmt: str = "json"
    code: int = EXIT_OK


GOLDEN = {
    "ed_case_sl_9_2": ["ed", "case", "sl", "9", "2"],
    "ed_case_sl_10_3": ["ed", "case", "sl", "10", "3"],
    "ed_case_sl_7_2": ["ed", "case", "sl", "7", "2"],
    "ed_case_so_1": ["ed", "case", "so", "1"],
    "ed_case_so_2": ["ed", "case", "so", "2"],
    # |F| = 256
    "ed_case_sl_16_2": ["ed", "case", "sl", "16", "2"],
    # |F| = 1024: the pipeline at the size of the Weyl-group Sylow cases
    "ed_case_so_5": ["ed", "case", "so", "5"],
    "table_sl_8_2": ["table", "sl", "8", "2"],
    "case_sl_9_2": ["case", "sl", "9", "2"],
    "case_so_2": ["case", "so", "2"],
    **{
        f"{cmd}_{name}": [cmd, "@" + name]
        for name in ("sl_9_3", "so_2")
        for cmd in ("validate", "stabilizer", "eta", "ed")
    },
    # the engine requests of the lattice-search benchmark: symrank witnesses
    "symrank_sl_7_2": ["symrank", "@sl_7_2", "-B", "1"],
    "symrank_sl_7_3": ["symrank", "@sl_7_3", "-B", "1"],
    "symrank_so_2": ["symrank", "@so_2", "-B", "2"],
    "eta_so_2_norep": ["eta", "@so_2", "--rep", "none", "-B", "2"],
    **{f"{cmd}_so_1_char": [cmd, "@so_1_char"] for cmd in ("validate", "stabilizer", "eta")},
    "ed_so_1_char": Golden(["ed", "@so_1_char"], code=EXIT_INCONCLUSIVE),
    # a split presentation whose lattice action is not faithful: SymRank does not pin eta
    **{f"{cmd}_gm_times_z2": Golden([cmd, "@gm_times_z2"], code=EXIT_INCONCLUSIVE) for cmd in ("eta", "ed")},
    **{f"oracle_stab_{name}": ["oracle", "stab", "@" + name] for name in ("so_2", "sl_9_3", "so_1_char")},
    "oracle_symrank_so_2": ["oracle", "symrank", "@so_2", "-B", "2"],
    "oracle_sylow_4_2": ["oracle", "sylow", "4", "2"],
    "table_so_2": ["table", "so", "2"],
    # the `--format table` renderer
    "ed_case_sl_9_2_table": Golden(["ed", "case", "sl", "9", "2"], fmt="table"),
    "eta_so_2_table": Golden(["eta", "@so_2"], fmt="table"),
}


def _golden(name) -> Golden:
    entry = GOLDEN[name]
    return entry if isinstance(entry, Golden) else Golden(entry)


def _path(name) -> Path:
    return GOLDEN_DIR / f"{name}.{'json' if _golden(name).fmt == 'json' else 'txt'}"


def _argv(argv):
    return [str(GOLDEN_DIR / "inputs" / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


def _stdout(argv, fmt="json", expected_code=EXIT_OK) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(argv) + ["--format", fmt])
    assert code == expected_code
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    assert _stdout(*_golden(name)) == _path(name).read_text(encoding="utf-8")


def test_one_process_many_requests(fresh_caches):
    """The shape of a benchmark pass: many requests through one process, from
    cold caches, twice over.  What the process keeps between requests (the
    parser, the per-presentation caches) never changes an answer."""
    build_parser.cache_clear()
    names = [f"{cmd}_{name}" for name in ("sl_9_3", "so_2") for cmd in ("validate", "stabilizer", "eta", "ed")]
    for _ in range(2):
        for name in names:
            assert _stdout(*_golden(name)) == _path(name).read_text(encoding="utf-8"), name


def _regenerate(names):
    unknown = [name for name in names if name not in GOLDEN]
    if unknown:
        sys.exit(f"unknown golden file: {' '.join(unknown)}")
    if not names:
        (GOLDEN_DIR / "inputs").mkdir(parents=True, exist_ok=True)
        for name, case in INPUTS.items():
            doc = json.loads(_stdout(["case", *case]))["presentation"]
            (GOLDEN_DIR / "inputs" / f"{name}.json").write_text(
                json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
            )
        names = list(GOLDEN)
    for name in names:
        _path(name).write_text(_stdout(*_golden(name)), encoding="utf-8")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
