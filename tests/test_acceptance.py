"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
values are exact integers; the tolerance everywhere is equality.

Criterion 2 pins the closed form 3n for the even orthogonal case study
`so_case(n)`, the group N_{SO_4}^n inside SO_{4n} (the full torus normalizer
only at n = 1).  Besides the engine's value it asserts an independent
certificate: the finite-field oracle finds the extension built for each case
generically free, of dimension 3n + 2n.  At n = 1 the matching lower bound is
ed(SO_4; 2) = 3, since every SO_4-torsor reduces to the normalizer.  The
earlier reference 4n is the value for the orthogonal group, ed(N_{O_{4n}}; 2)
= 4n, which `tests/test_oracle.py` pins at n = 1.  The full normalizer of
SO_{4n} for n >= 2 has a non-abelian component group and is not computed;
only the cited lower bound ed(SO_{4n}; 2) >= 4n - 1 applies to it.
"""

import json
import random
import time

import pytest

from edtorus.cli import main as cli_main
from edtorus.monogrp import character_lattice_action, component_group, natural_rep
from edtorus.oracle import (
    choose_modulus,
    ff_stabilizer,
    sylow_abelian_bound_check,
    symrank_bruteforce,
)
from edtorus.pipeline import (
    build_generically_free_extension,
    closed_form_sln,
    closed_form_so,
    ed_case_sl,
    ed_case_so,
    sln_case,
    so_case,
    upper_witness_sln,
)
from edtorus.stab import generic_stabilizer
from edtorus.symrank import perm_lower_bound, symrank

from conftest import lattice, verify_sl_stabilizer_clauses

FF_BUDGET_LIMIT = 10**7


def line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def run_cli_json(capsys, argv):
    code = cli_main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_sl_reproduction(capsys):
    targets = [(3, 3, 2), (6, 3, 3), (9, 3, 4), (4, 2, 3), (8, 2, 5)]
    results = []
    ok = True
    for n, p, expected in targets:
        start = time.monotonic()
        code, doc = run_cli_json(capsys, ["ed", "case", "sl", str(n), str(p)])
        elapsed = time.monotonic() - start
        good = (
            code == 0
            and doc["exact"] == expected == closed_form_sln(n, p)
            and elapsed < 60.0
        )
        ok = ok and good
        results.append(f"({n},{p})->{doc['exact']} in {elapsed:.1f}s")
    line(1, ok, "; ".join(results))
    assert ok


def test_criterion_2_so_reproduction(capsys):
    results = []
    ok = True
    for n, expected, limit in [(1, 3, 60.0), (2, 6, 300.0)]:
        start = time.monotonic()
        code, doc = run_cli_json(capsys, ["ed", "case", "so", str(n)])
        elapsed = time.monotonic() - start
        # independent certificate: the oracle finds the extension generically free
        P = so_case(n).presentation
        W = build_generically_free_extension(P, natural_rep(P)).rep
        ff = ff_stabilizer(P, W, q=choose_modulus(P, W), trials=50, seed=0)
        good = (
            code == 0
            and doc["exact"] == expected == closed_form_so(n)
            and ff.min_order == 1
            and W.dim - 2 * n == expected
            and elapsed < limit
        )
        ok = ok and good
        results.append(
            f"n={n}: computed {doc['exact']}, required {expected}, "
            f"oracle min {ff.min_order} on dim {W.dim}, {elapsed:.1f}s"
        )
    line(2, ok, "; ".join(results))
    assert ok, (
        "ed case so n must equal the closed form 3n, certified by a generically "
        "free extension of dimension 5n (oracle minimum stabilizer order 1)"
    )


def test_criterion_3_sylow_witnesses():
    targets = [(5, 3), (7, 3), (6, 2), (10, 2)]
    results = []
    ok = True
    for n, p in targets:
        w = upper_witness_sln(n, p)
        case = sln_case(n, p)
        free = generic_stabilizer(case.presentation, w.rep).p_generically_free
        good = w.upper_bound == n // p == closed_form_sln(n, p) and free
        ok = ok and good
        results.append(f"({n},{p})->{w.upper_bound}")
    # oracle confirmation of generic freeness for the two designated cases
    for n, p in [(5, 3), (6, 2)]:
        case = sln_case(n, p)
        w = upper_witness_sln(n, p)
        ff = ff_stabilizer(case.presentation, w.rep, trials=50, seed=0)
        good = ff.min_order == 1
        ok = ok and good
        results.append(f"oracle({n},{p}) min={ff.min_order}")
    line(3, ok, "; ".join(results))
    assert ok


def test_criterion_4_stabilizer_clauses():
    cases = []
    for n, p in [(3, 3), (6, 3), (4, 2)]:  # cases (a), (b) with n <= 6
        case = sln_case(n, p)
        cases.append((n, p, case))
    results = []
    ok = True
    for n, p, case in cases:
        good = verify_sl_stabilizer_clauses(n, [perm for perm, _ in case.presentation.generators])
        group = component_group(case.presentation)
        expected = group.order  # the case generators are all even permutations
        mins = []
        for seed in (0, 1, 2):
            ff = ff_stabilizer(case.presentation, trials=50, seed=seed)
            mins.append(ff.min_order)
        stable = all(m == expected for m in mins)
        ok = ok and good and stable
        results.append(f"({n},{p}): clauses={good}, ff_min={mins} vs |H_even|={expected}")
    line(4, ok, "; ".join(results))
    assert ok


def test_criterion_5_extension_builder():
    data = [
        ("sl3", sln_case(3, 3).presentation),
        ("sl4/klein", sln_case(4, 2).presentation),
        ("sl6", sln_case(6, 3).presentation),
        ("so4", so_case(1).presentation),
        ("so8", so_case(2).presentation),
    ]
    results = []
    ok = True
    for name, P in data:
        V = natural_rep(P)
        ext = build_generically_free_extension(P, V)
        free = generic_stabilizer(P, ext.rep).p_generically_free
        srep = generic_stabilizer(P, V)
        good = free and ext.rep.dim - V.dim == srep.p_rank
        ok = ok and good
        results.append(f"{name}: dim {V.dim}->{ext.rep.dim}, rank {srep.p_rank}")
    line(5, ok, "; ".join(results))
    assert ok


def test_criterion_6_symrank_values():
    targets = [
        ("sl3", character_lattice_action(sln_case(3, 3).presentation), 3, 3),
        ("sl4", character_lattice_action(sln_case(4, 2).presentation), 2, 4),
        ("so4", character_lattice_action(so_case(1).presentation), 2, 4),
    ]
    results = []
    ok = True
    for name, L, p, expected in targets:
        res = symrank(L, p)
        bound = perm_lower_bound(L, p)
        good = (
            res.value == expected
            and res.status == "EXACT"
            and bound.hypotheses_ok
            and res.lower_bound_used == bound.value
        )
        ok = ok and good
        results.append(f"{name}={res.value}/{res.status}")
    # twenty seeded random small lattices against the exhaustive oracle
    catalog = [
        (1, []),
        (1, [((-1,),)]),
        (2, []),
        (2, [((-1, 0), (0, -1))]),
        (2, [((0, 1), (1, 0))]),
        (2, [((0, -1), (1, 0))]),
        (2, [((1, 0), (0, -1))]),
        (2, [((0, 1), (1, 0)), ((-1, 0), (0, -1))]),
    ]
    conjugators = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1))]
    rng = random.Random(0)
    agreements = 0
    for _ in range(20):
        d, gens = catalog[rng.randrange(len(catalog))]
        if d == 2 and gens:
            U = conjugators[rng.randrange(len(conjugators))]
            Uinv = ((U[1][1], -U[0][1]), (-U[1][0], U[0][0]))

            def mul2(a, b):
                return tuple(
                    tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                    for i in range(2)
                )

            gens = [mul2(mul2(U, g), Uinv) for g in gens]
        L = lattice(d, gens)
        got = symrank(L, 2, B=3).value
        expect = symrank_bruteforce(L, 2, 3)
        if got == expect:
            agreements += 1
    good = agreements == 20
    ok = ok and good
    results.append(f"random fixtures {agreements}/20")
    line(6, ok, "; ".join(results))
    assert ok


def test_criterion_7_sylow_bound():
    results = []
    ok = True
    for p, dmax in ((2, 8), (3, 9)):
        for d in range(1, dmax + 1):
            rep = sylow_abelian_bound_check(d, p)
            ok = ok and rep.passed
        results.append(f"p={p}: d<= {dmax} all pass")
    rep42 = sylow_abelian_bound_check(4, 2)
    good42 = rep42.max_order == 4 == 2 ** (4 // 2)
    ok = ok and good42
    results.append(f"(4,2) max={rep42.max_order}")
    line(7, ok, "; ".join(results))
    assert ok


CASE_GRID = [("sl", 3, 3), ("sl", 6, 3), ("sl", 9, 3), ("sl", 4, 2), ("sl", 8, 2),
             ("sl", 5, 3), ("sl", 7, 3), ("sl", 6, 2), ("sl", 10, 2),
             ("so", 1, None), ("so", 2, None)]


def test_criterion_8_sandwich():
    ok = True
    checked = 0
    for family, n, p in CASE_GRID:
        report = ed_case_sl(n, p) if family == "sl" else ed_case_so(n)
        good = (
            report.eta_lower - report.dim_group <= report.ed_lower
            and report.ed_upper is not None
            and report.ed_lower <= report.ed_upper
            and report.dim_free_rep is not None
            and report.ed_upper == report.dim_free_rep - report.dim_group
        )
        ok = ok and good
        checked += 1
    line(8, ok, f"{checked} case-study reports nested correctly")
    assert ok


def _criterion_9_reps():
    """Every representation exercised by criteria 1-5 with its presentation."""
    reps = []
    for n, p in [(3, 3), (6, 3), (9, 3), (4, 2), (8, 2)]:
        P = sln_case(n, p).presentation
        V = natural_rep(P)
        reps.append((f"sl{n}p{p}:V", P, V))
        reps.append((f"sl{n}p{p}:W", P, build_generically_free_extension(P, V).rep))
    for n in (1, 2):
        P = so_case(n).presentation
        V = natural_rep(P)
        reps.append((f"so{n}:V", P, V))
        reps.append((f"so{n}:W", P, build_generically_free_extension(P, V).rep))
    for n, p in [(5, 3), (7, 3), (6, 2), (10, 2)]:
        P = sln_case(n, p).presentation
        reps.append((f"sl{n}p{p}:witness", P, upper_witness_sln(n, p).rep))
    return reps


def test_criterion_9_oracle_agreement():
    results = []
    ok = True
    checked = skipped = 0
    for name, P, R in _criterion_9_reps():
        q = choose_modulus(P, R)
        budget = q**P.torus_rank * component_group(P).order
        if budget > FF_BUDGET_LIMIT:
            skipped += 1
            results.append(f"{name}: skipped (budget {budget:.0e})")
            continue
        symbolic = generic_stabilizer(P, R)
        expected = symbolic.torus_part.torsion_order * len(symbolic.component_image)
        ff = ff_stabilizer(P, R, q=q, trials=50, seed=0)
        good = ff.min_order == expected
        ok = ok and good
        checked += 1
        if not good:
            results.append(f"{name}: ff={ff.min_order} != symbolic={expected}")
    results.insert(0, f"{checked} representations agree, {skipped} over budget")
    line(9, ok, "; ".join(results))
    assert ok and checked >= 15
