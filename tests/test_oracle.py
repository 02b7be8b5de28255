"""Brute-force oracles: determinism, modulus handling, and frozen counts."""

import ast
import importlib
import inspect
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edtorus import oracle
from edtorus.monogrp import (
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    RepBlock,
    character_lattice_action,
    component_group,
    limit_steps,
    natural_rep,
)
from edtorus.oracle import (
    _box_orbits,
    _eliminate,
    _primitive_root,
    choose_modulus,
    ff_stabilizer,
    required_torsion,
    sylow_abelian_bound_check,
    symrank_bruteforce,
)
from edtorus.pipeline import build_generically_free_extension, sln_case, so_case
from edtorus.symrank import FLattice

from conftest import ff_stabilizer_reference, lattice, orbits_reference


# the 3-cycle on the rank-2 torus with every weight doubled: the torus acts with kernel mu_2^2
DOUBLED_THREE_CYCLE = MonomialGroupPresentation(
    p=3,
    torus_rank=2,
    root_of_unity_exponent=1,
    weights=((2, 0), (0, 2), (-2, -2)),
    generators=(((1, 2, 0), (0, 0, 0)),),
)


class TestFFStabilizer:
    def test_primitive_root(self):
        assert _primitive_root(2) == 1  # F_2^* is trivial, generated by 1
        assert [_primitive_root(q) for q in (3, 5, 7, 11, 13, 17, 23)] == [2, 2, 3, 2, 2, 3, 5]

    def test_sl3_over_f7(self, sl3_three_cycle):
        report = ff_stabilizer(sl3_three_cycle, q=7, trials=50, seed=0)
        assert report.min_order == 3
        assert report.min_torus_order == 1
        assert len(report.min_component_image) == 3

    def test_sl2_normalizer_over_f5(self, sl2_normalizer):
        report = ff_stabilizer(sl2_normalizer, q=5, trials=50, seed=0)
        assert report.min_order == 1
        assert report.min_component_image == (0,)

    def test_weight_two_line_over_f5(self, weight_two_line):
        # the squaring kernel {1, -1} inside F_5* has order two
        report = ff_stabilizer(weight_two_line, q=5, trials=10, seed=0)
        assert report.min_order == 2
        assert report.min_torus_order == 2

    def test_deterministic_given_seed(self, sl3_three_cycle):
        a = ff_stabilizer(sl3_three_cycle, q=7, trials=20, seed=11)
        b = ff_stabilizer(sl3_three_cycle, q=7, trials=20, seed=11)
        assert a == b

    def test_bad_modulus(self, sl3_three_cycle):
        ext = build_generically_free_extension(sl3_three_cycle, natural_rep(sl3_three_cycle))
        # the appended character has denominator 3, so q = 1 (mod 3) is forced
        assert required_torsion(sl3_three_cycle, ext.rep) == 3
        with pytest.raises(EdtorusError) as err:
            ff_stabilizer(sl3_three_cycle, ext.rep, q=5, trials=5)
        assert err.value.code == "BAD_MODULUS"
        assert choose_modulus(sl3_three_cycle, ext.rep) == 7

    def test_budget(self, sl3_three_cycle):
        with limit_steps(10), pytest.raises(EdtorusError) as err:
            ff_stabilizer(sl3_three_cycle, q=7, trials=5)
        assert err.value.code == "BUDGET_EXCEEDED"

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "maker,extend,q",
        [
            (lambda: sln_case(3, 3).presentation, True, 7),
            (lambda: sln_case(4, 2).presentation, True, 5),
            (lambda: so_case(1).presentation, True, None),
            (lambda: sln_case(6, 3).presentation, True, None),
            (lambda: so_case(2).presentation, False, None),
            (lambda: sln_case(9, 2).presentation, False, None),
            (lambda: DOUBLED_THREE_CYCLE, False, 7),
        ],
        ids=["sl_3_3", "sl_4_2", "so_1", "sl_6_3", "so_2", "sl_9_2", "doubled_weights"],
    )
    def test_matches_the_per_class_count(self, maker, extend, q, seed):
        # generically free extensions (trivial stabilizer) and natural reps
        # (nontrivial, over |F| = 128 for sl_9_2; doubled weights make every
        # value row come from 4 torus points): the same report field for field
        P = maker()
        R = build_generically_free_extension(P, natural_rep(P)).rep if extend else natural_rep(P)
        report = ff_stabilizer(P, R, q=q, trials=20, seed=seed)
        assert report == ff_stabilizer_reference(P, R, report.q, 20, seed)

    def test_nonprime_q_rejected(self, sl3_three_cycle):
        with pytest.raises(EdtorusError) as err:
            ff_stabilizer(sl3_three_cycle, q=9, trials=5)
        assert err.value.code == "BAD_MODULUS"


class TestOrthogonalReading:
    def test_o4_normalizer_has_ed_at_most_four(self):
        # N_{O_4}: lines x1, x2, y1, y2; a single sign swap x1 <-> y1 and the
        # transposition generate the signed permutations of two letters
        zero = (0,) * 4
        P = MonomialGroupPresentation(
            p=2,
            torus_rank=2,
            root_of_unity_exponent=2,
            weights=((1, 0), (0, 1), (-1, 0), (0, -1)),
            generators=(((2, 1, 0, 3), zero), ((1, 0, 3, 2), zero)),
        )
        assert component_group(P).order == 8
        V = natural_rep(P)
        # the sign changes stabilize a generic point of the natural representation
        assert ff_stabilizer(P, V, trials=50, seed=0).min_order == 4
        # signed-permutation block: the sign swap negates its first line
        signs = RepBlock(
            weights=((0, 0), (0, 0)),
            gen_perms=((0, 1), (1, 0)),
            gen_coeffs=((1, 0), (0, 0)),
            modulus=2,
        )
        W = MonomialRep(presentation=P, blocks=V.blocks + (signs,))
        report = ff_stabilizer(P, W, trials=50, seed=0)
        assert report.q == 5
        assert report.min_order == 1
        # ed(N_{O_4}; 2) <= 6 - 2 = 4 = ed(O_4; 2), the 4n of the orthogonal reading
        assert W.dim - P.torus_rank == 4


def huge_entry_lattice():
    """An order-2 lattice whose orbits at B = 2 have entries near 10^19: int64
    products wrap on 10 of its 25 box vectors."""
    return lattice(2, [((1, 5 * 10**18), (0, -1))])


class TestSymrankBruteforce:
    @pytest.mark.parametrize(
        "maker,B",
        [
            (lambda: lattice(0, ()), 2),
            (lambda: lattice(1, [((-1,),)]), 3),
            (lambda: character_lattice_action(so_case(1).presentation), 2),
            (lambda: character_lattice_action(sln_case(5, 2).presentation), 2),
            (lambda: character_lattice_action(so_case(2).presentation), 2),
            (lambda: character_lattice_action(sln_case(7, 2).presentation), 1),
            (huge_entry_lattice, 2),
        ],
        ids=["rank_0", "negation", "so_1", "sl_5_2", "so_2", "sl_7_2", "huge_entries"],
    )
    def test_box_orbits_match_the_reference(self, maker, B):
        # one stacked matrix product per orbit, against every matrix applied
        # to the vector in Python integers
        L = maker()
        orbits = _box_orbits(L, B)
        assert orbits == sorted(orbits)
        assert {tuple(o) for o in orbits} == set(orbits_reference(L, B))

    def test_negation(self, negation_lattice):
        assert symrank_bruteforce(negation_lattice, 2, 3) == 2

    def test_trivial_rank_two(self):
        L = lattice(2, ())
        assert symrank_bruteforce(L, 5, 1) == 2

    def test_so4_lattice(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        assert symrank_bruteforce(L, 2, 2) == 4

    @pytest.mark.parametrize(
        "maker,p,B",
        [
            (lambda: lattice(1, [((-1,),)]), 2, 2),
            (lambda: character_lattice_action(so_case(1).presentation), 2, 2),
            (lambda: character_lattice_action(sln_case(5, 2).presentation), 2, 1),
            # after (-2, -1), the orbits (-2, 0), (-2, 1), (-2, 2) add no rank mod 2
            # and are cut, as (-2, -2) was; (-1, -2) then spans and best == rank stops
            (lambda: lattice(2, ()), 2, 2),
            (huge_entry_lattice, 3, 2),
        ],
        ids=["negation", "so_1", "sl_5_2", "trivial_mod_2", "huge_entries"],
    )
    def test_pruned_walk_equals_every_union(self, maker, p, B):
        L = maker()
        orbits = orbits_reference(L, B)
        sizes = [
            sum(len(o) for o in combo)
            for k in range(L.rank + 1)
            for combo in itertools.combinations(orbits, k)
            if len(_eliminate([], [v for o in combo for v in o], p)) == L.rank
        ]
        assert symrank_bruteforce(L, p, B) == min(sizes)

    def test_walk_charges_each_visited_union(self):
        # so_2 at B = 2: 80 orbits, so 1,666,981 unions of at most four, of
        # which the walk visits 1,956
        L = character_lattice_action(so_case(2).presentation)
        with limit_steps(1_956):
            assert symrank_bruteforce(L, 2, 2) == 8
        with limit_steps(1_955), pytest.raises(EdtorusError) as err:
            symrank_bruteforce(L, 2, 2)
        assert err.value.code == "BUDGET_EXCEEDED"

    def test_walk_eliminates_echelon_rows_only(self, monkeypatch):
        # each orbit of so_2 at B = 2 (up to 16 vectors) is reduced in full
        # once, up front; every visit of the walk then eliminates only that
        # orbit's echelon rows mod p, at most the rank many
        L = character_lattice_action(so_case(2).presentation)
        orbits = orbits_reference(L, 2)
        eliminate, sizes = oracle._eliminate, []

        def recording(rows, vectors, p):
            vectors = list(vectors)
            sizes.append(len(vectors))
            return eliminate(rows, vectors, p)

        monkeypatch.setattr(oracle, "_eliminate", recording)
        assert symrank_bruteforce(L, 2, 2) == 8
        assert sorted(sizes[: len(orbits)]) == sorted(map(len, orbits))
        walk = sizes[len(orbits) :]
        assert walk and max(walk) <= L.rank

    def test_independent_of_the_engine_search(self):
        # the oracle imports nothing of the engine's search, and it calls no
        # name the engine defines: not `_span`, and not `_enumerate_orbits`,
        # since the walk computes orbits itself
        tree = ast.parse(inspect.getsource(oracle))
        imported = [
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
        ]
        assert not any("symrank" in name.split(".") for name in imported)
        engine_module = importlib.import_module("edtorus.symrank")  # `edtorus.symrank` is a function
        engine = {
            name
            for scope in (vars(engine_module), vars(FLattice))
            for name, obj in scope.items()
            if getattr(obj, "__module__", None) == engine_module.__name__
        }
        assert {"_span", "_enumerate_orbits", "symrank", "FLattice"} <= engine
        for fn in (symrank_bruteforce, _box_orbits, ff_stabilizer, _eliminate):
            called = {
                node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(ast.parse(inspect.getsource(fn)))
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
            }
            assert not called & engine, fn.__name__


class TestSylowAbelianBound:
    def test_4_2_with_witness(self):
        report = sylow_abelian_bound_check(4, 2)
        assert report.max_order == 4 == 2 ** (4 // 2)
        assert report.passed
        assert len(report.witness) == 4

    def test_6_2(self):
        report = sylow_abelian_bound_check(6, 2)
        assert report.max_order == 8
        assert report.passed

    def test_3_3(self):
        report = sylow_abelian_bound_check(3, 3)
        assert report.max_order == 3
        assert report.passed

    def test_witness_is_abelian_subgroup(self):
        report = sylow_abelian_bound_check(6, 2)
        elems = set(report.witness)

        def mul(a, b):
            return tuple(a[x] for x in b)

        for a in elems:
            for b in elems:
                assert mul(a, b) in elems
                assert mul(a, b) == mul(b, a)

    def test_budget_cap(self):
        with pytest.raises(EdtorusError) as err:
            sylow_abelian_bound_check(10, 2)
        assert err.value.code == "BUDGET_EXCEEDED"

    @pytest.mark.parametrize("d, p", [(4, 4), (-1, 2)])
    def test_bad_input(self, d, p):
        # p = 4 is not prime; d = -1 letters is no symmetric group
        with pytest.raises(EdtorusError) as err:
            sylow_abelian_bound_check(d, p)
        assert err.value.code == "BAD_INPUT"

    @pytest.mark.parametrize("p", [1, 0])
    def test_p_below_two_exits_1(self, p):
        """In a subprocess with a timeout: the Sylow tower loop never ended for p <= 1."""
        src = str(Path(oracle.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "edtorus.cli", "oracle", "sylow", "4", str(p), "--format", "json"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 1
        assert '"BAD_INPUT"' in proc.stderr
