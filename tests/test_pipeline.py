"""Case studies, the extension builder, closed forms, and witnesses."""

import contextlib
import dataclasses
import importlib
import io
import json
import re
from pathlib import Path

import pytest

from edtorus import cli, monogrp, stab, zlat

from edtorus.monogrp import EdtorusError, component_group, natural_rep
from edtorus.pipeline import (
    _characters_generating_dual,
    _restricted_natural_block,
    _run_block,
    build_generically_free_extension,
    closed_form_sln,
    closed_form_so,
    ed_case_sl,
    ed_case_so,
    essential_p_dimension,
    sl_case_label,
    sln_case,
    so_case,
    sylow_tower_generators,
    table_sl,
    table_so,
    upper_witness_sln,
)
from edtorus.stab import generic_stabilizer

from conftest import (
    element_order,
    make_sl_presentation_reference,
    rep_actions_reference,
    so_case_presentation_reference,
    sylow_witness_blocks_reference,
    verify_sl_stabilizer_clauses,
)


class TestBuilder:
    def test_sl3_one_block(self, sl3_three_cycle):
        ext = build_generically_free_extension(sl3_three_cycle, natural_rep(sl3_three_cycle))
        assert ext.rep.dim == 4
        assert ext.blocks_added == 1
        assert generic_stabilizer(sl3_three_cycle, ext.rep).p_generically_free

    def test_so4_one_block(self, so4_presentation):
        # the stabilizer image is the paired-sign line, a single cyclic factor
        ext = build_generically_free_extension(so4_presentation, natural_rep(so4_presentation))
        assert ext.rep.dim == 5
        assert ext.blocks_added == 1

    def test_witness_not_free_names_a_fixing_class(self, sl3_three_cycle):
        from edtorus.pipeline import _require_free

        report = generic_stabilizer(sl3_three_cycle)
        fixing = report.component_image[1]
        with pytest.raises(EdtorusError, match=f"component class {fixing} fixes a generic point") as err:
            _require_free(report)
        assert err.value.code == "WITNESS_NOT_FREE"

    def test_already_free_is_fixed_point(self, sl2_normalizer):
        ext = build_generically_free_extension(sl2_normalizer, natural_rep(sl2_normalizer))
        assert ext.rep.dim == 2
        assert ext.blocks_added == 0

    def test_dimension_count_across_cases(self):
        cases = [
            sln_case(3, 3).presentation,
            sln_case(4, 2).presentation,
            sln_case(6, 3).presentation,
            so_case(1).presentation,
            so_case(2).presentation,
        ]
        for P in cases:
            V = natural_rep(P)
            ext = build_generically_free_extension(P, V)
            report = generic_stabilizer(P, V)
            assert ext.rep.dim - V.dim == report.p_rank

    def test_not_p_faithful(self, weight_two_line):
        with pytest.raises(EdtorusError) as err:
            build_generically_free_extension(weight_two_line, natural_rep(weight_two_line))
        assert err.value.code == "NOT_P_FAITHFUL"

    def test_not_abelian(self):
        P = sln_case(6, 2).presentation
        with pytest.raises(EdtorusError) as err:
            build_generically_free_extension(P, natural_rep(P))
        assert err.value.code == "NOT_ABELIAN_COMPONENT"


class TestCharactersGeneratingDual:
    @pytest.mark.parametrize(
        "maker,count",
        [
            (lambda: so_case(2).presentation, 51),
            (lambda: sln_case(9, 3).presentation, 27),
            (lambda: sln_case(8, 2).presentation, 51),
        ],
        ids=["so_2", "sl_9_3", "sl_8_2"],
    )
    def test_dual_basis_on_two_generated_subgroups(self, maker, count):
        group = component_group(maker())
        N = group.order
        subgroups = {group.subgroup_closure([a, b]) for a in range(N) for b in range(N)}
        assert len(subgroups) == count
        for H in subgroups:
            basis, orders, _ = group.abelian_decomposition(H)
            chars = _characters_generating_dual(group, H)
            assert len(chars) == len(orders)
            for i, chi in enumerate(chars):
                assert all(chi[group.mul(x, y)] == (chi[x] + chi[y]) % N for x in range(N) for y in range(N))
                assert [chi[b] for b in basis] == [N // d if j == i else 0 for j, d in enumerate(orders)]
            assert [h for h in H if all(chi[h] == 0 for chi in chars)] == [group.identity]


class TestOnePass:
    SO_2 = str(Path(__file__).parent / "golden" / "inputs" / "so_2.json")

    @staticmethod
    def count_calls(monkeypatch, owners, name, counts):
        """Count the calls of `name` through every owner that binds it."""
        orig = getattr(owners[0], name)

        def counting(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return orig(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counting)

    def test_ed_computes_each_object_once(self, fresh_caches, monkeypatch):
        import edtorus.pipeline as pipeline

        counts = {}
        self.count_calls(monkeypatch, [stab, pipeline, cli], "generic_stabilizer", counts)
        self.count_calls(monkeypatch, [zlat], "smith_normal_form", counts)
        walks = self.record_walks(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ed", self.SO_2, "--format", "json"]) == 0
        assert counts["generic_stabilizer"] <= 2
        assert counts["smith_normal_form"] <= 18
        # V is the natural representation, whose record is the enumeration's, and
        # its extension walks only the appended character lines: no record walks
        # all of a representation's lines
        assert walks == [False]

    def test_ed_takes_four_smith_forms(self, fresh_caches, monkeypatch):
        # the natural weights' coset key, the two abelian decompositions (each
        # reads U^-1 off its own form) and the extension's coset key
        counts = {}
        self.count_calls(monkeypatch, [zlat], "smith_normal_form", counts)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ed", self.SO_2, "--format", "json"]) == 0
        assert counts["smith_normal_form"] == 4

    def test_stabilizer_splits_no_class_into_cycles(self, fresh_caches, monkeypatch):
        # a class passes when it preserves each line's kernel profile and its
        # coset key is 0: `ed case so 3` takes no cycles while stabilizers run
        running, cycles, counts = [], [], {}
        stabilizer, perm_cycles = stab.generic_stabilizer, monogrp.perm_cycles

        def tracking(*args, **kwargs):
            counts["generic_stabilizer"] = counts.get("generic_stabilizer", 0) + 1
            running.append(True)
            try:
                return stabilizer(*args, **kwargs)
            finally:
                running.pop()

        def counting(p):
            if running:
                cycles.append(p)
            return perm_cycles(p)

        for owner in (stab, importlib.import_module("edtorus.pipeline"), cli):
            monkeypatch.setattr(owner, "generic_stabilizer", tracking)
        for owner in (monogrp, stab):
            monkeypatch.setattr(owner, "perm_cycles", counting, raising=False)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ed", "case", "so", "3", "--format", "json"]) == 0
        assert counts["generic_stabilizer"] >= 1
        assert cycles == []

    @staticmethod
    def record_walks(monkeypatch) -> list[bool]:
        """For each record walk, whether it spans all of its rep's lines."""
        walks = []
        walk = monogrp._walk

        def recording(group, R, canon):
            walks.append(canon is not None)
            return walk(group, R, canon)

        monkeypatch.setattr(monogrp, "_walk", recording)
        return walks

    @staticmethod
    def product_lines(monkeypatch, n) -> tuple[int, list[int]]:
        """The Cayley edges of `ed case so n`, and the lines of each `monomial_mul` it makes."""
        lines = []
        mul = monogrp.monomial_mul

        def counting(a, b, modulus):
            lines.append(len(a[0]))
            return mul(a, b, modulus)

        monkeypatch.setattr(monogrp, "monomial_mul", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ed", "case", "so", str(n), "--format", "json"]) == 0
        return 4**n * 2 * n, lines  # |F| = 4^n with 2n generators

    def test_one_product_per_cayley_edge_per_object(self, fresh_caches, monkeypatch):
        # 64 edges, walked by the enumeration (which also finds the split
        # witness) and by the extension's record on its character lines
        edges, lines = self.product_lines(monkeypatch, 2)
        assert len(lines) == 2 * 64 == 2 * edges

    def test_only_the_enumeration_multiplies_all_lines(self, fresh_caches, monkeypatch):
        # V is natural, so its record multiplies nothing, and the extension's
        # record multiplies only its 3 character lines
        edges, lines = self.product_lines(monkeypatch, 3)
        assert lines.count(12) == edges == 384
        assert lines.count(3) == edges
        assert len(lines) == 2 * edges

    @pytest.mark.parametrize("n", [2, 3])
    def test_character_lines_are_checked_once(self, n, fresh_caches, monkeypatch):
        # after the enumeration, the one pass over the Cayley graph is the
        # extension's record walk, which checks every character line at once
        passes = []

        class Passes(list):
            def __iter__(self):
                passes.append(len(self))
                return super().__iter__()

        init = monogrp.ComponentGroup.__init__

        def counting(self, P, elements, right, *rest):
            init(self, P, elements, Passes(right), *rest)

        monkeypatch.setattr(monogrp.ComponentGroup, "__init__", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ed", "case", "so", str(n), "--format", "json"]) == 0
        assert passes == [4**n]

    def test_normal_forms_stay_small(self, fresh_caches, monkeypatch):
        # the component group is presented by one relation per generator, so
        # no normal form is handed a matrix that grows with |F| (here 256)
        largest = {"smith_cells": 0}
        smith = zlat.smith_normal_form

        def sized_smith(M):
            largest["smith_cells"] = max(largest["smith_cells"], M.rows * M.cols)
            return smith(M)

        monkeypatch.setattr(zlat, "smith_normal_form", sized_smith)
        assert ed_case_sl(16, 2).exact == closed_form_sln(16, 2)
        assert largest["smith_cells"] < 1000

    @pytest.mark.parametrize(
        "request_",
        [
            lambda: ed_case_sl(9, 2),
            lambda: ed_case_sl(16, 2),
            lambda: cli.main(["ed", TestOnePass.SO_2, "--format", "json"]),
        ],
        ids=["case_sl_9_2", "case_sl_16_2", "so_2"],
    )
    def test_ed_builds_no_lattice_matrix(self, request_, fresh_caches, monkeypatch):
        # no answer of ed reads a lattice matrix: order and commutativity come
        # from the permutation closure, and a pinch searches no box
        calls = self.count_mat_mul(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            request_()
        assert calls["_mat_mul"] == 0

    @staticmethod
    def case_file(tmp_path, *case) -> str:
        """The presentation of `edtorus case ...`, written as an input file."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["case", *case, "--format", "json"]) == 0
        path = tmp_path / "case.json"
        path.write_text(json.dumps(json.loads(out.getvalue())["presentation"]), encoding="utf-8")
        return str(path)

    def test_eta_search_builds_the_matrices(self, fresh_caches, monkeypatch, tmp_path):
        # sl 6 2: the weights' orbits give 6 over an uncertified bound of 5, so
        # the seed does not pinch and the B = 1 box is searched
        path = self.case_file(tmp_path, "sl", "6", "2")
        calls = self.count_mat_mul(monkeypatch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eta", path, "--rep", "none", "-B", "1", "--format", "json"])
        sr = json.loads(out.getvalue())["symrank"]
        assert (code, sr["value"], sr["status"], sr["search_bound"]) == (cli.EXIT_INCONCLUSIVE, 6, "UPPER_ONLY", 1)
        # one product per element of the lattice image but the identity
        L = monogrp.character_lattice_action(cli.load_presentation(path, "natural")[0])
        assert calls["_mat_mul"] == L.order - 1 == 15

    def test_eta_with_a_refused_box_builds_no_lattice_matrix(self, fresh_caches, monkeypatch, tmp_path):
        # sl 14 5: the generators alone put the default box of rank 13 over the limit
        path = self.case_file(tmp_path, "sl", "14", "5")
        calls = self.count_mat_mul(monkeypatch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eta", path, "--rep", "none", "--format", "json"])
        assert (code, json.loads(out.getvalue())["symrank"]) == (cli.EXIT_INCONCLUSIVE, None)
        assert calls["_mat_mul"] == 0

    def test_symrank_with_a_refused_box_builds_no_lattice_matrix(self, fresh_caches, monkeypatch, tmp_path):
        path = self.case_file(tmp_path, "sl", "14", "5")
        calls = self.count_mat_mul(monkeypatch)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["symrank", path, "--format", "json"])
        assert (code, json.loads(err.getvalue())["error"]) == (cli.EXIT_BUDGET, "BUDGET_EXCEEDED")
        assert calls["_mat_mul"] == 0

    def count_mat_mul(self, monkeypatch) -> dict:
        calls = {"_mat_mul": 0}
        self.count_calls(monkeypatch, [importlib.import_module("edtorus.symrank")], "_mat_mul", calls)
        return calls

    def test_one_validation_per_presentation(self, fresh_caches):
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("validate", "stabilizer", "ed"):
                cli.main([command, self.SO_2, "--format", "json"])
        assert monogrp.validate.cache_info().currsize == 1


class TestCaseConstructors:
    @pytest.mark.parametrize(
        "n,p,label",
        [(3, 3, "a"), (6, 3, "a"), (4, 2, "b"), (8, 2, "b"), (5, 3, "c"), (7, 3, "c"), (6, 2, "d"), (3, 2, "d")],
    )
    def test_labels(self, n, p, label):
        assert sl_case_label(n, p) == label
        assert sln_case(n, p).label == label

    def test_sl5_sylow_is_one_cycle(self):
        case = sln_case(5, 3)
        assert [perm for perm, _ in case.presentation.generators] == [(1, 2, 0, 3, 4)]
        assert component_group(case.presentation).order == 3

    def test_sl4_klein(self):
        case = sln_case(4, 2)
        group = component_group(case.presentation)
        assert group.order == 4
        assert sorted(element_order(group, i) for i in range(group.order)) == [1, 2, 2, 2]

    def test_unsupported(self):
        for make in (lambda: sln_case(1, 2), lambda: sln_case(4, 4), lambda: so_case(0)):
            with pytest.raises(EdtorusError) as err:
                make()
            assert err.value.code == "UNSUPPORTED"

    def test_so_orders(self):
        assert component_group(so_case(1).presentation).order == 4
        assert component_group(so_case(2).presentation).order == 16
        assert so_case(1).notes  # the case says which group it is
        for n in range(1, 6):  # the note's order is the enumerated one
            case = so_case(n)
            assert re.search(r"order (\d+)", case.notes[0])[1] == str(component_group(case.presentation).order)

    def test_so_case_builds_no_component_group(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("so_case enumerated its component group")

        monkeypatch.setattr(monogrp.ComponentGroup, "__init__", refuse)
        assert so_case(10).presentation.torus_rank == 20

    def test_so_lines(self):
        case = so_case(2)
        P = case.presentation
        assert P.torus_rank == 4
        assert P.num_lines == 8
        weights = set(P.weights)
        for i in range(4):
            e = tuple(1 if j == i else 0 for j in range(4))
            ne = tuple(-x for x in e)
            assert e in weights and ne in weights

    def test_sylow_tower_orders(self):
        # |Sylow_2(S_6)| = 16, |Sylow_3(S_9)| = 81
        from conftest import perm_compose
        from edtorus.monogrp import closure

        assert len(closure(tuple(range(6)), sylow_tower_generators(6, 2, 6), perm_compose)) == 16
        assert len(closure(tuple(range(9)), sylow_tower_generators(9, 3, 9), perm_compose)) == 81

    def test_wreath_rep_is_faithful(self):
        # the 2-line block of sln_case(6, 2) (the Sylow 2 on the first 4 points):
        # generators diag(-1, 1) and the swap, then the last transposition trivially
        block = _run_block(sln_case(6, 2))
        assert block.dim == 2 and block.modulus == 2
        actions = list(zip(block.gen_perms, block.gen_coeffs))
        assert actions[0] == ((0, 1), (1, 0))  # coefficients modulo p = 2
        assert actions[1] == ((1, 0), (0, 0))
        assert actions[2] == ((0, 1), (0, 0))

    # every case-c/d row with n <= 24 for p = 2, 3, 5
    SYLOW_ROWS = [(n, p) for p in (2, 3, 5) for n in range(2, 25) if sl_case_label(n, p) in ("c", "d")]

    @pytest.mark.parametrize("n,p", SYLOW_ROWS)
    def test_faithful_blocks_match_wreath_reference(self, n, p):
        # the run block against the hand-built wreath towers it replaced, taken together
        case = sln_case(n, p)
        P = case.presentation
        first, *towers = sylow_witness_blocks_reference(case)
        runs = [_run_block(case)] if case.sylow_points else []
        assert rep_actions_reference(P, runs) == rep_actions_reference(P, towers)
        assert _restricted_natural_block(case) == first
        if n <= 12:  # the whole witness, where its stabilizer check is cheap
            witness = upper_witness_sln(n, p).rep
            assert rep_actions_reference(P, witness.blocks) == rep_actions_reference(P, [first, *towers])

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_sl_presentation_matches_loop_reference(self, p):
        for n in range(2, 25):
            P = sln_case(n, p).presentation
            assert P == make_sl_presentation_reference(n, p, [perm for perm, _ in P.generators])

    def test_so_presentation_matches_loop_reference(self):
        for n in range(1, 9):
            assert so_case(n).presentation == so_case_presentation_reference(n)


class TestClosedForms:
    @pytest.mark.parametrize(
        "n,p,value",
        [(3, 3, 2), (6, 3, 3), (9, 3, 4), (4, 2, 3), (8, 2, 5), (5, 3, 1), (6, 2, 3), (7, 3, 2), (10, 2, 5)],
    )
    def test_sl(self, n, p, value):
        assert closed_form_sln(n, p) == value

    @pytest.mark.parametrize("n,orthogonal_value", [(1, 4), (2, 8), (3, 12)])
    def test_so(self, n, orthogonal_value):
        # orthogonal_value = 4n is ed(N_{O_{4n}}; 2); the SO case N_{SO_4}^n
        # has one dimension less per block, 3n
        assert closed_form_so(n) == orthogonal_value - n == 3 * n


class TestEdReports:
    @pytest.mark.parametrize("n,p,value", [(3, 3, 2), (6, 3, 3), (4, 2, 3), (8, 2, 5)])
    def test_exact_sl_values(self, n, p, value):
        report = ed_case_sl(n, p)
        assert report.exact == value
        assert report.hypotheses.lower_source == "stabilizer-formula"
        assert report.hypotheses.component_abelian and report.hypotheses.split_witness

    @pytest.mark.parametrize("n,p", [(12, 2), (12, 3), (14, 7), (15, 5)])
    def test_elementary_abelian_stabilizer_image(self, n, p):
        # the p-rank of the stabilizer image is read off its invariant factors
        report = ed_case_sl(n, p)
        assert report.exact == closed_form_sln(n, p)

    def test_so_three_blocks(self):
        # F = (Z/2)^6: the dual-basis characters are picked from its 64
        report = ed_case_so(3)
        assert report.exact == closed_form_so(3) == 9

    def test_exact_via_rank_formula_for_abelian_sylow(self):
        report = ed_case_sl(5, 3)
        assert report.exact == 1
        assert report.hypotheses.lower_source == "stabilizer-formula"

    @pytest.mark.parametrize("n,p,value", [(2, 2, 1), (3, 2, 1), (2, 3, 0), (7, 3, 2)])
    def test_small_edge_cases(self, n, p, value):
        report = ed_case_sl(n, p)
        assert report.exact == value == closed_form_sln(n, p)

    def test_cited_route_for_nonabelian_sylow(self):
        report = ed_case_sl(6, 2)
        assert report.exact == 3
        assert report.hypotheses.lower_source == "cited"

    def test_so_computed_value_with_note(self):
        report = ed_case_so(1)
        assert report.exact == 3 == closed_form_so(1)
        assert not any("differs from the closed form" in note for note in report.notes)

    def test_crossed_bounds_are_an_internal_error(self):
        report = ed_case_so(1)
        with pytest.raises(EdtorusError) as err:
            dataclasses.replace(report, ed_lower=report.ed_upper + 1, exact=None)
        assert err.value.code == "INTERNAL"

    def test_never_fabricates_exactness(self, sl2_normalizer):
        # without a representation there is no upper bound and no exact value
        report = essential_p_dimension(sl2_normalizer)
        assert report.exact is None
        assert report.ed_upper is None


class TestWitnesses:
    @pytest.mark.parametrize("n,p,value", [(5, 3, 1), (7, 3, 2), (6, 2, 3), (10, 2, 5)])
    def test_upper_witness_values(self, n, p, value):
        w = upper_witness_sln(n, p)
        assert w.upper_bound == value == closed_form_sln(n, p)
        assert generic_stabilizer(sln_case(n, p).presentation, w.rep).p_generically_free

    def test_witness_shapes(self):
        w = upper_witness_sln(6, 2)
        # natural n lines plus a faithful 2-dimensional Sylow block
        assert w.rep.dim == 8
        assert w.rep.blocks[0].dim == 6
        w53 = upper_witness_sln(5, 3)
        assert w53.rep.dim == 5
        assert w53.rep.blocks[0].dim == 4
        # n < p: the Sylow factor moves no point, and no empty run block raises the modulus to p
        w23 = upper_witness_sln(2, 3)
        assert w23.rep.blocks == (_restricted_natural_block(sln_case(2, 3)),)
        assert w23.rep.modulus == 1

    def test_unsupported_for_exact_cases(self):
        with pytest.raises(EdtorusError) as err:
            upper_witness_sln(6, 3)
        assert err.value.code == "UNSUPPORTED"


class TestStabilizerClauses:
    def test_three_cycle(self):
        assert verify_sl_stabilizer_clauses(3, [(1, 2, 0)])

    def test_transposition(self):
        assert verify_sl_stabilizer_clauses(2, [(1, 0)])

    def test_klein(self):
        gens = [(1, 0, 3, 2), (2, 3, 0, 1)]
        assert verify_sl_stabilizer_clauses(4, gens)

    def test_full_case_generators(self):
        # stabilizer image equals the even part of the subgroup, for every
        # case-study generating set up to n = 6 including the Sylow cases
        for n, p in [(3, 3), (6, 3), (4, 2), (5, 3), (6, 2), (3, 2)]:
            case = sln_case(n, p)
            assert verify_sl_stabilizer_clauses(n, [perm for perm, _ in case.presentation.generators])

    def test_seventeen_cycle(self):
        # p is the order's smallest prime factor, not one from a fixed list
        assert verify_sl_stabilizer_clauses(17, [tuple(range(1, 17)) + (0,)])

    def test_not_a_p_group(self):
        with pytest.raises(EdtorusError) as err:
            verify_sl_stabilizer_clauses(6, [(1, 2, 3, 4, 5, 0)])
        assert err.value.code == "UNSUPPORTED"


CASE_GRID = [("sl", 3, 3), ("sl", 6, 3), ("sl", 9, 3), ("sl", 4, 2), ("sl", 8, 2),
             ("sl", 5, 3), ("sl", 7, 3), ("sl", 6, 2), ("sl", 10, 2),
             ("so", 1, None), ("so", 2, None)]


class TestSandwich:
    @pytest.mark.parametrize("family,n,p", CASE_GRID)
    def test_bounds_nest(self, family, n, p):
        report = ed_case_sl(n, p) if family == "sl" else ed_case_so(n)
        assert report.eta_lower - report.dim_group <= report.ed_lower
        assert report.ed_upper is not None
        assert report.ed_lower <= report.ed_upper
        assert report.dim_free_rep is not None
        assert report.ed_upper == report.dim_free_rep - report.dim_group
        if report.exact is not None:
            assert report.ed_lower == report.ed_upper == report.exact


class TestTables:
    def test_sl_table_matches_closed_form(self):
        rows = table_sl(8, 2)
        for row in rows:
            if row["ed_exact"] is not None:
                assert row["matches_closed_form"]

    @pytest.mark.parametrize("nmax,p", [(11, 2), (10, 3)])
    def test_wider_grids_stay_exact(self, nmax, p):
        for row in table_sl(nmax, p):
            assert row["ed_exact"] is not None
            assert row["matches_closed_form"]

    def test_so_table_flags_mismatch(self):
        rows = table_so(1)
        assert rows[0]["ed_exact"] == 3
        assert rows[0]["closed_form"] == 3
        assert rows[0]["matches_closed_form"] is True
