"""Generic stabilizer engine against hand computations and the field oracle."""

import pytest

from edtorus import monogrp
from edtorus.cli import load_presentation
from edtorus.monogrp import (
    EdtorusError,
    MonomialGroupPresentation,
    component_group,
    natural_rep,
)
from edtorus.oracle import ff_stabilizer
from edtorus.pipeline import sln_case, so_case
from edtorus.stab import generic_stabilizer, is_p_faithful

from conftest import (
    GOLDEN_INPUTS,
    class_of,
    ed_reps,
    perturbed_case_presentations,
    sl_case_rep,
    stabilizer_image_reference,
    with_line,
)


def _stabilizer_inputs():
    """Named makers of lists of (P, V): the golden inputs with their file's
    blocks, the SL cases for n <= 10 with the V `ed_case_sl` takes (or the
    Sylow witness), the SO cases, and the perturbed lifts under one name."""
    inputs = {}
    for path in sorted(GOLDEN_INPUTS.glob("*.json")):
        inputs[path.stem] = lambda path=path: [load_presentation(str(path), "full")]
    for n in range(2, 11):
        for p in (q for q in (2, 3, 5, 7) if q <= n):
            inputs[f"sl_{n}_{p}"] = lambda n=n, p=p: [sl_case_rep(n, p)]
    for n in (1, 2, 3):
        inputs[f"so_{n}"] = lambda n=n: [(so_case(n).presentation, natural_rep(so_case(n).presentation))]
    inputs["perturbed"] = lambda: [(P, natural_rep(P)) for P in perturbed_case_presentations(120, seed=17)]
    return inputs


STABILIZER_INPUTS = _stabilizer_inputs()


class TestGenericStabilizer:
    def test_sl2_normalizer_free(self, sl2_normalizer):
        report = generic_stabilizer(sl2_normalizer)
        assert report.torus_part.invariant_factors == ()
        assert len(report.component_image) == 1
        assert report.p_generically_free
        assert report.p_rank == 0

    def test_sl3_three_cycle(self, sl3_three_cycle):
        report = generic_stabilizer(sl3_three_cycle)
        assert report.torus_part.invariant_factors == ()
        group = component_group(sl3_three_cycle)
        assert report.component_image == tuple(range(group.order))  # whole Z/3
        assert report.p_rank == 1
        assert not report.p_generically_free

    def test_weight_two_line(self, weight_two_line):
        report = generic_stabilizer(weight_two_line)
        assert report.torus_part.invariant_factors == (2,)
        assert len(report.component_image) == 1
        assert report.p_rank is None  # not 2-faithful
        with pytest.raises(EdtorusError) as err:
            report.require_p_rank()
        assert err.value.code == "NOT_P_FAITHFUL_FOR_RANK"

    def test_rank_deficient_rep_refused(self, sl3_three_cycle):
        from edtorus.monogrp import MonomialRep, RepBlock

        zero_block = RepBlock(
            weights=((0, 0),),
            gen_perms=((0,),),
            gen_coeffs=((0,),),
            modulus=1,
        )
        rep = MonomialRep(presentation=sl3_three_cycle, blocks=(zero_block,))
        with pytest.raises(EdtorusError) as err:
            generic_stabilizer(sl3_three_cycle, rep)
        assert err.value.code == "RANK_DEFICIENT_WEIGHTS"

    def test_so4_paired_signs_only(self, so4_presentation):
        # of the four classes only the identity and the simultaneous x/y swap
        # fix a generic point; the plain transposition needs x1 y1 = x2 y2.
        report = generic_stabilizer(so4_presentation)
        assert report.torus_part.invariant_factors == ()
        assert len(report.component_image) == 2
        assert report.p_rank == 1
        group = component_group(so4_presentation)
        sign_class = class_of(group, so4_presentation.generators[0])
        assert report.component_image == tuple(sorted([group.identity, sign_class]))
        # independent arbiter: exhaustive stabilizer enumeration over two fields
        for q in (5, 13):
            ff = ff_stabilizer(so4_presentation, q=q, trials=30, seed=1)
            assert ff.min_order == report.stabilizer_order == 2

    def test_so8_rank_two(self):
        P = so_case(2).presentation
        report = generic_stabilizer(P)
        assert len(report.component_image) == 4
        assert report.p_rank == 2
        ff = ff_stabilizer(P, trials=30, seed=0)
        assert ff.min_order == 4

    def test_subgroup_and_determinism(self):
        P = sln_case(6, 3).presentation
        group = component_group(P)
        first = generic_stabilizer(P)
        second = generic_stabilizer(P)
        assert first == second
        assert group.is_subgroup(first.component_image)
        # reversing the generator list must give the same invariant data
        P2 = MonomialGroupPresentation(
            p=P.p,
            torus_rank=P.torus_rank,
            root_of_unity_exponent=P.root_of_unity_exponent,
            weights=P.weights,
            generators=tuple(reversed(P.generators)),
        )
        other = generic_stabilizer(P2)
        assert len(other.component_image) == len(first.component_image)
        assert other.torus_part == first.torus_part
        assert other.p_rank == first.p_rank

    def test_full_image_closed_once(self, fresh_caches, monkeypatch):
        # the subgroup check closes the image; its p-rank decomposes the
        # checked member set as it stands instead of closing it again
        P = sln_case(8, 2).presentation
        group = component_group(P)
        closed = []
        generators = monogrp.ComponentGroup._generators

        def counted(self, members):
            closed.append(len(members))
            return generators(self, members)

        monkeypatch.setattr(monogrp.ComponentGroup, "_generators", counted)
        report = generic_stabilizer(P)
        assert (len(report.component_image), report.p_rank) == (group.order, 4) == (16, 4)
        assert closed == [16]

    def test_coefficient_representative_independence(self, sl3_three_cycle):
        # shift the generator coefficient by a torus torsion value: same group,
        # same classes, identical stabilizer report
        perm, coeff = sl3_three_cycle.generators[0]
        shift = (1, 0, 2)  # (1/3, 0, 2/3) modulo e = 3
        shifted = tuple((a + b) % 3 for a, b in zip(coeff, shift))
        P2 = MonomialGroupPresentation(
            p=3,
            torus_rank=2,
            root_of_unity_exponent=3,
            weights=sl3_three_cycle.weights,
            generators=((perm, shifted),),
        )
        assert generic_stabilizer(P2).component_image == generic_stabilizer(sl3_three_cycle).component_image


class TestAgainstCycleCriterion:
    """The stabilizer image, read from line profiles and the coset key, against
    the cycle criterion run on a dense full-walk record."""

    @pytest.mark.parametrize("name", sorted(STABILIZER_INPUTS))
    def test_image_matches_reference(self, name):
        for P, V in STABILIZER_INPUTS[name]():
            # natural, V and, for an abelian case, V plus its character lines
            for R in ed_reps(P, V):
                assert generic_stabilizer(P, R).component_image == stabilizer_image_reference(P, R)


class TestPFaithful:
    def test_weight_two_parity(self, weight_two_line):
        ok, witness = is_p_faithful(weight_two_line)
        assert not ok and "mu_2" in witness
        P3 = MonomialGroupPresentation(
            p=3,
            torus_rank=1,
            root_of_unity_exponent=1,
            weights=((2,),),
            generators=(),
        )
        assert is_p_faithful(P3).ok

    def test_sl3_natural(self, sl3_three_cycle):
        assert is_p_faithful(sl3_three_cycle).ok

    def test_kernel_class_detected(self, sl3_three_cycle):
        # a block seeing only the trivial character of the component group
        # leaves the whole 3-cycle class acting trivially on nothing new;
        # dropping the natural block makes the torus action rank deficient
        rep = with_line(sl3_three_cycle, (0,), 3)
        assert is_p_faithful(sl3_three_cycle, rep).ok  # natural block still faithful


class TestPGenericallyFree:
    def test_sl3_natural_not_free(self, sl3_three_cycle):
        report = generic_stabilizer(sl3_three_cycle)
        assert not report.p_generically_free
        assert len(report.component_image) > 1  # a component class fixes a generic point

    def test_sl3_with_faithful_character_block(self, sl3_three_cycle):
        rep = with_line(sl3_three_cycle, (1,), 3)  # the generator acts by 1/3
        assert generic_stabilizer(sl3_three_cycle, rep).p_generically_free

    def test_sl2_normalizer_free_with_oracle(self, sl2_normalizer):
        assert generic_stabilizer(sl2_normalizer).p_generically_free
        ff = ff_stabilizer(sl2_normalizer, q=5, trials=50, seed=0)
        assert ff.min_order == 1


class TestMonotonicity:
    def test_appending_blocks_shrinks_image(self, sl3_three_cycle):
        base = generic_stabilizer(sl3_three_cycle)
        rep1 = with_line(sl3_three_cycle, (0,), 3)
        same = generic_stabilizer(sl3_three_cycle, rep1)
        assert set(same.component_image) <= set(base.component_image)
        assert same.component_image == base.component_image  # trivial character: no shrink
        rep2 = with_line(sl3_three_cycle, (1,), 3)  # the generator acts by 1/3
        smaller = generic_stabilizer(sl3_three_cycle, rep2)
        assert set(smaller.component_image) < set(base.component_image)

    def test_order_agreement_with_oracle(self, sl3_three_cycle):
        report = generic_stabilizer(sl3_three_cycle)
        ff = ff_stabilizer(sl3_three_cycle, q=7, trials=50, seed=0)
        assert ff.min_order == report.stabilizer_order == 3
