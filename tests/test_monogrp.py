"""Presentation validation, component groups, lattice actions, character lines."""

import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from edtorus import monogrp, zlat
from edtorus.cli import load_presentation
from edtorus.monogrp import (
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    RepBlock,
    ValidationReport,
    character_lattice_action,
    check_rep_compatible,
    closure,
    component_group,
    monomial_mul,
    natural_rep,
    validate,
)
from edtorus.pipeline import _characters_generating_dual, sln_case, so_case
from edtorus.symrank import _identity, _mat_mul
from edtorus.zlat import IntMatrix

from conftest import (
    GOLDEN_INPUTS,
    abelian_invariants_reference,
    bounded_closure,
    character_lattice_action_reference,
    class_of,
    ed_reps,
    element_order,
    induced_matrix_reference,
    int_matmul,
    is_prime_reference,
    monomial_mul_reference,
    perturbed_case_presentations,
    rep_record_reference,
    sl_case_rep,
    with_line,
)


def _repeated_and_zero_weights():
    """Lines 0 and 2 share weight (1, 0), lines 1 and 3 share (0, 1), line 4 has
    weight zero.  Generator 0 swaps the two coordinates; generator 1 swaps the
    lines of equal weight 0 and 2, so it induces the identity matrix.  The
    component group is dihedral of order 8, its lattice image has order 2."""
    return MonomialGroupPresentation(
        p=2,
        torus_rank=2,
        root_of_unity_exponent=1,
        weights=((1, 0), (0, 1), (1, 0), (0, 1), (0, 0)),
        generators=(((1, 0, 3, 2, 4), (0,) * 5), ((2, 1, 0, 3, 4), (0,) * 5)),
    )


class TestConventions:
    def test_action_convention(self, sl2_normalizer):
        # (sigma, c) sends coordinate v_{sigma^-1(i)} to position i scaled by c_i:
        # the swap with coefficient (0, 1/2) squares to the coefficient vector
        # (1/2, 1/2), which is the torus point -1 acting through weights (1, -1);
        # modulo e = 2 these are (0, 1) and (1, 1)
        g = sl2_normalizer.generators[0]
        sq = monomial_mul(g, g, 2)
        assert sq[0] == (0, 1)
        assert sq[1] == (1, 1)

    def test_product_matches_dense_reference(self):
        """`monomial_mul` adds only the nonzero coefficients of its right factor;
        on reduced inputs it agrees with the dense product on every line."""
        rng = random.Random(23)
        for m, n in itertools.product((0, 1, 2, 5, 12, 28), (1, 2, 3, 4, 9, 16)):
            for density in (0.0, 0.2, 1.0):  # all zero, sparse, every entry nonzero (n > 1)
                for _ in range(5):
                    a, b = [
                        (
                            tuple(rng.sample(range(m), m)),
                            tuple(rng.randrange(1, n) if n > 1 and rng.random() < density else 0 for _ in range(m)),
                        )
                        for _ in range(2)
                    ]
                    assert monomial_mul(a, b, n) == monomial_mul_reference(a, b, n)


class TestPrimeTest:
    PSI_12 = 318_665_857_834_031_151_167_461  # the least composite passing Miller-Rabin on the first 12 primes

    def test_matches_trial_division(self):
        assert [n for n in range(-3, 200_000) if monogrp._is_prime(n) != is_prime_reference(n)] == []

    def test_psi_12_is_composite(self):
        assert not monogrp._is_prime(self.PSI_12)
        assert self.PSI_12 == 399_165_290_221 * 798_330_580_441

    def test_large_primes(self):
        assert monogrp._is_prime(2**31 - 1) and monogrp._is_prime(2**61 - 1)  # Mersenne primes
        assert not monogrp._is_prime((2**61 - 1) * (2**19 - 1))
        assert not monogrp._is_prime(3_215_031_751)  # 151 * 751 * 28351, passes bases 2, 3, 5 and 7

    @pytest.mark.parametrize("n", [monogrp.PRIME_TEST_BOUND, monogrp.PRIME_TEST_BOUND + 2, 2**127 - 1])
    def test_refused_at_the_bound(self, n):
        with pytest.raises(EdtorusError) as err:
            monogrp._is_prime(n)
        assert err.value.code == "BAD_INPUT" and str(monogrp.PRIME_TEST_BOUND) in err.value.detail


class TestClosure:
    def add6(self, x, g):
        return (x + g) % 6

    def test_breadth_first_discovery_order(self):
        assert closure(0, [2, 3], self.add6) == [0, 2, 3, 4, 5, 1]


class TestValidate:
    def test_sl2_normalizer(self, sl2_normalizer):
        report = validate(sl2_normalizer)
        assert report.ok
        assert report.component_order == 2
        assert report.induced_matrices == (((-1,),),)
        assert not report.split_witness  # the literal swap closes to order 4
        group = component_group(sl2_normalizer)
        g = class_of(group, sl2_normalizer.generators[0])
        assert group.mul(g, g) == group.identity

    @staticmethod
    def swapped(weights):
        """The two given weights, swapped by the one generator."""
        return MonomialGroupPresentation(
            p=2,
            torus_rank=len(weights[0]),
            root_of_unity_exponent=1,
            weights=weights,
            generators=(((1, 0), (0, 0)),),
        )

    @staticmethod
    def assert_refused(P, code, detail, monkeypatch):
        """validate's failed report, field by field; then component_group and
        check_rep_compatible raise its code from that report, with no Smith form."""
        assert validate(P) == ValidationReport(
            ok=False,
            error=code,
            detail=detail,
            induced_matrices=(),
            component_order=None,
            split_witness=False,
            diagnostics=(),
        )

        def no_smith(M):
            raise AssertionError("an invalid presentation was analysed again")

        monkeypatch.setattr(zlat, "smith_normal_form", no_smith)
        for call in (lambda: component_group(P), lambda: check_rep_compatible(P, natural_rep(P))):
            with pytest.raises(EdtorusError) as err:
                call()
            assert (err.value.code, err.value.detail) == (code, detail)

    def test_no_induced_action(self, fresh_caches, monkeypatch):
        # 2 w_0 - w_1 = 0 holds of the weights and fails of their images
        P = self.swapped(((1,), (2,)))
        self.assert_refused(P, "NO_INDUCED_ACTION", "weight images violate the defining relations", monkeypatch)

    def test_no_integral_induced_action(self, fresh_caches, monkeypatch):
        # no relation to violate, but A (2, 0) = (0, 1) has no integral solution A
        P = self.swapped(((2, 0), (0, 1)))
        self.assert_refused(P, "NO_INDUCED_ACTION", "no integral matrix maps the weights onto their images", monkeypatch)

    @pytest.mark.parametrize(
        "load",
        [lambda: sln_case(9, 2).presentation, lambda: load_presentation(str(GOLDEN_INPUTS / "so_2.json"), "full")[0]],
        ids=["case_sl_9_2", "so_2"],
    )
    def test_one_smith_form_per_presentation(self, load, fresh_caches, monkeypatch):
        """The rank test, every induced matrix and the enumeration's coset key
        read one Smith form of the weights."""
        P = load()
        calls = collections.Counter()
        smith = zlat.smith_normal_form

        def counting_smith(M):
            calls["smith_normal_form"] += 1
            return smith(M)

        monkeypatch.setattr(zlat, "smith_normal_form", counting_smith)
        assert validate(P).ok
        assert calls == {"smith_normal_form": 1}

    def test_not_p_group(self, fresh_caches, monkeypatch):
        P = MonomialGroupPresentation(
            p=2,
            torus_rank=1,
            root_of_unity_exponent=1,
            weights=((1,), (1,), (1,)),
            generators=(((1, 2, 0), (0, 0, 0)),),
        )
        self.assert_refused(P, "NOT_P_GROUP", "component group order 3 is not a power of 2", monkeypatch)

    def test_rank_deficient(self, fresh_caches, monkeypatch):
        P = MonomialGroupPresentation(
            p=2,
            torus_rank=2,
            root_of_unity_exponent=1,
            weights=((1, 0), (-1, 0)),
            generators=(),
        )
        detail = "weights span rank < torus rank; the torus would act with infinite kernel"
        self.assert_refused(P, "RANK_DEFICIENT", detail, monkeypatch)

    def test_split_witness_for_permutation_lifts(self, sl3_three_cycle):
        assert validate(sl3_three_cycle).split_witness

    def test_limit_exceeded(self, sl3_three_cycle, fresh_caches, monkeypatch):
        monkeypatch.setattr(monogrp, "ELEMENT_CAP", 2)
        detail = "component group exceeds the cap of 2 elements"
        self.assert_refused(sl3_three_cycle, "LIMIT_EXCEEDED", detail, monkeypatch)

    @pytest.mark.parametrize("split", [None, True])
    def test_literal_closure_past_cap_is_no_witness(self, split):
        # the generator is a torus point of order e, so F is trivial while the
        # literal generators close up to e > |F| elements: no split witness
        e = 2**11
        P = MonomialGroupPresentation(
            p=2,
            torus_rank=1,
            root_of_unity_exponent=e,
            weights=((1,), (-1,)),
            generators=(((0, 1), (1, e - 1)),),  # (1/e, (e-1)/e)
            split_claim=split,
        )
        report = validate(P)
        assert report.ok
        assert report.component_order == 1
        assert report.split_witness is False
        if split:
            assert report.diagnostics == (
                "split claim rejected: literal generators do not close up to a complement",
            )
        else:
            assert report.diagnostics == ()

    def test_coefficient_denominator_must_divide_e(self):
        from edtorus.cli import presentation_from_json

        doc = {
            "p": 2,
            "torus_rank": 1,
            "root_of_unity_exponent": 2,
            "weights": [[1], [-1]],
            "generators": [{"perm": [2, 1], "coeff_num": [0, 1], "coeff_den": [1, 3]}],
        }
        with pytest.raises(EdtorusError, match="coefficient denominator 3 does not divide e = 2") as err:
            presentation_from_json(doc)
        assert err.value.code == "BAD_INPUT"

    @pytest.mark.parametrize("weights", [((1.5,), (-1.5,)), ((True,), (-1,))], ids=["fraction", "bool"])
    def test_weight_entries_must_be_integers(self, weights):
        with pytest.raises(EdtorusError, match="weight entries must be integers") as err:
            MonomialGroupPresentation(
                p=2,
                torus_rank=1,
                root_of_unity_exponent=1,
                weights=weights,
                generators=(((1, 0), (0, 0)),),
            )
        assert err.value.code == "BAD_INPUT"

    @pytest.mark.parametrize("c", [-1, 2, Fraction(1, 2)])
    def test_coefficients_must_be_reduced_modulo_e(self, c):
        with pytest.raises(EdtorusError, match="integers reduced modulo e") as err:
            MonomialGroupPresentation(
                p=2,
                torus_rank=1,
                root_of_unity_exponent=2,
                weights=((1,), (-1,)),
                generators=(((1, 0), (0, c)),),
            )
        assert err.value.code == "BAD_INPUT"


class TestInducedMatrix:
    """`validate`'s induced matrices, solved on the Smith form of the weight
    rows, against `induced_matrix_reference`: the same matrix, or both refuse."""

    @staticmethod
    def presentations():
        out = [load_presentation(str(path), "full")[0] for path in sorted(GOLDEN_INPUTS.glob("*.json"))]
        out += [sln_case(n, p).presentation for n in range(2, 13) for p in (2, 3, 5, 7) if p <= n]
        out += [so_case(n).presentation for n in range(1, 5)]
        return out + list(perturbed_case_presentations(120, seed=17))

    def test_matches_reference(self):
        rng = random.Random(11)
        outcomes = collections.Counter()
        for P in self.presentations():
            dec = zlat.smith_normal_form(P.weight_matrix())
            assert dec.rank == P.torus_rank
            m = P.num_lines
            # the generators, and random line permutations, most of them invalid
            perms = [perm for perm, _ in P.generators] + [tuple(rng.sample(range(m), m)) for _ in range(3)]
            for perm in perms:
                try:
                    want = induced_matrix_reference(P, perm)
                except EdtorusError as exc:
                    assert exc.code == "NO_INDUCED_ACTION"
                    with pytest.raises(EdtorusError) as err:
                        monogrp._induced_matrices(P, dec, [perm])
                    assert err.value.code == "NO_INDUCED_ACTION"
                    outcomes["refused"] += 1
                    continue
                assert monogrp._induced_matrices(P, dec, [perm]) == (want,)
                assert all(f == 1 for f in zlat.smith_normal_form(IntMatrix(want, P.torus_rank)).invariant_factors)
                outcomes["solved"] += 1
        assert outcomes["refused"] > 100 and outcomes["solved"] > 100, outcomes


class TestOneWalk:
    """The enumeration's split witness and a record's actions, against the
    definitions they replace: the literal closure and the product along each word."""

    PRESENTATIONS = list(perturbed_case_presentations(120, seed=17))

    def test_split_witness_is_the_literal_closure(self):
        splits = []
        for P in self.PRESENTATIONS:
            report = validate(P)
            assert report.ok
            e = P.root_of_unity_exponent
            ident = (tuple(range(P.num_lines)), (0,) * P.num_lines)
            # the literal monomial group can be far larger than |F|: stop one past it
            literal = bounded_closure(ident, P.generators, lambda a, b: monomial_mul(a, b, e), report.component_order)
            assert report.split_witness == (literal is not None)
            splits.append(report.split_witness)
        assert 10 < sum(splits) < len(splits) - 10  # both answers are exercised

    def test_actions_are_the_products_along_the_words(self):
        for P in self.PRESENTATIONS:
            R = natural_rep(P)
            gens = [R.generator_action(j) for j in range(len(P.generators))]
            actions = check_rep_compatible(P, R).actions
            for el, action in zip(component_group(P).elements, actions, strict=True):
                product = (tuple(range(R.dim)), (0,) * R.dim)
                for j in el.word:
                    product = monomial_mul(product, gens[j], R.modulus)
                assert action == product


class TestComponentGroup:
    def test_sl3_order(self, sl3_three_cycle):
        assert component_group(sl3_three_cycle).order == 3

    def test_no_generators(self, weight_two_line):
        assert component_group(weight_two_line).order == 1

    def test_so4_order(self, so4_presentation):
        group = component_group(so4_presentation)
        assert group.order == 4
        assert group.is_abelian()
        assert sorted(element_order(group, i) for i in range(group.order)) == [1, 2, 2, 2]

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: sln_case(3, 3).presentation,
            lambda: sln_case(8, 2).presentation,
            lambda: so_case(2).presentation,
            lambda: sln_case(10, 2).presentation,  # order 256
        ],
    )
    def test_associativity_and_p_power_orders(self, maker):
        P = maker()
        group = component_group(P)
        n = group.order
        table = np.array([[group.mul(a, b) for b in range(n)] for a in range(n)], dtype=np.int32)
        left = table[table[:, :, None], np.arange(n)[None, None, :]]
        right = table[np.arange(n)[:, None, None], table[None, :, :]]
        assert np.array_equal(left, right)
        for i in range(n):
            o = element_order(group, i)
            while o % P.p == 0:
                o //= P.p
            assert o == 1

    @pytest.mark.parametrize(
        "maker",
        [lambda: sln_case(9, 2).presentation, lambda: so_case(2).presentation],  # |F| = 128, 16
        ids=["sl_9_2", "so_2"],
    )
    def test_cayley_table_matches_literal_products(self, maker):
        group = component_group(maker())
        reps = [(el.perm, el.coeff) for el in group.elements]
        e = group.presentation.root_of_unity_exponent
        literal = [[class_of(group, monomial_mul(a, b, e)) for b in reps] for a in reps]
        n = group.order
        assert [[group.mul(x, y) for y in range(n)] for x in range(n)] == literal
        gens = group.right[group.identity]
        assert group.right == [[row[g] for g in gens] for row in literal]
        assert group.is_abelian() == all(literal[i][j] == literal[j][i] for i in range(n) for j in range(n))

    def test_each_cayley_edge_canonicalised_once(self, fresh_caches, monkeypatch):
        from edtorus.monogrp import _CoeffCanon

        P = sln_case(16, 2).presentation
        calls = 0
        canon = _CoeffCanon.canon

        def counting(self, coeff):
            nonlocal calls
            calls += 1
            return canon(self, coeff)

        monkeypatch.setattr(_CoeffCanon, "canon", counting)
        # with fresh caches neither validate nor the group is cached yet
        group = component_group(P)
        assert group.order == 256
        # the identity once, then one canonical form per edge, shared by validate
        assert calls <= group.order * len(P.generators) + 1 == 2049

    @pytest.mark.parametrize(
        "maker",
        [lambda: sln_case(9, 2).presentation, lambda: so_case(2).presentation],  # |F| = 128, 16
        ids=["sl_9_2", "so_2"],
    )
    def test_is_subgroup_matches_all_pairs(self, maker):
        group = component_group(maker())

        def all_pairs(s):
            return group.identity in s and all(group.mul(a, b) in s for a in s for b in s)

        # every subgroup, grown from the trivial one an element at a time;
        # <H, x> = <H, x h> for h in H, so one x per coset x H is enough
        gens_of = {(group.identity,): []}
        frontier = list(gens_of)
        while frontier:
            nxt = []
            for H in frontier:
                done = set(H)
                for x in range(group.order):
                    if x in done:
                        continue
                    done.update(group.mul(x, h) for h in H)
                    K = group.subgroup_closure(gens_of[H] + [x])
                    if K not in gens_of:
                        gens_of[K] = gens_of[H] + [x]
                        nxt.append(K)
            frontier = nxt
        for H in gens_of:
            assert all_pairs(set(H))
            assert group.is_subgroup(H)
        # near misses and random sets, with and without the identity
        rng = random.Random(0)
        candidates = []
        for H in gens_of:
            outside = [x for x in range(group.order) if x not in H]
            if len(H) > 1:
                candidates.append(set(H) - {rng.choice(H[1:])})
            if outside:
                candidates.append(set(H) | {rng.choice(outside)})
        for _ in range(200):
            candidates.append(set(rng.sample(range(group.order), rng.randint(1, group.order))))
        verdicts = [all_pairs(s) for s in candidates]
        assert [group.is_subgroup(s) for s in candidates] == verdicts
        assert verdicts.count(False) > len(candidates) // 2

    def test_homomorphism_to_lattice_matrices(self, sl3_three_cycle):
        report = validate(sl3_three_cycle)
        group = component_group(sl3_three_cycle)
        A = report.induced_matrices[0]
        # the induced map factors through the component group: A^3 = identity
        assert int_matmul(int_matmul(A, A), A) == _identity(len(A))
        assert element_order(group, class_of(group, sl3_three_cycle.generators[0])) == 3

    def test_representative_invariance(self):
        base = sln_case(6, 3).presentation
        # feed the generators in the opposite order and pre-multiply one
        # coefficient by a torsion-image vector (here: the zero class shift
        # coming from a torus point of order 3 through the weights)
        shifted = []
        for perm, coeff in reversed(base.generators):
            shifted.append((perm, coeff))
        P2 = MonomialGroupPresentation(
            p=base.p,
            torus_rank=base.torus_rank,
            root_of_unity_exponent=3,
            weights=base.weights,
            generators=tuple(shifted),
        )
        g1 = component_group(base)
        g2 = component_group(P2)
        assert g1.order == g2.order
        orders = [sorted(element_order(g, i) for i in range(g.order)) for g in (g1, g2)]
        assert orders[0] == orders[1]

    def test_torsion_shifted_representative_same_class(self, sl3_three_cycle):
        perm, coeff = sl3_three_cycle.generators[0]
        # a torus point of exact order 3 acts through the weights as the
        # coefficient vector (1/3, 1/3, 1/3) scaled by each line weight; it
        # needs modulus 3, so the same generator is read with e = 3
        P3 = MonomialGroupPresentation(
            p=3,
            torus_rank=2,
            root_of_unity_exponent=3,
            weights=sl3_three_cycle.weights,
            generators=sl3_three_cycle.generators,
        )
        group = component_group(P3)
        shift = (1, 0, 2)  # weights (1,0),(0,1),(-1,-1) at s=(1/3, 0), modulo 3
        shifted_coeff = tuple((a + b) % 3 for a, b in zip(coeff, shift))
        assert class_of(group, (perm, shifted_coeff)) == class_of(group, (perm, coeff))

    def test_class_equality_matches_torsion_membership(self, sl2_normalizer):
        from itertools import product as iproduct

        from test_zlat import membership_bruteforce

        group = component_group(sl2_normalizer)
        W = sl2_normalizer.weight_matrix()
        perm, base = sl2_normalizer.generators[0]
        cls = class_of(group, (perm, base))
        for shift in iproduct(range(2), repeat=2):  # (a/2, b/2), modulo e = 2
            coeff = tuple((x + y) % 2 for x, y in zip(base, shift))
            if membership_bruteforce([Fraction(x, 2) for x in shift], W):
                assert class_of(group, (perm, coeff)) == cls
            else:
                # a coefficient outside the torsion image is a different
                # extension element, not a member of the presented group
                with pytest.raises(ValueError):
                    class_of(group, (perm, coeff))

    def test_torsion_image_predicate_matches_reference(self):
        from test_zlat import membership_bruteforce

        from edtorus.monogrp import _CoeffCanon

        rng = random.Random(7)
        for _ in range(200):
            m, d, n = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 6)
            W = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)], d)
            canon = _CoeffCanon(W, n)
            v = tuple(rng.randrange(n) for _ in range(m))
            expected = membership_bruteforce([Fraction(x, n) for x in v], W)
            assert canon.is_torsion_image(v) == expected
            assert (not any(canon.canon(v))) == expected


class TestCharacterLattice:
    def test_sl3_lattice(self, sl3_three_cycle):
        L = character_lattice_action(sl3_three_cycle)
        assert L.rank == 2
        assert L.order == 3

    def test_so4_lattice(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        assert L.rank == 2
        assert L.order == 4

    def test_trivial_generators(self, weight_two_line):
        L = character_lattice_action(weight_two_line)
        assert L.order == 1

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: sln_case(3, 3).presentation,
            lambda: sln_case(4, 2).presentation,
            lambda: sln_case(5, 2).presentation,
            lambda: sln_case(6, 3).presentation,
            lambda: sln_case(7, 2).presentation,
            lambda: sln_case(8, 2).presentation,
            lambda: sln_case(9, 3).presentation,
            lambda: so_case(1).presentation,
            lambda: so_case(2).presentation,
            _repeated_and_zero_weights,
        ],
        ids=["sl_3_3", "sl_4_2", "sl_5_2", "sl_6_3", "sl_7_2", "sl_8_2", "sl_9_3", "so_1", "so_2", "repeated_zero"],
    )
    def test_matches_matrix_closure(self, maker):
        P = maker()
        L = character_lattice_action(P)
        # reference: the induced generator matrices closed under matrix products
        ident = _identity(P.torus_rank)
        gens = sorted(set(validate(P).induced_matrices))
        assert L.matrices == tuple(sorted(closure(ident, gens, _mat_mul)))
        assert L.is_abelian() == all(_mat_mul(a, b) == _mat_mul(b, a) for a in L.matrices for b in L.matrices)
        assert ident not in L.generators

    @staticmethod
    def reference_presentations():
        out = [sln_case(n, p).presentation for n in range(2, 13) for p in (2, 3, 5) if p <= n]
        out += [so_case(n).presentation for n in range(1, 4)]
        out += [load_presentation(str(path), "full")[0] for path in sorted(GOLDEN_INPUTS.glob("*.json"))]
        out.append(_repeated_and_zero_weights())
        return out + list(perturbed_case_presentations(60, seed=29))

    def test_matches_second_closure(self):
        """The image read off the enumeration against the parent design's second
        closure of the generators' value permutations, images smaller than F included."""
        smaller = 0
        for P in self.reference_presentations():
            L, ref = character_lattice_action(P), character_lattice_action_reference(P)
            assert (L.order, L.generators, L.matrices, L.is_abelian()) == (
                ref.order,
                ref.generators,
                ref.matrices,
                ref.is_abelian(),
            )
            smaller += L.order < component_group(P).order
        assert smaller >= 2  # gm_times_z2 and the repeated weights at least

    def test_identity_generator_left_out(self):
        L = character_lattice_action(_repeated_and_zero_weights())
        assert component_group(_repeated_and_zero_weights()).order == 8
        assert L.order == 2
        assert L.generators == (((0, 1), (1, 0)),)

    def test_one_matrix_product_per_image_element(self, monkeypatch):
        import importlib

        symrank_module = importlib.import_module("edtorus.symrank")  # the package exports a function of that name
        calls = 0

        def counting_mul(a, b):
            nonlocal calls
            calls += 1
            return _mat_mul(a, b)

        P = sln_case(16, 2).presentation
        monkeypatch.setattr(symrank_module, "_mat_mul", counting_mul)
        L = character_lattice_action.__wrapped__(P)  # past the cache: a fresh build
        assert L.order == 256
        assert len(L.matrices) == L.order
        assert calls <= L.order

    def test_no_second_closure(self, monkeypatch):
        """The image and its Cayley graph are read off F's enumeration."""
        P = sln_case(16, 2).presentation
        component_group(P)  # cached: only the lattice image is built below
        calls = []
        closure = monogrp.closure

        def counting_closure(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(monogrp, "closure", counting_closure)
        L = character_lattice_action.__wrapped__(P)  # past the cache: a fresh build
        assert (L.order, calls) == (256, [])

    def test_cached_per_presentation(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        assert character_lattice_action(so4_presentation) is L
        # an equal presentation built anew hits the same entry
        assert character_lattice_action(so_case(1).presentation) is L


class TestCharacterBlocks:
    """A weight-zero line is a character of F; its record walk is its one check."""

    def test_trivial_character(self, sl3_three_cycle):
        rec = check_rep_compatible(sl3_three_cycle, with_line(sl3_three_cycle, (0,), 3))
        assert [coeff[-1] for _, coeff in rec.actions] == [0, 0, 0]

    def test_order_three_character(self, sl3_three_cycle):
        # the generator acts by 1/3, so each class acts by its character value
        group = component_group(sl3_three_cycle)
        g = class_of(group, sl3_three_cycle.generators[0])
        chi = [0] * group.order  # values modulo |F| = 3
        chi[g] = 1
        chi[group.mul(g, g)] = 2
        rec = check_rep_compatible(sl3_three_cycle, with_line(sl3_three_cycle, (1,), 3))
        assert [coeff[-1] for _, coeff in rec.actions] == chi

    def test_not_a_character(self, sl3_three_cycle):
        # the generator has order 3, and 3 * 1/2 is not 0 in Q/Z: its cube,
        # class 2 times generator 0, acts by 1/2 where the identity acts by 0
        with pytest.raises(EdtorusError) as err:
            check_rep_compatible(sl3_three_cycle, with_line(sl3_three_cycle, (1,), 2))
        assert err.value.code == "BAD_INPUT"
        assert err.value.detail == (
            "blocks do not define a representation: class 2 times generator 0 does not act as class 0"
        )

    @staticmethod
    def all_characters(group):
        """Every character of the abelian group, in the lexicographic order of
        its exponent tuple a over the cyclic decomposition: the listing the
        dual-basis pick must agree with."""
        _, orders, coords = group.abelian_decomposition()
        n = group.order
        out = []
        for a in itertools.product(*[range(d) for d in orders]):
            scaled = [ai * (n // di) for ai, di in zip(a, orders)]
            values = [0] * n
            for g, expo in coords.items():
                values[g] = sum(s * b for s, b in zip(scaled, expo)) % n
            out.append(tuple(values))
        return out

    def test_characters_generating_dual(self, so4_presentation):
        for P in (so4_presentation, so_case(2).presentation, sln_case(9, 3).presentation):
            group = component_group(P)
            N = group.order
            reference = self.all_characters(group)
            assert len(reference) == N
            for chi in reference:
                assert all((chi[i] + chi[j]) % N == chi[group.mul(i, j)] for i in range(N) for j in range(N))
            # the whole group and every cyclic subgroup as the image
            images = {group.subgroup_closure([g]) for g in range(N)} | {tuple(range(N))}
            for H in images:
                basis, orders, _ = group.abelian_decomposition(H)
                chosen = _characters_generating_dual(group, H)
                assert len(chosen) == len(orders)
                for i, chi in enumerate(chosen):
                    dual = [N // d if j == i else 0 for j, d in enumerate(orders)]
                    assert [chi[b] for b in basis] == dual
                    assert chi == next(ref for ref in reference if [ref[b] for b in basis] == dual)
                    # W's record walk accepts the line and acts on it by chi
                    W = with_line(P, [chi[g] for g in group.right[group.identity]], N)
                    k = W.modulus // N
                    assert [c[-1] for _, c in check_rep_compatible(P, W).actions] == [k * x for x in chi]


class TestRepCompatibility:
    def test_block_denominator_need_not_divide_e(self, so4_presentation):
        # e = 1, and the sign swap acts on the new line by 1/2: a character of F
        check_rep_compatible(so4_presentation, with_line(so4_presentation, (1, 0), 2))

    def test_relation_violated_rejected(self):
        # the swap squares to the torus point -1, which is trivial on a weight-zero
        # line; acting there by 1/4 its square acts by 1/2, by 1/2 it squares to 0
        P = MonomialGroupPresentation(
            p=2,
            torus_rank=1,
            root_of_unity_exponent=4,
            weights=((1,), (-1,)),
            generators=(((1, 0), (0, 2)),),
        )
        with pytest.raises(EdtorusError, match="do not define a representation") as err:
            check_rep_compatible(P, with_line(P, (1,), 4))
        assert err.value.code == "BAD_INPUT"
        check_rep_compatible(P, with_line(P, (2,), 4))

    @pytest.mark.parametrize("c", [2, Fraction(1, 2)])
    def test_unreduced_block_coefficient_rejected(self, so4_presentation, c):
        with pytest.raises(EdtorusError, match="integers reduced modulo its modulus") as err:
            check_rep_compatible(so4_presentation, with_line(so4_presentation, (c, 0), 2))
        assert err.value.code == "BAD_INPUT"

    @pytest.mark.parametrize("modulus", [0, -2])
    def test_nonpositive_block_modulus_rejected(self, so4_presentation, modulus):
        # an empty block: modulus 0 would divide by zero in the rep's action, and -2 pass as 2
        P = so4_presentation
        none = ((),) * len(P.generators)
        empty = RepBlock(weights=(), gen_perms=none, gen_coeffs=none, modulus=modulus)
        R = MonomialRep(presentation=P, blocks=natural_rep(P).blocks + (empty,))
        with pytest.raises(EdtorusError, match="modulus must be a positive integer") as err:
            check_rep_compatible(P, R)
        assert err.value.code == "BAD_INPUT"

    @pytest.mark.parametrize(
        "match,change",
        [
            ("one action per generator", lambda b: dict(gen_perms=b.gen_perms[:-1], gen_coeffs=b.gen_coeffs[:-1])),
            ("one action per generator", lambda b: dict(gen_perms=b.gen_perms * 2, gen_coeffs=b.gen_coeffs * 2)),
            ("weight length", lambda b: dict(weights=tuple(w + (0,) for w in b.weights))),
            ("weight entries must be integers", lambda b: dict(weights=((0.5,) + b.weights[0][1:],) + b.weights[1:])),
            ("weight entries must be integers", lambda b: dict(weights=(b.weights[0][:-1] + (True,),) + b.weights[1:])),
        ],
        ids=["fewer_actions", "extra_actions", "long_weights", "fractional_weight", "bool_weight"],
    )
    def test_misshapen_block_rejected(self, so4_presentation, match, change):
        block = natural_rep(so4_presentation).blocks[0]
        R = MonomialRep(presentation=so4_presentation, blocks=(dataclasses.replace(block, **change(block)),))
        with pytest.raises(EdtorusError, match=match) as err:
            check_rep_compatible(so4_presentation, R)
        assert err.value.code == "BAD_INPUT"


def _record_inputs():
    """Presentations with the representations ed records on them: the golden
    inputs with their file's blocks, the SL cases with the V `ed_case_sl`
    takes (or the Sylow witness), the SO cases, and perturbed lifts."""
    inputs = {}
    for path in sorted(GOLDEN_INPUTS.glob("*.json")):
        inputs[path.stem] = lambda path=path: load_presentation(str(path), "full")
    for n in range(2, 9):
        for p in (q for q in (2, 3, 5, 7) if q <= n):
            inputs[f"sl_{n}_{p}"] = lambda n=n, p=p: sl_case_rep(n, p)
    for n in (1, 2, 3):
        inputs[f"so_{n}"] = lambda n=n: (so_case(n).presentation, natural_rep(so_case(n).presentation))
    # nonzero coefficients modulo e = p or p^2, below the characters' modulus |F|
    for i, P in enumerate(perturbed_case_presentations(24, seed=5)):
        inputs[f"perturbed_{i}"] = lambda P=P: (P, natural_rep(P))
    return inputs


RECORD_INPUTS = _record_inputs()


class TestRecordReuse:
    """Records built from checks already made, against a walk over all lines."""

    @pytest.mark.parametrize("name", sorted(RECORD_INPUTS))
    def test_records_equal_a_full_walk(self, name, fresh_caches, monkeypatch):
        P, V = RECORD_INPUTS[name]()
        spanning = []  # reps a record walked over all of their lines
        walk = monogrp._walk

        def recording(group, R, canon):
            if canon is not None:
                spanning.append(R)
            return walk(group, R, canon)

        monkeypatch.setattr(monogrp, "_walk", recording)
        reps = ed_reps(P, V)
        for R in reps:
            rec = check_rep_compatible(P, R)
            ref = rep_record_reference(P, R)
            assert rec.actions == ref.actions
            assert rec.canon.rows == ref.rows
            # the key keeps the residues of the rows that do not vanish mod n
            kept = [i for i, u in enumerate(ref.rows) if any(a % R.modulus for a in u)]
            assert [rec.canon.canon(c) for _, c in rec.actions] == [tuple(r[i] for i in kept) for r in ref.residues]
        # the natural record is the enumeration's, and an extension of a
        # recorded V walks only its character lines
        assert natural_rep(P) not in spanning
        assert all(R not in spanning for R in reps[2:])


class TestAbelianDecomposition:
    @pytest.mark.parametrize("maker,expected", [
        (lambda: sln_case(3, 3).presentation, (3,)),
        (lambda: sln_case(4, 2).presentation, (2, 2)),
        (lambda: so_case(2).presentation, (2, 2, 2, 2)),
    ])
    def test_invariant_factors(self, maker, expected):
        group = component_group(maker())
        _, orders, coords = group.abelian_decomposition()
        assert tuple(sorted(orders)) == tuple(sorted(expected))
        assert len(coords) == group.order

    def test_proper_subgroup_coords_are_a_homomorphism(self):
        group = component_group(sln_case(9, 2).presentation)
        # an element of order 4 and one commuting with it outside its span
        x, y = next(
            (x, y)
            for x in range(group.order)
            if element_order(group, x) == 4
            for y in range(group.order)
            if group.mul(x, y) == group.mul(y, x) and y not in group.subgroup_closure([x])
        )
        members = group.subgroup_closure([x, y])
        assert len(members) < group.order
        basis, orders, coords = group.abelian_decomposition(members)
        assert max(orders) > 2
        assert sorted(coords) == list(members)
        assert [coords[b] for b in basis] == [
            tuple(int(i == k) for i in range(len(basis))) for k in range(len(basis))
        ]
        for a in members:
            for b in members:
                expected = tuple((u + v) % d for u, v, d in zip(coords[a], coords[b], orders))
                assert coords[group.mul(a, b)] == expected
        assert group.abelian_decomposition([y, x]) is group.abelian_decomposition(members)

    def test_non_abelian_subgroup_rejected(self):
        group = component_group(sln_case(5, 2).presentation)
        with pytest.raises(ValueError, match="not abelian"):
            group.abelian_decomposition()

    @pytest.mark.parametrize("n,non_abelian", [(5, 1), (6, 4), (7, 4)])
    def test_two_generated_subgroups_match_cayley_relations(self, n, non_abelian):
        group = component_group(sln_case(n, 2).presentation)
        N = group.order
        subgroups = {group.subgroup_closure([a, b]) for a in range(N) for b in range(a + 1)}
        rejected = 0
        for H in sorted(subgroups):
            abelian = all(group.mul(x, y) == group.mul(y, x) for x in H for y in H)
            if not abelian:
                rejected += 1
                with pytest.raises(ValueError, match="not abelian"):
                    group.abelian_decomposition(H)
                continue
            _, orders, coords = group.abelian_decomposition(H)
            assert orders == abelian_invariants_reference(group, H)
            assert sorted(coords) == list(H)
        assert rejected == non_abelian

    def test_whole_group_costs_few_products(self, fresh_caches, monkeypatch):
        # the greedy picks grow the group coset by coset and the coordinates
        # are grown once more, so about 4|F| products in all; a relation per
        # Cayley edge made 49,364 here
        group = component_group(so_case(5).presentation)
        calls = []
        mul = monogrp.ComponentGroup.mul

        def counted(self, x, y):
            calls.append(1)
            return mul(self, x, y)

        monkeypatch.setattr(monogrp.ComponentGroup, "mul", counted)
        _, orders, coords = group.abelian_decomposition()
        assert group.order == 1024 and orders == (2,) * 10 and len(coords) == 1024
        assert len(calls) <= 5 * group.order


class TestElementaryRank:
    @pytest.mark.parametrize(
        "maker,rank",
        [
            (lambda: sln_case(4, 2).presentation, 2),
            (lambda: so_case(2).presentation, 4),
            (lambda: sln_case(9, 3).presentation, 3),
        ],
        ids=["sl_4_2", "so_2", "sl_9_3"],
    )
    def test_invariant_factor_rank_matches_search(self, maker, rank):
        P = maker()
        group = component_group(P)
        subgroups = {tuple(range(group.order))}
        subgroups.update(group.subgroup_closure([i, j]) for i in range(group.order) for j in range(i))
        for members in sorted(subgroups):
            assert group.elementary_rank(members, P.p) == group._elementary_rank_search(members, P.p)
        assert group.elementary_rank(range(group.order), P.p) == rank

    def test_abelian_subgroup_is_closed_once(self, fresh_caches, monkeypatch):
        # one greedy closure and the coset-grown decomposition, whose own
        # refusal decides abelianness; closing the subgroup three times made
        # 59,584 products here
        group = component_group(so_case(5).presentation)
        calls = []
        mul = monogrp.ComponentGroup.mul

        def counted(self, x, y):
            calls.append(1)
            return mul(self, x, y)

        monkeypatch.setattr(monogrp.ComponentGroup, "mul", counted)
        assert group.elementary_rank(range(1024), 2) == 10
        assert len(calls) <= 25_000

    def test_is_abelian_reads_the_cayley_graph(self, monkeypatch):
        groups = [component_group(P) for P in (so_case(2).presentation, sln_case(5, 2).presentation)]
        monkeypatch.setattr(monogrp.ComponentGroup, "mul", None)
        assert [group.is_abelian() for group in groups] == [True, False]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_non_abelian_search_matches_brute_force(self, n):
        from itertools import combinations

        group = component_group(sln_case(n, 2).presentation)
        involutions = [i for i in range(group.order) if element_order(group, i) == 2]
        # k pairwise commuting involutions generating 2^k elements
        brute = max(
            k
            for k in range(len(involutions) + 1)
            for combo in combinations(involutions, k)
            if all(group.mul(a, b) == group.mul(b, a) for a, b in combinations(combo, 2))
            and len(group.subgroup_closure(combo)) == 2**k
        )
        assert not group.is_abelian()
        assert group.elementary_rank(range(group.order), 2) == brute
