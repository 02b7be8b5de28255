"""Symmetric p-rank search, lower bounds, and minimal faithful dimension."""

import importlib
import json
import random
from pathlib import Path

import pytest

from edtorus.cli import load_presentation, presentation_from_json
from edtorus.monogrp import (
    EdtorusError,
    MonomialGroupPresentation,
    character_lattice_action,
    closure,
    limit_steps,
    natural_rep,
)
from edtorus.oracle import symrank_bruteforce
from edtorus.pipeline import sln_case, so_case
from edtorus.symrank import (
    FLattice,
    _enumerate_orbits,
    _identity,
    _mat_mul,
    _orbit_spans,
    _search_bound,
    _span,
    eta_bounds,
    perm_lower_bound,
    symrank,
    weight_seed,
)

from conftest import lattice, orbit_reference, orbits_reference


DIHEDRAL_8 = tuple(
    m
    for a in (1, -1)
    for b in (1, -1)
    for m in (((a, 0), (0, b)), ((0, a), (b, 0)))
)


class TestFLatticeChecks:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            FLattice(rank=2, generators=(((1, 0, 0), (0, 1, 0)),), right=[[1], [0]])

    def test_dihedral_accepted_in_any_order(self):
        gens = [m for m in DIHEDRAL_8 if m != ((1, 0), (0, 1))]
        random.Random(3).shuffle(gens)
        L = lattice(2, gens)
        assert (L.order, L.is_abelian(), L.matrices) == (8, False, tuple(sorted(DIHEDRAL_8)))

    @pytest.mark.parametrize("rank", [1, 2], ids=["identity", "identity_rank_two"])
    def test_trusted_generators_must_be_non_identity_members(self, rank):
        with pytest.raises(ValueError, match="generators"):
            FLattice(rank=rank, generators=(_identity(rank),), right=[[0]])

    def test_cayley_graph_builds_matrices_on_first_read(self):
        neg = ((-1,),)
        L = FLattice(rank=1, generators=(neg,), right=[[1], [0]])
        assert "matrices" not in vars(L)
        assert (L.order, L.is_abelian()) == (2, True)
        assert L.matrices == (neg, ((1,),))
        # a graph of three elements over a group of two: the build finds a repeat
        with pytest.raises(EdtorusError, match="distinct"):
            FLattice(rank=1, generators=(neg,), right=[[1], [2], [0]]).matrices


class TestFLatticeAbelian:
    @staticmethod
    def all_pairs_commute(L):
        return all(_mat_mul(a, b) == _mat_mul(b, a) for a in L.matrices for b in L.matrices)

    @pytest.mark.parametrize(
        "maker,abelian",
        [
            (lambda: lattice(2, [((0, 1), (1, 0)), ((-1, 0), (0, 1))]), False),
            (lambda: lattice(2, [((-1, 0), (0, 1)), ((1, 0), (0, -1))]), True),
            (lambda: character_lattice_action(sln_case(9, 3).presentation), True),
        ],
        ids=["dihedral_8", "diagonal_signs", "sl_9_3"],
    )
    def test_generators_decide_commutativity(self, maker, abelian):
        L = maker()
        ident = tuple(tuple(int(i == j) for j in range(L.rank)) for i in range(L.rank))
        assert set(closure(ident, L.generators, _mat_mul)) == set(L.matrices)
        assert L.is_abelian() == self.all_pairs_commute(L) == abelian


class TestSymrankValues:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trivial_group(self, d):
        res = symrank(lattice(d, ()), 2, B=1)
        assert res.value == d
        assert res.status == "EXACT"

    def test_negation(self, negation_lattice):
        res = symrank(negation_lattice, 2, B=3)
        assert res.value == 2
        assert res.status == "EXACT"
        assert symrank_bruteforce(negation_lattice, 2, 3) == 2

    def test_sl3_lattice(self, sl3_three_cycle):
        L = character_lattice_action(sl3_three_cycle)
        res = symrank(L, 3)
        assert res.value == 3 and res.status == "EXACT"

    def test_so4_lattice(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        res = symrank(L, 2)
        assert res.value == 4 and res.status == "EXACT"
        assert symrank_bruteforce(L, 2, 2) == 4

    def test_sl4_lattice(self):
        L = character_lattice_action(sln_case(4, 2).presentation)
        res = symrank(L, 2)
        assert res.value == 4 and res.status == "EXACT"

    def test_witness_properties(self, so4_presentation):
        from edtorus.oracle import _eliminate

        L = character_lattice_action(so4_presentation)
        res = symrank(L, 2)
        assert len(res.witness) == res.value
        vecs = set(res.witness)
        for v in res.witness:
            assert set(orbit_reference(L, v)) <= vecs
        assert len(_eliminate([], res.witness, 2)) == L.rank

    def test_upper_only_status(self):
        # plus/minus the identity on Z^2: orbits are +/- pairs and two of them
        # can span with odd index, so the minimum is 4 while the certified
        # lower bound is only max(rank, p log_p 2) = 2
        neg = lattice(2, [((-1, 0), (0, -1))])
        res = symrank(neg, 2, B=2)
        assert res.value == 4
        assert res.status == "UPPER_ONLY"
        assert res.lower_bound_used == 2


class TestBudgets:
    def test_node_budget(self):
        # the box of 3^7 = 2,187 vectors fits the limit; the search needs 8,208 nodes
        L = character_lattice_action(sln_case(8, 2).presentation)
        with limit_steps(2_187), pytest.raises(EdtorusError) as err:
            symrank(L, 2, B=1)
        assert (err.value.code, err.value.detail) == ("BUDGET_EXCEEDED", "branch-and-bound node budget exhausted")

    def test_box_budget(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        with limit_steps(10), pytest.raises(EdtorusError) as err:
            symrank(L, 2, B=3)
        assert err.value.code == "BUDGET_EXCEEDED"
        assert err.value.detail == f"box of {7 ** L.rank} vectors exceeds the search budget 10"

    @pytest.mark.parametrize("p", [2, 3])
    def test_sl7_search_within_node_budget(self, p):
        # pins the span search and its memo (under 1,000 nodes here), not a timing
        L = character_lattice_action(sln_case(7, p).presentation)
        with limit_steps(5_000):
            res = symrank(L, p, B=1)
        assert res.value == 6
        assert res.status == "EXACT"


class TestWitnessCheck:
    """A caller's witness is checked on the group's generators only: a finite
    set each generator maps into itself is invariant under the whole group."""

    FLIPS = lattice(2, [((-1, 0), (0, 1)), ((1, 0), (0, -1))])

    @pytest.mark.parametrize(
        "witness,reason",
        [
            # invariant under the first generator, not under the second
            (((1, 0), (-1, 0), (0, 1)), "invariant"),
            # invariant, but its span has index 2
            (((2, 0), (-2, 0), (0, 1), (0, -1)), "p-spanning"),
        ],
        ids=["second_generator", "not_p_spanning"],
    )
    def test_bad_initial_witness_rejected(self, witness, reason):
        with pytest.raises(EdtorusError, match=reason) as err:
            symrank(self.FLIPS, 2, B=1, initial_witness=witness)
        assert err.value.code == "BAD_INPUT"

    def test_check_builds_no_lattice_matrix(self, fresh_caches, monkeypatch):
        # the package's `symrank` attribute is the function, not the module
        symrank_module = importlib.import_module("edtorus.symrank")
        calls = []
        mat_mul = symrank_module._mat_mul
        monkeypatch.setattr(symrank_module, "_mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
        P = sln_case(9, 3).presentation
        L = character_lattice_action(P)
        # V's nine weights meet the certified lower bound: the check is all that runs
        weights = [w for w in natural_rep(P).weights if any(w)]
        res = symrank(L, 3, B=1, initial_witness=weights)
        assert (res.value, res.status) == (9, "EXACT")
        assert calls == []
        assert "matrices" not in vars(L)


class TestPermLowerBound:
    def test_sl3(self, sl3_three_cycle):
        L = character_lattice_action(sl3_three_cycle)
        bound = perm_lower_bound(L, 3)
        assert bound.hypotheses_ok and bound.value == 3

    def test_so4(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        bound = perm_lower_bound(L, 2)
        assert bound.hypotheses_ok and bound.value == 4

    def test_trivial_rank_bound(self):
        bound = perm_lower_bound(lattice(3, ()), 5)
        assert bound.hypotheses_ok and bound.value == 3

    def test_nonabelian_flagged(self):
        L = character_lattice_action(sln_case(6, 2).presentation)
        bound = perm_lower_bound(L, 2)
        assert not bound.hypotheses_ok
        assert bound.value == L.rank

    def test_wrong_prime_flagged(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        bound = perm_lower_bound(L, 3)
        assert not bound.hypotheses_ok


class TestMonotonicity:
    def test_nested_groups_sl4(self):
        # trivial < single double transposition < Klein subgroup.  For the
        # middle group (I + A) has rank-one image, so a fixed vector plus one
        # 2-orbit never spans: the minimum is already 4 (bruteforce agrees).
        single = lattice(3, [((0, 1, -1), (1, 0, -1), (0, 0, -1))])
        klein = character_lattice_action(sln_case(4, 2).presentation)
        values = [
            symrank(lattice(3, ()), 2).value,
            symrank(single, 2).value,
            symrank(klein, 2).value,
        ]
        assert values == [3, 4, 4]
        assert symrank_bruteforce(single, 2, 2) == 4
        assert values == sorted(values)


CATALOG = [
    ("id1", 1, []),
    ("neg1", 1, [((-1,),)]),
    ("id2", 2, []),
    ("neg2", 2, [((-1, 0), (0, -1))]),
    ("swap", 2, [((0, 1), (1, 0))]),
    ("rot4", 2, [((0, -1), (1, 0))]),
    ("diag", 2, [((1, 0), (0, -1))]),
    ("klein", 2, [((0, 1), (1, 0)), ((-1, 0), (0, -1))]),
]


class TestAgainstBruteforce:
    def test_twenty_seeded_instances(self):
        rng = random.Random(20240809)
        conjugators = [
            ((1, 0), (0, 1)),
            ((1, 1), (0, 1)),
            ((1, 0), (1, 1)),
            ((1, -1), (0, 1)),
        ]
        checked = 0
        for seed in range(20):
            name, d, gens = CATALOG[rng.randrange(len(CATALOG))]
            if d == 2:
                U = conjugators[rng.randrange(len(conjugators))]
                Uinv = ((U[1][1], -U[0][1]), (-U[1][0], U[0][0]))  # det 1 inverses

                def conj(a):
                    def mul(x, y):
                        return tuple(
                            tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                            for i in range(2)
                        )

                    return mul(mul(U, a), Uinv)

                gens = [conj(g) for g in gens]
            L = lattice(d, gens)
            got = symrank(L, 2, B=3).value
            expect = symrank_bruteforce(L, 2, 3)
            assert got == expect, f"seed {seed} ({name}): {got} != {expect}"
            checked += 1
        assert checked == 20


RANK_ZERO = MonomialGroupPresentation(
    p=2, torus_rank=0, root_of_unity_exponent=2, weights=((), ()), generators=(((1, 0), (0, 1)),)
)


DIFFERENTIAL = pytest.mark.parametrize(
    "maker,p,B",
    [
        (lambda: character_lattice_action(sln_case(4, 2).presentation), 2, 1),
        (lambda: character_lattice_action(sln_case(5, 2).presentation), 2, 1),
        (lambda: character_lattice_action(so_case(1).presentation), 2, 2),
        (lambda: character_lattice_action(sln_case(4, 3).presentation), 3, 2),
        (lambda: lattice(1, [((-1,),)]), 2, 3),
        # rank 0: two lines swapped with a sign; the empty set spans
        (lambda: character_lattice_action(RANK_ZERO), 2, 1),
        (lambda: character_lattice_action(so_case(2).presentation), 2, 2),
        (lambda: character_lattice_action(sln_case(7, 2).presentation), 2, 1),
        (lambda: character_lattice_action(sln_case(7, 3).presentation), 3, 1),
    ],
    ids=["sl_4_2", "sl_5_2", "so_1", "sl_4_3", "negation", "rank_0", "so_2", "sl_7_2", "sl_7_3"],
)


class TestDifferential:
    @DIFFERENTIAL
    def test_search_matches_bruteforce(self, maker, p, B):
        L = maker()
        assert symrank(L, p, B=B).value == symrank_bruteforce(L, p, B)

    @DIFFERENTIAL
    def test_orbits_match_the_per_matrix_loop(self, maker, p, B):
        # the whole list: the members, their order and the order of the orbits
        L = maker()
        bounds = [B for B in (1, 2, 3) if (2 * B + 1) ** L.rank <= 16_000]
        assert bounds
        for B in bounds:
            assert _enumerate_orbits(L, B) == orbits_reference(L, B)

    def test_sl_orbits_leave_the_box(self):
        # rows of abs-sum 2 map the box past its sup-norm, so the keys must
        # cover entries beyond B
        L = character_lattice_action(sln_case(4, 2).presentation)
        assert max(sum(map(abs, row)) for a in L.matrices for row in a) == 2
        assert max(abs(x) for o in _enumerate_orbits(L, 1) for v in o for x in v) == 2

    def test_so1_has_orbits_that_vanish_mod_p(self):
        # the search drops these orbits; the so_1 case above covers that path
        L = character_lattice_action(so_case(1).presentation)
        assert any(not _span((), o, 2) for o in _enumerate_orbits(L, 2))

    @pytest.mark.parametrize(
        "maker,p,B",
        [
            (lambda: character_lattice_action(so_case(1).presentation), 2, 2),
            # at B = 2, 2,024 orbits in 624 classes mod 3
            (lambda: character_lattice_action(sln_case(7, 3).presentation), 3, 2),
        ],
        ids=["so_1", "sl_7_3"],
    )
    def test_spans_keyed_by_residue(self, maker, p, B):
        # one span per residue class mod p of first members, each the span of
        # every orbit of its class; the orbits of span zero, and only those, dropped
        L = maker()
        orbits, spans = _orbit_spans(_enumerate_orbits(L, B), p)
        assert orbits == [o for o in _enumerate_orbits(L, B) if _span((), o, p)]
        assert spans == [_span((), o, p) for o in orbits]
        assert len({tuple(x % p for x in o[0]) for o in orbits}) < len(orbits)


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def sl_7_3_less_a_generator():
    """The sl_7_3 input less its first generator: one 3-cycle, |F| = 3, rank 6."""
    doc = json.loads((GOLDEN_INPUTS / "sl_7_3.json").read_text(encoding="utf-8"))
    del doc["generators"][0]
    return presentation_from_json(doc)[0]


# sl_n for n <= 8: from n = 9 on, no box of B >= 1 has at most SWEEP_BOX vectors
SWEEP = [(f"sl_{n}_{p}", lambda n=n, p=p: sln_case(n, p).presentation) for n in range(2, 9) for p in (2, 3, 5, 7)]
SWEEP += [(f"so_{k}", lambda k=k: so_case(k).presentation) for k in (1, 2, 3)]
SWEEP += [
    (name, lambda name=name: load_presentation(str(GOLDEN_INPUTS / f"{name}.json"), "natural")[0])
    for name in ("gm_times_z2", "sl_7_2", "sl_7_3", "so_1_char", "so_2")
]
# the oracle's own guard admits 10^5 vectors; this keeps the sweep near a second
SWEEP_BOX = 5_000


class TestPasses:
    @pytest.mark.parametrize("make", [make for _, make in SWEEP], ids=[name for name, _ in SWEEP])
    def test_sweep_matches_bruteforce(self, make):
        # seedless and seeded by the weights, at B = 1, 2 and the default; the
        # weights lie in the unit box, so the seed cannot beat the box's least union
        P = make()
        L = character_lattice_action(P)
        bound = perm_lower_bound(L, P.p)
        lower = bound.value if bound.hypotheses_ok else L.rank
        compared = 0
        for B in (1, 2, None):
            box = _search_bound(L, B)
            if (2 * box + 1) ** L.rank > SWEEP_BOX:
                continue
            value = symrank_bruteforce(L, P.p, box)
            want = (value, "EXACT" if value == lower else "UPPER_ONLY", box)
            for seed in (None, weight_seed(P)):
                res = symrank(L, P.p, B=B, initial_witness=seed)
                assert (res.value, res.status, res.search_bound) == want
            compared += 1
        assert compared

    @pytest.mark.parametrize(
        "make,value",
        [
            (lambda: sln_case(9, 3).presentation, 9),
            (lambda: sln_case(10, 5).presentation, 10),
            (sl_7_3_less_a_generator, 6),
        ],
        ids=["sl_9_3", "sl_10_5", "sl_7_3_less_a_generator"],
    )
    def test_default_bound_needs_no_box(self, make, value, monkeypatch):
        # the weights meet the lower bound (sl_9_3, sl_10_5) or a union of
        # their orbits does (pass 0): no box of the default 3 is enumerated
        calls = count_orbit_enumerations(monkeypatch)
        P = make()
        res = symrank(character_lattice_action(P), P.p, initial_witness=weight_seed(P))
        assert (res.value, res.status, res.search_bound) == (value, "EXACT", 3)
        assert calls == []

    def test_box_one_stops_at_the_first_exact(self, monkeypatch):
        # seedless at B = 3 (a box of 7^6 vectors): the B = 1 box certifies 6
        calls = count_orbit_enumerations(monkeypatch)
        L = character_lattice_action(sln_case(7, 3).presentation)
        res = symrank(L, 3, B=3)
        assert (res.value, res.status, res.search_bound) == (6, "EXACT", 3)
        assert calls == [1]

    def test_no_box_between_one_and_b(self, monkeypatch):
        # sl_6_2 has no certified bound past the rank 5: every pass runs
        calls = count_orbit_enumerations(monkeypatch)
        L = character_lattice_action(sln_case(6, 2).presentation)
        assert symrank(L, 2, B=3).status == "UPPER_ONLY"
        assert calls == [1, 3]

    def test_one_node_budget_for_all_passes(self):
        # sl_6_2 at B = 1 (243 vectors), seeded with the orbits of box 2: no
        # pass is EXACT, pass 0 takes 495 nodes and pass 1 takes 112
        L = character_lattice_action(sln_case(6, 2).presentation)
        seed = [v for orbit in _enumerate_orbits(L, 2) for v in orbit]
        with limit_steps(607):
            assert symrank(L, 2, B=1, initial_witness=seed).status == "UPPER_ONLY"
        with limit_steps(606), pytest.raises(EdtorusError) as err:
            symrank(L, 2, B=1, initial_witness=seed)
        assert err.value.code == "BUDGET_EXCEEDED"

    def test_incumbent_carried_through_the_boxes(self):
        # sl_6_2: no certified bound past the rank 5, so every pass runs; the
        # weights' orbits already give 6, and no box up to B = 2 beats them
        P = sln_case(6, 2).presentation
        L = character_lattice_action(P)
        seed = weight_seed(P)
        res = symrank(L, 2, B=2, initial_witness=seed)
        assert (res.value, res.status, res.witness) == (6, "UPPER_ONLY", seed)

    def test_weight_seed_needs_p_spanning_weights(self, weight_two_line):
        # weight 2 spans an index-2 sublattice: no seed at p = 2
        assert weight_seed(weight_two_line) is None
        assert weight_seed(so_case(1).presentation) == ((-1, 0), (0, -1), (0, 1), (1, 0))


def count_orbit_enumerations(monkeypatch) -> list:
    """The bound of every box `_enumerate_orbits` is asked for, in order."""
    symrank_module = importlib.import_module("edtorus.symrank")
    calls = []
    enumerate_orbits = symrank_module._enumerate_orbits
    monkeypatch.setattr(
        symrank_module, "_enumerate_orbits", lambda L, B: calls.append(B) or enumerate_orbits(L, B)
    )
    return calls


class TestSpan:
    def test_canonical_form(self):
        # the same F_3 plane from two different generating sets
        a = _span((), [(1, 1, 0), (0, 1, 2)], 3)
        b = _span((), [(2, 0, 2), (1, 2, 2), (3, 3, 0)], 3)
        assert a == b == ((1, 0, 1), (0, 1, 2))

    def test_join_and_zero_rows(self):
        assert _span((), [(2, 4), (0, 0)], 2) == ()
        assert _span(((1, 0),), [(1, 1)], 2) == ((1, 0), (0, 1))


class TestEta:
    def test_sl3_exact(self, sl3_three_cycle):
        res = eta_bounds(sl3_three_cycle, natural_rep(sl3_three_cycle))
        assert res.exact == 3
        assert res.split_witness

    def test_so4_exact(self, so4_presentation):
        res = eta_bounds(so4_presentation, natural_rep(so4_presentation))
        assert res.exact == 4

    def test_interval_without_v(self, sl2_normalizer):
        res = eta_bounds(sl2_normalizer, None)
        assert res.exact is None
        assert res.lower == 2
        assert res.upper is None

    def test_v_not_p_faithful(self, weight_two_line):
        with pytest.raises(EdtorusError) as err:
            eta_bounds(weight_two_line, natural_rep(weight_two_line))
        assert err.value.code == "V_NOT_P_FAITHFUL"

    def test_value_never_below_perm_bound(self, so4_presentation):
        L = character_lattice_action(so4_presentation)
        res = symrank(L, 2)
        bound = perm_lower_bound(L, 2)
        assert bound.hypotheses_ok
        assert res.value >= bound.value
