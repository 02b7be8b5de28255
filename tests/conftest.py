"""Shared fixture presentations and reference helpers used across the suite."""

import itertools
import random
import types

import numpy as np
import pytest

from edtorus import monogrp, zlat
from edtorus.monogrp import (
    EdtorusError,
    MonomialGroupPresentation,
    closure,
    component_group,
    monomial_mul,
    natural_rep,
    perm_compose,
    perm_sign,
)
from edtorus.oracle import FFStabilizerReport, _primitive_root
from edtorus.pipeline import make_sl_presentation, so_case
from edtorus.stab import generic_stabilizer
from edtorus.symrank import FLattice, _identity, _mat_mul


def lattice(rank, generators):
    """The lattice acted on by the matrix group the generators generate, closed
    here and handed over with its right Cayley graph, as the package builds one."""
    elements = closure(_identity(rank), generators, _mat_mul)
    index = {x: i for i, x in enumerate(elements)}
    right = [[index[_mat_mul(x, g)] for g in generators] for x in elements]
    return FLattice(rank, generators, right)


def class_of(group, pair):
    """Index of the class of the literal monomial pair (perm, coefficients):
    the element with the same permutation and the same torus coset key."""
    perm, coeff = pair
    canon = monogrp._coset_key(group.presentation)
    key = canon.canon(coeff)
    for i, el in enumerate(group.elements):
        if el.perm == perm and canon.canon(el.coeff) == key:
            return i
    raise ValueError("monomial pair is not an element of the presented group")


def verify_sl_stabilizer_clauses(n, h_generators):
    """Check both stabilizer clauses for the natural representation of the
    preimage of a permutation p-group: trivial torus part, and component
    image equal to the even part of the subgroup."""
    perms = [tuple(g) for g in h_generators]
    order = len(closure(tuple(range(n)), perms, perm_compose))
    p = next((q for q in range(2, order + 1) if order % q == 0), 2)  # smallest prime factor
    k = order
    while k % p == 0:
        k //= p
    if k != 1:
        raise EdtorusError("UNSUPPORTED", "generators do not generate a p-group")
    P = make_sl_presentation(n, p, perms)
    group = component_group(P)
    report = generic_stabilizer(P, natural_rep(P))
    if report.torus_part.invariant_factors:
        return False
    even = tuple(
        sorted(i for i, el in enumerate(group.elements) if perm_sign(el.perm) == 1)
    )
    return report.component_image == even


def ff_stabilizer_reference(P, R, q, trials, seed):
    """The report of `oracle.ff_stabilizer`, computed one class at a time: each
    class's target row is built on its own and compared with every row of the
    table of torus values, drawing the same random points."""
    group = component_group(P)
    g0 = _primitive_root(q)
    n, m = R.modulus, R.dim
    table = np.array(
        [
            [pow(g0, sum(e * w for e, w in zip(t, wt)) % (q - 1), q) for wt in R.weights]
            for t in itertools.product(range(q - 1), repeat=P.torus_rank)
        ],
        dtype=np.int64,
    ).reshape(-1, m)
    rng = random.Random(seed)
    orders, inventory = [], []
    for _ in range(trials):
        v = [rng.randrange(1, q) for _ in range(m)]
        counts = []
        for perm, coeff in group.rep_actions(R):
            # t * g fixes v  iff  value row of t == v_i * (zeta_n^(c_i) * v_{perm^-1(i)})^-1
            rhs = [
                v[i] * pow(pow(g0, (q - 1) * coeff[i] // n, q) * v[perm.index(i)], q - 2, q) % q
                for i in range(m)
            ]
            counts.append(int(np.all(table == np.array(rhs, dtype=np.int64), axis=1).sum()))
        orders.append(sum(counts))
        inventory.append((counts[group.identity], tuple(i for i, c in enumerate(counts) if c)))
    k = orders.index(min(orders))
    return FFStabilizerReport(q, trials, seed, tuple(orders), orders[k], *inventory[k])


def induced_matrix_reference(P, perm):
    """The A in GL_d(Z) with A w_i = w_{perm(i)} for every line i, solved on the
    Smith form of the d x m matrix whose columns are the weights (of rank d),
    checked by multiplying it back onto every weight and by its own Smith form
    for unimodularity.  Raises NO_INDUCED_ACTION when there is no such A."""
    d, m = P.torus_rank, P.num_lines
    dec = zlat.smith_normal_form(P.weight_matrix().transpose())
    # d x m with columns w_{perm(i)}; shaped explicitly, as d may be 0
    target = zlat.IntMatrix(d, m, tuple(P.weights[perm[i]][r] for r in range(d) for i in range(m)))
    B = target @ dec.V
    c_rows = [[0] * d for _ in range(d)]
    for i in range(d):
        di = dec.D.at(i, i)
        for r in range(d):
            if B.at(r, i) % di != 0:
                raise EdtorusError("NO_INDUCED_ACTION", "no integral matrix maps the weights onto their images")
            c_rows[r][i] = B.at(r, i) // di
    if any(B.at(r, j) for j in range(d, m) for r in range(d)):
        raise EdtorusError("NO_INDUCED_ACTION", "weight images violate the defining relations")
    A = zlat.IntMatrix(d, d, tuple(x for row in c_rows for x in row)) @ dec.U
    for w, image in zip(P.weights, (P.weights[j] for j in perm)):
        if tuple(sum(A.at(r, k) * w[k] for k in range(d)) for r in range(d)) != tuple(image):
            raise EdtorusError("NO_INDUCED_ACTION", "no integral matrix maps the weights onto their images")
    if any(f != 1 for f in zlat.smith_normal_form(A).invariant_factors):
        raise EdtorusError("NO_INDUCED_ACTION", "induced matrix is not unimodular")
    return A


def rep_record_reference(P, R):
    """What `ComponentGroup.rep_record(R)` holds, from one walk over all of R's
    lines: each class's action is taken on its breadth-first tree edge, and on
    every other Cayley edge the product must permute as the target class does
    and differ from it by a torus point, tested on the Smith cokernel residues
    of all of R's weights, every kernel row in full.  Returns the actions, the
    kernel rows and each class's residues; a failing edge raises as the record
    does."""
    group = component_group(P)
    n = R.modulus
    dec = zlat.smith_normal_form(R.weight_matrix())
    rows = [dec.U.row(i) for i in range(dec.rank, dec.U.rows)]

    def residues(coeff):
        return tuple(sum(a * c for a, c in zip(u, coeff)) % n for u in rows)

    gens = [R.generator_action(j) for j in range(len(P.generators))]
    actions = [None] * group.order
    actions[group.identity] = (tuple(range(R.dim)), (0,) * R.dim)
    for x, row in enumerate(group.right):
        for g, y in enumerate(row):
            perm, coeff = monomial_mul(actions[x], gens[g], n)
            if actions[y] is None:
                actions[y] = perm, coeff
            elif perm != actions[y][0] or any(residues(tuple(a - b for a, b in zip(coeff, actions[y][1])))):
                raise EdtorusError(
                    "BAD_INPUT",
                    f"blocks do not define a representation: class {x} times generator {g} "
                    f"does not act as class {y}",
                )
    return types.SimpleNamespace(actions=actions, rows=rows, residues=[residues(c) for _, c in actions])


def orbit_reference(L, v):
    """The orbit of v under the lattice's group, a sorted tuple: every matrix
    applied to v as a d x d product, with no integer keys."""
    return tuple(sorted({tuple(sum(x * y for x, y in zip(row, v)) for row in a) for a in L.matrices}))


def orbits_reference(L, B):
    """What `symrank._enumerate_orbits(L, B)` returns, one orbit at a time by
    `orbit_reference`: the orbits of the nonzero vectors of sup-norm <= B,
    sorted by (size, smallest member)."""
    seen, orbits = set(), []
    for v in itertools.product(range(-B, B + 1), repeat=L.rank):
        if any(v) and v not in seen:
            orbit = orbit_reference(L, v)
            seen.update(orbit)
            orbits.append(orbit)
    orbits.sort(key=lambda o: (len(o), o[0]))
    return orbits


@pytest.fixture
def fresh_caches():
    """Empty the per-presentation caches before the test and again after it,
    so that what it computes, or a patched element cap, stays inside it."""
    cached = (monogrp.validate, monogrp._coset_key, monogrp._enumerate_group, monogrp.character_lattice_action)
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


@pytest.fixture
def sl2_normalizer():
    """Rank-1 torus with the swap generator lifted with a half coefficient
    (1 modulo e = 2)."""
    return MonomialGroupPresentation(
        p=2,
        torus_rank=1,
        root_of_unity_exponent=2,
        weights=((1,), (-1,)),
        generators=(((1, 0), (0, 1)),),
    )


@pytest.fixture
def sl3_three_cycle():
    """Preimage of a 3-cycle inside the rank-2 torus normalizer."""
    return MonomialGroupPresentation(
        p=3,
        torus_rank=2,
        root_of_unity_exponent=1,
        weights=((1, 0), (0, 1), (-1, -1)),
        generators=(((1, 2, 0), (0, 0, 0)),),
    )


@pytest.fixture
def weight_two_line():
    """One line of weight 2 on a rank-1 torus; the squaring kernel is mu_2."""
    return MonomialGroupPresentation(
        p=2,
        torus_rank=1,
        root_of_unity_exponent=1,
        weights=((2,),),
        generators=(),
    )


@pytest.fixture
def so4_presentation():
    return so_case(1).presentation


@pytest.fixture
def negation_lattice():
    return lattice(1, (((-1,),),))
