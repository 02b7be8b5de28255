"""Shared fixture presentations and reference helpers used across the suite."""

import dataclasses
import itertools
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edtorus import cli, monogrp, zlat
from edtorus.monogrp import (
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    RepBlock,
    closure,
    component_group,
    natural_rep,
    perm_cycles,
    perm_sign,
    validate,
)
from edtorus.oracle import FFStabilizerReport, _primitive_root
from edtorus.pipeline import (
    _restricted_natural_block,
    _tower_offsets,
    build_generically_free_extension,
    make_sl_presentation,
    sln_case,
    so_case,
    upper_witness_sln,
)
from edtorus.stab import generic_stabilizer, is_p_faithful
from edtorus.symrank import FLattice, _identity, _mat_mul

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def lattice(rank, generators):
    """The lattice acted on by the matrix group the generators generate, closed
    here and handed over with its right Cayley graph, as the package builds one."""
    elements = closure(_identity(rank), generators, _mat_mul)
    index = {x: i for i, x in enumerate(elements)}
    right = [[index[_mat_mul(x, g)] for g in generators] for x in elements]
    return FLattice(rank, generators, right)


def bounded_closure(identity, gens, mul, limit):
    """`monogrp.closure`, given up with None as soon as more than `limit` elements
    would be needed, so that a closure far larger than the limit stays cheap."""
    seen = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    if len(seen) >= limit:
                        return None
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def perm_compose(p1, p2):
    """p1 after p2 (apply p2 first)."""
    return tuple(map(p1.__getitem__, p2))


def character_lattice_action_reference(P):
    """F's lattice image closed a second time: the generators' permutations of
    the distinct weight values are closed under composition, at most |F| of
    them, and the products the closure takes record its right Cayley graph."""
    group_order = component_group(P).order
    report = validate(P)
    values = sorted(set(P.weights))
    pos = {w: k for k, w in enumerate(values)}
    line = {w: i for i, w in enumerate(P.weights)}
    ident = tuple(range(len(values)))
    mats = {}
    for (perm, _), A in zip(P.generators, report.induced_matrices):
        mats.setdefault(tuple(pos[P.weights[perm[line[w]]]] for w in values), A)
    gens = sorted(g for g in mats if g != ident)
    products = []

    def step(x, g):
        products.append(perm_compose(x, g))
        return products[-1]

    image = bounded_closure(ident, gens, step, limit=group_order)
    assert image is not None and group_order % len(image) == 0
    index = {x: i for i, x in enumerate(image)}
    edges = iter(products)
    right = [[index[next(edges)] for _ in gens] for _ in image]
    return FLattice(rank=P.torus_rank, generators=tuple(mats[g] for g in gens), right=right)


def perturbed_case_presentations(count: int, seed: int):
    """Case-study generators with random coefficients modulo e = p or p^2.  The
    classes that fix every line then form a p-group, so F stays a p-group and
    every presentation is valid; some of the lifts split and some do not."""
    rng = random.Random(seed)
    bases = [sln_case(n, p).presentation for n, p in ((3, 3), (4, 2), (5, 2), (6, 2), (6, 3))]
    bases += [so_case(1).presentation, so_case(2).presentation]
    for _ in range(count):
        P = rng.choice(bases)
        e = P.p ** rng.randint(1, 2)
        coeffs = [tuple(rng.randrange(e) if rng.random() < 0.3 else 0 for _ in perm) for perm, _ in P.generators]
        gens = tuple((perm, c) for (perm, _), c in zip(P.generators, coeffs))
        yield dataclasses.replace(P, root_of_unity_exponent=e, generators=gens)


def sl_case_rep(n, p):
    """The SL case with the V `ed_case_sl` takes, or the Sylow witness."""
    case = sln_case(n, p)
    P = case.presentation
    if case.label in ("a", "b"):
        return P, natural_rep(P)
    if not component_group(P).is_abelian():
        return P, upper_witness_sln(n, p).rep
    return P, MonomialRep(presentation=P, blocks=(_restricted_natural_block(case),))


def wreath_faithful_rep_actions_reference(p, levels):
    """Faithful monomial actions for the tower generators of one p-power block.

    Dimension p^(levels-1), coefficients modulo p: the base line carries a
    primitive p-th root character for the bottom cycle; each further level
    takes p cyclically permuted copies, the new generator rotating the copies.
    """
    dim = 1
    actions = [((0,), (1,))]
    for _ in range(1, levels):
        new_dim = dim * p
        lifted = []
        for perm, coeff in actions:
            new_perm = tuple(list(perm) + list(range(dim, new_dim)))
            new_coeff = coeff + (0,) * (new_dim - dim)
            lifted.append((new_perm, new_coeff))
        rotate = tuple((i + dim) % new_dim for i in range(new_dim))
        lifted.append((rotate, (0,) * new_dim))
        actions = lifted
        dim = new_dim
    return actions


def sylow_witness_blocks_reference(case):
    """The Sylow witness's blocks built the older way: the first n - 1
    coordinate lines (case c, or n odd) or the whole natural block, then one
    hand-built wreath tower per p-power block tiling the first `sylow_points`
    points, lined up with the presentation's generators by position (the tower
    generators come block by block, one per level, ahead of any other
    generator)."""
    P = case.presentation
    p = case.p
    keep = case.n - 1 if (case.label == "c" or case.n % 2 == 1) else case.n
    natural = natural_rep(P).blocks[0]
    blocks = [
        RepBlock(
            weights=natural.weights[:keep],
            gen_perms=tuple(perm[:keep] for perm in natural.gen_perms),
            gen_coeffs=tuple(coeff[:keep] for coeff in natural.gen_coeffs),
            modulus=natural.modulus,
        )
    ]
    gen_cursor = 0
    for _offset, size in _tower_offsets(p, case.sylow_points):
        levels = 0
        while p**levels < size:
            levels += 1
        actions = wreath_faithful_rep_actions_reference(p, levels)
        dim = len(actions[0][0])
        perms = []
        coeffs = []
        for j in range(len(P.generators)):
            if gen_cursor <= j < gen_cursor + levels:
                perm, coeff = actions[j - gen_cursor]
            else:
                perm, coeff = tuple(range(dim)), (0,) * dim
            perms.append(perm)
            coeffs.append(coeff)
        weights = tuple(tuple([0] * P.torus_rank) for _ in range(dim))
        blocks.append(RepBlock(weights=weights, gen_perms=tuple(perms), gen_coeffs=tuple(coeffs), modulus=p))
        gen_cursor += levels
    return blocks


def make_sl_presentation_reference(n, p, perms):
    """`make_sl_presentation` with its weights built line by line, as before
    they were read off the identity rows."""
    d = n - 1
    weights = []
    for i in range(d):
        w = [0] * d
        w[i] = 1
        weights.append(tuple(w))
    weights.append(tuple([-1] * d))
    gens = []
    for perm in perms:
        coeff = [0] * n
        if perm_sign(perm) == -1:
            moved = min(i for i in range(n) if perm[i] != i)
            coeff[moved] = 1
        gens.append((tuple(perm), tuple(coeff)))
    e = 2 if any(perm_sign(perm) == -1 for perm in perms) else 1
    return MonomialGroupPresentation(
        p=p, torus_rank=d, root_of_unity_exponent=e, weights=tuple(weights), generators=tuple(gens)
    )


def so_case_presentation_reference(n):
    """`so_case(n).presentation` from the hand-written weight and swap loops
    it was built with before `_product_perm` and the identity rows."""
    d = 2 * n
    m = 4 * n
    weights = []
    for i in range(d):
        w = [0] * d
        w[i] = 1
        weights.append(tuple(w))
    for i in range(d):
        w = [0] * d
        w[i] = -1
        weights.append(tuple(w))
    gens = []
    zero = (0,) * m
    for j in range(n):
        a, b = 2 * j, 2 * j + 1
        perm = list(range(m))
        perm[a], perm[d + a] = d + a, a
        perm[b], perm[d + b] = d + b, b
        gens.append((tuple(perm), zero))
    for j in range(n):
        a, b = 2 * j, 2 * j + 1
        perm = list(range(m))
        perm[a], perm[b] = b, a
        perm[d + a], perm[d + b] = d + b, d + a
        gens.append((tuple(perm), zero))
    return MonomialGroupPresentation(
        p=2, torus_rank=d, root_of_unity_exponent=1, weights=tuple(weights), generators=tuple(gens)
    )


def rep_actions_reference(P, blocks):
    """Generator actions, weights and modulus of the direct sum of `blocks`:
    what a representation made of them does, however it is cut into blocks."""
    rep = MonomialRep(presentation=P, blocks=tuple(blocks))
    return [rep.generator_action(j) for j in range(len(P.generators))], rep.weights, rep.modulus


def with_line(P, coeffs, modulus):
    """The natural rep plus a weight-zero line on which generator j acts by coeffs[j]."""
    block = RepBlock(
        weights=((0,) * P.torus_rank,),
        gen_perms=tuple((0,) for _ in P.generators),
        gen_coeffs=tuple((c,) for c in coeffs),
        modulus=modulus,
    )
    return MonomialRep(presentation=P, blocks=natural_rep(P).blocks + (block,))


def ed_reps(P, V):
    """The representations `ed` reads on P: the natural one, V, and, for an
    abelian component group and a p-faithful V, V plus its character lines."""
    reps = [natural_rep(P), V]
    if component_group(P).is_abelian() and is_p_faithful(P, V).ok:
        reps.append(build_generically_free_extension(P, V).rep)
    return reps


def is_prime_reference(n):
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def perm_inverse_reference(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def monomial_mul_reference(a, b, n):
    """(s1,c1)(s2,c2) = (s1 s2, c1 + s1.c2) mod n, dense: every line i reads
    c2 at s1^-1(i) through the inverse permutation, and every entry is reduced."""
    p1, c1 = a
    p2, c2 = b
    inv1 = perm_inverse_reference(p1)
    return tuple(p1[x] for x in p2), tuple((c1[i] + c2[inv1[i]]) % n for i in range(len(c1)))


def class_passes_reference(perm, coeff, kernel_basis, n):
    """The cycle criterion as stated: every kernel row u is constant on each
    cycle of perm, and sum u_i c_i = 0 (mod n)."""
    cycles = perm_cycles(perm)
    for u in kernel_basis:
        for cyc in cycles:
            first = u[cyc[0]]
            if any(u[i] != first for i in cyc[1:]):
                return False
        if sum(ui * ci for ui, ci in zip(u, coeff)) % n != 0:
            return False
    return True


def stabilizer_image_reference(P, R):
    """The component image of `generic_stabilizer(P, R)`: the classes of the
    full-walk record that pass `class_passes_reference` on its kernel rows."""
    ref = rep_record_reference(P, R)
    return tuple(
        idx for idx, (perm, coeff) in enumerate(ref.actions) if class_passes_reference(perm, coeff, ref.rows, R.modulus)
    )


def class_of(group, pair):
    """Index of the class of the literal monomial pair (perm, coefficients):
    the element with the same permutation and the same torus coset key."""
    perm, coeff = pair
    canon = group.canon
    key = canon.canon(coeff)
    for i, el in enumerate(group.elements):
        if el.perm == perm and canon.canon(el.coeff) == key:
            return i
    raise ValueError("monomial pair is not an element of the presented group")


def element_order(group, i):
    """Order of class i of the component group, by repeated products."""
    n, x = 1, i
    while x != group.identity:
        x, n = group.mul(x, i), n + 1
    return n


def abelian_invariants_reference(group, members):
    """Invariant factors (> 1) of the abelian subgroup the members generate,
    from the Smith form of one relation per Cayley edge outside a breadth-first
    spanning tree, over the greedy generating set: the members in increasing
    order, each one the earlier picks do not yet generate."""
    hs, reached = [], {group.identity}
    for h in sorted(members):
        if h not in reached:
            hs.append(h)
            reached = set(closure(group.identity, hs, group.mul))
    vec = {group.identity: (0,) * len(hs)}
    queue = [group.identity]
    relations = []
    for x in queue:
        for t, h in enumerate(hs):
            y = group.mul(x, h)
            cand = tuple(a + (i == t) for i, a in enumerate(vec[x]))
            if y in vec:
                relations.append([a - b for a, b in zip(cand, vec[y])])
            else:
                vec[y] = cand
                queue.append(y)
    if not relations:
        return ()
    return tuple(d for d in zlat.smith_normal_form(zlat.IntMatrix(relations, len(hs))).invariant_factors if d != 1)


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


def int_matmul(a, b):
    """The product of two matrices of integer row tuples, in Python integers
    (a b with no rows is taken as 0 x 0)."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch")
    columns = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in a)


def smith_product(M, dec):
    """U M V rebuilt from a Smith decomposition of M."""
    return int_matmul(int_matmul(dec.U, M), dec.V)


def induced_matrix_reference(P, perm):
    """The A in GL_d(Z) with A w_i = w_{perm(i)} for every line i, solved on the
    Smith form of the d x m matrix whose columns are the weights (of rank d),
    checked by multiplying it back onto every weight and by its own Smith form
    for unimodularity.  Raises NO_INDUCED_ACTION when there is no such A."""
    d, m = P.torus_rank, P.num_lines
    dec = zlat.smith_normal_form(P.weight_matrix().transpose())
    # d x m with columns w_{perm(i)}
    target = tuple(tuple(P.weights[perm[i]][r] for i in range(m)) for r in range(d))
    B = int_matmul(target, dec.V)
    c_rows = [[0] * d for _ in range(d)]
    for i in range(d):
        di = dec.invariant_factors[i]
        for r in range(d):
            if B[r][i] % di != 0:
                raise EdtorusError("NO_INDUCED_ACTION", "no integral matrix maps the weights onto their images")
            c_rows[r][i] = B[r][i] // di
    if any(B[r][j] for j in range(d, m) for r in range(d)):
        raise EdtorusError("NO_INDUCED_ACTION", "weight images violate the defining relations")
    A = int_matmul(c_rows, dec.U)
    for w, image in zip(P.weights, (P.weights[j] for j in perm)):
        if tuple(sum(A[r][k] * w[k] for k in range(d)) for r in range(d)) != tuple(image):
            raise EdtorusError("NO_INDUCED_ACTION", "no integral matrix maps the weights onto their images")
    if any(f != 1 for f in zlat.smith_normal_form(zlat.IntMatrix(A, d)).invariant_factors):
        raise EdtorusError("NO_INDUCED_ACTION", "induced matrix is not unimodular")
    return A


def rep_record_reference(P, R):
    """What `ComponentGroup.rep_record(R)` holds, from one walk over all of R's
    lines with the dense `monomial_mul_reference`: each class's action is taken
    on its breadth-first tree edge, and on
    every other Cayley edge the product must permute as the target class does
    and differ from it by a torus point, tested on the Smith cokernel residues
    of all of R's weights, every kernel row in full.  Returns the actions, the
    kernel rows and each class's residues; a failing edge raises as the record
    does."""
    group = component_group(P)
    n = R.modulus
    dec = zlat.smith_normal_form(R.weight_matrix())
    rows = dec.U[dec.rank :]

    def residues(coeff):
        return tuple(sum(a * c for a, c in zip(u, coeff)) % n for u in rows)

    gens = [R.generator_action(j) for j in range(len(P.generators))]
    actions = [None] * group.order
    actions[group.identity] = (tuple(range(R.dim)), (0,) * R.dim)
    for x, row in enumerate(group.right):
        for g, y in enumerate(row):
            perm, coeff = monomial_mul_reference(actions[x], gens[g], n)
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
    cached = [fn for fn in vars(monogrp).values() if hasattr(fn, "cache_clear")]
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


def build_parser_reference():
    """The whole argparse tree built at once, as `cli.build_parser` was before
    it built each command's parser at the command's first request: the
    differential reference for the help, errors and namespaces of that tree."""
    parser = cli._Parser(
        prog="edtorus",
        description="essential p-dimension of torus extensions presented by monomial generators",
    )

    def common(sub):
        sub.add_argument("--format", choices=("table", "json"), default="table")
        sub.add_argument("--max-steps", type=int, default=None, dest="max_steps")

    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("validate", help="check a presentation file")
    s.add_argument("input")
    common(s)
    s.set_defaults(fn=cli._cmd_validate)

    s = subs.add_parser("stabilizer", help="generic stabilizer of a representation")
    s.add_argument("input")
    s.add_argument("--rep", choices=("natural", "full"), default="full")
    common(s)
    s.set_defaults(fn=cli._cmd_stabilizer)

    s = subs.add_parser("symrank", help="symmetric p-rank of the character lattice")
    s.add_argument("input")
    s.add_argument("-B", "--bound", type=int, default=None)
    common(s)
    s.set_defaults(fn=cli._cmd_symrank)

    s = subs.add_parser("eta", help="minimal p-faithful dimension bounds")
    s.add_argument("input")
    s.add_argument("--rep", choices=("natural", "full", "none"), default="full")
    s.add_argument("-B", "--bound", type=int, default=None)
    common(s)
    s.set_defaults(fn=cli._cmd_eta)

    s = subs.add_parser("ed", help="essential p-dimension report")
    s.add_argument("target", nargs="+", help="<input.json> or: case sl <n> <p> | case so <n>")
    s.add_argument("--rep", choices=("natural", "full"), default="full")
    common(s)
    s.set_defaults(fn=cli._cmd_ed)

    s = subs.add_parser("case", help="emit a case-study presentation")
    fam = s.add_subparsers(dest="family", required=True)
    sl = fam.add_parser("sl")
    sl.add_argument("n", type=int)
    sl.add_argument("p", type=int)
    common(sl)
    sl.set_defaults(fn=cli._cmd_case, family="sl")
    so = fam.add_parser("so")
    so.add_argument("n", type=int)
    common(so)
    so.set_defaults(fn=cli._cmd_case, family="so")

    s = subs.add_parser("table", help="case-study tables against the closed forms")
    fam = s.add_subparsers(dest="family", required=True)
    sl = fam.add_parser("sl")
    sl.add_argument("nmax", type=int)
    sl.add_argument("p", type=int)
    common(sl)
    sl.set_defaults(fn=cli._cmd_table, family="sl")
    so = fam.add_parser("so")
    so.add_argument("nmax", type=int)
    common(so)
    so.set_defaults(fn=cli._cmd_table, family="so")

    s = subs.add_parser("oracle", help="independent brute-force checks")
    kinds = s.add_subparsers(dest="kind", required=True)
    stab = kinds.add_parser("stab")
    stab.add_argument("input")
    stab.add_argument("--rep", choices=("natural", "full"), default="full")
    stab.add_argument("-q", type=int, default=None)
    stab.add_argument("--trials", type=int, default=50)
    stab.add_argument("--seed", type=int, default=0)
    common(stab)
    stab.set_defaults(fn=cli._cmd_oracle, kind="stab")
    sr = kinds.add_parser("symrank")
    sr.add_argument("input")
    sr.add_argument("-B", "--bound", type=int, default=3)
    common(sr)
    sr.set_defaults(fn=cli._cmd_oracle, kind="symrank")
    sy = kinds.add_parser("sylow")
    sy.add_argument("d", type=int)
    sy.add_argument("p", type=int)
    common(sy)
    sy.set_defaults(fn=cli._cmd_oracle, kind="sylow")

    return parser


def coefficients_reference(nums, dens, n=None):
    """The coefficients num/den of one JSON generator read with `Fraction`, as
    the CLI read them before it reduced integer pairs itself: each reduced mod
    1, then scaled to integers modulo n, whose default is the lcm of the
    reduced denominators (a block's modulus).  Returns (scaled, n), or raises
    the BAD_INPUT the CLI raises for a denominator that does not divide n."""
    coeffs = [Fraction(a, b) % 1 for a, b in zip(nums, dens)]
    if n is None:
        n = math.lcm(*(c.denominator for c in coeffs))
    bad = next((c.denominator for c in coeffs if n % c.denominator), None)
    if bad is not None:
        raise EdtorusError("BAD_INPUT", f"coefficient denominator {bad} does not divide e = {n}")
    return tuple(c.numerator * (n // c.denominator) for c in coeffs), n


def fraction_json_reference(c, e):
    """The (coeff_num, coeff_den) `Fraction` wrote for the coefficient c/e."""
    return Fraction(c, e).numerator, Fraction(c, e).denominator
