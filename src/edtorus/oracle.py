"""Independent brute-force ground truth.

Three checkers that share no algorithmic machinery with the symbolic engine:
stabilizer orders by exhaustive enumeration over a finite field, symmetric
p-rank over every union of orbits (computed here) at tiny bounds, each one
rank-tested by Gaussian elimination mod p, not by normal forms, or skipped by
size, and the abelian-subgroup order bound in symmetric groups by exhaustive
closure search inside a Sylow subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .monogrp import (
    MAX_STEPS,
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    _is_prime,
    component_group,
    natural_rep,
)

DEFAULT_TRIALS = 50


def _primitive_root(q: int) -> int:
    """Smallest primitive root mod prime q."""
    order = q - 1
    factors = set()
    n = order
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, q):
        if all(pow(g, order // f, q) != 1 for f in factors):
            return g
    raise EdtorusError("BAD_MODULUS", f"no primitive root mod {q}")


def required_torsion(P: MonomialGroupPresentation, R: MonomialRep) -> int:
    """Least L such that q = 1 (mod L) makes F_q rich enough for R: the
    declared exponent, the reduced denominator n/gcd(n, c) of every block
    coefficient c/n, and every invariant factor of the weight lattice must
    divide q - 1."""
    from . import zlat

    L = P.root_of_unity_exponent
    for block in R.blocks:
        for coeff in block.gen_coeffs:
            L = lcm(L, *(block.modulus // gcd(block.modulus, c) for c in coeff))
    dec = zlat.smith_normal_form(R.weight_matrix().transpose())
    return lcm(L, *(d for d in dec.invariant_factors if d > 0))


def _cycle_character_spread(R: MonomialRep) -> int:
    """Largest entry spread over the kernel constraints of the weight matrix.

    The stabilizer obstructions evaluate monomials v^(u_i - u_j) for kernel
    vectors u; their exponents are bounded by max(u) - min(u).  When the
    spread is zero every obstruction is a constant root of unity and any
    admissible q works; otherwise q - 1 must be large enough that these
    characters keep an image of size at least three, or a handful of classes
    can cover all of F_q* between them and the trial minimum never reaches
    the generic order.
    """
    from . import zlat

    spread = 0
    for u in zlat.integer_kernel_basis(R.weight_matrix().transpose()):
        spread = max(spread, max(u) - min(u))
    return spread


def choose_modulus(P: MonomialGroupPresentation, R: MonomialRep | None = None) -> int:
    """Smallest admissible prime: q = 1 (mod required torsion), with q - 1
    at least three times the obstruction-exponent spread (heuristic margin;
    the oracle also accepts an explicit q)."""
    if R is None:
        R = natural_rep(P)
    L = required_torsion(P, R)
    spread = _cycle_character_spread(R)
    q = 3
    while True:
        if _is_prime(q) and (q - 1) % L == 0 and (spread == 0 or q - 1 >= 3 * spread):
            return q
        q += 1


@dataclass(frozen=True)
class FFStabilizerReport:
    q: int
    trials: int
    seed: int
    orders: tuple[int, ...]  # stabilizer order per trial
    min_order: int
    min_torus_order: int  # identity-class solutions in the minimal trial
    min_component_image: tuple[int, ...]  # classes contributing in the minimal trial


def ff_stabilizer(
    P: MonomialGroupPresentation,
    R: MonomialRep | None = None,
    q: int | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> FFStabilizerReport:
    """Empirical generic stabilizer order over F_q by full enumeration.

    Instantiates the torus points as tuples of nonzero residues acting
    through the weights and the component classes as monomial matrices over
    the cyclic group of order q - 1, samples points with all coordinates
    nonzero, and counts every group element fixing the point.  Special points
    only enlarge stabilizers, so the minimum over trials converges to the
    generic order from above.
    """
    if trials < 1:
        raise EdtorusError("BAD_INPUT", "trials must be >= 1")
    if R is None:
        R = natural_rep(P)
    group = component_group(P)
    if q is None:
        q = choose_modulus(P, R)
    if not _is_prime(q):
        raise EdtorusError("BAD_MODULUS", f"q = {q} is not prime")
    L = required_torsion(P, R)
    if (q - 1) % L != 0:
        raise EdtorusError("BAD_MODULUS", f"q - 1 must be divisible by {L}")
    d = P.torus_rank
    budget = MAX_STEPS.get()
    if q**d * group.order > budget:
        raise EdtorusError(
            "BUDGET_EXCEEDED", f"q^d * |component group| = {q**d * group.order} exceeds {budget}"
        )
    m = R.dim
    if (q - 1) ** d * m > 50_000_000:
        raise EdtorusError("BUDGET_EXCEEDED", "torus value table would not fit in memory")
    g0 = _primitive_root(q)
    actions = group.rep_actions(R)
    n = R.modulus

    # value table: row per torus point, column per line, entry prod_j t_j^(w_ij)
    weights = np.array([list(w) for w in R.weights], dtype=np.int64)  # (m, d)
    exps = np.arange(q - 1, dtype=np.int64)
    powg = np.array([pow(g0, int(k), q) for k in range(q - 1)], dtype=np.int64)
    grids = np.meshgrid(*([exps] * d), indexing="ij") if d else []
    if d:
        tor_exp = np.stack(grids, axis=-1).reshape(-1, d)  # (q-1)^d rows of exponents
    else:
        tor_exp = np.zeros((1, 0), dtype=np.int64)
    line_exp = tor_exp @ weights.T % (q - 1)
    table = powg[line_exp]  # ((q-1)^d, m) values in F_q*

    scalars = []
    inv_perms = []
    for perm, coeff in actions:
        s = []
        for c in coeff:
            s.append(pow(g0, (q - 1) * c // n % (q - 1), q))  # zeta_n^c; n/gcd(n, c) divides L
        scalars.append(np.array(s, dtype=np.int64))
        inv = [0] * m
        for i, x in enumerate(perm):
            inv[x] = i
        inv_perms.append(np.array(inv, dtype=np.int64))

    rng = np.random.default_rng(seed)
    orders = []
    per_trial_inventory = []
    for _ in range(trials):
        v = rng.integers(1, q, size=m, dtype=np.int64)
        vinv = np.array([pow(int(x), q - 2, q) for x in v], dtype=np.int64)
        total = 0
        contributing = []
        torus_count = 0
        for idx in range(group.order):
            # t * g fixes v  iff  table[t, i] == v_i * (scalar_i * v_{perm^-1(i)})^-1
            denom = scalars[idx] * v[inv_perms[idx]] % q
            denom_inv = np.array([pow(int(x), q - 2, q) for x in denom], dtype=np.int64)
            rhs = v * denom_inv % q
            count = int(np.all(table == rhs[None, :], axis=1).sum())
            if count:
                contributing.append(idx)
                total += count
                if idx == group.identity:
                    torus_count = count
        orders.append(total)
        per_trial_inventory.append((torus_count, tuple(contributing)))
    min_idx = min(range(trials), key=lambda i: orders[i])
    return FFStabilizerReport(
        q=q,
        trials=trials,
        seed=seed,
        orders=tuple(orders),
        min_order=orders[min_idx],
        min_torus_order=per_trial_inventory[min_idx][0],
        min_component_image=per_trial_inventory[min_idx][1],
    )


# -- exhaustive symmetric p-rank ------------------------------------------------


def _rank_mod_p(vectors, dim: int, p: int) -> int:
    rows = [[x % p for x in v] for v in vectors]
    rank = 0
    for col in range(dim):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == dim:
            break
    return rank


def symrank_bruteforce(L, p: int, B: int) -> int:
    """Exact minimum over the invariant subsets of the bounded box.

    An invariant subset is a union of orbits, and in a minimal p-spanning one
    every orbit strictly grows the span mod p (otherwise dropping it keeps the
    set p-spanning and smaller), so minima live among unions of at most `rank`
    orbits.  They are walked depth first, one step of `MAX_STEPS` per union
    visited, and each is rank-tested (full rank mod p by Gaussian elimination,
    no normal forms) or skipped by size: orbits are disjoint, so no extension
    of a spanning union, or of one as large as the best, can beat the best.
    """
    if B < 1:
        raise EdtorusError("BAD_INPUT", "search bound must be >= 1")
    d = L.rank
    if (2 * B + 1) ** d > 100_000:
        raise EdtorusError("BUDGET_EXCEEDED", "box too large for exhaustive enumeration")
    seen, orbits = set(), []
    for vec in itertools.product(range(-B, B + 1), repeat=d):
        if any(vec) and vec not in seen:
            orbit = {tuple(sum(a * x for a, x in zip(row, vec)) for row in A) for A in L.matrices}
            seen |= orbit
            orbits.append(sorted(orbit))
    orbits.sort()
    best, steps, budget = None, itertools.count(1), MAX_STEPS.get()
    stack = [(0, [], 0)]  # unions: (first orbit index it may add, its vectors, its orbit count)
    while stack:
        start, vecs, depth = stack.pop()
        if next(steps) > budget:
            raise EdtorusError("BUDGET_EXCEEDED", f"more than {budget} unions of orbits visited")
        if best is not None and len(vecs) >= best:
            continue
        if _rank_mod_p(vecs, d, p) == d:
            best = len(vecs)
        elif depth < d:
            stack.extend((j + 1, vecs + orbits[j], depth + 1) for j in reversed(range(start, len(orbits))))
    if best is None:
        raise EdtorusError("BUDGET_EXCEEDED", "no spanning subset within the box")
    return best


# -- abelian p-subgroups of symmetric groups -------------------------------------


def _perm_mul(a, b):
    return tuple(a[x] for x in b)


def _sylow_generators_symmetric(d: int, p: int):
    """Standard Sylow p-subgroup generators for the symmetric group on d points:
    independent wreath towers over the base-p digits of d."""
    gens = []
    cursor = 0
    remaining = d
    power = 1
    while power * p <= d:
        power *= p
    while remaining >= p:
        while power > remaining:
            power //= p
        block = 1
        while block < power:
            perm = list(range(d))
            for i in range(block):
                for k in range(p):
                    src = cursor + i + k * block
                    dst = cursor + i + ((k + 1) % p) * block
                    perm[src] = dst
            gens.append(tuple(perm))
            block *= p
        cursor += power
        remaining -= power
    return gens


def _closure(gens, d: int):
    ident = tuple(range(d))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _perm_mul(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class SylowBoundReport:
    max_order: int
    bound: int
    passed: bool
    witness: tuple[tuple[int, ...], ...]  # one abelian subgroup achieving the max


def sylow_abelian_bound_check(d: int, p: int) -> SylowBoundReport:
    """Exhaustive maximum order of abelian p-subgroups of the symmetric group
    on d letters, checked against p^(d//p).

    Every p-subgroup is conjugate into a fixed Sylow p-subgroup and order is
    conjugation-invariant, so the closure search runs inside one Sylow
    subgroup: breadth-first over abelian subgroups, extending by commuting
    p-elements.
    """
    if not _is_prime(p) or d < 0:
        raise EdtorusError("BAD_INPUT", f"need a prime p and d >= 0, got p = {p}, d = {d}")
    if d > 9:
        raise EdtorusError("BUDGET_EXCEEDED", "exhaustive search capped at d <= 9")
    sylow = sorted(_closure(_sylow_generators_symmetric(d, p), d))
    # self-check: the Sylow subgroup has the full p-part of d!
    expected = 1
    k = p
    while k <= d:
        expected *= p ** (d // k)
        k *= p
    if len(sylow) != expected:
        raise EdtorusError("INTERNAL", "Sylow construction has the wrong order")
    ident = tuple(range(d))
    best = {frozenset([ident])}
    seen = set(best)
    max_order = 1
    witness: tuple = (ident,)
    frontier = list(best)
    while frontier:
        nxt = []
        for sub in frontier:
            for g in sylow:
                if g in sub:
                    continue
                if any(_perm_mul(g, h) != _perm_mul(h, g) for h in sub):
                    continue
                new = frozenset(_closure(list(sub) + [g], d))
                if new in seen:
                    continue
                seen.add(new)
                nxt.append(new)
                if len(new) > max_order:
                    max_order = len(new)
                    witness = tuple(sorted(new))
        frontier = nxt
    bound = p ** (d // p)
    return SylowBoundReport(
        max_order=max_order,
        bound=bound,
        passed=max_order <= bound,
        witness=witness,
    )
