"""Independent brute-force ground truth.

Three checkers that share no algorithmic machinery with the symbolic engine:
stabilizer orders over a finite field, each class's fixed points looked up in
one table of the values at every torus point; symmetric p-rank at tiny
bounds, by a walk over the unions of orbits that extends its parent's echelon
rows by Gaussian elimination mod p, not by normal forms, and cuts only unions
that cannot be smaller spanning ones; and the abelian-subgroup order bound in
symmetric groups by exhaustive closure search inside a Sylow subgroup.

Each orbit is one exact product of the stacked matrices with a vector (int64
where d * max|entry| * B < 2^63, else Python integers), and the walk
eliminates each orbit's echelon rows mod p, which span what the orbit spans,
so every rank and every cut is as if all its vectors were eliminated.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, inf, lcm

import numpy as np

from . import zlat
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
    for g in range(1, q):  # 1 generates F_2^*, and fails the first test for any q > 2
        if all(pow(g, order // f, q) != 1 for f in factors):
            return g
    raise EdtorusError("BAD_MODULUS", f"no primitive root mod {q}")


def required_torsion(P: MonomialGroupPresentation, R: MonomialRep) -> int:
    """Least L such that q = 1 (mod L) makes F_q rich enough for R: the
    declared exponent, the reduced denominator n/gcd(n, c) of every block
    coefficient c/n, and every invariant factor of the weight lattice must
    divide q - 1."""
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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d int64 array as one item that compares by its bytes,
    so rows can be sorted and looked up with np.searchsorted."""
    if not rows.shape[1]:
        return np.zeros(len(rows), dtype="V1")  # rows without entries are all equal
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


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
    generic order from above.  The points are drawn by `random.Random(seed)`.
    The value rows of all torus points are sorted once, in place; a trial
    then counts every class's target row in them by two binary searches, the
    ends of its run.
    """
    if trials < 1:
        raise EdtorusError("BAD_INPUT", "trials must be >= 1")
    if R is None:
        R = natural_rep(P)
    group = component_group(P)
    if q is None:
        q = choose_modulus(P, R)
    elif not _is_prime(q):
        raise EdtorusError("BAD_MODULUS", f"q = {q} is not prime")
    elif (q - 1) % (L := required_torsion(P, R)) != 0:
        raise EdtorusError("BAD_MODULUS", f"q - 1 must be divisible by {L}")
    d = P.torus_rank
    budget = MAX_STEPS.get()
    for name, k in (("q^d", q**d), ("trials", trials)):  # torus points, and trials, times classes
        if k * group.order > budget:
            raise EdtorusError("BUDGET_EXCEEDED", f"{name} * |component group| = {k * group.order} exceeds {budget}")
    m = R.dim
    if (cells := (q - 1) ** d * m + 2 * q - 1) > 50_000_000:  # the value table, powg and inverse
        raise EdtorusError("BUDGET_EXCEEDED", f"torus value tables of {cells} cells would not fit in memory")
    g0 = _primitive_root(q)
    actions = group.rep_actions(R)
    n = R.modulus

    # value table: row per torus point, column per line, entry prod_j t_j^(w_ij) = g0^(sum_j k_j w_ij)
    # for t_j = g0^(k_j); the exponents are summed one torus coordinate at a time
    weights = np.array([list(w) for w in R.weights], dtype=np.int64).reshape(m, d)
    powg = np.array([pow(g0, k, q) for k in range(q - 1)], dtype=np.int64)
    table = np.zeros((1, m), dtype=np.int64)
    for w in weights.T:
        table = (table[:, None, :] + np.outer(np.arange(q - 1), w)).reshape(-1, m)
        np.remainder(table, q - 1, out=table)
    np.take(powg, table, out=table, mode="clip")  # in place; mode="raise" would buffer a copy
    # the value rows, sorted in place: the copies of a row form one run, as
    # long as the number of torus points giving it
    rows = _row_keys(table)
    rows.sort()

    # per class and line: the scalar zeta_n^c (n/gcd(n, c) divides q - 1) and the inverse permutation
    coeff_exp = [[(q - 1) * c // n % (q - 1) for c in coeff] for _, coeff in actions]
    scalars = powg[np.array(coeff_exp, dtype=np.int64)]
    inv_perms = np.argsort(np.array([perm for perm, _ in actions], dtype=np.int64), axis=1)
    inverse = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)

    rng = random.Random(seed)
    orders = []
    per_trial_inventory = []
    for _ in range(trials):
        v = np.array([rng.randrange(1, q) for _ in range(m)], dtype=np.int64)
        # t * g fixes v  iff  table[t, i] == v_i * (scalar_i * v_{perm^-1(i)})^-1, for every class at once
        rhs = _row_keys(v * inverse[scalars * v[inv_perms] % q] % q)
        counts = np.searchsorted(rows, rhs, side="right") - np.searchsorted(rows, rhs)
        orders.append(int(counts.sum()))
        per_trial_inventory.append((int(counts[group.identity]), tuple(np.flatnonzero(counts).tolist())))
    k = orders.index(min(orders))  # the first minimal trial
    return FFStabilizerReport(q, trials, seed, tuple(orders), orders[k], *per_trial_inventory[k])


# -- exhaustive symmetric p-rank ------------------------------------------------


def _eliminate(rows, vectors, p: int) -> list[tuple[int, list[int]]]:
    """Echelon rows mod p, as (pivot, row) pairs, extended by `vectors`.

    Each row is monic at its pivot and zero at the pivots of the rows before
    it, so one pass over the rows in order clears a vector at every pivot.
    `rows` is not modified, so a parent's rows serve all its children."""
    rows = list(rows)
    for v in vectors:
        v = [x % p for x in v]
        for piv, row in rows:
            if v[piv]:
                f = v[piv]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], p - 2, p)
            rows.append((lead, [x * inv % p for x in v]))
    return rows


def _box_orbits(L, B: int) -> list[list[tuple[int, ...]]]:
    """The orbits of the nonzero vectors of sup-norm <= B, each sorted, in
    sorted order.  An unseen vector's orbit is one product of the stacked
    matrices with it, exact: in int64 while d * max|entry| * B < 2^63 bounds
    every entry of the product, else in Python integers."""
    d = L.rank
    top = max((abs(x) for a in L.matrices for row in a for x in row), default=0)
    dtype = np.int64 if d * top * B < 2**63 else object
    stacked = np.array(L.matrices, dtype=dtype).reshape(len(L.matrices), d, d)  # d may be 0
    seen, orbits = set(), []
    for vec in itertools.product(range(-B, B + 1), repeat=d):
        if any(vec) and vec not in seen:
            orbit = set(map(tuple, (stacked @ vec).tolist()))
            seen |= orbit
            orbits.append(sorted(orbit))
    orbits.sort()
    return orbits


def symrank_bruteforce(L, p: int, B: int) -> int:
    """Exact minimum over the invariant subsets of the bounded box.

    An invariant subset is a union of orbits (`_box_orbits`, one exact
    matrix product each).  The unions are walked depth first, orbits added
    in their sorted order, one step of `MAX_STEPS` per union visited.  Each
    orbit is reduced once to its echelon rows mod p, at most d of them, and
    a visit eliminates only those against its parent's rows, which its stack
    entry carries (Gaussian elimination, no normal forms).  They span what
    the orbit spans mod p, so each union's rank, and every cut below, is as
    if all of its vectors were eliminated.  The cuts, each sound:

    - a union no smaller than the best is not expanded: orbits are
      disjoint, so nothing below it is smaller;
    - an orbit that adds no rank is cut with its whole subtree.  In a
      minimum spanning union every orbit adds rank to the others, else
      dropping it would leave a smaller spanning union; so it adds rank to
      the orbits before it, and the walk reaches that union through unions
      that each add rank.  No union of more orbits than the rank is visited;
    - a child is not pushed when its parent's size plus the smallest orbit
      at or after it reaches the best, as no union in its subtree is
      smaller.  `reach` holds these suffix minima, since the orbits are
      sorted lexicographically, not by size, and they grow with the index;
    - the walk stops at best == rank, since fewer vectors cannot span.
      The box holds e_1, ..., e_d, so the walk always finds a best.

    The box is capped at 100,000 vectors whatever the step limit.
    """
    if B < 1:
        raise EdtorusError("BAD_INPUT", "search bound must be >= 1")
    d = L.rank
    if (box := (2 * B + 1) ** d) > 100_000:
        raise EdtorusError(
            "BUDGET_EXCEEDED",
            f"box of {box} vectors exceeds the oracle's 100,000-vector cap; "
            "--max-steps does not lift it, use a smaller -B",
        )
    orbits = _box_orbits(L, B)
    bases = [[row for _, row in _eliminate([], orbit, p)] for orbit in orbits]
    sizes = [len(orbit) for orbit in orbits]
    reach = list(itertools.accumulate(reversed(sizes), min))[::-1]  # least size from j on
    best, steps, budget = inf, itertools.count(1), MAX_STEPS.get()
    stack = [(0, [], 0, None)]  # (first orbit a child may add, parent's rows, union's size, new orbit's index)
    while stack:
        start, rows, size, j = stack.pop()
        if next(steps) > budget:
            raise EdtorusError("BUDGET_EXCEEDED", f"more than {budget} unions of orbits visited")
        if size >= best:
            continue
        if j is not None:  # not the empty union at the root
            grown = _eliminate(rows, bases[j], p)
            if len(grown) == len(rows):
                continue
            rows = grown
        if len(rows) == d:
            best = size
            if best == d:
                break
            continue
        end = bisect_left(reach, best - size, start)
        stack.extend((k + 1, rows, size + sizes[k], k) for k in reversed(range(start, end)))
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
