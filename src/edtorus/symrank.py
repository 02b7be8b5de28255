"""Symmetric p-rank of a lattice with a finite matrix group action.

SymRank(L; p) is the least cardinality of a group-invariant subset of the
lattice spanning a finite-index sublattice of index prime to p.  Exact search
by branch and bound over orbits, in passes (see `symrank`): the orbits of a
known invariant set such as the presentation's weights (`weight_seed`), then
those of the boxes of sup-norm 1 and B.  It is certified against the
rank bound and the abelian permutation-group bound; exactness is only ever
claimed when a certified lower bound meets the best witness found.

A box's orbits are found on integer keys that sort as the vectors do, one
dot product per group element (`_enumerate_orbits`).  p-spanning is full
rank mod p, so the search sees each orbit only through its F_p span, a
canonical reduced echelon form of at most d rows, reduced once per residue
class mod p of the orbit's first member; orbits whose span is zero are
dropped.  A node joins the current span with one such span, at most
O(d) row reductions, and a memo cuts every node that reaches a (position,
span) state already reached at no larger size.  The step limit `MAX_STEPS`
bounds the box of B (box 1 is no larger) and the branch-and-bound nodes of
all passes together; the memo holds at most one entry per node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .monogrp import MAX_STEPS, EdtorusError, character_lattice_action, closure, ensure_valid, generators_commute
from .stab import is_p_faithful


class FLattice:
    """Z^rank with a finite group of unimodular matrices acting on it, given by
    its non-identity `generators` and its right Cayley graph `right` (element 0
    the identity, breadth-first order, right[x][g] = x times generator g): the
    matrices are built on first read."""

    def __init__(self, rank: int, generators, right):
        ident = _identity(rank)
        for a in generators:
            if len(a) != rank or any(len(r) != rank for r in a):
                raise ValueError("matrix shape mismatch")
            if a == ident:
                raise ValueError("generators must not be the identity")
        self.rank = rank
        self.generators = tuple(generators)
        self.right = right

    @cached_property
    def matrices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        mats = [_identity(self.rank)] + [None] * (len(self.right) - 1)
        for x, row in enumerate(self.right):
            for g, y in enumerate(row):
                if mats[y] is None:
                    mats[y] = _mat_mul(mats[x], self.generators[g])
        if len(set(mats)) != len(mats):
            raise EdtorusError("INTERNAL", "the matrices of the Cayley graph's elements must be distinct")
        return tuple(sorted(mats))

    @property
    def order(self) -> int:
        return len(self.right)

    def is_abelian(self) -> bool:
        return generators_commute(self.right)


def _identity(rank: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


class PermBound(NamedTuple):
    value: int
    hypotheses_ok: bool
    reason: str | None


def perm_lower_bound(L: FLattice, p: int) -> PermBound:
    """Certified lower bound for SymRank from the permutation action.

    An invariant p-spanning set of size D carries a faithful permutation
    action of the group (any element fixing the whole set fixes a finite-index
    sublattice, impossible for a nonidentity unimodular matrix), and abelian
    p-subgroups of the symmetric group on D letters have order at most
    p^(D/p).  Hence D >= p*log_p(order) when the group is an abelian p-group.
    The rank bound D >= rank always holds.
    """
    d = L.rank
    order = L.order
    k, n = 0, order
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        return PermBound(d, False, f"group order {order} is not a power of {p}")
    if not L.is_abelian():
        return PermBound(d, False, "matrix group is not abelian")
    # Any nonidentity unimodular matrix fixes a sublattice of rank < d, so the
    # permutation action on an invariant spanning set is automatically faithful.
    return PermBound(max(d, p * k), True, None)


@dataclass(frozen=True)
class SymRankResult:
    value: int
    witness: tuple[tuple[int, ...], ...]
    status: str  # "EXACT" | "UPPER_ONLY"
    lower_bound_used: int
    search_bound: int | None  # the bound whose box was checked; None on a pinch


def _check_bound(B: int | None) -> None:
    if B is not None and B < 1:
        raise EdtorusError("BAD_INPUT", "search bound must be >= 1")


def _search_bound(L: FLattice, B: int | None) -> int:
    """B, or by default 2m + 1 for the largest entry m of a matrix, once its box
    of (2B + 1)^d vectors fits the step limit.  The identity and the generators
    are matrices: a default box their entries put over it builds no matrix."""
    _check_bound(B)
    limit = MAX_STEPS.get()
    if B is None:
        g = max([1, *(abs(x) for a in L.generators for row in a for x in row)])
        if (least := (4 * g + 3) ** L.rank) > limit:
            raise EdtorusError("BUDGET_EXCEEDED", f"box of at least {least} vectors exceeds the search budget {limit}")
        B = 2 * max((abs(x) for a in L.matrices for row in a for x in row), default=0) + 1
    if (total := (2 * B + 1) ** L.rank) > limit:
        raise EdtorusError("BUDGET_EXCEEDED", f"box of {total} vectors exceeds the search budget {limit}")
    return B


# -- F_p linear algebra (the p-spanning test is full rank mod p) --------------


def _span(rows, vecs, p: int) -> tuple[tuple[int, ...], ...]:
    """Canonical F_p span of a canonical span `rows` joined with `vecs`: the
    reduced row echelon form mod p, rows sorted by pivot, zero rows dropped.
    Every row leads with 1, so its pivot is its first 1.  Rows that span the
    whole space are returned as they stand: joining anything adds nothing."""
    if rows and len(rows) == len(rows[0]):
        return rows
    out = [list(r) for r in rows]
    for vec in vecs:
        v = [x % p for x in vec]
        for r in out:
            f = v[r.index(1)]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, r)]
        if not any(v):
            continue
        c = next(j for j, x in enumerate(v) if x)
        inv = pow(v[c], p - 2, p)
        v = [(x * inv) % p for x in v]
        for k, r in enumerate(out):
            f = r[c]
            if f:
                out[k] = [(a - f * b) % p for a, b in zip(r, v)]
        out.append(v)
    # in reduced echelon form, descending lexicographic order is pivot order
    out.sort(reverse=True)
    return tuple(tuple(r) for r in out)


def _act(v, a) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def _seed_orbits(L: FLattice, vecs) -> list[tuple[tuple[int, ...], ...]]:
    """Orbits of an invariant set, closed along the generators, in `_enumerate_orbits` order."""
    orbits = {tuple(sorted(closure(v, L.generators, _act))) for v in vecs}
    return sorted(orbits, key=lambda o: (len(o), o[0]))


def _enumerate_orbits(L: FLattice, B: int) -> list[tuple[tuple[int, ...], ...]]:
    """Orbits of the nonzero vectors of sup-norm <= B, each a sorted tuple
    (so its first member is its smallest), sorted by (size, smallest member).

    Images of box vectors have entries in [-M, M], for M = B times the
    largest row abs-sum of a matrix.  A vector's key has its entries plus M
    as base-(2M + 1) digits, first entry most significant, so keys sort as
    vectors do; the shift is added only to decode.  For digit values w, the
    key of A v is v . (A^T w)."""
    d = L.rank
    M = B * max((sum(map(abs, row)) for a in L.matrices for row in a), default=0)
    base = 2 * M + 1
    w = [base**i for i in reversed(range(d))]
    shift = M * sum(w)
    kvs = [[sum(map(mul, col, w)) for col in zip(*a)] for a in L.matrices]

    def decode(keys) -> tuple[tuple[int, ...], ...]:
        keys = [k + shift for k in keys]
        return tuple(zip(*[[k // x % base - M for k in keys] for x in w]))

    seen: set[int] = set()
    orbits = []
    for v in itertools.product(range(-B, B + 1), repeat=d):
        if any(v) and sum(map(mul, v, w)) not in seen:
            keys = {sum(map(mul, v, kv)) for kv in kvs}
            seen |= keys
            orbits.append(sorted(keys))
    orbits.sort(key=lambda o: (len(o), o[0]))
    return [decode(o) for o in orbits]


def _orbit_spans(orbits, p: int) -> tuple[list, list]:
    """The orbits whose F_p span is not zero, and their spans.  (A v) mod p
    = A (v mod p) mod p, so an orbit's span depends only on its first member
    mod p: one elimination per residue class."""
    kept, spans, by_residue = [], [], {}
    for orbit in orbits:
        residue = tuple(x % p for x in orbit[0])
        if residue not in by_residue:
            by_residue[residue] = _span((), orbit, p)
        if by_residue[residue]:
            kept.append(orbit)
            spans.append(by_residue[residue])
    return kept, spans


def _least_union(orbits, p: int, d: int, lower: int, best, nodes):
    """The least p-spanning union of `orbits` (sorted by size) if smaller than
    `best` (a witness or None), else `best`, by branch and bound over spans."""
    orbits, spans = _orbit_spans(orbits, p)
    suffix = [()] * (len(orbits) + 1)
    for i in range(len(orbits) - 1, -1, -1):
        suffix[i] = _span(suffix[i + 1], spans[i], p)
    node_limit = MAX_STEPS.get()
    chosen: list[int] = []
    # least size at which the loop reached (i, span): the completions from
    # a state do not depend on how it was reached and the incumbent only
    # improves, so reaching it again at no smaller size cannot do better
    reached: dict[tuple, int] = {}

    def dfs(i: int, size: int, basis):
        # recursion depth is bounded by the rank: only inclusions recurse,
        # skips advance the loop below
        nonlocal best
        rank = len(basis)
        if rank == d:
            if best is None or size < len(best):
                vecs: list[tuple[int, ...]] = []
                for k in chosen:
                    vecs.extend(orbits[k])
                best = tuple(sorted(set(vecs)))
            return
        while i < len(orbits):
            if next(nodes) > node_limit:
                raise EdtorusError("BUDGET_EXCEEDED", "branch-and-bound node budget exhausted")
            if best is not None and len(best) <= lower:
                return
            # a completion adds d - rank vectors at least, and one orbit
            # at least, none smaller than orbit i (orbits come by size)
            if best is not None and size + max(d - rank, len(orbits[i])) >= len(best):
                return
            if reached.get((i, basis), size + 1) <= size:
                return
            reached[i, basis] = size
            if len(suffix[i]) < d and len(_span(basis, suffix[i], p)) < d:
                return  # remaining orbits cannot reach full rank
            gain = _span(basis, spans[i], p)
            if len(gain) == rank:
                i += 1  # no new span: dominated, forced skip
                continue
            chosen.append(i)
            dfs(i + 1, size + len(orbits[i]), gain)
            chosen.pop()
            i += 1  # skip branch

    dfs(0, 0, ())
    return best


def symrank(L: FLattice, p: int, B: int | None = None, initial_witness=None) -> SymRankResult:
    """Minimal invariant p-spanning subset, by branch and bound over orbits.

    A caller may hand in a known invariant p-spanning set as the starting
    incumbent; the search then only looks for something strictly smaller.
    Status is EXACT exactly when the certified lower bound meets the result.

    The box of B is checked against the step limit first.  Then, unless the
    incumbent meets the lower bound, pass 0 searches the incumbent's orbits
    and passes 1 and B the orbits of the box of that sup-norm, each handing
    its incumbent and what is left of one node budget on, until one is EXACT.
    This is sound: a union of the incumbent's orbits (it is invariant), or
    of box 1's orbits (each an orbit of box B), is a witness, so the value
    is at most the least union of box B's orbits, and EXACT cannot be
    improved on.  Box 1 holds e_1, ..., e_d, so a search ends with a witness.
    """
    B = _search_bound(L, B)
    d = L.rank
    lower = perm_lower_bound(L, p).value
    best = None
    if initial_witness is not None:
        best = tuple(sorted({tuple(int(x) for x in v) for v in initial_witness}))
        _check_invariant_spanning(L, p, best, "BAD_INPUT")
    nodes = itertools.count(1)
    for b in ([0] if best is not None else []) + sorted({1, B}):
        if best is not None and len(best) <= lower:
            break
        orbits = _enumerate_orbits(L, b) if b else _seed_orbits(L, best)
        best = _least_union(orbits, p, d, lower, best, nodes)
    _check_invariant_spanning(L, p, best, "INTERNAL")
    return SymRankResult(
        value=len(best),
        witness=best,
        status="EXACT" if len(best) == lower else "UPPER_ONLY",
        lower_bound_used=lower,
        search_bound=B,
    )


def weight_seed(P, V=None):
    """V's distinct nonzero weights, else P's, if p-spanning (validation makes them invariant), else None."""
    seed = tuple(sorted({w for w in (P if V is None else V).weights if any(w)}))
    return seed if len(_span((), seed, P.p)) == P.torus_rank else None


def _check_invariant_spanning(L: FLattice, p: int, vecs, code: str) -> None:
    """EdtorusError(code) unless vecs is invariant and p-spanning.  A finite set
    that each generator maps into itself is invariant under the whole group."""
    vset = set(vecs)
    for a in L.generators:
        for v in vecs:
            if _act(v, a) not in vset:
                raise EdtorusError(code, "witness is not invariant under the group")
    if len(_span((), vecs, p)) != L.rank:
        raise EdtorusError(code, "witness is not p-spanning")


# -- minimal p-faithful dimension ---------------------------------------------


@dataclass(frozen=True)
class EtaResult:
    """Bounds for the least dimension of a p-faithful representation."""

    lower: int
    upper: int | None
    exact: int | None
    split_witness: bool
    symrank: SymRankResult | None
    certificate: str | None  # how exactness was certified, if it was


def eta_bounds(P, V=None, B: int | None = None) -> EtaResult:
    """Bounds on the minimal p-faithful dimension from the lattice action.

    The symmetric p-rank of the character lattice is always a lower bound; a
    verified splitting makes it exact when F acts faithfully on the lattice
    (Lötscher-MacDonald-Meyer-Reichstein 2013); without faithfulness it may
    fall short, as G_m x Z/2 splits with SymRank 1 and eta 2.  A supplied
    p-faithful representation V bounds from above, and its nonzero weight
    set is itself an invariant p-spanning set, so a matching certified lower
    bound pins the value with no search at all; without V, `weight_seed`
    gives the candidate.  A search the step limit stops reports no symrank.
    """
    report = ensure_valid(P)
    L = character_lattice_action(P)
    _check_bound(B)  # an explicit bound is checked even where no search runs
    p = P.p
    lower = perm_lower_bound(L, p).value

    v_dim = None
    if V is not None:
        ok, witness = is_p_faithful(P, V)
        if not ok:
            raise EdtorusError("V_NOT_P_FAITHFUL", witness or "")
        v_dim = V.dim
    candidate = weight_seed(P, V)

    sr = None
    certificate = None
    # Pinch: the candidate weight set is invariant and p-spanning, so SymRank
    # is caught between the certified bound and its size; no box is searched.
    if candidate is not None and len(candidate) == lower:
        sr = SymRankResult(
            value=lower,
            witness=candidate,
            status="EXACT",
            lower_bound_used=lower,
            search_bound=None,
        )
    else:
        try:
            sr = symrank(L, p, B=B, initial_witness=candidate)
        except EdtorusError as exc:
            if exc.code != "BUDGET_EXCEEDED":
                raise

    split = report.split_witness
    upper = v_dim
    exact = None
    if sr is not None and split and L.order == report.component_order:
        # split case, F faithful on the lattice: the minimal p-faithful dimension equals SymRank
        upper = sr.value if upper is None else min(upper, sr.value)
        if sr.status == "EXACT":
            exact = sr.value
            certificate = "split presentation with exact symmetric p-rank"
    if exact is None and upper is not None and lower == upper:
        exact = lower
        certificate = "certified lower bound meets a p-faithful representation"
    return EtaResult(
        lower=lower,
        upper=upper,
        exact=exact,
        split_witness=split,
        symrank=sr,
        certificate=certificate,
    )
