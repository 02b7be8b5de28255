"""Symmetric p-rank of a lattice with a finite matrix group action.

SymRank(L; p) is the least cardinality of a group-invariant subset of the
lattice spanning a finite-index sublattice of index prime to p.  Exact search
by branch and bound over orbits of bounded vectors, certified against the
rank bound and the abelian permutation-group bound; exactness is only ever
claimed when a certified lower bound meets the best witness found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import zlat
from .monogrp import PresentationError, closure

DEFAULT_BOX_BUDGET = 50_000_000
DEFAULT_NODE_BUDGET = 100_000_000


class SearchBudgetExceeded(Exception):
    pass


class Inconclusive(Exception):
    """No invariant p-spanning union of orbits exists within the bound."""


@dataclass(frozen=True)
class FLattice:
    """Z^rank with a finite group of unimodular matrices acting on it."""

    rank: int
    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    # the matrices the closure check below picks; they generate the group
    generators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = set(self.matrices)
        ident = tuple(tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank))
        if ident not in mats:
            raise ValueError("matrix set must contain the identity")
        for a in self.matrices:
            if len(a) != self.rank or any(len(r) != self.rank for r in a):
                raise ValueError("matrix shape mismatch")
        # A finite set is closed under products iff it equals the monoid it
        # generates; each matrix not yet reached joins the generators.
        gens = []
        reached = {ident}
        for a in self.matrices:
            if a not in reached:
                gens.append(a)
                got = closure(ident, gens, _mat_mul, cap=len(mats))
                if got is None:
                    raise ValueError("matrix set is not closed under products")
                reached = set(got)
        if reached != mats:
            raise ValueError("matrix set is not closed under products")
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def order(self) -> int:
        return len(self.matrices)

    def is_abelian(self) -> bool:
        return all(
            _mat_mul(a, b) == _mat_mul(b, a) for a, b in itertools.combinations(self.generators, 2)
        )

    def orbit(self, vec) -> tuple[tuple[int, ...], ...]:
        v = tuple(int(x) for x in vec)
        out = {tuple(sum(row[j] * v[j] for j in range(self.rank)) for row in a) for a in self.matrices}
        return tuple(sorted(out))


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
    n = order
    while n % p == 0:
        n //= p
    if n != 1:
        return PermBound(d, False, f"group order {order} is not a power of {p}")
    if not L.is_abelian():
        return PermBound(d, False, "matrix group is not abelian")
    # Any nonidentity unimodular matrix fixes a sublattice of rank < d, so the
    # permutation action on an invariant spanning set is automatically faithful.
    k = 0
    n = order
    while n > 1:
        n //= p
        k += 1
    return PermBound(max(d, p * k), True, None)


@dataclass(frozen=True)
class SymRankResult:
    value: int
    witness: tuple[tuple[int, ...], ...]
    status: str  # "EXACT" | "UPPER_ONLY"
    lower_bound_used: int
    search_bound: int


def default_search_bound(L: FLattice) -> int:
    m = max((abs(x) for a in L.matrices for row in a for x in row), default=0)
    return 2 * m + 1


# -- F_p linear algebra (the p-spanning test is full rank mod p) --------------


def _reduce_mod_p(basis: list[list[int]], vec, p: int) -> list[int] | None:
    """Reduce vec against an echelon basis mod p; None if it reduces to zero."""
    v = [x % p for x in vec]
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            factor = (v[lead] * pow(row[lead], p - 2, p)) % p
            v = [(a - factor * b) % p for a, b in zip(v, row)]
    if any(v):
        return v
    return None


def _extend_basis(basis: list[list[int]], vecs, p: int) -> list[list[int]]:
    out = [list(r) for r in basis]
    for v in vecs:
        red = _reduce_mod_p(out, v, p)
        if red is not None:
            out.append(red)
    return out


@dataclass
class _Orbit:
    rep: tuple[int, ...]
    size: int
    vectors: tuple[tuple[int, ...], ...]


def _enumerate_orbits(L: FLattice, B: int, box_budget: int) -> list[_Orbit]:
    """Orbits of the nonzero vectors of sup-norm <= B, canonicalized by their
    lexicographically smallest member and sorted by (size, representative)."""
    d = L.rank
    total = (2 * B + 1) ** d
    if total > box_budget:
        raise SearchBudgetExceeded(
            f"box of {total} vectors exceeds the search budget {box_budget}"
        )
    mats = np.array(L.matrices, dtype=np.int64)  # (g, d, d)
    reps: set[tuple[int, ...]] = set()
    chunk = 1 << 17
    ranges = [np.arange(-B, B + 1, dtype=np.int64)] * d
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    for start in range(0, grid.shape[0], chunk):
        block = grid[start : start + chunk]
        # images[g] = block @ mats[g].T
        images = np.einsum("gij,vj->gvi", mats, block)
        cur = images[0].copy()
        for g in range(1, mats.shape[0]):
            cand = images[g]
            less = np.zeros(block.shape[0], dtype=bool)
            decided = np.zeros(block.shape[0], dtype=bool)
            for col in range(d):
                lt = (cand[:, col] < cur[:, col]) & ~decided
                gt = (cand[:, col] > cur[:, col]) & ~decided
                less |= lt
                decided |= lt | gt
            cur[less] = cand[less]
        for row in cur[np.any(block != 0, axis=1)]:
            reps.add(tuple(int(x) for x in row))
    orbits = []
    for rep in reps:
        vecs = L.orbit(rep)
        if vecs[0] != rep:
            raise PresentationError("INTERNAL", "canonical representative must be the orbit minimum")
        orbits.append(_Orbit(rep=rep, size=len(vecs), vectors=vecs))
    orbits.sort(key=lambda o: (o.size, o.rep))
    return orbits


def symrank(
    L: FLattice,
    p: int,
    B: int | None = None,
    initial_witness=None,
    box_budget: int = DEFAULT_BOX_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SymRankResult:
    """Minimal invariant p-spanning subset, by branch and bound over orbits.

    A caller may hand in a known invariant p-spanning set as the starting
    incumbent; the search then only looks for something strictly smaller.
    Status is EXACT exactly when the certified lower bound meets the result.
    """
    if B is None:
        B = default_search_bound(L)
    if B < 1:
        raise ValueError("search bound must be >= 1")
    d = L.rank
    bound = perm_lower_bound(L, p)
    lower = bound.value if bound.hypotheses_ok else d

    best_size = None
    best_witness = None
    if initial_witness is not None:
        vecs = tuple(sorted({tuple(int(x) for x in v) for v in initial_witness}))
        _check_invariant_spanning(L, p, vecs)
        best_size = len(vecs)
        best_witness = vecs

    if best_size is None or best_size > lower:
        orbits = _enumerate_orbits(L, B, box_budget)
        suffix: list[list[list[int]]] = [[] for _ in range(len(orbits) + 1)]
        for i in range(len(orbits) - 1, -1, -1):
            suffix[i] = _extend_basis(suffix[i + 1], orbits[i].vectors, p)
        if len(suffix[0]) < d and best_size is None:
            raise Inconclusive(
                f"no invariant p-spanning union of orbits with sup-norm <= {B}"
            )

        nodes = 0
        chosen: list[int] = []

        def dfs(i: int, size: int, basis: list[list[int]]):
            # recursion depth is bounded by the rank: only inclusions recurse,
            # skips advance the loop below
            nonlocal nodes, best_size, best_witness
            rank = len(basis)
            if rank == d:
                if best_size is None or size < best_size:
                    best_size = size
                    vecs: list[tuple[int, ...]] = []
                    for k in chosen:
                        vecs.extend(orbits[k].vectors)
                    best_witness = tuple(sorted(set(vecs)))
                return
            while i < len(orbits):
                nodes += 1
                if nodes > node_budget:
                    raise SearchBudgetExceeded("branch-and-bound node budget exhausted")
                if best_size is not None and best_size <= lower:
                    return
                if best_size is not None and size + (d - rank) >= best_size:
                    return
                if len(_extend_basis(basis, _rows(suffix[i]), p)) < d:
                    return  # remaining orbits cannot reach full rank
                gain = _extend_basis(basis, orbits[i].vectors, p)
                if len(gain) == rank:
                    i += 1  # no new span: dominated, forced skip
                    continue
                chosen.append(i)
                dfs(i + 1, size + orbits[i].size, gain)
                chosen.pop()
                i += 1  # skip branch

        dfs(0, 0, [])

    if best_size is None:
        raise Inconclusive(f"no invariant p-spanning union of orbits with sup-norm <= {B}")
    if best_witness is None:
        raise PresentationError("INTERNAL", "a best size comes with a witness")
    _check_invariant_spanning(L, p, best_witness)
    status = "EXACT" if best_size == lower else "UPPER_ONLY"
    return SymRankResult(
        value=best_size,
        witness=best_witness,
        status=status,
        lower_bound_used=lower,
        search_bound=B,
    )


def _rows(basis: list[list[int]]):
    return [tuple(r) for r in basis]


def _check_invariant_spanning(L: FLattice, p: int, vecs) -> None:
    vset = set(vecs)
    for v in vecs:
        for w in L.orbit(v):
            if w not in vset:
                raise ValueError("witness is not invariant under the group")
    if zlat.sublattice_p_index(vecs, L.rank, p) != 0:
        raise ValueError("witness is not p-spanning")


# -- minimal p-faithful dimension ---------------------------------------------


class EtaError(Exception):
    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


@dataclass(frozen=True)
class EtaResult:
    """Bounds for the least dimension of a p-faithful representation."""

    lower: int
    upper: int | None
    exact: int | None
    split_witness: bool
    symrank: SymRankResult | None
    certificate: str | None  # how exactness was certified, if it was


def eta_bounds(P, V=None, B: int | None = None, run_search: bool = True) -> EtaResult:
    """Bounds on the minimal p-faithful dimension from the lattice action.

    The symmetric p-rank of the character lattice is always a lower bound; a
    verified splitting makes it exact.  A supplied p-faithful representation
    V bounds from above, and its nonzero weight set is itself an invariant
    p-spanning set, so a matching certified lower bound pins the value with
    no search at all.
    """
    from .monogrp import character_lattice_action, ensure_valid
    from .stab import is_p_faithful

    report = ensure_valid(P)
    L = character_lattice_action(P)
    p = P.p
    bound = perm_lower_bound(L, p)
    lower = bound.value if bound.hypotheses_ok else L.rank

    v_dim = None
    candidate = None
    if V is not None:
        ok, witness = is_p_faithful(P, V)
        if not ok:
            raise EtaError("V_NOT_P_FAITHFUL", witness or "")
        v_dim = V.dim
        candidate = tuple(sorted({w for w in V.weights if any(w)}))

    sr = None
    certificate = None
    # Pinch: the weight set of V is invariant and p-spanning, so SymRank is
    # caught between the certified bound and its size.
    if candidate is not None and len(candidate) == lower:
        sr = SymRankResult(
            value=lower,
            witness=candidate,
            status="EXACT",
            lower_bound_used=lower,
            search_bound=B if B is not None else default_search_bound(L),
        )
    elif run_search:
        try:
            sr = symrank(L, p, B=B, initial_witness=candidate)
        except (SearchBudgetExceeded, Inconclusive):
            sr = None

    split = report.split_witness
    eta_lower = lower
    eta_upper = v_dim
    exact = None
    if sr is not None:
        eta_lower = max(eta_lower, sr.lower_bound_used if sr.status != "EXACT" else sr.value)
        if split:
            # split case: the minimal p-faithful dimension equals SymRank
            split_upper = sr.value
            eta_upper = split_upper if eta_upper is None else min(eta_upper, split_upper)
            if sr.status == "EXACT":
                exact = sr.value
                certificate = "split presentation with exact symmetric p-rank"
    if exact is None and eta_upper is not None and eta_lower == eta_upper:
        exact = eta_lower
        certificate = certificate or "certified lower bound meets a p-faithful representation"
    return EtaResult(
        lower=eta_lower,
        upper=eta_upper,
        exact=exact,
        split_witness=split,
        symrank=sr,
        certificate=certificate,
    )
