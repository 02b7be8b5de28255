"""Monomial group presentations and their component groups.

A presentation encodes an extension of a finite p-group by a split torus of
rank d: the torus acts on a list of m lines through integer weight vectors,
and finitely many monomial generators act by permuting the lines and scaling
them by roots of unity.  A coefficient c modulo n stands for c/n in Q/Z, the
root of unity zeta_n^c; n is e (root_of_unity_exponent) for the presentation,
and each representation block has its own modulus.  Semantics are fixed over
a field containing a primitive n-th root of unity for every modulus n in
play, with characteristic prime to them.

Conventions (asserted in tests):
  * weights are column vectors in Z^d; a torus point acts on line i through
    the character of weight w_i;
  * a finite generator (sigma, c) sends coordinate v_{sigma^-1(i)} to
    position i scaled by the root of unity with exponent c_i, so that
    (g1*g2) = (sigma1 sigma2, c1 + sigma1.c2) modulo n.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import zlat

Perm = tuple[int, ...]
Coeff = tuple[int, ...]  # c_i modulo a modulus n, standing for c_i/n in Q/Z

# Largest component group `validate` enumerates: a fixed cap, not the step limit,
# since `validate` is cached and would serve one call's refusal to every later call.
ELEMENT_CAP = 10**6
DEFAULT_MAX_STEPS = 10**8
# Steps each search stage may take, read once at its check; no cached function reads it.
MAX_STEPS = contextvars.ContextVar("MAX_STEPS", default=DEFAULT_MAX_STEPS)


class EdtorusError(Exception):
    """Why no certified answer was given: a code (BAD_INPUT,
    BUDGET_EXCEEDED, ...) and a human-readable detail.  The one error type of
    the package; the CLI maps the code to its exit status."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


@contextlib.contextmanager
def limit_steps(n: int):
    """Bound each search stage run inside the block by n steps."""
    token = MAX_STEPS.set(n)
    try:
        yield
    finally:
        MAX_STEPS.reset(token)


PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981  # psi_13


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 primes as bases, exact below their bound
    psi_13 (Sorenson and Webster); a larger n is refused.  The first 12 would
    not do: psi_12 is a composite that passes them."""
    if n >= PRIME_TEST_BOUND:
        raise EdtorusError("BAD_INPUT", f"{n} is not below {PRIME_TEST_BOUND}, the bound of the exact prime test")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)  # a is no witness when x is 1 or some x^(2^r), r < s, is -1
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


def closure(identity, gens, mul) -> list:
    """Elements of the monoid generated by `gens`, in breadth-first discovery order.

    Each new element is found as mul(x, g) for an earlier element x and a
    generator g, taken for each element in discovery order times each generator
    in order; for a finite group the monoid is the group.
    """
    seen = {identity: None}  # insertion-ordered: the discovery order
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def generators_commute(right: list[list[int]]) -> bool:
    """Whether a group's generators commute pairwise, read off its right Cayley
    graph (element 0 the identity, right[x][g] = x times generator g), whose
    generator g is element right[0][g]; that is commutativity of the group."""
    first = right[0]
    pairs = itertools.combinations(range(len(first)), 2)
    return all(right[first[i]][j] == right[first[j]][i] for i, j in pairs)


def monomial_mul(a: tuple[Perm, Coeff], b: tuple[Perm, Coeff], n: int) -> tuple[Perm, Coeff]:
    """Product of monomial maps: (s1,c1)(s2,c2) = (s1 s2, c1 + s1.c2), coefficients mod n.

    Both coefficient vectors must be reduced mod n.  Entry j of c2 lands on line
    s1(j), so only c2's nonzero entries are added, and c1 is returned as it is
    when c2 is zero (every even SL lift, every SO generator)."""
    p1, c1 = a
    p2, c2 = b
    perm = tuple(map(p1.__getitem__, p2))
    if not any(c2):
        return perm, c1
    coeff = list(c1)
    for j, x in enumerate(c2):
        if x:
            i = p1[j]
            coeff[i] = (coeff[i] + x) % n
    return perm, tuple(coeff)


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def perm_sign(p: Perm) -> int:
    return -1 if (len(p) - len(perm_cycles(p))) % 2 else 1


@dataclass(frozen=True)
class MonomialGroupPresentation:
    p: int
    torus_rank: int
    root_of_unity_exponent: int
    weights: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[Perm, Coeff], ...]
    split_claim: bool | None = None

    def __post_init__(self):
        if not _is_prime(self.p):
            raise EdtorusError("BAD_INPUT", f"p = {self.p} is not prime")
        if self.torus_rank < 0:
            raise EdtorusError("BAD_INPUT", "negative torus rank")
        e = self.root_of_unity_exponent
        if e < 1:
            raise EdtorusError("BAD_INPUT", "root_of_unity_exponent must be >= 1")
        m = len(self.weights)
        for w in self.weights:
            if len(w) != self.torus_rank:
                raise EdtorusError("BAD_INPUT", "weight length must equal torus rank")
            if any(type(x) is not int for x in w):
                raise EdtorusError("BAD_INPUT", "weight entries must be integers")
        for perm, coeff in self.generators:
            if sorted(perm) != list(range(m)):
                raise EdtorusError("BAD_INPUT", "generator permutation is not a permutation of the lines")
            if len(coeff) != m:
                raise EdtorusError("BAD_INPUT", "generator coefficient length mismatch")
            if any(type(c) is not int or not 0 <= c < e for c in coeff):
                raise EdtorusError("BAD_INPUT", "coefficients must be integers reduced modulo e")

    @property
    def num_lines(self) -> int:
        return len(self.weights)

    def weight_matrix(self) -> zlat.IntMatrix:
        """m x d matrix whose rows are the line weights."""
        return zlat.IntMatrix(self.weights, self.torus_rank)


@dataclass(frozen=True)
class RepBlock:
    """One monomial block of a representation: weights plus generator actions,
    whose coefficients are integers modulo `modulus`."""

    weights: tuple[tuple[int, ...], ...]
    gen_perms: tuple[Perm, ...]
    gen_coeffs: tuple[Coeff, ...]
    modulus: int

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MonomialRep:
    presentation: MonomialGroupPresentation
    blocks: tuple[RepBlock, ...]

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        out: list[tuple[int, ...]] = []
        for b in self.blocks:
            out.extend(b.weights)
        return tuple(out)

    def weight_matrix(self) -> zlat.IntMatrix:
        return zlat.IntMatrix(self.weights, self.presentation.torus_rank)

    @property
    def modulus(self) -> int:
        """The lcm of the block moduli; every action on the rep is taken modulo it."""
        return math.lcm(*(b.modulus for b in self.blocks))

    def generator_action(self, j: int) -> tuple[Perm, Coeff]:
        """Action of presentation generator j on all lines of the rep, modulo `modulus`."""
        n = self.modulus
        perm: list[int] = []
        coeff: list[int] = []
        offset = 0
        for b in self.blocks:
            perm.extend(offset + x for x in b.gen_perms[j])
            coeff.extend(c * (n // b.modulus) for c in b.gen_coeffs[j])
            offset += b.dim
        return tuple(perm), tuple(coeff)


def natural_rep(P: MonomialGroupPresentation) -> MonomialRep:
    """The defining representation carried by the presentation itself."""
    block = RepBlock(
        weights=P.weights,
        gen_perms=tuple(g[0] for g in P.generators),
        gen_coeffs=tuple(g[1] for g in P.generators),
        modulus=P.root_of_unity_exponent,
    )
    return MonomialRep(presentation=P, blocks=(block,))


@dataclass(frozen=True)
class ValidationReport:
    """What `validate` certified; a failed report certifies nothing past its code and detail."""

    ok: bool
    error: str | None
    detail: str
    induced_matrices: tuple[zlat.Matrix, ...] = ()
    component_order: int | None = None
    split_witness: bool = False
    diagnostics: tuple[str, ...] = ()


class _CoeffCanon:
    """Coset keys for coefficient vectors modulo the torus torsion image.

    Two coefficient vectors describe the same coset of the torus exactly when
    their difference lies in the image of (Q/Z)^d under the weight rows W.
    With U W V = D the Smith form `dec` of W, a vector c of integers mod n lies
    in that image exactly when (U c)_i = 0 (mod n) for every row i of U past
    the rank: the nonzero invariant factors act onto the divisible group Q/Z.
    The key of c is those residues, so two vectors share a key exactly when
    their difference lies in U^-1 (Z^rank + n Z^(m - rank)): the key is a
    complete invariant of the coset.

    `rows` are those rows of U as they are, the saturated kernel basis the
    stabilizer reads.  The key reads each row reduced mod n once, through its
    nonzero terms only, and drops a row that vanishes mod n, whose residue is
    always 0; at n = 1 every key is empty.  Dropping a constant entry keeps
    the order of keys, so the enumeration's breadth-first order is unchanged.
    """

    def __init__(self, W: zlat.IntMatrix, n: int):
        self.dec = zlat.smith_normal_form(W)
        self.n = n
        self.rows = self.dec.U[self.dec.rank :]
        terms = ([(i, a % n) for i, a in enumerate(u) if a % n] for u in self.rows)
        self._terms = [t for t in terms if t]

    def canon(self, coeff: Coeff) -> tuple[int, ...]:
        n = self.n
        return tuple(sum(a * coeff[i] for i, a in t) % n for t in self._terms)

    def is_torsion_image(self, coeff: Coeff) -> bool:
        return not any(self.canon(coeff))


@dataclass
class GroupElement:
    perm: Perm
    coeff: Coeff  # first representative found in breadth-first order
    word: tuple[int, ...]  # generator indices whose ordered product is this class


class ComponentGroup:
    """Finite quotient of the presented group by its torus, fully enumerated.

    Elements are stored in deterministic breadth-first order (lexicographic
    tie-break inside each level); element 0 is the identity.  `right[x][g]` is
    the class of x times generator g (the right Cayley graph), recorded by the
    enumeration; a product x y walks y's breadth-first word through it, so no
    multiplication table is stored.  `split_witness` says whether the literal
    generators close up to |F| elements, a complement of the torus.  `canon`
    is the coset key the enumeration keyed each edge with.  `component_group`
    hands one out only for a valid presentation.
    """

    def __init__(self, P: MonomialGroupPresentation, elements, right, split_witness, canon):
        self.presentation = P
        self.split_witness: bool = split_witness
        self.elements: list[GroupElement] = elements
        self.identity = 0
        self.right: list[list[int]] = right
        self.canon: _CoeffCanon = canon
        self._reps: dict[MonomialRep, RepRecord] = {}
        self._decompositions: dict[tuple[int, ...], tuple] = {}

    def mul(self, x: int, y: int) -> int:
        """Class of x times y."""
        right = self.right
        for g in self.elements[y].word:
            x = right[x][g]
        return x

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        return generators_commute(self.right)

    def subgroup_closure(self, indices) -> tuple[int, ...]:
        return tuple(sorted(self._generators(sorted(set(indices)))[1]))

    def is_subgroup(self, indices) -> bool:
        """Holds the identity and equals the closure of its greedy generating set."""
        s = set(indices)
        return self.identity in s and self._generators(sorted(s))[1] == s

    def rep_record(self, R: MonomialRep) -> RepRecord:
        """R checked against the group and analysed, once per rep (see `RepRecord`).

        No check already made is made again.  The natural representation's
        record is the enumeration's own classes and coset key: keying each
        Cayley edge was exactly that block's relation check, and `validate`
        certified its weights.  When R's trailing blocks all have weight zero
        and its leading blocks have a record (or are natural), only the
        trailing lines are walked, for exact equality: the torus acts
        trivially on them, so an edge's coefficient difference is a torus
        point exactly when its leading part is one (checked for the leading
        record) and its trailing part is zero.  Any other R is checked block
        by block and walked over all its lines.
        """
        rec = self._reps.get(R)
        if rec is None:
            rec = self._reps[R] = self._record(R)
        return rec

    def _record(self, R: MonomialRep) -> RepRecord:
        P = self.presentation
        natural = natural_rep(P)
        if R == natural:
            return RepRecord(self.canon, [(el.perm, el.coeff) for el in self.elements])
        blocks = R.blocks
        for s in range(len(blocks) - 1, 0, -1):
            if any(any(w) for w in blocks[s].weights):
                break
            lead = MonomialRep(P, blocks[:s])
            if lead in self._reps or lead == natural:
                return _extend(self, self.rep_record(lead), R, s)
        _check_blocks(P, blocks)
        canon = _CoeffCanon(R.weight_matrix(), R.modulus)
        return RepRecord(canon, _walk(self, R, canon))

    def rep_actions(self, R: MonomialRep) -> list[tuple[Perm, Coeff]]:
        """Action of each class representative on all lines of R, modulo R.modulus."""
        return self.rep_record(R).actions

    # -- abelian structure ---------------------------------------------------

    def _generators(self, members) -> tuple[list[int], set[int]]:
        """Greedy generating set of the subgroup the members generate, and
        that subgroup: each member, in increasing order, that the earlier
        picks do not yet generate.  Each pick at least doubles the subgroup,
        so closing the s picks costs at most 2s|H| products, against
        |members|·|H| for closing all the members at once."""
        gens: list[int] = []
        reached = {self.identity}
        for h in members:
            if h not in reached:
                gens.append(h)
                reached = set(closure(self.identity, gens, self.mul))
        return gens, reached

    def abelian_decomposition(self, indices=None):
        """Cyclic decomposition of an abelian subgroup.

        Returns (basis_indices, factor_orders, coords) where the subgroup is
        the internal direct sum of the cyclic groups generated by the basis
        elements, factor_orders is the divisibility chain of their orders, and
        coords maps each subgroup element index to its exponent tuple.  The
        subgroup is presented by a greedy generating set with one triangular
        relation per generator, read off as it grows coset by coset; results
        are memoized per member set, the whole group keyed by range(order).
        """
        return self._decomposition(tuple(range(self.order)) if indices is None else self.subgroup_closure(indices))

    def _decomposition(self, members: tuple[int, ...]):
        """`abelian_decomposition` of the subgroup `members`, sorted, memoized per member set."""
        if members not in self._decompositions:
            self._decompositions[members] = self._decompose(members)
        return self._decompositions[members]

    def _grow(self, coords: dict, g: int, k: int) -> dict:
        """coords over the cosets x g^j, 0 <= j < k: x g^j gets coords[x] + (j,)."""
        grown = {}
        for x, expo in coords.items():
            for j in range(k):
                grown[x] = expo + (j,)
                x = self.mul(x, g)
        return grown

    def _decompose(self, members: tuple[int, ...]):
        # each member not yet reached is the next pick h_t; with k_t the least
        # power of h_t already reached, the subgroup grows by its cosets
        # x h_t^j (0 <= j < k_t), and k_t e_t - vec(h_t^k_t) is a relation.
        # The relations are lower triangular with determinant prod k_t = |H|,
        # so they span the whole relation lattice.
        vec = {self.identity: ()}
        hs: list[int] = []
        relations: list[list[int]] = []
        for h in members:
            if h in vec:
                continue
            if any(self.mul(h, g) != self.mul(g, h) for g in hs):
                raise ValueError("subgroup is not abelian")
            y, k = h, 1
            while y not in vec:
                y, k = self.mul(y, h), k + 1
            relations.append([-a for a in vec[y]] + [k])
            hs.append(h)
            vec = self._grow(vec, h, k)
        s = len(hs)
        if s == 0:
            return (), (), vec
        relations = [rel + [0] * (s - len(rel)) for rel in relations]
        dec = zlat.smith_normal_form(zlat.IntMatrix(zip(*relations), s))  # columns are relations
        element = {v: x for x, v in vec.items()}
        basis = []
        orders = []
        for d, v in zip(dec.invariant_factors, zip(*dec.V)):
            if d == 1:
                continue
            # U M V = D for M the relation columns, so M V = U^-1 D: column i of
            # U^-1 is M v, for v column i of V, divided by d_i, nonzero at rank s
            col = [sum(rel[t] * a for rel, a in zip(relations, v)) for t in range(s)]
            if any(x % d for x in col):
                raise EdtorusError("INTERNAL", "relation columns must be divisible by their invariant factor")
            col = [x // d for x in col]
            # subtract relations, last first, until each exponent is below its k_t
            for t in reversed(range(s)):
                q = col[t] // relations[t][t]
                col = [c - q * r for c, r in zip(col, relations[t])]
            basis.append(element[tuple(col)])
            orders.append(d)
        # exponent tuples in lexicographic order, one product per element
        coords = {self.identity: ()}
        for b, d in zip(basis, orders):
            coords = self._grow(coords, b, d)
        if len(coords) != len(members):
            raise EdtorusError("INTERNAL", "decomposition must enumerate the subgroup")
        return tuple(basis), tuple(orders), coords

    def elementary_rank(self, indices, p: int) -> int:
        """Largest r with an elementary abelian p-subgroup of rank r inside the
        subgroup `indices`, which must be one (`generic_stabilizer` checks it,
        so it is decomposed as it stands and not closed again).

        For an abelian subgroup this is the number of its invariant factors
        divisible by p.  A non-abelian one, which its decomposition refuses, is
        searched depth first over the elementary abelian subgroups generated by
        elements of order p, once per member set.
        """
        try:
            _, orders, _ = self._decomposition(tuple(sorted(set(indices))))
        except ValueError:
            return self._elementary_rank_search(indices, p)
        return sum(1 for d in orders if d % p == 0)

    def _elementary_rank_search(self, indices, p: int) -> int:
        # for p prime, i has order p exactly when it generates p classes
        order_p = [i for i in sorted(indices) if len(closure(self.identity, [i], self.mul)) == p]
        best = 0
        limit = MAX_STEPS.get()
        visited: set[frozenset[int]] = set()

        def dfs(span: frozenset[int], gens: list[int]):
            # the candidates depend on the span alone: commuting with its
            # generators is commuting with all of it
            nonlocal best
            best = max(best, len(gens))
            cands = [g for g in order_p if g not in span and all(self.mul(g, h) == self.mul(h, g) for h in gens)]
            if len(gens) + len(cands) <= best:
                return
            for g in cands:
                new_span = frozenset(self.subgroup_closure(gens + [g]))
                if new_span not in visited:
                    if len(visited) >= limit:
                        raise EdtorusError("BUDGET_EXCEEDED", f"elementary-rank search exceeds {limit} subgroups")
                    visited.add(new_span)
                    dfs(new_span, gens + [g])

        dfs(frozenset([self.identity]), [])
        return best


class RepRecord:
    """A representation checked against its component group, with what the
    stabilizer reads from it.

    Every block must transform by the induced lattice matrices of the
    presentation, and the blocks together must respect the relations of the
    component group: on every Cayley edge (x, g), R(x) R(g) must permute the
    lines as R(x g) does, and their coefficients must differ by the action of
    a torus point through the weights of R.  `actions` holds the action of
    each class representative modulo R.modulus, taken on its breadth-first
    tree edge (the last letter of its word), so each edge costs one product.
    `canon` is the coset key of R's weights at that modulus, and `canon.dec`
    their Smith form.  `ComponentGroup.rep_record` says which checks a record
    reuses instead of making them again.
    """

    def __init__(self, canon: _CoeffCanon, actions: list[tuple[Perm, Coeff]]):
        self.canon = canon
        self.actions = actions


def _check_blocks(P: MonomialGroupPresentation, blocks, start: int = 0) -> None:
    """Reject a block whose shape does not fit P, or whose weights the induced
    matrices do not permute as its generators do; blocks are numbered from `start`."""
    matrices = validate(P).induced_matrices
    for b, block in enumerate(blocks, start):
        if type(block.modulus) is not int or block.modulus < 1:
            raise EdtorusError("BAD_INPUT", f"block {b}: modulus must be a positive integer")
        if len(block.gen_perms) != len(matrices) or len(block.gen_coeffs) != len(matrices):
            raise EdtorusError("BAD_INPUT", f"block {b}: one action per generator is required")
        if any(len(w) != P.torus_rank for w in block.weights):
            raise EdtorusError("BAD_INPUT", f"block {b}: weight length must equal torus rank")
        if any(type(x) is not int for w in block.weights for x in w):
            raise EdtorusError("BAD_INPUT", f"block {b}: weight entries must be integers")
        for j, A in enumerate(matrices):
            perm = block.gen_perms[j]
            if sorted(perm) != list(range(block.dim)):
                raise EdtorusError("BAD_INPUT", f"block {b}: generator {j} is not a permutation")
            if len(block.gen_coeffs[j]) != block.dim:
                raise EdtorusError("BAD_INPUT", f"block {b}: coefficient length mismatch")
            if any(type(c) is not int or not 0 <= c < block.modulus for c in block.gen_coeffs[j]):
                raise EdtorusError(
                    "BAD_INPUT", f"block {b}: coefficients must be integers reduced modulo its modulus"
                )
            for i, w in enumerate(block.weights):  # A w over the nonzero entries of w
                if tuple(sum(row[k] * x for k, x in enumerate(w) if x) for row in A) != tuple(block.weights[perm[i]]):
                    raise EdtorusError(
                        "BAD_INPUT",
                        f"block {b}: weights are not permuted compatibly with the torus action",
                    )


def _walk(group: ComponentGroup, R: MonomialRep, canon: _CoeffCanon | None) -> list[tuple[Perm, Coeff]]:
    """The action of each class on R, modulo R.modulus, taken on its tree edge
    and checked on every other Cayley edge: the product must permute the lines
    as the target class does, and its coefficients must differ from the
    class's by a torus point through `canon` (by nothing when `canon` is None)."""
    n = R.modulus
    gens = [R.generator_action(j) for j in range(len(group.presentation.generators))]
    actions: list = [None] * group.order
    actions[group.identity] = (tuple(range(R.dim)), (0,) * R.dim)
    for x, row in enumerate(group.right):
        for g, y in enumerate(row):
            perm, coeff = monomial_mul(actions[x], gens[g], n)
            if actions[y] is None:
                actions[y] = perm, coeff
                continue
            have_perm, have_coeff = actions[y]
            if perm != have_perm or (
                coeff != have_coeff
                and (canon is None or not canon.is_torsion_image(tuple(a - b for a, b in zip(coeff, have_coeff))))
            ):
                raise EdtorusError(
                    "BAD_INPUT",
                    f"blocks do not define a representation: class {x} times generator {g} "
                    f"does not act as class {y}",
                )
    return actions


def _extend(group: ComponentGroup, base: RepRecord, R: MonomialRep, s: int) -> RepRecord:
    """R's record from `base`, the record of its first s blocks, walking only
    the later blocks, which have weight zero (see `ComponentGroup.rep_record`).
    Both walks take each class on the tree edge a walk over all of R would, so
    the actions are the ones it would give, and the first edge that fails is
    the one it would name."""
    P = group.presentation
    _check_blocks(P, R.blocks[s:], start=s)
    tail = MonomialRep(P, R.blocks[s:])
    trailing = _walk(group, tail, None)
    n = R.modulus
    k = n // math.lcm(*(b.modulus for b in R.blocks[:s]))
    kt = n // tail.modulus
    offset = R.dim - tail.dim
    actions = [
        (perm + tuple(offset + i for i in tperm), tuple(c * k for c in coeff) + tuple(c * kt for c in tcoeff))
        for (perm, coeff), (tperm, tcoeff) in zip(base.actions, trailing)
    ]
    return RepRecord(_CoeffCanon(R.weight_matrix(), n), actions)


def _induced_matrices(P: MonomialGroupPresentation, dec: zlat.SmithDecomposition, perms: list[Perm]) -> tuple[zlat.Matrix, ...]:
    """For each line permutation, the A in GL_d(Z) with A w_i = w_{perm(i)} for every
    line i; raises NO_INDUCED_ACTION at the first that has none.  `dec` is the Smith
    form U W V = D of the m x d weight rows W, of rank d.  With T the image rows, A
    solves W A^T = T exactly when D Y = U T for Y = V^-1 A^T: the rows of U T past d
    vanish, its first d rows are divisible by the invariant factors, and A^T = V Y.
    Such an A is unimodular: it permutes the spanning weights, so it maps their
    lattice L onto itself, and [Z^d : L] = |det A| [Z^d : L] gives det A = +-1."""
    d = P.torus_rank
    u_terms = [[(i, a) for i, a in enumerate(row) if a] for row in dec.U]
    v_terms = [[(k, a) for k, a in enumerate(row) if a] for row in dec.V]
    w_terms = [[(r, x) for r, x in enumerate(w) if x] for w in P.weights]
    factors = dec.invariant_factors[:d]
    out = []
    for perm in perms:
        ut = [[0] * d for _ in u_terms]  # U T, over the nonzero entries of U and T
        for row, terms in zip(ut, u_terms):
            for i, a in terms:
                for r, x in w_terms[perm[i]]:
                    row[r] += a * x
        if any(any(row) for row in ut[d:]):
            raise EdtorusError("NO_INDUCED_ACTION", "weight images violate the defining relations")
        if any(x % f for row, f in zip(ut, factors) for x in row):
            raise EdtorusError("NO_INDUCED_ACTION", "no integral matrix maps the weights onto their images")
        y = [[x // f for x in row] for row, f in zip(ut, factors)]
        # A[r][c] = (V Y)[c][r]
        out.append(tuple(tuple(sum(a * y[k][r] for k, a in vt) for vt in v_terms) for r in range(d)))
    return tuple(out)


def _enumerate_group(P: MonomialGroupPresentation, canon: _CoeffCanon) -> ComponentGroup:
    """Breadth-first enumeration of the component group under the coset key
    `canon`: each Cayley edge is keyed once, and an edge to a class first met
    on this level is resolved once the level is sorted.  A stored
    representative is the literal product along its word, so the literal
    generators close up to |F| elements, the split witness, exactly when each
    edge's literal product is the stored one of its target class."""
    m = P.num_lines
    e = P.root_of_unity_exponent
    ident = GroupElement(perm=tuple(range(m)), coeff=(0,) * m, word=())
    elements = [ident]
    index = {(ident.perm, canon.canon(ident.coeff)): 0}
    right: list[list[int]] = []
    split = True
    level = [0]
    while level:
        fresh: dict = {}
        pending = []  # (row, generator, key) of edges into this level's new classes
        for idx in level:
            el = elements[idx]
            row = [0] * len(P.generators)
            right.append(row)  # levels are consecutive runs of indices, so right[idx] is row
            for j, gen in enumerate(P.generators):
                perm, coeff = monomial_mul((el.perm, el.coeff), gen, e)
                key = (perm, canon.canon(coeff))
                y = index.get(key)
                if y is not None:
                    row[j] = y
                    split = split and coeff == elements[y].coeff
                    continue
                if key not in fresh:
                    fresh[key] = GroupElement(perm=perm, coeff=coeff, word=el.word + (j,))
                split = split and coeff == fresh[key].coeff
                pending.append((row, j, key))
        level = []
        for key in sorted(fresh):
            if len(elements) >= ELEMENT_CAP:
                raise EdtorusError(
                    "LIMIT_EXCEEDED", f"component group exceeds the cap of {ELEMENT_CAP} elements"
                )
            index[key] = len(elements)
            level.append(len(elements))
            elements.append(fresh[key])
        for row, j, key in pending:
            row[j] = index[key]
    return ComponentGroup(P, elements, right, split, canon)


@lru_cache(maxsize=None)
def _analysis(P: MonomialGroupPresentation) -> tuple[tuple[zlat.Matrix, ...], ComponentGroup]:
    """P's induced matrices and component group, from one Smith form of its
    weights: it decides the rank, solves each induced matrix and keys the
    enumeration.  Raises at the first check that fails, in this order:
    RANK_DEFICIENT, NO_INDUCED_ACTION, LIMIT_EXCEEDED, NOT_P_GROUP."""
    canon = _CoeffCanon(P.weight_matrix(), P.root_of_unity_exponent)
    if canon.dec.rank < P.torus_rank:
        raise EdtorusError("RANK_DEFICIENT", "weights span rank < torus rank; the torus would act with infinite kernel")
    matrices = _induced_matrices(P, canon.dec, [perm for perm, _ in P.generators])
    group = _enumerate_group(P, canon)
    n = order = group.order
    while n % P.p == 0:
        n //= P.p
    if n != 1:
        raise EdtorusError("NOT_P_GROUP", f"component group order {order} is not a power of {P.p}")
    return matrices, group


@lru_cache(maxsize=None)
def validate(P: MonomialGroupPresentation) -> ValidationReport:
    """Certify that the presentation realizes a torus-by-p-group extension,
    or report the first check that fails (see `_analysis`).  The split witness
    is the one the enumeration records."""
    try:
        matrices, group = _analysis(P)
    except EdtorusError as exc:
        return ValidationReport(ok=False, error=exc.code, detail=exc.detail)
    diagnostics = []
    if P.split_claim is True and not group.split_witness:
        diagnostics.append("split claim rejected: literal generators do not close up to a complement")
    if P.split_claim is False and group.split_witness:
        diagnostics.append("presentation claims non-split but a splitting witness exists")
    return ValidationReport(
        ok=True, error=None, detail="", induced_matrices=matrices, component_order=group.order,
        split_witness=group.split_witness, diagnostics=tuple(diagnostics),
    )


def ensure_valid(P: MonomialGroupPresentation) -> ValidationReport:
    report = validate(P)
    if not report.ok:
        raise EdtorusError(report.error, report.detail)
    return report


def component_group(P: MonomialGroupPresentation) -> ComponentGroup:
    """Complete enumeration of the component group with its right Cayley graph.
    An invalid P's failure is read from its cached report, not enumerated again."""
    ensure_valid(P)
    return _analysis(P)[1]


@lru_cache(maxsize=None)
def character_lattice_action(P: MonomialGroupPresentation):
    """The rank-d lattice with the matrix group F induces on it, cached as `validate` is.
    The weights span, so a class's matrix is fixed by its permutation phi of the distinct
    weight values, read off its line permutation (`validate` certified the matrices).  The
    image is the distinct phi in the enumeration's order, each reached by a Cayley edge
    from an earlier one, with F's Cayley graph read through phi; the matrices are
    multiplied out only when they are read."""
    from .symrank import FLattice

    group = component_group(P)
    values = sorted(set(P.weights))
    pos = {w: k for k, w in enumerate(values)}
    lines = [P.weights.index(w) for w in values]  # a line of each value
    phi = [tuple(pos[P.weights[el.perm[i]]] for i in lines) for el in group.elements]
    first: dict[Perm, int] = {}  # each image element's first class, in order
    for x, v in enumerate(phi):
        first.setdefault(v, x)
    index = {v: i for i, v in enumerate(first)}
    first_gen: dict[Perm, int] = {}  # each generator phi's first generator
    for j, x in enumerate(group.right[group.identity]):
        first_gen.setdefault(phi[x], j)
    js = [first_gen[g] for g in sorted(first_gen) if g != phi[group.identity]]
    right = [[index[phi[group.right[x][j]]] for j in js] for x in first.values()]
    matrices = validate(P).induced_matrices
    return FLattice(rank=P.torus_rank, generators=tuple(matrices[j] for j in js), right=right)


def check_rep_compatible(P: MonomialGroupPresentation, R: MonomialRep) -> RepRecord:
    """Reject R unless it is a representation of the group P presents (see
    `RepRecord`); the checks run once per rep."""
    if R.presentation != P:
        raise EdtorusError("BAD_INPUT", "representation belongs to a different presentation")
    return component_group(P).rep_record(R)
