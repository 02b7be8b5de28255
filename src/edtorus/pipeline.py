"""Essential p-dimension pipeline and the torus-normalizer case studies.

Given a presentation with abelian component group and a p-faithful
representation V of minimal dimension, the exact value is

    ed = eta + rank_p(S) - dim T,

where eta is the minimal p-faithful dimension and S the generic stabilizer of
V.  The upper bound is realized constructively: one character block per
invariant factor of the stabilizer image, chosen so the restrictions generate
its character group, yields a p-generically-free representation of dimension
dim V + rank_p(S).

The case studies build the preimages of specific p-subgroups of the Weyl
groups of the special linear and even special orthogonal families and compare
the computed values against closed forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .monogrp import (
    ComponentGroup,
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    Perm,
    RepBlock,
    _is_prime,
    character_lattice_action,
    component_group,
    ensure_valid,
    natural_rep,
    perm_sign,
)
from .stab import StabilizerReport, generic_stabilizer, is_p_faithful
from .symrank import _identity, eta_bounds, perm_lower_bound


# -- the generically free extension -------------------------------------------


def _require_free(report: StabilizerReport) -> None:
    """WITNESS_NOT_FREE unless the witness's stabilizer report says p-generically free."""
    if not report.p_generically_free:
        image = report.component_image  # sorted, so the identity class 0 comes first
        detail = f"component class {image[1]} fixes a generic point" if len(image) > 1 else "not p-faithful"
        raise EdtorusError("WITNESS_NOT_FREE", detail)


def _characters_generating_dual(group: ComponentGroup, image: tuple[int, ...]):
    """Characters of the component group whose restrictions to the subgroup
    form the dual basis of its cyclic decomposition; one per invariant factor.

    On the basis b_i of order d_i the i-th character is 1/d_i at b_i and 0 at
    the others.  Such a character of the subgroup extends to the group (Q/Z
    is injective).  The characters of F = sum Z/e_j are walked in the
    lexicographic order of their exponent tuples a (the value at an element of
    coordinates c is sum a_j c_j / e_j), reading only the values at the b_i;
    the first extension of each dual vector is taken, and only the chosen
    characters are evaluated on all of F.
    """
    basis, orders, _ = group.abelian_decomposition(image)
    if not orders:
        return []
    _, exponents, coords = group.abelian_decomposition()
    N = group.order  # characters take values c/N
    wanted = {tuple(N // d if j == i else 0 for j in range(len(basis))): i for i, d in enumerate(orders)}
    at_basis = [coords[b] for b in basis]
    found: dict[int, list[int]] = {}
    for a in itertools.product(*[range(e) for e in exponents]):
        scaled = [ai * (N // e) for ai, e in zip(a, exponents)]
        i = wanted.get(tuple(sum(x * c for x, c in zip(scaled, cb)) % N for cb in at_basis))
        if i is not None and i not in found:
            found[i] = scaled
            if len(found) == len(wanted):
                break
    if len(found) != len(wanted):
        raise EdtorusError("INTERNAL", "every character of the subgroup extends to the group")
    return [
        tuple(sum(x * c for x, c in zip(found[i], coords[g])) % N for g in range(N)) for i in range(len(orders))
    ]


@dataclass(frozen=True)
class ExtensionResult:
    rep: MonomialRep
    blocks_added: int
    stabilizer: StabilizerReport


def build_generically_free_extension(
    P: MonomialGroupPresentation, V: MonomialRep
) -> ExtensionResult:
    """Extend a p-faithful V to a p-generically-free representation by
    appending one character line per invariant factor of the stabilizer image."""
    ok, witness = is_p_faithful(P, V)
    if not ok:
        raise EdtorusError("NOT_P_FAITHFUL", witness or "")
    group = component_group(P)
    if not group.is_abelian():
        raise EdtorusError("NOT_ABELIAN_COMPONENT", "component group is not abelian")
    report = generic_stabilizer(P, V)
    chars = _characters_generating_dual(group, report.component_image)
    gens = group.right[group.identity]  # generator g is class gens[g]
    # one weight-zero line per character, on which g acts by chi(g) mod |F|: W's
    # record walk is the one check that these values extend to a character of F
    lines = tuple(
        RepBlock(((0,) * P.torus_rank,), ((0,),) * len(gens), tuple((chi[g],) for g in gens), group.order)
        for chi in chars
    )
    W = MonomialRep(P, V.blocks + lines)
    _require_free(generic_stabilizer(P, W))
    if W.dim - V.dim != report.require_p_rank():
        raise EdtorusError("INTERNAL", "one line per invariant factor")
    return ExtensionResult(rep=W, blocks_added=len(chars), stabilizer=report)


# -- the ed report -------------------------------------------------------------


@dataclass(frozen=True)
class EdHypotheses:
    component_abelian: bool
    split_witness: bool
    v_minimal_certified: bool
    eta_certificate: str | None
    lower_source: str  # "stabilizer-formula" | "interval" | "cited"


@dataclass(frozen=True)
class EdReport:
    dim_group: int
    eta_lower: int
    eta_upper: int | None
    stabilizer_p_rank: int | None
    dim_free_rep: int | None
    ed_lower: int
    ed_upper: int | None
    exact: int | None
    hypotheses: EdHypotheses
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.ed_upper is not None and self.ed_lower > self.ed_upper:
            raise EdtorusError("INTERNAL", "ed_lower must not exceed ed_upper")
        if self.exact is not None and not self.ed_lower == self.exact == self.ed_upper:
            raise EdtorusError("INTERNAL", "an exact value must equal both bounds")


def essential_p_dimension(P: MonomialGroupPresentation, V: MonomialRep | None = None) -> EdReport:
    """Bounds (exact when certified) for the essential dimension at p.

    Exactness requires an abelian component group, a certified value for the
    minimal p-faithful dimension, and a supplied V realizing it; then the
    value is eta + rank_p(S) - dim T.  Otherwise the report carries the
    interval from the certified eta bounds and the best p-generically-free
    representation available.  Lower bounds cited from the literature are
    the case studies' business (`ed_case_sl`), never mixed in here.
    """
    ensure_valid(P)
    group = component_group(P)
    abelian = group.is_abelian()
    d = P.torus_rank
    eta = eta_bounds(P, V)
    prank = None
    dim_free = None
    ed_upper = None
    if V is not None:
        if abelian:
            ext = build_generically_free_extension(P, V)
            prank = ext.stabilizer.p_rank
            dim_free = ext.rep.dim
            ed_upper = dim_free - d
        else:
            srep = generic_stabilizer(P, V)
            prank = srep.p_rank
            if srep.p_generically_free:
                dim_free = V.dim
                ed_upper = dim_free - d

    exact = None
    v_minimal = V is not None and eta.exact is not None and V.dim == eta.exact
    if abelian and v_minimal and prank is not None:
        exact = eta.exact + prank - d
        lower_source = "stabilizer-formula"
        ed_lower = exact
        ed_upper = exact
        if dim_free is None or dim_free - d != exact:
            raise EdtorusError("INTERNAL", "the extension must realize the exact value")
    else:
        ed_lower = max(0, eta.lower - d)
        lower_source = "interval"
        if ed_upper is not None and ed_lower == ed_upper:
            exact = ed_lower

    return EdReport(
        dim_group=d,
        eta_lower=eta.lower,
        eta_upper=eta.upper,
        stabilizer_p_rank=prank,
        dim_free_rep=dim_free,
        ed_lower=ed_lower,
        ed_upper=ed_upper,
        exact=exact,
        hypotheses=EdHypotheses(
            component_abelian=abelian,
            split_witness=eta.split_witness,
            v_minimal_certified=v_minimal,
            eta_certificate=eta.certificate,
            lower_source=lower_source,
        ),
    )


# -- special linear case studies ------------------------------------------------


def make_sl_presentation(n: int, p: int, perms: list[Perm]) -> MonomialGroupPresentation:
    """Preimage in SL_n of the permutation subgroup generated by `perms`.

    Weights e_1..e_{n-1}, -(e_1+...+e_{n-1}) on the n lines.  Even
    permutations lift to plain permutation matrices; odd ones pick up a
    coefficient 1/2 (1 modulo e = 2) on the lowest-index moved line so the
    lift has determinant one.  Any other placement differs by a sum-zero
    coefficient vector, which lies in the torus torsion image.
    """
    d = n - 1
    gens = []
    for perm in perms:
        coeff = [0] * n
        if perm_sign(perm) == -1:
            moved = min(i for i in range(n) if perm[i] != i)
            coeff[moved] = 1
        gens.append((tuple(perm), tuple(coeff)))
    e = 2 if any(perm_sign(perm) == -1 for perm in perms) else 1
    return MonomialGroupPresentation(
        p=p,
        torus_rank=d,
        root_of_unity_exponent=e,
        weights=_identity(d) + ((-1,) * d,),
        generators=tuple(gens),
    )


def _product_perm(n: int, cycles: list[list[int]]) -> Perm:
    perm = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return tuple(perm)


def _tower_offsets(p: int, count: int) -> tuple[tuple[int, int], ...]:
    """(offset, size) of the p-power blocks that tile the first `count` points,
    largest first: count's base-p digits, with the units dropped."""
    sizes: list[int] = []
    power = p
    while power <= count:
        sizes = [power] * (count // power % p) + sizes
        power *= p
    return tuple(zip(itertools.accumulate(sizes, initial=0), sizes))


def sylow_tower_generators(n: int, p: int, count: int) -> list[Perm]:
    """Generators of a Sylow p-subgroup of the symmetric group on the first
    `count` points, p-power block by p-power block.

    Each block of size p^j carries the standard tower: the p-cycle on its
    first p points, then for each level l the product of p^(l-1) disjoint
    p-cycles interleaving the p sub-blocks of size p^(l-1).
    """
    out = []
    for start, size in _tower_offsets(p, count):
        block = 1
        while block < size:
            cycles = [[start + i + k * block for k in range(p)] for i in range(block)]
            out.append(_product_perm(n, cycles))
            block *= p
    return out


@dataclass(frozen=True)
class SlCase:
    n: int
    p: int
    label: str  # a | b | c | d
    presentation: MonomialGroupPresentation
    h_description: str
    sylow_points: int  # the Sylow factor moves the points [0, sylow_points)


def sl_case_label(n: int, p: int) -> str:
    if p >= 3:
        return "a" if n % p == 0 else "c"
    return "b" if n % 4 == 0 else "d"


def _require_sl_case(n: int, p: int) -> None:
    if n < 2:
        raise EdtorusError("UNSUPPORTED", "need n >= 2")
    if not _is_prime(p):
        raise EdtorusError("UNSUPPORTED", f"p = {p} is not prime")


def sln_case(n: int, p: int) -> SlCase:
    """Case-study presentation for the torus normalizer inside SL_n."""
    _require_sl_case(n, p)
    label = sl_case_label(n, p)
    points = 0
    if label == "a":
        gens = [_product_perm(n, [list(range(k * p, (k + 1) * p))]) for k in range(n // p)]
        desc = f"elementary abelian, generated by {n // p} disjoint {p}-cycles"
    elif label == "b":
        gens = []
        for k in range(n // 4):
            o = 4 * k
            gens.append(_product_perm(n, [[o, o + 1], [o + 2, o + 3]]))
            gens.append(_product_perm(n, [[o, o + 2], [o + 1, o + 3]]))
        desc = f"product of {n // 4} Klein four-groups of double transpositions"
    elif label == "c" or (label == "d" and n % 2 == 1):
        points = p * (n // p)
        gens = sylow_tower_generators(n, p, points)
        desc = f"Sylow {p}-subgroup of the symmetric group on the first {points} points"
    else:  # label d, n = 2 mod 4
        points = n - 2
        gens = sylow_tower_generators(n, p, points)
        gens.append(_product_perm(n, [[n - 2, n - 1]]))
        desc = "Sylow 2-subgroup split as (Sylow 2 on the first n-2 points) x (last transposition)"
    return SlCase(
        n=n,
        p=p,
        label=label,
        presentation=make_sl_presentation(n, p, gens),
        h_description=desc,
        sylow_points=points,
    )


def closed_form_sln(n: int, p: int) -> int:
    """Recorded closed form for the essential p-dimension of the SL_n
    torus normalizer."""
    _require_sl_case(n, p)
    label = sl_case_label(n, p)
    if label == "a":
        return n // p + 1
    if label == "b":
        return n // 2 + 1
    return n // p


def closed_form_so(n: int) -> int:
    """Closed form 3n for the essential 2-dimension of `so_case(n)`, the
    group N_{SO_4}^n inside SO_{4n}.

    The component group (Z/2)^(2n) is abelian, so the main theorem applies:
    the natural representation (dimension 4n) is a minimal 2-faithful one,
    its generic stabilizer is the paired-sign subgroup of rank n (a
    transposition class fixes a point only on the closed locus
    x_1 y_1 = x_2 y_2), and ed = 4n + n - 2n = 3n.

    Independent checks, without the formula:

    - n = 1 (the full torus normalizer N of SO_4, since W(D_2) has order 4):
      the 5-dimensional extension from `build_generically_free_extension` is
      generically free by the exhaustive finite-field oracle, so
      ed(N; 2) <= 5 - 2 = 3.  Every SO_4-torsor reduces to N, so
      ed(N; 2) >= ed(SO_4; 2) = 3 (Reichstein 2000: ed(SO_m; 2) = m - 1 for
      m >= 3).  Hence the value is exactly 3.
    - n = 2: the oracle finds the 10-dimensional extension generically
      free, so the value is at most 10 - 4 = 6.

    A value of 4n belongs to the orthogonal group instead:
    ed(N_{O_{4n}}; 2) = 4n.  The lower bound is ed(O_{4n}; 2) = 4n (Reichstein
    2000).  The upper bound comes from the natural representation plus the
    2n-dimensional signed-permutation block, which is generically free of
    dimension 6n for a group of dimension 2n; the oracle confirms it at n = 1.
    """
    if n < 1:
        raise EdtorusError("UNSUPPORTED", "need n >= 1")
    return 3 * n


# -- witnesses for the Sylow cases ----------------------------------------------


@dataclass(frozen=True)
class WitnessResult:
    rep: MonomialRep
    upper_bound: int
    stabilizer: StabilizerReport


def _run_block(case: SlCase) -> RepBlock:
    """Zero-weight block realizing a faithful representation of the Sylow
    factor, of dimension sylow_points / p.

    It has a line per run [kp, kp + p) of the points the factor moves: a
    generator sends the line of the run starting at q to that of the run
    holding perm[q], scaled by zeta_p^(perm[q] mod p).  The factor's p-power
    blocks start at multiples of p, so every element maps runs onto runs by
    rotations, and this is its action on the lines sum_t zeta_p^-t e_(q+t)
    of the permutation module: a representation, and faithful, as only the
    identity fixes each of them."""
    P = case.presentation
    p = case.p
    starts = range(0, case.sylow_points, p)
    perms = []
    coeffs = []
    for perm, _ in P.generators:
        image = [divmod(perm[q], p) for q in starts]
        perms.append(tuple(line for line, _ in image))
        coeffs.append(tuple(power for _, power in sorted(image)))  # each on its image line
    zero = (0,) * P.torus_rank
    return RepBlock(weights=(zero,) * len(starts), gen_perms=tuple(perms), gen_coeffs=tuple(coeffs), modulus=p)


def _restricted_natural_block(case: SlCase) -> RepBlock:
    """The first n - 1 coordinate lines (case c, or n odd), else all n, of the
    defining representation (valid because the case generators fix the rest)."""
    P = case.presentation
    keep = case.n - 1 if (case.label == "c" or case.n % 2 == 1) else case.n
    for perm, _ in P.generators:
        for i in range(keep, P.num_lines):
            if perm[i] != i and (perm[i] < keep or i < keep):
                raise EdtorusError("UNSUPPORTED", "generators do not preserve the split")
    return RepBlock(
        weights=P.weights[:keep],
        gen_perms=tuple(perm[:keep] for perm, _ in P.generators),
        gen_coeffs=tuple(coeff[:keep] for _, coeff in P.generators),
        modulus=P.root_of_unity_exponent,
    )


def upper_witness_sln(n: int, p: int) -> WitnessResult:
    """Explicit p-generically-free representation for the Sylow cases,
    yielding the upper bound floor(n/p) for the essential p-dimension: the
    restricted coordinate block (n - 1 lines, or all n for p = 2 and
    n = 2 mod 4) plus the run block, when the Sylow factor moves a point."""
    case = sln_case(n, p)
    if case.label not in ("c", "d"):
        raise EdtorusError("UNSUPPORTED", "witness construction applies to the Sylow cases only")
    P = case.presentation
    blocks = [_restricted_natural_block(case)]
    if case.sylow_points:
        blocks.append(_run_block(case))
    rep = MonomialRep(presentation=P, blocks=tuple(blocks))
    report = generic_stabilizer(P, rep)
    _require_free(report)
    upper = rep.dim - P.torus_rank
    return WitnessResult(rep=rep, upper_bound=upper, stabilizer=report)


def ed_case_sl(n: int, p: int) -> EdReport:
    """Full report for the SL_n case study."""
    case = sln_case(n, p)
    P = case.presentation
    if case.label in ("a", "b"):
        return essential_p_dimension(P, natural_rep(P))
    if component_group(P).is_abelian():
        # small Sylow factor: the truncated coordinate block is a minimal
        # p-faithful representation and the rank formula applies directly
        vmin = MonomialRep(presentation=P, blocks=(_restricted_natural_block(case),))
        return essential_p_dimension(P, vmin)
    witness = upper_witness_sln(n, p)
    cited = n // p
    # eta's certified lower bound; the witness bounds it above, so no SymRank is searched
    eta_lower = perm_lower_bound(character_lattice_action(P), p).value
    d = P.torus_rank
    ed_upper = witness.upper_bound
    exact = cited if cited == ed_upper else None
    return EdReport(
        dim_group=d,
        eta_lower=eta_lower,
        eta_upper=witness.rep.dim,
        stabilizer_p_rank=witness.stabilizer.p_rank,
        dim_free_rep=witness.rep.dim,
        ed_lower=max(cited, eta_lower - d),
        ed_upper=ed_upper,
        exact=exact,
        hypotheses=EdHypotheses(
            component_abelian=False,
            split_witness=component_group(P).split_witness,
            v_minimal_certified=False,
            eta_certificate=None,
            lower_source="cited" if exact is not None else "interval",
        ),
        notes=(
            f"lower bound {cited} is the recorded sandwich bound for this family",
            "exactness combines a computed generically free witness with a cited lower bound",
        ),
    )


# -- even orthogonal case study ---------------------------------------------------


@dataclass(frozen=True)
class SoCase:
    n: int
    presentation: MonomialGroupPresentation
    h_description: str
    notes: tuple[str, ...]


def so_case(n: int) -> SoCase:
    """Case study inside SO_{4n}: the group N_{SO_4}^n.

    Lines x_1..x_{2n} (weights e_i) and y_1..y_{2n} (weights -e_i).  The
    component group is generated by the n paired sign swaps (x, y exchanged on
    coordinates 2j-1, 2j) and the n simultaneous transpositions, that is
    W(D_2)^n = (Z/2)^(2n), abelian of order 2^(2n).

    At n = 1 this is the full torus normalizer of SO_4.  For n >= 2 it is the
    preimage of W(D_2)^n, the normalizer of the torus in SO_4^n, and not the
    full normalizer of SO_{4n}: a Sylow 2-subgroup of W(D_{2n}) is larger and
    non-abelian (order 64 against 16 at n = 2), so the full normalizer lies
    outside the abelian main theorem and is not computed here.
    """
    if n < 1:
        raise EdtorusError("UNSUPPORTED", "need n >= 1")
    d = 2 * n
    m = 4 * n
    unit = _identity(d)
    zero = (0,) * m
    sign_swaps = [[[a, d + a], [a + 1, d + a + 1]] for a in range(0, d, 2)]
    transpositions = [[[a, a + 1], [d + a, d + a + 1]] for a in range(0, d, 2)]
    P = MonomialGroupPresentation(
        p=2,
        torus_rank=d,
        root_of_unity_exponent=1,
        weights=unit + tuple(tuple(-x for x in w) for w in unit),
        generators=tuple((_product_perm(m, cycles), zero) for cycles in sign_swaps + transpositions),
    )
    if n == 1:
        note = "the full torus normalizer of SO_4: the component group is all of W(D_2), order 4"
    else:
        note = (
            f"N_{{SO_4}}^{n}, not the full torus normalizer of SO_{m}: component group W(D_2)^{n} "
            f"of order {4 ** n}; a Sylow 2-subgroup of W(D_{d}) is larger and non-abelian"
        )
    notes = (note,)
    return SoCase(
        n=n,
        presentation=P,
        h_description="paired sign swaps times disjoint transpositions",
        notes=notes,
    )


def ed_case_so(n: int) -> EdReport:
    """Full report for the SO_{4n} case study; the case notes say which group it is."""
    case = so_case(n)
    P = case.presentation
    return replace(essential_p_dimension(P, natural_rep(P)), notes=case.notes)


# -- tables ---------------------------------------------------------------------


def _table_row(report: EdReport, reference: int, **key) -> dict:
    return {
        **key,
        "ed_exact": report.exact,
        "ed_lower": report.ed_lower,
        "ed_upper": report.ed_upper,
        "closed_form": reference,
        "matches_closed_form": report.exact == reference if report.exact is not None else None,
    }


def table_sl(nmax: int, p: int) -> list[dict]:
    _require_sl_case(nmax, p)  # so an empty table is never an answer
    return [
        _table_row(ed_case_sl(n, p), closed_form_sln(n, p), n=n, p=p, case=sl_case_label(n, p))
        for n in range(2, nmax + 1)
    ]


def table_so(nmax: int) -> list[dict]:
    if nmax < 1:
        raise EdtorusError("UNSUPPORTED", "need n >= 1")
    return [_table_row(ed_case_so(n), closed_form_so(n), n=n) for n in range(1, nmax + 1)]
