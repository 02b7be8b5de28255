"""Generic stabilizers of monomial representations.

For a point with all coordinates nonzero and multiplicatively independent,
the stabilizer splits into a torus part (the kernel of the torus action) and
a set of component classes that can be corrected back onto the point by a
torus element.  The class test is the cycle criterion:

    a class (sigma, c) fixes a generic point up to the torus iff for every
    basis vector u of the saturated kernel K of the transposed weight matrix,
    (i) u is constant on every cycle of sigma, and (ii) <u, c> = 0 in Q/Z,
    that is sum u_i c_i = 0 (mod n) for coefficients c_i/n.

Multiplying the fixed-point equations around a cycle of sigma cancels the
generic coordinates; what remains is exactly the solvability of the torus
correction: condition (i) says the obstruction character is torus-trivial on
the generic part, condition (ii) kills the root-of-unity residue.  The
finite-field module provides the independent brute-force check.

Read line by line, (i) says sigma preserves each line's kernel profile, the
tuple (u_i for u in the basis), and (ii) says c has coset key 0: the key's
terms are exactly the basis rows reduced mod n.  So neither the cycles of
sigma nor a dot product per basis row is formed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .monogrp import (
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    RepRecord,
    check_rep_compatible,
    component_group,
    natural_rep,
)
from .zlat import FiniteAbelianStructure


class StabilizerReport(NamedTuple):
    torus_part: FiniteAbelianStructure
    component_image: tuple[int, ...]  # sorted class indices forming pi(S)
    p_rank: int | None  # None when the representation is not p-faithful
    p_faithful: bool
    p_generically_free: bool

    @property
    def stabilizer_order(self) -> int:
        return self.torus_part.torsion_order * len(self.component_image)

    def require_p_rank(self) -> int:
        if self.p_rank is None:
            raise EdtorusError(
                "NOT_P_FAITHFUL_FOR_RANK",
                "p-rank of the stabilizer is only defined for p-faithful representations",
            )
        return self.p_rank


class Witnessed(NamedTuple):
    ok: bool
    witness: str | None


def _torus_part(P: MonomialGroupPresentation, rec: RepRecord) -> FiniteAbelianStructure:
    """Z^d modulo the weights of the rep, which must span."""
    dec = rec.canon.dec
    if dec.rank < P.torus_rank:
        raise EdtorusError(
            "RANK_DEFICIENT_WEIGHTS",
            "weights span a proper sublattice: the torus stabilizer is infinite",
        )
    return FiniteAbelianStructure(tuple(f for f in dec.invariant_factors if f > 1))


def is_p_faithful(P: MonomialGroupPresentation, R: MonomialRep | None = None) -> Witnessed:
    """Is the kernel of the representation finite of order prime to p?"""
    if R is None:
        R = natural_rep(P)
    rec = check_rep_compatible(P, R)
    dec = rec.canon.dec
    if dec.rank < P.torus_rank:
        return Witnessed(False, "torus kernel is infinite (weights span a proper subspace)")
    index = math.prod(d for d in dec.invariant_factors if d != 0)
    if index % P.p == 0:
        return Witnessed(False, f"mu_{P.p} inside the torus acts trivially (lattice index {index})")
    # a nontrivial class acts trivially when it fixes every line and its
    # coefficients are the action of a torus point
    ident = tuple(range(R.dim))
    identity = component_group(P).identity
    for idx, (perm, coeff) in enumerate(rec.actions):
        if idx != identity and perm == ident and rec.canon.is_torsion_image(coeff):
            return Witnessed(False, f"component class {idx} acts trivially")
    return Witnessed(True, None)


def generic_stabilizer(P: MonomialGroupPresentation, R: MonomialRep | None = None) -> StabilizerReport:
    """Stabilizer of a point in general position, reported exactly."""
    if R is None:
        R = natural_rep(P)
    rec = check_rep_compatible(P, R)
    torus_part = _torus_part(P, rec)
    group = component_group(P)
    # the coset key's rows, the rows of U past the rank for U W V = D the Smith
    # form of the weights, span the saturated kernel of the transposed weights
    rows = rec.canon.rows
    profile = [tuple(u[i] for u in rows) for i in range(R.dim)]
    image = tuple(
        idx
        for idx, (perm, coeff) in enumerate(rec.actions)
        if list(map(profile.__getitem__, perm)) == profile and rec.canon.is_torsion_image(coeff)
    )
    if not group.is_subgroup(image):
        raise EdtorusError("INTERNAL", "cycle criterion must cut out a subgroup")
    faithful = is_p_faithful(P, R)
    prank = group.elementary_rank(image, P.p) if faithful.ok else None
    free = faithful.ok and len(image) == 1
    return StabilizerReport(
        torus_part=torus_part,
        component_image=image,
        p_rank=prank,
        p_faithful=faithful.ok,
        p_generically_free=free,
    )

