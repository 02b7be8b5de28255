"""Exact essential p-dimension computations for torus extensions.

The package works with presentations of algebraic groups that are extensions
of a finite p-group by a split torus, encoded as a character lattice plus
monomial generators.  It computes generic stabilizers, symmetric p-rank,
minimal p-faithful dimensions, p-generically-free extensions, and the
resulting essential dimension at p, with an independent finite-field oracle
for cross-validation.
"""

from .monogrp import (
    ComponentGroup,
    EdtorusError,
    MonomialGroupPresentation,
    MonomialRep,
    RepBlock,
    character_lattice_action,
    component_group,
    limit_steps,
    natural_rep,
    validate,
)
from .pipeline import (
    EdReport,
    build_generically_free_extension,
    closed_form_sln,
    closed_form_so,
    ed_case_sl,
    ed_case_so,
    essential_p_dimension,
    sln_case,
    so_case,
    upper_witness_sln,
)
from .stab import StabilizerReport, generic_stabilizer, is_p_faithful
from .symrank import FLattice, SymRankResult, eta_bounds, perm_lower_bound, symrank
from .zlat import (
    FiniteAbelianStructure,
    IntMatrix,
    SmithDecomposition,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentGroup",
    "EdReport",
    "EdtorusError",
    "FLattice",
    "FiniteAbelianStructure",
    "IntMatrix",
    "MonomialGroupPresentation",
    "MonomialRep",
    "RepBlock",
    "SmithDecomposition",
    "StabilizerReport",
    "SymRankResult",
    "build_generically_free_extension",
    "character_lattice_action",
    "closed_form_sln",
    "closed_form_so",
    "component_group",
    "ed_case_sl",
    "ed_case_so",
    "essential_p_dimension",
    "eta_bounds",
    "generic_stabilizer",
    "is_p_faithful",
    "limit_steps",
    "natural_rep",
    "perm_lower_bound",
    "smith_normal_form",
    "sln_case",
    "so_case",
    "symrank",
    "upper_witness_sln",
    "validate",
]
