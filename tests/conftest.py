"""Shared fixture presentations used across the suite."""

import pytest

from edtorus import monogrp
from edtorus.monogrp import MonomialGroupPresentation


@pytest.fixture
def fresh_caches():
    """Empty the per-presentation caches before the test and again after it,
    so that what it computes, or a patched element cap, stays inside it."""
    cached = (monogrp.validate, monogrp._enumerate_group, monogrp.character_lattice_action)
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
    from edtorus.pipeline import so_case

    return so_case(1).presentation


@pytest.fixture
def negation_lattice():
    from edtorus.symrank import FLattice

    return FLattice(rank=1, matrices=(((1,),), ((-1,),)))
