"""Exact lattice engine: normal forms and torsion structure; the torus coset
key and the p-spanning test against exhaustive references.

Derived expectations are computed by independent oracles inside this module
(gcds of minors, cofactor determinants, coset enumeration, exhaustive
denominator search) and frozen into the asserts.
"""

import copy
import itertools
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edtorus.monogrp import _CoeffCanon
from edtorus.symrank import _span
from edtorus.zlat import (
    FiniteAbelianStructure,
    IntMatrix,
    integer_kernel_basis,
    smith_normal_form,
)

from conftest import smith_product


def det_cofactor(rows):
    """Independent determinant by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def diag(M, dec):
    """The diagonal of U M V; off it, U M V must be zero."""
    D = smith_product(M, dec)
    assert all(x == 0 for i, row in enumerate(D) for j, x in enumerate(row) if i != j)
    return [D[i][i] for i in range(min(M.rows, M.cols))]


small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestSmithNormalForm:
    def test_identity(self):
        M = IntMatrix([[1, 0], [0, 1]], 2)
        dec = smith_normal_form(M)
        assert diag(M, dec) == [1, 1]
        assert dec.invariant_factors == (1, 1)

    def test_2x2_example(self):
        # independent oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = |2*8-4*6| = 8
        M = IntMatrix([[2, 4], [6, 8]], 2)
        entries_gcd = gcd(gcd(2, 4), gcd(6, 8))
        minors_gcd = abs(det_cofactor([[2, 4], [6, 8]]))
        assert (entries_gcd, minors_gcd // entries_gcd) == (2, 4)
        dec = smith_normal_form(M)
        assert diag(M, dec) == [2, 4]

    def test_zero_matrix(self):
        M = IntMatrix([[0]], 1)
        dec = smith_normal_form(M)
        assert diag(M, dec) == [0]
        assert dec.invariant_factors == (0,)

    @settings(max_examples=120)
    @given(small_matrix)
    def test_transform_identity_and_chain(self, rows):
        M = IntMatrix(rows, len(rows[0]))
        dec = smith_normal_form(M)
        # U M V is diagonal, with the invariant factors on its diagonal
        d = diag(M, dec)
        assert tuple(d) == dec.invariant_factors
        assert abs(det_cofactor(dec.U)) == 1
        assert abs(det_cofactor(dec.V)) == 1
        for a, b in zip(d, d[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0

    @settings(max_examples=80)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_factor_product_is_det(self, rows):
        M = IntMatrix(rows, len(rows))
        d = det_cofactor(rows)
        dec = smith_normal_form(M)
        prod = 1
        for f in dec.invariant_factors:
            prod *= f
        assert prod == abs(d)

    def test_determinism(self):
        M = IntMatrix([[6, 4, 2], [2, 8, 10], [4, 2, 0]], 3)
        first = smith_normal_form(M)
        second = smith_normal_form(M)
        assert first == second


class TestCokernel:
    def test_is_trivial(self):
        # a finite abelian group is trivial exactly when no invariant factor is left
        assert FiniteAbelianStructure(invariant_factors=()).torsion_order == 1
        assert FiniteAbelianStructure(invariant_factors=(2, 6)).torsion_order == 12

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            FiniteAbelianStructure(invariant_factors=(4, 2))


class TestSublatticeIndex:
    """p-spanning (index prime to p) is full rank mod p: `symrank._span`."""

    def test_standard_basis(self):
        assert len(_span((), [(1, 0), (0, 1)], 2)) == 2

    def test_index_two(self):
        assert abs(det_cofactor([[1, 1], [1, -1]])) == 2
        assert len(_span((), [(1, 1), (1, -1)], 2)) == 1
        assert len(_span((), [(1, 1), (1, -1)], 3)) == 2

    def test_rank_deficit(self):
        assert len(_span((), [(1, 0)], 2)) == 1

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4
        ),
        st.sampled_from([2, 3, 5]),
    )
    def test_matches_invariant_factor_valuation(self, vecs, p):
        # the p-part of the index is zero exactly when the Smith form has full
        # rank and no invariant factor is divisible by p
        dec = smith_normal_form(IntMatrix(vecs, 2).transpose())
        p_spanning = dec.rank == 2 and all(f % p for f in dec.invariant_factors if f)
        assert (len(_span((), vecs, p)) == 2) == p_spanning


def membership_bruteforce(v, W: IntMatrix) -> bool:
    """Exhaustive oracle: search torus torsion points with denominators
    dividing lcm(denominators of v) times the largest invariant factor.  A
    point t = a / N (N that bound) is tried on the numerators: W a = N v mod N."""
    N = 1
    for x in v:
        den = Fraction(x).denominator
        N = N * den // gcd(N, den)
    factors = [f for f in smith_normal_form(W).invariant_factors if f]
    if factors:
        N *= max(factors)
    target = [int(Fraction(x) * N) % N for x in v]
    for nums in itertools.product(range(N), repeat=W.cols):
        if all(sum(w * a for w, a in zip(row, nums)) % N == y for row, y in zip(W, target)):
            return True
    return False


class TestTorsionMembership:
    """The coset key of `monogrp._CoeffCanon` against the exhaustive search."""

    def test_zero_vector(self):
        W = IntMatrix([[1], [1]], 1)
        assert _CoeffCanon(W, 2).is_torsion_image([0, 0])

    def test_diagonal_half(self):
        W = IntMatrix([[1], [1]], 1)
        assert membership_bruteforce([Fraction(1, 2), Fraction(1, 2)], W)
        assert _CoeffCanon(W, 2).is_torsion_image([1, 1])

    def test_half_zero_not_in_image(self):
        W = IntMatrix([[1], [1]], 1)
        assert not membership_bruteforce([Fraction(1, 2), Fraction(0)], W)
        assert not _CoeffCanon(W, 2).is_torsion_image([1, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 2),
        st.integers(1, 3),
        st.data(),
    )
    def test_agrees_with_bruteforce(self, d, m, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                min_size=m,
                max_size=m,
            )
        )
        dens = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8]), min_size=m, max_size=m))
        nums = data.draw(st.lists(st.integers(0, 7), min_size=m, max_size=m))
        W = IntMatrix(rows, d)
        v = [Fraction(a, b) for a, b in zip(nums, dens)]
        n = 24  # a multiple of every denominator drawn; v_i = c_i / n
        c = [a * (n // b) for a, b in zip(nums, dens)]
        assert _CoeffCanon(W, n).is_torsion_image(c) == membership_bruteforce(v, W)

    def test_three_by_three_grid(self):
        # exhaustive small-denominator sweep at the full allowed shape
        W = IntMatrix([[1, 0, 1], [0, 2, 1], [1, 1, 0]], 3)
        canon = _CoeffCanon(W, 2)
        for nums in itertools.product(range(4), repeat=3):
            v = [Fraction(a, 2) for a in nums]
            assert canon.is_torsion_image(list(nums)) == membership_bruteforce(v, W)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 4), st.data())
    def test_key_separates_cosets(self, d, m, n, data):
        # one key per coset: a and b share a key exactly when (a - b) / n is
        # in the torus image
        rows = data.draw(
            st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=m, max_size=m)
        )
        a, b = (data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)) for _ in range(2))
        W = IntMatrix(rows, d)
        canon = _CoeffCanon(W, n)
        diff = [Fraction(x - y, n) for x, y in zip(a, b)]
        assert (canon.canon(a) == canon.canon(b)) == membership_bruteforce(diff, W)


class TestShape:
    """A matrix without rows, or without columns, keeps its shape."""

    def test_zero_by_three(self):
        M = IntMatrix((), 3)
        assert (M.rows, M.cols) == (0, 3)
        T = M.transpose()
        assert (T, T.rows, T.cols) == (((), (), ()), 3, 0)
        assert (T.transpose(), T.transpose().rows, T.transpose().cols) == ((), 0, 3)
        dec = smith_normal_form(M)
        assert (dec.U, dec.V, dec.invariant_factors) == ((), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ())
        assert integer_kernel_basis(M) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_three_by_zero(self):
        M = IntMatrix([(), (), ()], 0)
        assert (M.rows, M.cols) == (3, 0)
        T = M.transpose()
        assert (T, T.rows, T.cols) == ((), 0, 3)
        assert (T.transpose(), T.transpose().rows, T.transpose().cols) == (((), (), ()), 3, 0)
        dec = smith_normal_form(M)
        assert (dec.U, dec.V, dec.invariant_factors) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (), ())
        assert integer_kernel_basis(M) == []  # the kernel in Z^0

    def test_transpose(self):
        M = IntMatrix([[1, 2, 3], [4, 5, 6]], 3)
        assert (M.transpose(), M.transpose().cols) == (((1, 4), (2, 5), (3, 6)), 2)
        assert M.transpose().transpose() == M == ((1, 2, 3), (4, 5, 6))

    def test_copy_and_pickle_keep_the_shape(self):
        M = IntMatrix((), 3)
        for N in (copy.copy(M), copy.deepcopy(M), pickle.loads(pickle.dumps(M))):
            assert (type(N), N, N.cols) == (IntMatrix, (), 3)

    def test_equality_counts_the_columns(self):
        a, b = IntMatrix((), 3), IntMatrix((), 5)
        assert (a == b, a != b, a == IntMatrix((), 3), a != IntMatrix((), 3)) == (False, True, True, False)
        assert len({a: 3, b: 5}) == 2  # two shapes stay two keys
        M = IntMatrix([[1, 2]], 2)
        assert (M == ((1, 2),), M != ((1, 2),), ((1, 2),) == M, a == ()) == (True, False, True, True)
        assert hash(M) == hash(((1, 2),))

    @pytest.mark.parametrize("rows,cols", [([[1, 2], [3]], 2), ([[1]], 2), ([], -1)], ids=["ragged", "short", "negative"])
    def test_bad_shape_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            IntMatrix(rows, cols)


class TestKernelBasis:
    def test_sum_zero_kernel(self):
        # transpose of the weight rows for three lines summing to zero
        M = IntMatrix([[1, 0, -1], [0, 1, -1]], 3)
        basis = integer_kernel_basis(M)
        assert len(basis) == 1
        u = basis[0]
        assert abs(u[0]) == 1 and u[0] == u[1] == u[2]
