"""Exact integer-lattice engine.

Smith normal forms, integer kernels, and finite abelian structures.  Every
matrix of the package is a tuple of integer row tuples; `IntMatrix` adds the
column count a Smith form's argument needs.  Everything here is exact: Python
integers (arbitrary precision), no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

Matrix = tuple[tuple[int, ...], ...]  # integer row tuples


class IntMatrix(tuple):
    """Dense integer matrix: a tuple of integer row tuples, with its column
    count `cols`, so that a matrix without rows still has a shape."""

    def __new__(cls, rows, cols: int):
        self = super().__new__(cls, map(tuple, rows))
        if cols < 0 or any(len(r) != cols for r in self):
            raise ValueError(f"every row must have {cols} >= 0 entries")
        self.rows, self.cols = len(self), cols
        return self

    def __getnewargs__(self):  # so that copy and pickle rebuild it through __new__
        return tuple(self), self.cols

    def __eq__(self, other):  # equal rows fix the shape unless there are none
        return isinstance(other, tuple) and tuple.__eq__(self, other) and getattr(other, "cols", self.cols) == self.cols

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self) if self else [()] * self.cols, len(self))


@dataclass(frozen=True)
class SmithDecomposition:
    """U, V unimodular with U * source * V diagonal, its diagonal the
    invariant factors d_1 | d_2 | ... (zeros last)."""

    U: Matrix
    V: Matrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


@dataclass(frozen=True)
class FiniteAbelianStructure:
    """A finite abelian group by its invariant factors (> 1, divisibility chain)."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(f <= 1 for f in self.invariant_factors):
            raise ValueError("invariant factors must exceed 1")

    @property
    def torsion_order(self) -> int:
        return prod(self.invariant_factors)


def _smallest_pivot(a: list[list[int]], k: int, nrows: int, ncols: int):
    """Position of the smallest-absolute nonzero entry in the trailing block.

    Ties are broken scanning rows before columns, which pins down U and V.
    """
    best = None
    for i in range(k, nrows):
        for j in range(k, ncols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(M: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms: U * M * V is diagonal."""
    nrows, ncols = M.rows, M.cols
    a = [list(r) for r in M]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        # row dst += q * row src
        ad, asrc = a[dst], a[src]
        for t in range(ncols):
            ad[t] += q * asrc[t]
        ud, usrc = u[dst], u[src]
        for t in range(nrows):
            ud[t] += q * usrc[t]

    def addmul_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    limit = min(nrows, ncols)
    while k < limit:
        pos = _smallest_pivot(a, k, nrows, ncols)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            if a[k][k] < 0:
                negate_row(k)
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    addmul_row(i, k, -(a[i][k] // pivot))
                    if a[i][k] != 0:
                        dirty = True
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    addmul_col(j, k, -(a[k][j] // pivot))
                    if a[k][j] != 0:
                        dirty = True
            if dirty:
                pos = _smallest_pivot(a, k, nrows, ncols)
                continue
            # column/row k are clear; enforce pivot | trailing block
            culprit = None
            for i in range(k + 1, nrows):
                for j in range(k + 1, ncols):
                    if a[i][j] % pivot != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            addmul_row(k, culprit, 1)
            pos = _smallest_pivot(a, k, nrows, ncols)
        k += 1

    factors = tuple(a[i][i] for i in range(limit))
    return SmithDecomposition(U=tuple(map(tuple, u)), V=tuple(map(tuple, v)), invariant_factors=factors)


def integer_kernel_basis(M: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x : M x = 0}."""
    dec = smith_normal_form(M)
    return list(zip(*dec.V))[dec.rank :]
