"""Exact integer-lattice engine.

Smith normal forms, integer kernels, and finite abelian structures.
Everything here is exact: Python integers (arbitrary precision), no
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major storage, arbitrary precision entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must equal rows*cols")

    @staticmethod
    def from_rows(rows_data) -> "IntMatrix":
        rows = list(rows_data)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in r)
        return IntMatrix(nrows, ncols, tuple(flat))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )


@dataclass(frozen=True)
class SmithDecomposition:
    """U, V unimodular with U * source * V diagonal, its diagonal the
    invariant factors d_1 | d_2 | ... (zeros last)."""

    U: IntMatrix
    V: IntMatrix
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
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


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
    a = M.to_rows()
    u = IntMatrix.identity(nrows).to_rows()
    v = IntMatrix.identity(ncols).to_rows()

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

    U = IntMatrix.from_rows(u) if nrows else IntMatrix(0, 0, ())
    V = IntMatrix.from_rows(v) if ncols else IntMatrix(0, 0, ())
    factors = tuple(a[i][i] for i in range(limit)) if limit else ()
    return SmithDecomposition(U=U, V=V, invariant_factors=factors)


def integer_kernel_basis(M: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x : M x = 0}."""
    dec = smith_normal_form(M)
    r = dec.rank
    return [dec.V.column(j) for j in range(r, M.cols)]
