"""Exact linear algebra over a finite field.

Vectors are plain tuples of element codes, always coordinates with respect
to one fixed ordered basis of the ambient space.  Matrices store a flat
row-major tuple of codes plus their field; all operations are pure and all
values immutable, so everything is safe to share between workers.

Gaussian elimination is `FiniteField.eliminate`, which takes the
leftmost-nonzero pivot scanning rows top-down; the reduced row echelon
form it produces is the unique Schubert-style normal form of a row space,
which is exactly what the basis-adaptation machinery in `flags` relies on.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import chain

from .gf import FiniteField

Vector = tuple[int, ...]


class Matrix(namedtuple("Matrix", "ctx rows cols entries")):
    """Dense matrix over a finite field; entries row-major element codes."""

    __slots__ = ()

    def __new__(cls, ctx: FiniteField, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix rows and cols must be >= 0, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        return super().__new__(cls, ctx, rows, cols, entries)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list[list[int]]:
        """Mutable row-major copy for elimination routines."""
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]


def matrix_from_rows(ctx: FiniteField, rows, cols: int | None = None) -> Matrix:
    rows = [tuple(r) for r in rows]
    if cols is None:
        if not rows:
            raise ValueError("cols is required for a matrix with no rows")
        cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    flat, q = tuple(chain.from_iterable(rows)), ctx.q
    if any(not 0 <= x < q for x in flat):
        raise ValueError("entry code out of field range")
    return Matrix(ctx, len(rows), cols, flat)


def matrix_from_cols(ctx: FiniteField, cols, rows: int | None = None) -> Matrix:
    return transpose(matrix_from_rows(ctx, cols, rows))


def identity_matrix(ctx: FiniteField, g: int) -> Matrix:
    return Matrix(ctx, g, g, tuple(1 if i == j else 0 for i in range(g) for j in range(g)))


@cache
def standard_basis(g: int) -> tuple[Vector, ...]:
    """Unit coordinate vectors; codes 0/1 are valid in every field.
    Immutable, so one copy per g is shared."""
    return tuple(tuple(1 if i == j else 0 for j in range(g)) for i in range(g))


def transpose(A: Matrix) -> Matrix:
    e = A.entries
    c = A.cols
    return Matrix(A.ctx, c, A.rows, tuple(e[i * c + j] for j in range(c) for i in range(A.rows)))


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A.ctx is not B.ctx and A.ctx != B.ctx:
        raise ValueError("mixed field contexts")
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} times {B.rows}x{B.cols}")
    entries = A.ctx.inner_products(A.entries, A.rows, A.cols, B.entries, B.cols)
    return Matrix(A.ctx, A.rows, B.cols, tuple(entries))


def mat_apply(A: Matrix, v: Vector) -> Vector:
    """A·v for a coordinate column vector v."""
    if len(v) != A.cols:
        raise ValueError(f"vector length {len(v)} vs {A.rows}x{A.cols} matrix")
    return tuple(A.ctx.inner_products(A.entries, A.rows, A.cols, v, 1))


def map_entries(A: Matrix, exponent: int) -> Matrix:
    """Apply the Frobenius power a -> a^(p^exponent) to every entry."""
    if exponent % A.ctx.d == 0:
        return A
    return Matrix(A.ctx, A.rows, A.cols, frobenius_vector(A.ctx, A.entries, exponent))


def frobenius_vector(ctx: FiniteField, v: Vector, exponent: int) -> Vector:
    if exponent % ctx.d == 0:
        return tuple(v)
    table = ctx.frobenius_table(exponent)
    return tuple(table[x] for x in v)


def rank(A: Matrix) -> int:
    return len(A.ctx.eliminate(A.row_list(), reduce_up=False))


def rref(A: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot column indices (0-based).

    Unique normal form: pivot entries 1, pivot columns otherwise 0, pivot
    indices strictly increasing by row, zero rows last.
    """
    rows = A.row_list()
    pivots = A.ctx.eliminate(rows, reduce_up=True)
    flat = tuple(x for row in rows for x in row)
    return Matrix(A.ctx, A.rows, A.cols, flat), tuple(pivots)


def rref_basis(ctx: FiniteField, vectors) -> tuple[Vector, ...]:
    """Canonical basis (nonzero rref rows) of the span of the given vectors.

    Representation-independent: any two spanning sets of the same subspace
    yield the same tuple, so this doubles as a subspace normal form.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return ()
    return _row_basis(ctx, matrix_from_rows(ctx, vectors).row_list())


def _row_basis(ctx: FiniteField, rows) -> tuple[Vector, ...]:
    """`rref_basis` without input checks, for rows of equal length g."""
    rows = [list(r) for r in rows]
    pivots = ctx.eliminate(rows, reduce_up=True)
    return tuple(tuple(r) for r in rows[:len(pivots)])


def span_dim(ctx: FiniteField, vectors) -> int:
    """Dimension of the span of a sequence of coordinate vectors."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return 0
    return rank(matrix_from_rows(ctx, vectors))


def in_span(ctx: FiniteField, vectors, v: Vector) -> bool:
    vectors = [tuple(v_) for v_ in vectors]
    base = span_dim(ctx, vectors)
    return span_dim(ctx, vectors + [tuple(v)]) == base


def kernel_basis(A: Matrix) -> tuple[Vector, ...]:
    """Basis of the right null space {v : A·v = 0}; size cols - rank."""
    ctx = A.ctx
    R, pivots = rref(A)
    pivot_set = set(pivots)
    free = [j for j in range(A.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [0] * A.cols
        v[f] = 1
        for i, pc in enumerate(pivots):
            # pivot row i reads: v[pc] + sum over free j of R[i,j]*v[j] = 0
            v[pc] = ctx.neg(R.at(i, f))
        basis.append(tuple(v))
    return tuple(basis)


def mat_inverse(A: Matrix) -> Matrix:
    if A.rows != A.cols:
        raise ValueError("only square matrices are invertible")
    ctx = A.ctx
    g = A.rows
    aug = [list(A.row(i)) + [1 if j == i else 0 for j in range(g)] for i in range(g)]
    pivots = ctx.eliminate(aug, reduce_up=True)
    if len(pivots) != g or any(p >= g for p in pivots):
        raise ValueError("matrix is singular")
    flat = tuple(x for row in aug for x in row[g:])
    return Matrix(ctx, g, g, flat)
