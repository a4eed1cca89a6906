"""Twisted (semilinear) endomorphisms of a finite-dimensional space.

A map F here is additive and satisfies F(a·v) = tau(a)·F(v) for a fixed
field automorphism tau = Frobenius^i.  Coordinates follow one convention
used everywhere in this package:

    column j of the matrix is the image of the j-th basis vector,
    so F acts on coordinates as  F(v) = A · tau(v)   (tau entrywise).

Under that convention composition twists the *right* factor:
compose(F, G) has matrix A_F · tau_F(A_G) and exponent i_F + i_G (mod d).

The rank of F is the rank of A (tau is bijective, so im F is the column
space of A).  Iterating F can only shrink the image, and the chain of
images stabilizes after at most g = dim V steps; the stable subspace is
the largest F-stable subspace on which F acts bijectively, and its
dimension (the infinity rank) is computed here as rank(F^g), i.e. the
rank of A · tau(A) · tau^2(A) ··· tau^(g-1)(A).  V splits canonically as
that bijective summand, F^g(V) (the last member of `flags.image_flag`),
plus the kernel of F^g (`nil_part`), where F is eventually zero.

`counting.RowKernel` reads `profile` off matrix codes, building no map.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, NamedTuple

from .counting import DEFAULT_BUDGET, check_budget
from .gf import FiniteField, _digits
from .linalg import (
    Matrix,
    Vector,
    frobenius_vector,
    identity_matrix,
    kernel_basis,
    map_entries,
    mat_apply,
    mat_mul,
    rank,
    rref_basis,
)

class RankProfile(NamedTuple):
    r: int  # rank
    s: int  # infinity rank, 0 <= s <= r <= g


class SemilinearMap(namedtuple("SemilinearMap", "mat tau")):
    """A square matrix over GF(q) paired with a Frobenius exponent."""

    __slots__ = ()

    def __new__(cls, mat: Matrix, tau: int):
        if mat.rows != mat.cols:
            raise ValueError("semilinear endomorphism needs a square matrix")
        return super().__new__(cls, mat, tau % mat.ctx.d)

    @property
    def ctx(self) -> FiniteField:
        return self.mat.ctx

    @property
    def g(self) -> int:
        return self.mat.rows

    def __repr__(self) -> str:
        return f"SemilinearMap(tau={self.tau}, mat={self.mat.entries!r})"


def identity_map(ctx: FiniteField, g: int) -> SemilinearMap:
    return SemilinearMap(identity_matrix(ctx, g), 0)


def apply(F: SemilinearMap, v: Vector) -> Vector:
    """F(v) = A · tau(v)."""
    return mat_apply(F.mat, frobenius_vector(F.ctx, v, F.tau))


def compose(F: SemilinearMap, G: SemilinearMap) -> SemilinearMap:
    """F ∘ G; twists by tau_F ∘ tau_G.  `mat_mul` checks field and dimension."""
    return SemilinearMap(mat_mul(F.mat, map_entries(G.mat, F.tau)), F.tau + G.tau)


def power(F: SemilinearMap, n: int) -> SemilinearMap:
    """n-fold composition; F^0 is the identity (untwisted)."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    result = identity_map(F.ctx, F.g)
    for _ in range(n):
        result = compose(F, result)
    return result


def _terminal_matrix(F: SemilinearMap) -> Matrix:
    """Matrix of F^g, computed as the twisted product of g factors."""
    A = F.mat
    product = A
    twisted = A
    for _ in range(F.g - 1):
        twisted = map_entries(twisted, F.tau)
        product = mat_mul(product, twisted)
        if not any(product.entries):
            break  # zero absorbs; remaining factors cannot change it
    return product


def profile(F: SemilinearMap) -> RankProfile:
    """(rank, infinity rank) of F."""
    r = rank(F.mat)
    if r == F.g or r == 0:
        return RankProfile(r, r)  # bijective maps stay bijective; rank-0 maps are zero
    return RankProfile(r, rank(_terminal_matrix(F)))


def nil_part(F: SemilinearMap) -> tuple[Vector, ...]:
    """Canonical basis of ker F^g, the complement where F is eventually zero.

    F^g sends v to M·(twist applied to v), so its kernel is the inverse
    twist of the matrix kernel of M, not that kernel itself; the two only
    coincide when the residual twist g*tau is zero mod d.
    """
    ctx = F.ctx
    back = (-F.g * F.tau) % ctx.d
    vs = [frobenius_vector(ctx, w, back) for w in kernel_basis(_terminal_matrix(F))]
    return rref_basis(ctx, vs)


def matrix_from_code(ctx: FiniteField, g: int, code: int) -> Matrix:
    """Decode a matrix index in [0, q^(g^2)): base-q digits, little-endian,
    fill the entries row-major.  The one check of a code's range."""
    if not 0 <= code < ctx.q ** (g * g):
        raise ValueError(f"matrix code outside [0, q^(g^2)) = [0, {ctx.q}^{g * g})")
    return Matrix(ctx, g, g, tuple(_digits(code, ctx.q, g * g)))


def enumerate_maps(ctx: FiniteField, g: int, tau: int) -> Iterator[SemilinearMap]:
    """All q^(g^2) endomorphisms with the given twist, in matrix-code order;
    BudgetExceeded past DEFAULT_BUDGET."""
    total = check_budget(ctx.q, g, DEFAULT_BUDGET)
    for code in range(total):
        yield SemilinearMap(matrix_from_code(ctx, g, code), tau)
