"""Exact linear algebra: products, elimination, normal forms."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from semicount.gf import make_field
from semicount.linalg import (
    Matrix,
    identity_matrix,
    in_span,
    kernel_basis,
    map_entries,
    mat_apply,
    mat_inverse,
    mat_mul,
    matrix_from_cols,
    matrix_from_rows,
    rank,
    rref,
    rref_basis,
    span_dim,
    standard_basis,
    transpose,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


def all_matrices(ctx, nrows, ncols):
    for entries in itertools.product(range(ctx.q), repeat=nrows * ncols):
        yield Matrix(ctx, nrows, ncols, entries)


# --- products ----------------------------------------------------------------

def test_identity_times_A():
    A = matrix_from_rows(GF3, [(1, 2), (0, 2)])
    assert mat_mul(identity_matrix(GF3, 2), A) == A
    assert mat_mul(A, identity_matrix(GF3, 2)) == A


def test_nilpotent_square_is_zero():
    N = matrix_from_rows(GF2, [(0, 1), (0, 0)])
    assert mat_mul(N, N) == Matrix(GF2, 2, 2, (0,) * 4)


def test_map_entries_frobenius():
    A = matrix_from_rows(GF4, [(2,)])
    assert map_entries(A, 1) == matrix_from_rows(GF4, [(3,)])
    assert map_entries(A, 0) is A
    assert map_entries(map_entries(A, 1), 1) == A


def test_mat_mul_agrees_with_oracle_gf4():
    # cross-check the table-driven hot path against digit arithmetic
    mod = GF4.modulus
    for A in all_matrices(GF4, 2, 2):
        B = matrix_from_rows(GF4, [(1, 2), (3, 1)])
        C = mat_mul(A, B)
        for i in range(2):
            for j in range(2):
                acc = 0
                for t in range(2):
                    acc = helpers.f_add(2, 2, acc, helpers.f_mul(2, mod, A.at(i, t), B.at(t, j)))
                assert C.at(i, j) == acc


@pytest.mark.parametrize("n,m,k", [(2, 3, 2), (3, 1, 3), (1, 4, 1), (2, 0, 2), (0, 2, 3)])
def test_products_agree_with_oracle_gf9(n, m, k):
    # odd characteristic: every sum in the inner product goes through Zech
    ctx = make_field(3, 2)
    mod = ctx.modulus
    entries = [(5 * i + 7) % 9 for i in range(n * m + m * k)]
    A = Matrix(ctx, n, m, tuple(entries[:n * m]))
    B = Matrix(ctx, m, k, tuple(entries[n * m:]))
    expect = []
    for i in range(n):
        for j in range(k):
            acc = 0
            for t in range(m):
                acc = helpers.f_add(3, 2, acc, helpers.f_mul(3, mod, A.at(i, t), B.at(t, j)))
            expect.append(acc)
    assert mat_mul(A, B).entries == tuple(expect)
    for j in range(k):
        assert mat_apply(A, B.entries[j::B.cols]) == tuple(expect[j::k])


def test_mat_apply_matches_column_combination():
    A = matrix_from_rows(GF3, [(1, 2, 0), (0, 1, 1), (2, 0, 1)])
    v = (1, 2, 1)
    expect = (0,) * 3
    for c, col in zip(v, (A.entries[j::A.cols] for j in range(3))):
        expect = tuple(GF3.add(x, GF3.mul(c, y)) for x, y in zip(expect, col))
    assert mat_apply(A, v) == expect


def test_dimension_mismatch_errors():
    A = matrix_from_rows(GF2, [(1, 0)])
    with pytest.raises(ValueError):
        mat_mul(A, A)
    with pytest.raises(ValueError):
        mat_apply(A, (1, 0, 1))
    with pytest.raises(ValueError):
        mat_mul(A, matrix_from_rows(GF3, [(1,), (0,)]))
    with pytest.raises(ValueError, match=r"^2x2 matrix needs 4 entries, got 3$"):
        Matrix(GF2, 2, 2, (0, 0, 0))
    with pytest.raises(ValueError, match="^only square matrices are invertible$"):
        mat_inverse(A)


def test_matrix_refuses_negative_dimensions():
    # rows * cols alone would let a -2x-3 matrix hold six entries and a -1x0 one none
    for rows, cols in [(-2, -3), (-1, -1), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match=f"^matrix rows and cols must be >= 0, got {rows}x{cols}$"):
            Matrix(GF2, rows, cols, (0,) * (rows * cols))


# --- rank / rref ---------------------------------------------------------------

def test_rank_known_values():
    assert rank(Matrix(GF2, 3, 2, (0,) * 6)) == 0
    assert rank(identity_matrix(GF4, 3)) == 3
    assert rank(matrix_from_rows(GF2, [(1, 1), (1, 1)])) == 1


def test_rref_known_values():
    I = identity_matrix(GF3, 3)
    assert rref(I) == (I, (0, 1, 2))
    Z = Matrix(GF3, 2, 2, (0,) * 4)
    assert rref(Z) == (Z, ())
    R, piv = rref(matrix_from_rows(GF2, [(1, 1), (1, 1)]))
    assert R == matrix_from_rows(GF2, [(1, 1), (0, 0)]) and piv == (0,)


def test_rref_normal_form_shape():
    # pivots 1, pivot columns otherwise 0, pivots strictly increasing, zero rows last
    for A in all_matrices(GF3, 2, 3):
        R, piv = rref(A)
        assert list(piv) == sorted(piv)
        assert len(piv) == rank(A)
        for i, pc in enumerate(piv):
            assert R.at(i, pc) == 1
            assert all(R.at(k, pc) == 0 for k in range(R.rows) if k != i)
            assert all(R.at(i, c) == 0 for c in range(pc))
        for i in range(len(piv), R.rows):
            assert all(R.at(i, c) == 0 for c in range(R.cols))


def test_rref_idempotent_exhaustive_gf2():
    for A in all_matrices(GF2, 3, 3):
        R, piv = rref(A)
        assert rref(R) == (R, piv)


def test_rank_equals_transpose_rank():
    # exhaustive where the space is tiny, seeded samples past that
    for A in all_matrices(GF2, 3, 3):
        assert rank(A) == rank(transpose(A))
    for A in all_matrices(GF3, 2, 3):
        assert rank(A) == rank(transpose(A))
    for A in all_matrices(GF4, 2, 2):
        assert rank(A) == rank(transpose(A))
    import random
    rng = random.Random(0)
    for _ in range(300):
        entries = tuple(rng.randrange(4) for _ in range(9))
        A = Matrix(GF4, 3, 3, entries)
        assert rank(A) == rank(transpose(A))


def test_rank_preserved_by_entrywise_automorphism():
    for A in all_matrices(GF4, 2, 2):
        assert rank(map_entries(A, 1)) == rank(A)


# --- kernel / inverse ------------------------------------------------------------

def test_kernel_known_values():
    assert kernel_basis(identity_matrix(GF2, 2)) == ()
    assert kernel_basis(matrix_from_rows(GF2, [(0, 1), (0, 0)])) == ((1, 0),)
    A = matrix_from_rows(GF3, [(2, 0), (0, 1)])
    assert mat_inverse(A) == matrix_from_rows(GF3, [(2, 0), (0, 1)])


def test_kernel_vectors_annihilate_exhaustive():
    for A in all_matrices(GF3, 2, 3):
        ker = kernel_basis(A)
        assert len(ker) == A.cols - rank(A)          # rank-nullity
        for v in ker:
            assert mat_apply(A, v) == (0, 0)
        assert span_dim(GF3, list(ker)) == len(ker)


def test_inverse_properties():
    count = 0
    for A in all_matrices(GF3, 2, 2):
        if rank(A) == 2:
            count += 1
            Ainv = mat_inverse(A)
            assert mat_mul(A, Ainv) == identity_matrix(GF3, 2)
            assert mat_mul(Ainv, A) == identity_matrix(GF3, 2)
        else:
            with pytest.raises(ValueError):
                mat_inverse(A)
    assert count == 48                               # order of the 2x2 general linear group over GF(3)


# --- spans -------------------------------------------------------------------------

def test_span_dim_known_values():
    assert span_dim(GF2, []) == 0
    assert span_dim(GF2, [(1, 0), (0, 0)]) == 1
    assert span_dim(GF2, [(1, 0), (0, 1), (1, 1)]) == 2


def test_in_span_and_canonical_basis():
    vs = [(1, 1, 0), (0, 1, 1)]
    assert in_span(GF2, vs, (1, 0, 1))
    assert not in_span(GF2, vs, (0, 0, 1))
    # the span of no vectors is {0}
    assert in_span(GF2, [], (0, 0, 0)) and not in_span(GF2, [], (0, 1, 0))
    basis = rref_basis(GF2, vs + [(1, 0, 1)])
    assert len(basis) == 2
    # canonical: same subspace, any generating set, same basis
    assert rref_basis(GF2, [(1, 0, 1), (1, 1, 0)]) == basis


def test_span_dim_agrees_with_set_oracle():
    mod = GF3.modulus
    vecs = [helpers.to_vec(i, 3, 2) for i in range(9)]
    for a in vecs:
        for b in vecs:
            S = helpers.span_set(3, mod, [a, b], 2)
            assert span_dim(GF3, [a, b]) == helpers.set_dim(S, 3)


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix_from_rows(GF2, [(1, 0), (1,)])        # ragged
    with pytest.raises(ValueError):
        matrix_from_rows(GF2, [(2, 0)])              # code out of range
    with pytest.raises(ValueError):
        matrix_from_rows(GF2, [], None)              # unknown width


# --- hypothesis ---------------------------------------------------------------------

small_field = st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])


@st.composite
def field_and_matrix(draw, max_dim=3):
    p, d = draw(small_field)
    ctx = make_field(p, d)
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(0, ctx.q - 1),
                            min_size=nrows * ncols, max_size=nrows * ncols))
    return ctx, Matrix(ctx, nrows, ncols, tuple(entries))


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_property_rref_is_idempotent_projection(fm):
    ctx, A = fm
    R, piv = rref(A)
    assert rref(R) == (R, piv)
    assert len(piv) == rank(A) <= min(A.rows, A.cols)


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_property_rank_nullity(fm):
    ctx, A = fm
    ker = kernel_basis(A)
    assert rank(A) + len(ker) == A.cols
    zero = (0,) * A.rows
    assert all(mat_apply(A, v) == zero for v in ker)


@settings(max_examples=100, deadline=None)
@given(field_and_matrix(max_dim=2), st.data())
def test_property_product_rank_bound(fm, data):
    ctx, A = fm
    entries = data.draw(st.lists(st.integers(0, ctx.q - 1),
                                 min_size=A.cols * 2, max_size=A.cols * 2))
    B = Matrix(ctx, A.cols, 2, tuple(entries))
    C = mat_mul(A, B)
    assert C.rows == A.rows and C.cols == 2
    assert rank(C) <= min(rank(A), rank(B))


@settings(max_examples=100, deadline=None)
@given(field_and_matrix())
def test_property_transpose_involution(fm):
    _, A = fm
    assert transpose(transpose(A)) == A
    assert rank(transpose(A)) == rank(A)
