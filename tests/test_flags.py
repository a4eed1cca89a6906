"""Flags and the canonical adapted-basis construction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from semicount.gf import make_field
from semicount.flags import Flag, adapt_to_flag, adapt_to_subspace, image_flag, make_flag
from semicount.linalg import (
    in_span,
    matrix_from_rows,
    rref_basis,
    span_dim,
    standard_basis,
)
from semicount.semilinear import SemilinearMap, enumerate_maps, profile

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


# --- adapt_to_subspace --------------------------------------------------------

def test_adapt_line_example():
    basis, J = adapt_to_subspace(GF2, standard_basis(2), [(1, 1)])
    assert basis == ((0, 1), (1, 1))
    assert J == (0,)


def test_adapt_full_space_is_identity():
    e = standard_basis(3)
    basis, J = adapt_to_subspace(GF3, e, e)
    assert basis == e and J == (0, 1, 2)


def test_adapt_zero_space_is_identity():
    e = standard_basis(3)
    basis, J = adapt_to_subspace(GF3, e, [])
    assert basis == e and J == ()


def test_adapt_output_tail_spans_u():
    e = standard_basis(3)
    u = [(1, 2, 0), (0, 1, 1)]
    basis, J = adapt_to_subspace(GF3, e, u)
    assert len(J) == 2 and span_dim(GF3, list(basis)) == 3
    assert rref_basis(GF3, list(basis[-2:])) == rref_basis(GF3, u)


def test_adapt_errors():
    e = standard_basis(2)
    with pytest.raises(ValueError, match="^flag member basis is linearly dependent$"):
        adapt_to_subspace(GF2, e, [(1, 0), (1, 0)])            # dependent U basis
    with pytest.raises(ValueError):
        adapt_to_subspace(GF2, [(1, 0), (1, 0)], [(1, 1)])     # e not a basis
    with pytest.raises(ValueError):
        adapt_to_subspace(GF2, e, [(5, 0)])                    # code out of range


def test_adapt_at_g_zero():
    assert adapt_to_subspace(GF2, [], []) == ((), ())
    out = adapt_to_flag(GF2, [], make_flag(GF2, 0, [[]]))
    assert out.vectors == () and out.pivot_sets == ()


def test_frozen_tail_keeps_tail():
    # adapt, then adapt again to the same subspace: the new tail lies in U,
    # so it comes back unchanged, and the pivots move to the tail positions
    e = standard_basis(3)
    u = [(1, 1, 0), (0, 0, 1)]
    first, J = adapt_to_subspace(GF3, e, u)
    assert J == (0, 2)
    assert first[-1] == e[-1]  # a tail of e inside U, shorter than dim U, stays too
    again, J2 = adapt_to_subspace(GF3, first, u)
    assert again == first
    assert J2 == (1, 2)


def test_adapt_ignores_u_basis_presentation():
    e = standard_basis(3)
    base = [(1, 0, 2), (0, 1, 1)]
    rng = random.Random(1)
    reference = adapt_to_subspace(GF3, e, base)
    for _ in range(10):
        a = rng.randrange(3)
        # replace a generator by an independent random combination
        gen2 = tuple(GF3.add(GF3.mul(a, x), y) for x, y in zip(base[0], base[1]))
        shuffled = [base[1], gen2] if rng.random() < 0.5 else [gen2, base[0]]
        if span_dim(GF3, shuffled) != 2:
            continue
        assert adapt_to_subspace(GF3, e, shuffled) == reference


def test_adapt_matches_inductive_oracle_gf4():
    basis, J = adapt_to_subspace(GF4, standard_basis(2), [(2, 1)])
    U = helpers.span_set(2, GF4.modulus, [(2, 1)], 2)
    oracle_basis, oracle_J, counts = helpers.direct_adapt(
        2, GF4.modulus, helpers.standard_vectors(2), U, 2)
    assert list(basis) == oracle_basis and list(J) == oracle_J
    assert set(counts.values()) == {1}


# --- flags ----------------------------------------------------------------------

def test_make_flag_canonicalizes_and_validates():
    fl = make_flag(GF2, 2, [[(1, 1)]])
    assert fl.dims == (2, 1)
    assert fl.subspaces[0] == standard_basis(2)
    with pytest.raises(ValueError):
        make_flag(GF2, 3, [[(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]])  # not nested
    with pytest.raises(ValueError):
        make_flag(GF2, 2, [[(1, 0), (0, 1)], [(1, 0), (1, 0)]])   # dependent
    with pytest.raises(ValueError):
        make_flag(GF2, 2, [[(1, 0)], [(1, 0)]])          # dims not decreasing
    with pytest.raises(ValueError, match="ragged rows"):
        make_flag(GF2, 2, [[(1, 0, 0)]])                 # wrong length


@pytest.mark.parametrize("ctx, g", [(GF2, 3), (GF3, 2), (GF4, 2)])
def test_nesting_rule_matches_a_set_oracle(ctx, g):
    # every pair and triple of subspaces, given by independent generators
    subspaces = helpers.all_subspaces(ctx.p, ctx.modulus, g)
    full = frozenset(helpers.to_vec(i, ctx.q, g) for i in range(ctx.q ** g))
    for n in (2, 3):
        for chain in itertools.product(subspaces, repeat=n):
            sets = [S for S, _ in chain]
            if len(sets[0]) < len(full):
                sets.insert(0, full)
            dims = [helpers.set_dim(S, ctx.q) for S in sets]
            if any(d2 >= d1 for d1, d2 in zip(dims, dims[1:])):
                expected = f"flag dimensions must strictly decrease, got {dims}"
            elif not all(lower <= upper for upper, lower in zip(sets, sets[1:])):
                expected = "flag members are not nested"
            else:
                expected = None
            try:
                flag = make_flag(ctx, g, [gens for _, gens in chain])
            except ValueError as exc:
                assert str(exc) == expected, chain
                continue
            assert expected is None, chain
            assert [helpers.span_set(ctx.p, ctx.modulus, m, g) for m in flag.subspaces] == sets


def test_make_flag_validates_each_member_once(monkeypatch):
    import semicount.flags
    import semicount.linalg
    rng, g = random.Random(6), 6
    rows = [tuple(rng.randrange(3) for _ in range(g)) for _ in range(g)]
    while span_dim(GF3, rows) < g:
        rows[rng.randrange(g)] = tuple(rng.randrange(3) for _ in range(g))
    calls = []
    real = semicount.linalg.matrix_from_rows

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    for module in (semicount.flags, semicount.linalg):
        monkeypatch.setattr(module, "matrix_from_rows", counted)
    flag = make_flag(GF3, g, [rows[k:] for k in range(g + 1)])
    assert flag.dims == (6, 5, 4, 3, 2, 1, 0)
    assert calls == [6, 5, 4, 3, 2, 1, 0]


def test_adapt_to_flag_checks_only_its_basis(monkeypatch):
    import semicount.flags
    import semicount.gf
    import semicount.linalg
    rng, g = random.Random(7), 8
    ctx = make_field(2, 3)

    def random_basis():
        rows = [tuple(rng.randrange(ctx.q) for _ in range(g)) for _ in range(g)]
        return rows if span_dim(ctx, rows) == g else random_basis()

    e, C = random_basis(), random_basis()
    flag = make_flag(ctx, g, [C[k:] for k in range(1, g + 1)])
    expected = adapt_to_flag(ctx, e, flag)
    calls = []

    def counted(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for module in (semicount.flags, semicount.linalg):
        monkeypatch.setattr(module, "matrix_from_rows",
                            counted("matrix_from_rows", semicount.linalg.matrix_from_rows))
    monkeypatch.setattr(semicount.linalg, "rank", counted("rank", semicount.linalg.rank))
    monkeypatch.setattr(semicount.gf.FiniteField, "inner_products", counted(
        "inner_products", semicount.gf.FiniteField.inner_products))
    assert adapt_to_flag(ctx, e, flag) == expected
    # the basis once; one product per proper member (g of them) and one back
    assert sorted(calls) == ["inner_products"] * (g + 1) + ["matrix_from_rows"]


def test_flag_equality_is_subspace_equality():
    a = make_flag(GF3, 2, [[(1, 2)]])
    b = make_flag(GF3, 2, [[(2, 1)]])                    # same line, scaled
    assert a == b


def test_adapt_to_flag_trivial():
    fl = make_flag(GF2, 2, [[]])                         # V > 0
    out = adapt_to_flag(GF2, standard_basis(2), fl)
    assert out.vectors == standard_basis(2)
    assert out.pivot_sets == ((),)


def test_adapt_to_flag_refuses_a_flag_of_another_dimension():
    for g in (1, 3):                                     # no member vector to catch it
        with pytest.raises(ValueError, match="ragged rows"):
            adapt_to_flag(GF2, standard_basis(2), make_flag(GF2, g, [[]]))


def test_adapt_to_flag_line_examples():
    fl = make_flag(GF2, 2, [[(1, 0)], []])
    out = adapt_to_flag(GF2, standard_basis(2), fl)
    assert out.vectors == ((0, 1), (1, 0))
    fl2 = make_flag(GF2, 2, [[(1, 1)], []])
    out2 = adapt_to_flag(GF2, standard_basis(2), fl2)
    assert out2.vectors == ((0, 1), (1, 1))


def test_adapted_basis_invariant_for_every_member():
    fl = make_flag(GF3, 4, [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
        [(1, 1, 0, 0), (0, 0, 1, 0)],
        [(1, 1, 0, 0)],
    ])
    out = adapt_to_flag(GF3, standard_basis(4), fl)
    assert span_dim(GF3, list(out.vectors)) == 4
    for member in fl.subspaces:
        d = len(member)
        tail = list(out.vectors[4 - d:])
        assert span_dim(GF3, tail) == d
        assert all(in_span(GF3, list(member), v) for v in tail)
    assert len(out.pivot_sets) == 3


def test_adapt_to_flag_unique_vs_rerun():
    fl = make_flag(GF2, 3, [[(1, 1, 0), (0, 0, 1)], [(0, 0, 1)]])
    a = adapt_to_flag(GF2, standard_basis(3), fl)
    b = adapt_to_flag(GF2, standard_basis(3), make_flag(
        GF2, 3, [[(1, 1, 1), (1, 1, 0)], [(0, 0, 1)]]))  # same flag, other generators
    assert a == b


# --- image flags -------------------------------------------------------------------

def test_image_flag_examples():
    inv = SemilinearMap(matrix_from_rows(GF2, [(0, 1), (1, 1)]), 0)
    assert image_flag(inv).dims == (2,)
    zero = SemilinearMap(matrix_from_rows(GF2, [(0, 0), (0, 0)]), 0)
    assert image_flag(zero).dims == (2, 0)
    nilp = SemilinearMap(matrix_from_rows(GF2, [(0, 1), (0, 0)]), 0)
    fl = image_flag(nilp)
    assert fl.dims == (2, 1, 0)
    assert fl.subspaces[1] == ((1, 0),)


def test_image_flag_endpoints_are_the_rank_invariants():
    for ctx, g, tau in [(GF2, 3, 0), (GF4, 2, 1)]:
        for F in enumerate_maps(ctx, g, tau):
            dims = image_flag(F).dims
            r, s = profile(F)
            assert dims[0] == g
            if len(dims) > 1:
                assert dims[1] == r
            assert dims[-1] == s
            assert all(a > b for a, b in zip(dims, dims[1:]))


# --- randomized oracle comparison -----------------------------------------------

@st.composite
def subspace_case(draw):
    p, d = draw(st.sampled_from([(2, 1), (3, 1)]))
    ctx = make_field(p, d)
    g = draw(st.integers(1, 3))
    n_gens = draw(st.integers(0, g))
    gens = [
        tuple(draw(st.integers(0, ctx.q - 1)) for _ in range(g))
        for _ in range(n_gens)
    ]
    return ctx, g, gens


@settings(max_examples=80, deadline=None)
@given(subspace_case())
def test_property_adapt_matches_inductive_oracle(case):
    ctx, g, gens = case
    u_basis = rref_basis(ctx, gens)
    basis, J = adapt_to_subspace(ctx, standard_basis(g), list(u_basis))
    U = helpers.span_set(ctx.p, ctx.modulus, gens, g)
    oracle_basis, oracle_J, counts = helpers.direct_adapt(
        ctx.p, ctx.modulus, helpers.standard_vectors(g), U, g)
    assert list(J) == oracle_J
    assert list(basis) == oracle_basis
    assert all(n == 1 for n in counts.values())


@settings(max_examples=60, deadline=None)
@given(subspace_case())
def test_property_adapted_tail_is_idempotent(case):
    ctx, g, gens = case
    u_basis = list(rref_basis(ctx, gens))
    basis, _ = adapt_to_subspace(ctx, standard_basis(g), u_basis)
    m = len(u_basis)
    again, J2 = adapt_to_subspace(ctx, basis, u_basis)
    assert again == basis
    if m:
        assert J2 == tuple(range(g - m, g))


@st.composite
def flag_case(draw):
    """A random basis e and a random chain of two or three proper members."""
    p = draw(st.sampled_from([2, 3]))
    ctx = make_field(p, 1)
    g = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(0, p - 1)] * g)
    e = draw(st.lists(vec, min_size=g, max_size=g).filter(
        lambda vs: span_dim(ctx, vs) == g))
    # members are spans of leading runs of another random basis
    b = draw(st.lists(vec, min_size=g, max_size=g).filter(
        lambda vs: span_dim(ctx, vs) == g))
    dims = draw(st.lists(st.integers(0, g - 1), min_size=2, max_size=3, unique=True))
    members = [b[:k] for k in sorted(dims, reverse=True)]
    return ctx, g, e, members


@settings(max_examples=60, deadline=None)
@given(flag_case())
def test_property_adapt_to_flag_matches_oracle_member_by_member(case):
    ctx, g, e, members = case
    flag = make_flag(ctx, g, members)
    out = adapt_to_flag(ctx, e, flag)
    basis, pivot_sets = list(e), []
    for member in reversed(flag.subspaces[1:]):
        U = helpers.span_set(ctx.p, ctx.modulus, member, g)
        basis, J, counts = helpers.direct_adapt(ctx.p, ctx.modulus, basis, U, g)
        assert set(counts.values()) <= {1}
        pivot_sets.insert(0, tuple(J))
    assert list(out.vectors) == basis
    assert out.pivot_sets == tuple(pivot_sets)


def test_adapt_rejects_a_chain_that_is_not_nested():
    e = standard_basis(3)
    unnested = Flag(GF2, 3, (e, ((1, 0, 0), (0, 1, 0)), ((0, 0, 1),)))
    with pytest.raises(ValueError):
        adapt_to_flag(GF2, e, unnested)
