"""Twisted endomorphisms: action, composition, rank invariants."""

import random
from collections import Counter

import pytest

import helpers
from semicount.counting import CHUNK_CODES
from semicount.flags import image_flag
from semicount.gf import make_field
from semicount.linalg import (
    Matrix,
    frobenius_vector,
    identity_matrix,
    in_span,
    mat_mul,
    matrix_from_rows,
    rank,
    span_dim,
    standard_basis,
)
from semicount.semilinear import (
    BudgetExceeded,
    RowKernel,
    SemilinearMap,
    apply,
    compose,
    enumerate_maps,
    identity_map,
    matrix_from_code,
    nil_part,
    power,
    profile,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF5 = make_field(5, 1)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2)

NILP = SemilinearMap(matrix_from_rows(GF2, [(0, 1), (0, 0)]), 0)


def all_vectors(ctx, g):
    return [helpers.to_vec(i, ctx.q, g) for i in range(ctx.q ** g)]


# --- apply -------------------------------------------------------------------

def test_apply_known_values():
    F = identity_map(GF3, 2)
    assert all(apply(F, v) == v for v in all_vectors(GF3, 2))
    twisted = SemilinearMap(matrix_from_rows(GF4, [(1,)]), 1)
    assert apply(twisted, (2,)) == (3,)
    assert apply(NILP, (0, 0)) == (0, 0)


def test_apply_columns_are_basis_images():
    A = matrix_from_rows(GF4, [(1, 2), (3, 0)])
    F = SemilinearMap(A, 1)
    for j, e in enumerate(standard_basis(2)):
        assert apply(F, e) == A.entries[j::A.cols]   # frobenius fixes 0 and 1


def test_semilinearity_axiom_exhaustive_gf3():
    for F in enumerate_maps(GF3, 2, 0):
        for alpha in range(3):
            for v in all_vectors(GF3, 2):
                av = tuple(GF3.mul(alpha, x) for x in v)
                lhs = apply(F, av)
                rhs = tuple(GF3.mul(GF3.frobenius_table(F.tau)[alpha], x) for x in apply(F, v))
                assert lhs == rhs


def test_apply_agrees_with_oracle():
    mod = GF4.modulus
    for code in range(0, 256, 7):
        A = matrix_from_code(GF4, 2, code)
        for tau in (0, 1):
            F = SemilinearMap(A, tau)
            for v in all_vectors(GF4, 2):
                assert apply(F, v) == helpers.apply_map(2, mod, A.row_list(), tau, v)


# --- compose / power ------------------------------------------------------------

def test_compose_known_values():
    F = SemilinearMap(matrix_from_rows(GF3, [(1, 2), (0, 1)]), 0)
    assert compose(F, identity_map(GF3, 2)) == F
    assert compose(identity_map(GF3, 2), F) == F
    # linear case is the plain matrix product
    G = SemilinearMap(matrix_from_rows(GF3, [(2, 0), (1, 1)]), 0)
    assert compose(F, G).mat == mat_mul(F.mat, G.mat)
    # order-2 twisted map: x -> x * x^2 = x^3 = 1
    H = SemilinearMap(matrix_from_rows(GF4, [(2,)]), 1)
    assert compose(H, H) == identity_map(GF4, 1)


def test_compose_agrees_pointwise_exhaustive_gf2():
    maps = list(enumerate_maps(GF2, 2, 0))
    vs = all_vectors(GF2, 2)
    for F in maps:
        for G in maps:
            FG = compose(F, G)
            assert all(apply(FG, v) == apply(F, apply(G, v)) for v in vs)


def test_compose_twist_exponents_add():
    gf8 = make_field(2, 3)
    F = SemilinearMap(identity_matrix(gf8, 1), 2)
    G = SemilinearMap(identity_matrix(gf8, 1), 2)
    assert compose(F, G).tau == 1            # 2 + 2 mod 3


def test_power_known_values():
    with pytest.raises(ValueError, match="^negative powers are not defined$"):
        power(NILP, -1)
    assert power(NILP, 0) == identity_map(GF2, 2)
    assert power(NILP, 1) == NILP
    assert power(NILP, 2).mat == Matrix(GF2, 2, 2, (0,) * 4)
    H = SemilinearMap(matrix_from_rows(GF4, [(2,)]), 1)
    assert power(H, 2) == identity_map(GF4, 1)
    assert power(H, 3) == H


def test_mixed_context_errors():
    with pytest.raises(ValueError):
        compose(identity_map(GF2, 2), identity_map(GF3, 2))
    with pytest.raises(ValueError):
        compose(identity_map(GF2, 2), identity_map(GF2, 3))


# --- rank, stable rank, decomposition -----------------------------------------

def test_profile_known_values():
    zero = SemilinearMap(Matrix(GF2, 2, 2, (0,) * 4), 0)
    assert profile(zero) == (0, 0)
    assert profile(identity_map(GF4, 3)) == (3, 3)
    assert profile(NILP) == (1, 0)


def test_profile_agrees_with_set_oracle_exhaustive():
    cases = [(GF2, 2, [0]), (GF3, 2, [0]), (GF4, 2, [0, 1]), (GF2, 3, [0])]
    for ctx, g, taus in cases:
        mod = ctx.modulus
        for tau in taus:
            for F in enumerate_maps(ctx, g, tau):
                naive = helpers.naive_profile(ctx.p, mod, F.mat.row_list(), tau, g)
                assert tuple(profile(F)) == naive


def test_rank_power_stabilizes_at_g():
    for ctx, g, tau in [(GF2, 3, 0), (GF4, 2, 1)]:
        for F in enumerate_maps(ctx, g, tau):
            ranks = [rank(power(F, n).mat) for n in range(2 * g + 1)]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))
            assert len({ranks[n] for n in range(g, 2 * g + 1)}) == 1
            assert profile(F).s == ranks[g]


def test_decomposition_known_values():
    inv = SemilinearMap(matrix_from_rows(GF2, [(0, 1), (1, 1)]), 0)
    assert span_dim(GF2, list(image_flag(inv).subspaces[-1])) == 2
    assert nil_part(inv) == ()
    assert image_flag(NILP).subspaces[-1] == ()
    assert span_dim(GF2, list(nil_part(NILP))) == 2
    proj = SemilinearMap(matrix_from_rows(GF2, [(1, 0), (0, 0)]), 0)
    assert image_flag(proj).subspaces[-1] == ((1, 0),)
    assert nil_part(proj) == ((0, 1),)


def test_decomposition_direct_sum_exhaustive():
    # GF(8) at g = 2 exercises a nonzero residual twist g*tau mod d, where
    # the matrix kernel of F^g and the honest kernel of F^g differ
    cases = [(GF2, 2, 0), (GF3, 2, 0), (GF4, 2, 1), (GF2, 3, 0),
             (GF8, 2, 1), (GF8, 2, 2)]
    for ctx, g, tau in cases:
        zero = (0,) * g
        for F in enumerate_maps(ctx, g, tau):
            bij = list(image_flag(F).subspaces[-1])
            nil = list(nil_part(F))
            s = profile(F).s
            assert len(bij) == s and len(nil) == g - s
            assert span_dim(ctx, bij + nil) == g
            # F restricted to the terminal image is onto it
            images = [apply(F, v) for v in bij]
            assert span_dim(ctx, images) == s
            assert all(in_span(ctx, bij, w) for w in images)
            # and the complement really is annihilated by F^g
            Fg = power(F, g)
            assert all(apply(Fg, v) == zero for v in nil)


def test_nil_part_untwists_the_kernel():
    # frozen case: kernel of the matrix of F^2 equals the image here, yet
    # the honest kernel is a genuine complement
    F = SemilinearMap(matrix_from_rows(GF8, [(7, 4), (3, 1)]), 2)
    assert image_flag(F).subspaces[-1] == ((1, 7),)
    assert nil_part(F) == ((1, 5),)
    assert apply(power(F, 2), (1, 5)) == (0, 0)


def test_terminal_image_is_maximal_bijective_subspace():
    # scan every subspace; none larger than the stable rank is F-stable
    # with F bijective on it
    mod = GF2.modulus
    for g in (1, 2, 3):
        subs = helpers.all_subspaces(2, mod, g)
        for F in enumerate_maps(GF2, g, 0):
            s = profile(F).s
            rows = F.mat.row_list()
            for sub, _ in subs:
                img = helpers.image_set(2, mod, rows, 0, sub)
                if img == sub:               # F-stable and onto, hence bijective
                    assert helpers.set_dim(sub, 2) <= s


# --- enumeration ------------------------------------------------------------------

def test_enumeration_counts_and_codes():
    assert len(list(enumerate_maps(GF2, 1, 0))) == 2
    maps = list(enumerate_maps(GF2, 2, 0))
    assert len(maps) == 16
    assert len({helpers.from_digits(F.mat.entries, 2) for F in maps}) == 16
    twisted = list(enumerate_maps(GF4, 1, 1))
    assert len(twisted) == 4
    assert all(F.tau == 1 for F in twisted)
    for code in (0, 5, 255):
        assert helpers.from_digits(matrix_from_code(GF4, 2, code).entries, 4) == code


def test_matrix_from_code_refuses_codes_out_of_range():
    # -1 read as all-ones digits and 16 as all zeros before the check
    for code in (-1, 2 ** 4):
        with pytest.raises(ValueError, match=r"matrix code outside .* = \[0, 2\^4\)"):
            matrix_from_code(GF2, 2, code)
    # g = -1 passes the range check, q^((-1)^2) = 2, so the Matrix must refuse it
    with pytest.raises(ValueError, match="^matrix rows and cols must be >= 0, got -1x-1$"):
        matrix_from_code(GF2, -1, 1)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_maps(GF4, 3, 0, budget=1000))


def test_tau_normalized_mod_d():
    F = SemilinearMap(identity_matrix(GF4, 1), 3)
    assert F.tau == 1
    assert SemilinearMap(identity_matrix(GF2, 2), 5).tau == 0


# --- row-code enumeration kernel ---------------------------------------------------

def _kernel_agrees_with_profile(ctx, g, tau, codes):
    kernel = RowKernel(ctx, g, tau)
    for code in codes:
        F = SemilinearMap(matrix_from_code(ctx, g, code), tau)
        assert kernel.tally(code, code + 1) == {tuple(profile(F)): 1}, (ctx, g, tau, code)


@pytest.mark.parametrize("ctx, g, tau", [
    (GF2, 0, 0), (GF2, 1, 0), (GF2, 2, 0), (GF2, 3, 0), (GF3, 2, 0),
    (GF4, 2, 0), (GF4, 2, 1), (GF8, 2, 0), (GF8, 2, 1), (GF8, 2, 2), (GF9, 2, 1),
])
def test_row_kernel_matches_profile_exhaustive(ctx, g, tau):
    _kernel_agrees_with_profile(ctx, g, tau, range(ctx.q ** (g * g)))


@pytest.mark.parametrize("ctx, g, tau", [(GF2, 4, 0), (GF4, 3, 1), (GF3, 4, 0), (GF2, 5, 0)])
def test_row_kernel_matches_profile_sampled(ctx, g, tau):
    rng = random.Random(f"kernel/{ctx.q}/{g}/{tau}")
    _kernel_agrees_with_profile(ctx, g, tau, [rng.randrange(ctx.q ** (g * g)) for _ in range(400)])


@pytest.mark.parametrize("p, d, g", [
    (2, 1, 0), (2, 1, 1), (2, 1, 4), (3, 1, 3), (3, 1, 4), (2, 2, 3), (3, 2, 2),
    (7, 1, 3), (89, 1, 2), (8191, 1, 1),
])
def test_row_kernel_table_sizes(p, d, g):
    ctx = make_field(p, d)
    bound = ctx.q ** (g + 1) if g >= 2 else ctx.q
    kernel = RowKernel(ctx, g, 0)
    assert all(len(table) <= bound for table in kernel.tables.values())
    assert bool(kernel.tables) == (g >= 2)


# --- hyperplane runs: rows 1..g-1 independent ---------------------------------------

HYPERPLANE_CELLS = [(GF2, 4, 0), (GF3, 4, 0), (GF5, 3, 0), (GF4, 3, 1), (GF8, 3, 2), (GF9, 3, 1)]


def _run_rows(ctx, g, prefix):
    """Rows 1..g-1 of every code in the run `prefix`, as row codes."""
    Q = ctx.q ** g
    return [prefix // Q ** i % Q for i in range(g - 1)]


def _rank_of_run(ctx, g, prefix):
    rows = [helpers.to_vec(v, ctx.q, g) for v in _run_rows(ctx, g, prefix)]
    return rank(matrix_from_rows(ctx, rows, g))


def _reference_tally(ctx, g, tau, lo, hi):
    counts = {}
    for code in range(lo, hi):
        key = tuple(profile(SemilinearMap(matrix_from_code(ctx, g, code), tau)))
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_hyperplane_rank_g_minus_1_every_chain_length(ctx, g, tau):
    # codes whose rows 1..g-1 are independent and whose row 0 is y·(rows
    # 1..g-1): rank g-1, with Jordan chain length m = g - s for every m in
    # 1..g, m = g being the single-block nilpotent maps (s = 0)
    rng = random.Random(f"hyperplane/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    seen = {m: 0 for m in range(1, g + 1)}
    for _ in range(20000):
        if sum(seen.values()) >= 200 and min(seen.values()) >= 3:
            break
        prefix = rng.randrange(Q ** (g - 1))
        if _rank_of_run(ctx, g, prefix) != g - 1:
            continue
        rows = [helpers.to_vec(v, ctx.q, g) for v in _run_rows(ctx, g, prefix)]
        row0 = [0] * g
        for row in rows:
            c = rng.randrange(ctx.q)
            row0 = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(row0, row)]
        A = matrix_from_rows(ctx, [row0] + rows)
        code = helpers.from_digits(A.entries, ctx.q)
        r, s = profile(SemilinearMap(A, tau))
        assert r == g - 1
        assert kernel.tally(code, code + 1) == {(r, s): 1}, (ctx, g, tau, code)
        seen[g - s] += 1
    assert sum(seen.values()) >= 200 and min(seen.values()) >= 3, seen


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_hyperplane_ranges_inside_one_run(ctx, g, tau):
    # the bijective codes are counted, not visited, so a range that starts
    # and ends inside a run must still count only its own codes
    rng = random.Random(f"inside/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    checked = 0
    while checked < 6:
        prefix = rng.randrange(Q ** (g - 1))
        if _rank_of_run(ctx, g, prefix) != g - 1:
            continue
        first = prefix * Q
        lo = first + rng.randrange(1, Q // 2)
        hi = first + rng.randrange(Q // 2, Q)
        for a, b in [(lo, hi), (lo, lo), (lo, lo + 1), (first, hi), (lo, first + Q)]:
            assert kernel.tally(a, b) == _reference_tally(ctx, g, tau, a, b), (a, b)
        checked += 1


NO_CHAIN_CELLS = [(GF2, 4, 0), (GF3, 3, 0), (GF4, 3, 1), (GF9, 2, 1)]


def _no_echelon(self, vectors):
    raise AssertionError(f"_echelon called on {list(vectors)}")


@pytest.mark.parametrize("ctx, g, tau", NO_CHAIN_CELLS)
def test_row_kernel_hyperplane_runs_skip_the_echelon_chain(monkeypatch, ctx, g, tau):
    # over three runs whose rows 1..g-1 are independent, the run's type is
    # read from |W| = len(coord) and no row 0 takes the chain: `_echelon`
    # never runs
    rng = random.Random(f"no-chain/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    while True:
        start = rng.randrange(Q ** (g - 1) - 3)
        prefixes = range(start, start + 3)
        if all(_rank_of_run(ctx, g, prefix) == g - 1 for prefix in prefixes):
            break
    lo, hi = start * Q, (start + 3) * Q
    reference = _reference_tally(ctx, g, tau, lo, hi)
    monkeypatch.setattr(RowKernel, "_echelon", _no_echelon)
    assert kernel.tally(lo, hi) == reference


# --- corank-1 runs: rows 1..g-1 of rank g-2 ---------------------------------------


def _corank1_prefix(ctx, g, rng):
    Q = ctx.q ** g
    while True:
        prefix = rng.randrange(Q ** (g - 1))
        if _rank_of_run(ctx, g, prefix) == g - 2:
            return prefix


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_corank1_rank_g_minus_1_every_chain_length(ctx, g, tau):
    # codes whose rows 1..g-1 have rank g-2 and whose row 0 is outside
    # their span: rank g-1, with Jordan chain length m = g - s for every m
    # in 1..g; kernel vector and preimages come from the run's list, and
    # the scalar on row 0 of each preimage is read off the list too
    rng = random.Random(f"corank1/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    seen = {m: 0 for m in range(1, g + 1)}
    for _ in range(20000):
        if sum(seen.values()) >= 200 and min(seen.values()) >= 3:
            break
        prefix = _corank1_prefix(ctx, g, rng)
        code = prefix * Q + rng.randrange(Q)
        F = SemilinearMap(matrix_from_code(ctx, g, code), tau)
        r, s = profile(F)
        if r != g - 1:  # row 0 in the span of rows 1..g-1
            continue
        assert kernel.tally(code, code + 1) == {(r, s): 1}, (ctx, g, tau, code)
        seen[g - s] += 1
    assert sum(seen.values()) >= 200 and min(seen.values()) >= 3, seen


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_corank1_ranges_inside_one_run(ctx, g, tau):
    rng = random.Random(f"corank1-inside/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    for _ in range(4):
        first = _corank1_prefix(ctx, g, rng) * Q
        lo = first + rng.randrange(1, Q // 2)
        hi = first + rng.randrange(Q // 2, Q)
        for a, b in [(lo, hi), (lo, lo + 1), (first, hi), (lo, first + Q)]:
            assert kernel.tally(a, b) == _reference_tally(ctx, g, tau, a, b), (a, b)


@pytest.mark.parametrize("ctx, g, tau", NO_CHAIN_CELLS)
def test_row_kernel_corank1_runs_skip_the_echelon_chain(monkeypatch, ctx, g, tau):
    # code by code over a run whose rows 1..g-1 have rank g-2, no row 0
    # takes the echelon chain: one outside their span follows one Jordan
    # chain and one inside it (r = g-2) two, so `_echelon` never runs
    rng = random.Random(f"corank1-no-chain/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    prefix = _corank1_prefix(ctx, g, rng)
    codes = range(prefix * Q, (prefix + 1) * Q)
    expected = [{tuple(profile(SemilinearMap(matrix_from_code(ctx, g, code), tau))): 1}
                for code in codes]
    monkeypatch.setattr(RowKernel, "_echelon", _no_echelon)
    assert [kernel.tally(code, code + 1) for code in codes] == expected


# --- runs of rank <= g-3: the echelon chain from the run's own basis -----------------

LOW_RANK_CELLS = [(GF2, 4, 0), (GF2, 5, 0), (GF3, 4, 0), (GF4, 4, 1)]


def _low_rank_prefix(ctx, g, k, rng, row1=None):
    """A seeded run whose rows 1..g-1 have rank k, with row 1 = `row1` if given:
    each row a seeded combination of k seeded rows, the first of them `row1`."""
    q, Q = ctx.q, ctx.q ** g
    while True:
        gens = [helpers.to_vec(rng.randrange(Q), q, g) for _ in range(k)]
        if row1:  # k >= 1
            gens[0] = helpers.to_vec(row1, q, g)
        rows = []
        for _ in range(g - 1):
            row = [0] * g
            for gen in gens:
                c = rng.randrange(q)
                row = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(row, gen)]
            rows.append(helpers.from_digits(row, q))
        if row1 is not None:
            rows[0] = row1
        prefix = sum(v * Q ** i for i, v in enumerate(rows))
        if _rank_of_run(ctx, g, prefix) == k:
            return prefix


@pytest.mark.parametrize("ctx, g, tau", LOW_RANK_CELLS)
def test_row_kernel_low_rank_runs(ctx, g, tau):
    # runs whose rows 1..g-1 have rank k <= g-3, for every such k, are the
    # only ones whose maps take the echelon chain, started from the run's
    # own basis.  Whole runs and ranges cut inside one; then a run that is
    # the first of its block of Q runs sharing rows 2..g-1 (row 1 = 0) and
    # one that is the last (row 1 = Q-1), with ranges across that change
    rng = random.Random(f"low-rank/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    for k in range(g - 2):
        first = _low_rank_prefix(ctx, g, k, rng) * Q
        lo, hi = first + rng.randrange(1, Q // 2), first + rng.randrange(Q // 2, Q)
        ranges = [(first, first + Q), (lo, hi), (lo, lo + 1), (first, hi), (lo, first + Q)]
        x, y = rng.randrange(1, Q), rng.randrange(1, Q)
        change = _low_rank_prefix(ctx, g, k, rng, row1=0) * Q  # the block's first code
        ranges += [(max(change - Q - x, 0), change + Q + y), (change, change + y)]
        if k:
            change = (_low_rank_prefix(ctx, g, k, rng, row1=Q - 1) + 1) * Q  # the next block's
            ranges += [(change - Q - x, min(change + Q + y, Q ** g)), (change - x, change)]
        for a, b in ranges:
            assert kernel.tally(a, b) == _reference_tally(ctx, g, tau, a, b), (k, a, b)


# --- kept rows 2..g-1: one layer per block of Q runs ---------------------------------


@pytest.mark.parametrize("ctx, g, tau", [(GF2, 4, 0), (GF3, 3, 0), (GF4, 3, 1), (GF5, 3, 0)])
def test_row_kernel_ranges_around_a_change_of_rows_2_to_g_minus_1(ctx, g, tau):
    # rows 2..g-1 change at every multiple B of Q^2; ranges cut runs, start
    # or end inside a block of Q runs that share those rows, or cross B
    rng = random.Random(f"blocks/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    for _ in range(3):
        B = rng.randrange(1, Q ** (g - 2)) * Q * Q
        x, y = rng.randrange(1, Q), rng.randrange(1, Q)
        for a, b in [(B - Q - x, B + Q + y), (B - 2 * Q, B + 2 * Q), (B - 1, B + 1),
                     (B + Q + x, B + 3 * Q - y), (B - 3 * Q, B - Q + y)]:
            assert kernel.tally(a, b) == _reference_tally(ctx, g, tau, a, b), (a, b)


@pytest.mark.parametrize("ctx, g, tau", [(GF2, 4, 0), (GF3, 3, 0), (GF5, 3, 0)])
def test_row_kernel_chunk_crosses_a_change_of_rows_2_to_g_minus_1(ctx, g, tau):
    # an enumeration chunk, as `bruteforce_table` cuts them, that holds
    # runs of more than one block
    block = ctx.q ** (2 * g)
    chunks = [lo for lo in range(0, ctx.q ** (g * g), CHUNK_CODES)
              if lo // block < (lo + CHUNK_CODES - 1) // block]
    lo = random.Random(f"chunk/{ctx.q}/{g}/{tau}").choice(chunks)
    hi = lo + CHUNK_CODES
    assert RowKernel(ctx, g, tau).tally(lo, hi) == _reference_tally(ctx, g, tau, lo, hi)


# --- rank g-1 runs: the shared corank-1 chain, F*·k + W, cuts at chain row 0s ------


def _run_profiles(ctx, g, tau, prefix):
    """profile of the code prefix·Q + row 0, for each row 0 in [0, Q)."""
    Q = ctx.q ** g
    return [tuple(profile(SemilinearMap(matrix_from_code(ctx, g, prefix * Q + row0), tau)))
            for row0 in range(Q)]


def _corank1_runs_by_shared_length(ctx, g, tau):
    """{mu: (prefix, profiles)}, one corank-1 run for each mu in 1..g-1.

    mu is the smallest m = g - s over the row 0s outside W (r = g-1).  A
    few seeded row 0s give a guess of mu, so only runs that may have a
    new mu are profiled whole."""
    rng = random.Random(f"corank1-shared/{ctx.q}/{g}/{tau}")
    Q, found = ctx.q ** g, {}
    for _ in range(5000):
        if len(found) == g - 1:
            break
        prefix = _corank1_prefix(ctx, g, rng)
        codes = [prefix * Q + rng.randrange(Q) for _ in range(8)]
        guess = [profile(SemilinearMap(matrix_from_code(ctx, g, code), tau)) for code in codes]
        if min(g - s for r, s in guess if r == g - 1) in found:
            continue
        profiles = _run_profiles(ctx, g, tau, prefix)
        found.setdefault(min(g - s for r, s in profiles if r == g - 1), (prefix, profiles))
    return found


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_corank1_whole_runs_by_shared_chain_length(ctx, g, tau):
    # in a run whose rows 1..g-1 have rank g-2, every row 0 outside W takes
    # the same chain steps while k_j is in W; those k_j are independent, so
    # the shared chain ends at some k outside W with mu <= g-1.  Only the
    # (q-1)·q^(g-2) row 0s of F*·k + W go on, so Q - q^(g-1) codes stop at
    # mu, and at mu = g-1, the longest shared chain, the others reach m = g
    found = _corank1_runs_by_shared_length(ctx, g, tau)
    assert sorted(found) == list(range(1, g)), sorted(found)
    kernel = RowKernel(ctx, g, tau)
    q, Q = ctx.q, ctx.q ** g
    for mu, (prefix, profiles) in found.items():
        lengths = [g - s for r, s in profiles if r == g - 1]
        assert len(lengths) == Q - q ** (g - 2)  # row 0 outside W
        assert lengths.count(mu) == Q - q ** (g - 1)
        going = [m for m in lengths if m != mu]
        assert len(going) == (q - 1) * q ** (g - 2) and min(going) > mu
        if mu == g - 1:
            assert set(going) == {g}
        assert kernel.tally(prefix * Q, (prefix + 1) * Q) == Counter(profiles), (mu, prefix)


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_corank1_ranges_cut_inside_f_star_k_plus_w(ctx, g, tau):
    # the F*·k + W row 0s of a corank-1 run are its row 0s outside W with
    # m > mu; ranges start or end on them, between them and at the run's ends
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    for mu, (prefix, profiles) in _corank1_runs_by_shared_length(ctx, g, tau).items():
        rng = random.Random(f"f-star-k/{ctx.q}/{g}/{tau}/{mu}")
        going = sorted(row0 for row0, (r, s) in enumerate(profiles) if r == g - 1 and g - s > mu)
        first = prefix * Q
        for _ in range(3):
            a, b = sorted(rng.sample(going, 2))
            for lo, hi in [(a, b), (a + 1, b), (a, b + 1), (a, a + 1), (0, b), (a, Q), (a + 1, Q)]:
                expected = Counter(profiles[lo:hi])
                assert kernel.tally(first + lo, first + hi) == expected, (mu, lo, hi)


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_hyperplane_ranges_cut_at_row_0s_in_w(ctx, g, tau):
    # in a hyperplane run only the row 0s in W (r = g-1) walk a chain, and
    # only those inside the range; ranges start or end on them and next to them
    rng = random.Random(f"cut-in-w/{ctx.q}/{g}/{tau}")
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    checked = 0
    while checked < 2:
        prefix = rng.randrange(Q ** (g - 1))
        if _rank_of_run(ctx, g, prefix) != g - 1:
            continue
        profiles = _run_profiles(ctx, g, tau, prefix)
        inside = [row0 for row0, (r, s) in enumerate(profiles) if r == g - 1]
        assert len(inside) == Q // ctx.q
        first = prefix * Q
        for _ in range(3):
            a, b = sorted(rng.sample(inside[1:], 2))  # row 0 = 0 is the first
            for lo, hi in [(a, b), (a + 1, b), (a, b + 1), (a, a + 1), (a - 1, a), (0, b), (a, Q)]:
                assert kernel.tally(first + lo, first + hi) == Counter(profiles[lo:hi]), (lo, hi)
        checked += 1


# --- corank-1 runs, row 0 in W: two Jordan chains, r = g-2 ---------------------------


def _lambda2_exits(ctx, g, tau, prefix):
    """{row 0: how ker L^j first leaves W} over the row 0s in W of a corank-1 run.

    ker L = <a_1, b_1> with a_1 = tau((0, y0)), y0·(rows 1..g-1) = 0, and
    b_1 = tau((-1, y)), y the last with y·(rows 1..g-1) = row 0, which is
    the one the kernel reads (only whether b or a combination is in W
    depends on that choice).  Both chains step v -> tau((0, y)) with
    y·(rows 1..g-1) = v while both stay in W; at the first level where one
    leaves, either a or b is still in W, or a combination of the two is,
    or they are independent modulo W (lambda_1 = lambda_2)."""
    q, Q = ctx.q, ctx.q ** g
    rows = [helpers.to_vec(v, q, g) for v in _run_rows(ctx, g, prefix)]
    pre, y0 = {}, None
    for y in range(Q // q):
        ys = helpers.to_vec(y, q, g - 1)
        v = (0,) * g
        for c, row in zip(ys, rows):
            v = tuple(ctx.add(a, ctx.mul(c, b)) for a, b in zip(v, row))
        if y0 is None and y and not any(v):
            y0 = ys
        pre[v] = ys  # the last y wins

    def step(x0, ys):
        return frobenius_vector(ctx, (x0,) + ys, tau)

    exits = {}
    for w in pre:
        a, b = step(0, y0), step(ctx.neg(1), pre[w])
        while a in pre and b in pre:
            a, b = step(0, pre[a]), step(0, pre[b])
        if a in pre or b in pre:
            how = "a in W" if a in pre else "b in W"
        else:
            how = "combination in W" if span_dim(ctx, rows + [a, b]) == g - 1 else "independent"
        exits[sum(x * q ** i for i, x in enumerate(w))] = how
    return exits


LAMBDA2_EXITS = ["a in W", "b in W", "combination in W", "independent"]


def _corank1_runs_by_lambda2_exit(ctx, g, tau):
    """{exit: (prefix, exits)}, one corank-1 run with a row 0 in W for each exit."""
    rng = random.Random(f"corank2-exits/{ctx.q}/{g}/{tau}")
    found = {}
    for _ in range(2000):
        if len(found) == len(LAMBDA2_EXITS):
            break
        prefix = _corank1_prefix(ctx, g, rng)
        exits = _lambda2_exits(ctx, g, tau, prefix)
        for how in sorted(set(exits.values()) - set(found)):
            found[how] = (prefix, exits)
    return found


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_corank1_whole_runs_by_lambda2_exit(ctx, g, tau):
    # a row 0 in W of a corank-1 run has r = g-2 and a 2-dimensional ker L;
    # lambda_2 is the first level where ker L^j leaves W, lambda_1 the
    # first where it spans V/W, and s = g - lambda_1 - lambda_2
    found = _corank1_runs_by_lambda2_exit(ctx, g, tau)
    assert sorted(found) == LAMBDA2_EXITS, sorted(found)
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    for how, (prefix, exits) in found.items():
        profiles = _run_profiles(ctx, g, tau, prefix)
        assert len(exits) == ctx.q ** (g - 2)
        assert {profiles[row0][0] for row0 in exits} == {g - 2}
        assert kernel.tally(prefix * Q, (prefix + 1) * Q) == Counter(profiles), (how, prefix)


@pytest.mark.parametrize("ctx, g, tau", HYPERPLANE_CELLS)
def test_row_kernel_corank1_ranges_cut_at_row_0s_in_w(ctx, g, tau):
    # the row 0s in W of a corank-1 run are walked one by one, only those
    # inside the range; ranges start or end on them, next to them and
    # between them.  Reading b_1 as tau((1, y)) walks -row 0's chains for
    # row 0, which only a range holding one of the two can see (odd q)
    kernel = RowKernel(ctx, g, tau)
    Q = ctx.q ** g
    for how, (prefix, exits) in _corank1_runs_by_lambda2_exit(ctx, g, tau).items():
        rng = random.Random(f"cut-corank1-in-w/{ctx.q}/{g}/{tau}/{how}")
        profiles = _run_profiles(ctx, g, tau, prefix)
        inside = sorted(exits)[1:]  # row 0 = 0 is the first
        first = prefix * Q
        for _ in range(2):
            a, b = sorted(rng.sample(inside, 2))
            for lo, hi in [(a, b), (a + 1, b + 1), (a, a + 1), (a - 1, a), (0, b), (a, Q)]:
                expected = Counter(profiles[lo:hi])
                assert kernel.tally(first + lo, first + hi) == expected, (how, lo, hi)


@pytest.mark.parametrize("ctx, g, start, stop", [
    (GF2, 0, 0, 2), (GF2, 0, 1, 0), (GF2, 1, 3, 1), (GF2, 1, -1, 1), (GF2, 1, 0, 3),
    (GF2, 3, -5, 3), (GF2, 3, 500, 600), (GF2, 3, 3, 1), (GF3, 2, 0, 3 ** 4 + 1),
])
def test_row_kernel_refuses_a_range_outside_the_codes(ctx, g, start, stop):
    # counting past either end of [0, q^(g^2)) or backwards used to give
    # wrong counts silently, negative ones among them; both ends of the
    # codes, and empty ranges, stay valid
    kernel, total = RowKernel(ctx, g, 0), ctx.q ** (g * g)
    with pytest.raises(ValueError, match="not inside"):
        kernel.tally(start, stop)
    assert sum(kernel.tally(0, total).values()) == total
    assert kernel.tally(total, total) == kernel.tally(0, 0) == {}
