"""Acceptance gate: the seven headline guarantees, one test per criterion.

Each test prints a single PASS line once its assertions clear, so a -s run
reads as a checklist.  Grids and tolerances are exactly the promised ones;
everything here is exact integer equality.
"""

import itertools
import json
import random
import subprocess
import sys

import helpers
from semicount.bijection import map_to_tuple, tuple_from_code, tuple_to_map
from semicount.counting import (
    bruteforce_table,
    closed_form_count,
    formula_table,
    gl_order,
    profiles,
    staged_count,
)
from semicount.flags import adapt_to_subspace, image_flag
from semicount.gf import make_field
from semicount.linalg import rank, rref_basis, span_dim, standard_basis
from semicount.semilinear import (
    SemilinearMap,
    apply,
    compose,
    enumerate_maps,
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

FORMULA_GRID_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)
FORMULA_GRID_G = range(13)


def test_criterion_1_formula_equals_exhaustive_enumeration():
    grid = (
        [(GF2, g, 0) for g in range(5)]
        + [(GF3, g, 0) for g in range(4)]
        + [(GF4, g, tau) for g in range(4) for tau in (0, 1)]
        + [(GF5, g, 0) for g in range(4)]
        + [(GF8, 2, tau) for tau in (0, 1, 2)]
        + [(GF9, 2, tau) for tau in (0, 1)]
    )
    for ctx, g, tau in grid:
        counted = bruteforce_table(ctx, g, tau)
        predicted = formula_table(g, ctx.q)
        assert counted.entries == predicted.entries, (ctx.spec, g, tau)
    print(f"criterion 1: PASS - formula matches enumeration on {len(grid)} "
          "(field, g, tau) combinations, cell for cell")


def test_criterion_2_route_equivalence_and_integrality():
    cells = 0
    for q, g in itertools.product(FORMULA_GRID_Q, FORMULA_GRID_G):
        for r, s in profiles(g):
            # the closed form raises if its exact division ever leaves a remainder
            assert closed_form_count(g, r, s, q) == staged_count(g, r, s, q)
            cells += 1
    assert cells == 9 * 455
    print(f"criterion 2: PASS - closed form = staged product, integral, "
          f"on all {cells} cells (g <= 12, 9 field orders)")


def test_criterion_3_corollary_identities():
    for q, g in itertools.product(FORMULA_GRID_Q, FORMULA_GRID_G):
        table = formula_table(g, q)
        assert table.entries[(g, g)] == gl_order(g, q)
        nilpotent = sum(table.entries[(r, 0)] for r in range(g + 1))
        assert nilpotent == q ** (g * g - g)
        assert table.total == q ** (g * g)
    print("criterion 3: PASS - invertible, nilpotent, and total-mass "
          "identities hold on the full formula grid")


def test_criterion_4_roundtrips_are_exact():
    map_grid = (
        [(GF2, 1, 0), (GF2, 2, 0), (GF2, 3, 0), (GF3, 2, 0)]
        + [(GF4, 2, tau) for tau in (0, 1)]
    )
    maps_checked = 0
    for ctx, g, tau in map_grid:
        for F in enumerate_maps(ctx, g, tau):
            assert tuple_to_map(ctx, map_to_tuple(F), tau) == F
            maps_checked += 1
    tuples_checked = 0
    for code in range(2 ** 4):
        xs = tuple_from_code(GF2, 2, code)
        assert map_to_tuple(tuple_to_map(GF2, xs, 0)) == xs
        tuples_checked += 1
    print(f"criterion 4: PASS - decode(encode(F)) = F for {maps_checked} maps "
          f"and encode(decode(t)) = t for {tuples_checked} tuples")


def test_criterion_5_adapted_vectors_are_unique():
    subspaces_checked = 0
    for p, g in itertools.product((2, 3), (1, 2, 3)):
        ctx = make_field(p, 1)
        e = standard_basis(g)
        for U_set, gens in helpers.all_subspaces(p, [0, 1], g):
            u_basis = list(rref_basis(ctx, [tuple(v) for v in gens]))
            basis, J = adapt_to_subspace(ctx, e, u_basis)
            oracle_basis, oracle_J, counts = helpers.direct_adapt(
                p, [0, 1], helpers.standard_vectors(g), U_set, g)
            assert list(basis) == oracle_basis and list(J) == oracle_J
            # the element scan found exactly one witness per constraint set
            assert all(n == 1 for n in counts.values())
            # the adapted tail spans U, so re-adaptation leaves the basis unchanged
            again, _ = adapt_to_subspace(ctx, basis, u_basis)
            assert again == basis
            subspaces_checked += 1
    print(f"criterion 5: PASS - adapted vectors unique (element scan) and "
          f"adapted tails stable on all {subspaces_checked} subspaces, "
          "q in {2,3}, g <= 3")


def _vectors(ctx, g):
    return list(itertools.product(range(ctx.q), repeat=g))


def _check_semilinearity(ctx, F, vectors, pairs):
    for u, v in pairs:
        left = apply(F, tuple(ctx.add(a, b) for a, b in zip(u, v)))
        right = tuple(ctx.add(a, b) for a, b in zip(apply(F, u), apply(F, v)))
        assert left == right
    for c in range(ctx.q):
        for v in vectors:
            left = apply(F, tuple(ctx.mul(c, x) for x in v))
            right = tuple(ctx.mul(ctx.frobenius_table(F.tau)[c], x) for x in apply(F, v))
            assert left == right


def _check_stabilization(ctx, F, g):
    ranks = [rank(power(F, n).mat) for n in range(1, 2 * g + 1)]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
    assert len(set(ranks[g - 1:])) == 1
    assert profile(F).s == ranks[g - 1]


def _check_decomposition(ctx, F, g):
    bij = image_flag(F).subspaces[-1]
    nil = nil_part(F)
    assert len(bij) + len(nil) == g
    assert span_dim(ctx, list(bij) + list(nil)) == g
    assert len(bij) == profile(F).s
    image = [apply(F, v) for v in bij]
    assert rref_basis(ctx, image) == rref_basis(ctx, list(bij))


def test_criterion_6_semilinear_algebra_invariants():
    # exhaustive sweep
    exhaustive = [(GF2, 1), (GF3, 1), (GF4, 1), (GF2, 2), (GF3, 2), (GF4, 2)]
    for ctx, g in exhaustive:
        vectors = _vectors(ctx, g)
        pairs = list(itertools.product(vectors, repeat=2))
        for tau in range(ctx.d):
            all_maps = list(enumerate_maps(ctx, g, tau))
            for F in all_maps:
                _check_semilinearity(ctx, F, vectors, pairs)
                _check_stabilization(ctx, F, g)
                _check_decomposition(ctx, F, g)
            # all-pairs composition agreement, kept to the smallest spaces
            if ctx.q ** (g * g) <= 16:
                for F, G in itertools.product(all_maps, repeat=2):
                    H = compose(F, G)
                    for v in vectors:
                        assert apply(H, v) == apply(F, apply(G, v))
    # seeded random sweep over bigger spaces
    rng = random.Random(20260822)
    roster = [make_field(*pd) for pd in
              [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]]
    cases = 0
    for _ in range(1100):
        ctx = rng.choice(roster)
        g = rng.randrange(1, 5)
        tau = rng.randrange(ctx.d)
        code = rng.randrange(ctx.q ** (g * g))
        F = SemilinearMap(matrix_from_code(ctx, g, code), tau)
        sample = [tuple(rng.randrange(ctx.q) for _ in range(g)) for _ in range(4)]
        _check_semilinearity(ctx, F, sample, list(itertools.product(sample, repeat=2)))
        _check_stabilization(ctx, F, g)
        _check_decomposition(ctx, F, g)
        G = SemilinearMap(matrix_from_code(ctx, g, rng.randrange(ctx.q ** (g * g))),
                          rng.randrange(ctx.d))
        H = compose(F, G)
        for v in sample:
            assert apply(H, v) == apply(F, apply(G, v))
        cases += 1
    assert cases >= 1000
    print(f"criterion 6: PASS - semilinearity, composition, rank stabilization, "
          f"and the bijective/nilpotent splitting hold exhaustively (q <= 4, g <= 2) "
          f"and on {cases} seeded random cases (q <= 9, g <= 4)")


def test_criterion_7_verify_output_is_thread_independent():
    def run(threads):
        proc = subprocess.run(
            [sys.executable, "-m", "semicount", "verify",
             "--field", "2^1", "--g", "4", "--threads", str(threads)],
            capture_output=True, check=True)
        return proc.stdout

    single = run(1)
    pooled = run(8)
    assert single == pooled
    payload = json.loads(single)
    assert all(cell["match"] for cell in payload["cells"])
    print("criterion 7: PASS - verify output byte-identical across "
          "--threads 1 and --threads 8 (65,536 maps, 16 work chunks)")
