"""Counting formulas, the enumeration oracle, and the verification report."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from semicount.counting import (
    CountTable,
    bruteforce_table,
    closed_form_count,
    formula_table,
    gaussian_binomial,
    gl_order,
    profiles,
    spanning_tuple_count,
    staged_count,
    surjection_count,
    verify_counts,
)
from semicount.gf import make_field
from semicount.semilinear import BudgetExceeded, enumerate_maps, profile

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF9 = make_field(3, 2)


# --- combinatorial primitives ---------------------------------------------------

def test_profiles_ordering():
    assert profiles(2) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert profiles(0) == [(0, 0)]


def test_gl_order_examples():
    assert gl_order(0, 5) == 1
    assert gl_order(1, 7) == 6
    assert gl_order(2, 2) == 6
    # brute force: invertible 2x2 over GF(3)
    assert gl_order(2, 3) == 48


def test_gaussian_binomial_examples():
    assert gaussian_binomial(4, 0, 3) == 1
    assert gaussian_binomial(4, 4, 3) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    # symmetry and the line count in GF(3)^3
    assert gaussian_binomial(3, 1, 3) == gaussian_binomial(3, 2, 3) == 13
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)


def test_gaussian_binomial_matches_subspace_walk():
    for p, g in [(2, 3), (3, 2)]:
        by_dim = {}
        for _, gens in helpers.all_subspaces(p, [0, 1], g):
            by_dim[len(gens)] = by_dim.get(len(gens), 0) + 1
        for d, n in by_dim.items():
            assert gaussian_binomial(g, d, p) == n


def test_surjection_count_examples():
    assert surjection_count(5, 0, 2) == 1
    assert surjection_count(0, 0, 2) == 1
    assert surjection_count(1, 1, 2) == 1
    assert surjection_count(2, 1, 2) == 3
    assert surjection_count(1, 2, 2) == 0   # no surjections onto a bigger space
    assert surjection_count(0, 1, 3) == 0


def test_spanning_tuple_count_examples():
    assert spanning_tuple_count(3, 0, 2) == 1
    assert spanning_tuple_count(2, 1, 2) == 3
    assert spanning_tuple_count(3, 2, 2) == 42
    assert spanning_tuple_count(1, 1, 2) == 0  # zero-length tuples span nothing


def test_spanning_tuple_count_by_direct_enumeration():
    # pairs in GF(2)^3 grouped by the dimension they span
    vectors = [tuple((c >> j) & 1 for j in range(3)) for c in range(8)]
    seen = {d: 0 for d in range(3)}
    for w1, w2 in itertools.product(vectors, repeat=2):
        S = helpers.span_set(2, [0, 1], [w1, w2], 3)
        seen[helpers.set_dim(S, 2)] += 1
    for d, n in seen.items():
        assert spanning_tuple_count(3, d, 2) == n


# --- the two formula routes ------------------------------------------------------

def test_staged_count_examples():
    assert staged_count(3, 0, 0, 5) == 1
    assert staged_count(2, 1, 0, 2) == 3
    assert staged_count(2, 2, 2, 2) == 6
    assert staged_count(2, 1, 1, 2) == 6
    with pytest.raises(ValueError):
        staged_count(2, 1, 2, 2)


def test_closed_form_examples():
    for q in (2, 3, 4, 9):
        assert closed_form_count(1, 1, 1, q) == q - 1
    assert closed_form_count(2, 1, 1, 2) == 6
    assert closed_form_count(2, 1, 0, 2) == 3
    assert closed_form_count(0, 0, 0, 7) == 1


def test_routes_agree_on_spot_grid():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for g in range(7):
            for r, s in profiles(g):
                assert closed_form_count(g, r, s, q) == staged_count(g, r, s, q)


def test_formula_table_totals_and_corollaries():
    for g, q in [(1, 2), (2, 2), (2, 3), (3, 2), (4, 3), (5, 2)]:
        table = formula_table(g, q)
        assert table.route == "theorem" and table.tau is None
        assert table.total == q ** (g * g)
        assert table.entries[(g, g)] == gl_order(g, q)
        nilpotent = sum(table.entries[(r, 0)] for r in range(g + 1))
        assert nilpotent == q ** (g * g - g)


# --- enumeration oracle ---------------------------------------------------------

def test_bruteforce_examples():
    def nonzero(table: CountTable):
        return {prof: n for prof, n in table.entries.items() if n}

    assert nonzero(bruteforce_table(GF2, 1, 0)) == {(0, 0): 1, (1, 1): 1}
    assert nonzero(bruteforce_table(GF2, 2, 0)) == {
        (0, 0): 1, (1, 0): 3, (1, 1): 6, (2, 2): 6}
    assert nonzero(bruteforce_table(GF4, 1, 1)) == {(0, 0): 1, (1, 1): 3}


def test_bruteforce_matches_formula():
    cases = [(GF2, 2, 0), (GF2, 3, 0), (GF3, 2, 0), (GF4, 2, 0), (GF4, 2, 1)]
    for ctx, g, tau in cases:
        assert bruteforce_table(ctx, g, tau).entries == formula_table(g, ctx.q).entries


def test_bruteforce_twist_independent():
    tables = [bruteforce_table(GF9, 2, tau).entries for tau in (0, 1)]
    assert tables[0] == tables[1]


def test_bruteforce_budget():
    with pytest.raises(BudgetExceeded):
        bruteforce_table(GF9, 2, 0, budget=100)
    # budget=None disables the cap
    assert bruteforce_table(GF2, 2, 0, budget=None).total == 16


def test_bruteforce_chunking_is_invisible(monkeypatch):
    import semicount.counting as counting
    monkeypatch.setattr(counting, "CHUNK_CODES", 64)
    serial = bruteforce_table(GF3, 2, 0, threads=1)
    pooled = bruteforce_table(GF3, 2, 0, threads=3)
    assert serial == pooled


@pytest.mark.parametrize("chunk", [64, 1000])
@pytest.mark.parametrize("ctx, g, tau", [(GF9, 2, 1), (GF3, 3, 0)])
def test_bruteforce_unaligned_chunks_match_profile(monkeypatch, chunk, ctx, g, tau):
    # neither chunk size is a multiple of q^g, so chunks cut runs of codes
    # that share their upper rows
    import semicount.counting as counting
    monkeypatch.setattr(counting, "CHUNK_CODES", chunk)
    reference = {prof: 0 for prof in profiles(g)}
    for F in enumerate_maps(ctx, g, tau):
        reference[tuple(profile(F))] += 1
    assert bruteforce_table(ctx, g, tau).entries == reference


def test_run_tasks_caps_workers(monkeypatch):
    import semicount.counting as counting
    made = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(counting, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    assert counting.run_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
    assert counting.run_tasks(abs, [-1, -2, -3], 1) == [1, 2, 3]
    assert counting.run_tasks(abs, [-4], 64) == [4]
    assert made == [2]  # one worker per core; serial with one thread or one task
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 8)
    assert counting.run_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
    assert made == [2, 3]  # never more workers than tasks
    # 9^4 maps make two chunks of CHUNK_CODES
    assert bruteforce_table(GF9, 2, 1, threads=1000).entries == formula_table(2, 9).entries
    assert made == [2, 3, 2]


# --- verification report ----------------------------------------------------------

def test_verify_counts_report_shape():
    report, ok = verify_counts(GF2, 2, 0)
    assert ok
    assert report["field"] == "2^1/0,1" and report["g"] == 2 and report["tau"] == 0
    cells = {(c["r"], c["s"]): c for c in report["cells"]}
    assert set(cells) == set(profiles(2))
    assert cells[(1, 1)]["theorem"] == "6"
    assert cells[(1, 1)]["staged"] == "6"
    assert cells[(1, 1)]["enumerated"] == "6"
    assert all(c["match"] for c in report["cells"])
    assert report["totals"] == {"theorem": "16", "enumerated": "16", "expected": "16"}
    assert report["corollaries"] == {"gl": True, "nilpotent": True, "total_mass": True}


def test_verify_counts_formula_only():
    report, ok = verify_counts(GF9, 3, 1, enumerate_route=False)
    assert ok
    assert report["totals"]["enumerated"] is None
    assert all(c["enumerated"] is None and c["match"] for c in report["cells"])


def test_verify_counts_field_without_tables():
    # a large prime field: its own tables are O(q), and at g = 1 the
    # enumeration kernel builds none
    big = make_field(8191, 1)
    report, ok = verify_counts(big, 1, 0)
    assert ok
    assert report["totals"] == {"theorem": "8191", "enumerated": "8191", "expected": "8191"}


@pytest.mark.slow
@pytest.mark.parametrize("ctx, g", [(GF2, 5), (GF3, 4)])  # 2^25 and 3^16 maps
def test_verify_counts_largest_cells(ctx, g):
    report, ok = verify_counts(ctx, g, 0, threads=2)
    assert ok
    assert report["totals"]["enumerated"] == str(ctx.q ** (g * g))


def test_verify_counts_larger_field():
    report, ok = verify_counts(GF9, 2, 1)
    assert ok
    cells = {(c["r"], c["s"]): c["enumerated"] for c in report["cells"]}
    assert cells[(1, 0)] == "80"
    assert cells[(1, 1)] == "720"
    assert report["totals"]["expected"] == str(9 ** 4)


# --- randomized identities ---------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
       st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]))
def test_property_route_equivalence(g, r, s, q):
    if not 0 <= s <= r <= g:
        r, s = sorted((r % (g + 1), s % (g + 1)))[::-1]
    assert closed_form_count(g, r, s, q) == staged_count(g, r, s, q)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.sampled_from([2, 3, 5, 9]))
def test_property_gaussian_symmetry(n, q):
    for d in range(n + 1):
        assert gaussian_binomial(n, d, q) == gaussian_binomial(n, n - d, q)
