"""Encoding maps as vector tuples and decoding them back."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from semicount.bijection import (
    _decode,
    _encode,
    _induced_members,
    induced_flag,
    map_to_tuple,
    roundtrip_check,
    tuple_from_code,
    tuple_has_profile,
    tuple_to_map,
)
from semicount.counting import formula_table, profiles, staged_count
from semicount.flags import _adapt, image_flag
from semicount.gf import _digits, make_field
from semicount.linalg import (
    map_entries,
    mat_inverse,
    mat_mul,
    matrix_from_cols,
    matrix_from_rows,
    standard_basis,
)
from semicount.semilinear import (
    SemilinearMap,
    apply,
    enumerate_maps,
    identity_map,
    matrix_from_code,
    profile,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)

E1_ZERO = ((1, 0), (0, 0))  # spans a line, last entry zero


def induced_profile(ctx, xs):
    """(r, s) of a tuple: the dimensions of the first and last proper members
    of its induced flag, or (g, g) when it spans the whole space."""
    g = len(xs)
    members = _induced_members(ctx, g, [c for x in xs for c in x])
    return (len(members[0]), len(members[-1])) if members else (g, g)


# --- membership ---------------------------------------------------------------

def test_membership_examples():
    assert tuple_has_profile(GF2, standard_basis(2), 2, 2)
    assert tuple_has_profile(GF2, E1_ZERO, 1, 0)
    assert not tuple_has_profile(GF2, E1_ZERO, 1, 1)
    assert not tuple_has_profile(GF2, E1_ZERO, 2, 2)


def test_membership_argument_errors():
    # the profile by `counting._check_profile`, the tuple by `matrix_from_rows`
    with pytest.raises(ValueError, match="need 0 <= s <= r <= g"):
        tuple_has_profile(GF2, E1_ZERO, 2, 3)          # s > r
    with pytest.raises(ValueError, match="need 0 <= s <= r <= g"):
        tuple_has_profile(GF2, E1_ZERO, 3, 0)          # r > g
    with pytest.raises(TypeError, match="must be integers"):
        tuple_has_profile(GF2, E1_ZERO, 1.0, 0)
    with pytest.raises(ValueError, match="ragged rows"):
        tuple_has_profile(GF2, ((1, 0), (0,)), 1, 0)   # ragged entry
    with pytest.raises(ValueError, match="entry code out of field range"):
        tuple_has_profile(GF2, ((2, 0), (0, 0)), 1, 0)  # coordinate out of range


def test_membership_checks_the_tuple_once(monkeypatch):
    # one block check, then dimensions of trailing slices: no `span_dim` or
    # `in_span`, each of which builds its own block
    import semicount.bijection
    import semicount.linalg
    calls = []
    real = semicount.linalg.matrix_from_rows

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for module in (semicount.bijection, semicount.linalg):
        monkeypatch.setattr(module, "matrix_from_rows", counted, raising=False)
    assert tuple_has_profile(GF2, ((0, 0), (1, 0)), 1, 1)
    assert len(calls) == 1


def test_classes_partition_all_tuples():
    # every tuple satisfies the conditions for exactly one profile
    for ctx, g in [(GF2, 2), (GF3, 2), (GF4, 2), (GF2, 3)]:
        for code in range(ctx.q ** (g * g)):
            xs = tuple_from_code(ctx, g, code)
            hits = [(r, s) for r, s in profiles(g) if tuple_has_profile(ctx, xs, r, s)]
            assert hits == [induced_profile(ctx, xs)]


def test_class_sizes_match_staged_product():
    for ctx, g in [(GF2, 2), (GF3, 2), (GF4, 2), (GF2, 3)]:
        sizes = {prof: 0 for prof in profiles(g)}
        for code in range(ctx.q ** (g * g)):
            xs = tuple_from_code(ctx, g, code)
            sizes[induced_profile(ctx, xs)] += 1
        for r, s in profiles(g):
            assert sizes[(r, s)] == staged_count(g, r, s, ctx.q)


# --- induced flags ---------------------------------------------------------------

def test_induced_flag_examples():
    assert induced_flag(GF2, standard_basis(2)).dims == (2,)
    fl = induced_flag(GF2, E1_ZERO)
    assert fl.dims == (2, 1, 0)
    assert fl.subspaces[1] == ((1, 0),)


def test_induced_flag_starts_at_span_dim():
    from semicount.linalg import span_dim
    for code in range(GF3.q ** 4):
        xs = tuple_from_code(GF3, 2, code)
        dims = induced_flag(GF3, xs).dims
        r = span_dim(GF3, list(xs))
        assert dims[0] == 2
        if r < 2:
            assert dims[1] == r


# --- encode ----------------------------------------------------------------------

def test_encode_examples():
    assert map_to_tuple(identity_map(GF2, 2)) == standard_basis(2)
    assert map_to_tuple(identity_map(GF3, 3)) == standard_basis(3)
    nilp = SemilinearMap(matrix_from_rows(GF2, [(0, 1), (0, 0)]), 0)
    assert map_to_tuple(nilp) == E1_ZERO
    twisted = SemilinearMap(matrix_from_rows(GF4, [(2,)]), 1)
    assert map_to_tuple(twisted) == ((2,),)


def test_encode_lands_in_own_profile_class():
    for ctx, g, tau in [(GF2, 2, 0), (GF3, 2, 0), (GF4, 2, 1)]:
        for F in enumerate_maps(ctx, g, tau):
            r, s = profile(F)
            assert tuple_has_profile(ctx, map_to_tuple(F), r, s)


# --- decode ----------------------------------------------------------------------

def test_decode_examples():
    assert tuple_to_map(GF2, standard_basis(2), 0) == identity_map(GF2, 2)
    nilp = tuple_to_map(GF2, E1_ZERO, 0)
    assert nilp.mat == matrix_from_rows(GF2, [(0, 1), (0, 0)]) and nilp.tau == 0
    twisted = tuple_to_map(GF4, ((2,),), 1)
    assert twisted.mat == matrix_from_rows(GF4, [(2,)]) and twisted.tau == 1


def test_decode_preserves_profile_and_image_flag():
    for ctx, tau in [(GF2, 0), (GF3, 0), (GF4, 0), (GF4, 1)]:
        for code in range(ctx.q ** 4):
            xs = tuple_from_code(ctx, 2, code)
            F = tuple_to_map(ctx, xs, tau)
            assert profile(F) == induced_profile(ctx, xs)
            # the decoded map's image chain is the flag read off the tuple
            assert image_flag(F) == induced_flag(ctx, xs)


def test_decode_profile_independent_of_twist():
    for code in range(GF4.q ** 4):
        xs = tuple_from_code(GF4, 2, code)
        assert profile(tuple_to_map(GF4, xs, 0)) == profile(tuple_to_map(GF4, xs, 1))


# --- round trips -----------------------------------------------------------------

def test_roundtrip_map_side_exhaustive():
    for ctx, g, tau in [(GF2, 2, 0), (GF3, 2, 0), (GF4, 2, 1)]:
        for F in enumerate_maps(ctx, g, tau):
            assert tuple_to_map(ctx, map_to_tuple(F), tau) == F


def test_roundtrip_tuple_side_exhaustive():
    for ctx, g, tau in [(GF2, 2, 0), (GF3, 2, 0), (GF4, 2, 1)]:
        for code in range(ctx.q ** (g * g)):
            xs = tuple_from_code(ctx, g, code)
            assert map_to_tuple(tuple_to_map(ctx, xs, tau)) == xs


# --- tuple codes ---------------------------------------------------------------

def test_tuple_code_layout():
    # little-endian base-q digits, entry j owns digits j*g .. j*g+g-1
    assert tuple_from_code(GF3, 2, 5) == ((2, 1), (0, 0))
    assert tuple_from_code(GF3, 2, 5 + 27) == ((2, 1), (0, 1))


def test_tuple_code_roundtrip_and_range():
    for code in range(3 ** 4):
        assert helpers.from_digits(sum(tuple_from_code(GF3, 2, code), ()), 3) == code
    # `matrix_from_code` is the one range check
    for code in (3 ** 4, -1):
        with pytest.raises(ValueError, match=r"matrix code outside .* = \[0, 3\^4\)"):
            tuple_from_code(GF3, 2, code)
    with pytest.raises(ValueError, match="^matrix rows and cols must be >= 0, got -1x-1$"):
        tuple_from_code(GF2, -1, 1)


# --- the coded core against the Matrix reference -------------------------------------

def _reference_map_to_tuple(F):
    """Apply F to the basis adapted to its image flag, vector by vector."""
    adapted = _adapt(F.ctx, F.g, image_flag(F).subspaces[1:])
    return tuple(apply(F, v) for v in adapted.vectors)


def _reference_tuple_to_map(ctx, xs, tau):
    """X (tau P)^(-1), with P the adapted vectors as columns and X the
    tuple entries; P is invertible because the adapted vectors form a basis."""
    g = len(xs)
    adapted = _adapt(ctx, g, induced_flag(ctx, xs).subspaces[1:])
    P = matrix_from_cols(ctx, adapted.vectors, g)
    A = mat_mul(matrix_from_cols(ctx, xs, g), mat_inverse(map_entries(P, tau)))
    return SemilinearMap(A, tau)


def _assert_coded_equals_reference(ctx, g, tau, codes):
    """The two cores on code digits, and the Matrix functions, against the
    reference functions and profile, code by code."""
    for code in codes:
        F = SemilinearMap(matrix_from_code(ctx, g, code), tau)
        xs = _reference_map_to_tuple(F)
        assert map_to_tuple(F) == xs, (ctx.spec, tau, code)
        assert _encode(ctx, g, tau, list(F.mat.entries)) == (
            [c for v in xs for c in v], *profile(F)), (ctx.spec, tau, code)
        xs = tuple_from_code(ctx, g, code)
        G = _reference_tuple_to_map(ctx, xs, tau)
        assert tuple_to_map(ctx, xs, tau) == G, (ctx.spec, tau, code)
        assert _decode(ctx, g, tau, [c for v in xs for c in v]) == (
            list(G.mat.entries), *profile(G)), (ctx.spec, tau, code)


@pytest.mark.parametrize("p,d,g,tau", [(2, 1, 3, 0), (3, 2, 2, 1), (5, 1, 2, 0), (2, 3, 2, 2)])
def test_coded_path_equals_reference_exhaustive(p, d, g, tau):
    ctx = make_field(p, d)
    _assert_coded_equals_reference(ctx, g, tau, range(ctx.q ** (g * g)))


@pytest.mark.slow
def test_coded_path_equals_reference_exhaustive_gf27():
    ctx = make_field(3, 3)
    _assert_coded_equals_reference(ctx, 2, 1, range(27 ** 4))


@pytest.mark.parametrize("p,d,g,tau,n", [
    (2, 6, 3, 0, 3000), (7, 1, 3, 0, 3000), (3, 1, 3, 0, 1000), (2, 2, 3, 1, 1000),
    (2, 4, 3, 1, 1000), (3, 2, 3, 1, 500), (2, 1, 4, 0, 1000),
])
def test_coded_path_equals_reference_seeded(p, d, g, tau, n):
    ctx = make_field(p, d)
    rng = random.Random(f"{p}^{d} g={g}")
    _assert_coded_equals_reference(
        ctx, g, tau, [rng.randrange(ctx.q ** (g * g)) for _ in range(n)])


@pytest.mark.parametrize("p,d,g,tau", [(2, 1, 2, 0), (2, 1, 3, 0), (3, 1, 2, 0), (2, 2, 2, 1)])
def test_map_to_tuple_matches_first_principles_oracle(p, d, g, tau):
    ctx = make_field(p, d)
    for F in enumerate_maps(ctx, g, tau):
        xs = helpers.naive_tuple(ctx.p, ctx.modulus, [F.mat.row(i) for i in range(g)], tau, g)
        assert map_to_tuple(F) == xs, F
        assert tuple_to_map(ctx, xs, tau) == F, F


def test_every_entry_point_runs_the_two_cores(capsys, monkeypatch):
    import collections
    import io
    import sys
    import semicount.bijection as bijection
    from semicount.cli import main
    calls = collections.Counter()
    for name in ("_encode", "_decode"):
        def counted(*args, real=getattr(bijection, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(bijection, name, counted)

    def counts_of(run):
        calls.clear()
        run()
        return dict(calls)

    assert counts_of(lambda: map_to_tuple(identity_map(GF3, 2))) == {"_encode": 1}
    assert counts_of(lambda: tuple_to_map(GF3, E1_ZERO, 0)) == {"_decode": 1}
    # a sweep encodes each code and decodes its encoding, once each: the
    # other direction follows by counting
    assert counts_of(lambda: roundtrip_check(GF2, 2, 0)) == {"_encode": 16, "_decode": 16}
    # a sample is encoded and decoded twice, once from each side
    with monkeypatch.context() as m:
        m.setattr(bijection, "SPOT_CHECK_SAMPLES", 10)
        assert counts_of(lambda: roundtrip_check(GF2, 2, 0, budget=10)) == {
            "_encode": 20, "_decode": 20}
    # a failing sweep runs again both ways; there the zero tuple fails its
    # first decode, so code 0 makes one encode and one decode, not two
    with monkeypatch.context() as m:
        def zero_fails(ctx, g, tau, x, real=bijection._decode):
            a, r, s = real(ctx, g, tau, x)
            return ([1] + a[1:] if not any(x) else a), r, s
        m.setattr(bijection, "_decode", zero_fails)
        assert counts_of(lambda: roundtrip_check(GF2, 2, 0)) == {
            "_encode": 16 + 31, "_decode": 16 + 31}
    for argv, text, expected in [(["mu"], "tau 0\n2 2 3^1\n1 2\n0 1\n", {"_encode": 1}),
                                 (["nu"], "2 2 3^1\n1 2\n0 1\n", {"_decode": 1})]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert counts_of(lambda: main(argv)) == expected, argv
        assert capsys.readouterr().err == ""


def test_each_code_is_converted_once(capsys, monkeypatch):
    import collections
    import io
    import sys
    import semicount.bijection as bijection
    from semicount.cli import main
    calls = collections.Counter()
    def counted(*args, real=bijection._digits):
        calls["_digits"] += 1
        return real(*args)
    monkeypatch.setattr(bijection, "_digits", counted)

    # the round trip splits each code into digits once and compares digits
    report, ok = roundtrip_check(GF2, 2, 0)
    assert ok and report["maps_checked"] == 16 and dict(calls) == {"_digits": 16}
    # mu and nu run the cores on the block's entries, with no code at all
    for argv, text, out in [
        (["mu"], "tau 0\n3 3 3^1\n0 1 2\n0 0 1\n0 0 0\n",
         '{"field": "3^1/0,1", "g": 3, "tau": 0, "profile": {"r": 2, "s": 0}, '
         '"tuple": [[2, 1, 0], [1, 0, 0], [0, 0, 0]], '
         '"block": "3 3 3^1/0,1\\n2 1 0\\n1 0 0\\n0 0 0"}\n'),
        (["nu", "--tau", "1"], "3 3 2^2\n0 0 0\n1 0 3\n2 0 1\n",
         '{"field": "2^2/1,1,1", "g": 3, "tau": 1, "profile": {"r": 1, "s": 1}, '
         '"matrix": [[0, 0, 1], [0, 0, 0], [0, 0, 3]], '
         '"block": "tau 1\\n3 3 2^2/1,1,1\\n0 0 1\\n0 0 0\\n0 0 3"}\n'),
    ]:
        calls.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(argv) == 0 and not calls, argv
        assert capsys.readouterr() == (out, ""), argv


def test_roundtrip_check_builds_no_matrix(monkeypatch):
    import semicount.linalg as linalg

    def refuse(cls, *fields):
        raise AssertionError("Matrix built")

    monkeypatch.setattr(linalg.Matrix, "__new__", refuse)
    report, ok = roundtrip_check(GF4, 2, 1)
    assert ok and report["maps_checked"] == 256


def test_roundtrip_gf2_g4_exhaustive_matches_formula():
    # 65,536 codes, one direction each, 2.7-3.0 s at 2 workers on a 2-core
    # VM (5.4 s both ways); the harness itself holds the tallies to the
    # formula, and so does this test
    report, ok = roundtrip_check(GF2, 4, 0, threads=2)
    assert ok and report["mode"] == "exhaustive" and report["failures"] == 0
    expected = formula_table(4, 2).entries
    assert {(c["r"], c["s"]): c["checked"] for c in report["per_profile"]} == expected


# --- batch harness -------------------------------------------------------------

def test_roundtrip_check_exhaustive_report():
    report, ok = roundtrip_check(GF2, 2, 0)
    assert ok
    assert report["mode"] == "exhaustive" and report["seed"] is None
    assert report["maps_checked"] == 16 and report["failures"] == 0
    by_profile = {(row["r"], row["s"]): row["checked"] for row in report["per_profile"]}
    # rows cover every profile, zeros included
    assert by_profile == {(0, 0): 1, (1, 0): 3, (1, 1): 6,
                          (2, 0): 0, (2, 1): 0, (2, 2): 6}


def test_roundtrip_check_gf4_profile_tallies():
    report, ok = roundtrip_check(GF4, 2, 1)
    assert ok
    by_profile = {(row["r"], row["s"]): row["checked"] for row in report["per_profile"]}
    assert by_profile == {(0, 0): 1, (1, 0): 15, (1, 1): 60,
                          (2, 0): 0, (2, 1): 0, (2, 2): 180}


def test_roundtrip_check_sampled_mode_is_seeded(monkeypatch):
    import semicount.bijection as bijection
    monkeypatch.setattr(bijection, "SPOT_CHECK_SAMPLES", 40)
    report, ok = roundtrip_check(GF3, 2, 0, budget=10, seed=7)
    assert ok
    assert report["mode"] == "sampled" and report["seed"] == 7
    assert report["maps_checked"] == 40
    again, _ = roundtrip_check(GF3, 2, 0, budget=10, seed=7)
    assert again == report
    other, _ = roundtrip_check(GF3, 2, 0, budget=10, seed=8)
    assert other != report


def test_chunks_reuse_the_callers_field(monkeypatch):
    # chunk jobs are handed the field the caller passed in, never a rebuilt
    # one, and an enumeration builds one kernel for all its chunks
    import semicount.counting as counting
    import semicount.gf as gf
    from semicount.counting import bruteforce_table
    built = []

    class CountedKernel(counting.RowKernel):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    ctx = make_field(5, 1)
    monkeypatch.setattr(counting, "CHUNK_CODES", 100)
    monkeypatch.setattr(counting, "RowKernel", CountedKernel)
    monkeypatch.setattr(gf, "make_field", lambda *args: pytest.fail("field rebuilt"))
    monkeypatch.setattr(gf.FiniteField, "_build_tables", lambda self: pytest.fail("field rebuilt"))
    report, ok = roundtrip_check(ctx, 2, 0)
    assert ok and report["maps_checked"] == 625
    assert built == []
    assert bruteforce_table(ctx, 2, 0).total == 625  # 7 chunks
    assert len(built) == 1 and built[0][0] is ctx


def test_roundtrip_check_worker_split_is_invisible(monkeypatch):
    import semicount.counting as counting
    monkeypatch.setattr(counting, "CHUNK_CODES", 16)
    started = helpers.started_children(monkeypatch)
    single, ok1 = roundtrip_check(GF3, 2, 0, threads=1)
    assert started == []
    pooled, ok2 = roundtrip_check(GF3, 2, 0, threads=2)
    assert ok1 and ok2 and single == pooled
    assert len(started) == 1


def _both_ways_report(ctx, g, tau):
    """The report and verdict of a sweep that computes both directions on
    every code, built from the cores as `roundtrip_check` reads them."""
    import semicount.bijection as bijection
    q, n = ctx.q, g * g
    tallies = {prof: 0 for prof in profiles(g)}
    failures = []
    for code in range(q ** n):
        digits = _digits(code, q, n)
        x, r, s = bijection._encode(ctx, g, tau, digits)
        tallies[(r, s)] += 1
        back = bijection._encode(ctx, g, tau, bijection._decode(ctx, g, tau, digits)[0])[0]
        if bijection._decode(ctx, g, tau, x)[0] != digits or back != digits:
            failures.append(code)
    expected = formula_table(g, q).entries
    mismatches = [{"r": r, "s": s, "checked": k, "theorem": str(expected[(r, s)])}
                  for (r, s), k in sorted(tallies.items()) if k != expected[(r, s)]]
    report = {"field": ctx.spec, "g": g, "tau": tau, "mode": "exhaustive", "seed": None,
              "maps_checked": q ** n, "tuples_checked": q ** n,
              "failures": len(failures), "failing_codes": [str(c) for c in failures[:20]],
              "per_profile": [{"r": r, "s": s, "checked": k}
                              for (r, s), k in sorted(tallies.items())]}
    if mismatches:
        report["formula_mismatch"] = mismatches
    return report, not failures and not mismatches


def _decode_wrong_at_rank_1(real):
    def faulty(ctx, g, tau, x):
        a, r, s = real(ctx, g, tau, x)
        if r == 1:
            a[-1] = ctx.add(a[-1], 1)
        return a, r, s
    return faulty


def _encode_wrong_on_some_matrices(real):
    # wrong on matrices with a[0] = 1 and a[-1] = 0; the tuples t whose
    # encode(decode(t)) it breaks are other codes
    def faulty(ctx, g, tau, a):
        x, r, s = real(ctx, g, tau, a)
        if a and a[0] == 1 and a[-1] == 0:
            x = x[:-1] + [ctx.add(x[-1], 1)]
        return x, r, s
    return faulty


def _decode_merges_two_tuples(real):
    # a tuple ending in 1 decodes as the one ending in 0 would
    def faulty(ctx, g, tau, x):
        return real(ctx, g, tau, x[:-1] + [0] if x and x[-1] == 1 else x)
    return faulty


def _encode_adds_a_digit(real):
    # `_decode` reads g entries of g digits each from a singular map's
    # encoding, so it ignores the extra digit and gives the code back
    def faulty(ctx, g, tau, a):
        x, r, s = real(ctx, g, tau, a)
        return (x + [0] if r < g else x), r, s
    return faulty


def _encode_aliases_a_digit(real, decode=_decode):
    # a nonzero digit c of the encoding becomes c - q wherever the decoder,
    # reading it through list indexing, still gives the code back
    def faulty(ctx, g, tau, a):
        x, r, s = real(ctx, g, tau, a)
        for k in reversed(range(len(x))):
            y = x[:k] + [x[k] - ctx.q] + x[k + 1:]
            try:
                if x[k] and decode(ctx, g, tau, y)[0] == list(a):
                    return y, r, s
            except ValueError:  # the alias broke the induced flag's nesting
                pass
        return x, r, s
    return faulty


ROUNDTRIP_FAULTS = {  # fault -> the core it wraps
    _decode_wrong_at_rank_1: "_decode",
    _encode_wrong_on_some_matrices: "_encode",
    _decode_merges_two_tuples: "_decode",
    _encode_adds_a_digit: "_encode",
    _encode_aliases_a_digit: "_encode",
}


@pytest.mark.parametrize("fault", ROUNDTRIP_FAULTS, ids=lambda f: f.__name__[1:])
def test_failing_sweep_reports_what_both_directions_find(monkeypatch, fault):
    # a sweep checks one direction and that each encoding is a code; when
    # any code fails, its report and verdict are those of checking both
    # directions on every code.  The last two faults pass decode(encode(c))
    # = c on every code and leave only the encoding's digits to catch them
    import semicount.bijection as bijection
    core = ROUNDTRIP_FAULTS[fault]
    monkeypatch.setattr(bijection, core, fault(getattr(bijection, core)))
    verdicts = []
    for ctx, g, tau in [(GF2, 2, 0), (GF3, 2, 0), (GF4, 2, 1), (GF2, 3, 0)]:
        expected = _both_ways_report(ctx, g, tau)
        assert roundtrip_check(ctx, g, tau) == expected, (ctx.spec, g, tau)
        verdicts.append(expected[1])
    assert not all(verdicts)


# --- randomized cross-checks ------------------------------------------------------

@st.composite
def tuple_case(draw):
    p, d = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    ctx = make_field(p, d)
    g = draw(st.integers(1, 3))
    tau = draw(st.integers(0, ctx.d - 1))
    code = draw(st.integers(0, ctx.q ** (g * g) - 1))
    return ctx, g, tau, code


@settings(max_examples=150, deadline=None)
@given(tuple_case())
def test_property_both_directions_roundtrip(case):
    ctx, g, tau, code = case
    xs = tuple_from_code(ctx, g, code)
    F = tuple_to_map(ctx, xs, tau)
    assert map_to_tuple(F) == xs
    from semicount.semilinear import matrix_from_code
    G = SemilinearMap(matrix_from_code(ctx, g, code), tau)
    assert tuple_to_map(ctx, map_to_tuple(G), tau) == G


@settings(max_examples=100, deadline=None)
@given(tuple_case())
def test_property_profile_agrees_with_set_oracle(case):
    ctx, g, tau, code = case
    xs = tuple_from_code(ctx, g, code)
    F = tuple_to_map(ctx, xs, tau)
    rows = [F.mat.row(i) for i in range(g)]
    r, s = helpers.naive_profile(ctx.p, ctx.modulus, rows, tau, g)
    assert induced_profile(ctx, xs) == (r, s)
