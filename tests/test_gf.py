"""Field construction, arithmetic, and Frobenius."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import semicount.gf as gf
from semicount.gf import (
    DEGREE_LIMIT,
    FIELD_LIMIT,
    PRIME_LIMIT,
    SEARCH_LIMIT,
    FiniteField,
    _least_irreducible,
    _poly_mulmod,
    _least_primitive,
    is_irreducible,
    is_prime,
    make_field,
    parse_field_spec,
    poly_str,
    validate_field,
)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@pytest.fixture(scope="module")
def fields():
    return {(p, d): make_field(p, d) for p, d in SMALL_FIELDS}


# --- construction -----------------------------------------------------------

def test_prime_field_modulus_is_x():
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(7, 1).modulus == (0, 1)


def test_gf4_modulus_is_the_unique_quadratic():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_gf9_accepts_x_squared_plus_one():
    # -1 is not a square mod 3: 0^2=0, 1^2=1, 2^2=1
    assert all((a * a) % 3 != 2 for a in range(3))
    ctx = make_field(3, 2, (1, 0, 1))
    assert ctx.q == 9 and ctx.modulus == (1, 0, 1)


def test_default_modulus_is_deterministic_and_least():
    ctx = make_field(2, 3)
    others = [
        mod for mod in ((c0, c1, c2, 1) for c0 in range(2) for c1 in range(2) for c2 in range(2))
        if is_irreducible(mod, 2)
    ]
    encoded = [helpers.from_digits(m, 2) for m in others]
    assert helpers.from_digits(ctx.modulus, 2) == min(encoded)
    assert make_field(2, 3).modulus == ctx.modulus


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)                     # not prime
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 0, 1))          # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 1))             # wrong degree
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 0, 2))          # not monic
    # the constructor checks that the ring it tabulates is a field
    for p, d, modulus in [(2, 2, (1, 0, 1)),        # x^2+1 = (x+1)^2: (x+1)^2 = 0
                          (4, 1, (0, 1)),           # Z/4, where 2 has no inverse
                          (2, 2, (1, 1, 1, 1)),     # wrong length
                          (3, 2, (1, 0, 2)),        # not monic
                          (2, 2, (3, 1, 1))]:       # a coefficient outside [0, p)
        with pytest.raises(ValueError, match=re.escape(f"GF({p})[x] modulo {modulus} is not "
                                                       f"a field of {p}^{d} elements")):
            FiniteField(p, d, modulus)


def test_parse_field_spec_roundtrip():
    ctx = parse_field_spec("3^2/1,0,1")
    assert (ctx.p, ctx.d, ctx.modulus) == (3, 2, (1, 0, 1))
    assert parse_field_spec("5").q == 5
    assert parse_field_spec(parse_field_spec("2^2").spec) == make_field(2, 2)
    with pytest.raises(ValueError):
        parse_field_spec("abc")
    with pytest.raises(ValueError):
        parse_field_spec("2^2/1,x,1")


def test_split_spec_refuses_a_dangling_separator():
    assert gf._split_spec("5") == (5, 1, None)
    assert gf._split_spec("2^2") == (2, 2, None)
    assert gf._split_spec("2^2/1,1,1") == (2, 2, (1, 1, 1))
    with pytest.raises(ValueError, match=re.escape("malformed field spec '2^'")):
        parse_field_spec("2^")
    for spec in ["2^2/", "17^1/"]:
        with pytest.raises(ValueError, match=re.escape(f"malformed modulus in field spec '{spec}'")):
            parse_field_spec(spec)


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if helpers.trial_division_prime(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to every base 2..7, 2..23 and 2..37 in turn
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 79 - 1)  # = 2687 · 202029703 · 1113491139767
    assert is_prime(PRIME_LIMIT - 1) is False  # even, and just below the bound
    with pytest.raises(ValueError, match=f"PRIME_LIMIT = {PRIME_LIMIT}"):
        is_prime(PRIME_LIMIT)


# every monic polynomial of degree d with p^d <= 2^8, 3^5, 5^3, 7^2
IRREDUCIBILITY_CASES = [(2, d) for d in range(1, 9)] + [(3, d) for d in range(1, 6)] + [
    (5, d) for d in range(1, 4)] + [(7, 1), (7, 2)]


@pytest.mark.parametrize("p,d", IRREDUCIBILITY_CASES)
def test_is_irreducible_matches_trial_division(p, d):
    candidates = list(helpers.monic_polys(p, d))
    verdicts = [is_irreducible(f, p) for f in candidates]
    assert verdicts == [helpers.trial_division_irreducible(p, f) for f in candidates]
    # the default modulus is still the lex-least irreducible
    assert _least_irreducible(p, d) == candidates[verdicts.index(True)]


def test_spec_validation_of_large_fields_is_fast():
    # trial division took seconds at 2^32 and did not finish at 2^40
    assert validate_field(2, 40)[2][:6] == (1, 0, 0, 1, 1, 1)
    assert validate_field(2, 64)[2][:5] == (1, 1, 0, 1, 1)
    assert validate_field(3, 40)[2][:2] == (2, 1)
    p = 2 ** 61 - 1
    assert validate_field(p, 1) == (p, 1, (0, 1))
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        validate_field(2 ** 89 - 1, 1)


def test_degree_and_modulus_search_are_bounded(monkeypatch):
    # validate_field(2, 80) took 3.7 s and (2, 256) over a minute
    for d in (DEGREE_LIMIT + 1, 256):
        with pytest.raises(ValueError, match=f"DEGREE_LIMIT = {DEGREE_LIMIT}"):
            validate_field(2, d)
    # with p = 3 mod 4 no x^4 + c is irreducible, so the search walks past
    # every binomial: it stops once its work passes SEARCH_LIMIT
    for p in (1_000_003, 2 ** 61 - 1):
        with pytest.raises(ValueError, match=f"SEARCH_LIMIT = {SEARCH_LIMIT}.*explicitly"):
            validate_field(p, 4)
    # so does a large d whose candidates run many Ben-Or rounds: 251^60
    # was refused only after 1024 candidates and 2.6-5.8 s
    with pytest.raises(ValueError, match="SEARCH_LIMIT"):
        validate_field(251, 60)
    # 1019^4 is found at lex index 1023, and 1031^4, refused after 1024
    # candidates, at 1032
    assert validate_field(1019, 4)[2] == (4, 1, 0, 0, 1)
    assert validate_field(1031, 4)[2] == (1, 1, 0, 0, 1)
    # an explicit modulus is never searched for
    assert validate_field(1_000_003, 4, (1, 1, 0, 0, 1))[2] == (1, 1, 0, 0, 1)
    monkeypatch.setattr(gf, "SEARCH_LIMIT", 8)
    with pytest.raises(ValueError, match="SEARCH_LIMIT = 8"):
        validate_field(2, 8)  # x^8+x^4+x^3+x+1 sits at lex index 27
    # the search charges each reducible candidate the work of the rounds it
    # ran and stops only once the total passes the limit
    spent = sum(gf._ben_or(f, 2)[1] for f in [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 1, 0, 0, 1)])
    monkeypatch.setattr(gf, "SEARCH_LIMIT", spent)
    assert validate_field(2, 4)[2] == (1, 1, 0, 0, 1)  # lex index 3
    monkeypatch.setattr(gf, "SEARCH_LIMIT", spent - 1)
    with pytest.raises(ValueError, match=f"SEARCH_LIMIT = {spent - 1}"):
        validate_field(2, 4)


@pytest.mark.parametrize("p, d", [(2, 8), (3, 5), (5, 4), (53, 7), (251, 3)])
def test_poly_mulmod_matches_the_schoolbook_product(p, d):
    # the product skips the zero coefficients of both factors; a monomial
    # second factor, like x^p mod f in Ben-Or's matrix rows, is the sparse case
    rng = random.Random(f"mulmod/{p}/{d}")
    modulus = tuple(rng.randrange(p) for _ in range(d)) + (1,)
    monomials = [[0] * k + [1 + rng.randrange(p - 1)] for k in range(d)]
    dense = [[rng.randrange(p) for _ in range(rng.randrange(1, d + 1))] for _ in range(20)]
    sparse = [[rng.choice([0, 0, 0, rng.randrange(p)]) for _ in range(d)] for _ in range(20)]
    for a in dense + sparse + monomials:
        for b in dense[:5] + sparse[:5] + monomials + [[]]:
            expected = helpers.f_mul(p, modulus, helpers.from_digits(a, p), helpers.from_digits(b, p))
            got = _poly_mulmod(a, b, modulus, p)
            assert helpers.from_digits(got, p) == expected, (a, b)
            assert not got or got[-1], got  # trimmed


def test_field_size_is_checked_before_the_modulus_search(monkeypatch):
    monkeypatch.setattr(gf, "_least_irreducible", lambda p, d: pytest.fail("searched"))
    for spec in ["1000003^4", "1000003^5", "2305843009213693951^4", "2^17"]:
        with pytest.raises(ValueError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
            parse_field_spec(spec)
        with pytest.raises(ValueError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
            make_field(*(int(x) for x in spec.split("^")))
    with pytest.raises(ValueError, match="DEGREE_LIMIT"):
        parse_field_spec(f"2^{10 ** 9}")


def test_prime_field_of_order_65521():
    ctx = make_field(65521, 1)
    assert ctx.modulus == (0, 1)
    # the walk starts at the least primitive root: 65520 = 2^4·3^2·5·7·13
    full_order = [c for c in range(1, 20)
                  if all(pow(c, 65520 // l, 65521) != 1 for l in (2, 3, 5, 7, 13))]
    assert ctx._exp[1] == full_order[0] == _least_primitive(65521, 1, (0, 1))
    for a in (1, 2, 17, 4097, 65520):
        for b in (1, 3, 255, 65519):
            assert ctx.mul(a, b) == a * b % 65521
            assert ctx.add(a, b) == (a + b) % 65521
        assert ctx.inv(a) == pow(a, -1, 65521)
    assert sorted(ctx._exp[:65520]) == list(range(1, 65521))


# --- arithmetic against the digit-tuple oracle ------------------------------

def test_arithmetic_known_values():
    gf2 = make_field(2, 1)
    assert gf2.add(1, 1) == 0
    gf4 = make_field(2, 2)
    assert gf4.mul(2, 2) == 3               # x*x = x+1
    gf5 = make_field(5, 1)
    assert gf5.inv(2) == 3


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_exhaustive_agreement_with_oracle(p, d):
    ctx = make_field(p, d)
    mod = ctx.modulus
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.add(a, b) == helpers.f_add(p, d, a, b)
            assert ctx.mul(a, b) == helpers.f_mul(p, mod, a, b)
        if a:
            assert ctx.inv(a) == helpers.f_inv(p, mod, a)
        for i in range(d):
            assert ctx.frobenius_table(i)[a] == helpers.f_frob(p, mod, a, i)


# every field with q <= 256 under its default modulus, and two irreducible
# moduli under which x is not a generator (x has order 5 and 4)
ORACLE_FIELDS = [
    (p, d, None) for p in range(2, 257) if is_prime(p)
    for d in range(1, 9) if p**d <= 256
] + [(2, 4, (1, 1, 1, 1, 1)), (3, 2, (1, 0, 1))]


@pytest.mark.parametrize("p,d,modulus", ORACLE_FIELDS)
def test_every_operation_matches_the_oracle(p, d, modulus):
    ctx = make_field(p, d, modulus)
    q, mod = ctx.q, ctx.modulus
    elems = range(q)
    # oracle tables, from digit tuples and long division only; the other
    # operations are checked against these
    add = [[helpers.f_add(p, d, a, b) for b in elems] for a in elems]
    mul = [[helpers.f_mul(p, mod, a, b) for b in elems] for a in elems]
    neg = [helpers.f_neg(p, d, a) for a in elems]
    inverse = [None] + [row.index(1) for row in mul[1:]]
    assert [[ctx.add(a, b) for b in elems] for a in elems] == add
    assert [[ctx.mul(a, b) for b in elems] for a in elems] == mul
    assert [ctx.neg(a) for a in elems] == neg
    assert [[ctx.add(a, ctx.neg(b)) for b in elems] for a in elems] == [
        [add[a][nb] for nb in neg] for a in elems]
    assert [ctx.inv(a) for a in range(1, q)] == inverse[1:]
    for a in elems:  # inner products, including terms that cancel
        b = (7 * a + 3) % q
        ab, aa = mul[a][b], mul[a][a]
        assert ctx.inner_products((a, b, a, 0), 1, 4, (b, 1, a, b), 1) == [add[add[ab][b]][aa]]
        assert ctx.inner_products((a, neg[a], b), 1, 3, (b, b, 1), 1) == [b]
    frob = list(elems)  # a -> a^(p^i), i = 0, 1, ..., d-1
    for i in range(d):
        assert ctx.frobenius_table(i) == frob
        frob = [_table_pow(mul, x, p) for x in frob]


def _table_pow(mul, a: int, n: int) -> int:
    out = 1
    for _ in range(n):
        out = mul[out][a]
    return out


def _ctx_pow(ctx, a: int, n: int) -> int:
    """a^n for n >= 1 by n - 1 calls of `ctx.mul`."""
    out = a
    for _ in range(n - 1):
        out = ctx.mul(out, a)
    return out


def test_primitive_element_is_the_least_of_full_order():
    # x^2+1 over GF(3): x has order 4, so the least generator of GF(9)* is x+1
    assert _least_primitive(3, 2, (1, 0, 1)) == 4
    # x^4+x^3+x^2+x+1 over GF(2): x has order 5; x+1 has order 15
    assert _least_primitive(2, 4, (1, 1, 1, 1, 1)) == 3
    assert _least_primitive(2, 4, (1, 1, 0, 0, 1)) == 2   # x itself
    assert _least_primitive(2, 1, (0, 1)) == 1            # GF(2)* = {1}
    assert _least_primitive(7, 1, (0, 1)) == 3


@pytest.mark.parametrize("p,d", [(2, 8), (8191, 1), (2, 16)])
def test_no_field_table_exceeds_2q_entries(p, d):
    ctx = make_field(p, d)
    for i in range(d):
        ctx.frobenius_table(i)
    held = [getattr(ctx, name) for name in FiniteField.__slots__]
    lists = [x for x in held if isinstance(x, list)]
    lists += [t for x in held if isinstance(x, dict) for t in x.values()]
    assert lists and max(len(t) for t in lists) <= 2 * ctx.q


def test_field_size_bound_is_checked_before_any_table(monkeypatch):
    monkeypatch.setattr(FiniteField, "_build_tables",
                        lambda self: pytest.fail("field tables built"))
    for p, d, modulus in [(2, 17, None), (65537, 1, None), (3, 11, None)]:
        with pytest.raises(ValueError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
            make_field(p, d, modulus)
    assert FIELD_LIMIT == 1 << 16


def test_field_axioms_exhaustive_small(fields):
    # every field of order <= 16 in the roster, all triples
    for (p, d), ctx in fields.items():
        if ctx.q > 16:
            continue
        elems = range(ctx.q)
        for a in elems:
            assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
            assert ctx.add(a, ctx.neg(a)) == 0
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
            for b in elems:
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                for c in elems:
                    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_division_and_errors():
    gf9 = make_field(3, 2)
    for a in range(9):
        for b in range(1, 9):
            assert gf9.mul(gf9.mul(a, gf9.inv(b)), b) == a
    with pytest.raises(ZeroDivisionError):
        gf9.inv(0)


def test_multiplicative_group_order():
    gf8 = make_field(2, 3)
    for a in range(1, 8):
        assert _ctx_pow(gf8, a, 7) == 1      # multiplicative group order 7
        assert _ctx_pow(gf8, a, 6) == gf8.inv(a)


# --- frobenius ---------------------------------------------------------------

def test_frobenius_known_values():
    gf4 = make_field(2, 2)
    frob = gf4.frobenius_table
    assert frob(1)[2] == 3
    assert all(frob(0)[a] == a for a in range(4))
    assert all(frob(1)[frob(1)[a]] == a for a in range(4))


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_frobenius_is_field_automorphism(p, d):
    ctx = make_field(p, d)
    for i in range(d):
        frob = ctx.frobenius_table(i)
        assert len(set(frob)) == ctx.q      # bijective
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert frob[ctx.add(a, b)] == ctx.add(frob[a], frob[b])
                assert frob[ctx.mul(a, b)] == ctx.mul(frob[a], frob[b])


def test_frobenius_exponents_compose_mod_d():
    frob = make_field(2, 3).frobenius_table
    for a in range(8):
        for i in range(3):
            for j in range(3):
                assert frob(j)[frob(i)[a]] == frob((i + j) % 3)[a] == frob(i + j)[a]


def test_fixed_field_of_frobenius_is_prime_field():
    ctx = make_field(3, 2)
    fixed = [a for a in range(9) if ctx.frobenius_table(1)[a] == a]
    assert fixed == [0, 1, 2]


# --- identity and hashing ----------------------------------------------------

def test_context_equality_and_mixing():
    a, b = make_field(2, 2), make_field(2, 2)
    assert a == b and hash(a) == hash(b)
    assert make_field(3, 2, (1, 0, 1)) != make_field(3, 2, (2, 2, 1))


def test_elements_enumeration(fields):
    # the codes 0..q-1 are the field: every nonzero one is exactly one
    # power c^k, k in [0, q-1), of the primitive element
    for ctx in fields.values():
        assert sorted(ctx._exp[:ctx.q - 1]) == list(range(1, ctx.q))


def test_element_str_is_the_polynomial_form():
    assert [poly_str(helpers.to_digits(a, 3, 2)) for a in range(9)] == [
        "0", "1", "2", "x", "1+x", "2+x", "2x", "1+2x", "2+2x"]
    assert poly_str(helpers.to_digits(6, 2, 3)) == "x+x^2"


# --- row reduction -------------------------------------------------------------

def _check_eliminate(ctx, rows):
    """Both modes of `eliminate` against the digit-arithmetic rref: the
    upward pass gives its rows and pivots; the forward pass gives its
    pivots, echelon rows spanning the input, and zero rows after them."""
    p, mod = ctx.p, ctx.modulus
    want, pivots = helpers.rref(p, mod, rows)
    reduced = [list(r) for r in rows]
    assert (ctx.eliminate(reduced, reduce_up=True), reduced) == (pivots, want)
    forward = [list(r) for r in rows]
    assert ctx.eliminate(forward, reduce_up=False) == pivots
    k = len(pivots)
    assert [next(j for j, x in enumerate(r) if x) for r in forward[:k]] == pivots
    assert not any(x for r in forward[k:] for x in r)
    if rows:
        m = len(rows[0])
        assert helpers.span_set(p, mod, forward[:k], m) == helpers.span_set(p, mod, rows, m)


@pytest.mark.parametrize("p,n,m", [(3, 2, 3), (2, 3, 3)])
def test_eliminate_matches_the_oracle_on_every_matrix(p, n, m):
    ctx = make_field(p, 1)
    for code in range(p ** (n * m)):
        digits = helpers.to_digits(code, p, n * m)
        _check_eliminate(ctx, [list(digits[i * m:(i + 1) * m]) for i in range(n)])


def test_eliminate_takes_no_rows():
    ctx = make_field(3, 2)
    assert ctx.eliminate([], reduce_up=True) == ctx.eliminate([], reduce_up=False) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]), st.data())
def test_property_eliminate_matches_the_oracle(params, data):
    ctx = make_field(*params)
    q, mod = ctx.q, ctx.modulus
    elem = st.integers(0, q - 1)
    # up to 4 rows (tall) or 4 columns (wide), with at most q^n <= 729
    # combinations for each span the check enumerates
    n = data.draw(st.integers(1, max(k for k in range(1, 5) if q ** k <= 729)), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    rows: list[list[int]] = []
    for _ in range(n):
        fresh = st.lists(elem, min_size=m, max_size=m)
        zero = st.just([0] * m)
        if rows:  # a repeated row, as it is or times a scalar
            repeat = st.tuples(st.sampled_from(rows), elem).map(
                lambda t: list(helpers.vec_scale(ctx.p, mod, t[1], t[0])))
            rows.append(data.draw(st.one_of(fresh, zero, st.sampled_from(rows), repeat)))
        else:
            rows.append(data.draw(st.one_of(fresh, zero)))
    _check_eliminate(ctx, rows)


# --- hypothesis properties -----------------------------------------------------

field_params = st.sampled_from(SMALL_FIELDS)


@settings(max_examples=200, deadline=None)
@given(field_params, st.data())
def test_property_ring_identities(params, data):
    ctx = make_field(*params)
    elem = st.integers(min_value=0, max_value=ctx.q - 1)
    a, b, c = data.draw(elem), data.draw(elem), data.draw(elem)
    assert ctx.add(ctx.add(a, b), ctx.neg(b)) == a
    assert ctx.mul(a, ctx.add(b, ctx.neg(c))) == ctx.add(ctx.mul(a, b), ctx.neg(ctx.mul(a, c)))
    if b != 0:
        assert ctx.mul(ctx.mul(a, ctx.inv(b)), b) == a


@settings(max_examples=200, deadline=None)
@given(field_params, st.data())
def test_property_frobenius_power_of_p(params, data):
    p, d = params
    ctx = make_field(p, d)
    a = data.draw(st.integers(min_value=0, max_value=ctx.q - 1))
    i = data.draw(st.integers(min_value=0, max_value=d - 1))
    assert ctx.frobenius_table(i)[a] == _ctx_pow(ctx, a, p ** i)
