"""Field construction, arithmetic, and Frobenius."""

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from semicount.gf import (
    FIELD_LIMIT,
    FiniteField,
    _least_primitive,
    is_irreducible,
    is_prime,
    make_field,
    parse_field_spec,
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


def test_parse_field_spec_roundtrip():
    ctx = parse_field_spec("3^2/1,0,1")
    assert (ctx.p, ctx.d, ctx.modulus) == (3, 2, (1, 0, 1))
    assert parse_field_spec("5").q == 5
    assert parse_field_spec(parse_field_spec("2^2").spec) == make_field(2, 2)
    with pytest.raises(ValueError):
        parse_field_spec("abc")
    with pytest.raises(ValueError):
        parse_field_spec("2^2/1,x,1")


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
            assert ctx.frobenius(a, i) == helpers.f_frob(p, mod, a, i)


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
    assert [[ctx.sub(a, b) for b in elems] for a in elems] == [
        [add[a][nb] for nb in neg] for a in elems]
    assert [ctx.inv(a) for a in range(1, q)] == inverse[1:]
    assert [[ctx.div(a, b) for b in range(1, q)] for a in elems] == [
        [mul[a][ib] for ib in inverse[1:]] for a in elems]
    exponents = sorted({0, 1, 2, p, q - 2, q - 1, q, 2 * q + 1})
    for a in elems:
        powers = [1]  # a^n for n = 0, 1, ..., 2q + 1
        for _ in range(2 * q + 1):
            powers.append(mul[powers[-1]][a])
        assert [ctx.pow(a, n) for n in exponents] == [powers[n] for n in exponents]
        if a:
            assert ctx.pow(a, -1) == inverse[a] and ctx.pow(a, -q) == inverse[a]
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
        elems = list(ctx.elements())
        assert elems == list(range(ctx.q))
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
            assert gf9.mul(gf9.div(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        gf9.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf9.div(1, 0)


def test_pow():
    gf8 = make_field(2, 3)
    for a in range(1, 8):
        assert gf8.pow(a, 7) == 1            # multiplicative group order 7
        assert gf8.pow(a, 0) == 1
        assert gf8.pow(a, -1) == gf8.inv(a)
    assert gf8.pow(0, 3) == 0


# --- frobenius ---------------------------------------------------------------

def test_frobenius_known_values():
    gf4 = make_field(2, 2)
    assert gf4.frobenius(2, 1) == 3
    assert all(gf4.frobenius(a, 0) == a for a in range(4))
    assert all(gf4.frobenius(gf4.frobenius(a, 1), 1) == a for a in range(4))


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_frobenius_is_field_automorphism(p, d):
    ctx = make_field(p, d)
    for i in range(d):
        images = {ctx.frobenius(a, i) for a in range(ctx.q)}
        assert len(images) == ctx.q          # bijective
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert ctx.frobenius(ctx.add(a, b), i) == ctx.add(
                    ctx.frobenius(a, i), ctx.frobenius(b, i))
                assert ctx.frobenius(ctx.mul(a, b), i) == ctx.mul(
                    ctx.frobenius(a, i), ctx.frobenius(b, i))


def test_frobenius_exponents_compose_mod_d():
    ctx = make_field(2, 3)
    for a in range(8):
        for i in range(3):
            for j in range(3):
                assert ctx.frobenius(ctx.frobenius(a, i), j) == ctx.frobenius(a, (i + j) % 3)


def test_fixed_field_of_frobenius_is_prime_field():
    ctx = make_field(3, 2)
    fixed = [a for a in range(9) if ctx.frobenius(a, 1) == a]
    assert fixed == [0, 1, 2]


# --- identity and hashing ----------------------------------------------------

def test_context_equality_and_mixing():
    a, b = make_field(2, 2), make_field(2, 2)
    assert a == b and hash(a) == hash(b)
    assert make_field(3, 2, (1, 0, 1)) != make_field(3, 2, (2, 2, 1))


def test_elements_enumeration(fields):
    for ctx in fields.values():
        assert list(ctx.elements()) == list(range(ctx.q))


def test_element_str_is_the_polynomial_form(fields):
    assert [fields[(3, 2)].element_str(a) for a in range(9)] == [
        "0", "1", "2", "x", "1+x", "2+x", "2x", "1+2x", "2+2x"]
    assert fields[(2, 3)].element_str(6) == "x+x^2"


# --- hypothesis properties -----------------------------------------------------

field_params = st.sampled_from(SMALL_FIELDS)


@settings(max_examples=200, deadline=None)
@given(field_params, st.data())
def test_property_ring_identities(params, data):
    ctx = make_field(*params)
    elem = st.integers(min_value=0, max_value=ctx.q - 1)
    a, b, c = data.draw(elem), data.draw(elem), data.draw(elem)
    assert ctx.sub(ctx.add(a, b), b) == a
    assert ctx.mul(a, ctx.sub(b, c)) == ctx.sub(ctx.mul(a, b), ctx.mul(a, c))
    if b != 0:
        assert ctx.mul(ctx.div(a, b), b) == a


@settings(max_examples=200, deadline=None)
@given(field_params, st.data())
def test_property_frobenius_power_of_p(params, data):
    p, d = params
    ctx = make_field(p, d)
    a = data.draw(st.integers(min_value=0, max_value=ctx.q - 1))
    i = data.draw(st.integers(min_value=0, max_value=d - 1))
    assert ctx.frobenius(a, i) == ctx.pow(a, p ** i)
