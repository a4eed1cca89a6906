"""Exact arithmetic in small finite fields GF(p^d).

A field is a polynomial ring GF(p)[x] modulo a monic irreducible polynomial
of degree d.  Elements are encoded as a single integer code in [0, q),
q = p^d: the base-p digits of the code, little-endian, are the coefficients
of the representative polynomial of degree < d.  Code 0 is the additive
identity and code 1 the multiplicative identity, and two elements are equal
iff their codes are equal.

Every field automorphism of GF(p^d) is a power of the Frobenius map
a -> a^p; `FiniteField.frobenius(a, i)` applies a -> a^(p^i).

Fields here are tiny by design (the enumeration workloads cap q at single
digits), so arithmetic is table-driven: add/mul/inv tables are built once at
construction for q <= TABLE_LIMIT and everything is a flat-list lookup.
Irreducibility is checked by exhaustive trial division, and the default
modulus is the lexicographically least irreducible (coefficients read as a
little-endian base-p integer), so results are reproducible bit-for-bit
across runs and machines.
"""

from __future__ import annotations

from functools import reduce

# Largest field order for which lookup tables are precomputed.  Larger
# fields fall back to direct polynomial arithmetic per operation.
TABLE_LIMIT = 1 << 12


def is_prime(n: int) -> bool:
    """Trial-division primality check; fields here are tiny."""
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _code_to_digits(code: int, p: int, d: int) -> list[int]:
    digits = []
    for _ in range(d):
        code, r = divmod(code, p)
        digits.append(r)
    return digits


def _digits_to_code(digits: list[int], p: int) -> int:
    return reduce(lambda acc, c: acc * p + c, reversed(digits), 0)


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """(a * b) mod modulus over GF(p); coefficient lists are little-endian."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    d = len(modulus) - 1
    # modulus is monic: x^d = -(lower part), eliminate top terms in place
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(d):
                prod[k - d + j] = (prod[k - d + j] - c * modulus[j]) % p
    return _poly_trim(prod)


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over GF(p); b need not be monic."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - db
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - factor * bj) % p
        _poly_trim(a)
    return a


def _monic_polys(p: int, degree: int):
    """All monic polynomials of the given degree over GF(p), little-endian."""
    for low in range(p**degree):
        digits = []
        c = low
        for _ in range(degree):
            c, r = divmod(c, p)
            digits.append(r)
        yield digits + [1]


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= d/2."""
    d = len(modulus) - 1
    if d < 1:
        return False
    poly = list(modulus)
    for deg in range(1, d // 2 + 1):
        for divisor in _monic_polys(p, deg):
            if not _poly_rem(poly, divisor, p):
                return False
    return True


def _least_irreducible(p: int, d: int) -> tuple[int, ...]:
    # Lex-least means the lower coefficients, read little-endian base p,
    # are minimal; the leading 1 is shared by every candidate.
    for candidate in _monic_polys(p, d):
        if is_irreducible(tuple(candidate), p):
            return tuple(candidate)
    raise AssertionError(f"no irreducible degree-{d} polynomial over GF({p})")


def poly_str(coeffs) -> str:
    """Polynomial form of a little-endian coefficient list, e.g. "1+x+x^2"."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            coeff = "" if c == 1 else str(c)
            power = "x" if k == 1 else f"x^{k}"
            terms.append(coeff + power)
    return "+".join(terms) or "0"


def spec_str(p: int, d: int, modulus: tuple[int, ...]) -> str:
    """Canonical field spec string "p^d/c_0,c_1,...,c_d" (little-endian)."""
    return f"{p}^{d}/{','.join(str(c) for c in modulus)}"


class FiniteField:
    """GF(p^d) with a fixed monic irreducible modulus; owns element arithmetic.

    Immutable after construction and safe to share across workers.  All
    operations take and return element codes (plain ints in [0, q)).
    """

    __slots__ = (
        "p", "d", "q", "modulus",
        "_add", "_sub", "_mul", "_inv", "_frob",
    )

    def __init__(self, p: int, d: int, modulus: tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus
        self._frob: dict[int, list[int]] = {}
        if self.q <= TABLE_LIMIT:
            self._build_tables()
        else:
            self._add = self._sub = self._mul = self._inv = None

    def _build_tables(self) -> None:
        p, d, q = self.p, self.d, self.q
        digits = [_code_to_digits(a, p, d) for a in range(q)]
        add = [0] * (q * q)
        sub = [0] * (q * q)
        mul = [0] * (q * q)
        for a in range(q):
            da = digits[a]
            for b in range(q):
                db = digits[b]
                add[a * q + b] = _digits_to_code([(x + y) % p for x, y in zip(da, db)], p)
                sub[a * q + b] = _digits_to_code([(x - y) % p for x, y in zip(da, db)], p)
                mul[a * q + b] = _digits_to_code(
                    _poly_mulmod(_poly_trim(list(da)), _poly_trim(list(db)), self.modulus, p)
                    + [0] * d, p)
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
        self._add, self._sub, self._mul, self._inv = add, sub, mul, inv

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a * self.q + b]
        da = _code_to_digits(a, self.p, self.d)
        db = _code_to_digits(b, self.p, self.d)
        return _digits_to_code([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def sub(self, a: int, b: int) -> int:
        if self._sub is not None:
            return self._sub[a * self.q + b]
        da = _code_to_digits(a, self.p, self.d)
        db = _code_to_digits(b, self.p, self.d)
        return _digits_to_code([(x - y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a * self.q + b]
        da = _poly_trim(_code_to_digits(a, self.p, self.d))
        db = _poly_trim(_code_to_digits(b, self.p, self.d))
        res = _poly_mulmod(da, db, self.modulus, self.p)
        return _digits_to_code(res + [0] * self.d, self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        """a**n by square-and-multiply; negative n inverts first."""
        if n < 0:
            a, n = self.inv(a), -n
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def frobenius(self, a: int, exponent: int) -> int:
        """Apply the automorphism a -> a^(p^exponent); exponent taken mod d."""
        return self.frobenius_table(exponent)[a]

    def frobenius_table(self, exponent: int) -> list[int]:
        """Permutation table of a -> a^(p^i) on all q codes, cached per i."""
        i = exponent % self.d
        table = self._frob.get(i)
        if table is None:
            if i == 0:
                table = list(range(self.q))
            else:
                prev = self.frobenius_table(i - 1)
                table = [self.pow(prev[a], self.p) for a in range(self.q)]
            self._frob[i] = table
        return table

    def elements(self) -> range:
        """All q element codes in canonical order 0, 1, ..., q-1."""
        return range(self.q)

    # -- identity & debugging ------------------------------------------------

    @property
    def spec(self) -> str:
        """Canonical field spec string "p^d/c_0,c_1,...,c_d" (little-endian)."""
        return spec_str(self.p, self.d, self.modulus)

    def element_str(self, a: int) -> str:
        """Human-readable polynomial form of an element code."""
        return poly_str(_code_to_digits(a, self.p, self.d))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.modulus))

    def __repr__(self) -> str:
        return f"FiniteField({self.spec})"


def validate_field(p: int, d: int, modulus=None) -> tuple[int, int, tuple[int, ...]]:
    """Validate (or choose) the modulus polynomial of GF(p^d); no tables.

    When `modulus` is omitted the lexicographically least monic irreducible
    of degree d is used, so the same (p, d) always yields the same field
    representation.  A supplied modulus must be monic of degree exactly d
    with coefficients in [0, p) and irreducible over GF(p).
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if d < 1:
        raise ValueError(f"extension degree d = {d} must be >= 1")
    if modulus is None:
        modulus = _least_irreducible(p, d)
    else:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != d + 1:
            raise ValueError(f"modulus must have degree {d} (d+1 = {d + 1} coefficients)")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
    return p, d, modulus


def make_field(p: int, d: int, modulus=None) -> FiniteField:
    """Construct GF(p^d) on the modulus `validate_field` validates or chooses."""
    return FiniteField(*validate_field(p, d, modulus))


# fields by (p, d, modulus), shared by every chunk a process runs
_FIELDS: dict[tuple, FiniteField] = {}


def field_key(ctx: FiniteField) -> tuple:
    """(p, d, modulus): what a chunk task carries instead of the field.

    Also files ctx under that key, so chunks run in this process, or in a
    worker forked from it, find it in `cached_field` without rebuilding.
    """
    key = (ctx.p, ctx.d, ctx.modulus)
    _FIELDS.setdefault(key, ctx)
    return key


def cached_field(p: int, d: int, modulus: tuple[int, ...]) -> FiniteField:
    """The field for a chunk task, built at most once per process."""
    ctx = _FIELDS.get((p, d, modulus))
    if ctx is None:
        ctx = _FIELDS[(p, d, modulus)] = make_field(p, d, modulus)
    return ctx


def parse_spec(spec: str) -> tuple[int, int, tuple[int, ...]]:
    """Parse "p^d" or "p^d/c_0,c_1,...,c_d" (little-endian coefficients)
    and validate it, without building the field's tables."""
    spec = spec.strip()
    body, _, mod_part = spec.partition("/")
    try:
        p_str, _, d_str = body.partition("^")
        p = int(p_str)
        d = int(d_str) if d_str else 1
    except ValueError:
        raise ValueError(f"malformed field spec {spec!r}; expected 'p^d' or 'p^d/c0,c1,...'")
    modulus = None
    if mod_part:
        try:
            modulus = tuple(int(c) for c in mod_part.split(","))
        except ValueError:
            raise ValueError(f"malformed modulus in field spec {spec!r}")
    return validate_field(p, d, modulus)


def parse_field_spec(spec: str) -> FiniteField:
    """The field a spec string names; see `parse_spec`."""
    return FiniteField(*parse_spec(spec))
