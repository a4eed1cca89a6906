"""Exact arithmetic in small finite fields GF(p^d).

A field is a polynomial ring GF(p)[x] modulo a monic irreducible polynomial
of degree d.  Elements are encoded as a single integer code in [0, q),
q = p^d: the base-p digits of the code, little-endian, are the coefficients
of the representative polynomial of degree < d.  Code 0 is the additive
identity and code 1 the multiplicative identity, and two elements are equal
iff their codes are equal.

Every field automorphism of GF(p^d) is a power of the Frobenius map
a -> a^p; `FiniteField.frobenius_table(i)[a]` is a^(p^i).

Arithmetic runs on log/antilog tables (Lidl & Niederreiter, *Finite
Fields*, ch. 9).  The least primitive element c is found once; `exp` lists
c^k for k in [0, 2(q-1)) and `log` inverts it, so a product is
exp[log a + log b], an inverse exp[q-1 - log a], and Frobenius images
are index arithmetic on logs.  A sum is the XOR of codes when
p = 2; for odd p it goes through the Zech logarithm
zech[k] = log(1 + c^k), since a + b = c^(log a) * (1 + c^(log b - log a)).
Every table holds O(q) entries and is built in about O(q) steps, and the
codes are the polynomial-basis codes above, whatever c is.  Fields with
more than FIELD_LIMIT elements are refused at construction, so a field is
always small enough to tabulate.

Irreducibility is decided by Ben-Or's test and primality by deterministic
Miller-Rabin, so validating a field spec takes time polynomial in d and
log p.  The default modulus is the lexicographically least irreducible
(coefficients read as a little-endian base-p integer), so results are
reproducible bit-for-bit across runs and machines.  The degree is bounded
by DEGREE_LIMIT and the search for the default modulus by SEARCH_LIMIT
units of work, so no spec keeps a validation running unbounded.
"""

from __future__ import annotations

from itertools import zip_longest

# Largest field order a FiniteField is built for; parse_spec and
# validate_field, which build no tables, accept larger ones.
FIELD_LIMIT = 1 << 16

# Largest extension degree d accepted, with or without a modulus.
DEGREE_LIMIT = 64

# Work the default-modulus search may spend on reducible candidates before
# it gives up, in the units `_ben_or` counts: about 30-100 ns each in
# CPython, so a refused search ends within about a second.  Every field
# with at most FIELD_LIMIT elements finds its modulus among the first 65
# candidates, for at most 23,048 units (GF(3^9)).  The search runs past
# about p candidates only when no binomial x^d + c is irreducible (x^4 + c
# when p = 3 mod 4, x^3 + c when p = 2 mod 3); at large d a candidate that
# runs many rounds costs up to a few 10^5 units.
SEARCH_LIMIT = 10_000_000

# Work charged per polynomial product or gcd on top of its coefficient
# operations: the interpreter's call overhead, which dominates at small d.
_CALL_WORK = 32


# Miller-Rabin with the first 13 primes as bases is proven to decide
# primality for every n below PRIME_LIMIT (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at n >= PRIME_LIMIT,
    where these bases are not proven to decide."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is too large to test for primality "
                         f"(the bound is PRIME_LIMIT = {PRIME_LIMIT})")
    if n < 2:
        return False
    for b in PRIME_BASES:
        if n % b == 0:
            return n == b
    # n - 1 = m·2^k with m odd; n is prime iff no base witnesses otherwise
    m, k = n - 1, 0
    while m % 2 == 0:
        m, k = m // 2, k + 1
    for b in PRIME_BASES:
        x = pow(b, m, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(code: int, base: int, n: int) -> list[int]:
    """The n little-endian base-`base` digits of a code."""
    digits = []
    for _ in range(n):
        code, r = divmod(code, base)
        digits.append(r)
    return digits


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """(a * b) mod modulus over GF(p); coefficient lists are little-endian."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, modulus, p)


def _poly_rem(a: list[int], b: tuple[int, ...] | list[int], p: int) -> list[int]:
    """Remainder of a by a monic b over GF(p)."""
    a = list(a)
    db = len(b) - 1
    while len(a) > db:  # b[db] = 1 cancels the top term of a, which pop removes
        c = a.pop()
        if c:
            shift = len(a) - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
    return _poly_trim(a)


def _monic_polys(p: int, degree: int):
    """All monic polynomials of the given degree over GF(p), little-endian."""
    for low in range(p**degree):
        yield _digits(low, p, degree) + [1]


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic f of degree d >= 1 over GF(p); see `_ben_or`."""
    return _ben_or(modulus, p)[0]


def _ben_or(modulus: tuple[int, ...], p: int) -> tuple[bool, int]:
    """Ben-Or's test and the work it took.

    f is irreducible iff gcd(x^(p^i) - x, f) = 1 for every i <= d/2, since
    x^(p^i) - x is the product of the monic irreducibles of degree
    dividing i (Ben-Or, FOCS 1981).  It stops at the first factor found,
    so a reducible candidate mostly costs one p-th power; later p-th
    powers apply the matrix of the GF(p)-linear map a -> a^p mod f.

    The work counts the coefficient operations of the rounds actually
    run, read off the sizes of the polynomials involved: about log2(p)
    products with x^p mod f for the first p-th power, the matrix rows
    once, and a matrix product and a gcd per round, each product or gcd
    also charged _CALL_WORK.
    """
    d = len(modulus) - 1
    if d < 2:
        return d == 1, 0
    f = list(modulus)
    xp = _poly_powmod([0, 1], p, modulus, p)
    work = p.bit_length() * (d * (len(xp) - xp.count(0)) + _CALL_WORK)
    rows = [[1]]  # rows[j] = x^(jp) mod f, built up to j < d in round 2
    h = xp  # x^(p^i) mod f
    for i in range(1, d // 2 + 1):
        if i > 1:
            if i == 2:
                for _ in range(d - 1):
                    rows.append(_poly_mulmod(rows[-1], xp, modulus, p))
                work += len(xp) * sum(len(row) - row.count(0) for row in rows) + d * _CALL_WORK
            acc = [0] * d
            for c, row in zip(h, rows):  # h^p = sum of h_j·x^(jp), as h_j^p = h_j
                for j, y in enumerate(row):
                    acc[j] += c * y
            h = _poly_trim([v % p for v in acc])
        work += 2 * d * len(h) + _CALL_WORK
        a, b = f, _poly_trim([(u - v) % p for u, v in zip_longest(h, [0, 1], fillvalue=0)])
        while b:  # Euclid: a ends as gcd(f, x^(p^i) - x), up to a unit
            inv = pow(b[-1], -1, p)  # a mod b = a mod b/lead(b), which is monic
            a, b = b, _poly_rem(a, [x * inv % p for x in b], p)
        if len(a) > 1:
            return False, work
    return True, work


def _least_irreducible(p: int, d: int) -> tuple[int, ...]:
    # Lex-least means the lower coefficients, read little-endian base p,
    # are minimal; the leading 1 is shared by every candidate.
    spent = 0
    for candidate in _monic_polys(p, d):
        irreducible, work = _ben_or(tuple(candidate), p)
        if irreducible:
            return tuple(candidate)
        spent += work
        if spent > SEARCH_LIMIT:
            break
    raise ValueError(f"no irreducible modulus of degree {d} over GF({p}) found within "
                     f"SEARCH_LIMIT = {SEARCH_LIMIT} units of search work; pass the modulus "
                     f"explicitly, as '{p}^{d}/c0,c1,...,c{d}'")


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_powmod(a: list[int], n: int, modulus: tuple[int, ...], p: int) -> list[int]:
    """a^n mod modulus, for a already reduced, by square and multiply."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else _poly_mulmod(result, a, modulus, p)
        n >>= 1
        if n:
            a = _poly_mulmod(a, a, modulus, p)
    return [1] if result is None else result


def _least_primitive(p: int, d: int, modulus: tuple[int, ...]) -> int:
    """Least code of multiplicative order q - 1: c^((q-1)/l) != 1 for
    every prime l dividing q - 1."""
    n = p**d - 1
    primes = _prime_factors(n)
    for c in range(1, n + 1):
        a = _poly_trim(_digits(c, p, d))
        if all(_poly_powmod(a, n // l, modulus, p) != [1] for l in primes):
            return c
    raise _not_a_field(p, d, modulus)


def _not_a_field(p: int, d: int, modulus) -> ValueError:
    return ValueError(f"GF({p})[x] modulo {modulus} is not a field of {p}^{d} elements")


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


def _check_field_size(p: int, d: int) -> None:
    if p**d > FIELD_LIMIT:
        raise ValueError(f"GF({p}^{d}) has {p**d} elements, "
                         f"above the field-size bound FIELD_LIMIT = {FIELD_LIMIT}")


class FiniteField:
    """GF(p^d) with a fixed monic irreducible modulus; owns element arithmetic.

    Immutable after construction and safe to share across workers.  All
    operations take and return element codes (plain ints in [0, q)).
    """

    __slots__ = ("p", "d", "q", "modulus", "_exp", "_log", "_zech", "_frob")

    def __init__(self, p: int, d: int, modulus: tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus
        _check_field_size(p, d)
        self._frob: dict[int, list[int]] = {}
        self._build_tables()

    def _build_tables(self) -> None:
        p, d, q, modulus = self.p, self.d, self.q, self.modulus
        if len(modulus) != d + 1 or modulus[-1] != 1 or not all(0 <= x < p for x in modulus):
            raise _not_a_field(p, d, modulus)
        n = q - 1
        c = _least_primitive(p, d, modulus)
        exp, log = [0] * (2 * n), [0] * q  # log[0] is never read
        if d == 1:  # codes are residues mod p: the walk steps a -> c·a % p
            a = 1
            for k in range(n):
                exp[k] = exp[k + n] = a
                log[a] = k
                a = a * c % p
        else:
            # a -> c·a is GF(p)-linear in the digits of a.  Split
            # a = lo + H·hi: the images of lo and of H·hi are listed with
            # their digits in base W = 2p - 1, so the integer sum of two
            # keeps each digit sum in its own place, and two more lists
            # reduce the low and the high places mod p back to a code.  One
            # step of the walk c^k -> c^(k+1) is then four lookups and a few
            # integer operations, and no list exceeds 2q entries.
            c = _poly_trim(_digits(c, p, d))
            h = (d + 1) // 2
            H, W = p**h, 2 * p - 1
            Wh = W**h

            def image(u: int) -> int:
                digits = _poly_mulmod(_poly_trim(_digits(u, p, d)), c, modulus, p)
                return sum(x * W**j for j, x in enumerate(digits))

            def reduce_places(size: int) -> list[int]:
                out = [0] * size
                for s in range(1, size):
                    out[s] = s % W % p + p * out[s // W]
                return out

            lo = [image(u) for u in range(H)]
            hi = [image(H * v) for v in range(q // H)]
            low, high = reduce_places(Wh), reduce_places(W ** (d - h))
            a = 1
            for k in range(n):
                exp[k] = exp[k + n] = a
                log[a] = k
                s = lo[a % H] + hi[a // H]
                a = low[s % Wh] + H * high[s // Wh]
        if a != 1:  # no proper divisor of q - 1 is c's order, so 1 here means a field
            raise _not_a_field(p, d, modulus)
        self._exp, self._log, self._zech = exp, log, None
        if p == 2:
            return
        # zech[k] = log(1 + c^k); adding 1 changes digit 0 only, and
        # 1 + c^k = 0 (c^k = -1) has no log.  Listed twice, so that every
        # index in (-2(q-1), 2(q-1)) reads zech[k mod (q-1)].
        zech = [None] * n
        for k in range(n):
            e = exp[k]
            one = e + 1 if e % p != p - 1 else e + 1 - p
            if one:
                zech[k] = log[one]
        self._zech = zech + zech

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        zech = self._zech
        if zech is None:  # characteristic 2
            return a ^ b
        if a and b:  # a + b = a·(1 + b/a)
            log = self._log
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else self._exp[la + z]
        return a or b

    def neg(self, a: int) -> int:
        if self._zech is None or not a:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def mul(self, a: int, b: int) -> int:
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inner_products(self, a, n: int, m: int, b, k: int) -> list[int]:
        """Entries of the product of the n×m matrix `a` and the m×k matrix
        `b`, all flat and row-major; the tables are bound once per call."""
        exp, log, zech = self._exp, self._log, self._zech
        out = []
        for i in range(n):
            base = i * m
            for j in range(k):
                s = 0
                for t in range(m):
                    x = a[base + t]
                    if x:
                        y = b[t * k + j]
                        if not y:
                            continue
                        if zech is None:
                            s ^= exp[log[x] + log[y]]
                        elif s:  # s + x·y = s·(1 + x·y/s)
                            ls = log[s]
                            z = zech[log[x] + log[y] - ls]
                            s = 0 if z is None else exp[ls + z]
                        else:
                            s = exp[log[x] + log[y]]
                out.append(s)
        return out

    def sub_scaled(self, w: list[int], c: int, u, start: int = 0) -> None:
        """The row update w[j] <- w[j] - c·u[j] for every j >= start, in
        place, for c != 0; the tables are bound once per call."""
        exp, log, zech = self._exp, self._log, self._zech
        if zech is None:  # characteristic 2: subtracting is adding
            lc = log[c]
            for j in range(start, len(w)):
                y = u[j]
                if y:
                    w[j] ^= exp[lc + log[y]]
            return
        n = self.q - 1
        lc = (log[c] + n // 2) % n  # log(-c)
        for j in range(start, len(w)):
            y = u[j]
            if y:
                t = lc + log[y]  # log(-c·y)
                x = w[j]
                if x:  # x + c^t = x·(1 + c^(t - log x))
                    lx = log[x]
                    z = zech[t - lx]
                    w[j] = 0 if z is None else exp[lx + z]
                else:
                    w[j] = exp[t]

    def eliminate(self, rows: list[list[int]], reduce_up: bool) -> list[int]:
        """Gaussian elimination on equal-length rows in place, taking the
        first nonzero entry of the leftmost column that has one as pivot;
        returns the pivot columns.  With `reduce_up` the rows end in reduced
        row echelon form.  Without it (the forward pass) a pivot row keeps
        its leading entry `lead` and only the rows below are cleared, each
        by c/lead; the first len(pivots) rows then span the input and the
        rest are zero.  The tables are bound once per call; `exp` repeats
        with period q - 1, so a negative index into it is right too."""
        exp, log, sub_scaled = self._exp, self._log, self.sub_scaled
        n, m = len(rows), len(rows[0]) if rows else 0
        pivots, r = [], 0
        for col in range(m):
            for i in range(r, n):
                if rows[i][col]:
                    break
            else:
                continue
            src = rows[i]
            rows[i], rows[r] = rows[r], src
            ll = log[src[col]]  # log lead
            if reduce_up and ll:  # divide the pivot row by lead, which becomes 1
                rows[r] = src = [exp[log[x] - ll] if x else 0 for x in src]
                ll = 0
            for i in range(n) if reduce_up else range(r + 1, n):
                c = rows[i][col]
                if c and i != r:
                    sub_scaled(rows[i], exp[log[c] - ll], src, col)
            pivots.append(col)
            r += 1
            if r == n:
                break
        return pivots

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[-self._log[a]]  # c^(q-1 - log a): exp repeats with period q-1

    def frobenius_table(self, exponent: int) -> list[int]:
        """Permutation table of a -> a^(p^i) on all q codes, cached per i."""
        i = exponent % self.d
        table = self._frob.get(i)
        if table is None:
            exp, n, k = self._exp, self.q - 1, self.p**i
            table = self._frob[i] = [0] + [exp[la * k % n] for la in self._log[1:]]
        return table

    # -- identity & debugging ------------------------------------------------

    @property
    def spec(self) -> str:
        """Canonical field spec string "p^d/c_0,c_1,...,c_d" (little-endian)."""
        return spec_str(self.p, self.d, self.modulus)

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
    if d > DEGREE_LIMIT:
        raise ValueError(f"extension degree d = {d} is above the bound "
                         f"DEGREE_LIMIT = {DEGREE_LIMIT}")
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


def _validate_buildable(p: int, d: int, modulus=None) -> tuple[int, int, tuple[int, ...]]:
    """`validate_field`, with the size held to FIELD_LIMIT before the modulus is sought."""
    if 1 <= d <= DEGREE_LIMIT:
        _check_field_size(p, d)
    return validate_field(p, d, modulus)


def make_field(p: int, d: int, modulus=None) -> FiniteField:
    """Construct GF(p^d) on the modulus `_validate_buildable` validates or chooses."""
    return FiniteField(*_validate_buildable(p, d, modulus))


def _split_spec(spec: str) -> tuple[int, int, tuple[int, ...] | None]:
    """p, d and the modulus (None when omitted) of "p^d" or
    "p^d/c_0,c_1,...,c_d" (little-endian coefficients), unvalidated."""
    spec = spec.strip()
    body, slash, mod_part = spec.partition("/")
    try:
        p_str, caret, d_str = body.partition("^")
        p = int(p_str)
        d = int(d_str) if caret else 1
    except ValueError:
        raise ValueError(f"malformed field spec {spec!r}; expected 'p^d' or 'p^d/c0,c1,...'")
    modulus = None
    if slash:
        try:
            modulus = tuple(int(c) for c in mod_part.split(","))
        except ValueError:
            raise ValueError(f"malformed modulus in field spec {spec!r}")
    return p, d, modulus


def parse_spec(spec: str) -> tuple[int, int, tuple[int, ...]]:
    """Parse "p^d" or "p^d/c_0,c_1,...,c_d" (little-endian coefficients)
    and validate it, without building the field's tables."""
    return validate_field(*_split_spec(spec))


def parse_buildable_spec(spec: str) -> tuple[int, int, tuple[int, ...]]:
    """`parse_spec`, with the size held to FIELD_LIMIT before the modulus is sought."""
    return _validate_buildable(*_split_spec(spec))


def parse_field_spec(spec: str) -> FiniteField:
    """The field a spec string names; see `parse_buildable_spec`."""
    return FiniteField(*parse_buildable_spec(spec))
