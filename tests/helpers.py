"""Brute-force oracles for the test suite.

Everything here is reimplemented from first principles on plain tuples:
field elements are little-endian digit tuples reduced by explicit long
division, subspaces are extensional frozensets of vectors, dimensions are
logarithms of set sizes.  Nothing imports from the package, so agreement
between these oracles and the library is a real check, not a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


# --- field arithmetic on integer codes ------------------------------------

def to_digits(code: int, p: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


def from_digits(digs, p: int) -> int:
    code = 0
    for c in reversed(list(digs)):
        code = code * p + c
    return code


def _poly_mod(p: int, mod: tuple[int, ...], a: list[int]) -> list[int]:
    # mod is monic of degree d; reduce a in place by long division
    d = len(mod) - 1
    a = list(a)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for k in range(d + 1):
                a[i - d + k] = (a[i - d + k] - c * mod[k]) % p
    return [x % p for x in a[:d]] + [0] * max(0, d - len(a))


def f_add(p: int, d: int, a: int, b: int) -> int:
    da, db = to_digits(a, p, d), to_digits(b, p, d)
    return from_digits(((x + y) % p for x, y in zip(da, db)), p)


def f_neg(p: int, d: int, a: int) -> int:
    return from_digits(((-x) % p for x in to_digits(a, p, d)), p)


def f_mul(p: int, modulus: tuple[int, ...], a: int, b: int) -> int:
    d = len(modulus) - 1
    da, db = to_digits(a, p, d), to_digits(b, p, d)
    conv = [0] * (2 * d - 1 if d else 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                conv[i + j] = (conv[i + j] + x * y) % p
    return from_digits(_poly_mod(p, modulus, conv), p)


def f_pow(p: int, modulus: tuple[int, ...], a: int, n: int) -> int:
    out = 1
    for _ in range(n):
        out = f_mul(p, modulus, out, a)
    return out


def f_frob(p: int, modulus: tuple[int, ...], a: int, i: int) -> int:
    return f_pow(p, modulus, a, p ** i)


def f_inv(p: int, modulus: tuple[int, ...], a: int) -> int:
    if a == 0:
        raise ZeroDivisionError
    q = p ** (len(modulus) - 1)
    return f_pow(p, modulus, a, q - 2)


def rref(p: int, modulus: tuple[int, ...], rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and its pivot columns, by Gauss-Jordan on
    digit arithmetic: for each column left to right, the first nonzero row
    at or below the current one is swapped up and scaled by the inverse of
    its leading entry, and a multiple of it is subtracted from every other
    row with a nonzero entry in that column."""
    d = len(modulus) - 1
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        below = [i for i in range(r, len(rows)) if rows[i][col]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        inv = f_inv(p, modulus, rows[r][col])
        rows[r] = [f_mul(p, modulus, inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                minus_c = f_neg(p, d, row[col])
                rows[i] = [f_add(p, d, x, f_mul(p, modulus, minus_c, y))
                           for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


# --- primes and irreducible polynomials, by trial division ----------------

def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def monic_polys(p: int, degree: int):
    """Every monic polynomial of the given degree, little-endian, in
    lexicographic order of the lower coefficients read base p."""
    for low in range(p ** degree):
        yield to_digits(low, p, degree) + (1,)


def trial_division_irreducible(p: int, coeffs) -> bool:
    """A monic polynomial of degree d >= 1 is irreducible iff no monic
    polynomial of degree 1 .. d/2 divides it."""
    d = len(coeffs) - 1
    for k in range(1, d // 2 + 1):
        for divisor in monic_polys(p, k):
            if not any(_poly_mod(p, divisor, list(coeffs))):
                return False
    return True


# --- extensional subspaces -------------------------------------------------

def vec_add(p: int, d: int, u, v):
    return tuple(f_add(p, d, x, y) for x, y in zip(u, v))


def vec_scale(p: int, modulus: tuple[int, ...], c: int, v):
    return tuple(f_mul(p, modulus, c, x) for x in v)


def span_set(p: int, modulus: tuple[int, ...], gens, g: int) -> frozenset:
    """Every linear combination of the generators, as a frozenset."""
    d = len(modulus) - 1
    q = p ** d
    zero = (0,) * g
    out = set()
    for coeffs in product(range(q), repeat=len(gens)):
        acc = zero
        for c, w in zip(coeffs, gens):
            if c:
                acc = vec_add(p, d, acc, vec_scale(p, modulus, c, w))
        out.add(acc)
    return frozenset(out)


def set_dim(S: frozenset, q: int) -> int:
    k = 0
    while q ** k < len(S):
        k += 1
    assert q ** k == len(S), "not a subspace-sized set"
    return k


def standard_vectors(g: int):
    return [tuple(1 if i == j else 0 for j in range(g)) for i in range(g)]


def all_subspaces(p: int, modulus: tuple[int, ...], g: int) -> list[tuple[frozenset, tuple]]:
    """Every subspace of the g-dimensional space, with one generating set.

    Walks the lattice upward: extend each known subspace by each outside
    vector.  Returns (extension set, generators) pairs.
    """
    d = len(modulus) - 1
    q = p ** d
    space = [to_vec(i, q, g) for i in range(q ** g)]
    zero_sub = span_set(p, modulus, [], g)
    found = {zero_sub: ()}
    frontier = [(zero_sub, ())]
    while frontier:
        nxt = []
        for sub, gens in frontier:
            for v in space:
                if v in sub:
                    continue
                new_gens = gens + (v,)
                new_sub = span_set(p, modulus, new_gens, g)
                if new_sub not in found:
                    found[new_sub] = new_gens
                    nxt.append((new_sub, new_gens))
        frontier = nxt
    return list(found.items())


def to_vec(code: int, q: int, g: int) -> tuple[int, ...]:
    out = []
    for _ in range(g):
        code, r = divmod(code, q)
        out.append(r)
    return tuple(out)


# --- semilinear maps as functions ------------------------------------------

def apply_map(p, modulus, rows, tau_i: int, v):
    """rows is the matrix as a row list; computes A . frob(v)."""
    d = len(modulus) - 1
    w = [f_frob(p, modulus, x, tau_i) for x in v]
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, w):
            acc = f_add(p, d, acc, f_mul(p, modulus, a, x))
        out.append(acc)
    return tuple(out)


def image_set(p, modulus, rows, tau_i: int, S) -> frozenset:
    # the image of a subspace under a semilinear map is again a subspace,
    # so no span closure is needed
    return frozenset(apply_map(p, modulus, rows, tau_i, v) for v in S)


def naive_profile(p, modulus, rows, tau_i: int, g: int) -> tuple[int, int]:
    """(rank, stable rank) by iterating literal set images of the space."""
    q = p ** (len(modulus) - 1)
    S = span_set(p, modulus, standard_vectors(g), g)
    first = image_set(p, modulus, rows, tau_i, S)
    r = set_dim(first, q)
    for _ in range(g):
        S = image_set(p, modulus, rows, tau_i, S)
    return r, set_dim(S, q)


# --- the inductive normal-form construction --------------------------------

def coeffs_in_basis(p, modulus, basis, u, g):
    """Coordinates of u in the given basis, found by scanning all q^g
    coefficient tuples.  Slow and certain."""
    d = len(modulus) - 1
    q = p ** d
    zero = (0,) * g
    for coeffs in product(range(q), repeat=len(basis)):
        acc = zero
        for c, w in zip(coeffs, basis):
            if c:
                acc = vec_add(p, d, acc, vec_scale(p, modulus, c, w))
        if acc == u:
            return coeffs
    raise AssertionError("u not in the span of basis")


def direct_adapt(p, modulus, e_basis, U_set: frozenset, g: int):
    """Adapt e_basis to the subspace U by the inductive recipe, scanning U
    itself for each normal-form vector.

    Returns (adapted basis list, pivot list, per-pivot match counts).  The
    match count should be exactly 1 everywhere; callers assert it to pin
    down uniqueness independently of any elimination code.
    """
    chain = []
    for j in range(g + 1):
        tail = span_set(p, modulus, e_basis[j:], g)
        chain.append(U_set & tail)
    J = [j for j in range(g) if chain[j + 1] != chain[j]]
    chosen = {}
    match_counts = {}
    for j in J:
        hits = []
        for u in sorted(U_set):
            c = coeffs_in_basis(p, modulus, e_basis, u, g)
            if (c[j] == 1
                    and all(c[i] == 0 for i in range(j))
                    and all(c[i] == 0 for i in J if i > j)):
                hits.append(u)
        match_counts[j] = len(hits)
        chosen[j] = hits[0] if hits else None
    adapted = [e_basis[j] for j in range(g) if j not in J]
    adapted += [chosen[j] for j in sorted(J)]
    return adapted, J, match_counts


def naive_tuple(p, modulus, rows, tau_i: int, g: int) -> tuple:
    """Images of the basis adapted to the image flag: the chain of literal
    set images down to the stable one, the standard basis adapted to its
    members smallest first, then each adapted vector pushed through the map."""
    S = span_set(p, modulus, standard_vectors(g), g)
    chain = []
    while True:
        T = image_set(p, modulus, rows, tau_i, S)
        if T == S:
            break
        chain.append(T)
        S = T
    basis = standard_vectors(g)
    for U in reversed(chain):
        basis, _, counts = direct_adapt(p, modulus, basis, U, g)
        assert set(counts.values()) <= {1}, "normal-form vector not unique"
    return tuple(apply_map(p, modulus, rows, tau_i, v) for v in basis)


# --- the two census formulas, factor by factor -------------------------------

def naive_closed_form(g: int, r: int, s: int, q: int) -> int:
    """The closed form with every factor 1 - q^-j built as its own rational."""
    def run(lo, hi):
        out = Fraction(1)
        for j in range(lo, hi + 1):
            out *= 1 - Fraction(1, q ** j)
        return out

    value = (Fraction(q) ** (g * g - (g - r) ** 2 - (r - s))
             * run(1, g) * run(g - r, g - s - 1) / (run(1, r - s) * run(1, g - r)))
    assert value.denominator == 1
    return value.numerator


def naive_staged(g: int, r: int, s: int, q: int) -> int:
    """The staged product with every falling product built factor by factor:
    the last s entries, the lifts, the span of the leading block, then a
    surjection onto it."""
    def falling(n, d):
        out = 1
        for i in range(d):
            out *= q ** n - q ** i
        return out

    n, d = g - s, r - s
    subspaces, rem = divmod(falling(n, d), falling(d, d))
    assert rem == 0
    surjections = 1 if d == 0 else 0 if d > n - 1 else falling(n - 1, d)
    return falling(g, s) * q ** (s * (g - s)) * subspaces * surjections
