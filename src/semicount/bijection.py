"""The correspondence between semilinear endomorphisms and vector tuples.

A map F with rank r and stable rank s is encoded as the g-tuple of images
of the basis adapted to its image flag.  The tuples that arise this way
are exactly those with three properties: the whole tuple spans an
r-dimensional subspace, the last s entries span an s-dimensional
subspace, and the entry just before those lies in their span.  Decoding
solves one linear system, so both directions are exact and cheap, and
profiles are preserved.  The twist exponent is not recoverable from the
tuple; it rides along as a parameter of the decoder.

Every well-shaped tuple decodes: the induced flag of any tuple stabilizes
at some dimension s, and at that point the membership conditions hold
automatically, so the classes over all (r, s) partition the set of
tuples.
"""

from __future__ import annotations

import random

from . import counting
from .gf import FiniteField, _digits
from .flags import Flag, _adapt
from .linalg import Matrix, Vector, _row_basis, matrix_from_rows, standard_basis
from .semilinear import SemilinearMap, matrix_from_code

VectorTuple = tuple[Vector, ...]


def _block(ctx: FiniteField, xs) -> Matrix:
    """The tuple as the square block whose row j is entry j; its one check
    is `matrix_from_rows`."""
    xs = list(xs)
    return matrix_from_rows(ctx, xs, len(xs))


def tuple_has_profile(ctx: FiniteField, xs, r: int, s: int) -> bool:
    """Test the three span conditions for profile (r, s).

    With s = g the third condition is vacuous; with s = 0 the second is
    vacuous and the third degenerates to "the last entry is zero".  The
    twist exponent plays no role here.  Each condition is the dimension
    of a trailing slice: dim span(xs) = r, dim span(xs[g-s:]) = s, and an
    entry lies in a span exactly when adding it keeps the dimension, so
    the third reads dim span(xs[g-s-1:]) = s.
    """
    X = _block(ctx, xs)
    g = X.rows
    counting._check_profile(g, r, s)
    # `_echelon` works in place, so each slice gets fresh rows
    def dim(start: int) -> int:
        return len(_echelon(ctx, [list(X.row(j)) for j in range(start, g)]))
    return dim(0) == r and (s == g or dim(g - s) == s and dim(g - s - 1) == s)


def induced_flag(ctx: FiniteField, xs) -> Flag:
    """Flag read off a tuple: each member is spanned by as many trailing
    entries as the previous member's dimension, iterated to stabilization.
    """
    X = _block(ctx, xs)
    members = _induced_members(ctx, X.rows, list(X.entries))
    return Flag(ctx, X.rows, (standard_basis(X.rows), *(_row_basis(ctx, m) for m in members)))


def tuple_from_code(ctx: FiniteField, g: int, code: int) -> VectorTuple:
    """Tuple numbered by little-endian base-q digits; entry j owns digits
    j*g through j*g+g-1 as its coordinates, so the entries are the rows of
    `matrix_from_code`."""
    X = matrix_from_code(ctx, g, code)
    return tuple(X.row(j) for j in range(g))


# ---------------------------------------------------------------------------
# the correspondence
#
# A matrix code's digit i*g+j is the entry A[i][j], and a tuple code's digit
# j*g+i is coordinate i of entry j; so a tuple's digits, read as g rows of g,
# are X^T (row j = entry j), and the rows of A^T are the images F(e_j).
# With P the adapted vectors as columns, encoding computes X^T = tau(P)^T A^T
# by `inner_products` and decoding solves that system by one elimination.
# The two cores map digit lists to digit lists, A row-major one way and
# X^T row-major the other; every caller converts at most once.


def _echelon(ctx: FiniteField, rows: list[list[int]]) -> list[list[int]]:
    """A basis of the span of the rows by forward elimination in place, its
    leading entries unscaled: every forward-pass caller counts the pivots
    (`rank`, `tuple_has_profile`) or reduces the rows again (`_adapt`, and
    the image chain after `inner_products`)."""
    return rows[:len(ctx.eliminate(rows, reduce_up=False))]


def _induced_members(ctx: FiniteField, g: int, x: list[int]) -> list[list[list[int]]]:
    """Bases of the proper members of the flag induced by the tuple with
    digits `x`, largest first; none when the tuple spans the whole space."""
    members, n = [], g
    while True:
        basis = _echelon(ctx, [x[j * g: (j + 1) * g] for j in range(g - n, g)])
        if len(basis) == n:
            return members
        members.append(basis)
        n = len(basis)


def _encode(ctx: FiniteField, g: int, tau: int, a) -> tuple[list[int], int, int]:
    """(tuple digits, r, s) of the map with twist tau whose matrix has the
    row-major entries `a`.  Unchecked."""
    rows = [list(a[j::g]) for j in range(g)]  # A^T: row j is column j of A
    at = [c for row in rows for c in row]  # A^T, flat
    frob = ctx.frobenius_table(tau)
    # image chain: F(v) is the row tau(v)·A^T, so the images of a member's
    # basis are the rows of tau(basis)·A^T; F(e_j) is row j of A^T
    members, n = [], g
    while True:
        basis = _echelon(ctx, rows)
        if len(basis) == n:
            break
        members.append(basis)
        n = len(basis)
        flat = ctx.inner_products([frob[c] for v in basis for c in v], n, g, at, g)
        rows = [flat[t * g: (t + 1) * g] for t in range(n)]
    # with no proper member the adapted basis is the standard one
    x = at
    if members:
        adapted = _adapt(ctx, g, members).vectors
        x = ctx.inner_products([frob[c] for v in adapted for c in v], g, g, at, g)
    return x, len(members[0]) if members else g, n


def _decode(ctx: FiniteField, g: int, tau: int, x: list[int]) -> tuple[list[int], int, int]:
    """(matrix entries row-major, r, s) of the map with twist tau that the
    tuple with digits `x` decodes to; the tuple's profile, read off its
    induced flag.  Unchecked.

    tau(P)^T A^T = X^T is solved by reducing [tau(P)^T | X^T] to
    [I | A^T]; tau(P)^T is invertible, so every pivot is on the left.
    """
    members = _induced_members(ctx, g, x)
    # with no proper member the adapted basis is the standard one
    at = x
    if members:
        adapted = _adapt(ctx, g, members).vectors
        frob = ctx.frobenius_table(tau)
        rows = [[frob[c] for c in v] + x[j * g: (j + 1) * g] for j, v in enumerate(adapted)]
        ctx.eliminate(rows, reduce_up=True)
        at = [c for row in rows for c in row[g:]]
    r, s = (len(members[0]), len(members[-1])) if members else (g, g)
    return [c for i in range(g) for c in at[i::g]], r, s


def map_to_tuple(F: SemilinearMap) -> VectorTuple:
    """Encode a map as the images of the basis adapted to its image flag."""
    g = F.g
    x = _encode(F.ctx, g, F.tau, F.mat.entries)[0]
    return tuple(tuple(x[j * g: (j + 1) * g]) for j in range(g))


def tuple_to_map(ctx: FiniteField, xs, tau: int) -> SemilinearMap:
    """Decode: the unique map with twist tau sending the basis adapted to
    the induced flag to the tuple, entry by entry."""
    X = _block(ctx, xs)
    a = _decode(ctx, X.rows, tau, list(X.entries))[0]
    return SemilinearMap(Matrix(ctx, X.rows, X.rows, tuple(a)), tau)


# ---------------------------------------------------------------------------
# round-trip harness

# sample size used when the space is too large to sweep
SPOT_CHECK_SAMPLES = 1000


def _roundtrip_codes(ctx: FiniteField, g: int, tau: int,
                     codes) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Check both directions on a batch of codes; the job of a sample,
    which covers too little of the space for `roundtrip_check`'s counting
    argument, and of a sweep run again after `_sweep_codes` failed a code.

    Each code is split into digits once, and the digits are read twice:
    as a matrix code (encode, then decode must give them back) and as a
    tuple code (decode, then encode must give them back).  Returns
    per-profile tallies of the maps checked, read off their encodings,
    and the codes that failed either direction.
    """
    tallies: dict[tuple[int, int], int] = {}
    failures: list[int] = []
    for code in codes:
        digits = _digits(code, ctx.q, g * g)
        x, r, s = _encode(ctx, g, tau, digits)
        tallies[(r, s)] = tallies.get((r, s), 0) + 1
        if (_decode(ctx, g, tau, x)[0] != digits
                or _encode(ctx, g, tau, _decode(ctx, g, tau, digits)[0])[0] != digits):
            failures.append(code)
    return tallies, failures


def _sweep_codes(ctx: FiniteField, g: int, tau: int,
                 codes) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Check one direction on a batch of codes; the job of a sweep of the
    whole space, which gets the other direction by counting (see
    `roundtrip_check`).

    Each code is encoded once and must pass two checks: its encoding is a
    code (g*g digits, each in [0, q)), and decoding the encoding gives the
    code's digits back.  The first is the counting argument's hypothesis,
    not implied by the second: `_decode` ignores an extra digit, and a
    negative one aliases through list indexing.  Returns per-profile
    tallies, read off the encodings, and the codes that failed either
    check.
    """
    tallies: dict[tuple[int, int], int] = {}
    failures: list[int] = []
    q, n = ctx.q, g * g
    for code in codes:
        digits = _digits(code, q, n)
        x, r, s = _encode(ctx, g, tau, digits)
        tallies[(r, s)] = tallies.get((r, s), 0) + 1
        if (len(x) != n or min(x, default=0) < 0 or max(x, default=0) >= q
                or _decode(ctx, g, tau, x)[0] != digits):
            failures.append(code)
    return tallies, failures


def _roundtrip_job(ctx: FiniteField, g: int, tau: int):
    return lambda codes: _roundtrip_codes(ctx, g, tau, codes)


def _sweep_job(ctx: FiniteField, g: int, tau: int):
    return lambda codes: _sweep_codes(ctx, g, tau, codes)


def roundtrip_check(
    ctx: FiniteField,
    g: int,
    tau: int,
    *,
    budget: int = counting.DEFAULT_BUDGET,
    threads: int = 1,
    seed: int = 0,
) -> tuple[dict, bool]:
    """Decode-encode round trips over the whole space, or over a seeded
    sample of SPOT_CHECK_SAMPLES codes when q^(g*g) exceeds the budget.
    Returns (report, ok); the report is JSON-ready and independent of the
    thread count.

    A sweep checks one direction and gets the other by counting
    (`_sweep_codes`).  Let S be the q^(g*g) codes.  If every encoding is
    itself in S (g*g digits, each in [0, q)) and decode(encode(c)) = c for
    every c in S, then encode is one-to-one from the finite set S into S,
    so a bijection with inverse decode, and encode(decode(t)) = t for every
    t in S.  If any code fails either check, the sweep runs again and
    computes both directions on every code (`_roundtrip_codes`), and that
    run is reported, failing codes and all.  A sample covers too little of
    S to count, so it computes both directions on every code it draws.

    A sweep of the whole space also holds its per-profile tallies to
    `counting.formula_table`; profiles that disagree are listed under
    "formula_mismatch", a key only a failing report has.
    """
    tau %= ctx.d
    total = ctx.q ** (g * g)
    exhaustive = total <= budget
    size = counting.CHUNK_CODES
    if exhaustive:
        codes = range(total)
        parts = counting.run_chunks(_sweep_job, ctx, g, tau, codes, size, threads)
    else:
        rng = random.Random(seed)
        codes = [rng.randrange(total) for _ in range(SPOT_CHECK_SAMPLES)]
    # a sample, or a sweep that failed a code, checks both directions
    if not exhaustive or any(part for _, part in parts):
        parts = counting.run_chunks(_roundtrip_job, ctx, g, tau, codes, size, threads)
    tallies = counting.merge_tallies(g, [tally for tally, _ in parts])
    failures = [code for _, part in parts for code in part]
    # a sweep of every code must tally the closed-form census exactly
    mismatches = []
    if exhaustive:
        expected = counting.formula_table(g, ctx.q).entries
        mismatches = [{"r": r, "s": s, "checked": n, "theorem": str(expected[(r, s)])}
                      for (r, s), n in sorted(tallies.items()) if n != expected[(r, s)]]
    checked = sum(tallies.values())
    report = {
        "field": ctx.spec,
        "g": g,
        "tau": tau,
        "mode": "exhaustive" if exhaustive else "sampled",
        "seed": None if exhaustive else seed,
        "maps_checked": checked,
        "tuples_checked": checked,
        "failures": len(failures),
        "failing_codes": [str(c) for c in failures[:20]],
        "per_profile": [
            {"r": r, "s": s, "checked": tallies[(r, s)]}
            for (r, s) in sorted(tallies)
        ],
    }
    if mismatches:
        report["formula_mismatch"] = mismatches
    return report, not failures and not mismatches
