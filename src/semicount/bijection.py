"""The correspondence between semilinear endomorphisms and vector tuples.

A map F with rank r and stable rank s is encoded as the g-tuple of images
of the basis adapted to its image flag.  The tuples that arise this way
are exactly those with three properties: the whole tuple spans an
r-dimensional subspace, the last s entries span an s-dimensional
subspace, and the entry just before those lies in their span.  Decoding
inverts one matrix, so both directions are exact and cheap, and profiles
are preserved.  The twist exponent is not recoverable from the tuple; it
rides along as a parameter of the decoder.

Every well-shaped tuple decodes: the induced flag of any tuple stabilizes
at some dimension s, and at that point the membership conditions hold
automatically, so the classes over all (r, s) partition the set of
tuples.
"""

from __future__ import annotations

import random

from . import counting
from .gf import FiniteField, cached_field, field_key
from .flags import Flag, _adapt, image_flag
from .linalg import (
    Matrix,
    Vector,
    _row_basis,
    in_span,
    map_entries,
    mat_inverse,
    mat_mul,
    span_dim,
    standard_basis,
)
from .semilinear import (
    DEFAULT_BUDGET,
    RankProfile,
    SemilinearMap,
    apply,
    matrix_from_code,
    profile,
)

VectorTuple = tuple[Vector, ...]


def _check_tuple(ctx: FiniteField, xs) -> VectorTuple:
    xs = tuple(tuple(v) for v in xs)
    g = len(xs)
    for v in xs:
        if len(v) != g:
            raise ValueError("tuple entries must be vectors of length g")
        if any(not 0 <= c < ctx.q for c in v):
            raise ValueError("vector coordinate out of field range")
    return xs


def tuple_has_profile(ctx: FiniteField, xs, r: int, s: int) -> bool:
    """Test the three span conditions for profile (r, s).

    With s = g the third condition is vacuous; with s = 0 the second is
    vacuous and the third degenerates to "the last entry is zero".  The
    twist exponent plays no role here.
    """
    xs = _check_tuple(ctx, xs)
    g = len(xs)
    if not 0 <= s <= r <= g:
        raise ValueError(f"profile out of range: r={r}, s={s}, g={g}")
    if span_dim(ctx, list(xs)) != r:
        return False
    if s > 0 and span_dim(ctx, list(xs[g - s:])) != s:
        return False
    if s < g and not in_span(ctx, list(xs[g - s:]), xs[g - s - 1]):
        return False
    return True


def _induced_members(ctx: FiniteField, xs: VectorTuple) -> tuple:
    g = len(xs)
    members = [standard_basis(g)]
    while True:
        d = len(members[-1])
        nxt = _row_basis(ctx, xs[g - d:])
        if len(nxt) == d:
            return tuple(members)
        members.append(nxt)


def induced_flag(ctx: FiniteField, xs) -> Flag:
    """Flag read off a tuple: each member is spanned by as many trailing
    entries as the previous member's dimension, iterated to stabilization.
    """
    xs = _check_tuple(ctx, xs)
    return Flag(ctx, len(xs), _induced_members(ctx, xs))


def tuple_profile(ctx: FiniteField, xs) -> RankProfile:
    """The unique (r, s) whose membership conditions this tuple satisfies.

    The first proper member of the induced flag is the span of the whole
    tuple, so its dimension is r; there is none when r = g.
    """
    xs = _check_tuple(ctx, xs)
    dims = [len(m) for m in _induced_members(ctx, xs)]
    return RankProfile(dims[1] if len(dims) > 1 else dims[0], dims[-1])


def _cols(ctx: FiniteField, vectors) -> Matrix:
    """Square matrix with the given vectors as columns, unchecked."""
    return Matrix(ctx, len(vectors), len(vectors),
                  tuple(x for row in zip(*vectors) for x in row))


def map_to_tuple(F: SemilinearMap) -> VectorTuple:
    """Encode a map as the images of the basis adapted to its image flag."""
    adapted = _adapt(F.ctx, F.g, image_flag(F).subspaces[1:])
    return tuple(apply(F, v) for v in adapted.vectors)


def tuple_to_map(ctx: FiniteField, xs, tau: int) -> SemilinearMap:
    """Decode: the unique map with twist tau sending the basis adapted to
    the induced flag to the tuple, entry by entry.

    If P has the adapted vectors as columns and X the tuple entries, the
    matrix is X (tau P)^(-1); P is invertible because the adapted vectors
    form a basis.
    """
    xs = _check_tuple(ctx, xs)
    adapted = _adapt(ctx, len(xs), _induced_members(ctx, xs)[1:])
    P = _cols(ctx, adapted.vectors)
    A = mat_mul(_cols(ctx, xs), mat_inverse(map_entries(P, tau)))
    return SemilinearMap(A, tau)


def tuple_from_code(ctx: FiniteField, g: int, code: int) -> VectorTuple:
    """Tuple numbered by little-endian base-q digits; entry j owns digits
    j*g through j*g+g-1 as its coordinates."""
    q = ctx.q
    if not 0 <= code < q ** (g * g):
        raise ValueError("tuple code out of range")
    digits = []
    for _ in range(g * g):
        code, rem = divmod(code, q)
        digits.append(rem)
    return tuple(tuple(digits[j * g: (j + 1) * g]) for j in range(g))


def tuple_code(ctx: FiniteField, xs) -> int:
    xs = _check_tuple(ctx, xs)
    q = ctx.q
    code = 0
    for c in reversed([c for v in xs for c in v]):
        code = code * q + c
    return code


def enumerate_vector_tuples(ctx: FiniteField, g: int):
    """All q^(g*g) tuples in code order."""
    for code in range(ctx.q ** (g * g)):
        yield tuple_from_code(ctx, g, code)


# ---------------------------------------------------------------------------
# round-trip harness

# sample size used when the space is too large to sweep
SPOT_CHECK_SAMPLES = 1000


def _roundtrip_codes(task: tuple) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Check both directions on a batch of codes; used as a pool worker.

    Each code is read twice: as a map (decode, encode, decode must land
    back on it) and as a tuple (encode, decode must land back on it).
    Returns per-profile tallies of the maps checked and the codes that
    failed either direction.
    """
    p, d, modulus, g, tau, codes = task
    ctx = cached_field(p, d, modulus)
    tallies: dict[tuple[int, int], int] = {}
    failures: list[int] = []
    for code in codes:
        F = SemilinearMap(matrix_from_code(ctx, g, code), tau)
        r, s = profile(F)
        tallies[(r, s)] = tallies.get((r, s), 0) + 1
        ok = tuple_to_map(ctx, map_to_tuple(F), tau) == F
        xs = tuple_from_code(ctx, g, code)
        ok = ok and map_to_tuple(tuple_to_map(ctx, xs, tau)) == xs
        if not ok:
            failures.append(code)
    return tallies, failures


def roundtrip_check(
    ctx: FiniteField,
    g: int,
    tau: int,
    *,
    budget: int | None = DEFAULT_BUDGET,
    threads: int = 1,
    seed: int = 0,
    samples: int = SPOT_CHECK_SAMPLES,
) -> tuple[dict, bool]:
    """Decode-encode round trips over the whole space, or a seeded sample
    of it when q^(g*g) exceeds the budget.  Returns (report, ok); the
    report is JSON-ready and independent of the thread count.
    """
    tau %= ctx.d
    total = ctx.q ** (g * g)
    exhaustive = budget is None or total <= budget
    if exhaustive:
        codes = range(total)
    else:
        rng = random.Random(seed)
        codes = [rng.randrange(total) for _ in range(samples)]
    # the same chunks as the counting enumerator, so the work split never
    # depends on how many workers run
    step = counting.CHUNK_CODES
    tasks = [(*field_key(ctx), g, tau, codes[lo: lo + step])
             for lo in range(0, len(codes), step)]
    parts = counting.run_tasks(_roundtrip_codes, tasks, threads)
    tallies = counting.merge_tallies(g, [tally for tally, _ in parts])
    failures = [code for _, part in parts for code in part]
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
    return report, not failures
