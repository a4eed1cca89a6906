"""Exact counts of semilinear endomorphisms by (rank, stable rank).

Three independent routes to the same numbers:

* `closed_form_count` evaluates a single product formula with exact
  rational arithmetic and asserts the result clears to an integer.
* `staged_count` multiplies the sizes of the stages that build a tuple
  with the given profile (choices for the trailing block, lifts, choices
  for the leading block); integers only.
* `bruteforce_table` enumerates every matrix code and tallies profiles
  with the row-code kernel `semilinear.RowKernel`; tests hold that kernel
  to `semilinear.profile`, code by code.

Keeping all three and demanding agreement is the design: a bug in any one
route shows up as a mismatch instead of a silently wrong table.  All
counts are arbitrary-precision; reports serialize them as decimal strings.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .gf import FiniteField, cached_field, field_key
from .semilinear import DEFAULT_BUDGET, BudgetExceeded, row_kernel

# Fixed chunk granularity for the parallel enumerator.  Constant by design:
# the work split, and therefore the merged result, never depends on how
# many workers happen to run.
CHUNK_CODES = 4096


def profiles(g: int) -> list[tuple[int, int]]:
    """All (r, s) with 0 <= s <= r <= g, sorted."""
    return [(r, s) for r in range(g + 1) for s in range(r + 1)]


def _check_profile(g: int, r: int, s: int) -> None:
    if not (isinstance(g, int) and isinstance(r, int) and isinstance(s, int)):
        raise TypeError("g, r, s must be integers")
    if not 0 <= s <= r <= g:
        raise ValueError(f"need 0 <= s <= r <= g, got g={g}, r={r}, s={s}")


def gl_order(g: int, q: int) -> int:
    """Number of invertible g x g matrices: prod_{i<g} (q^g - q^i)."""
    out = 1
    for i in range(g):
        out *= q**g - q**i
    return out


# The staged route's falling products prod_{i<d} (q^n - q^i), one row per
# (q, n) holding d = 0, 1, ...; a row grows only as far as a caller reads
# it, and the oldest rows go first past the bound.
_FALLING_ROWS = 512
_falling_rows: dict[tuple[int, int], list[int]] = {}


def _falling(n: int, d: int, q: int) -> int:
    """prod_{i<d} (q^n - q^i), for 0 <= d."""
    row = _falling_rows.get((q, n))
    if row is None:
        if len(_falling_rows) >= _FALLING_ROWS:
            del _falling_rows[next(iter(_falling_rows))]
        row = _falling_rows[q, n] = [1]
    if len(row) <= d:
        qn = q**n
        while len(row) <= d:
            row.append(row[-1] * (qn - q ** (len(row) - 1)))
    return row[d]


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of an n-dimensional space."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    out, rem = divmod(_falling(n, d, q), _falling(d, d, q))
    assert rem == 0
    return out


def surjection_count(m: int, d: int, q: int) -> int:
    """Surjective linear maps from an m-dimensional space onto a fixed
    d-dimensional one: prod_{i<d} (q^m - q^i); zero when d > m."""
    if d == 0:
        return 1
    if d > m:
        return 0
    return _falling(m, d, q)


def spanning_tuple_count(n: int, d: int, q: int) -> int:
    """Number of (n-1)-tuples in an n-dimensional space whose entries span
    dimension exactly d: choose the subspace, then a surjection onto it.
    The n-th block entry in the staged count is pinned by the span
    conditions, so it contributes no factor here."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    return gaussian_binomial(n, d, q) * surjection_count(n - 1, d, q)


def staged_count(g: int, r: int, s: int, q: int) -> int:
    """Stage-by-stage product for the number of maps with profile (r, s):
    independent choices for the last s tuple entries, q^{s(g-s)} lifts,
    then the leading-block count with n = g-s and d = r-s."""
    _check_profile(g, r, s)
    return _falling(g, s, q) * q ** (s * (g - s)) * spanning_tuple_count(g - s, r - s, q)


# The closed form's q-Pochhammer prefixes N(n) = prod_{j=1}^{n} (q^j - 1),
# one list per q grown on demand; the oldest q goes first past the bound.
_POCHHAMMER_QS = 16
_pochhammer_rows: dict[int, list[int]] = {}


def _pochhammer(q: int, n: int) -> list[int]:
    """[N(0), ..., N(n)] at least."""
    N = _pochhammer_rows.get(q)
    if N is None:
        if len(_pochhammer_rows) >= _POCHHAMMER_QS:
            del _pochhammer_rows[next(iter(_pochhammer_rows))]
        N = _pochhammer_rows[q] = [1]
    while len(N) <= n:
        N.append(N[-1] * (q ** len(N) - 1))
    return N


def closed_form_count(g: int, r: int, s: int, q: int) -> int:
    """The single-formula route, evaluated with exact rationals.

    q^{g^2 - (g-r)^2 - (r-s)} times a ratio of four descending products
    in q^-1.  The value is always an integer; a fractional result would
    mean the implementation is wrong, so it raises rather than rounds.

    Each product prod_{j=lo}^{hi} (1 - q^-j) is N(hi)/N(lo-1) times
    q^-(T(hi) - T(lo-1)), with T(n) = n(n+1)/2; a range from lo = 0 holds
    the factor 1 - q^0 = 0.
    """
    _check_profile(g, r, s)
    a, b = g - r, r - s
    if a == 0 and b > 0:
        return 0
    N = _pochhammer(q, g)
    # numerator prod_{1}^{g} * prod_{a}^{g-s-1}, denominator prod_{1}^{b} * prod_{1}^{a}
    num, den = N[g], N[b] * N[a]
    if b > 0:
        num, den = num * N[g - s - 1], den * N[a - 1]
    # with the q^-T parts the power of q is q^e, e = sum_{j=a}^{g-1} j - ab >= 0
    num *= q ** ((g * (g - 1) - a * (a - 1)) // 2 - a * b)
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"count is not an integer at g={g}, r={r}, s={s}, q={q}: {Fraction(num, den)}")
    return value


@dataclass(frozen=True)
class CountTable:
    """Counts per profile, tagged with how they were obtained.

    `entries` covers every profile 0 <= s <= r <= g, zeros included, so
    tables from different routes compare with plain equality of dicts.
    `tau` is meaningful only for the enumeration route (the formula routes
    are twist-independent) and is None otherwise.
    """

    q: int
    g: int
    route: str
    tau: int | None
    entries: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.entries.values())


def route_cells(g: int, q: int) -> list[tuple[int, int, int, int]]:
    """(r, s, closed form, staged product) for every profile of g, sorted.

    The one place the two formula routes run, each once per cell; callers
    compare them."""
    return [(r, s, closed_form_count(g, r, s, q), staged_count(g, r, s, q))
            for r, s in profiles(g)]


def formula_table(g: int, q: int) -> CountTable:
    """Closed-form counts for every profile, cross-checked against the
    staged route; any disagreement raises."""
    entries: dict[tuple[int, int], int] = {}
    for r, s, via_formula, via_stages in route_cells(g, q):
        if via_formula != via_stages:
            raise ArithmeticError(
                f"count routes disagree at g={g}, r={r}, s={s}, q={q}: "
                f"{via_formula} vs {via_stages}")
        entries[(r, s)] = via_formula
    table = CountTable(q, g, "theorem", None, entries)
    assert table.total == q ** (g * g)
    return table


def run_tasks(fn, tasks: list, threads: int) -> list:
    """[fn(t) for t in tasks], on a process pool when threads > 1.

    The pool gets at most one worker per task and per core: the default
    `fork` start method launches every worker up front, so surplus workers
    cost a fork each and do nothing.  Results come back in task order.
    """
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def merge_tallies(g: int, parts) -> dict[tuple[int, int], int]:
    """Sum per-chunk {(r, s): count} tallies over every profile of g."""
    entries = {prof: 0 for prof in profiles(g)}
    for part in parts:
        for prof, n in part.items():
            entries[prof] += n
    return entries


def _tally_chunk(task: tuple) -> dict[tuple[int, int], int]:
    p, d, modulus, g, tau, start, stop = task
    return row_kernel(cached_field(p, d, modulus), g, tau).tally(start, stop)


def bruteforce_table(
    ctx: FiniteField,
    g: int,
    tau: int,
    *,
    budget: int | None = DEFAULT_BUDGET,
    threads: int = 1,
) -> CountTable:
    """Tally the profile of every one of the q^(g^2) maps.

    The code range is cut into fixed-size chunks and the per-chunk tallies
    are summed, so the result is identical whether chunks run serially or
    on a process pool of any size.
    """
    total = ctx.q ** (g * g)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"q^(g^2) = {ctx.q}^{g * g} exceeds budget {budget}")
    tau %= ctx.d
    tasks = [
        (*field_key(ctx), g, tau, lo, min(lo + CHUNK_CODES, total))
        for lo in range(0, total, CHUNK_CODES)
    ]
    entries = merge_tallies(g, run_tasks(_tally_chunk, tasks, threads))
    table = CountTable(ctx.q, g, "enumeration", tau, entries)
    assert table.total == total
    return table


def verify_counts(
    ctx: FiniteField,
    g: int,
    tau: int,
    *,
    budget: int | None = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[dict, bool]:
    """Compare all routes cell by cell and check the corollary identities.

    Enumerates first, so a run over budget raises before any formula work.
    Returns (report, ok).  The report is JSON-ready: counts as decimal
    strings, cells sorted by (r, s), fixed key order throughout.
    """
    q = ctx.q
    enumerated = bruteforce_table(ctx, g, tau, budget=budget, threads=threads).entries
    theorem = {}
    cells = []
    for r, s, via_formula, via_stages in route_cells(g, q):
        theorem[(r, s)] = via_formula
        text = str(via_formula)  # printed once when the routes agree: str() is quadratic
        cells.append({
            "r": r,
            "s": s,
            "theorem": text,
            "staged": text if via_stages == via_formula else str(via_stages),
            "enumerated": text if enumerated[(r, s)] == via_formula
            else str(enumerated[(r, s)]),
            "match": via_formula == via_stages == enumerated[(r, s)],
        })
    expected_total = q ** (g * g)
    theorem_total = sum(theorem.values())
    corollaries = {
        "gl": theorem[(g, g)] == gl_order(g, q),
        "nilpotent": sum(theorem[(r, 0)] for r in range(g + 1)) == q ** (g * g - g),
        "total_mass": theorem_total == expected_total,
    }
    report = {
        "field": ctx.spec,
        "g": g,
        "tau": tau % ctx.d,
        "cells": cells,
        "totals": {
            "theorem": str(theorem_total),
            "enumerated": str(sum(enumerated.values())),
            "expected": str(expected_total),
        },
        "corollaries": corollaries,
    }
    return report, all(c["match"] for c in cells) and all(corollaries.values())
