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


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of an n-dimensional space."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    num = 1
    den = 1
    for i in range(d):
        num *= q**n - q**i
        den *= q**d - q**i
    out, rem = divmod(num, den)
    assert rem == 0
    return out


def surjection_count(m: int, d: int, q: int) -> int:
    """Surjective linear maps from an m-dimensional space onto a fixed
    d-dimensional one: prod_{i<d} (q^m - q^i); zero when d > m."""
    if d == 0:
        return 1
    if d > m:
        return 0
    out = 1
    for i in range(d):
        out *= q**m - q**i
    return out


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
    out = 1
    for i in range(s):
        out *= q**g - q**i
    out *= q ** (s * (g - s))
    return out * spanning_tuple_count(g - s, r - s, q)


def _one_minus_q_pow(q: int, lo: int, hi: int) -> Fraction:
    """prod_{j=lo}^{hi} (1 - q^-j); empty when lo > hi."""
    out = Fraction(1)
    for j in range(lo, hi + 1):
        out *= 1 - Fraction(1, q**j)
    return out


def closed_form_count(g: int, r: int, s: int, q: int) -> int:
    """The single-formula route, evaluated with exact rationals.

    q^{g^2 - (g-r)^2 - (r-s)} times a ratio of four descending products
    in q^-1.  The value is always an integer; a fractional result would
    mean the implementation is wrong, so it raises rather than rounds.
    """
    _check_profile(g, r, s)
    num = _one_minus_q_pow(q, 1, g) * _one_minus_q_pow(q, g - r, g - s - 1)
    den = _one_minus_q_pow(q, 1, r - s) * _one_minus_q_pow(q, 1, g - r)
    value = Fraction(q) ** (g * g - (g - r) ** 2 - (r - s)) * num / den
    if value.denominator != 1:
        raise ArithmeticError(
            f"count is not an integer at g={g}, r={r}, s={s}, q={q}: {value}")
    return value.numerator


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
        cells.append({
            "r": r,
            "s": s,
            "theorem": str(via_formula),
            "staged": str(via_stages),
            "enumerated": str(enumerated[(r, s)]),
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
