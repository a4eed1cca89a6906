"""Exact counts of semilinear endomorphisms by (rank, stable rank).

Three independent routes to the same numbers:

* `closed_form_count` evaluates a single product formula in integers,
  with one exact division, and raises unless that division leaves no
  remainder.
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

import math
import os
from dataclasses import dataclass

from .gf import FiniteField
from .semilinear import DEFAULT_BUDGET, RowKernel, check_budget

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
    return _falling_row(q, g)[g]


def _falling_row(q: int, n: int) -> list[int]:
    """Row n of the staged route, [prod_{i<d} (q^n - q^i) for d = 0..n]; [1] if n < 0."""
    qn, qi, row = q ** max(n, 0), 1, [1]
    for _ in range(n):
        row.append(row[-1] * (qn - qi))
        qi *= q
    return row


def _subspaces(rows: dict, n: int, d: int) -> int:
    out, rem = divmod(rows[n][d], rows[d][d])
    if rem:
        raise ArithmeticError(f"subspace count is not an integer at n={n}, d={d}")
    return out


def _surjections(rows: dict, m: int, d: int) -> int:
    return 1 if d == 0 else 0 if d > m else rows[m][d]


def _staged(rows: dict, g: int, r: int, s: int, q: int) -> int:
    """`staged_count` at one cell, unchecked, as are `_subspaces` and `_surjections`:
    each reads rows[n] = _falling_row(q, n) from a dict holding every row it touches."""
    n, d = g - s, r - s
    return rows[g][s] * q ** (s * n) * _subspaces(rows, n, d) * _surjections(rows, n - 1, d)


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of an n-dimensional space."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    return _subspaces({k: _falling_row(q, k) for k in (n, d)}, n, d)


def surjection_count(m: int, d: int, q: int) -> int:
    """Surjective linear maps from an m-dimensional space onto a fixed
    d-dimensional one: prod_{i<d} (q^m - q^i); zero when d > m."""
    return _surjections({m: _falling_row(q, m)}, m, d)


def spanning_tuple_count(n: int, d: int, q: int) -> int:
    """Number of (n-1)-tuples in an n-dimensional space whose entries span
    dimension exactly d: choose the subspace, then a surjection onto it.
    The n-th block entry in the staged count is pinned by the span
    conditions, so it contributes no factor here."""
    return gaussian_binomial(n, d, q) * surjection_count(n - 1, d, q)


def staged_count(g: int, r: int, s: int, q: int) -> int:
    """Stage-by-stage product for the number of maps with profile (r, s):
    independent choices for the last s tuple entries, q^{s(g-s)} lifts,
    then the leading-block count with n = g-s and d = r-s."""
    _check_profile(g, r, s)
    return _staged({n: _falling_row(q, n) for n in (g, g - s, r - s, g - s - 1)}, g, r, s, q)


def _pochhammer(q: int, n: int) -> list[int]:
    """The closed form's prefixes [N(0), ..., N(n)], N(k) = prod_{j=1}^{k} (q^j - 1)."""
    N, qj = [1], 1
    for _ in range(n):
        qj *= q
        N.append(N[-1] * (qj - 1))
    return N


def _closed_form(N: list[int], g: int, r: int, s: int, q: int) -> int:
    """The closed form at one cell, from N(0..g); unchecked."""
    a, b = g - r, r - s
    if a == 0 and b > 0:
        return 0
    # numerator prod_{1}^{g} * prod_{a}^{g-s-1}, denominator prod_{1}^{b} * prod_{1}^{a}
    num, den = N[g], N[b] * N[a]
    if b > 0:
        num, den = num * N[g - s - 1], den * N[a - 1]
    # with the q^-T parts the power of q is q^e, e = sum_{j=a}^{g-1} j - ab >= 0
    num *= q ** ((g * (g - 1) - a * (a - 1)) // 2 - a * b)
    value, rem = divmod(num, den)
    if rem:
        k = math.gcd(num, den)
        raise ArithmeticError(
            f"count is not an integer at g={g}, r={r}, s={s}, q={q}: {num // k}/{den // k}")
    return value


def closed_form_count(g: int, r: int, s: int, q: int) -> int:
    """The single-formula route, evaluated in integers with one exact division.

    q^{g^2 - (g-r)^2 - (r-s)} times a ratio of four descending products
    in q^-1.  The value is always an integer; a fractional result would
    mean the implementation is wrong, so it raises rather than rounds.

    Each product prod_{j=lo}^{hi} (1 - q^-j) is N(hi)/N(lo-1) times
    q^-(T(hi) - T(lo-1)), with T(n) = n(n+1)/2; a range from lo = 0 holds
    the factor 1 - q^0 = 0.
    """
    _check_profile(g, r, s)
    return _closed_form(_pochhammer(q, g), g, r, s, q)


@dataclass(frozen=True)
class CountTable:
    """Counts per profile.

    `entries` covers every profile 0 <= s <= r <= g, zeros included, so
    tables from different routes compare with plain equality of dicts.
    """

    q: int
    g: int
    entries: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.entries.values())


def route_cells(g: int, q: int) -> list[tuple[int, int, int, int]]:
    """(r, s, closed form, staged product) for every profile of g, sorted.

    The one place the two formula routes run, each once per cell; callers
    compare them.  Each route builds its prefix lists once per table, N(0..g)
    and the falling rows n <= g, so a table costs O(g^2) products."""
    _check_profile(g, 0, 0)
    N = _pochhammer(q, g)
    rows = {n: _falling_row(q, n) for n in range(g + 1)}
    return [(r, s, _closed_form(N, g, r, s, q), _staged(rows, g, r, s, q))
            for r, s in profiles(g)]


def report_cells(g: int, q: int, enumerated: dict | None = None) -> tuple[dict, list[dict]]:
    """The closed-form count of every profile, and JSON-ready report cells
    that compare it with the staged product and, when given, the
    enumerated tally: counts as decimal strings, one "match" per cell."""
    theorem, cells = {}, []
    for r, s, via_formula, via_stages in route_cells(g, q):
        theorem[r, s] = via_formula
        others = {"staged": via_stages}
        if enumerated is not None:
            others["enumerated"] = enumerated[r, s]
        text = str(via_formula)  # printed once when the routes agree: str() is quadratic
        cells.append({"r": r, "s": s, "theorem": text,
                      **{k: text if n == via_formula else str(n) for k, n in others.items()},
                      "match": all(n == via_formula for n in others.values())})
    return theorem, cells


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
    table = CountTable(q, g, entries)
    if table.total != q ** (g * g):
        raise ArithmeticError(f"counts at g={g}, q={q} sum to {table.total}, not q^(g^2)")
    return table


def _run_stride(send, make_job, ctx: FiniteField, g: int, tau: int, chunks: list) -> None:
    """A child's share of `run_chunks`: one job over its chunks, and one
    message back, (True, results) or (False, (exception, its traceback))."""
    try:
        job = make_job(ctx, g, tau)
        message = (True, [job(chunk) for chunk in chunks])
    except Exception as exc:
        import traceback
        message = (False, (exc, traceback.format_exc()))
    send.send(message)
    send.close()


def run_chunks(make_job, ctx: FiniteField, g: int, tau: int, codes, threads: int) -> list:
    """job(chunk) for each CHUNK_CODES-long slice of `codes` (a range or a
    list), job = make_job(ctx, g, tau), in chunk order.

    w = min(threads, chunks, CPUs) processes share the chunks, the calling
    one included; CPUs counts those `os.sched_getaffinity` lets this
    process run on, or `os.cpu_count()` where that is missing.  Process i
    runs chunks i, i + w, i + 2w, ... with one job of its own, made when
    it starts and dropped when the call returns.  The w - 1 children come
    from `multiprocessing.get_context()` as daemons and each sends its
    results back once, over a one-way pipe.  `spawn` and `forkserver`
    pickle `make_job`, ctx and the chunks, so `make_job` must be a
    module-level function; the job itself need not pickle.  An exception
    a child's job raises is raised here, caused by one that holds the
    child's traceback; a child that dies without sending raises
    RuntimeError; whatever the call raises, it first terminates and joins
    every child.
    """
    chunks = [codes[lo: lo + CHUNK_CODES] for lo in range(0, len(codes), CHUNK_CODES)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, len(chunks), cpus)
    if workers <= 1:
        job = make_job(ctx, g, tau)
        return [job(chunk) for chunk in chunks]
    # imported here, so a process that starts no child never loads multiprocessing
    import multiprocessing
    mp = multiprocessing.get_context()
    children = []  # (process, read end of its pipe)
    try:
        for i in range(1, workers):
            recv, send = mp.Pipe(duplex=False)
            child = mp.Process(target=_run_stride, daemon=True,
                               args=(send, make_job, ctx, g, tau, chunks[i::workers]))
            children.append((child, recv))
            with send:  # closed once the child has its copy, so the child's exit ends the pipe
                child.start()
        results = [None] * len(chunks)
        job = make_job(ctx, g, tau)
        results[::workers] = [job(chunk) for chunk in chunks[::workers]]
        for i, (child, recv) in enumerate(children, 1):
            try:
                ok, part = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"worker process exited with code {child.exitcode} "
                                   "before sending its results") from None
            if not ok:
                exc, trace = part
                raise exc from RuntimeError(f"in a worker process:\n{trace}")
            results[i::workers] = part
        return results
    finally:
        for child, recv in children:
            recv.close()
            if child.pid is not None:  # started; one that has sent its results has no work left
                child.terminate()
                child.join()


def merge_tallies(g: int, parts) -> dict[tuple[int, int], int]:
    """Sum per-chunk {(r, s): count} tallies over every profile of g."""
    entries = {prof: 0 for prof in profiles(g)}
    for part in parts:
        for prof, n in part.items():
            entries[prof] += n
    return entries


def _tally_job(ctx: FiniteField, g: int, tau: int):
    kernel = RowKernel(ctx, g, tau)
    return lambda chunk: kernel.tally(chunk.start, chunk.stop)


def bruteforce_table(
    ctx: FiniteField,
    g: int,
    tau: int,
    *,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CountTable:
    """Tally the profile of every one of the q^(g^2) maps.

    The code range is cut into fixed-size chunks and the per-chunk tallies
    are summed, so the result is identical whether chunks run in one
    process or are shared among any number of them.
    """
    total = check_budget(ctx.q, g, budget)
    entries = merge_tallies(g, run_chunks(_tally_job, ctx, g, tau, range(total), threads))
    table = CountTable(ctx.q, g, entries)
    if table.total != total:
        raise ArithmeticError(f"chunks tallied {table.total} of the {total} maps")
    return table


def verify_counts(
    ctx: FiniteField,
    g: int,
    tau: int,
    *,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[dict, bool]:
    """Compare all routes cell by cell and check the corollary identities.

    Enumerates first, so a run over budget raises before any formula work.
    Returns (report, ok).  The report is JSON-ready: counts as decimal
    strings, cells sorted by (r, s), fixed key order throughout.
    """
    q = ctx.q
    enumerated = bruteforce_table(ctx, g, tau, budget=budget, threads=threads).entries
    theorem, cells = report_cells(g, q, enumerated)
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
