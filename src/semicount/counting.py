"""Exact counts of semilinear endomorphisms by (rank, stable rank).

Three independent routes to the same numbers:

* `closed_form_count` evaluates a single product formula in integers,
  with one exact division, and raises unless that division leaves no
  remainder.
* `staged_count` multiplies the sizes of the stages that build a tuple
  with the given profile (choices for the trailing block, lifts, choices
  for the leading block); integers only.
* `bruteforce_table` enumerates every matrix code and tallies profiles
  with the row-code kernel `RowKernel`, defined here beside its budget;
  tests hold that kernel to `semilinear.profile`, run by run.

Keeping all three and demanding agreement is the design: a bug in any one
route shows up as a mismatch instead of a silently wrong table.  All
counts are arbitrary-precision; reports serialize them as decimal strings.
The module imports only `gf`, so `count` and `verify` load no matrix code.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple

from .gf import FiniteField

# Ceiling on q^(g^2) for exhaustive map enumeration.
DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


def check_budget(q: int, g: int, budget: int) -> int:
    """q^(g^2) maps to enumerate, or BudgetExceeded past `budget`."""
    total = q ** (g * g)
    if total > budget:
        raise BudgetExceeded(f"q^(g^2) = {q}^{g * g} exceeds budget {budget}")
    return total


# Fixed chunk granularity for the parallel enumerator.  Constant by design:
# the work split, and therefore the merged result, never depends on how
# many workers happen to run.
CHUNK_CODES = 4096

# The fewest kernel codes that pay for one more process, set from
# alternated in-process 1- vs 2-worker calls of `bruteforce_table` (README
# "Performance"), not from a benchmark workload: a child costs a fork, a
# pipe and its own RowKernel tables, 2-4 ms, against 0.06-0.35 us a code
# at g >= 3, so GF(5) g=3 (1,953,125 codes) forks and GF(2^2) g=3
# (262,144) does not.
KERNEL_CODES_PER_WORKER = 1 << 19


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


def staged_count(g: int, r: int, s: int, q: int) -> int:
    """Stage-by-stage product for the number of maps with profile (r, s):
    independent choices for the last s tuple entries, q^{s(g-s)} lifts,
    then the leading block's (n-1)-tuples spanning a d-subspace of k^n,
    n = g-s and d = r-s: a subspace, then a surjection onto it.  The
    block's n-th entry is pinned by the span conditions: no factor."""
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


class CountTable(namedtuple("CountTable", "q g entries")):
    """Counts per profile, `entries` = {(r, s): count}.

    `entries` covers every profile 0 <= s <= r <= g, zeros included, so
    tables from different routes compare with plain equality of dicts.
    """

    __slots__ = ()

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
    _check_marginals(g, q, entries)
    return table


def _check_marginals(g: int, q: int, entries: dict) -> None:
    """Raise ArithmeticError unless {(r, s): count} obeys the two marginal laws.

    Rank (Landsberg 1893): the g x g matrices of rank d number
    prod_{i<d} (q^g - q^i)^2 / |GL_d|, and a semilinear map has the rank of
    its matrix.  Stable rank (Fitting; Fine & Herstein 1958): the maps
    with s = d number prod_{i<d} (q^g - q^i) · q^((g-d)(g-1)).  Both owe
    nothing to the two count routes, so they catch a fault that moves
    counts between cells after the routes agree."""
    row = _falling_row(q, g)
    for d in range(g + 1):
        by_rank = sum(entries[d, s] for s in range(d + 1))
        if by_rank * gl_order(d, q) != row[d] ** 2:
            raise ArithmeticError(f"rank {d} holds {by_rank} maps at g={g}, q={q}, "
                                  f"not {row[d] ** 2 // gl_order(d, q)}")
        by_stable = sum(entries[r, d] for r in range(d, g + 1))
        if by_stable != row[d] * q ** ((g - d) * (g - 1)):
            raise ArithmeticError(f"stable rank {d} holds {by_stable} maps at g={g}, q={q}, "
                                  f"not {row[d] * q ** ((g - d) * (g - 1))}")


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


def run_chunks(make_job, ctx: FiniteField, g: int, tau: int, codes, size: int,
               threads: int) -> list:
    """job(chunk) for each `size`-long slice of `codes` (a range or a list),
    job = make_job(ctx, g, tau), in chunk order.

    w = max(1, min(threads, chunks, CPUs)) processes share the chunks, the
    calling one included; CPUs counts those `os.sched_getaffinity` lets this
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
    chunks = [codes[lo: lo + size] for lo in range(0, len(codes), size)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(threads, len(chunks), cpus))
    children = []  # (process, read end of its pipe)
    try:
        for i in range(1, workers):
            # imported here, so a process that starts no child never loads multiprocessing
            import multiprocessing
            mp = multiprocessing.get_context()
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


# ---------------------------------------------------------------------------
# enumeration kernel


class RowKernel:
    """Profiles of all maps in a range of matrix codes, read off row codes.

    A row code is an integer in [0, Q), Q = q^g, whose base-q digits are
    the entries of one row; the base-Q digits of a matrix code are its row
    codes, so row i of code c is (c // Q**i) % Q.  No `Matrix` is built.

    r is the rank of the rows.  Codes are walked in runs of Q that share
    rows 1..g-1: an outer loop walks the tops, rows 2..g-1 as one code,
    and an inner loop walks row 1, so each top's layer y·(rows 2..g-1) is
    built once per call and each run adds the q multiples of row 1 to it;
    nothing is kept between calls.  `coord` maps each vector of W, the
    span of rows 1..g-1, to q·y for the last y with y·(rows 1..g-1) equal
    to it, and q·y is the index in `twist` of tau((0, y)).  So
    |W| = len(coord) is q to the rank of rows 1..g-1, and it gives the
    run's type.  Row 0 adds one to the rank exactly when it is not in W.
    A call counts whole runs only, both ends of [start, stop) multiples
    of Q, so every row 0 of a run is counted: no bound on row 0 is
    computed or tested, and a run's row 0s in W are `coord` itself.
    Only the runs of rank <= g-3 list images[y] = y·(rows 1..g-1).

    s comes from the dual image chain U_1 = row space of A and
    U_(k+1) = L(U_k), where L(x) = tau^-1(x)·A.  F^k has matrix
    A·tau(A)···tau^(k-1)(A), so U_k = tau^-(k-1)(row space of F^k) and
    dim U_k = rank(F^k); the chain stops when the dimension repeats or
    reaches 0.  Each x·A in it is one entry of the run's list plus a
    scaled row 0.

    Most maps need no chain at all.  When r = g-1, L is semilinear with a
    1-dimensional kernel, so its nilpotent part is one Jordan block
    (Fitting; Fine & Herstein 1958) of some length m.  From k_1 spanning
    ker L, the chain k_(j+1) = tau((x_0, y)) with
    x_0·row 0 + y·(rows 1..g-1) = k_j solves L(k_(j+1)) = k_j while k_j is
    in im L; m is the first j with k_j outside im L, whichever preimages
    were taken, since k_1..k_(j-1) span ker L^(j-1) and lie in im L.  So
    rank F^k = g - min(k, m) and s = g - m.  Two kinds of run give r = g-1:

    - hyperplane runs, where rows 1..g-1 are independent and W is a
      hyperplane.  A row 0 outside W gives a bijective map, r = s = g,
      and those codes are only counted.  A row 0 = y·(rows 1..g-1) has
      im L = W, k_1 = tau((-1, y)) and k_(j+1) = tau((0, y')) with
      q·y' = coord[k_j].  The set `starts` of every k_1, the slice
      twist[neg_one::q] with neg_one the code of -1, is taken once per
      call and serves every run.  Most k_1 are outside W, m = 1: only
      those in coord walk on (one set intersection), and the rest are
      counted at m = 1 in bulk.
    - corank-1 runs, where dim W = g-2, with a row 0 outside W.  Then
      im L = W + <row 0>, and k_1 = tau((0, y0)) for every such row 0,
      where q·y0 = coord[0], y0 != 0.  While k_j is in W the step is
      x_0 = 0, the same for every such row 0, so these steps are taken
      once per run.  The k_j they reach are independent and in W, so
      there are at most g-2 of them, and the shared chain stops at some
      k outside W with m <= g-1.  A row 0 goes on exactly when
      k - x_0·row 0 is in W for some x_0: k outside W forces x_0 != 0 and
      row 0 = x_0^-1·(k - w), so these row 0s are the (q-1)·q^(g-2)
      vectors x·k + w of F*·k + W.  For each, x_0 = 1/x and
      k - x_0·row 0 = -w/x, so its first step past k is
      k_(m+1) = twist[inv[x] + coord[-w/x]], with no search (`inv` and
      `neginv` hold 1/x and -1/x).  Each later step takes the first
      scalar x_0 with k_j - x_0·row 0 in W, at most q lookups, and then
      k_(j+1) = tau((x_0, y')) with q·y' = coord[k_j - x_0·row 0];
      every other row 0 outside W is counted at the shared m.

    A row 0 in W of a corank-1 run gives r = g-2, im L = W and
    ker L = <a_1, b_1>: a_1 is the shared chain's first k and
    b_1 = tau((-1, y)) with y·(rows 1..g-1) = row 0.  As dim L^-1(U) =
    2 + dim(U ∩ W), dim ker L^(j+1) = 2 + dim(ker L^j ∩ W), so the
    nilpotent part has two Jordan blocks: lambda_2, the first j with
    ker L^j outside W, and lambda_1, the first with ker L^j + W = V;
    s = g - lambda_1 - lambda_2.  b's chain steps b_(j+1) = tau((0, y)),
    y·(rows 1..g-1) = b_j, beside the stored shared one while both are
    in W, and a_j, b_j (j <= lambda_2) span ker L^j.  At lambda_2 the
    two are independent modulo W, and lambda_1 = lambda_2, unless one of
    them, or some b - x·a, is in W.  Then ker L^j + W stays <gen> + W,
    gen the one that left, and one chain c_(j+1) = tau((0, y)),
    y·(rows 1..g-1) = c_j - x·gen, goes on, x the first scalar with
    c_j - x·gen in W; lambda_1 is the first j with none.
    Only the runs of rank <= g-3 take the echelon chain (tables for lead
    position and row normalised to lead 1).  Such a run
    builds an echelon basis of rows 1..g-1 once, and each map starts its
    chain from it, with row 0 added when row 0 is outside W.
    Tables are built for g >= 2 only, and none has more than q^(g+1)
    entries: the q scalings of every row code, tau and tau^-1 digit by
    digit, 1/x and -1/x for the q scalars x (0 at x = 0), and for odd p
    the sums of the lower and the upper halves of two
    rows (in characteristic 2 a row sum is XOR), which only `add` holds.
    At g <= 1 the rank of the one row is "row != 0" and s = r, so no table
    is built.  The general walk gives the same tally there, but the g < 2
    branch is a resource guard, not a shortcut: at g = 1 `scale` alone
    would hold q^2 entries, 2^32 at GF(2^16), and one-row cells of such
    fields fit every budget.
    """

    def __init__(self, ctx: FiniteField, g: int, tau: int):
        self.g, self.q, self.Q = g, ctx.q, ctx.q**g
        self.tables: dict[str, list[int]] = {}
        self.add = None  # row code + row code
        self.neg_one = ctx.neg(1)
        if g >= 2:
            self._build(ctx, tau)

    def _build(self, ctx: FiniteField, tau: int) -> None:
        q, Q, g = self.q, self.Q, self.g

        def digitwise(f, size: int) -> list[int]:
            # row code v = v0 + q·(v // q), so f (with f(0) = 0) acts digit by digit
            out = [0] * size
            for v in range(1, size):
                out[v] = f(v % q) + q * out[v // q]
            return out

        scale = []
        for c in range(q):
            scale += digitwise(lambda x, c=c: ctx.mul(c, x), Q)
        inv = [0] + [ctx.inv(x) for x in range(1, q)]
        neginv = [ctx.neg(x) for x in inv]
        lead, norm = [0] * Q, [0] * Q
        for v in range(1, Q):
            j, w = 0, v
            while w % q == 0:
                j, w = j + 1, w // q
            lead[v] = j
            norm[v] = scale[inv[w % q] * Q + v]
        untwist = digitwise(ctx.frobenius_table(-tau).__getitem__, Q)
        twist = digitwise(ctx.frobenius_table(tau).__getitem__, Q)
        self.tables = {"scale": scale, "lead": lead, "norm": norm, "untwist": untwist,
                       "twist": twist, "inv": inv, "neginv": neginv}
        if ctx.p == 2:
            self.add = operator.xor
            return
        H = q ** ((g + 1) // 2)
        K = Q // H

        def sums(size: int, factor: int) -> list[int]:
            out = [0] * (size * size)
            for a in range(size):
                for b in range(size):
                    total, x, y, place = 0, a, b, factor
                    while x or y:
                        total += ctx.add(x % q, y % q) * place
                        x, y, place = x // q, y // q, place * q
                    out[a * size + b] = total
            return out

        low, high = sums(H, 1), sums(K, H)
        self.add = lambda a, b: low[a % H * H + b % H] + high[a // H * K + b // H]

    def _echelon(self, vectors) -> list[int]:
        """Rows spanning the given row codes, one per lead, each negated
        from its normalised form: its lead digit is -1."""
        lead, norm, scale = self.tables["lead"], self.tables["norm"], self.tables["scale"]
        add, minus, piv = self.add, self.neg_one * self.Q, [0] * self.g
        for w in vectors:
            while w:
                j = lead[w]
                P = piv[j]
                if not P:
                    piv[j] = scale[minus + norm[w]]
                    break
                w = add(norm[w], P)
        return [P for P in piv if P]

    def tally(self, start: int, stop: int) -> dict[tuple[int, int], int]:
        """{(r, s): number of maps} over the codes in [start, stop), which
        must be whole runs within [0, q^(g^2)): both ends multiples of Q.
        This is the one check of a call's range."""
        g, q, Q = self.g, self.q, self.Q
        if not (0 <= start <= stop <= Q**g and start % Q == stop % Q == 0):
            raise ValueError(f"codes [{start}, {stop}) are not whole runs of {Q} codes "
                             f"within [0, q^(g^2)) = [0, {q}^{g * g})")
        if g < 2:  # a resource guard, kept (class docstring): one run at most, of Q
            # codes, and r = s = 1 exactly when nonzero
            zero = int(start < stop)
            return {cell: n for cell, n in [((0, 0), zero), ((g, g), stop - start - zero)] if n}
        t = self.tables
        scale, untwist, twist = t["scale"], t["untwist"], t["twist"]
        inv, neginv = t["inv"], t["neginv"]
        add, echelon, neg_one = self.add, self._echelon, self.neg_one
        counts = [0] * (g + 1) ** 2
        corank1 = (g - 1) * (g + 1) + g  # counts[corank1 - m] is the cell (g-1, g-m)
        corank2 = corank1 - g - 1  # counts[corank2 - l1 - l2] is the cell (g-2, g-l1-l2)
        starts = set(twist[neg_one::q])  # tau((-1, y)) for every y
        ys = range(0, Q, q)  # q·y, the twist index of tau((0, y)), in y order
        hyperplane, corank = Q // q, Q // q // q  # |W| when rows 1..g-1 have rank g-1, g-2
        begin, end = start // Q, stop // Q  # the runs in [start, stop)
        for top in range(begin // Q, -(-end // Q)):
            rows = [top // Q**i % Q for i in range(g - 2)]  # rows 2..g-1
            # upper[y] = y·(rows 2..g-1) for y in [0, Q/q^2); digit 0 weighs row 2
            upper = [0]
            for v in reversed(rows):
                upper = [add(u, w) for w in upper for u in scale[v::Q]]
            spread = [w for w in upper for _ in range(q)]  # upper[y // q] at y
            for prefix in range(max(begin, top * Q), min(end, top * Q + Q)):
                # y·(rows 1..g-1) for y in [0, Q/q), digit 0 weighing row 1, and coord
                # from each vector of W to q·y for the last such y
                row1 = prefix % Q
                coord = dict(zip(map(add, scale[row1::Q] * len(upper), spread), ys))
                if len(coord) == hyperplane:
                    # hyperplane run: row 0 = y·rows gives ker L = <k_1>, k_1 = tau((-1, y)),
                    # and m = 1 unless k_1 is in W
                    going = starts.intersection(coord)
                    counts[corank1 - 1] += hyperplane - len(going)
                    for k in going:
                        m = 1
                        while k in coord:
                            k, m = twist[coord[k]], m + 1
                        counts[corank1 - m] += 1
                    counts[-1] += Q - hyperplane  # row 0 outside W: bijective
                    continue
                if len(coord) == corank:
                    # corank 1: ker L = <tau((0, y0))>, y0 != 0 the last y with y·rows = 0;
                    # the steps with x0 = 0 are shared
                    shared = [twist[coord[0]]]
                    while shared[-1] in coord:
                        shared.append(twist[coord[shared[-1]]])
                    k, m = shared[-1], len(shared)
                    counts[corank1 - m] += Q - q * corank  # row 0 outside W + <k>
                    for x in range(1, q):
                        # row 0 = x·k + w, w in W: the one x0 with k - x0·row 0 in W is
                        # 1/x, and k - x0·row 0 = -w/x
                        kx, first_x0, down = scale[x * Q + k], inv[x], neginv[x] * Q
                        for w in coord:
                            kj, mj = twist[first_x0 + coord[scale[down + w]]], m + 1
                            if mj < g:
                                minus = scale[neg_one * Q + add(kx, w)]
                            while mj < g:  # L(x) = kj, x = tau((x0, y)), kj - x0·row0 = y·rows
                                for x0 in range(q):
                                    v = add(kj, scale[x0 * Q + minus])
                                    if v in coord:
                                        break
                                else:
                                    break  # kj is outside im L = W + <row 0>
                                kj, mj = twist[x0 + coord[v]], mj + 1
                            counts[corank1 - mj] += 1
                    for row0 in coord:  # ker L = <shared[0], tau((-1, y))>, y·rows = row 0
                        kb, j = twist[neg_one + coord[row0]], 0
                        while j < m - 1 and kb in coord:  # both chains still in W
                            kb, j = twist[coord[kb]], j + 1
                        # level j+1 = lambda_2 leaves W; c in W once a multiple of gen is off
                        c, gen = (shared[j], kb) if j < m - 1 else (kb, shared[j])
                        minus, level = scale[neg_one * Q + gen], j + 1
                        while True:
                            for x in range(q):
                                w = add(c, scale[x * Q + minus])
                                if w in coord:
                                    break
                            else:
                                break  # ker L^level spans V/W: lambda_1 = level
                            c, level = twist[coord[w]], level + 1
                        counts[corank2 - j - 1 - level] += 1
                    continue
                # rank <= g-3: images[y] = y·(rows 1..g-1)
                images = list(map(add, scale[row1::Q] * len(upper), spread))
                base = echelon([row1] + rows)
                for row0 in range(Q):
                    basis = base if row0 in coord else base + [row0]
                    r = n = len(basis)
                    while 0 < n < g:
                        step = []
                        for u in basis:
                            x = untwist[u]
                            step.append(add(images[x // q], scale[x % q * Q + row0]))
                        basis = echelon(step)
                        if len(basis) == n:
                            break
                        n = len(basis)
                    counts[r * (g + 1) + n] += 1
        return {(r, s): counts[r * (g + 1) + s]
                for r in range(g + 1) for s in range(r + 1) if counts[r * (g + 1) + s]}


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

    The code range is cut into chunks of whole runs, the most that fit in
    CHUNK_CODES or one run where a run is longer, and the per-chunk
    tallies are summed, so the result is identical whether chunks run in
    one process or are shared among any number of them: at most `threads`,
    and at most one per KERNEL_CODES_PER_WORKER codes, so a call of fewer
    than 2 * KERNEL_CODES_PER_WORKER codes starts no child (`run_chunks`).
    """
    total, Q = check_budget(ctx.q, g, budget), ctx.q**g
    size = Q * max(1, CHUNK_CODES // Q)
    threads = min(threads, total // KERNEL_CODES_PER_WORKER)
    entries = merge_tallies(g, run_chunks(_tally_job, ctx, g, tau, range(total), size, threads))
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
    _check_marginals(g, q, theorem)
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
