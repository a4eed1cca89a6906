"""Twisted (semilinear) endomorphisms of a finite-dimensional space.

A map F here is additive and satisfies F(a·v) = tau(a)·F(v) for a fixed
field automorphism tau = Frobenius^i.  Coordinates follow one convention
used everywhere in this package:

    column j of the matrix is the image of the j-th basis vector,
    so F acts on coordinates as  F(v) = A · tau(v)   (tau entrywise).

Under that convention composition twists the *right* factor:
compose(F, G) has matrix A_F · tau_F(A_G) and exponent i_F + i_G (mod d).

The rank of F is the rank of A (tau is bijective, so im F is the column
space of A).  Iterating F can only shrink the image, and the chain of
images stabilizes after at most g = dim V steps; the stable subspace is
the largest F-stable subspace on which F acts bijectively, and its
dimension (the infinity rank) is computed here as rank(F^g), i.e. the
rank of A · tau(A) · tau^2(A) ··· tau^(g-1)(A).  V splits canonically as
that bijective summand plus the kernel of F^g, where F is eventually zero.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .gf import FiniteField, _digits
from .linalg import (
    Matrix,
    Vector,
    frobenius_vector,
    identity_matrix,
    kernel_basis,
    map_entries,
    mat_apply,
    mat_mul,
    column_space_basis,
    rank,
    rref_basis,
)

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


class RankProfile(NamedTuple):
    r: int  # rank
    s: int  # infinity rank, 0 <= s <= r <= g


@dataclass(frozen=True)
class SemilinearMap:
    """A square matrix over GF(q) paired with a Frobenius exponent."""

    mat: Matrix
    tau: int

    def __post_init__(self):
        if self.mat.rows != self.mat.cols:
            raise ValueError("semilinear endomorphism needs a square matrix")
        object.__setattr__(self, "tau", self.tau % self.mat.ctx.d)

    @property
    def ctx(self) -> FiniteField:
        return self.mat.ctx

    @property
    def g(self) -> int:
        return self.mat.rows

    def __repr__(self) -> str:
        return f"SemilinearMap(tau={self.tau}, mat={self.mat.entries!r})"


def identity_map(ctx: FiniteField, g: int) -> SemilinearMap:
    return SemilinearMap(identity_matrix(ctx, g), 0)


def apply(F: SemilinearMap, v: Vector) -> Vector:
    """F(v) = A · tau(v)."""
    return mat_apply(F.mat, frobenius_vector(F.ctx, v, F.tau))


def compose(F: SemilinearMap, G: SemilinearMap) -> SemilinearMap:
    """F ∘ G; twists by tau_F ∘ tau_G."""
    if F.ctx != G.ctx or F.g != G.g:
        raise ValueError("maps must share field and dimension")
    return SemilinearMap(mat_mul(F.mat, map_entries(G.mat, F.tau)), F.tau + G.tau)


def power(F: SemilinearMap, n: int) -> SemilinearMap:
    """n-fold composition; F^0 is the identity (untwisted)."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    result = identity_map(F.ctx, F.g)
    for _ in range(n):
        result = compose(F, result)
    return result


def _terminal_matrix(F: SemilinearMap) -> Matrix:
    """Matrix of F^g, computed as the twisted product of g factors."""
    A = F.mat
    product = A
    twisted = A
    for _ in range(F.g - 1):
        twisted = map_entries(twisted, F.tau)
        product = mat_mul(product, twisted)
        if not any(product.entries):
            break  # zero absorbs; remaining factors cannot change it
    return product


def profile(F: SemilinearMap) -> RankProfile:
    """(rank, infinity rank) of F."""
    r = rank(F.mat)
    if r == F.g or r == 0:
        return RankProfile(r, r)  # bijective maps stay bijective; rank-0 maps are zero
    return RankProfile(r, rank(_terminal_matrix(F)))


def terminal_image(F: SemilinearMap) -> tuple[Vector, ...]:
    """Canonical basis of the summand on which F is bijective."""
    return column_space_basis(_terminal_matrix(F))


def nil_part(F: SemilinearMap) -> tuple[Vector, ...]:
    """Canonical basis of the complement, where F is eventually zero.

    F^g sends v to M·(twist applied to v), so its kernel is the inverse
    twist of the matrix kernel of M, not that kernel itself; the two only
    coincide when the residual twist g*tau is zero mod d.
    """
    ctx = F.ctx
    back = (-F.g * F.tau) % ctx.d
    vs = [frobenius_vector(ctx, w, back) for w in kernel_basis(_terminal_matrix(F))]
    return rref_basis(ctx, vs)


def matrix_from_code(ctx: FiniteField, g: int, code: int) -> Matrix:
    """Decode a matrix index in [0, q^(g^2)): base-q digits, little-endian,
    fill the entries row-major.  The one check of a code's range."""
    if not 0 <= code < ctx.q ** (g * g):
        raise ValueError(f"matrix code outside [0, q^(g^2)) = [0, {ctx.q}^{g * g})")
    return Matrix(ctx, g, g, tuple(_digits(code, ctx.q, g * g)))


def enumerate_maps(
    ctx: FiniteField,
    g: int,
    tau: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[SemilinearMap]:
    """All q^(g^2) endomorphisms with the given twist, in matrix-code order."""
    total = check_budget(ctx.q, g, budget)
    tau %= ctx.d
    for code in range(total):
        yield SemilinearMap(matrix_from_code(ctx, g, code), tau)


# ---------------------------------------------------------------------------
# enumeration kernel


class RowKernel:
    """Profiles of all maps in a range of matrix codes, read off row codes.

    A row code is an integer in [0, Q), Q = q^g, whose base-q digits are
    the entries of one row; the base-Q digits of a matrix code are its row
    codes, so row i of code c is (c // Q**i) % Q.  No `Matrix` is built.

    r is the rank of the rows.  Codes are walked in runs of Q that share
    rows 1..g-1, and rows 2..g-1 change only once every Q runs.  While
    they last, one `tally` call keeps their layer y·(rows 2..g-1); nothing
    is kept between calls.  Each run then lists images[y] = y·(rows 1..g-1)
    from that layer and the q multiples of row 1, and `coord` inverts that
    list on its set W, the span of rows 1..g-1.  So |W| = len(coord) is q
    to the rank of rows 1..g-1, and it gives the run's type.  Row 0 adds
    one to the rank exactly when it is not in W.

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
      and those codes are only counted.  A row 0 = images[y] has im L = W,
      k_1 = tau((-1, y)) and k_(j+1) = tau((0, coord[k_j])), where coord
      inverts images on W.  The slice twist[neg_one::q], neg_one the code
      of -1, lists k_1 in y order, as images lists row 0; it is taken once
      per call.  Most k_1 are outside W, m = 1: only the k_1 in coord and
      in the set of k_1 of the row 0s in [start, stop) walk on (one set
      intersection), and the rest are counted at m = 1 in bulk.
    - corank-1 runs, where dim W = g-2, with a row 0 outside W.  Then
      im L = W + <row 0>, and k_1 = tau((0, y0)) for every such row 0,
      where images[y0] = 0 with y0 != 0.  While k_j is in W the step is
      x_0 = 0, k_(j+1) = tau((0, coord[k_j])), the same for every such
      row 0, so these steps are taken once per run.  The k_j they reach
      are independent and in W, so there are at most g-2 of them, and the
      shared chain stops at some k outside W with m <= g-1.  A row 0 goes
      on exactly when k - x_0·row 0 is in W for some x_0: k outside W
      forces x_0 != 0 and row 0 = x_0^-1·(k - w), so these row 0s are the
      (q-1)·q^(g-2) vectors of F*·k + W.  Each of them takes the first
      scalar x_0 with k_j - x_0·row 0 in W, at most q lookups, and then
      k_(j+1) = tau((x_0, coord[k_j - x_0·row 0])); every other row 0
      outside W is counted at the shared m.

    A row 0 in W of a corank-1 run gives r = g-2, im L = W and
    ker L = <a_1, b_1>: a_1 is the shared chain's first k and
    b_1 = tau((-1, coord[row 0])).  As dim L^-1(U) = 2 + dim(U ∩ W),
    dim ker L^(j+1) = 2 + dim(ker L^j ∩ W), so the nilpotent part has two
    Jordan blocks: lambda_2, the first j with ker L^j outside W, and
    lambda_1, the first with ker L^j + W = V; s = g - lambda_1 - lambda_2.
    b's chain steps b_(j+1) = tau((0, coord[b_j])) beside the stored
    shared one while both are in W, and a_j, b_j (j <= lambda_2) span
    ker L^j.  At lambda_2 the two are independent modulo W, and
    lambda_1 = lambda_2, unless one of them, or some b - x·a, is in W.
    Then ker L^j + W stays <gen> + W, gen the one that left, and one
    chain c_(j+1) = tau((0, coord[c_j - x·gen])) goes on, x the first
    scalar with c_j - x·gen in W; lambda_1 is the first j with none.
    Only the runs of rank <= g-3 take the echelon chain (tables for lead
    position, row normalised to lead 1 and its negative).  Such a run
    builds an echelon basis of rows 1..g-1 once, and each map starts its
    chain from it, with row 0 added when row 0 is outside W.
    Tables are built for g >= 2 only, and none has more than q^(g+1)
    entries: the q scalings of every row code, tau and tau^-1 digit by
    digit, and for odd p the sums of the lower and the upper halves of two
    rows (in characteristic 2 a row sum is XOR).  At g <= 1 the rank of a
    row is "row != 0" and the chain never runs, so no table is built.
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
        lead, norm, negnorm = [0] * Q, [0] * Q, [0] * Q
        for v in range(1, Q):
            j, w = 0, v
            while w % q == 0:
                j, w = j + 1, w // q
            inv = ctx.inv(w % q)
            lead[v] = j
            norm[v] = scale[inv * Q + v]
            negnorm[v] = scale[ctx.neg(inv) * Q + v]
        untwist = digitwise(ctx.frobenius_table(-tau).__getitem__, Q)
        twist = digitwise(ctx.frobenius_table(tau).__getitem__, Q)
        self.tables = {"scale": scale, "lead": lead, "norm": norm,
                       "negnorm": negnorm, "untwist": untwist, "twist": twist}
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
        self.tables.update(add_low=low, add_high=high)
        self.add = lambda a, b: low[a % H * H + b % H] + high[a // H * K + b // H]

    def _echelon(self, vectors) -> list[int]:
        """Normalised pivot rows spanning the given row codes, one per lead."""
        lead, norm, negnorm = self.tables["lead"], self.tables["norm"], self.tables["negnorm"]
        add = self.add
        piv = [0] * self.g
        for w in vectors:
            while w:
                j = lead[w]
                P = piv[j]
                if not P:
                    piv[j] = norm[w]
                    break
                w = add(negnorm[w], P)
        return [P for P in piv if P]

    def tally(self, start: int, stop: int) -> dict[tuple[int, int], int]:
        """{(r, s): number of maps} over the codes in [start, stop), which
        must lie in [0, q^(g^2)): the one check of a call's range."""
        g, q, Q = self.g, self.q, self.Q
        if not 0 <= start <= stop <= Q**g:
            raise ValueError(f"codes [{start}, {stop}) not inside [0, q^(g^2)) = [0, {q}^{g * g})")
        if g < 2:  # one entry at most: r = s = 1 exactly when it is nonzero
            zero = int(start <= 0 < stop)
            return {cell: n for cell, n in [((0, 0), zero), ((g, g), stop - start - zero)] if n}
        t = self.tables
        scale, untwist, twist = t["scale"], t["untwist"], t["twist"]
        add, echelon, neg_one = self.add, self._echelon, self.neg_one
        counts = [0] * (g + 1) ** 2
        corank1 = (g - 1) * (g + 1) + g  # counts[corank1 - m] is the cell (g-1, g-m)
        corank2 = corank1 - g - 1  # counts[corank2 - l1 - l2] is the cell (g-2, g-l1-l2)
        firsts = twist[neg_one::q]  # tau((-1, y)) in y order, as images lists y·rows
        every_start = set(firsts)
        top = None  # rows 2..g-1 as one code, with their layer
        for prefix in range(start // Q, -(-stop // Q)):
            if prefix // Q != top:
                top = prefix // Q
                rows = [top // Q**i % Q for i in range(g - 2)]  # rows 2..g-1
                # upper[y] = y·(rows 2..g-1) for y in [0, Q/q^2); digit 0 weighs row 2
                upper = [0]
                for v in reversed(rows):
                    upper = [add(u, w) for w in upper for u in scale[v::Q]]
                spread = [w for w in upper for _ in range(q)]  # upper[y // q] at y
            # images[y] = y·(rows 1..g-1) for y in [0, Q/q); digit 0 weighs row 1
            row1 = prefix % Q
            images = list(map(add, scale[row1::Q] * len(upper), spread))
            coord = dict(zip(images, range(Q // q)))  # inverts images on W
            first = prefix * Q
            lo, hi = max(start - first, 0), min(stop - first, Q)
            if len(coord) == Q // q:
                # hyperplane run: a row 0 = images[y] gives ker L = <k_1>, k_1 = tau((-1, y)),
                # and m = 1 unless k_1 is in W
                starts = every_start if hi - lo == Q else {
                    k for k, row0 in zip(firsts, images) if lo <= row0 < hi}
                going = coord.keys() & starts
                counts[corank1 - 1] += len(starts) - len(going)
                for k in going:
                    m = 1
                    while k in coord:
                        k, m = twist[q * coord[k]], m + 1
                    counts[corank1 - m] += 1
                counts[-1] += hi - lo - len(starts)  # row 0 outside W: bijective
                continue
            if len(coord) == Q // q // q:
                # corank 1: ker L = <tau((0, y0))>; the steps with x0 = 0 are shared
                shared = [twist[q * images.index(0, 1)]]
                while shared[-1] in coord:
                    shared.append(twist[q * coord[shared[-1]]])
                k, m = shared[-1], len(shared)
                inside = [w for w in coord if lo <= w < hi]  # row 0 in W
                going = [add(scale[x * Q + k], w) for x in range(1, q) for w in coord]
                going = [v for v in going if lo <= v < hi]
                counts[corank1 - m] += hi - lo - len(inside) - len(going)
                for row0 in going:  # row 0 in F*·k + W: k - x0·row 0 in W for one x0
                    minus, kj, mj = scale[neg_one * Q + row0], k, m
                    while mj < g:  # solve L(x) = kj as x = tau((x0, y)), kj - x0·row0 = y·rows
                        for x0 in range(q):
                            w = add(kj, scale[x0 * Q + minus])
                            if w in coord:
                                break
                        else:
                            break  # kj is outside im L = W + <row 0>
                        kj, mj = twist[x0 + q * coord[w]], mj + 1
                    counts[corank1 - mj] += 1
                for row0 in inside:  # ker L = <shared[0], tau((-1, coord[row 0]))>, im L = W
                    kb, j = twist[neg_one + q * coord[row0]], 0
                    while j < m - 1 and kb in coord:  # both chains still in W
                        kb, j = twist[q * coord[kb]], j + 1
                    # level j+1 = lambda_2 leaves W; c in W once a multiple of gen is taken off
                    c, gen = (shared[j], kb) if j < m - 1 else (kb, shared[j])
                    minus, level = scale[neg_one * Q + gen], j + 1
                    while True:
                        for x in range(q):
                            w = add(c, scale[x * Q + minus])
                            if w in coord:
                                break
                        else:
                            break  # ker L^level spans V/W: lambda_1 = level
                        c, level = twist[q * coord[w]], level + 1
                    counts[corank2 - j - 1 - level] += 1
                continue
            base = echelon([row1] + rows)  # rank <= g-3
            for row0 in range(lo, hi):
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
