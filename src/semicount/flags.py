"""Flags of subspaces and canonical basis adaptation.

Adapting an ordered basis e to a subspace U picks, for each position j
where the chain U ∩ span{e_(j+1), ..., e_(g-1)} drops in dimension, the
unique vector u_j of U whose e-coordinates have a 1 at j, zeros before j,
and zeros at the other drop positions.  Those drop positions J are exactly
the pivot columns of the reduced row echelon form of U written in
e-coordinates, and the u_j are its rows: the echelon normal form IS the
adapted set.  The adapted ordered basis lists the untouched e_j first
(increasing j) and then the u_j (increasing j), so its final dim(U)
vectors are a basis of U; and if the last n input vectors already lie in
U they are returned unchanged.

Adapting to a whole flag does this for every member, smallest first, in
one coordinate system, that of e.  Each member's generators are reduced
by the vectors already chosen, at their pivot columns; what is left is a
combination of the still-unused e_j, and its echelon form (leftmost
pivot, `FiniteField.eliminate`) gives the member's new vectors and pivots.
The result is adapted to every member at once, and it is unique.

The chosen vectors span the previous member W, so the reduced generators
of a member U span U modulo W, and U gains dim U - dim(U ∩ W) new pivots.
That is dim U - dim W exactly when W lies in U, and more otherwise; so one
integer comparison per member catches a chain that is not nested, and is
the only nesting check `make_flag` makes.  `make_flag` is also the one
check of a member basis: `linalg.matrix_from_rows` checks it as a block
(lengths, entry range), and its echelon form checks independence;
`adapt_to_flag` checks only that e is a basis and changes coordinates
with one product per member and one for the result; `adapt_to_subspace`
runs it on U's one-member flag, and `bijection` calls the core directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import FiniteField
from .linalg import (
    Matrix,
    Vector,
    _row_basis,
    mat_inverse,
    mat_mul,
    matrix_from_rows,
    standard_basis,
)
from .semilinear import SemilinearMap, apply


@dataclass(frozen=True)
class Flag:
    """Strictly decreasing chain of subspaces, V = V_0 ⊋ V_1 ⊋ ...

    Members are stored as canonical rref bases (the zero subspace is the
    empty tuple), so flags compare equal iff the subspace chains agree.
    The last member may be nonzero: image flags stabilize at the terminal
    image of the map that produced them.  A Flag is checked where it is
    made, by `make_flag`, `image_flag` or `bijection.induced_flag`, and
    not again where it is used.
    """

    ctx: FiniteField
    g: int
    subspaces: tuple[tuple[Vector, ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.subspaces)


def make_flag(ctx: FiniteField, g: int, members) -> Flag:
    """Validate and canonicalize a chain of subspace bases into a Flag.

    The full space is prepended when absent.  Each member is checked as a
    block of g columns by `matrix_from_rows`, so a vector of another length
    is a ragged row.  Dimensions must be strictly decreasing and each
    member must contain the next.
    """
    canon = []
    for basis in members:
        M = matrix_from_rows(ctx, basis, g)
        normal = _row_basis(ctx, M.row_list())
        if len(normal) != M.rows:
            raise ValueError("flag member basis is linearly dependent")
        canon.append(normal)
    if not canon or len(canon[0]) < g:
        canon.insert(0, standard_basis(g))
    dims = [len(m) for m in canon]
    if any(d2 >= d1 for d1, d2 in zip(dims, dims[1:])):
        raise ValueError(f"flag dimensions must strictly decrease, got {dims}")
    _adapt(ctx, g, canon[1:])
    return Flag(ctx, g, tuple(canon))


@dataclass(frozen=True)
class AdaptedBasis:
    """Ordered basis adapted to a flag, plus the pivot set of every step.

    `pivot_sets[i]` is the 0-based pivot index set J produced while
    adapting to `flag.subspaces[i + 1]` (one entry per proper member, in
    flag order, largest first), relative to the basis adapted to the
    smaller members.  For each member of dimension d, the last d basis
    vectors span it.
    """

    vectors: tuple[Vector, ...]
    pivot_sets: tuple[tuple[int, ...], ...]


def _adapt(ctx: FiniteField, g: int, members) -> AdaptedBasis:
    """Unchecked core, in the coordinates of the basis being adapted:
    `members` are bases of nested subspaces, largest first, written in
    those coordinates, and so are the returned vectors.  The only check
    is the pivot count per member, which catches a chain that is not
    nested.
    """
    sub_scaled = ctx.sub_scaled
    # (pivot column, vector), smallest member first: reducing in this order
    # leaves every earlier pivot column zero
    chosen: list[tuple[int, list[int]]] = []
    unused = list(range(g))
    new_vectors: list[list[int]] = []  # largest member first
    pivot_sets = []
    prev_dim = 0
    for member in reversed(members):
        rows = [list(w) for w in member]
        for w in rows:
            for col, u in chosen:
                c = w[col]
                if c:
                    sub_scaled(w, c, u)
        pivots = ctx.eliminate(rows, reduce_up=True)
        if len(pivots) != len(member) - prev_dim:
            raise ValueError("flag members are not nested")
        pivot_sets.append(tuple(unused.index(j) for j in pivots)
                          + tuple(range(g - prev_dim, g)))
        chosen += zip(pivots, rows)
        new_vectors[:0] = rows[:len(pivots)]
        unused = [j for j in unused if j not in pivots]
        prev_dim = len(member)
    units = standard_basis(g)
    vectors = [units[j] for j in unused] + [tuple(w) for w in new_vectors]
    return AdaptedBasis(tuple(vectors), tuple(reversed(pivot_sets)))


def _times(vectors, M: Matrix) -> tuple[Vector, ...]:
    """The row vectors v·M, for vectors v of length M.rows."""
    P = mat_mul(Matrix(M.ctx, len(vectors), M.rows, tuple(x for v in vectors for x in v)), M)
    return tuple(P.row(i) for i in range(P.rows))


def adapt_to_subspace(ctx: FiniteField, e_basis, u_basis
                      ) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Adapt an ordered basis of V to the subspace U = span(u_basis).

    Returns the new ordered basis and the pivot index set J (0-based,
    relative to positions in `e_basis`).  If the last n vectors of
    `e_basis` lie in U, they come back unchanged.
    """
    g = len(e_basis)
    adapted = adapt_to_flag(ctx, e_basis, make_flag(ctx, g, [u_basis]))
    # U = V is the flag's only member, so it has no pivot set: J is everything
    return adapted.vectors, adapted.pivot_sets[0] if adapted.pivot_sets else tuple(range(g))


def adapt_to_flag(ctx: FiniteField, e_basis, flag: Flag) -> AdaptedBasis:
    """Canonical basis simultaneously adapted to every member of the flag.
    The rows of B are e_basis, so a row u has e-coordinates u·B^-1."""
    B = matrix_from_rows(ctx, e_basis, flag.g)
    try:
        B_inv = mat_inverse(B)
    except ValueError:
        raise ValueError("e_basis is not a basis") from None
    adapted = _adapt(ctx, flag.g, [_times(m, B_inv) for m in flag.subspaces[1:]])
    return AdaptedBasis(_times(adapted.vectors, B), adapted.pivot_sets)


def image_flag(F: SemilinearMap) -> Flag:
    """The chain V ⊋ F(V) ⊋ F²(V) ⊋ ... down to F^g(V), where F is bijective."""
    members = [standard_basis(F.g)]
    while True:
        basis = _row_basis(F.ctx, [apply(F, v) for v in members[-1]])
        if len(basis) == len(members[-1]):
            return Flag(F.ctx, F.g, tuple(members))
        members.append(basis)
