"""Abelianized Schreier subgroups as integer modules.

The abelianization of a finite-index subgroup of a free group is a free
Z-module on its Schreier generators.  Conjugation by a normalizing
element, and any automorphism preserving the subgroup, act on it by
integer matrices; eigenlattices of those matrices are computed exactly
and saturated, never through floating point.
"""

from __future__ import annotations

from .homs import VerifiedAut, inner_aut
from .intlinalg import IntMatrix, Lattice, kernel_basis
from .quotients import SchreierSystem, SchreierError
from .words import Word


def abelianized_image(s: SchreierSystem, w: Word) -> tuple[int, ...]:
    """Exponent vector of a subgroup element over the Schreier generators:
    the signs of its Schreier letters, summed per generator (free
    reduction leaves exponent sums as they are)."""
    sums = [0] * s.sub_alphabet.rank
    for gen, sign in s.schreier_letters(w):
        sums[gen] += sign
    return tuple(sums)


def conjugation_matrix(s: SchreierSystem, g: Word) -> IntMatrix:
    """Matrix of v -> class of g^-1 (lift of v) g on the abelianized
    Schreier generators: the action matrix of the inner automorphism
    by g, so column j is the exponent vector of rewrite(g^-1 e_j g)."""
    try:
        return action_matrix(s, inner_aut(g))
    except SchreierError:
        raise SchreierError(f"{g} does not normalize the subgroup") from None


def action_matrix(s: SchreierSystem, aut: VerifiedAut) -> IntMatrix:
    """Matrix of the abelianized action of an automorphism preserving
    the subgroup H; column j = exponent vector of rewrite(aut(e_j)).

    Rewriting each aut(e_j) is the whole check: it succeeds exactly when
    aut(H) <= H, and aut(H) has the same finite index in F as H, so then
    aut(H) = H."""
    try:
        return IntMatrix.from_columns([abelianized_image(s, aut(e)) for e in s.generators])
    except SchreierError:
        raise SchreierError("automorphism does not preserve the subgroup") from None


def eigen_lattice(m: IntMatrix, eigenvalue: int) -> Lattice:
    """Saturated integer kernel of (m - eigenvalue*I), basis in Hermite
    normal form, as ``kernel_basis`` returns it.  May be the zero
    lattice."""
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    shifted = IntMatrix(tuple(row[:i] + (row[i] - eigenvalue,) + row[i + 1:]
                              for i, row in enumerate(m.rows)))
    return Lattice(m.nrows, tuple(map(tuple, kernel_basis(shifted))))


def induced_action(s: SchreierSystem, aut: VerifiedAut,
                   invariant: Lattice) -> IntMatrix:
    """Matrix of the abelianized action restricted to an invariant
    lattice, in the lattice's basis (column j = image of basis vector j).

    Raises if the automorphism does not preserve the subgroup or the
    lattice is not invariant under the abelianized action.
    """
    m = action_matrix(s, aut)
    if invariant.ambient_dim != m.nrows:
        raise ValueError("lattice has wrong ambient dimension")
    cols = []
    for basis_vec in invariant.basis:
        image = m.apply(basis_vec)
        coords = invariant.solve(image)
        if coords is None:
            raise SchreierError("lattice is not invariant under the action")
        cols.append(coords)
    return IntMatrix.from_columns(cols)
