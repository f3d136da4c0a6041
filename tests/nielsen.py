"""The Nielsen generators of Aut(F_n), for the tests that need an
automorphism beyond the package's named ones (a swap of generators that
does not preserve a subgroup, an inversion that acts nontrivially mod
3)."""

from fgcert.homs import FreeHom, VerifiedAut
from fgcert.words import Alphabet, Word, WordError


def nielsen_transvection(alpha: Alphabet, i: int, j: int, exponent: int = 1,
                         side: str = "right") -> VerifiedAut:
    """x_i -> x_i * x_j^exponent (or x_j^exponent * x_i for side="left")."""
    if i == j:
        raise WordError("transvection needs distinct generators")
    gens = alpha.generators()

    def images(e: int) -> tuple[Word, ...]:
        out = list(gens)
        if side == "right":
            out[i] = gens[i] * gens[j] ** e
        else:
            out[i] = gens[j] ** e * gens[i]
        return tuple(out)

    return VerifiedAut(FreeHom(alpha, alpha, images(exponent)),
                       FreeHom(alpha, alpha, images(-exponent)))


def nielsen_inversion(alpha: Alphabet, i: int) -> VerifiedAut:
    """x_i -> x_i^-1."""
    gens = alpha.generators()
    out = list(gens)
    out[i] = gens[i].inverse()
    h = FreeHom(alpha, alpha, tuple(out))
    return VerifiedAut(h, h)


def nielsen_permutation(alpha: Alphabet, perm: tuple[int, ...]) -> VerifiedAut:
    """x_i -> x_perm[i]."""
    gens = alpha.generators()
    fwd = FreeHom(alpha, alpha, tuple(gens[perm[i]] for i in range(alpha.rank)))
    inv = [0] * alpha.rank
    for i, p in enumerate(perm):
        inv[p] = i
    bwd = FreeHom(alpha, alpha, tuple(gens[inv[i]] for i in range(alpha.rank)))
    return VerifiedAut(fwd, bwd)
