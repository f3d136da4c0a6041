"""Endomorphisms and verified automorphisms of free groups.

An automorphism is always supplied together with an explicit inverse
(:class:`VerifiedAut`); the constructor checks both round trips on every
generator.  Finding inverses (Whitehead's algorithm) is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import (
    Alphabet,
    Word,
    WordError,
    _inverted,
    alphabet,
    parse_word,
    substitute,
)


@dataclass(frozen=True)
class FreeHom:
    """A homomorphism between free groups, given by generator images."""

    domain: Alphabet
    codomain: Alphabet
    images: tuple[Word, ...]
    # the syllables of the images and of their inverses, for ``substitute``
    # and a subgroup hom's move table
    _syllables: tuple = field(init=False, repr=False, compare=False)
    _inverses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.images) != self.domain.rank:
            raise WordError("one image per domain generator required")
        for img in self.images:
            if img.alphabet != self.codomain:
                raise WordError("image over wrong alphabet")
        object.__setattr__(self, "_syllables", tuple(img.syllables for img in self.images))
        object.__setattr__(self, "_inverses", tuple(_inverted(self.codomain, img.syllables)
                                                    for img in self.images))

    def __call__(self, w: Word) -> Word:
        if w.alphabet is not self.domain and w.alphabet != self.domain:
            raise WordError("word not over the domain alphabet")
        return substitute(self.codomain, self._syllables, self._inverses, w.syllables)

    def is_endo(self) -> bool:
        return self.domain == self.codomain


def hom(alpha: Alphabet, *image_texts: str) -> FreeHom:
    """Build an endomorphism from image strings, one per generator."""
    return FreeHom(alpha, alpha, tuple(parse_word(t, alpha) for t in image_texts))


def compose(f: FreeHom, g: FreeHom) -> FreeHom:
    """(f o g)(x) = f(g(x)); g's codomain must be f's domain."""
    if g.codomain != f.domain:
        raise WordError("codomain of g must equal domain of f")
    return FreeHom(g.domain, f.codomain, tuple(f(img) for img in g.images))


@dataclass(frozen=True)
class VerifiedAut:
    """An automorphism packaged with an explicit inverse.

    Construction fails unless forward o backward and backward o forward
    both fix every generator.
    """

    forward: FreeHom
    backward: FreeHom

    def __post_init__(self):
        if not (self.forward.is_endo() and self.backward.is_endo()):
            raise WordError("automorphisms must be endomorphisms")
        if self.forward.domain != self.backward.domain:
            raise WordError("alphabet mismatch between forward and backward")
        gens = self.forward.domain.generators()
        for g in gens:
            if self.forward(self.backward(g)) != g or self.backward(self.forward(g)) != g:
                raise WordError("inverse check failed: not a verified automorphism")

    @property
    def alphabet(self) -> Alphabet:
        return self.forward.domain

    def __call__(self, w: Word) -> Word:
        return self.forward(w)

    def inverse(self) -> "VerifiedAut":
        return VerifiedAut(self.backward, self.forward)


def compose_auts(f: VerifiedAut, g: VerifiedAut) -> VerifiedAut:
    """(f o g) as a verified automorphism."""
    return VerifiedAut(compose(f.forward, g.forward), compose(g.backward, f.backward))


def inner_aut(g: Word) -> VerifiedAut:
    """The inner automorphism w -> g^-1 w g.

    With this convention inner_aut(g1) o inner_aut(g2) = inner_aut(g2 g1).
    """
    alpha = g.alphabet
    ginv = g.inverse()
    fwd = FreeHom(alpha, alpha, tuple(x.conjugated_by(g) for x in alpha.generators()))
    bwd = FreeHom(alpha, alpha, tuple(x.conjugated_by(ginv) for x in alpha.generators()))
    return VerifiedAut(fwd, bwd)


# ---------------------------------------------------------------------------
# Named automorphisms
# ---------------------------------------------------------------------------

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")


def transvection_alpha() -> VerifiedAut:
    """Rank 2: x -> x, y -> y x^2 (abelianizes to [[1,2],[0,1]])."""
    return VerifiedAut(hom(XY, "x", "y x^2"), hom(XY, "x", "y x^-2"))


def transvection_beta() -> VerifiedAut:
    """Rank 2: x -> x y^2, y -> y (abelianizes to [[1,0],[2,1]])."""
    return VerifiedAut(hom(XY, "x y^2", "y"), hom(XY, "x y^-2", "y"))


def shear_alpha3() -> VerifiedAut:
    """Rank 3: x -> x, y -> y, z -> z y."""
    return VerifiedAut(hom(XYZ, "x", "y", "z y"), hom(XYZ, "x", "y", "z y^-1"))


def shear_beta3() -> VerifiedAut:
    """Rank 3: x -> x, y -> y z, z -> z."""
    return VerifiedAut(hom(XYZ, "x", "y z", "z"), hom(XYZ, "x", "y z^-1", "z"))
