"""A reference integral group ring of a free group keyed by ``Word``s.

``WordRingElement`` is the group ring as ``magnus.FreeGroupRingElement``
held it before that class moved to syllable tuples: every term is a
``Word``, a product multiplies two words, and the terms are sorted by
(length, syllables).  The Fox coordinates by recursion, the
endomorphism action and the J matrices are written again over it, so
the tests can compare the tuple-keyed ring with a route that shares no
term handling with it.  Only ``intlinalg.mat_mul``, which uses the ring
operators alone, is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from fgcert.homs import FreeHom, compose
from fgcert.intlinalg import mat_mul
from fgcert.words import Alphabet, Word
from word_letters import letters


@dataclass(frozen=True)
class WordRingElement:
    alphabet: Alphabet
    terms: tuple[tuple[Word, int], ...]  # sorted, no zero coefficients

    @staticmethod
    def from_dict(alpha: Alphabet, d: dict[Word, int]) -> "WordRingElement":
        items = tuple(sorted(
            ((w, c) for w, c in d.items() if c != 0),
            key=lambda wc: (wc[0].length(), wc[0].syllables)))
        return WordRingElement(alpha, items)

    @staticmethod
    def zero(alpha: Alphabet) -> "WordRingElement":
        return WordRingElement(alpha, ())

    @staticmethod
    def monomial(w: Word, c: int = 1) -> "WordRingElement":
        return WordRingElement.from_dict(w.alphabet, {w: c})

    @staticmethod
    def one(alpha: Alphabet) -> "WordRingElement":
        return WordRingElement.monomial(alpha.identity())

    def __add__(self, other: "WordRingElement") -> "WordRingElement":
        assert self.alphabet == other.alphabet
        d = dict(self.terms)
        for w, c in other.terms:
            d[w] = d.get(w, 0) + c
        return WordRingElement.from_dict(self.alphabet, d)

    def __mul__(self, other: "WordRingElement") -> "WordRingElement":
        assert self.alphabet == other.alphabet
        d: dict[Word, int] = {}
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                w = w1 * w2
                d[w] = d.get(w, 0) + c1 * c2
        return WordRingElement.from_dict(self.alphabet, d)

    def is_zero(self) -> bool:
        return not self.terms


def as_word_ring(e) -> WordRingElement:
    """A ``magnus.FreeGroupRingElement`` with each syllable tuple made a
    checked ``Word`` (its constructor refuses an unreduced tuple)."""
    return WordRingElement(e.alphabet, tuple((Word(e.alphabet, s), c) for s, c in e.terms))


def fox_by_recursion(w: Word) -> tuple[WordRingElement, ...]:
    """Extend the word letter by letter: each letter x_i multiplies every
    coordinate by x_i on the right and adds 1 (resp. -x_i^-1 for the
    inverse letter) at position i."""
    alpha = w.alphabet
    coords = [WordRingElement.zero(alpha) for _ in range(alpha.rank)]
    for gen, sign in letters(w):
        letter = WordRingElement.monomial(alpha.generator(gen, sign))
        coords = [c * letter for c in coords]
        if sign > 0:
            delta = WordRingElement.one(alpha)
        else:
            delta = WordRingElement.monomial(alpha.generator(gen, sign), -1)
        coords[gen] = coords[gen] + delta
    return tuple(coords)


def endo_on_ring(h: FreeHom, e: WordRingElement) -> WordRingElement:
    d: dict[Word, int] = {}
    for w, c in e.terms:
        img = h(w)
        d[img] = d.get(img, 0) + c
    return WordRingElement.from_dict(e.alphabet, d)


def j_of_endo(h: FreeHom) -> list[list[WordRingElement]]:
    cols = [fox_by_recursion(img) for img in h.images]
    return [list(row) for row in zip(*cols)]


def j_composition_sides(f: FreeHom, g: FreeHom) -> tuple[list[list], list[list]]:
    """J(f o g) and J(f) . f(J(g)) over the Word-keyed ring."""
    lhs = j_of_endo(compose(f, g))
    twisted = [[endo_on_ring(f, e) for e in row] for row in j_of_endo(g)]
    return lhs, mat_mul(j_of_endo(f), twisted)
