"""A dense reference ring Z_m[(Z/m)^n].

``DenseElement`` holds all m^n coefficients mod m in one tuple, indexed
by the packed exponent vector v_0 + v_1 m + ... + v_(n-1) m^(n-1).
Its operators, and the Magnus image of a word by letter recursion, are
written over that tuple and share no term handling with
``magnus.FiniteGroupRingElement``, so the tests can compare the sparse
ring in normal form with a route that never sorts or merges terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from fgcert.words import Word
from word_letters import letters


def pack(m: int, vec: Sequence[int]) -> int:
    """The index of an exponent vector, each entry taken mod m."""
    return sum((v % m) * m ** i for i, v in enumerate(vec))


def unpack(m: int, n: int, index: int) -> tuple[int, ...]:
    return tuple(index // m ** i % m for i in range(n))


@dataclass(frozen=True)
class DenseElement:
    modulus: int
    rank: int
    coeffs: tuple[int, ...]  # m^n entries in 0..m-1

    @staticmethod
    def from_terms(m: int, n: int, terms: Iterable[tuple[Sequence[int], int]]) -> "DenseElement":
        """The sum of c * g over (exponent vector of g, c), any integers."""
        out = [0] * m ** n
        for vec, c in terms:
            assert len(vec) == n
            i = pack(m, vec)
            out[i] = (out[i] + c) % m
        return DenseElement(m, n, tuple(out))

    @staticmethod
    def zero(m: int, n: int) -> "DenseElement":
        return DenseElement.from_terms(m, n, ())

    def _with(self, coeffs: Iterable[int]) -> "DenseElement":
        return DenseElement(self.modulus, self.rank, tuple(c % self.modulus for c in coeffs))

    def __add__(self, other: "DenseElement") -> "DenseElement":
        assert (self.modulus, self.rank) == (other.modulus, other.rank)
        return self._with(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "DenseElement":
        return self._with(-a for a in self.coeffs)

    def __sub__(self, other: "DenseElement") -> "DenseElement":
        assert (self.modulus, self.rank) == (other.modulus, other.rank)
        return self._with(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: "DenseElement") -> "DenseElement":
        assert (self.modulus, self.rank) == (other.modulus, other.rank)
        m, n = self.modulus, self.rank
        out = [0] * m ** n
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                u, v = unpack(m, n, i), unpack(m, n, j)
                out[pack(m, [x + y for x, y in zip(u, v)])] += a * b
        return self._with(out)

    def translated(self, vec: Sequence[int]) -> "DenseElement":
        m, n = self.modulus, self.rank
        assert len(vec) == n
        out = [0] * m ** n
        for i, a in enumerate(self.coeffs):
            out[pack(m, [x + y for x, y in zip(unpack(m, n, i), vec)])] = a
        return self._with(out)


def as_dense(e) -> DenseElement:
    """A ``magnus.FiniteGroupRingElement`` as a dense element."""
    return DenseElement.from_terms(e.modulus, e.rank, e.terms)


def magnus_image(w: Word, m: int) -> tuple[tuple[int, ...], tuple[DenseElement, ...]]:
    """The group part and bottom row of the image of w, letter by letter:
    a letter x_i^s translates every coordinate by s e_i and adds 1 (for
    s = 1) or -x_i^-1 (for s = -1) at position i."""
    n = w.alphabet.rank
    top = [0] * n
    coords = [DenseElement.zero(m, n)] * n
    for gen, sign in letters(w):
        step = [0] * n
        step[gen] = sign
        coords = [c.translated(step) for c in coords]
        top[gen] = (top[gen] + sign) % m
        delta = DenseElement.from_terms(m, n, [([0] * n, 1) if sign > 0 else (step, -1)])
        coords[gen] = coords[gen] + delta
    return tuple(top), tuple(coords)
