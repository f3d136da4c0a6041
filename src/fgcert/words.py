"""Freely reduced words over a finite generator alphabet.

Conventions used throughout the package:

* commutator(a, b) = a * b * a^-1 * b^-1, so that commutator(y, x) is
  the word y x y^-1 x^-1 (the opposite convention [a,b] = a^-1 b^-1 a b
  is also common; we do NOT use it),
* conjugation is right conjugation: a.conjugated_by(t) = t^-1 a t,
* the empty word prints as "1".

Syllables are immutable (generator index, nonzero exponent) pairs that
words share rather than copy: reduction keeps each incoming pair as it
is and builds a new pair only where two syllables merge, and the unit
syllables (g, +-1) of an inverse come from the alphabet's one table
``unit_syllables``.  So ``Word._trusted`` takes a tuple of tuples only;
lists are turned into tuples at the boundary, by ``_reduce``.

A product of reduced words (``*``, ``**``, ``substitute``) is reduced
only at its seams, by ``_joined``: cancellation can start only where a
piece meets what came before it.  ``_reduce`` is kept for input that is
not known to be reduced.

An alphabet's names are a tuple, or the numbered names prefix1 ..
prefixN of ``numbered_alphabet`` (the default Schreier-generator
names), which are made only when read: such an alphabet has an O(1)
``rank``, and equals, and hashes like, the alphabet of the same names
spelled out.
"""

from __future__ import annotations

import re
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class WordError(ValueError):
    """Raised for malformed words, parse failures and alphabet mismatches."""


class _NumberedNames(SequenceABC):
    """The names prefix1 .. prefix<count>, each made when read; compares
    and hashes as the tuple of those names."""

    __slots__ = ("prefix", "count")

    def __init__(self, prefix: str, count: int):
        self.prefix, self.count = prefix, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(f"{self.prefix}{k + 1}" for k in range(self.count)[i])
        k = range(self.count)[i]  # IndexError out of range, as for a tuple
        return f"{self.prefix}{k + 1}"

    def __iter__(self):
        return (f"{self.prefix}{k}" for k in range(1, self.count + 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, _NumberedNames):
            return (self.prefix, self.count) == (other.prefix, other.count)
        return isinstance(other, tuple) and len(other) == self.count and tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"_NumberedNames({self.prefix!r}, {self.count})"


@dataclass(frozen=True)
class Alphabet:
    """An ordered sequence of distinct generator names: a tuple, or the
    numbered names of ``numbered_alphabet``."""

    names: Sequence[str]
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", len(self.names))
        if not self.names:
            raise WordError("alphabet needs at least one generator")
        if type(self.names) is _NumberedNames:
            return  # distinct and well formed by construction
        if len(set(self.names)) != len(self.names):
            raise WordError(f"generator names not distinct: {self.names}")
        for name in self.names:
            if not _NAME_RE.fullmatch(name):
                raise WordError(f"bad generator name: {name!r}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise WordError(f"unknown generator {name!r}") from None

    @cached_property
    def unit_syllables(self) -> tuple[tuple[int, int], ...]:
        """The 2*rank unit syllables, shared by every word over this
        alphabet that holds them: entry 2*g + (sign < 0) is (g, sign)."""
        return tuple((g, s) for g in range(self.rank) for s in (1, -1))

    def generator(self, i: int, exponent: int = 1) -> "Word":
        return Word(self, ((i, exponent),)) if exponent else Word(self, ())

    def generators(self) -> list["Word"]:
        return [self.generator(i) for i in range(self.rank)]

    def identity(self) -> "Word":
        return Word(self, ())


def alphabet(*names: str) -> Alphabet:
    return Alphabet(tuple(names))


def numbered_alphabet(prefix: str, count: int) -> Alphabet:
    """The alphabet prefix1 .. prefix<count>, names made only when read."""
    if not _NAME_RE.fullmatch(prefix):
        raise WordError(f"bad generator name prefix: {prefix!r}")
    if count < 1:
        raise WordError("alphabet needs at least one generator")
    return Alphabet(_NumberedNames(prefix, count))


def _reduce(syllables: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Freely reduce a syllable sequence.  Incoming tuples are kept, not
    copied; a new pair is made only where two syllables merge, or for a
    syllable that comes in as a list."""
    stack: list[tuple[int, int]] = []
    for syllable in syllables:
        gen, exp = syllable
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            exp += stack[-1][1]
            if exp:
                stack[-1] = (gen, exp)
            else:
                stack.pop()
        else:
            stack.append(syllable if type(syllable) is tuple else (gen, exp))
    return tuple(stack)


def _joined(pieces: Iterable[tuple[tuple[int, int], ...]]) -> tuple[tuple[int, int], ...]:
    """The reduced product of reduced syllable sequences.  A product of
    reduced words cancels only where a piece meets the end of what came
    before it, so each piece is merged there and the rest of it is
    appended as it is.  Where a piece and the end cancel completely,
    the merge goes on with what is left on each side, so cancellation
    may reach back across several pieces."""
    out: list[tuple[int, int]] = []
    for piece in pieces:
        i = 0
        while out and i < len(piece):
            gen, exp = piece[i]
            top_gen, top_exp = out[-1]
            if gen != top_gen:
                break
            i += 1
            exp += top_exp
            if exp:
                out[-1] = (gen, exp)
                break
            out.pop()
        out.extend(piece[i:])
    return tuple(out)


def _inverted(alpha: Alphabet, syllables: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The syllables of the inverse word, unit syllables taken from the
    alphabet's shared table."""
    units = alpha.unit_syllables
    return tuple(units[2 * g + (e > 0)] if e == 1 or e == -1 else (g, -e)
                 for g, e in reversed(syllables))


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word, stored in run-length (syllable) form.

    ``syllables`` is a sequence of (generator index, nonzero exponent)
    pairs with distinct adjacent generator indices.  Instances are
    immutable and hashable; all operations return new words.
    """

    alphabet: Alphabet
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = None
        for syllable in self.syllables:
            if not (type(syllable) is tuple and len(syllable) == 2
                    and type(syllable[0]) is int and type(syllable[1]) is int):
                raise WordError(f"syllable {syllable!r} is not a pair of ints")
            gen, exp = syllable
            if exp == 0:
                raise WordError("zero exponent in syllable")
            if not 0 <= gen < self.alphabet.rank:
                raise WordError(f"generator index {gen} out of range")
            if gen == prev:
                raise WordError("word not freely reduced")
            prev = gen

    @staticmethod
    def from_syllables(alpha: Alphabet, syllables: Iterable[tuple[int, int]]) -> "Word":
        return Word(alpha, _reduce(syllables))

    @staticmethod
    def _trusted(alpha: Alphabet, syllables: tuple[tuple[int, int], ...]) -> "Word":
        """A word from a tuple of syllable tuples already known to be
        valid and reduced (``_reduce`` or ``_joined`` of valid words,
        an inverse, a suffix); skips the ``__post_init__`` checks, which
        stay at the boundary."""
        w = object.__new__(Word)
        object.__setattr__(w, "alphabet", alpha)
        object.__setattr__(w, "syllables", syllables)
        return w

    def _check(self, other: "Word") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise WordError("alphabet mismatch")

    def __mul__(self, other: "Word") -> "Word":
        self._check(other)
        return Word._trusted(self.alphabet, _joined((self.syllables, other.syllables)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word._trusted(self.alphabet, _joined((base.syllables,) * abs(n)))

    def inverse(self) -> "Word":
        return Word._trusted(self.alphabet, _inverted(self.alphabet, self.syllables))

    def conjugated_by(self, t: "Word") -> "Word":
        """Right conjugation t^-1 * self * t."""
        self._check(t)
        return t.inverse() * self * t

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        """Number of letters of the reduced word."""
        return sum(abs(e) for _, e in self.syllables)

    def exponent_sums(self) -> tuple[int, ...]:
        """Abelianized image: total exponent of each generator."""
        sums = [0] * self.alphabet.rank
        for gen, exp in self.syllables:
            sums[gen] += exp
        return tuple(sums)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for gen, exp in self.syllables:
            name = self.alphabet.names[gen]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Word({self})"


def substitute(alpha: Alphabet, images: Sequence[tuple[tuple[int, int], ...]],
               inverses: Sequence[tuple[tuple[int, int], ...]],
               letters: Iterable[tuple[int, int]]) -> Word:
    """The image of the word spelled by ``letters`` (a word's syllables,
    or the (index, +-1) letters of a Schreier sweep) under the hom
    sending generator i to the word over ``alpha`` with syllables
    ``images[i]``, whose inverse has syllables ``inverses[i]``: the
    images are reduced words, so they are joined with reduction only at
    the seams (``_joined``), in time linear in the seams and the total
    length."""
    pieces: list[tuple[tuple[int, int], ...]] = []
    append = pieces.append
    for gen, exp in letters:
        if exp == 1:
            append(images[gen])
        elif exp == -1:
            append(inverses[gen])
        elif exp > 0:
            pieces += (images[gen],) * exp
        else:
            pieces += (inverses[gen],) * -exp
    return Word._trusted(alpha, _joined(pieces))


def commutator(a: Word, b: Word) -> Word:
    """commutator(a, b) = a b a^-1 b^-1, so commutator(y, x) = y x y^-1 x^-1."""
    return a * b * a.inverse() * b.inverse()


_TOKEN_RE = re.compile(r"\s*(?:(\*)|([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?|(1)|(\S))")


def parse_word(text: str, alpha: Alphabet) -> Word:
    """Parse ``name(^int)?`` terms separated by whitespace or ``*``.

    The lone string "1" denotes the empty word.  Syntax errors report
    the offending position.
    """
    if text.strip() == "1":
        return alpha.identity()
    syllables: list[tuple[int, int]] = []
    pos = 0
    saw_term = False
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group(5):
            raise WordError(f"syntax error at position {m.start(5)}: {m.group(5)!r}")
        if m.group(4):
            raise WordError(f"'1' only denotes the empty word on its own (position {m.start(4)})")
        if m.group(2):
            name = m.group(2)
            exp = int(m.group(3)) if m.group(3) is not None else 1
            if exp == 0:
                raise WordError(f"zero exponent at position {m.start(2)}")
            syllables.append((alpha.index(name), exp))
            saw_term = True
        pos = m.end()
    if not saw_term:
        raise WordError(f"empty word text: {text!r}")
    return Word.from_syllables(alpha, syllables)


def random_word(rng, alpha: Alphabet, max_length: int) -> Word:
    """A random freely reduced word of length <= max_length."""
    length = rng.randint(0, max_length)
    letters: list[tuple[int, int]] = []
    for _ in range(length):
        while True:
            gen = rng.randrange(alpha.rank)
            sign = rng.choice((1, -1))
            if letters and letters[-1] == (gen, -sign):
                continue
            break
        letters.append((gen, sign))
    return Word.from_syllables(alpha, letters)
