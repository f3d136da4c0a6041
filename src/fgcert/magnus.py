"""Group rings, Fox coordinates and the Magnus embedding.

The coordinates of a word w are the unique group-ring elements w_i with

    w - 1 = sum_i (x_i - 1) * w_i

in the integral group ring of the free group.  Pushing the group down
to (Z/m)^n and the coefficients to Z/m yields the finite version, whose
image group consists of 2x2 block matrices (g 0; t 1); an element is
determined by its bottom row.

An element of Z[F_n] holds each group element as the reduced syllable
tuple of its word (``Word.syllables``), with its terms in the canonical
order by (length, syllables), so equal elements have equal terms.  The
Fox coordinates emit suffix tuples, a product is one free reduction of
two concatenated tuples, and a ``Word`` is made only where
``endo_on_ring`` wraps each term to apply the endomorphism.  The public
``from_dict`` refuses a key that is not the reduced syllable tuple of a
word over the alphabet; ``+``, ``*`` and ``endo_on_ring`` build from
valid terms and only sort.

The finite ring Z_m[(Z/m)^n] keeps its elements in normal form: each
exponent vector has length n and entries in 0..m-1, each coefficient
lies in 1..m-1, and the terms are sorted by vector.  The constructor
refuses anything else; ``from_dict``, ``zero``, ``one`` and
``monomial`` establish the form from any vectors of length n.  The
operators trust their operands and build through ``_trusted``, which
skips the constructor's check: ``+`` reduces only the summed
coefficients, drops zeros and sorts; unary ``-`` keeps the term order,
so ``a - b`` is ``a + (-b)``; ``translated`` permutes the vectors, so
it merges nothing and only sorts; ``*`` hands its sums to
``from_dict``.  ``PhiElement`` refuses a group part outside 0..m-1.

Matrix multiplication over these rings is ``intlinalg.mat_mul``, which
uses only the ring operators, so it serves Z[F_n], Z_m[(Z/m)^n] and the
integer matrices alike.

Each J-matrix check runs in one ring: the chain rule over Z[F_n], with
f applied to the entries of J(g) by ``endo_on_ring``, and ``ka_check``
over Z_m[(Z/m)^n].  The local-ring commutator check inverts each I + A,
A = 0 mod p, by its terminating Neumann series, with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .homs import FreeHom, VerifiedAut, compose
from .intlinalg import PRIME_CAP, is_prime, mat_mul
from .words import Alphabet, Word, WordError, _reduce


class RingError(ValueError):
    """Raised on mismatched ring parameters."""


Syllables = tuple[tuple[int, int], ...]


def _term_key(term: tuple[Syllables, int]) -> tuple[int, Syllables]:
    """The canonical order of group elements: by length, then syllables."""
    s = term[0]
    return sum(abs(e) for _, e in s), s


@dataclass(frozen=True)
class FreeGroupRingElement:
    """Sparse element of the integral group ring of a free group.  Each
    group element is held as the reduced syllable tuple of its word, as
    ``Word.syllables`` holds it; the alphabet is the element's own."""

    alphabet: Alphabet
    terms: tuple[tuple[Syllables, int], ...]  # sorted by _term_key, no zero coefficients

    @staticmethod
    def _normalised(alpha: Alphabet, d: dict[Syllables, int]) -> "FreeGroupRingElement":
        """The element with coefficients ``d``, keyed by reduced syllable
        tuples over ``alpha``: zeros dropped, the terms sorted."""
        items = tuple(sorted(((s, c) for s, c in d.items() if c != 0), key=_term_key))
        return FreeGroupRingElement(alpha, items)

    @staticmethod
    def from_dict(alpha: Alphabet, d: dict[Syllables, int]) -> "FreeGroupRingElement":
        """Each key must be the reduced syllable tuple of a word over
        ``alpha``; ``Word`` checks it."""
        for s in d:
            Word(alpha, s)
        return FreeGroupRingElement._normalised(alpha, d)

    def _check(self, other: "FreeGroupRingElement") -> None:
        if self.alphabet != other.alphabet:
            raise RingError("alphabet mismatch")

    def __add__(self, other: "FreeGroupRingElement") -> "FreeGroupRingElement":
        self._check(other)
        d = dict(self.terms)
        for s, c in other.terms:
            d[s] = d.get(s, 0) + c
        return FreeGroupRingElement._normalised(self.alphabet, d)

    def __mul__(self, other: "FreeGroupRingElement") -> "FreeGroupRingElement":
        self._check(other)
        d: dict[Syllables, int] = {}
        for s1, c1 in self.terms:
            for s2, c2 in other.terms:
                s = _reduce(s1 + s2)
                d[s] = d.get(s, 0) + c1 * c2
        return FreeGroupRingElement._normalised(self.alphabet, d)


def fox_coordinates(w: Word) -> tuple[FreeGroupRingElement, ...]:
    """The unique coordinates with w - 1 = sum (x_i - 1) * w_i.

    Closed form (Fox, Free differential calculus I, 1953): w_i is the
    sum of the suffixes after each letter x_i of w minus the sum of the
    suffixes starting at each letter x_i^-1.  Suffixes of a reduced word
    are reduced and have distinct lengths, and a suffix cannot occur
    with both signs (that needs x_i x_i^-1 in w), so every coefficient
    is +-1 and the terms come out in length order, the canonical order,
    when the suffixes are walked from the right.  A suffix that starts
    at a syllable boundary is a slice of w's syllables; only the
    suffixes that start inside a run of two or more letters are built.
    """
    alpha = w.alphabet
    terms: list[list[tuple[Syllables, int]]] = [[] for _ in range(alpha.rank)]
    syllables = w.syllables
    for s in range(len(syllables) - 1, -1, -1):
        gen, exp = syllables[s]
        if exp == 1:
            terms[gen].append((syllables[s + 1:], 1))
        elif exp == -1:
            terms[gen].append((syllables[s:], -1))
        elif exp > 0:
            tail = syllables[s + 1:]
            terms[gen] += [(tail, 1)] + [(((gen, k),) + tail, 1) for k in range(1, exp)]
        else:
            tail = syllables[s + 1:]
            terms[gen] += [(((gen, k),) + tail, -1) for k in range(-1, exp, -1)]
            terms[gen].append((syllables[s:], -1))
    return tuple(FreeGroupRingElement(alpha, tuple(t)) for t in terms)


def fox_identity_holds(w: Word) -> bool:
    """Re-substitution oracle: check w - 1 = sum (x_i - 1) w_i exactly.

    Each term c*t of w_i contributes c at the group element x_i t and
    -c at t, so the identity says that two multisets of group elements
    are equal: x_i t for each term with c > 0, t for each with c < 0,
    and 1, against t for c > 0, x_i t for c < 0, and w, a term counted
    |c| times.  Both are sorted lists of syllable tuples, so nothing is
    hashed.  Since t is reduced, x_i t differs from t only in its first
    syllable: that syllable's exponent goes up by one when it is a power
    of x_i (and the syllable goes when the exponent reaches 0),
    otherwise (x_i, 1) is put in front.  So no ring product or free
    reduction is needed.
    """
    alpha = w.alphabet
    units = alpha.unit_syllables
    lhs: list[Syllables] = [()]
    rhs: list[Syllables] = [w.syllables]
    for i, coordinate in enumerate(fox_coordinates(w)):
        if coordinate.alphabet != alpha:
            raise RingError("alphabet mismatch")
        unit = (units[2 * i],)
        for s, c in coordinate.terms:
            if s and s[0][0] == i:
                e = s[0][1] + 1
                xt = ((i, e),) + s[1:] if e else s[1:]
            else:
                xt = unit + s
            if c == 1:
                lhs.append(xt)
                rhs.append(s)
            elif c == -1:
                lhs.append(s)
                rhs.append(xt)
            elif c > 0:
                lhs += [xt] * c
                rhs += [s] * c
            else:
                lhs += [s] * -c
                rhs += [xt] * -c
    lhs.sort()
    rhs.sort()
    return lhs == rhs


@dataclass(frozen=True)
class FiniteGroupRingElement:
    """Sparse element of Z_m[(Z/m)^n], kept in the normal form that the
    module docstring states: exponent vectors mod m mapped to nonzero
    coefficients mod m, sorted by vector."""

    modulus: int
    rank: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        m, n, terms = self.modulus, self.rank, self.terms
        if not (type(m) is int and m >= 2 and type(n) is int and n >= 0 and type(terms) is tuple
                and all(type(t) is tuple and len(t) == 2 and type(t[0]) is tuple and len(t[0]) == n
                        and all(type(x) is int and 0 <= x < m for x in t[0])
                        and type(t[1]) is int and 0 < t[1] < m for t in terms)
                and all(a[0] < b[0] for a, b in zip(terms, terms[1:]))):
            raise RingError(f"terms {terms!r} not in normal form over Z_{m}[(Z/{m})^{n}]")

    @staticmethod
    def _trusted(m: int, n: int, terms: tuple) -> "FiniteGroupRingElement":
        """An element from terms already in normal form; skips the
        ``__post_init__`` checks, which stay at the boundary."""
        e = object.__new__(FiniteGroupRingElement)
        object.__setattr__(e, "modulus", m)
        object.__setattr__(e, "rank", n)
        object.__setattr__(e, "terms", terms)
        return e

    @staticmethod
    def _normalised(m: int, n: int, d: dict[tuple[int, ...], int]) -> "FiniteGroupRingElement":
        """The element with coefficient sums ``d``, keyed by vectors
        already reduced mod m: the sums are reduced, zeros dropped and
        the terms sorted."""
        items = []
        for v, c in d.items():
            c %= m
            if c:
                items.append((v, c))
        items.sort()
        return FiniteGroupRingElement._trusted(m, n, tuple(items))

    @staticmethod
    def from_dict(m: int, n: int, d: dict) -> "FiniteGroupRingElement":
        if m < 2:
            raise RingError("modulus must be >= 2")
        clean: dict[tuple[int, ...], int] = {}
        for vec, c in d.items():
            if len(vec) != n:
                raise RingError(f"exponent vector {tuple(vec)} does not have length {n}")
            vec = tuple(v % m for v in vec)
            clean[vec] = clean.get(vec, 0) + c
        return FiniteGroupRingElement._normalised(m, n, clean)

    @staticmethod
    def zero(m: int, n: int) -> "FiniteGroupRingElement":
        return FiniteGroupRingElement.from_dict(m, n, {})

    @staticmethod
    def one(m: int, n: int) -> "FiniteGroupRingElement":
        return FiniteGroupRingElement.from_dict(m, n, {(0,) * n: 1})

    @staticmethod
    def monomial(m: int, n: int, vec: Sequence[int]) -> "FiniteGroupRingElement":
        return FiniteGroupRingElement.from_dict(m, n, {tuple(vec): 1})

    def _check(self, other: "FiniteGroupRingElement") -> None:
        if (self.modulus, self.rank) != (other.modulus, other.rank):
            raise RingError("ring parameter mismatch")

    def __add__(self, other: "FiniteGroupRingElement") -> "FiniteGroupRingElement":
        self._check(other)
        d = dict(self.terms)
        for v, c in other.terms:
            d[v] = d.get(v, 0) + c
        return FiniteGroupRingElement._normalised(self.modulus, self.rank, d)

    def __neg__(self) -> "FiniteGroupRingElement":
        m = self.modulus
        return FiniteGroupRingElement._trusted(m, self.rank,
                                               tuple((v, m - c) for v, c in self.terms))

    def __sub__(self, other: "FiniteGroupRingElement") -> "FiniteGroupRingElement":
        return self + (-other)

    def __mul__(self, other: "FiniteGroupRingElement") -> "FiniteGroupRingElement":
        self._check(other)
        d: dict[tuple[int, ...], int] = {}
        for v1, c1 in self.terms:
            for v2, c2 in other.terms:
                v = tuple(a + b for a, b in zip(v1, v2))
                v = tuple(x % self.modulus for x in v)
                d[v] = d.get(v, 0) + c1 * c2
        return FiniteGroupRingElement.from_dict(self.modulus, self.rank, d)

    def translated(self, vec: Sequence[int]) -> "FiniteGroupRingElement":
        """Multiply by the group element with the given exponent vector.
        Translation permutes the vectors, so no two terms merge and the
        coefficients stay as they are."""
        if len(vec) != self.rank:
            raise RingError(f"exponent vector {tuple(vec)} does not have length {self.rank}")
        m = self.modulus
        return FiniteGroupRingElement._trusted(m, self.rank, tuple(sorted(
            (tuple((a + b) % m for a, b in zip(v, vec)), c) for v, c in self.terms)))


@dataclass(frozen=True)
class PhiElement:
    """An element of the finite Magnus image: group part in (Z/m)^n plus
    the n bottom-row coordinates in Z_m[(Z/m)^n].

    The constructor enforces the coordinate identity
    sum_i (x_i - 1) * bottom_i = top - 1, so only genuine image elements
    can ever be built.
    """

    modulus: int
    rank: int
    top: tuple[int, ...]
    bottom: tuple[FiniteGroupRingElement, ...]

    def __post_init__(self):
        m, n = self.modulus, self.rank
        if len(self.top) != n or len(self.bottom) != n:
            raise RingError("wrong number of coordinates")
        if not all(0 <= t < m for t in self.top):
            raise RingError(f"group part {self.top} not reduced mod {m}")
        for b in self.bottom:
            if (b.modulus, b.rank) != (m, n):
                raise RingError("bottom row in wrong ring")
        total = FiniteGroupRingElement.zero(m, n)
        for i, b in enumerate(self.bottom):
            unit = [0] * n
            unit[i] = 1
            xi = FiniteGroupRingElement.monomial(m, n, unit)
            total = total + (xi - FiniteGroupRingElement.one(m, n)) * b
        expected = (FiniteGroupRingElement.monomial(m, n, self.top)
                    - FiniteGroupRingElement.one(m, n))
        if total != expected:
            raise RingError("bottom row inconsistent with group part")

    def _check(self, other: "PhiElement") -> None:
        if (self.modulus, self.rank) != (other.modulus, other.rank):
            raise RingError("parameter mismatch")

    def __mul__(self, other: "PhiElement") -> "PhiElement":
        """(g1, t1) * (g2, t2) = (g1 g2, t1 . g2 + t2)."""
        self._check(other)
        m = self.modulus
        top = tuple((a + b) % m for a, b in zip(self.top, other.top))
        bottom = tuple(
            b1.translated(other.top) + b2 for b1, b2 in zip(self.bottom, other.bottom))
        return PhiElement(m, self.rank, top, bottom)


def _finite_coordinates(w: Word, m: int) -> tuple[tuple[int, ...],
                                                  tuple[FiniteGroupRingElement, ...]]:
    """The exponent sums of w mod m and its Fox coordinates pushed to
    Z_m[(Z/m)^n], read off the closed form of ``fox_coordinates``: a
    suffix maps to its exponent vector, kept as a running sum from the
    right, with no free-group ring element in between."""
    n = w.alphabet.rank
    coeffs: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
    vec = [0] * n
    for gen, exp in reversed(w.syllables):
        d = coeffs[gen]
        base = vec[gen]
        if exp > 0:
            ks, sign = range(exp), 1
        else:
            ks, sign = range(-1, exp - 1, -1), -1
        for k in ks:
            vec[gen] = (base + k) % m
            key = tuple(vec)
            d[key] = d.get(key, 0) + sign
        vec[gen] = (base + exp) % m
    return tuple(vec), tuple(FiniteGroupRingElement.from_dict(m, n, d) for d in coeffs)


def magnus_image(w: Word, m: int) -> PhiElement:
    """The image of a word in the finite Magnus group."""
    top, bottom = _finite_coordinates(w, m)
    return PhiElement(m, w.alphabet.rank, top, bottom)


# ---------------------------------------------------------------------------
# J matrices
# ---------------------------------------------------------------------------


def j_of_endo(h: FreeHom, m: int | None = None) -> list[list]:
    """The n x n matrix with entry (i, j) = i-th Fox coordinate of the
    image of generator j, over Z[F_n] (m=None) or pushed to Z_m[(Z/m)^n]."""
    if not h.is_endo():
        raise WordError("J matrix needs an endomorphism")
    if m is None:
        cols = [fox_coordinates(img) for img in h.images]
    else:
        cols = [_finite_coordinates(img, m)[1] for img in h.images]
    return [list(row) for row in zip(*cols)]


def endo_on_ring(h: FreeHom, e: FreeGroupRingElement) -> FreeGroupRingElement:
    """Apply an endomorphism to every group element of a ring element."""
    if not h.is_endo():
        raise WordError("twisting a ring element needs an endomorphism")
    alpha = e.alphabet
    d: dict[Syllables, int] = {}
    for s, c in e.terms:
        img = h(Word._trusted(alpha, s)).syllables
        d[img] = d.get(img, 0) + c
    return FreeGroupRingElement._normalised(alpha, d)


def j_composition_identity(f: FreeHom, g: FreeHom) -> bool:
    """Check J(f o g) = J(f) . f(J(g)) as an exact matrix identity over
    Z[F_n], with f applied to each entry of J(g) by ``endo_on_ring``."""
    lhs = j_of_endo(compose(f, g))
    twisted = [[endo_on_ring(f, e) for e in row] for row in j_of_endo(g)]
    return lhs == mat_mul(j_of_endo(f), twisted)


# ---------------------------------------------------------------------------
# KA homomorphism check
# ---------------------------------------------------------------------------


def acts_trivially_mod(h: FreeHom, m: int) -> bool:
    """Whether the endomorphism acts trivially on the abelianization mod
    m: the exponent sums of the image of generator j are e_j mod m."""
    if not h.is_endo():
        raise WordError("the action on the abelianization needs an endomorphism")
    return all((s - (i == j)) % m == 0
               for j, img in enumerate(h.images) for i, s in enumerate(img.exponent_sums()))


def ka_check(auts: Sequence[VerifiedAut], m: int, pairs: int, rng) -> dict:
    """Verify, on automorphisms acting trivially mod the m-th congruence
    layer, that the finite J map is multiplicative and lands in
    invertible matrices (inverse exhibited as J of the inverse).
    """
    if not auts:
        raise ValueError("ka_check needs at least one automorphism")
    if m < 2:
        raise ValueError(f"ka_check needs a modulus m >= 2, got {m}")
    if pairs < 1:
        raise ValueError(f"ka_check needs at least one pair to sample, got {pairs}")
    failures: list[str] = []
    for idx, aut in enumerate(auts):
        if not acts_trivially_mod(aut.forward, m):
            failures.append(f"aut {idx}: abelianization not trivial mod {m}")
    if failures:
        return {"passed": False, "failures": failures, "pairs_checked": 0}

    n = auts[0].alphabet.rank
    one, zero = FiniteGroupRingElement.one(m, n), FiniteGroupRingElement.zero(m, n)
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for idx, aut in enumerate(auts):
        prod = mat_mul(j_of_endo(aut.forward, m), j_of_endo(aut.backward, m))
        if prod != ident:
            failures.append(f"aut {idx}: J(aut) * J(aut^-1) != I")
    checked = 0
    for _ in range(pairs):
        f = rng.choice(auts)
        g = rng.choice(auts)
        lhs = j_of_endo(compose(f.forward, g.forward), m)
        rhs = mat_mul(j_of_endo(f.forward, m), j_of_endo(g.forward, m))
        if lhs != rhs:
            failures.append("homomorphism law failed on a sampled pair")
            break
        checked += 1
    return {"passed": not failures, "failures": failures, "pairs_checked": checked}


# ---------------------------------------------------------------------------
# Local-ring commutator check
# ---------------------------------------------------------------------------


def _series_inverse(a: list[list[int]], s_power: int, k: int, mod: int) -> list[list[int]]:
    """(I + A)^-1 over Z/p^k = Z/mod for A = 0 mod p^s_power, s_power >= 1:
    A^j = 0 mod p^k from j = ceil(k / s_power) on, so the Neumann series
    sum_j (-A)^j terminates there.  Horner sums it, X <- I - A X from I."""
    x = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(-(-k // s_power) - 1):
        x = [[(int(i == j) - v) % mod for j, v in enumerate(row)]
             for i, row in enumerate(mat_mul(a, x))]
    return x


def local_commutator_check(p: int, k: int, s_power: int, t_power: int,
                           samples: int, rng) -> dict:
    """In R = Z/p^k with ideals S = (p^s_power), T = (p^t_power), powers
    in 1..k (a power of 0 makes the check vacuous): sample I+A (A over S)
    and I+B (B over T) and verify that the commutator is I mod S*T =
    (p^(s_power+t_power)).  Its products are not reduced mod p^k: S*T
    divides p^k, so reducing cannot change the verdict."""
    if p > PRIME_CAP or not is_prime(p):
        raise ValueError(f"local_commutator_check needs a prime p <= 2^40, got {p}")
    if k < 1:
        raise ValueError(f"local_commutator_check needs k >= 1, got {k}")
    if not (1 <= s_power <= k and 1 <= t_power <= k):
        raise ValueError(f"local_commutator_check needs 1 <= s_power, t_power <= k = {k}, "
                         f"got {s_power} and {t_power}")
    if samples < 1:
        raise ValueError(f"local_commutator_check needs at least one sample, got {samples}")
    mod = p ** k
    st = p ** min(s_power + t_power, k)
    failures = 0
    for _ in range(samples):
        a, b = ([[p ** e * rng.randrange(p ** (k - e)) for _ in range(3)] for _ in range(3)]
                for e in (s_power, t_power))
        ia, ib = ([[int(i == j) + v for j, v in enumerate(row)] for i, row in enumerate(m)]
                  for m in (a, b))
        comm = mat_mul(mat_mul(ia, ib), mat_mul(_series_inverse(a, s_power, k, mod),
                                                _series_inverse(b, t_power, k, mod)))
        failures += any((v - (i == j)) % st
                        for i, row in enumerate(comm) for j, v in enumerate(row))
    return {"passed": failures == 0, "samples": samples, "failures": failures,
            "modulus": mod, "ideal_product": st}
