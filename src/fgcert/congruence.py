"""The explicit congruence-subgroup construction for the rank-2 case.

Given a finite-index subgroup K of the outer free group on a, b
(encoded as the base-point stabilizer of a finite quotient) and an odd
prime p coprime to 6n, this builds membership oracles for

    N = F'F^6  intersect  t_i^-1 pi^-1(K) t_i   (i = 1..4)
    M = F'F^4  intersect  N' N^p

together with an exactly computed order certificate for F/M against the
divisibility bound 144 n^4 p^(36 n^4 + 1).  The order of F/M is never
obtained by coset enumeration: it factors as

    [F : N' N^p] * |image of N' N^p in F/F'F^4|

with [F : N' N^p] = [F : N] * p^rank(N) by the Schreier formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intlinalg import PRIME_CAP, is_prime, row_hnf
from .quotients import (
    ALPHA_BETA,
    FiniteQuotient,
    InducedAction,
    ProductAction,
    abelian_quotient,
    build_schreier_system,
    rank2_mod2_kernel,
    rank2_outer_hom,
    schreier_rank,
)
from .words import Word, WordError, alphabet

F2 = alphabet("x", "y")


class CongruenceError(ValueError):
    """Raised for invalid congruence inputs or resource-cap overruns."""


@dataclass(frozen=True)
class CongruenceInput:
    """A finite quotient of the outer group defining K, plus an odd
    prime p with p coprime to 6n (n = index of K)."""

    k_quotient: FiniteQuotient
    p: int
    # orbit size of the base point = index of K
    k_index: int = field(init=False)

    def __post_init__(self):
        if self.k_quotient.alphabet != ALPHA_BETA:
            raise CongruenceError("K quotient must be over the alphabet (a, b)")
        if self.p > PRIME_CAP:
            raise CongruenceError("p is above the cap 2^40 on r and p")
        if not is_prime(self.p):
            raise CongruenceError(f"p = {self.p} is not prime")
        object.__setattr__(self, "k_index", len(self.k_quotient.orbit()))
        if (6 * self.k_index) % self.p == 0:
            raise CongruenceError(f"p = {self.p} divides 6n = {6 * self.k_index}")


class NOracle:
    """Membership oracle and Schreier system for N."""

    def __init__(self, input: CongruenceInput, max_cosets: int = 100_000):
        self.input = input
        self.delta = rank2_mod2_kernel()
        self.pi = rank2_outer_hom(self.delta)
        self.transversal = self.delta.transversal  # (1, x, y, xy)

        mod6 = abelian_quotient(F2, (6, 6))
        conjugated = [
            InducedAction(self.pi, input.k_quotient, base_shift=t)
            for t in self.transversal
        ]
        product = ProductAction([mod6] + conjugated)
        self.schreier = build_schreier_system(product, F2, max_cosets=max_cosets)
        self.index = self.schreier.index
        self.rank = schreier_rank(self.index, 2)
        n = input.k_index
        if (36 * n ** 4) % self.index != 0:
            raise CongruenceError(
                f"index {self.index} of N does not divide 36 n^4 = {36 * n ** 4}")

    def contains(self, w: Word) -> bool:
        """Direct membership: exponent sums divisible by 6 and every
        conjugate t_i w t_i^-1 mapping into K under the outer hom."""
        if w.alphabet != F2:
            raise WordError("word must be over (x, y)")
        if any(s % 6 for s in w.exponent_sums()):
            return False
        for t in self.transversal:
            conj = t * w * t.inverse()
            if not self.input.k_quotient.fixes_base(self.pi(conj)):
                return False
        return True


class MOracle:
    """Membership oracle for M = F'F^4 intersect N' N^p."""

    def __init__(self, n_oracle: NOracle):
        self.n_oracle = n_oracle
        self.p = n_oracle.input.p

    def contains(self, w: Word) -> bool:
        if any(s % 4 for s in w.exponent_sums()):
            return False
        coset, letters = self.n_oracle.schreier.sweep(w)
        if coset != 0:
            return False
        vec = [0] * self.n_oracle.rank
        for idx, sign in letters:
            vec[idx] += sign
        return all(v % self.p == 0 for v in vec)


_CHUNK_DIGITS = 1000
_CHUNK = 10 ** _CHUNK_DIGITS


def exact_decimal(value: int) -> str:
    """The decimal digits of ``value``, equal to ``str(value)`` but free
    of CPython's int->str digit limit (4300 digits by default, which the
    bound already exceeds at n = 4).  Splits off 1000 digits at a time
    instead of raising the limit, which is process-global state."""
    if value < 0:
        return "-" + exact_decimal(-value)
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(value) + "".join(reversed(chunks))


@dataclass(frozen=True)
class Certificate:
    """Exact order data for F/M and the divisibility verdict."""

    n: int
    p: int
    index_of_n: int
    rank_of_n: int
    order_mod_npn: int      # [F : N' N^p]
    image_order_in_4torus: int
    order_mod_m: int        # [F : M]
    bound: int
    divides: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "indexOfN": self.index_of_n,
            "rankOfN": self.rank_of_n,
            "orderOfF2ModNpN": exact_decimal(self.order_mod_npn),
            "imageOrderIn4Torus": self.image_order_in_4torus,
            "orderOfF2ModM": exact_decimal(self.order_mod_m),
            "bound": exact_decimal(self.bound),
            "divides": self.divides,
        }


def _subgroup_order_mod4(vectors) -> int:
    """Order of the subgroup of (Z/4)^2 generated by the given vectors:
    with 4Z^2 they span a lattice L of index a*d in Z^2, a and d the
    pivots of its Hermite normal form, and the subgroup is L/4Z^2."""
    (a, _), (_, d) = row_hnf([*{(x % 4, y % 4) for x, y in vectors}, (4, 0), (0, 4)])
    return 16 // (a * d)


def certify(input: CongruenceInput, max_cosets: int = 100_000,
            n_oracle: NOracle | None = None) -> Certificate:
    oracle = n_oracle or NOracle(input, max_cosets=max_cosets)
    n = input.k_index
    p = input.p
    order_mod_npn = oracle.index * p ** oracle.rank
    image_vectors = [tuple(p * s for s in vec)
                     for vec in oracle.schreier.generator_exponent_sums()]
    image_order = _subgroup_order_mod4(image_vectors)
    order_mod_m = order_mod_npn * image_order
    bound = 144 * n ** 4 * p ** (36 * n ** 4 + 1)
    return Certificate(
        n=n,
        p=p,
        index_of_n=oracle.index,
        rank_of_n=oracle.rank,
        order_mod_npn=order_mod_npn,
        image_order_in_4torus=image_order,
        order_mod_m=order_mod_m,
        bound=bound,
        divides=bound % order_mod_m == 0,
    )
