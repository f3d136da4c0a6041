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

N lies in F'F^6, since N is the stabilizer of a tuple of quotients
that holds the mod-6 abelian quotient, and p is a unit mod 4, so the
image of N' N^p in (Z/4)^2 = F / F'F^4 lies in 2(Z/4)^2, of order 4.
It is read off the Schreier generators' exponent vectors mod 4, in
order, and the scan stops as soon as they generate all of 2(Z/4)^2; a
vector outside it means the construction is broken.  Every nonzero class
of 2(Z/4)^2 has order 2, so a scan that ends with fewer than three
classes has found {0} or {0, v}, already the subgroup, and its class
count is the image order.

Every big number of the certificate is a small cofactor times a power
of p, and is kept as that pair (``Factored``).  p is coprime to 6n,
[F : N] divides 36 n^4 and the image order divides 4, so the order
divides the bound exactly when rank(N) <= 36 n^4 + 1 and
[F : N] * (image order) divides 144 n^4: the verdict needs no big
integer.  The digits are written only for output, by the standard
library's ``decimal`` in an exact context.  That is exact integer
arithmetic, not floating point: every rounding is trapped and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .intlinalg import PRIME_CAP, Factored, decimals, is_prime
from .quotients import (
    ALPHA_BETA,
    FiniteQuotient,
    SchreierSystem,
    abelian_quotient,
    build_schreier_system,
    induced_quotient,
    rank2_mod2_kernel,
    rank2_outer_hom,
    schreier_rank,
)
from .words import Word, WordError, alphabet

F2 = alphabet("x", "y")

# Cap on the decimal digits of the bound 144 n^4 p^(36 n^4 + 1), which
# the certificate prints in full.  A valid certificate can be longer;
# the cap is a choice about output size.  It admits the 25-point cyclic
# K at p = 11 (14.6M digits, about a second to format and 15 MB of
# JSON) and refuses what a small quotient file could otherwise ask for:
# the bound has 84M digits at n = 25, p = 1000003, and 274M at n = 52,
# p = 11 (the largest cyclic K under the coset cap).
DIGIT_CAP = 20_000_000


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
        digits = order_bound(self.k_index, self.p).max_digits()
        if digits > DIGIT_CAP:
            raise CongruenceError(
                f"the bound 144 n^4 p^(36 n^4 + 1) at n = {self.k_index}, p = {self.p} "
                f"has up to {digits} digits, above the cap {DIGIT_CAP} on output digits")


def order_bound(n: int, p: int) -> Factored:
    """The bound 144 n^4 p^(36 n^4 + 1) on the order of F/M."""
    return Factored(144 * n ** 4, p, 36 * n ** 4 + 1)


class NOracle:
    """Membership oracle and Schreier system for N."""

    def __init__(self, input: CongruenceInput):
        self.input = input
        self.delta = rank2_mod2_kernel()
        self.pi = rank2_outer_hom(self.delta)
        self.transversal = self.delta.transversal  # (1, x, y, xy)

        mod6 = abelian_quotient(F2, (6, 6))
        # pi^-1(K) is the stabilizer of the preimage action's base point,
        # and its conjugate by t_i that of the point t_i leads the base to
        preimage = induced_quotient(self.pi, input.k_quotient)
        conjugated = [replace(preimage, base_point=preimage.act_word(preimage.base_point, t))
                      for t in self.transversal]
        self.schreier = build_schreier_system(mod6, *conjugated)
        self.index = self.schreier.index
        self.rank = schreier_rank(self.index, 2)
        n = input.k_index
        if (36 * n ** 4) % self.index != 0:
            raise CongruenceError(
                f"index {self.index} of N does not divide 36 n^4 = {36 * n ** 4}")

    @cached_property
    def intersection(self) -> SchreierSystem:
        """The coset table of L = the intersection of the conjugates
        t_i^-1 pi^-1(K) t_i, built on the first membership test: the
        stabilizer of the tuple of the points (coset i, base point of K)
        of pi's walk quotients of K (``SubgroupHom.walk_quotient``).
        [F : L] divides [F : N], since N is L cut by F'F^6, so the coset
        cap of N covers it."""
        k = self.input.k_quotient
        return build_schreier_system(*(self.pi.walk_quotient(k, c)
                                       for c in range(self.delta.index)))

    def contains(self, w: Word) -> bool:
        """Direct membership: exponent sums divisible by 6, and w in L,
        by one walk of L's coset table (``intersection``).  L's table is
        built from pi's move table and K's own permutations, not from
        ``induced_quotient``, whose actions the coset table of N is built
        from, so this route stays a second check of that table."""
        if w.alphabet != F2:
            raise WordError("word must be over (x, y)")
        if any(s % 6 for s in w.exponent_sums()):
            return False
        return self.intersection.contains(w)


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
        # exponent sums of the swept generators; the others are 0
        sums: dict[int, int] = {}
        for idx, sign in letters:
            sums[idx] = sums.get(idx, 0) + sign
        return all(v % self.p == 0 for v in sums.values())


@dataclass(frozen=True)
class Certificate:
    """Exact order data for F/M and the divisibility verdict, each big
    number as cofactor * p^exponent."""

    n: int
    p: int
    index_of_n: int
    rank_of_n: int
    order_mod_npn: Factored     # [F : N' N^p] = [F : N] p^rank(N)
    image_order_in_4torus: int
    order_mod_m: Factored       # [F : M]
    bound: Factored             # 144 n^4 p^(36 n^4 + 1)
    divides: bool

    def to_json(self) -> dict:
        # the first two share p^rank(N), and the bound does too when
        # rank(N) = 36 n^4 + 1
        npn, m, bound = decimals((self.order_mod_npn, self.order_mod_m, self.bound))
        return {
            "n": self.n,
            "p": self.p,
            "indexOfN": self.index_of_n,
            "rankOfN": self.rank_of_n,
            "orderOfF2ModNpN": npn,
            "imageOrderIn4Torus": self.image_order_in_4torus,
            "orderOfF2ModM": m,
            "bound": bound,
            "divides": self.divides,
        }


def image_order_in_4torus(schreier: SchreierSystem) -> int:
    """Order of the image of N' N^p (p odd) in (Z/4)^2 = F / F'F^4, for
    N <= F(x, y) the subgroup of the Schreier system: the subgroup that
    the generators' exponent vectors mod 4 generate, in 2(Z/4)^2 (see the
    module docstring): 4 once two nonzero classes are seen, else the
    number of classes.  Generator t_c x t_c'^-1 has the vector of t_c
    plus e_x minus that of t_c', each read off its tree path once and
    kept.  A vector (x, y) mod 4 is packed as x + 16 y: a digit of a sum
    or difference of two packed vectors plus 0x44 stays in 0..15, so
    ``& 0x33`` reduces both coordinates at once.
    """
    parent, parent_letter, table = schreier.parent, schreier.parent_letter, schreier.table
    # letter l = 2 gen + (sign < 0) moves coordinate gen by +-1 mod 4
    steps = (0x01, 0x03, 0x10, 0x30)
    packed = {0: 0}  # coset -> packed vector of t_c, for the cosets read so far

    def vector(c: int) -> int:
        """The packed vector of t_c, kept for every coset on its path."""
        path = []
        while c not in packed:
            path.append(c)
            c = parent[c]
        v = packed[c]
        for c in reversed(path):
            v = packed[c] = (v + steps[parent_letter[c]]) & 0x33
        return v

    classes = {0}
    for c, gen in zip(schreier.edge_coset, schreier.edge_gen):
        c2 = table[2 * gen][c]
        a, b = packed.get(c), packed.get(c2)
        if a is None:
            a = vector(c)
        if b is None:
            b = vector(c2)
        cls = (a + steps[2 * gen] - b + 0x44) & 0x33
        if cls not in classes:
            if cls & 0x11:
                raise CongruenceError(
                    f"a Schreier generator of N has exponent vector {(cls & 3, cls >> 4)} "
                    "mod 4, outside 2(Z/4)^2: N is not inside F'F^6")
            classes.add(cls)
            if len(classes) == 3:  # two distinct nonzero classes generate 2(Z/4)^2
                return 4
    return len(classes)  # {0} or {0, v}: each nonzero class has order 2


def certify(input: CongruenceInput, n_oracle: NOracle) -> Certificate:
    """The order certificate of F/M, read off the oracle's N for this input."""
    n = input.k_index
    p = input.p
    image_order = image_order_in_4torus(n_oracle.schreier)
    order_mod_m = Factored(n_oracle.index * image_order, p, n_oracle.rank)
    bound = order_bound(n, p)
    return Certificate(
        n=n,
        p=p,
        index_of_n=n_oracle.index,
        rank_of_n=n_oracle.rank,
        order_mod_npn=Factored(n_oracle.index, p, n_oracle.rank),
        image_order_in_4torus=image_order,
        order_mod_m=order_mod_m,
        bound=bound,
        divides=order_mod_m.divides(bound),
    )
