"""Exact integer linear algebra: matrices, Hermite normal form, kernels.

Everything here works over plain Python integers; no floating point is
ever used.  Lattices are stored with their basis rows in row-style
Hermite normal form, so equal lattices have equal representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Overflow, Rounded
from math import isqrt
from operator import mul
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix (tuple of row tuples)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows and len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged rows")

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]]) -> "IntMatrix":
        """The matrix whose column j is ``cols[j]``."""
        return IntMatrix(tuple(zip(*cols)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(map(tuple, mat_mul(self.rows, other.rows))))

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Matrix product over any ring with + and * operators: plain ints,
    or group-ring elements, which have no additive zero to start a sum
    from, so each entry starts from its first product."""
    cols = list(zip(*b))
    return [[sum(map(mul, row[1:], col[1:]), row[0] * col[0]) for col in cols]
            for row in a]


PRIME_CAP = 2 ** 40


def is_prime(n: int) -> bool:
    """Primality by trial division up to isqrt(n): at most 2^20 divisions
    up to PRIME_CAP, the largest r or p the certificates accept."""
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


# The largest precision and exponent range, with every kind of rounding
# trapped: an operation either gives the exact integer or raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, Overflow])


@dataclass(frozen=True)
class Factored:
    """The integer cofactor * p^exponent, p a prime not dividing the
    cofactor, kept in that form so that comparing certificates never
    builds the big integer.

    Its decimal digits come from the standard library's ``decimal`` in an
    exact context.  That is integer arithmetic, not floating point: with
    ``MAX_PREC`` digits and rounding trapped, a result is exact or
    raises.  libmpdec multiplies large operands by number-theoretic
    transform, so 14.6 million digits take about a second where
    ``int.__str__`` is quadratic, and it has no 4300-digit limit.
    """

    cofactor: int
    p: int
    exponent: int

    def __post_init__(self):
        if self.p < 2 or self.cofactor < 1 or self.exponent < 0 or self.cofactor % self.p == 0:
            raise ValueError(f"not a cofactor prime to p times a power of p: {self}")

    def divides(self, other: "Factored") -> bool:
        """Whether self divides other: p-parts and cofactors apart,
        since neither cofactor has a factor p."""
        if other.p != self.p:
            raise ValueError("divisibility of values factored over different primes")
        return self.exponent <= other.exponent and other.cofactor % self.cofactor == 0

    def max_digits(self) -> int:
        """An upper bound on the value's decimal digits, in int arithmetic
        only: p^exponent <= (p^64)^ceil(exponent / 64), which over-counts
        by about one digit per 64 factors of p."""
        blocks = -(-self.exponent // 64)
        return len(str(self.cofactor)) + blocks * len(str(self.p ** 64))

    def decimal(self) -> str:
        """The decimal digits of the value, cofactor * p**exponent."""
        return decimals([self])[0]


def decimals(values: Sequence[Factored]) -> list[str]:
    """The decimal digits of each value, as ``Factored.decimal``, with
    each distinct power of p computed once: the values of one
    certificate often share p^exponent."""
    powers: dict[tuple[int, int], Decimal] = {}
    out = []
    for v in values:
        key = (v.p, v.exponent)
        if key not in powers:
            powers[key] = _EXACT.power(Decimal(v.p), v.exponent)
        out.append(str(_EXACT.multiply(Decimal(v.cofactor), powers[key])))
    return out


def _echelon(mat: list[list[int]], ncols: int) -> int:
    """Integer row echelon form of the first ``ncols`` columns, in place,
    by the Euclidean algorithm down each column (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, 2.4); returns the rank.
    Rows from the rank on are zero in those columns."""
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == len(mat):
            break
        while True:
            nonzero = [i for i in range(pivot_row, len(mat)) if mat[i][col] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(mat[i][col]))
            mat[pivot_row], mat[i_min] = mat[i_min], mat[pivot_row]
            p = mat[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, len(mat)):
                q = mat[i][col] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
                if mat[i][col] != 0:
                    done = False
            if done:
                break
        if mat[pivot_row][col] != 0:
            pivot_row += 1
    return pivot_row


def echelon_mod(mat: list[list[int]], ncols: int, p: int, k: int = 1) -> int:
    """Gauss-Jordan elimination over Z/p^k of the first ``ncols``
    columns, in place, for entries in [0, p^k); returns the rank.  A
    pivot is an entry not divisible by p, a unit of the local ring.  The
    first rank rows get leading 1s, in increasing columns, and are the
    only rows nonzero in those columns; for k = 1 the rows from the rank
    on are zero in the first ncols columns."""
    q = p ** k
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, q)
        lead = mat[rank] = [v * inv % q for v in mat[rank]]
        for i, row in enumerate(mat):
            if i != rank and row[col]:
                f = row[col]
                mat[i] = [(v - f * w) % q for v, w in zip(row, lead)]
        rank += 1
    return rank


def solve_mod(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int,
              k: int = 1) -> list[list[int]] | None:
    """The X with A X = B over Z/p^k, entries in [0, p^k), for square A;
    None when A is singular, that is, not invertible mod p."""
    n, q = len(a), p ** k
    aug = [[v % q for v in row] + [v % q for v in rhs] for row, rhs in zip(a, b)]
    if echelon_mod(aug, n, p, k) < n:
        return None
    return [row[n:] for row in aug]


def row_hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form (positive pivots, entries above a
    pivot reduced into [0, pivot)), zero rows dropped."""
    mat = [list(map(int, r)) for r in rows]
    rank = _echelon(mat, len(mat[0])) if mat else 0
    col = 0
    for i in range(rank):
        while mat[i][col] == 0:
            col += 1
        if mat[i][col] < 0:
            mat[i] = [-v for v in mat[i]]
        pivot = mat[i]
        for k in range(i):
            q = mat[k][col] // pivot[col]
            if q:
                mat[k] = [a - q * b for a, b in zip(mat[k], pivot)]
    return mat[:rank]


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Basis of the full integer kernel {v : m @ v = 0} (saturated), as
    rows of length m.ncols in row-style Hermite normal form.

    Row-reduces [m^T | I]; rows whose left block vanishes record, in the
    right block, unimodular combinations lying in the kernel.
    """
    n, k = m.ncols, m.nrows
    aug = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(zip(*m.rows))]
    rank = _echelon(aug, k)
    return row_hnf([row[k:] for row in aug[rank:]])


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^n given by independent basis rows in HNF."""

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def solve(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of v in the basis, or None if v is not
        in the lattice.  Back-substitution against the HNF pivots."""
        v = list(map(int, v))
        coords = []
        for row in self.basis:
            pivot_col = next(j for j, a in enumerate(row) if a != 0)
            c, rem = divmod(v[pivot_col], row[pivot_col])
            if rem:
                return None
            coords.append(c)
            v = [a - c * b for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coords)
