"""Two-generated affine-group construction with machine-checked
certificates.

The one-dimensional affine group over F_r acts on V = F_p^(r-1) (p a
prime with r | p-1) through a diagonal matrix D of r-th roots of unity
and a permutation matrix S normalizing the diagonal subgroup.  The
group built here is W x| Delta with W the direct sum of r-2 copies of
V.  Certificates verify, as exact mod-p linear algebra:

* irreducibility of V (distinct eigenvalues + transitive permutation),
* two-generation of W x| Delta via a Vandermonde extraction and one
  rank over F_p.

Lemma (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005, 7.4).  Suppose (1) D has the r-1 distinct eigenvalues xi^i and
(2) S cycles the coordinate eigenlines of V in one orbit; both are
checked by ``irreducibility_certificate``.  Delta acts on the first
factor of W = V (x) F_p^(r-2), so by (1) a Delta-submodule is the sum
of its parts e_u (x) U_u in the eigenspaces of D, and by (2) all U_u
are one U.  Hence the submodule generated by seeds w is V (x) U with U
spanned by the coordinate slices (w[c][u])_c, and it has dimension
(r-1) rank U.

Elements of the big group are represented structurally, an element of
Delta as a pair (a, b) that acts on V through ``act``; nothing is ever
enumerated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .intlinalg import PRIME_CAP, Factored, echelon_mod, is_prime


# The certificate's work grows as r^4, all of it in conjugate_translation's
# products in W: `affine certify --find-p` takes about 10 s at r = 61
# (2 vCPU, Python 3.11.7).
R_CAP = 61


class AffineError(ValueError):
    """Raised for invalid parameters or a failed certificate step."""


def multiplicative_order(x: int, p: int) -> int:
    order = 1
    acc = x % p
    while acc != 1:
        acc = acc * x % p
        order += 1
        if order > p:
            raise AffineError("element order overflow (modulus not prime?)")
    return order


def smallest_root_of_order(r: int, p: int) -> int:
    """The smallest x > 1 of order r mod p, for primes r and p with
    r | p-1.  The elements of order r are the powers h^k, 0 < k < r, of
    any one of them: h = g^((p-1)/r) for the first g with h != 1."""
    if r < 2 or (p - 1) % r:
        raise AffineError(f"no element of order {r} mod {p}")
    for g in range(2, p):
        h = pow(g, (p - 1) // r, p)
        if h != 1:
            return min(pow(h, k, p) for k in range(1, r))
    raise AffineError(f"no element of order {r} mod {p}")


def smallest_prime_1_mod(r: int) -> int:
    """The smallest prime p = 1 mod r, among r+1, 2r+1, ... up to
    PRIME_CAP."""
    if r < 2:
        raise AffineError(f"r = {r} must be an odd prime")
    for p in range(r + 1, PRIME_CAP + 1, r):
        if is_prime(p):
            return p
    raise AffineError(f"no prime p = 1 mod {r} up to the cap 2^40 on p")


@functools.cache
def primitive_root(r: int) -> int:
    """The smallest primitive root mod r, searched for once per r."""
    for a in range(2, r):
        if multiplicative_order(a, r) == r - 1:
            return a
    raise AffineError(f"no primitive root mod {r}")


def _check_r(r: int) -> None:
    if r > PRIME_CAP:
        raise AffineError("r is above the cap 2^40 on r and p")
    if r <= 2 or not is_prime(r):
        raise AffineError(f"r = {r} must be an odd prime")


def _check_r_p(r: int, p: int) -> None:
    _check_r(r)
    if p > PRIME_CAP:
        raise AffineError("p is above the cap 2^40 on r and p")
    if not is_prime(p):
        raise AffineError(f"p = {p} must be prime")
    if (p - 1) % r:
        raise AffineError(f"r = {r} must divide p - 1 = {p - 1}")


def _check_r_cap(r: int) -> None:
    if r > R_CAP:
        raise AffineError(f"r = {r} is above the cap {R_CAP} on r for the affine certificate")


@dataclass(frozen=True)
class AffineParams:
    """r, p prime with r | p-1, and xi of multiplicative order r mod p."""

    r: int
    p: int
    xi: int

    def __post_init__(self):
        _check_r_p(self.r, self.p)
        # r is prime, so xi has order r exactly when xi != 1 and xi^r = 1
        if self.xi % self.p == 1 or pow(self.xi, self.r, self.p) != 1:
            raise AffineError(f"xi = {self.xi} does not have order {self.r} mod {self.p}")
        _check_r_cap(self.r)

    @staticmethod
    def choose(r: int, p: int | None = None, xi: int | None = None) -> "AffineParams":
        # r and its cap before any search; an explicit xi is judged first
        _check_r(r)
        if xi is None:
            _check_r_cap(r)
        if p is None:
            p = smallest_prime_1_mod(r)
        if xi is None:
            _check_r_p(r, p)
            xi = smallest_root_of_order(r, p)
        return AffineParams(r, p, xi)

    @property
    def dim(self) -> int:
        """Dimension of V."""
        return self.r - 1

    @property
    def copies(self) -> int:
        """Number of copies of V in W."""
        return self.r - 2


# ---------------------------------------------------------------------------
# The affine group Delta = AGL_1(r), held as pairs (a, b), and its faithful
# representation on V: the translation part acts as D = diag(xi, ..., xi^(r-1)),
# the multiplicative part as the permutation matrix e_i -> e_(a*i mod r).
# D is (1, 1) and S is (a, 0) for the smallest primitive root a mod r.
# ---------------------------------------------------------------------------


def delta_mul(r: int, d1: tuple[int, int], d2: tuple[int, int]) -> tuple[int, int]:
    """(a1, b1) * (a2, b2) = (a1 a2, b1 a2 + b2), the block
    lower-triangular product of (a 0; b 1) matrices over F_r."""
    a1, b1 = d1
    a2, b2 = d2
    return (a1 * a2 % r, (b1 * a2 + b2) % r)


def delta_inverse(r: int, d: tuple[int, int]) -> tuple[int, int]:
    a, b = d
    a_inv = pow(a, -1, r)
    return (a_inv, (-b * a_inv) % r)


def monomial(params: AffineParams, d: tuple[int, int]) -> tuple[list[int], list[int]]:
    """P_a D^b as (perm, scale): column j is scale[j] e_perm[j], so
    e_i goes to xi^(ib) e_(a*i mod r), 1-based."""
    a, b = d
    r, p, xi = params.r, params.p, params.xi
    return ([x % r - 1 for x in range(a, a * r, a)],
            [pow(xi, i * b, p) for i in range(1, r)])


def act(params: AffineParams, d: tuple[int, int], v: Sequence[int]) -> tuple[int, ...]:
    perm, scale = monomial(params, d)
    p = params.p
    out = [0] * len(perm)
    for i, x, s in zip(perm, v, scale):
        out[i] = x * s % p
    return tuple(out)


def monomial_mul(p: int, m1, m2) -> tuple[list[int], list[int]]:
    """The product m1 m2 of monomial matrices (perm, scale) over F_p, in
    O(r): column j of m2 is scale2[j] e_perm2[j], which m1 sends to
    scale2[j] scale1[perm2[j]] e_perm1[perm2[j]]."""
    perm1, scale1 = m1
    perm2, scale2 = m2
    return ([perm1[i] for i in perm2],
            [s * scale1[i] % p for i, s in zip(perm2, scale2)])


@dataclass(frozen=True)
class GammaElement:
    """((v_1, ..., v_(r-2)), (a, b)) in W x| Delta."""

    params: AffineParams
    w_part: tuple[tuple[int, ...], ...]
    delta_part: tuple[int, int]

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        if self.params != other.params:
            raise AffineError("parameter mismatch")
        params, p = self.params, self.params.p
        w = tuple(
            tuple((x + y) % p for x, y in zip(v1, act(params, self.delta_part, v2)))
            for v1, v2 in zip(self.w_part, other.w_part))
        return GammaElement(self.params, w, delta_mul(self.params.r, self.delta_part, other.delta_part))

    def inverse(self) -> "GammaElement":
        params, p = self.params, self.params.p
        d_inv = delta_inverse(params.r, self.delta_part)
        w = tuple(tuple((-x) % p for x in act(params, d_inv, v)) for v in self.w_part)
        return GammaElement(self.params, w, d_inv)

    def __pow__(self, n: int) -> "GammaElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = gamma_identity(self.params)
        for _ in range(n):
            result = result * self
        return result


def gamma_identity(params: AffineParams) -> GammaElement:
    zero = (0,) * params.dim
    return GammaElement(params, (zero,) * params.copies, (1, 0))


def gamma_generators(params: AffineParams) -> tuple[GammaElement, GammaElement]:
    """The two claimed generators: D' carries the standard basis vectors
    e_1..e_(r-2) in its W part, S' has trivial W part."""
    basis = []
    for i in range(params.copies):
        v = [0] * params.dim
        v[i] = 1
        basis.append(tuple(v))
    d_prime = GammaElement(params, tuple(basis), (1, 1))
    zero = (0,) * params.dim
    s_prime = GammaElement(params, (zero,) * params.copies, (primitive_root(params.r), 0))
    return d_prime, s_prime


def gamma_order(params: AffineParams) -> Factored:
    """|Gamma| = p^((r-1)(r-2)) r (r-1); p > r, so p divides neither r nor r-1."""
    return Factored(params.r * (params.r - 1), params.p, params.dim * params.copies)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def build_delta(params: AffineParams) -> dict:
    """Construct Delta and verify its defining relations D^r = S^(r-1) = 1
    and S^-1 D S = D^a on monomial matrices."""
    p, r = params.p, params.r
    a = primitive_root(r)
    d_mon, s_mon = monomial(params, (1, 1)), monomial(params, (a, 0))
    identity = monomial(params, (1, 0))

    def power(m, n):
        result = identity
        for _ in range(n):
            result = monomial_mul(p, result, m)
        return result

    s_inv = monomial(params, (pow(a, -1, r), 0))
    checks = {
        "order": r * (r - 1),
        "d_power_r_is_identity": power(d_mon, r) == identity,
        "s_power_r_minus_1_is_identity": power(s_mon, r - 1) == identity,
        "conjugation_relation":
            monomial_mul(p, monomial_mul(p, s_inv, d_mon), s_mon) == monomial(params, (1, a)),
    }
    checks["passed"] = all(v for k, v in checks.items() if k != "order")
    return checks


def irreducibility_certificate(params: AffineParams) -> dict:
    """V is irreducible: D has r-1 distinct eigenvalues, so invariant
    subspaces are sums of coordinate eigenlines, and the multiplicative
    part permutes those lines in a single orbit."""
    p, r = params.p, params.r
    a = primitive_root(r)
    eigenvalues = [pow(params.xi, i, p) for i in range(1, r)]
    distinct = len(set(eigenvalues)) == r - 1
    # orbit of line index 1 under i -> a*i mod r
    orbit = {1}
    i = 1
    for _ in range(r - 1):
        i = a * i % r
        orbit.add(i)
    transitive = orbit == set(range(1, r))
    return {
        "eigenvalues": eigenvalues,
        "distinct_eigenvalues": distinct,
        "permutation_transitive": transitive,
        "passed": distinct and transitive,
    }


def closure_dimensions(params: AffineParams, seeds) -> tuple[int, list[int]]:
    """The dimension of the Delta-submodule V (x) U of W generated by
    ``seeds`` (r-2 vectors of V each), by the lemma in the module
    docstring, and of its projection to each copy c of V: r-1 when some
    coordinate slice is nonzero at c, else 0."""
    dim, copies, p = params.dim, params.copies, params.p
    slices = [[w[c][u] % p for c in range(copies)] for w in seeds for u in range(dim)]
    slices = [row for row in slices if any(row)]
    rank = echelon_mod(slices, copies, p)
    return dim * rank, [dim if any(row[c] for row in slices) else 0 for c in range(copies)]


def diagonal_projection(params: AffineParams, coord: int) -> list[int]:
    """The diagonal of C = sum beta_j D^j, 0 <= j < r-1, checked to be
    the matrix unit E_(coord,coord); C lies in the group algebra of the
    translation subgroup.  beta solves the Vandermonde system
    sum_j beta_j xi^(uj) = [u = coord+1], 1 <= u < r, in closed form: with
    x = xi^(coord+1), (1/r) sum_(j<r) (y/x)^j is 1 at y = x and 0 at the
    other r-th roots of unity, and taking off x/r (1 + y + ... + y^(r-1)),
    which vanishes at every r-th root of unity but 1, leaves degree r-2."""
    p, r, dim = params.p, params.r, params.dim
    x = pow(params.xi, coord + 1, p)
    x_inv, r_inv = pow(x, -1, p), pow(r, -1, p)
    beta = [(pow(x_inv, j, p) - x) * r_inv % p for j in range(dim)]
    diag = []
    for u in range(1, r):
        eta, acc = pow(params.xi, u, p), 0
        for b in reversed(beta):
            acc = (acc * eta + b) % p
        diag.append(acc)
    if diag != [int(u == coord) for u in range(dim)]:
        raise AffineError("Vandermonde combination is not the expected matrix unit")
    return diag


def conjugate_translation(params: AffineParams, l: int) -> tuple[GammaElement, int]:
    """w = S'^l D' S'^-l D'^k with k chosen so the affine part cancels;
    returns (w, k).  w lies in W and the vector e_(r-1) appears only in
    entry k of its W part."""
    r = params.r
    s_l = (pow(primitive_root(r), l, r), 0)
    conj = delta_mul(r, delta_mul(r, s_l, (1, 1)), delta_inverse(r, s_l))
    k = (r - conj[1]) % r
    if not 1 <= k <= r - 2:
        raise AffineError(f"exponent k = {k} out of range for l = {l}")
    d_prime, s_prime = gamma_generators(params)
    w = (s_prime ** l) * d_prime * (s_prime ** -l) * (d_prime ** k)
    if w.delta_part != (1, 0):
        raise AffineError(f"affine part of w did not cancel for l = {l}")
    return w, k


def two_generation_certificate(params: AffineParams, irred: dict,
                               c_diag: list[int]) -> dict:
    """Certify that D' and S' generate W x| Delta, given the
    irreducibility certificate ``irred`` and the diagonal ``c_diag`` of
    C = E_11 from ``diagonal_projection(params, 0)``, which the caller
    has computed and reported on first.

    Take l with S^l sending e_(r-1) to e_1; then w = S'^l D' S'^-l D'^k
    (k chosen so the affine part cancels) lies in W with e_1 absent from
    every entry but the first.  C = sum beta_i D^i = E_11 lies in the
    span of powers of D and hence acts on W entrywise; C(w) is then a
    nonzero vector supported in the first copy of V alone.  With the
    seeds C(w') for the other exponents l', the group is generated by D'
    and S' when the seeds generate W as a Delta-module: by the module's
    lemma, when their coordinate slices have rank r-2.  ``passed`` also
    requires the lemma's two hypotheses.  The keys ``*_spun_dimension`` keep their
    names from the spinning computation, for byte-identical reports.
    """
    p, r, a = params.p, params.r, primitive_root(params.r)
    dim, copies = params.dim, params.copies

    # P_(a^l) e_(r-1) = e_1 when a^l (r-1) = 1, i.e. a^l = -1 mod r: for
    # the primitive root a, the one l in 1..r-2 is (r-1)/2
    l = (r - 1) // 2
    if pow(a, l, r) != r - 1:
        raise AffineError("no power of S sends the last basis vector to the first")
    w_elt, k = conjugate_translation(params, l)
    e1_confined = all(w_elt.w_part[j][0] % p == 0 for j in range(1, copies))
    e1_present = w_elt.w_part[0][0] % p != 0

    def project(w_part):
        return tuple(tuple(c * x % p for c, x in zip(c_diag, v)) for v in w_part)

    seeds = [project(w_elt.w_part)]
    exponents = [(l, k)]
    for l2 in range(1, r - 1):
        if l2 == l:
            continue
        w2, k2 = conjugate_translation(params, l2)
        seeds.append(project(w2.w_part))
        exponents.append((l2, k2))
    first_total, first_per_copy = closure_dimensions(params, seeds[:1])
    total, per_copy = closure_dimensions(params, seeds)

    passed = all([
        irred["distinct_eigenvalues"], irred["permutation_transitive"],
        e1_confined, e1_present,
        first_per_copy[0] == dim and first_total == dim,
        total == dim * copies,
        all(d == dim for d in per_copy),
    ])
    return {
        "l": l,
        "k": k,
        "exponents": exponents,
        "e1_only_in_first_entry": e1_confined and e1_present,
        "vandermonde_c_is_e11": True,
        "first_copy_spun_dimension": first_total,
        "per_copy_spun_dimensions": per_copy,
        "total_spun_dimension": total,
        "expected_dimension": dim * copies,
        "passed": passed,
    }


def geometric_sum_check(params: AffineParams) -> dict:
    """1 + eta + ... + eta^k is nonzero in F_p for eta = xi^j, every
    1 <= j <= r-1 and 1 <= k <= r-2, by running sums."""
    p, r = params.p, params.r
    failures = []
    for j in range(1, r):
        eta = pow(params.xi, j, p)
        term = total = 1
        for k in range(1, r - 1):
            term = term * eta % p
            total = (total + term) % p
            if total == 0:
                failures.append((j, k))
    return {"passed": not failures, "failures": failures}
