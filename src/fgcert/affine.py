"""Two-generated affine-group construction with machine-checked
certificates.

The one-dimensional affine group over F_r acts on V = F_p^(r-1) (p a
prime with r | p-1) through a diagonal matrix D of r-th roots of unity
and a permutation matrix S normalizing the diagonal subgroup.  The
group built here is W x| Delta with W the direct sum of r-2 copies of
V.  Certificates verify, as exact mod-p linear algebra:

* irreducibility of V (distinct eigenvalues + transitive permutation),
* two-generation of W x| Delta via a Vandermonde extraction and a
  spinning (submodule closure) computation.

Elements of the big group are represented structurally; nothing is ever
enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intlinalg import PRIME_CAP, is_prime, mat_mul


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


def primitive_root(r: int) -> int:
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

    @staticmethod
    def choose(r: int, p: int | None = None, xi: int | None = None) -> "AffineParams":
        if p is None:
            _check_r(r)
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
# The affine group Delta and its linear representation on V
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


class DeltaGroup:
    """AGL_1(r) with its faithful (r-1)-dimensional representation over
    F_p: the translation part acts as D = diag(xi, ..., xi^(r-1)), the
    multiplicative part as the permutation matrix e_i -> e_(a*i mod r)."""

    def __init__(self, params: AffineParams):
        self.params = params
        self.r = params.r
        self.p = params.p
        self.xi = params.xi
        self.a = primitive_root(self.r)
        self.order = self.r * (self.r - 1)
        self.d_gen = (1, 1)           # the translation generator D
        self.s_gen = (self.a, 0)      # the multiplicative generator S

    def diag_matrix(self, b: int) -> list[list[int]]:
        """D^b = diag(xi^b, xi^(2b), ..., xi^((r-1)b))."""
        n = self.r - 1
        return [[pow(self.xi, (i + 1) * b, self.p) if i == j else 0
                 for j in range(n)] for i in range(n)]

    def perm_matrix(self, a: int) -> list[list[int]]:
        """Permutation matrix sending e_i to e_(a*i mod r), 1-based."""
        n = self.r - 1
        mat = [[0] * n for _ in range(n)]
        for i in range(1, self.r):
            mat[a * i % self.r - 1][i - 1] = 1
        return mat

    def matrix(self, d: tuple[int, int]) -> list[list[int]]:
        """P_a D^b; each entry is a single product, already reduced."""
        a, b = d
        return mat_mul(self.perm_matrix(a), self.diag_matrix(b))

    def act(self, d: tuple[int, int], v: Sequence[int]) -> tuple[int, ...]:
        a, b = d
        # D^b then P_a, without materializing the matrix
        n = self.r - 1
        scaled = [v[i] * pow(self.xi, (i + 1) * b, self.p) % self.p for i in range(n)]
        out = [0] * n
        for i in range(1, self.r):
            out[a * i % self.r - 1] = scaled[i - 1]
        return tuple(out)


def _mod(mat, p):
    return [[v % p for v in row] for row in mat]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class GammaElement:
    """((v_1, ..., v_(r-2)), (a, b)) in W x| Delta."""

    params: AffineParams
    w_part: tuple[tuple[int, ...], ...]
    delta_part: tuple[int, int]

    def _group(self) -> DeltaGroup:
        return DeltaGroup(self.params)

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        if self.params != other.params:
            raise AffineError("parameter mismatch")
        group = self._group()
        p = self.params.p
        w = tuple(
            tuple((x + y) % p for x, y in zip(v1, group.act(self.delta_part, v2)))
            for v1, v2 in zip(self.w_part, other.w_part))
        return GammaElement(self.params, w, delta_mul(self.params.r, self.delta_part, other.delta_part))

    def inverse(self) -> "GammaElement":
        group = self._group()
        p = self.params.p
        d_inv = delta_inverse(self.params.r, self.delta_part)
        w = tuple(tuple((-x) % p for x in group.act(d_inv, v)) for v in self.w_part)
        return GammaElement(self.params, w, d_inv)

    def __pow__(self, n: int) -> "GammaElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = gamma_identity(self.params)
        for _ in range(n):
            result = result * self
        return result

    def is_pure_translation(self) -> bool:
        return self.delta_part == (1, 0)


def gamma_identity(params: AffineParams) -> GammaElement:
    zero = (0,) * params.dim
    return GammaElement(params, (zero,) * params.copies, (1, 0))


def gamma_generators(params: AffineParams) -> tuple[GammaElement, GammaElement]:
    """The two claimed generators: D' carries the standard basis vectors
    e_1..e_(r-2) in its W part, S' has trivial W part."""
    group = DeltaGroup(params)
    basis = []
    for i in range(params.copies):
        v = [0] * params.dim
        v[i] = 1
        basis.append(tuple(v))
    d_prime = GammaElement(params, tuple(basis), group.d_gen)
    zero = (0,) * params.dim
    s_prime = GammaElement(params, (zero,) * params.copies, group.s_gen)
    return d_prime, s_prime


def gamma_order(params: AffineParams) -> int:
    return params.p ** (params.dim * params.copies) * params.r * (params.r - 1)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def build_delta(params: AffineParams) -> dict:
    """Construct Delta and verify its defining matrix relations."""
    group = DeltaGroup(params)
    p, r = params.p, params.r
    d_mat = group.matrix(group.d_gen)
    s_mat = group.matrix(group.s_gen)
    checks = {
        "order": group.order,
        "d_power_r_is_identity": _mat_pow(d_mat, r, p) == _identity(r - 1),
        "s_power_r_minus_1_is_identity": _mat_pow(s_mat, r - 1, p) == _identity(r - 1),
        "conjugation_relation": _mod(mat_mul(
            mat_mul(_mat_inv_perm(group, group.a), d_mat), s_mat), p)
        == group.matrix((1, group.a)),
    }
    checks["passed"] = all(v for k, v in checks.items() if k != "order")
    return checks


def _mat_pow(mat, n, p):
    result = _identity(len(mat))
    for _ in range(n):
        result = _mod(mat_mul(result, mat), p)
    return result


def _mat_inv_perm(group: DeltaGroup, a: int):
    return group.perm_matrix(pow(a, -1, group.r))


def irreducibility_certificate(params: AffineParams) -> dict:
    """V is irreducible: D has r-1 distinct eigenvalues, so invariant
    subspaces are sums of coordinate eigenlines, and the multiplicative
    part permutes those lines in a single orbit."""
    group = DeltaGroup(params)
    p, r = params.p, params.r
    eigenvalues = [pow(params.xi, i, p) for i in range(1, r)]
    distinct = len(set(eigenvalues)) == r - 1
    # orbit of line index 1 under i -> a*i mod r
    orbit = {1}
    i = 1
    for _ in range(r - 1):
        i = group.a * i % r
        orbit.add(i)
    transitive = orbit == set(range(1, r))
    return {
        "eigenvalues": eigenvalues,
        "distinct_eigenvalues": distinct,
        "permutation_transitive": transitive,
        "passed": distinct and transitive,
    }


def _solve_mod_p(matrix: list[list[int]], target: list[int], p: int) -> list[int]:
    """Solve a square system by Gaussian elimination over F_p."""
    n = len(matrix)
    aug = [row[:] + [t] for row, t in zip(matrix, target)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] % p), None)
        if pivot is None:
            raise AffineError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(v - f * w) % p for v, w in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def _spin(vectors: list[tuple[int, ...]], generators, p: int) -> list[list[int]]:
    """Close a set of vectors under linear maps: returns a row-echelon
    basis (mod p) of the generated submodule."""
    basis: list[list[int]] = []
    pivots: list[int] = []

    def insert(vec):
        v = [x % p for x in vec]
        for piv, row in zip(pivots, basis):
            if v[piv]:
                f = v[piv]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        nz = next((i for i, a in enumerate(v) if a), None)
        if nz is None:
            return False
        inv = pow(v[nz], -1, p)
        v = [a * inv % p for a in v]
        basis.append(v)
        pivots.append(nz)
        return True

    frontier = [tuple(v) for v in vectors]
    for v in frontier:
        insert(v)
    queue = list(frontier)
    while queue:
        v = queue.pop()
        for gen in generators:
            img = gen(v)
            if insert(img):
                queue.append(tuple(img))
    return basis


def diagonal_projection(params: AffineParams, coord: int) -> list[list[int]]:
    """The linear combination C = sum beta_j D^j equal to the matrix
    unit E_(coord,coord); beta solves a Vandermonde system, so C lies in
    the group algebra of the translation subgroup."""
    group = DeltaGroup(params)
    p, dim = params.p, params.dim
    vander = [[pow(params.xi, (i + 1) * j, p) for j in range(dim)] for i in range(dim)]
    target = [1 if i == coord else 0 for i in range(dim)]
    beta = _solve_mod_p(vander, target, p)
    c_mat = [[0] * dim for _ in range(dim)]
    for j, b in enumerate(beta):
        dj = group.diag_matrix(j)
        for u in range(dim):
            c_mat[u][u] = (c_mat[u][u] + b * dj[u][u]) % p
    unit = [[1 if (i, j) == (coord, coord) else 0 for j in range(dim)] for i in range(dim)]
    if c_mat != unit:
        raise AffineError("Vandermonde combination is not the expected matrix unit")
    return c_mat


def conjugate_translation(params: AffineParams, l: int) -> tuple[GammaElement, int]:
    """w = S'^l D' S'^-l D'^k with k chosen so the affine part cancels;
    returns (w, k).  w lies in W and the vector e_(r-1) appears only in
    entry k of its W part."""
    group = DeltaGroup(params)
    r = params.r
    s_l = (pow(group.a, l, r), 0)
    conj = delta_mul(r, delta_mul(r, s_l, group.d_gen), delta_inverse(r, s_l))
    k = (r - conj[1]) % r
    if not 1 <= k <= r - 2:
        raise AffineError(f"exponent k = {k} out of range for l = {l}")
    d_prime, s_prime = gamma_generators(params)
    w = (s_prime ** l) * d_prime * (s_prime ** -l) * (d_prime ** k)
    if not w.is_pure_translation():
        raise AffineError(f"affine part of w did not cancel for l = {l}")
    return w, k


def two_generation_certificate(params: AffineParams) -> dict:
    """Reproduce the two-generation computation step by step.

    Find l with S^l sending e_(r-1) to e_1; then w = S'^l D' S'^-l D'^k
    (k chosen so the affine part cancels) lies in W with e_1 absent from
    every entry but the first.  Solve the Vandermonde system for
    C = sum beta_i D^i = E_11, which lies in the span of powers of D and
    hence acts on W entrywise; C(w) is then a nonzero vector supported
    in the first copy of V alone, and spinning it under the entrywise
    Delta action fills that copy because V is irreducible.  The same
    elements for the other exponents l' project into the remaining
    copies modulo the first one, so the joint spin closure is all of W
    and the group is generated by D' and S'.
    """
    group = DeltaGroup(params)
    p, r = params.p, params.r
    dim, copies = params.dim, params.copies

    # l with P_(a^l) e_(r-1) = e_1, i.e. a^l (r-1) = 1 mod r
    l = next((m for m in range(1, r - 1)
              if pow(group.a, m, r) * (r - 1) % r == 1), None)
    if l is None:
        raise AffineError("no power of S sends the last basis vector to the first")
    w_elt, k = conjugate_translation(params, l)
    e1_confined = all(w_elt.w_part[j][0] % p == 0 for j in range(1, copies))
    e1_present = w_elt.w_part[0][0] % p != 0

    c_mat = diagonal_projection(params, 0)  # raises unless C = E_11

    def project(w_tuple):
        return tuple(
            tuple(sum(c_mat[u][t] * v[t] for t in range(dim)) % p for u in range(dim))
            for v in w_tuple)

    def flatten(w_tuple):
        return tuple(x for v in w_tuple for x in v)

    def entrywise(d):
        def act(flat):
            vecs = [flat[i * dim:(i + 1) * dim] for i in range(copies)]
            return tuple(x for v in vecs for x in group.act(d, v))
        return act

    gens = [entrywise(group.d_gen), entrywise(group.s_gen)]
    first_copy_basis = _spin([flatten(project(w_elt.w_part))], gens, p)
    first_dims = _per_copy_dims(first_copy_basis, dim, copies, p)
    first_copy_filled = first_dims[0] == dim and len(first_copy_basis) == dim

    seeds = [flatten(project(w_elt.w_part))]
    exponents = [(l, k)]
    for l2 in range(1, r - 1):
        if l2 == l:
            continue
        w2, k2 = conjugate_translation(params, l2)
        seeds.append(flatten(project(w2.w_part)))
        exponents.append((l2, k2))
    full_basis = _spin(seeds, gens, p)
    per_copy = _per_copy_dims(full_basis, dim, copies, p)

    passed = all([
        e1_confined, e1_present, first_copy_filled,
        len(full_basis) == dim * copies,
        all(d == dim for d in per_copy),
    ])
    return {
        "l": l,
        "k": k,
        "exponents": exponents,
        "e1_only_in_first_entry": e1_confined and e1_present,
        "vandermonde_c_is_e11": True,
        "first_copy_spun_dimension": len(first_copy_basis),
        "per_copy_spun_dimensions": per_copy,
        "total_spun_dimension": len(full_basis),
        "expected_dimension": dim * copies,
        "passed": passed,
    }


def _per_copy_dims(basis, dim, copies, p):
    """Dimension of the projection of a flat basis to each copy of V."""
    dims = []
    for c in range(copies):
        proj = [row[c * dim:(c + 1) * dim] for row in basis]
        dims.append(len(_spin([tuple(v) for v in proj if any(v)], [], p)))
    return dims


def geometric_sum_check(params: AffineParams) -> dict:
    """1 + eta + ... + eta^k is nonzero in F_p for eta = xi^j, every
    1 <= j <= r-1 and 1 <= k <= r-2."""
    p, r = params.p, params.r
    failures = []
    for j in range(1, r):
        eta = pow(params.xi, j, p)
        for k in range(1, r - 1):
            if sum(pow(eta, t, p) for t in range(k + 1)) % p == 0:
                failures.append((j, k))
    return {"passed": not failures, "failures": failures}
