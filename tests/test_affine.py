import random

import pytest
import sympy

from fgcert import affine
from fgcert.affine import (
    R_CAP,
    AffineError,
    AffineParams,
    GammaElement,
    build_delta,
    closure_dimensions,
    conjugate_translation,
    delta_inverse,
    delta_mul,
    diagonal_projection,
    gamma_generators,
    gamma_identity,
    gamma_order,
    geometric_sum_check,
    irreducibility_certificate,
    monomial_mul,
    multiplicative_order,
    primitive_root,
    smallest_prime_1_mod,
    smallest_root_of_order,
    two_generation_certificate,
)
from fgcert.intlinalg import PRIME_CAP, echelon_mod, mat_mul

PARAMS = AffineParams(5, 11, 3)


def two_generation(params):
    """The certificate, given the two facts its callers compute first."""
    return two_generation_certificate(params, irreducibility_certificate(params),
                                      diagonal_projection(params, 0))


def test_params_validation():
    with pytest.raises(AffineError):
        AffineParams(4, 11, 3)       # r not prime
    with pytest.raises(AffineError):
        AffineParams(2, 11, 3)       # r too small
    with pytest.raises(AffineError):
        AffineParams(5, 12, 3)       # p not prime
    with pytest.raises(AffineError):
        AffineParams(5, 13, 3)       # r does not divide p-1
    with pytest.raises(AffineError):
        AffineParams(5, 11, 10)      # order 2, not 5


def test_parameter_search():
    assert smallest_prime_1_mod(5) == 11
    assert smallest_prime_1_mod(3) == 7
    assert smallest_root_of_order(5, 11) == 3
    assert multiplicative_order(3, 11) == 5
    auto = AffineParams.choose(7)
    assert auto.p == 29 and auto.p % 7 == 1


def smallest_root_by_scan(r, p):
    """Reference: the first x = 2, 3, ... of multiplicative order r."""
    for x in range(2, p):
        if pow(x, r, p) == 1 and multiplicative_order(x, p) == r:
            return x
    return None


def test_smallest_root_matches_scan():
    cases = 0
    for p in range(3, 2000):
        if not all(p % d for d in range(2, int(p ** 0.5) + 1)):
            continue
        for r in (3, 5, 7, 11, 13):
            if (p - 1) % r == 0:
                assert smallest_root_of_order(r, p) == smallest_root_by_scan(r, p), (r, p)
                cases += 1
    assert cases > 200
    with pytest.raises(AffineError):
        smallest_root_of_order(5, 13)


def test_xi_order_check_matches_multiplicative_order():
    for r, p in [(3, 7), (5, 11), (7, 29), (11, 23)]:
        for xi in range(-p, 2 * p):
            has_order_r = xi % p != 0 and multiplicative_order(xi, p) == r
            try:
                AffineParams(r, p, xi)
                accepted = True
            except AffineError:
                accepted = False
            assert accepted == has_order_r, (r, p, xi)


def test_delta_group_law():
    r = 5
    rng = random.Random(0)
    for _ in range(100):
        d1 = (rng.choice([1, 2, 3, 4]), rng.randrange(r))
        d2 = (rng.choice([1, 2, 3, 4]), rng.randrange(r))
        d3 = (rng.choice([1, 2, 3, 4]), rng.randrange(r))
        assert delta_mul(r, delta_mul(r, d1, d2), d3) == \
            delta_mul(r, d1, delta_mul(r, d2, d3))
        assert delta_mul(r, d1, delta_inverse(r, d1)) == (1, 0)


# ---------------------------------------------------------------------------
# The dense route, kept as the reference for the monomial matrices
# ---------------------------------------------------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def perm_matrix(r, a):
    """Reference: the permutation matrix sending e_i to e_(a*i mod r), 1-based."""
    mat = [[0] * (r - 1) for _ in range(r - 1)]
    for i in range(1, r):
        mat[a * i % r - 1][i - 1] = 1
    return mat


def diag_matrix(params, b):
    """Reference: D^b = diag(xi^b, xi^(2b), ..., xi^((r-1)b))."""
    n = params.r - 1
    return [[pow(params.xi, (i + 1) * b, params.p) if i == j else 0 for j in range(n)]
            for i in range(n)]


def dense_matrix(params, d):
    """Reference: P_a D^b; each entry is a single product, already reduced."""
    a, b = d
    return mat_mul(perm_matrix(params.r, a), diag_matrix(params, b))


def mat_pow(mat, n, p):
    result = identity(len(mat))
    for _ in range(n):
        result = [[v % p for v in row] for row in mat_mul(result, mat)]
    return result


def from_monomial(m):
    """The dense matrix whose column j is scale[j] e_perm[j]."""
    perm, scale = m
    mat = [[0] * len(perm) for _ in perm]
    for j, (i, s) in enumerate(zip(perm, scale)):
        mat[i][j] = s
    return mat


def dense_build_delta(params):
    """Reference: Delta's defining relations by dense (r-1)x(r-1) products."""
    p, r = params.p, params.r
    a = primitive_root(r)
    d_mat, s_mat = dense_matrix(params, (1, 1)), dense_matrix(params, (a, 0))
    conj = mat_mul(mat_mul(perm_matrix(r, pow(a, -1, r)), d_mat), s_mat)
    checks = {
        "order": r * (r - 1),
        "d_power_r_is_identity": mat_pow(d_mat, r, p) == identity(r - 1),
        "s_power_r_minus_1_is_identity": mat_pow(s_mat, r - 1, p) == identity(r - 1),
        "conjugation_relation":
            [[v % p for v in row] for row in conj] == dense_matrix(params, (1, a)),
    }
    checks["passed"] = all(v for k, v in checks.items() if k != "order")
    return checks


def unchecked_params(r, p, xi):
    """AffineParams without the validation, for an xi of the wrong order."""
    params = object.__new__(AffineParams)
    for name, value in (("r", r), ("p", p), ("xi", xi)):
        object.__setattr__(params, name, value)
    return params


def small_params():
    """Two primes p for each r <= 13, each with the default xi and its square."""
    for r in (3, 5, 7, 11, 13):
        for p in first_primes_1_mod(r, 2):
            params = AffineParams.choose(r, p)
            yield params
            yield AffineParams(r, p, pow(params.xi, 2, p))


def test_representation_is_homomorphism():
    rng = random.Random(1)
    for params in small_params():
        p, r = params.p, params.r
        for _ in range(20):
            d1, d2 = ((rng.randrange(1, r), rng.randrange(r)) for _ in range(2))
            prod = monomial_mul(p, affine.monomial(params, d1), affine.monomial(params, d2))
            assert prod == affine.monomial(params, delta_mul(r, d1, d2))
            # the action agrees with the matrix
            v = tuple(rng.randrange(p) for _ in range(r - 1))
            assert affine.act(params, d1, v) == tuple(sum(a * x for a, x in zip(row, v)) % p
                                                      for row in dense_matrix(params, d1))


def test_monomials_match_dense_matrices():
    rng = random.Random(2)
    for params in small_params():
        p, r = params.p, params.r
        for _ in range(20):
            d1, d2 = ((rng.randrange(1, r), rng.randrange(r)) for _ in range(2))
            m1, m2 = affine.monomial(params, d1), affine.monomial(params, d2)
            dense1, dense2 = dense_matrix(params, d1), dense_matrix(params, d2)
            assert from_monomial(m1) == dense1
            prod = monomial_mul(p, m1, m2)
            assert from_monomial(prod) == [[v % p for v in row] for row in mat_mul(dense1, dense2)]
            n = rng.randrange(r + 1)
            power = affine.monomial(params, (1, 0))
            for _ in range(n):
                power = monomial_mul(p, power, m1)
            assert from_monomial(power) == mat_pow(dense1, n, p)


def test_build_delta_matches_dense():
    for params in small_params():
        assert build_delta(params) == dense_build_delta(params)
    # with xi of order 2r the relation D^r = 1 fails by either route
    bad = unchecked_params(5, 11, 2)
    checks = build_delta(bad)
    assert checks == dense_build_delta(bad)
    assert not checks["d_power_r_is_identity"] and not checks["passed"]


def test_build_delta_golden():
    checks = build_delta(PARAMS)
    assert checks["order"] == 20
    assert checks["passed"]
    small = build_delta(AffineParams(3, 7, 2))
    assert small["order"] == 6 and small["passed"]


def test_irreducibility():
    for params in (PARAMS, AffineParams(3, 7, 2), AffineParams.choose(7, 29)):
        cert = irreducibility_certificate(params)
        assert cert["distinct_eigenvalues"]
        assert cert["permutation_transitive"]
        assert cert["passed"]
    assert irreducibility_certificate(PARAMS)["eigenvalues"] == [3, 9, 5, 4]


def rand_gamma(rng, params):
    w = tuple(tuple(rng.randrange(params.p) for _ in range(params.dim))
              for _ in range(params.copies))
    d = (rng.randrange(1, params.r), rng.randrange(params.r))
    return GammaElement(params, w, d)


def test_gamma_group_axioms():
    rng = random.Random(2)
    ident = gamma_identity(PARAMS)
    for _ in range(60):
        g, h, k = (rand_gamma(rng, PARAMS) for _ in range(3))
        assert (g * h) * k == g * (h * k)
        assert g * ident == g == ident * g
        assert g * g.inverse() == ident == g.inverse() * g


def test_gamma_order_bookkeeping():
    for params, value in ((PARAMS, 11 ** 12 * 20), (AffineParams(3, 7, 2), 7 ** 2 * 6)):
        order = gamma_order(params)
        assert order.cofactor * order.p ** order.exponent == value


def test_generator_powers_stay_scalar():
    # D'^k carries a nonzero multiple of e_i in entry i, nothing else
    d_prime, _ = gamma_generators(PARAMS)
    for k in range(1, PARAMS.r - 1):
        e = d_prime ** k
        for i, v in enumerate(e.w_part):
            assert v[i] != 0
            assert all(v[j] == 0 for j in range(PARAMS.dim) if j != i)
    assert (d_prime ** PARAMS.r) == gamma_identity(PARAMS)


def dense_projection(params, coord):
    """Reference: C = sum beta_j D^j as a dense matrix, with beta solved
    from the Vandermonde system by elimination."""
    p, dim = params.p, params.dim
    aug = [[pow(params.xi, (i + 1) * j, p) for j in range(dim)] + [int(i == coord)]
           for i in range(dim)]
    assert echelon_mod(aug, dim, p) == dim
    beta = [row[dim] for row in aug]
    c_mat = [[0] * dim for _ in range(dim)]
    for j, b in enumerate(beta):
        dj = diag_matrix(params, j)
        c_mat = [[(c + b * d) % p for c, d in zip(row, drow)] for row, drow in zip(c_mat, dj)]
    return c_mat


def test_diagonal_projection_units():
    for params in small_params():
        for coord in range(params.dim):
            unit = [[int(i == j == coord) for j in range(params.dim)] for i in range(params.dim)]
            assert dense_projection(params, coord) == unit
            assert diagonal_projection(params, coord) == [unit[u][u] for u in range(params.dim)]
    # xi of order 2r, not r: the closed-form combination is no matrix unit
    bad = unchecked_params(5, 11, 2)
    with pytest.raises(AffineError, match="not the expected matrix unit"):
        diagonal_projection(bad, 0)


def test_two_generation_golden():
    for r, p in ((5, 11), (3, 7), (7, 29)):
        params = AffineParams.choose(r, p)
        cert = two_generation(params)
        assert cert["e1_only_in_first_entry"]
        assert cert["vandermonde_c_is_e11"]
        assert cert["first_copy_spun_dimension"] == r - 1
        assert cert["per_copy_spun_dimensions"] == [r - 1] * (r - 2)
        assert cert["total_spun_dimension"] == (r - 1) * (r - 2)
        assert cert["passed"]


def test_geometric_sums():
    for params in (PARAMS, AffineParams(3, 7, 2)):
        res = geometric_sum_check(params)
        assert res["passed"] and not res["failures"]


def geometric_sum_failures(params):
    """Reference: each partial geometric sum by its own powers."""
    p, r = params.p, params.r
    return [(j, k) for j in range(1, r) for k in range(1, r - 1)
            if sum(pow(params.xi, j * t, p) for t in range(k + 1)) % p == 0]


def test_geometric_sums_match_powers():
    for params in small_params():
        assert geometric_sum_check(params)["failures"] == geometric_sum_failures(params) == []
    # xi = -1 has order 2, not 5: 1 + eta vanishes for every odd j
    bad = unchecked_params(5, 11, 10)
    res = geometric_sum_check(bad)
    assert res["failures"] == geometric_sum_failures(bad) != []
    assert not res["passed"]


def test_commuting_copy_mixing_action():
    # the entrywise affine action and any linear mixing of the copies
    # commute on W = V (x) F_p^(r-2)
    rng = random.Random(3)
    dim, copies, p = PARAMS.dim, PARAMS.copies, PARAMS.p
    for _ in range(30):
        w = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(copies)]
        d = (rng.randrange(1, 5), rng.randrange(5))
        mix = [[rng.randrange(p) for _ in range(copies)] for _ in range(copies)]

        def mixed(vecs):
            return [tuple(sum(mix[i][j] * vecs[j][t] for j in range(copies)) % p
                          for t in range(dim)) for i in range(copies)]

        def acted(vecs):
            return [affine.act(PARAMS, d, v) for v in vecs]

        assert mixed(acted(w)) == acted(mixed(w))


def test_parameter_mismatch_rejected():
    other = AffineParams(3, 7, 2)
    with pytest.raises(AffineError):
        gamma_identity(PARAMS) * gamma_identity(other)


def test_smallest_prime_1_mod_steps_through_1_mod_r():
    r = 1000000007
    k = next(k for k in range(1, 1000) if sympy.isprime(k * r + 1))
    assert smallest_prime_1_mod(r) == k * r + 1 == 44000000309
    assert [smallest_prime_1_mod(r) for r in (2, 3, 5, 7, 11, 13)] == [3, 7, 11, 29, 23, 53]


def test_r_and_p_above_the_cap_are_rejected():
    with pytest.raises(AffineError, match="r is above the cap"):
        AffineParams.choose(PRIME_CAP + 15)
    with pytest.raises(AffineError, match="p is above the cap"):
        AffineParams.choose(5, 10 ** 400 + 1)
    # the smallest prime = 1 mod r past the cap is not searched for
    with pytest.raises(AffineError, match="up to the cap"):
        smallest_prime_1_mod(PRIME_CAP - 87)


def test_r_above_the_certificate_cap_is_rejected(monkeypatch):
    assert R_CAP == 61
    assert AffineParams.choose(61).p == 367

    def no_search(r, p):
        raise AssertionError("searched for xi above the cap")

    def no_p_search(r):
        raise AssertionError("searched for p above the cap")

    # the cap is checked before the searches for p and for xi, which
    # step through p = 1 mod r and take r powers
    monkeypatch.setattr(affine, "smallest_root_of_order", no_search)
    monkeypatch.setattr(affine, "smallest_prime_1_mod", no_p_search)
    with pytest.raises(AffineError, match="r = 549755813881 is above the cap 61"):
        AffineParams.choose(549755813881)  # a prime under 2^40
    with pytest.raises(AffineError, match="r = 67 is above the cap 61"):
        AffineParams.choose(67)
    with pytest.raises(AffineError, match="r = 67 is above the cap 61"):
        AffineParams.choose(67, 269)
    with pytest.raises(AffineError, match="r = 67 is above the cap 61"):
        AffineParams(67, 269, 16)        # 16 has order 67 mod 269
    # an explicit bad xi is reported before the cap
    with pytest.raises(AffineError, match="xi = 2 does not have order 67"):
        AffineParams(67, 269, 2)


def test_primitive_root_is_searched_once_per_r(monkeypatch):
    # the same r with another p, and with another xi
    same_r = [AffineParams.choose(5, 31), AffineParams(5, 11, 4)]
    assert primitive_root(5) == 2

    def no_search(x, p):
        raise AssertionError("primitive_root searched again")

    monkeypatch.setattr(affine, "multiplicative_order", no_search)
    rng = random.Random(4)
    for params in same_r:
        g, h = rand_gamma(rng, params), rand_gamma(rng, params)
        assert (g * h) * h.inverse() == g
        assert build_delta(params)["passed"]
        assert two_generation(params)["passed"]


# ---------------------------------------------------------------------------
# The closure by spinning, kept as the reference for the rank
# ---------------------------------------------------------------------------


def spin_closure(vectors, generators, p):
    """Reference: close vectors under linear maps by spinning; returns a
    row-echelon basis (mod p) of the generated submodule."""
    basis, pivots = [], []

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
        basis.append([a * inv % p for a in v])
        pivots.append(nz)
        return True

    queue = [tuple(v) for v in vectors]
    for v in queue:
        insert(v)
    while queue:
        v = queue.pop()
        for gen in generators:
            img = gen(v)
            if insert(img):
                queue.append(tuple(img))
    return basis


def spin_dimensions(params, seeds):
    """Reference: (total, per-copy) dimensions of the Delta-submodule of W
    that the seeds generate, by spinning flat vectors of length
    (r-1)(r-2) under the entrywise action of D and S."""
    dim, copies, p = params.dim, params.copies, params.p

    def entrywise(d):
        def act(flat):
            return tuple(x for c in range(copies)
                         for x in affine.act(params, d, flat[c * dim:(c + 1) * dim]))
        return act

    flat = [tuple(x for v in w for x in v) for w in seeds]
    s_gen = (primitive_root(params.r), 0)
    basis = spin_closure(flat, [entrywise((1, 1)), entrywise(s_gen)], p)
    per_copy = []
    for c in range(copies):
        proj = [row[c * dim:(c + 1) * dim] for row in basis]
        per_copy.append(len(spin_closure([v for v in proj if any(v)], [], p)))
    return len(basis), per_copy


def search_l(r):
    """Reference: the first l in 1..r-2 with S^l e_(r-1) = e_1, that is
    a^l (r-1) = 1 mod r for the primitive root a, by search."""
    a = primitive_root(r)
    return next(m for m in range(1, r - 1) if pow(a, m, r) * (r - 1) % r == 1)


@pytest.mark.parametrize("r", [r for r in range(3, R_CAP + 1) if sympy.isprime(r)])
def test_closed_form_l_is_the_searched_l(r):
    assert search_l(r) == (r - 1) // 2


def test_two_generation_refuses_a_root_that_is_not_primitive(monkeypatch):
    # 2 has order 3 mod 7, so no power of it is -1 mod 7
    params = AffineParams.choose(7, 29)
    irred, c_diag = irreducibility_certificate(params), diagonal_projection(params, 0)
    monkeypatch.setattr(affine, "primitive_root", lambda r: 2)
    with pytest.raises(AffineError, match="no power of S sends the last basis vector"):
        two_generation_certificate(params, irred, c_diag)


def spin_two_generation_certificate(params):
    """Reference: the two-generation certificate with the closure found by
    spinning and C applied as a full matrix."""
    p, r = params.p, params.r
    dim, copies = params.dim, params.copies
    l = search_l(r)
    w_elt, k = affine.conjugate_translation(params, l)
    e1_confined = all(w_elt.w_part[j][0] % p == 0 for j in range(1, copies))
    e1_present = w_elt.w_part[0][0] % p != 0
    c_mat = dense_projection(params, 0)

    def project(w_part):
        return tuple(
            tuple(sum(c_mat[u][t] * v[t] for t in range(dim)) % p for u in range(dim))
            for v in w_part)

    first_total, first_per_copy = spin_dimensions(params, [project(w_elt.w_part)])
    seeds, exponents = [project(w_elt.w_part)], [(l, k)]
    for l2 in range(1, r - 1):
        if l2 != l:
            w2, k2 = affine.conjugate_translation(params, l2)
            seeds.append(project(w2.w_part))
            exponents.append((l2, k2))
    total, per_copy = spin_dimensions(params, seeds)
    passed = all([
        e1_confined, e1_present, first_per_copy[0] == dim and first_total == dim,
        total == dim * copies, all(d == dim for d in per_copy),
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


def first_primes_1_mod(r, count):
    return [p for p in range(r + 1, 100 * r, r) if sympy.isprime(p)][:count]


@pytest.mark.parametrize("r", [3, 5, 7, 11, 13])
def test_two_generation_matches_spin_oracle(r):
    for p in first_primes_1_mod(r, 3):
        params = AffineParams.choose(r, p)
        assert two_generation(params) == spin_two_generation_certificate(params)


def random_seeds(rng, params):
    """Seed sets of every shape the closure can meet: empty, zero, off
    coordinate 0, in fewer copies than r-2, with slices spanning a proper
    subspace, and unconstrained."""
    dim, copies, p = params.dim, params.copies, params.p
    zero = ((0,) * dim,) * copies

    def rand_vec(n, density=1.0):
        return [rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]

    def from_slices(basis, count):
        # each coordinate slice is a random combination of the basis
        seeds = []
        for _ in range(count):
            coef = [rand_vec(len(basis)) for _ in range(dim)]
            seeds.append(tuple(
                tuple(sum(a * b[c] for a, b in zip(coef[u], basis)) % p for u in range(dim))
                for c in range(copies)))
        return seeds

    yield "empty", [], True
    yield "zero", [zero, zero], True
    off_zero = [tuple(tuple(0 if u == 0 else x for u, x in enumerate(rand_vec(dim, 0.3)))
                      for _ in range(copies)) for _ in range(2)]
    yield "off coordinate 0", off_zero, None
    some_copies = [tuple(tuple(rand_vec(dim)) if c % 2 else (0,) * dim
                         for c in range(copies)) for _ in range(3)]
    yield "odd copies only", some_copies, True
    for m in range(1, copies):
        basis = [rand_vec(copies, 0.5) for _ in range(m)]
        yield f"slices in a {m}-space", from_slices(basis, rng.randint(1, copies + 1)), True
    for count in (1, 2, copies):
        yield f"{count} random", [tuple(tuple(rand_vec(dim, 0.2)) for _ in range(copies))
                                  for _ in range(count)], None


@pytest.mark.parametrize("r", [5, 7, 11, 13])
def test_closure_dimensions_match_spin(r):
    params = AffineParams.choose(r)
    dim, copies = params.dim, params.copies
    rng = random.Random(r)
    for name, seeds, deficient in random_seeds(rng, params):
        total, per_copy = closure_dimensions(params, seeds)
        assert (total, per_copy) == spin_dimensions(params, seeds), name
        if deficient:
            assert total < dim * copies, name


def test_deficient_seeds_fail_the_certificate(monkeypatch):
    # conjugate translations that repeat one exponent's w give seeds
    # whose slices span less than F_p^(r-2)
    params = AffineParams.choose(7, 29)
    real = {l: conjugate_translation(params, l) for l in range(1, params.r - 1)}
    fakes = {
        "all from one l": lambda params, l: real[1],
        "last l repeated": lambda params, l: real[min(l, params.r - 3)],
    }
    for name, fake in fakes.items():
        monkeypatch.setattr(affine, "conjugate_translation", fake)
        cert = two_generation(params)
        assert cert == spin_two_generation_certificate(params), name
        assert cert["total_spun_dimension"] < cert["expected_dimension"], name
        assert not cert["passed"], name


@pytest.mark.parametrize("hypothesis", ["distinct_eigenvalues", "permutation_transitive"])
def test_two_generation_needs_both_lemma_hypotheses(hypothesis):
    params = AffineParams.choose(7, 29)
    irred, c_diag = irreducibility_certificate(params), diagonal_projection(params, 0)
    honest = two_generation_certificate(params, irred, c_diag)
    assert honest["passed"]
    altered = {**irred, hypothesis: False}
    assert two_generation_certificate(params, altered, c_diag) == {**honest, "passed": False}
