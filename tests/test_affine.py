import random

import pytest
import sympy

from fgcert.affine import (
    AffineError,
    AffineParams,
    DeltaGroup,
    GammaElement,
    build_delta,
    delta_inverse,
    delta_mul,
    diagonal_projection,
    gamma_generators,
    gamma_identity,
    gamma_order,
    geometric_sum_check,
    irreducibility_certificate,
    multiplicative_order,
    smallest_prime_1_mod,
    smallest_root_of_order,
    two_generation_certificate,
)
from fgcert.intlinalg import PRIME_CAP

PARAMS = AffineParams(5, 11, 3)


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


def test_representation_is_homomorphism():
    group = DeltaGroup(PARAMS)
    rng = random.Random(1)
    p = PARAMS.p
    for _ in range(50):
        d1 = (rng.choice([1, 2, 3, 4]), rng.randrange(5))
        d2 = (rng.choice([1, 2, 3, 4]), rng.randrange(5))
        m1, m2 = group.matrix(d1), group.matrix(d2)
        prod = [[sum(m1[i][k] * m2[k][j] for k in range(4)) % p
                 for j in range(4)] for i in range(4)]
        assert prod == group.matrix(delta_mul(5, d1, d2))
        # matrix action agrees with the fast entrywise action
        v = tuple(rng.randrange(p) for _ in range(4))
        assert group.act(d1, v) == tuple(
            sum(group.matrix(d1)[i][j] * v[j] for j in range(4)) % p
            for i in range(4))


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
    assert gamma_order(PARAMS) == 11 ** 12 * 20
    assert gamma_order(AffineParams(3, 7, 2)) == 7 ** 2 * 6


def test_generator_powers_stay_scalar():
    # D'^k carries a nonzero multiple of e_i in entry i, nothing else
    d_prime, _ = gamma_generators(PARAMS)
    for k in range(1, PARAMS.r - 1):
        e = d_prime ** k
        for i, v in enumerate(e.w_part):
            assert v[i] != 0
            assert all(v[j] == 0 for j in range(PARAMS.dim) if j != i)
    assert (d_prime ** PARAMS.r) == gamma_identity(PARAMS)


def test_diagonal_projection_units():
    for coord in range(PARAMS.dim):
        c = diagonal_projection(PARAMS, coord)
        for i in range(PARAMS.dim):
            for j in range(PARAMS.dim):
                expected = 1 if i == j == coord else 0
                assert c[i][j] == expected


def test_two_generation_golden():
    for r, p in ((5, 11), (3, 7), (7, 29)):
        params = AffineParams.choose(r, p)
        cert = two_generation_certificate(params)
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


def test_commuting_copy_mixing_action():
    # the entrywise affine action and any linear mixing of the copies
    # commute on W = V (x) F_p^(r-2)
    group = DeltaGroup(PARAMS)
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
            return [group.act(d, v) for v in vecs]

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
