import random
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from fgcert.congruence import (
    Certificate,
    CongruenceError,
    CongruenceInput,
    MOracle,
    NOracle,
    _subgroup_order_mod4,
    certify,
    exact_decimal,
)
from fgcert.intlinalg import PRIME_CAP
from fgcert.quotients import ALPHA_BETA, FiniteQuotient, trivial_quotient
from fgcert.words import alphabet, parse_word, random_word

F2 = alphabet("x", "y")


def c2_quotient():
    # K = preimage of the subgroup fixing 0 under a -> swap, b -> id
    return FiniteQuotient(ALPHA_BETA, 2, ((1, 0), (0, 1)))


def test_input_validation():
    with pytest.raises(CongruenceError):
        CongruenceInput(trivial_quotient(ALPHA_BETA), 4)  # not prime
    with pytest.raises(CongruenceError):
        CongruenceInput(trivial_quotient(ALPHA_BETA), 3)  # divides 6n
    with pytest.raises(CongruenceError):
        CongruenceInput(trivial_quotient(ALPHA_BETA), 2)
    with pytest.raises(CongruenceError):
        CongruenceInput(trivial_quotient(F2), 5)  # wrong alphabet


def test_p_above_the_cap_is_rejected_before_the_primality_test():
    for p in (PRIME_CAP + 1, 1000000000000000003, 10 ** 400 + 1):
        with pytest.raises(CongruenceError, match="above the cap 2\\^40"):
            CongruenceInput(trivial_quotient(ALPHA_BETA), p)


def test_k_index():
    assert CongruenceInput(trivial_quotient(ALPHA_BETA), 5).k_index == 1
    assert CongruenceInput(c2_quotient(), 5).k_index == 2


def test_certificate_trivial_k():
    cert = certify(CongruenceInput(trivial_quotient(ALPHA_BETA), 5))
    assert cert.index_of_n == 36
    assert cert.rank_of_n == 37
    assert cert.order_mod_npn == 36 * 5 ** 37
    assert cert.image_order_in_4torus == 4
    assert cert.order_mod_m == 144 * 5 ** 37
    assert cert.bound == 144 * 1 ** 4 * 5 ** (36 + 1)
    assert cert.divides
    data = cert.to_json()
    assert data["orderOfF2ModM"] == str(144 * 5 ** 37)
    assert data["divides"] is True


def test_n_membership_trivial_k():
    oracle = NOracle(CongruenceInput(trivial_quotient(ALPHA_BETA), 5))
    assert oracle.contains(parse_word("x^6", F2))
    assert not oracle.contains(parse_word("x", F2))
    assert not oracle.contains(parse_word("x^2", F2))
    # commutators have zero exponent sums and map to conjugates of the
    # trivial element, so membership reduces to the outer condition
    assert oracle.contains(parse_word("y x y^-1 x^-1", F2)) == all(
        oracle.input.k_quotient.fixes_base(
            oracle.pi(t * parse_word("y x y^-1 x^-1", F2) * t.inverse()))
        for t in oracle.transversal)


def test_oracle_agrees_with_coset_table():
    oracle = NOracle(CongruenceInput(trivial_quotient(ALPHA_BETA), 5))
    rng = random.Random(6)
    for _ in range(300):
        w = random_word(rng, F2, 12)
        assert oracle.contains(w) == oracle.schreier.contains(w)


def test_m_membership():
    m_oracle = MOracle(NOracle(CongruenceInput(trivial_quotient(ALPHA_BETA), 5)))
    # x^6 is in N but its p-th power is needed for the derived-times-p layer
    assert not m_oracle.contains(parse_word("x^6", F2))
    assert not m_oracle.contains(parse_word("x^30", F2))  # 30 not divisible by 4
    assert m_oracle.contains(parse_word("x^60", F2))
    assert m_oracle.contains(F2.identity())


def test_nontrivial_k():
    inp = CongruenceInput(c2_quotient(), 5)
    oracle = NOracle(inp)
    assert oracle.index == 72
    assert oracle.rank == 73
    assert 36 * inp.k_index ** 4 % oracle.index == 0
    rng = random.Random(8)
    sub = oracle.schreier.sub_alphabet
    for _ in range(150):
        w = oracle.schreier.expand(random_word(rng, sub, 5))
        assert inp.k_quotient.fixes_base(oracle.pi(w))
        assert oracle.contains(w)
    cert = certify(inp, n_oracle=oracle)
    assert cert.order_mod_npn == 72 * 5 ** 73
    assert cert.divides


def test_certificate_json_uses_decimal_strings():
    cert = certify(CongruenceInput(trivial_quotient(ALPHA_BETA), 5))
    data = cert.to_json()
    assert isinstance(data["orderOfF2ModNpN"], str)
    assert isinstance(data["bound"], str)
    assert int(data["orderOfF2ModNpN"]) * data["imageOrderIn4Torus"] == int(
        data["orderOfF2ModM"])


def test_exact_decimal_matches_str_below_the_limit():
    rng = random.Random(4)
    values = [0, 1, -1, 9, 10, 10 ** 999, 10 ** 1000 - 1, 10 ** 1000, 10 ** 1000 + 1,
              -(10 ** 2000), 10 ** 4299 - 1, 144 * 5 ** 37]
    values += [rng.randrange(-10 ** 4299, 10 ** 4299) for _ in range(200)]
    for v in values:
        assert exact_decimal(v) == str(v)


def test_exact_decimal_past_the_limit():
    assert exact_decimal(10 ** 5000) == "1" + "0" * 5000
    bound = 5 ** 9217 * 144 * 4 ** 4  # the bound at n = 4, p = 5
    digits = exact_decimal(bound)
    assert len(digits) > 4300
    assert digits == str(Decimal(bound))  # libmpdec's conversion, not int.__str__


def test_index4_sized_certificate_serialises():
    n, p = 4, 5
    bound = 144 * n ** 4 * p ** (36 * n ** 4 + 1)
    order = 36 * n ** 4 * p ** 3000
    cert = Certificate(n=n, p=p, index_of_n=36 * n ** 4, rank_of_n=3000,
                       order_mod_npn=order, image_order_in_4torus=16,
                       order_mod_m=16 * order, bound=bound, divides=True)
    got = cert.to_json()
    assert got["bound"] == str(Decimal(bound))
    assert int(got["orderOfF2ModM"]) == 16 * order
    assert int(got["orderOfF2ModNpN"]) == order


def subgroup_order_mod4_by_closure(vectors):
    """The former closure: add generators mod 4 until nothing new appears."""
    gens = {(a % 4, b % 4) for a, b in vectors}
    elements = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = ((cur[0] + g[0]) % 4, (cur[1] + g[1]) % 4)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    return len(elements)


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=6))
def test_subgroup_order_mod4_matches_the_closure(vectors):
    assert _subgroup_order_mod4(vectors) == subgroup_order_mod4_by_closure(vectors)
