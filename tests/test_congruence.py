import functools
import json
import random
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fgcert import congruence
from fgcert.congruence import (
    DIGIT_CAP,
    Certificate,
    CongruenceError,
    CongruenceInput,
    MOracle,
    NOracle,
    certify,
    image_order_in_4torus,
    order_bound,
)
from fgcert import intlinalg
from fgcert.intlinalg import PRIME_CAP, Factored, decimals
from fgcert.quotients import (
    ALPHA_BETA,
    FiniteQuotient,
    SchreierError,
    abelian_quotient,
    kernel_subgroup,
    trivial_quotient,
)
from fgcert.words import Word, alphabet, commutator, parse_word, random_word
from test_schreier_compiled import generator_exponent_classes, seeded_k

F2 = alphabet("x", "y")
DATA = Path(__file__).parent / "data"

_CHUNK_DIGITS = 1000
_CHUNK = 10 ** _CHUNK_DIGITS


def exact_decimal(value: int) -> str:
    """The decimal digits of ``value``, equal to ``str(value)`` but free
    of CPython's int->str digit limit: 1000 digits at a time by divmod.
    The oracle for ``Factored.decimal``, which formats without the int."""
    if value < 0:
        return "-" + exact_decimal(-value)
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(value) + "".join(reversed(chunks))


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
    assert int(cert.order_mod_npn) == 36 * 5 ** 37
    assert cert.image_order_in_4torus == 4
    assert int(cert.order_mod_m) == 144 * 5 ** 37
    assert int(cert.bound) == 144 * 1 ** 4 * 5 ** (36 + 1)
    assert (cert.order_mod_npn, cert.order_mod_m, cert.bound) == (
        Factored(36, 5, 37), Factored(144, 5, 37), Factored(144, 5, 37))
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
    w = parse_word("y x y^-1 x^-1", F2)
    assert oracle.contains(w) == contains_by_conjugates(oracle, w)


def test_oracle_agrees_with_coset_table():
    oracle = NOracle(CongruenceInput(trivial_quotient(ALPHA_BETA), 5))
    rng = random.Random(6)
    for _ in range(300):
        w = random_word(rng, F2, 12)
        assert oracle.contains(w) == oracle.schreier.contains(w)


def contains_by_conjugates(oracle: NOracle, w: Word) -> bool:
    """Membership in N by word products, the route ``NOracle.contains``
    replaced: exponent sums divisible by 6, and pi(t w t^-1) in K for
    each transversal word t of Delta, each conjugate built, swept from
    coset 0 and reduced."""
    if any(s % 6 for s in w.exponent_sums()):
        return False
    k = oracle.input.k_quotient
    return all(k.fixes_base(oracle.pi(t * w * t.inverse())) for t in oracle.transversal)


@functools.cache
def n_oracle(n: int) -> NOracle:
    """N at p = 5 for the trivial K (n = 1) or the benchmark's K of index n."""
    return NOracle(CongruenceInput(trivial_quotient(ALPHA_BETA) if n == 1 else data_k(n), 5))


def f2_words(max_size: int = 3):
    return st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3).filter(bool)),
                    max_size=max_size).map(lambda s: Word.from_syllables(F2, s))


@st.composite
def oracles_and_words(draw):
    """N for K of index 1, 3 or 4, and a word: a member of N (an expanded
    word over its Schreier generators), a member times a commutator of
    two short words, a random word, or a random word with its exponent
    sums cancelled, so that it lies in F'F^6."""
    oracle = n_oracle(draw(st.sampled_from([1, 3, 4])))
    sub = oracle.schreier.sub_alphabet
    letters = draw(st.lists(st.tuples(st.integers(0, sub.rank - 1), st.sampled_from([1, -1])),
                            max_size=4))
    member = oracle.schreier.expand(Word.from_syllables(sub, letters))
    kind = draw(st.sampled_from(["member", "perturbed", "random", "balanced"]))
    if kind == "member":
        return oracle, member
    if kind == "perturbed":
        return oracle, member * commutator(draw(f2_words()), draw(f2_words()))
    w = draw(f2_words(12))
    if kind == "balanced":
        sx, sy = w.exponent_sums()
        w = w * Word.from_syllables(F2, [(0, -sx), (1, -sy)])
    return oracle, w


@settings(max_examples=300, deadline=None)
@given(oracles_and_words())
def test_contains_matches_the_word_product_oracle(case):
    oracle, w = case
    assert oracle.contains(w) == contains_by_conjugates(oracle, w) == oracle.schreier.contains(w)


@settings(max_examples=200, deadline=None)
@given(oracles_and_words())
def test_pi_walked_from_each_coset_is_pi_of_the_conjugate(case):
    """pi.fixes_base(K, w, c) decides pi(t_c w t_c^-1) in K, for every
    coset c of Delta; off Delta both routes raise (Delta is normal)."""
    oracle, w = case
    k, pi = oracle.input.k_quotient, oracle.pi
    for c, t in enumerate(oracle.transversal):
        if oracle.delta.contains(w):
            assert pi.fixes_base(k, w, c) == k.fixes_base(pi(t * w * t.inverse()))
            continue
        for route in (lambda: pi.fixes_base(k, w, c), lambda: pi(t * w * t.inverse())):
            with pytest.raises(SchreierError, match="not in the subgroup"):
                route()


def test_contains_multiplies_no_words(monkeypatch):
    """The direct test builds no conjugate: ``Word.__mul__`` is never
    called, where the word-product route calls it twice per coset."""
    oracle = n_oracle(4)
    rng = random.Random(3)
    sub = oracle.schreier.sub_alphabet
    members = [oracle.schreier.expand(random_word(rng, sub, 6)) for _ in range(50)]
    others = [random_word(rng, F2, 12) for _ in range(50)]
    others += [w * commutator(random_word(rng, F2, 3), random_word(rng, F2, 3)) for w in members]
    calls = []
    mul = Word.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Word, "__mul__", counting_mul)
    assert all(oracle.contains(w) for w in members)
    answers = [oracle.contains(w) for w in others]
    assert calls == []
    assert not all(answers)
    contains_by_conjugates(oracle, members[0])
    assert len(calls) == 2 * oracle.delta.index


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
    assert int(cert.order_mod_npn) == 72 * 5 ** 73
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
    bound = order_bound(n, p)
    order = Factored(36 * n ** 4, p, 3000)
    cert = Certificate(n=n, p=p, index_of_n=36 * n ** 4, rank_of_n=3000,
                       order_mod_npn=order, image_order_in_4torus=16,
                       order_mod_m=Factored(16 * 36 * n ** 4, p, 3000), bound=bound,
                       divides=True)
    got = cert.to_json()
    assert got["bound"] == str(Decimal(144 * n ** 4 * p ** (36 * n ** 4 + 1)))
    assert len(got["bound"]) > 4300
    assert int(got["orderOfF2ModM"]) == 16 * 36 * n ** 4 * p ** 3000
    assert int(got["orderOfF2ModNpN"]) == int(order)


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


class CountedEdges:
    """A Schreier system's edge array that counts the entries read."""

    def __init__(self, edges):
        self.edges, self.read = edges, 0

    def __iter__(self):
        for c in self.edges:
            self.read += 1
            yield c


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_image_order_matches_the_streamed_classes(n, seed):
    """The image order against the subgroup that p times every
    generator's class generates, by closure.  For K of index 3 to 5 the
    image is all of 2(Z/4)^2 and the scan stops early; for index 2 it
    has order 2 and every generator is read."""
    p = 7
    oracle = NOracle(CongruenceInput(seeded_k(n, seed), p))
    schreier = oracle.schreier
    want = subgroup_order_mod4_by_closure(
        (p * x, p * y) for x, y in generator_exponent_classes(schreier, 4))
    counted = SimpleNamespace(**vars(schreier))
    counted.edge_coset = CountedEdges(schreier.edge_coset)
    assert image_order_in_4torus(counted) == want
    assert certify(oracle.input, n_oracle=oracle).image_order_in_4torus == want
    rank = len(schreier.edge_coset)
    assert want == (4 if n > 2 else 2)
    assert counted.edge_coset.read == rank if n == 2 else counted.edge_coset.read < rank


def test_a_subgroup_outside_f_f6_is_refused():
    """The kernel of F -> (Z/3)^2 holds x^3, whose class (3, 0) mod 4 is
    odd: a system not inside F'F^6 is a broken construction."""
    system = kernel_subgroup(abelian_quotient(F2, (3, 3)))
    assert system.contains(parse_word("x^3", F2))
    match = r"vector \(3, 0\) mod 4, outside 2\(Z/4\)\^2: N is not inside F'F\^6"
    with pytest.raises(CongruenceError, match=match):
        image_order_in_4torus(system)
    oracle = NOracle(CongruenceInput(trivial_quotient(ALPHA_BETA), 5))
    oracle.schreier = system
    with pytest.raises(CongruenceError, match=match):
        certify(oracle.input, n_oracle=oracle)


# ---------------------------------------------------------------------------
# The factored certificate against the big-integer one
# ---------------------------------------------------------------------------


def bigint_certify(inp: CongruenceInput, oracle: NOracle) -> dict:
    """The certificate in big integers: p ** e, the exponent vectors of
    the generator words themselves times p, the subgroup they generate
    mod 4 by closure, and the verdict by ``bound % order``."""
    n, p = inp.k_index, inp.p
    order_mod_npn = oracle.index * p ** oracle.rank
    image_order = subgroup_order_mod4_by_closure(
        [tuple(p * s for s in g.exponent_sums()) for g in oracle.schreier.generators])
    order_mod_m = order_mod_npn * image_order
    bound = 144 * n ** 4 * p ** (36 * n ** 4 + 1)
    return {"n": n, "p": p, "index_of_n": oracle.index, "rank_of_n": oracle.rank,
            "order_mod_npn": order_mod_npn, "image_order_in_4torus": image_order,
            "order_mod_m": order_mod_m, "bound": bound, "divides": bound % order_mod_m == 0}


def cyclic_k(n: int) -> FiniteQuotient:
    """K of index n with a an n-cycle and b trivial: [F:N] = 36 n^2."""
    return FiniteQuotient(ALPHA_BETA, n, (tuple((i + 1) % n for i in range(n)),
                                          tuple(range(n))))


def data_k(n: int) -> FiniteQuotient:
    """The benchmark's K of index n (seed 1), whose permutations generate S_n."""
    return FiniteQuotient.from_json(json.loads((DATA / f"k-index{n}.json").read_text()))


K_UP_TO_4 = [(trivial_quotient(ALPHA_BETA), 5), (trivial_quotient(ALPHA_BETA), 7),
             (c2_quotient(), 11), (data_k(2), 5), (data_k(3), 5), (data_k(3), 7),
             (data_k(4), 5), (cyclic_k(3), 5), (cyclic_k(4), 7),
             (FiniteQuotient(ALPHA_BETA, 4, ((1, 0, 3, 2), (2, 3, 0, 1))), 5)]


@pytest.mark.parametrize("k, p", K_UP_TO_4)
def test_factored_certificate_matches_bigint_oracle(k, p):
    inp = CongruenceInput(k, p)
    oracle = NOracle(inp)
    cert = certify(inp, n_oracle=oracle)
    want = bigint_certify(inp, oracle)
    got = {key: getattr(cert, key) for key in want}
    for key in ("order_mod_npn", "order_mod_m", "bound"):
        assert got[key].p == p
        got[key] = int(got[key])
    assert got == want
    data = cert.to_json()
    for key, field in (("orderOfF2ModNpN", "order_mod_npn"), ("orderOfF2ModM", "order_mod_m"),
                       ("bound", "bound")):
        assert data[key] == exact_decimal(want[field])


def assert_decimal_is(digits: str, cofactor: int, p: int, exponent: int) -> None:
    """The decimal string of cofactor * p^exponent, checked by a second
    route: its last 40 digits by modular power, and its length L by
    10^(L-1) <= value < 10^L in int arithmetic."""
    assert digits.isdigit() and digits[0] != "0"
    tail = cofactor * pow(p, exponent, 10 ** 40) % 10 ** 40
    assert int(digits[-40:]) == tail
    value, length = cofactor * p ** exponent, len(digits)
    assert 10 ** (length - 1) <= value < 10 ** length


def test_bound_decimals_by_a_second_route():
    for n, p in ((1, 5), (2, 5), (3, 7), (4, 5), (4, 11), (7, 11)):
        assert_decimal_is(order_bound(n, p).decimal(), 144 * n ** 4, p, 36 * n ** 4 + 1)


def test_cyclic_k_of_index_13_certifies():
    """A 13-point cyclic quotient: the bound has 1.07M digits, which the
    big-integer route took 14 s to print."""
    n, p = 13, 11
    inp = CongruenceInput(cyclic_k(n), p)
    cert = certify(inp)
    assert cert.index_of_n == 36 * n ** 2 and cert.rank_of_n == 36 * n ** 2 + 1
    assert cert.divides
    data = cert.to_json()
    assert_decimal_is(data["bound"], 144 * n ** 4, p, 36 * n ** 4 + 1)
    assert len(data["bound"]) == 1_070_764
    order = cert.index_of_n * cert.image_order_in_4torus * p ** cert.rank_of_n
    assert data["orderOfF2ModM"] == exact_decimal(order)


def test_divides_is_decided_on_the_factors(monkeypatch):
    # rank above 36 n^4 + 1, or a cofactor not dividing 144 n^4, fails
    bound = order_bound(2, 5)
    assert Factored(72 * 4, 5, 577).divides(bound)
    assert not Factored(72 * 4, 5, 578).divides(bound)
    assert not Factored(72 * 64, 5, 73).divides(bound)
    with pytest.raises(ValueError):
        Factored(72, 7, 3).divides(bound)
    # every K meets the real bound, so a smaller one shows the verdict is computed
    monkeypatch.setattr(congruence, "order_bound", lambda n, p: Factored(144 * n ** 4, p, 36))
    assert not certify(CongruenceInput(trivial_quotient(ALPHA_BETA), 5)).divides


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 6), st.sampled_from([2, 3, 5, 7, 11, 1000003, PRIME_CAP - 87]),
       st.integers(0, 3000))
def test_factored_value_and_digits(cofactor, p, exponent):
    if cofactor % p == 0:
        with pytest.raises(ValueError):
            Factored(cofactor, p, exponent)
        return
    f = Factored(cofactor, p, exponent)
    value = int(f)
    digits = exact_decimal(value)
    assert f.decimal() == digits
    assert len(digits) <= f.max_digits() <= len(digits) + exponent // 64 + 64 * 13 + 2


@given(st.sampled_from([2, 5, 11]),
       st.lists(st.tuples(st.integers(1, 10 ** 6), st.sampled_from([0, 1, 7, 400, 5000])),
                max_size=6))
def test_decimals_match_one_value_at_a_time(p, pairs):
    values = [Factored(c if c % p else c + 1, p, e) for c, e in pairs]
    assert decimals(values) == [exact_decimal(int(v)) for v in values]


class PowerCounter(type(intlinalg._EXACT)):
    """The exact context, recording the exponent of every power it takes."""

    def __init__(self, exponents):
        exact = intlinalg._EXACT
        super().__init__(prec=exact.prec, Emax=exact.Emax, Emin=exact.Emin,
                         traps=[t for t, on in exact.traps.items() if on])
        self.exponents = exponents

    def power(self, a, b, modulo=None):
        self.exponents.append(int(b))
        return super().power(a, b, modulo)


@pytest.mark.parametrize("k, p, powers", [(data_k(4), 5, [9217]), (cyclic_k(3), 5, [325, 2917])])
def test_certificate_json_computes_each_power_once(monkeypatch, k, p, powers):
    """At index 4, rank(N) = 36 n^4 + 1, so the three big numbers share
    p^9217; for the cyclic K, [F:N] = 36 n^2 and the bound has its own."""
    cert = certify(CongruenceInput(k, p))
    want = cert.to_json()
    exponents = []
    monkeypatch.setattr(intlinalg, "_EXACT", PowerCounter(exponents))
    assert cert.to_json() == want
    assert exponents == powers


@given(st.sampled_from([5, 7, 11]), st.lists(st.tuples(st.integers(1, 300), st.integers(0, 6)),
                                             min_size=2, max_size=2))
def test_factored_divides_matches_int_divisibility(p, pairs):
    (c1, e1), (c2, e2) = [(c if c % p else c + 1, e) for c, e in pairs]
    a, b = Factored(c1, p, e1), Factored(c2, p, e2)
    assert a.divides(b) == (int(b) % int(a) == 0)


def test_factored_rejects_a_cofactor_with_a_factor_p():
    for args in ((10, 5, 3), (0, 5, 1), (3, 5, -1), (3, 1, 2)):
        with pytest.raises(ValueError):
            Factored(*args)


def test_digit_cap_is_checked_before_n_is_built():
    # n = 25 at p = 11: 14.6M digits, under the cap
    assert order_bound(25, 11).max_digits() <= DIGIT_CAP
    CongruenceInput(cyclic_k(25), 11)
    with pytest.raises(CongruenceError, match="above the cap 20000000 on output digits"):
        CongruenceInput(cyclic_k(25), 1000003)
