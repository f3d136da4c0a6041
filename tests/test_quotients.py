import random

import pytest
from hypothesis import given, settings, strategies as st

from fgcert.quotients import (
    ALPHA_BETA,
    FiniteQuotient,
    SchreierError,
    abelian_quotient,
    build_schreier_system,
    kernel_subgroup,
    rank2_mod2_kernel,
    rank2_outer_hom,
    rank3_c2_kernel,
    schreier_rank,
    trivial_quotient,
)
from fgcert.words import alphabet, parse_word, random_word
from word_letters import letters

XY = alphabet("x", "y")


def test_finite_quotient_validation():
    with pytest.raises(SchreierError):
        FiniteQuotient(XY, 3, ((1, 0, 2),))  # one permutation missing
    with pytest.raises(SchreierError):
        FiniteQuotient(XY, 2, ((0, 0), (0, 1)))  # not a bijection


def test_finite_quotient_json_roundtrip():
    q = abelian_quotient(XY, (2, 3))
    again = FiniteQuotient.from_json(q.to_json())
    assert again == q


def test_abelian_quotient_action():
    q = abelian_quotient(XY, (2, 2))
    assert q.size == 4
    assert q.fixes_base(parse_word("x^2", XY))
    assert q.fixes_base(parse_word("y x y^-1 x^-1", XY))
    assert not q.fixes_base(parse_word("x", XY))


def test_trivial_quotient():
    q = trivial_quotient(XY)
    assert q.size == 1
    assert q.fixes_base(parse_word("x y^3", XY))


def test_mod2_kernel_golden():
    s = rank2_mod2_kernel()
    assert s.index == 4
    assert [str(t) for t in s.transversal] == ["1", "x", "y", "x y"]
    assert [str(g) for g in s.generators] == [
        "x^2", "y x y^-1 x^-1", "y^2", "x y x y^-1", "x y^2 x^-1"]


def test_schreier_formula():
    rng = random.Random(1)
    for _ in range(25):
        rank = rng.randint(2, 3)
        alpha = alphabet(*"xyz"[:rank])
        moduli = tuple(rng.randint(1, 4) for _ in range(rank))
        s = kernel_subgroup(abelian_quotient(alpha, moduli))
        expected_index = 1
        for m in moduli:
            expected_index *= m
        assert s.index == expected_index
        assert len(s.generators) == schreier_rank(s.index, rank)


def test_transversal_prefix_closed():
    rng = random.Random(2)
    for _ in range(25):
        rank = rng.randint(2, 3)
        alpha = alphabet(*"xyz"[:rank])
        moduli = tuple(rng.randint(1, 4) for _ in range(rank))
        s = kernel_subgroup(abelian_quotient(alpha, moduli))
        reps = {str(t) for t in s.transversal}
        for t in s.transversal:
            spelled = letters(t)
            prefix = alpha.identity()
            for gen, sign in spelled:
                assert str(prefix) in reps
                prefix = prefix * alpha.generator(gen, sign)
        # distinct cosets
        assert len(reps) == s.index


def test_membership_matches_quotient():
    q = abelian_quotient(XY, (3, 2))
    s = kernel_subgroup(q)
    rng = random.Random(3)
    for _ in range(400):
        w = random_word(rng, XY, 12)
        assert s.contains(w) == q.fixes_base(w)


def test_rewrite_expand_roundtrip():
    s = rank2_mod2_kernel()
    rng = random.Random(4)
    for _ in range(400):
        w = random_word(rng, XY, 14)
        if not s.contains(w):
            with pytest.raises(SchreierError):
                s.rewrite(w)
            continue
        sub = s.rewrite(w)
        assert s.expand(sub) == w


def test_expand_of_random_subwords_lies_in_subgroup():
    s = rank2_mod2_kernel()
    rng = random.Random(5)
    for _ in range(300):
        sub = random_word(rng, s.sub_alphabet, 8)
        w = s.expand(sub)
        assert s.contains(w)
        assert s.rewrite(w) == sub


def test_coset_of_is_transversal_index():
    s = rank2_mod2_kernel()
    for i, t in enumerate(s.transversal):
        assert s.coset_of(t) == i


def test_outer_hom_images():
    pi = rank2_outer_hom()
    assert [str(w) for w in pi.images] == ["a", "1", "b", "a^-1", "b^-1"]
    assert pi.target == ALPHA_BETA
    s = pi.system
    assert pi.in_kernel(s.expand(parse_word("e2", s.sub_alphabet)))
    assert pi.in_kernel(s.expand(parse_word("e1 e4", s.sub_alphabet)))
    assert not pi.in_kernel(s.expand(parse_word("e1", s.sub_alphabet)))


def test_rank3_kernel_generator_order():
    s = rank3_c2_kernel()
    assert s.index == 2
    assert [str(g) for g in s.generators] == [
        "x^2", "y", "x y x^-1", "z", "x z x^-1"]


def test_coset_cap():
    with pytest.raises(SchreierError):
        build_schreier_system(abelian_quotient(XY, (10, 10)), max_cosets=50)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([-1, 1])), max_size=10))
def test_rewrite_is_homomorphism_on_generators(path):
    s = rank2_mod2_kernel()
    w = s.alphabet.identity()
    sub = s.sub_alphabet.identity()
    for gen, sign in path:
        e = s.generators[gen] ** sign
        w = w * e
        sub = sub * s.sub_alphabet.generator(gen, sign)
    assert s.rewrite(w) == sub
