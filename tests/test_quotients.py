import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fgcert.congruence import CongruenceInput, NOracle
from fgcert.quotients import (
    ALPHA_BETA,
    FiniteQuotient,
    SchreierError,
    SubgroupHom,
    abelian_quotient,
    build_schreier_system,
    kernel_subgroup,
    rank2_mod2_kernel,
    rank2_outer_hom,
    rank3_c2_kernel,
    schreier_rank,
    trivial_quotient,
)
from fgcert.schreier_modules import abelianized_image
from fgcert.words import Alphabet, Word, WordError, _reduce, alphabet, parse_word, random_word, substitute
from word_letters import letters

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")
DATA = Path(__file__).parent / "data"


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


def abelian_perms_by_coordinates(moduli):
    """Oracle: the former encode/decode construction, generator i adding
    1 mod m_i to coordinate i of the mixed-radix digits, first digit most
    significant."""
    def encode(coords):
        v = 0
        for c, m in zip(coords, moduli):
            v = v * m + c
        return v

    def decode(v):
        coords = []
        for m in reversed(moduli):
            coords.append(v % m)
            v //= m
        return coords[::-1]

    total = 1
    for m in moduli:
        total *= m
    perms = []
    for i, m in enumerate(moduli):
        perm = []
        for v in range(total):
            coords = decode(v)
            coords[i] = (coords[i] + 1) % m
            perm.append(encode(coords))
        perms.append(tuple(perm))
    return total, tuple(perms)


@given(st.lists(st.integers(1, 7), min_size=1, max_size=3))
def test_abelian_quotient_matches_the_coordinate_oracle(moduli):
    alpha = alphabet(*"xyz"[:len(moduli)])
    q = abelian_quotient(alpha, moduli)
    assert (q.size, q.perms) == abelian_perms_by_coordinates(moduli)


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


def tree_letters(s, c: int) -> list[tuple[int, int]]:
    """The (generator, +-1) letters of the tree path from coset 0 to c."""
    out = []
    while c:
        out.append((s.parent_letter[c] >> 1, -1 if s.parent_letter[c] & 1 else 1))
        c = s.parent[c]
    return out[::-1]


def generator_letters(s, i: int) -> list[tuple[int, int]]:
    """The letters of t_c x t_c'^-1 for generator i, unreduced."""
    c, gen = s.edge_coset[i], s.edge_gen[i]
    back = [(g, -e) for g, e in reversed(tree_letters(s, s.table[2 * gen][c]))]
    return tree_letters(s, c) + [(gen, 1)] + back


def syllable_lists(rank: int, max_size: int = 8):
    """Syllable lists with exponents up to 3 in size, not reduced."""
    return st.lists(st.tuples(st.integers(0, rank - 1),
                              st.integers(-3, 3).filter(bool)), max_size=max_size)


@st.composite
def systems_and_words(draw):
    """A Schreier system of one or two random finite quotients over x, y
    or x, y, z, a subgroup hom to a, b with random images, a word over
    the Schreier generators and a word over the alphabet."""
    alpha = draw(st.sampled_from((XY, XYZ)))
    quotients = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 6))
        perms = tuple(tuple(draw(st.permutations(range(size)))) for _ in range(alpha.rank))
        quotients.append(FiniteQuotient(alpha, size, perms, draw(st.integers(0, size - 1))))
    s = build_schreier_system(*quotients)
    images = tuple(Word.from_syllables(ALPHA_BETA, draw(syllable_lists(2, 3)))
                   for _ in range(s.sub_alphabet.rank))
    sub = s.sub_alphabet.rank
    u = Word.from_syllables(s.sub_alphabet, draw(syllable_lists(sub)))
    w = Word.from_syllables(alpha, draw(syllable_lists(alpha.rank)))
    return s, SubgroupHom(s, ALPHA_BETA, images), u, w


@settings(max_examples=150, deadline=None)
@given(systems_and_words())
def test_one_sweep_routes_match_the_two_step_routes(case):
    """The hom off one sweep, expand off cached syllables and the
    abelianized image off the swept signs agree with rewriting first,
    and with words spelled from scratch; outside the subgroup all three
    routes raise."""
    s, hom, u, w = case
    alpha = s.alphabet
    from_scratch = [Word.from_syllables(alpha, generator_letters(s, i))
                    for i in range(s.sub_alphabet.rank)]
    for _ in range(2):  # cold caches, then warm
        syllables = []
        for gen, exp in u.syllables:
            g = from_scratch[gen] if exp > 0 else from_scratch[gen].inverse()
            syllables += g.syllables * abs(exp)
        assert s.expand(u) == Word.from_syllables(alpha, syllables)
    member = w * s.transversal[s.coset_of(w)].inverse()
    for x in (member, s.expand(u), member * s.expand(u) ** -2):
        assert hom(x) == substitute(hom.target, hom._syllables, hom._inverses,
                                    s.rewrite(x).syllables)
        assert abelianized_image(s, x) == s.rewrite(x).exponent_sums()
    if s.coset_of(w):
        for route in (hom, s.rewrite, lambda x: abelianized_image(s, x)):
            with pytest.raises(SchreierError, match="not in the subgroup"):
                route(w)


@settings(max_examples=150, deadline=None)
@given(systems_and_words(), syllable_lists(2, 12))
def test_move_table_matches_substitute_of_the_swept_letters(case, xy_syllables):
    """A subgroup hom off its move table against ``substitute`` over the
    Schreier letters that ``schreier_letters`` reads, for a random hom
    and for pi: on subgroup elements with syllables of exponent up to 9
    in size, and with the same errors outside the subgroup and over a
    wrong alphabet."""
    s, hom, u, w = case
    pi = rank2_outer_hom()
    x = Word.from_syllables(XY, xy_syllables)
    for h, v in ((hom, w), (pi, x)):
        system = h.system

        def swept(y):
            return substitute(h.target, h._syllables, h._inverses, system.schreier_letters(y))

        member = v * system.transversal[system.coset_of(v)].inverse()
        cubed = Word.from_syllables(system.alphabet, [(g, 3 * e) for g, e in v.syllables])
        cubed = cubed * system.transversal[system.coset_of(cubed)].inverse()
        elements = [member, cubed, member ** 3 * cubed ** -2, system.alphabet.identity()]
        if h is hom:
            elements.append(s.expand(u) * member)
        for y in elements:
            assert h(y) == swept(y)
        if system.coset_of(v):
            for route in (h, swept):
                with pytest.raises(SchreierError, match=re.escape(f"not in the subgroup: {v}") + "$"):
                    route(v)
        other = XYZ if system.alphabet == XY else XY
        for route in (h, swept):
            with pytest.raises(WordError, match="alphabet mismatch"):
                route(other.generator(0, 2))


@st.composite
def finite_quotients(draw, alpha: Alphabet, max_size: int = 5):
    """A random permutation action of the free group on ``alpha``, with
    a random base point."""
    size = draw(st.integers(1, max_size))
    perms = tuple(tuple(draw(st.permutations(range(size)))) for _ in range(alpha.rank))
    return FiniteQuotient(alpha, size, perms, draw(st.integers(0, size - 1)))


@settings(max_examples=150, deadline=None)
@given(systems_and_words(), finite_quotients(ALPHA_BETA), syllable_lists(2, 12))
def test_fixes_base_matches_the_conjugate_route(case, q, xy_syllables):
    """Walking w from coset c against the word-product route, for a
    random hom and for pi: ``fixes_base(q, w, c)`` is whether the image
    of t_c w t_c^-1 fixes q's base point, and where t_c w t_c^-1 leaves
    the subgroup both routes raise."""
    s, hom, u, w = case
    x = Word.from_syllables(XY, xy_syllables)
    for h, v in ((hom, w), (rank2_outer_hom(), x)):
        system = h.system
        member = v * system.transversal[system.coset_of(v)].inverse()
        elements = [v, member, member ** 3]
        if h is hom:
            elements.append(s.expand(u) * member)
        for y in elements:
            for c, t in enumerate(system.transversal):
                conj = t * y * t.inverse()
                if system.contains(conj):
                    assert h.fixes_base(q, y, c) == q.fixes_base(h(conj))
                    continue
                with pytest.raises(SchreierError,
                                   match=re.escape(f"t_{c} w t_{c}^-1 not in the subgroup: w = {y}") + "$"):
                    h.fixes_base(q, y, c)
                with pytest.raises(SchreierError, match="not in the subgroup"):
                    h(conj)


def test_fixes_base_refuses_a_wrong_alphabet_or_coset():
    pi = rank2_outer_hom()
    k = abelian_quotient(ALPHA_BETA, (2, 3))
    x2 = parse_word("x^2", XY)
    # pi(t_c x^2 t_c^-1) is a or a^-1, of order 2 in Z/2 x Z/3
    assert all(pi.fixes_base(k, x2 ** 2, c) and not pi.fixes_base(k, x2, c) for c in range(4))
    with pytest.raises(WordError, match="alphabet mismatch"):
        pi.fixes_base(k, parse_word("x^2", XYZ))  # the word
    with pytest.raises(WordError, match="alphabet mismatch"):
        pi.fixes_base(abelian_quotient(XY, (2, 3)), x2)  # the quotient: over the source
    for c in (-1, 4):
        with pytest.raises(SchreierError, match=f"coset {c} out of range"):
            pi.fixes_base(k, x2, c)


def test_generator_words_of_n_are_their_reduced_letters():
    """Every generator word of the index-4 N, and its inverse, is spelled
    by grouping equal letters with no free reduction; each is the
    reduction of its letters."""
    k = FiniteQuotient.from_json(json.loads((DATA / "k-index4.json").read_text()))
    s = NOracle(CongruenceInput(k, 5)).schreier
    sub = s.sub_alphabet
    assert sub.rank == 9217
    for i, g in enumerate(s.generators):
        want = _reduce(generator_letters(s, i))
        assert g.syllables == want
        assert s.expand(sub.generator(i, -1)).syllables == Word._trusted(s.alphabet, want).inverse().syllables
    for c, t in enumerate(s.transversal):
        assert t.syllables == _reduce(tree_letters(s, c))
