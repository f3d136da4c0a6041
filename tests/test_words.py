import random

import pytest
from hypothesis import given, strategies as st

from fgcert.homs import FreeHom
from fgcert.words import (
    Alphabet,
    Word,
    WordError,
    _reduce,
    alphabet,
    commutator,
    numbered_alphabet,
    parse_word,
    random_word,
    substitute,
)
from word_letters import letters

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")


def words(alpha=XY, max_length=20):
    syllable = st.tuples(
        st.integers(0, alpha.rank - 1),
        st.integers(-3, 3).filter(lambda e: e != 0))
    return st.lists(syllable, max_size=max_length).map(
        lambda sylls: _product(alpha, sylls))


def old_reduce(syllables):
    """The reduction that copied every syllable: each one a fresh list,
    rebuilt as a fresh tuple."""
    stack = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def old_inverse(w):
    return Word(w.alphabet, tuple((g, -e) for g, e in reversed(w.syllables)))


def old_substitute(alpha, image, w):
    syllables = []
    for gen, exp in w.syllables:
        img = image(gen).syllables
        if exp < 0:
            img = tuple((g, -e) for g, e in reversed(img))
        syllables.extend(img * abs(exp))
    return Word(alpha, old_reduce(syllables))


def _product(alpha, sylls):
    w = alpha.identity()
    for gen, exp in sylls:
        w = w * alpha.generator(gen, exp)
    return w


def test_parse_basics():
    w = parse_word("x^2 y^-1", XY)
    assert w.syllables == ((0, 2), (1, -1))
    assert str(w) == "x^2 y^-1"
    assert str(parse_word("1", XY)) == "1"
    assert parse_word("x * x^-1", XY).is_identity()


def test_parse_star_and_whitespace_separators():
    assert parse_word("x*y", XY) == parse_word("x y", XY)
    assert parse_word("x * y^2 * x", XY) == parse_word("x y^2 x", XY)


def test_parse_errors_report_position():
    with pytest.raises(WordError) as err:
        parse_word("x q", XY)
    assert "q" in str(err.value)
    with pytest.raises(WordError):
        parse_word("x^0", XY)
    with pytest.raises(WordError):
        parse_word("x^", XY)
    with pytest.raises(WordError):
        parse_word("", XY)


def test_reduction_merges_and_cancels():
    w = parse_word("x^2 x^-1 y y^-1 x", XY)
    assert str(w) == "x^2"
    assert parse_word("x y y^-1 x^-1", XY).is_identity()


@given(words())
def test_format_parse_roundtrip(w):
    assert parse_word(str(w), XY) == w


@given(words(), words())
def test_mul_inverse_cancel(a, b):
    assert (a * b) * b.inverse() == a
    assert a * a.inverse() == XY.identity()


@given(words(), words(), words())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words(), st.integers(-5, 5))
def test_powers(w, n):
    direct = XY.identity()
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        direct = direct * step
    assert w ** n == direct


@given(words())
def test_length_counts_letters(w):
    assert w.length() == sum(abs(e) for _, e in w.syllables)
    assert len(letters(w)) == w.length()


def test_commutator_convention():
    # [a, b] = a b a^-1 b^-1, so [y, x] = y x y^-1 x^-1
    x, y = XY.generators()
    assert str(commutator(y, x)) == "y x y^-1 x^-1"


def test_conjugation_convention():
    # a.conjugated_by(t) = t^-1 a t
    x, y = XY.generators()
    assert x.conjugated_by(y) == y.inverse() * x * y


@given(words())
def test_exponent_sums_additive(w):
    x, y = XY.generators()
    sums = w.exponent_sums()
    assert (w * x).exponent_sums() == (sums[0] + 1, sums[1])
    assert (w * y.inverse()).exponent_sums() == (sums[0], sums[1] - 1)


def test_boundary_constructors_still_validate():
    with pytest.raises(WordError):
        Word(XY, ((0, 1), (0, 1)))
    with pytest.raises(WordError):
        Word(XY, ((0, 0),))
    with pytest.raises(WordError):
        Word(XY, ((2, 1),))
    with pytest.raises(WordError):
        Word.from_syllables(XY, [(5, 1)])
    with pytest.raises(WordError):
        Word.from_syllables(XY, [(-1, 2)])


@pytest.mark.parametrize("syllables", [
    ((0.5, 1),),          # generator index not an int
    ((0, 1.0),),          # exponent not an int
    ((0, True),),         # a bool is no exponent
    (0, 1),               # a bare pair, not a tuple of pairs
    ((0, 1, 2),),         # a triple
    ((0,),),              # a single
    ([0, 1],),            # a list, which would not hash
    ((0, 1), "y"),        # a string after a valid syllable
])
def test_word_refuses_a_syllable_that_is_not_a_pair_of_ints(syllables):
    with pytest.raises(WordError, match="not a pair of ints"):
        Word(XY, syllables)


@given(words(), words())
def test_products_and_inverses_are_valid_words(a, b):
    # results built without re-validation equal the validated constructor's
    for w in (a * b, a.inverse(), (a * b).inverse()):
        assert w == Word(XY, w.syllables)
        assert type(w.syllables) is tuple
        assert all(type(s) is tuple for s in w.syllables)


def test_words_carry_no_instance_dict():
    # checked and trusted constructors both build slotted, frozen words
    for w in (Word(XY, ((0, 2),)), parse_word("x y^-1", XY).inverse()):
        assert not hasattr(w, "__dict__")
        with pytest.raises(AttributeError):
            w.syllables = ()


def test_alphabet_mismatch_rejected():
    with pytest.raises(WordError):
        parse_word("x", XY) * parse_word("x", XYZ)


def test_random_words_are_reduced():
    rng = random.Random(7)
    for _ in range(300):
        w = random_word(rng, XYZ, 25)
        assert w.length() <= 25
        # no adjacent same-generator syllables, no zero exponents
        for i in range(len(w.syllables) - 1):
            assert w.syllables[i][0] != w.syllables[i + 1][0]
        assert all(e != 0 for _, e in w.syllables)


@given(words(), st.integers(-5, 5))
def test_power_matches_repeated_multiplication(w, n):
    expected = w.alphabet.identity()
    for _ in range(abs(n)):
        expected = expected * (w if n > 0 else w.inverse())
    assert w ** n == expected
    assert Word(w.alphabet, (w ** n).syllables) == expected  # reduced and valid


def assert_exact_syllables(w):
    """Every syllable is an exact tuple of two exact ints."""
    assert type(w.syllables) is tuple
    for syllable in w.syllables:
        assert type(syllable) is tuple and len(syllable) == 2
        assert all(type(v) is int for v in syllable)


raw_syllables = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=30)


@given(raw_syllables, st.booleans())
def test_reduce_matches_the_copying_oracle(raw, as_lists):
    given_syllables = [list(s) for s in raw] if as_lists else raw
    got = _reduce(given_syllables)
    assert got == old_reduce(raw)
    w = Word.from_syllables(XYZ, given_syllables)
    assert w == Word(XYZ, old_reduce(raw))
    assert_exact_syllables(w)
    if as_lists:  # the word does not alias its input
        for s in given_syllables:
            s[1] += 7
        assert w.syllables == old_reduce(raw)


@given(words(XYZ), words(XYZ))
def test_inverse_and_products_match_the_oracle(a, b):
    for w in (a, b, a * b, a * b.inverse(), b.inverse() * a, a ** 3, (a * b) ** -2):
        inv = w.inverse()
        assert inv == old_inverse(w)
        assert_exact_syllables(w)
        assert_exact_syllables(inv)
        units = XYZ.unit_syllables
        for syllable in inv.syllables:
            g, e = syllable
            if abs(e) == 1:
                assert syllable is units[2 * g + (e < 0)]


@given(words(XYZ), st.lists(words(XY), min_size=3, max_size=3))
def test_substitute_matches_the_oracle(w, images):
    h = FreeHom(XYZ, XY, tuple(images))
    got = substitute(XY, h._syllables, h._inverses, w.syllables)
    assert got == old_substitute(XY, images.__getitem__, w)
    assert_exact_syllables(got)


@st.composite
def cancelling_pieces(draw, alpha=XYZ):
    """Reduced words whose product cancels across its seams: each is a
    random word, the inverse of the product of the last one to three
    (which cancels them completely, so cancellation runs across more
    than one piece), or that inverse followed by a random word."""
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        w = draw(words(alpha, 6))
        kind = draw(st.sampled_from(["word", "undo", "undo then word"]))
        if kind != "word" and pieces:
            back = pieces[-draw(st.integers(1, min(3, len(pieces)))):]
            undo = old_inverse(Word(alpha, old_reduce(
                [syl for piece in back for syl in piece.syllables])))
            tail = w.syllables if kind == "undo then word" else ()
            w = Word(alpha, old_reduce(undo.syllables + tail))
        pieces.append(w)
    return pieces


@given(cancelling_pieces(), st.lists(st.tuples(st.integers(0, 8), st.integers(-3, 3)
                                               .filter(bool)), max_size=8),
       st.integers(-4, 4))
def test_seam_reduction_matches_full_reduction(pieces, extra_letters, k):
    """``substitute``, ``*`` and ``**`` reduce only at the seams; each
    must equal ``_reduce`` of the plain concatenation of its pieces."""
    def concatenation(ws):
        return Word._trusted(XYZ, _reduce([syl for w in ws for syl in w.syllables]))

    product = XYZ.identity()
    for w in pieces:
        product = product * w
    assert product == concatenation(pieces)
    assert_exact_syllables(product)

    n = max(len(pieces), 1)
    images = tuple(pieces) if pieces else (XYZ.identity(),)
    h = FreeHom(numbered_alphabet("e", n), XYZ, images)
    letters = [(i, 1) for i in range(len(pieces))] + [(i % n, e) for i, e in extra_letters]
    expanded = [images[i] if e > 0 else images[i].inverse()
                for i, e in letters for _ in range(abs(e))]
    got = substitute(XYZ, h._syllables, h._inverses, letters)
    assert got == concatenation(expanded)
    assert_exact_syllables(got)

    a, b = XYZ.generator(0), XYZ.generator(1)
    for base in pieces + [a * b * a.inverse(), a ** 2 * b ** -3 * a ** -2, product]:
        power = base ** k
        assert power == concatenation([base if k > 0 else base.inverse()] * abs(k))
        assert_exact_syllables(power)


def test_unit_syllables_are_one_table_per_alphabet():
    units = XYZ.unit_syllables
    assert units == ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))
    assert XYZ.unit_syllables is units
    x = XYZ.generator(0)
    assert x.inverse().syllables[0] is units[1]
    assert x.inverse().inverse().syllables[0] is units[0]


@given(st.sampled_from(["e", "g", "x_", "ab1"]), st.integers(1, 300), st.integers(0, 2 ** 32))
def test_numbered_names_agree_with_the_explicit_alphabet(prefix, count, seed):
    numbered = numbered_alphabet(prefix, count)
    names = tuple(f"{prefix}{k}" for k in range(1, count + 1))
    explicit = Alphabet(names)
    assert numbered == explicit and explicit == numbered and not numbered != explicit
    assert hash(numbered) == hash(explicit) == hash(numbered_alphabet(prefix, count))
    assert len({numbered, explicit}) == 1
    assert numbered.rank == explicit.rank == count
    assert tuple(numbered.names) == names and list(numbered.names) == list(names)
    assert [numbered.index(name) for name in names] == list(range(count))
    assert [numbered.names[i] for i in range(-count, count)] == list(names * 2)
    assert numbered.names[1:-1:2] == names[1:-1:2]
    assert numbered.unit_syllables == explicit.unit_syllables
    assert numbered != numbered_alphabet(prefix, count + 1)
    assert numbered != Alphabet(names + (f"{prefix}0",))
    assert numbered_alphabet("q", count) != explicit
    assert numbered_alphabet("q", count) != numbered
    rng = random.Random(seed)
    w = random_word(rng, numbered, 10)
    assert str(w) == str(Word(explicit, w.syllables))
    assert parse_word(str(w), numbered) == parse_word(str(w), explicit) == w


def test_numbered_names_reject_unknown_names():
    numbered = numbered_alphabet("e", 12)
    assert numbered.index("e12") == 11
    for name in ("e0", "e01", "e13", "e", "f1", "E1", "e-1", "e+1", "e1 ", " e1", "e1_",
                 "e\u0661", "e1e", "ee1", ""):
        with pytest.raises(WordError, match="unknown generator"):
            numbered.index(name)
        assert name not in numbered.names
        if name.strip() == name:  # "e1 " parses as e1
            with pytest.raises(WordError):
                parse_word(name, numbered)
    with pytest.raises(IndexError):
        numbered.names[12]
    for prefix, count in (("1e", 3), ("", 3), ("e-", 3), ("e", 0), ("e", -1)):
        with pytest.raises(WordError):
            numbered_alphabet(prefix, count)

