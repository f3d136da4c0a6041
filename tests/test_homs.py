import random

import pytest

from fgcert.homs import (
    FreeHom,
    VerifiedAut,
    compose,
    compose_auts,
    hom,
    inner_aut,
    shear_alpha3,
    shear_beta3,
    transvection_alpha,
    transvection_beta,
)
from fgcert.words import WordError, alphabet, commutator, parse_word, random_word
from nielsen import nielsen_inversion, nielsen_permutation, nielsen_transvection

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")


def test_hom_application():
    f = hom(XY, "x", "y x^2")
    assert str(f(parse_word("y", XY))) == "y x^2"
    assert str(f(parse_word("x y", XY))) == "x y x^2"
    assert f(XY.identity()).is_identity()


def test_compose_order():
    # compose(f, g) applies g first
    f = hom(XY, "x", "y x")
    g = hom(XY, "y", "x")
    w = parse_word("x", XY)
    assert compose(f, g)(w) == f(g(w))


def test_verified_aut_rejects_non_inverse():
    f = hom(XY, "x", "y x^2")
    wrong = hom(XY, "x", "y")
    with pytest.raises(WordError):
        VerifiedAut(f, wrong)


def test_verified_aut_roundtrip():
    a = transvection_alpha()
    for g in XY.generators():
        assert a.backward(a.forward(g)) == g
        assert a.forward(a.backward(g)) == g
    assert compose_auts(a, a.inverse())(parse_word("x y", XY)) == parse_word("x y", XY)


def test_inner_aut_is_conjugation():
    g = parse_word("x y", XY)
    inn = inner_aut(g)
    w = parse_word("y^2 x", XY)
    assert inn(w) == g.inverse() * w * g


def test_transvections_fix_commutator():
    e2 = commutator(parse_word("y", XY), parse_word("x", XY))
    assert transvection_alpha().forward(e2) == e2
    assert transvection_beta().forward(e2) == e2


def test_rank3_shears():
    a = shear_alpha3()
    b = shear_beta3()
    assert str(a(parse_word("z", XYZ))) == "z y"
    assert str(b(parse_word("y", XYZ))) == "y z"
    assert a(parse_word("x", XYZ)) == parse_word("x", XYZ)


def test_nielsen_generators():
    t = nielsen_transvection(XY, 0, 1)
    assert str(t(parse_word("x", XY))) == "x y"
    inv = nielsen_inversion(XY, 1)
    assert str(inv(parse_word("y", XY))) == "y^-1"
    p = nielsen_permutation(XYZ, (1, 2, 0))
    assert str(p(parse_word("x", XYZ))) == "y"
    assert str(p(parse_word("z", XYZ))) == "x"
    with pytest.raises(WordError):
        nielsen_permutation(XY, (0, 0))


def test_substitution_matches_image_by_image_products():
    # the former FreeHom.__call__: multiply in the images one at a time
    def image_by_image(h, w):
        result = h.codomain.identity()
        for gen, exp in w.syllables:
            img = h.images[gen] if exp > 0 else h.images[gen].inverse()
            for _ in range(abs(exp)):
                result = result * img
        return result

    rng = random.Random(37)
    for _ in range(300):
        domain = rng.choice((XY, XYZ))
        codomain = rng.choice((XY, XYZ))
        h = FreeHom(domain, codomain,
                    tuple(random_word(rng, codomain, 6) for _ in range(domain.rank)))
        w = domain.identity()
        for _ in range(rng.randint(0, 6)):
            w = w * domain.generator(rng.randrange(domain.rank), rng.choice((-3, -1, 1, 2)))
        assert h(w) == image_by_image(h, w)
