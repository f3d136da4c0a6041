import random

import pytest
from hypothesis import given, settings, strategies as st

from fgcert import magnus
from fgcert.homs import FreeHom, compose, hom, transvection_alpha, transvection_beta
from fgcert.magnus import (
    FiniteGroupRingElement,
    FreeGroupRingElement,
    PhiElement,
    RingError,
    acts_trivially_mod,
    fox_coordinates,
    fox_identity_holds,
    j_composition_identity,
    j_of_endo,
    ka_check,
    local_commutator_check,
    magnus_image,
    mat_mul,
)
from fgcert.words import Word, WordError, _reduce, alphabet, parse_word, random_word
from nielsen import nielsen_inversion
from word_letters import letters
import finite_ring
import word_ring

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")


def words(alpha=XY, max_length=20, max_exponent=2):
    syllable = st.tuples(
        st.integers(0, alpha.rank - 1),
        st.integers(-max_exponent, max_exponent).filter(lambda e: e != 0))

    def build(sylls):
        w = alpha.identity()
        for gen, exp in sylls:
            w = w * alpha.generator(gen, exp)
        return w

    return st.lists(syllable, max_size=max_length).map(build)


def times_word(e, w):
    """The group-ring element e times the word w on the right."""
    return FreeGroupRingElement.from_dict(
        e.alphabet, {_reduce(t + w.syllables): c for t, c in e.terms})


def push_to_finite(e, m):
    """Push Z[F_n] -> Z_m[(Z/m)^n]: group elements to exponent vectors mod m."""
    d = {}
    for t, c in e.terms:
        sums = [0] * e.alphabet.rank
        for gen, exp in t:
            sums[gen] += exp
        v = tuple(s % m for s in sums)
        d[v] = d.get(v, 0) + c
    return FiniteGroupRingElement.from_dict(m, e.alphabet.rank, d)


def fox_by_recursion(w):
    """Reference: extend the word letter by letter; each letter x_i
    multiplies every coordinate by x_i on the right and adds 1 (resp.
    -x_i^-1 for the inverse letter) at position i."""
    alpha = w.alphabet
    coords = [FreeGroupRingElement.from_dict(alpha, {}) for _ in range(alpha.rank)]
    for gen, sign in letters(w):
        letter = alpha.generator(gen, sign)
        coords = [times_word(c, letter) for c in coords]
        if sign > 0:
            delta = FreeGroupRingElement.from_dict(alpha, {(): 1})
        else:
            delta = FreeGroupRingElement.from_dict(alpha, {letter.syllables: -1})
        coords[gen] = coords[gen] + delta
    return tuple(coords)


@pytest.mark.parametrize("text", ["x^7 y^-5 x^3", "x^-4 y^6 x^-1 y", "1", "y^-9"])
def test_closed_form_matches_recursion_large_exponents(text):
    w = parse_word(text, XY)
    assert fox_coordinates(w) == fox_by_recursion(w)


@given(words(max_exponent=7))
def test_closed_form_matches_recursion(w):
    assert fox_coordinates(w) == fox_by_recursion(w)


@given(words(XYZ, 12, max_exponent=7))
def test_closed_form_matches_recursion_rank3(w):
    assert fox_coordinates(w) == fox_by_recursion(w)


@given(st.sampled_from([XY, XYZ]).flatmap(lambda a: words(a, 12, max_exponent=6)))
def test_magnus_image_matches_pushed_recursion(w):
    for m in (2, 3, 4, 5):
        img = magnus_image(w, m)
        assert img.top == tuple(s % m for s in w.exponent_sums())
        assert img.bottom == tuple(push_to_finite(c, m) for c in fox_by_recursion(w))


@given(words(max_length=5, max_exponent=4), words(max_length=5, max_exponent=4))
def test_finite_j_matches_pushed_free_j(u, v):
    h = hom(XY, str(u), str(v))
    free = j_of_endo(h)
    for m in (2, 3, 4, 5):
        assert j_of_endo(h, m) == [[push_to_finite(e, m) for e in row] for row in free]


def test_fox_coordinates_of_generators():
    x, y = XY.generators()
    cx = fox_coordinates(x)
    assert cx[0] == FreeGroupRingElement.from_dict(XY, {(): 1}) and not cx[1].terms
    cinv = fox_coordinates(x.inverse())
    # coordinate of x^-1 is -x^-1
    assert cinv[0] == FreeGroupRingElement.from_dict(XY, {x.inverse().syllables: -1})
    assert not cinv[1].terms
    assert all(not c.terms for c in fox_coordinates(XY.identity()))


@given(words())
def test_fox_identity(w):
    assert fox_identity_holds(w)


@given(words(XYZ, 15))
def test_fox_identity_rank3(w):
    assert fox_identity_holds(w)


def fox_identity_by_ring(w):
    """The former oracle: sum (x_i - 1) w_i through group-ring products,
    plus 1, compared with w.  Reads ``magnus.fox_coordinates`` through
    the module, so a patched one reaches both routes."""
    alpha = w.alphabet
    one = FreeGroupRingElement.from_dict(alpha, {(): 1})
    total = FreeGroupRingElement.from_dict(alpha, {})
    for i, c in enumerate(magnus.fox_coordinates(w)):
        xi_minus_one = FreeGroupRingElement.from_dict(alpha, {((i, 1),): 1, (): -1})
        total = total + xi_minus_one * c
    return total + one == FreeGroupRingElement.from_dict(alpha, {w.syllables: 1})


@pytest.mark.parametrize("alpha", [XY, XYZ])
def test_fox_identity_of_the_empty_word(alpha):
    assert fox_identity_holds(alpha.identity()) is fox_identity_by_ring(alpha.identity()) is True


@given(st.sampled_from([XY, XYZ]).flatmap(lambda a: words(a, max_exponent=7)))
def test_fox_identity_matches_the_ring_route(w):
    assert fox_identity_holds(w) is fox_identity_by_ring(w) is True


def _corrupted(coords, kind, pick):
    """The coordinates with one term of one nonzero coordinate changed."""
    alpha = coords[0].alphabet
    terms = [list(c.terms) for c in coords]
    i = [k for k, t in enumerate(terms) if t][pick % sum(1 for t in terms if t)]
    j = pick % len(terms[i])
    t, c = terms[i][j]
    if kind == "sign flipped":
        terms[i][j] = (t, -c)
    elif kind == "term dropped":
        del terms[i][j]
    elif kind == "term moved":
        del terms[i][j]
        terms[(i + 1) % len(terms)].append((t, c))
    elif kind == "term duplicated":
        terms[i].append((t, c))
    elif kind == "coefficient doubled":
        terms[i][j] = (t, 2 * c)
    else:  # a cancelling pair +-u or +-2u, u = t times a generator
        u = _reduce(t + ((pick % alpha.rank, 1),))
        k = 2 if kind == "cancelling +-2 pair added" else 1
        terms[i] += [(u, k), (u, -k)]
    return tuple(FreeGroupRingElement(alpha, tuple(t)) for t in terms)


CORRUPTIONS = {"sign flipped": False, "term dropped": False, "term moved": False,
               "term duplicated": False, "coefficient doubled": False,
               "cancelling pair added": True, "cancelling +-2 pair added": True}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@settings(max_examples=60)
@given(w=st.sampled_from([XY, XYZ]).flatmap(lambda a: words(a, 12, max_exponent=7))
       .filter(lambda w: not w.is_identity()),
       pick=st.integers(0, 10 ** 6))
def test_corrupted_coordinates_get_the_ring_route_verdict(kind, w, pick):
    coords = _corrupted(fox_coordinates(w), kind, pick)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magnus, "fox_coordinates", lambda _: coords)
        assert fox_identity_holds(w) is fox_identity_by_ring(w) is CORRUPTIONS[kind]


def test_coordinates_over_another_alphabet_raise_ring_error(monkeypatch):
    w = parse_word("x^2 y^-1 x", XY)
    foreign = fox_coordinates(parse_word("x^2 y^-1 x", XYZ))[:2]
    monkeypatch.setattr(magnus, "fox_coordinates", lambda _: foreign)
    for route in (fox_identity_holds, fox_identity_by_ring):
        with pytest.raises(RingError):
            route(w)


@given(words(max_length=10), words(max_length=10))
def test_fox_product_rule(u, v):
    # d(uv) = d(u)*v + u-part: coordinates satisfy c(uv) = c(u).v + "u
    # acts trivially on c(v)"?  the correct rule: c_i(uv) = c_i(u)*v + c_i(v)
    # with our right-translation convention
    cu, cv, cuv = fox_coordinates(u), fox_coordinates(v), fox_coordinates(u * v)
    for i in range(2):
        assert cuv[i] == times_word(cu[i], v) + cv[i]


def test_finite_ring_arithmetic():
    a = FiniteGroupRingElement.monomial(3, 2, (1, 0))
    b = FiniteGroupRingElement.from_dict(3, 2, {(0, 2): 2})
    assert (a + b) - b == a
    assert a * FiniteGroupRingElement.one(3, 2) == a
    prod = a * b
    assert prod == FiniteGroupRingElement.from_dict(3, 2, {(1, 2): 2})
    with pytest.raises(RingError):
        a + FiniteGroupRingElement.one(5, 2)


def test_phi_element_validates_membership():
    good = magnus_image(parse_word("x y^-1", XY), 4)
    assert good.top == (1, 3)
    with pytest.raises(RingError):
        PhiElement(4, 2, (1, 0), (FiniteGroupRingElement.zero(4, 2),
                                  FiniteGroupRingElement.one(4, 2)))


def test_phi_element_refuses_an_unreduced_group_part():
    x = magnus_image(parse_word("x", XY), 4)
    assert x.top == (1, 0)
    with pytest.raises(RingError, match="not reduced mod 4"):
        PhiElement(4, 2, (5, 0), x.bottom)
    with pytest.raises(RingError, match="not reduced mod 4"):
        PhiElement(4, 2, (-3, 0), x.bottom)


def test_finite_ring_refuses_vectors_of_the_wrong_length():
    with pytest.raises(RingError, match="length 2"):
        FiniteGroupRingElement.from_dict(3, 2, {(0, 1): 1, (1,): 2})
    with pytest.raises(RingError, match="length 2"):
        FiniteGroupRingElement.monomial(3, 2, (1,))
    one = FiniteGroupRingElement.one(3, 2)
    with pytest.raises(RingError, match="length 2"):
        one.translated((1,))
    with pytest.raises(RingError, match="length 2"):
        one.translated((1, 1, 1))


@pytest.mark.parametrize("args", [
    (3, 2, (((5, 0), 7),)),                # vector and coefficient not reduced
    (3, 2, (((2, 0), 3),)),                # zero coefficient mod 3
    (3, 2, (((1, 0), -1),)),               # coefficient below 1
    (3, 2, (((1, 0), 1), ((0, 1), 1))),    # terms out of order
    (3, 2, (((1, 0), 1), ((1, 0), 2))),    # a vector twice
    (3, 2, (((1,), 1),)),                  # vector of the wrong length
    (3, 2, (((1.0, 0), 1),)),              # entry not an int
    (3, 2, (((1, 0), 1.0),)),              # coefficient not an int
    (3, 2, (([1, 0], 1),)),                # vector not a tuple
    (3, 2, (((1, 0), 1, 0),)),             # term not a pair
    (3, 2, [((1, 0), 1)]),                 # terms not a tuple
    (1, 2, ()),                            # modulus below 2
])
def test_finite_ring_constructor_refuses_terms_outside_the_normal_form(args):
    with pytest.raises(RingError, match="not in normal form"):
        FiniteGroupRingElement(*args)


def test_finite_ring_constructor_accepts_the_normal_form():
    e = FiniteGroupRingElement.from_dict(3, 2, {(5, 0): 7, (-1, 4): 2, (0, 0): 3})
    assert e.terms == (((2, 0), 1), ((2, 1), 2))
    assert FiniteGroupRingElement(3, 2, e.terms) == e
    assert FiniteGroupRingElement(3, 2, ()) == FiniteGroupRingElement.zero(3, 2)


def test_finite_ring_operators_skip_the_constructor_checks(monkeypatch):
    a = FiniteGroupRingElement.from_dict(3, 2, {(1, 0): 1, (0, 2): 2})
    b = FiniteGroupRingElement.from_dict(3, 2, {(1, 0): 2, (1, 1): 1})
    calls = []
    monkeypatch.setattr(FiniteGroupRingElement, "__post_init__", lambda self: calls.append(self))
    results = [a + b, -a, a - b, a * b, a.translated((2, 1)),
               FiniteGroupRingElement.from_dict(3, 2, {(4, 4): 5}),
               FiniteGroupRingElement.zero(3, 2), FiniteGroupRingElement.one(3, 2),
               FiniteGroupRingElement.monomial(3, 2, (1, 2))]
    assert calls == []
    monkeypatch.undo()
    for e in results:  # and each result would pass them
        assert FiniteGroupRingElement(e.modulus, e.rank, e.terms) == e


@pytest.mark.parametrize("key", [((5, 1),), ((0, 1), (0, 1)), ((1, 0),), ((-1, 2),),
                                 ((0.5, 1),)])
def test_free_ring_refuses_a_key_that_is_not_a_reduced_word(key):
    with pytest.raises(WordError):
        FreeGroupRingElement.from_dict(XY, {key: 1})
    with pytest.raises(WordError):
        FreeGroupRingElement.from_dict(XY, {((0, 1),): 1, key: 2})


FINITE_RINGS = [(2, 2), (2, 3), (3, 2), (3, 4)]  # (n, m)


def in_normal_form(e) -> bool:
    """Vectors of length n with entries in 0..m-1, coefficients in
    1..m-1, terms strictly increasing by vector."""
    m, n = e.modulus, e.rank
    vecs = [v for v, _ in e.terms]
    return (all(type(v) is tuple and len(v) == n and all(0 <= x < m for x in v) for v in vecs)
            and all(0 < c < m for _, c in e.terms)
            and all(a < b for a, b in zip(vecs, vecs[1:])))


def finite_elements(n, m):
    """(element, dense reference): from_dict of unreduced vectors and
    coefficients, and the same terms summed in the dense ring."""
    vector = st.lists(st.integers(-2 * m, 2 * m), min_size=n, max_size=n).map(tuple)
    terms = st.lists(st.tuples(vector, st.integers(-2 * m, 2 * m)), max_size=6)
    return terms.map(lambda ts: (FiniteGroupRingElement.from_dict(m, n, dict(ts)),
                                 finite_ring.DenseElement.from_terms(m, n, dict(ts).items())))


def finite_ring_cases():
    def case(nm):
        n, m = nm
        vector = st.lists(st.integers(-2 * m, 2 * m), min_size=n, max_size=n)
        return st.tuples(st.just(nm), finite_elements(n, m), finite_elements(n, m), vector)
    return st.sampled_from(FINITE_RINGS).flatmap(case)


@given(finite_ring_cases())
@settings(max_examples=200)
def test_finite_ring_matches_the_dense_ring(case):
    (n, m), (a, da), (b, db), vec = case
    results = {"a": (a, da), "+": (a + b, da + db), "-a": (-a, -da), "-": (a - b, da - db),
               "*": (a * b, da * db), "translated": (a.translated(vec), da.translated(vec))}
    for op, (got, want) in results.items():
        assert in_normal_form(got), op
        assert (got.modulus, got.rank) == (m, n), op
        assert finite_ring.as_dense(got) == want, op


@given(st.sampled_from(FINITE_RINGS).flatmap(lambda nm: st.tuples(
    st.just(nm), *[words({2: XY, 3: XYZ}[nm[0]], 10)] * 2)))
@settings(max_examples=100)
def test_magnus_products_match_the_dense_ring(case):
    (n, m), u, v = case
    prod = magnus_image(u, m) * magnus_image(v, m)
    top, bottom = finite_ring.magnus_image(u * v, m)
    assert prod.top == top
    assert all(in_normal_form(b) for b in prod.bottom)
    assert tuple(map(finite_ring.as_dense, prod.bottom)) == bottom


@given(words(max_length=12), words(max_length=12))
@settings(max_examples=300)
def test_magnus_homomorphism(u, v):
    for m in (2, 3):
        assert magnus_image(u * v, m) == magnus_image(u, m) * magnus_image(v, m)


@given(words(max_length=12))
def test_magnus_inverse(w):
    img, inv = magnus_image(w, 3), magnus_image(w.inverse(), 3)
    identity = magnus_image(XY.identity(), 3)
    assert img * inv == identity == inv * img


def test_fox_injectivity_short_words():
    # exhaustive over reduced words of length <= 5 in rank 2
    seen = {}
    stack = [XY.identity()]
    while stack:
        w = stack.pop()
        key = tuple(c.terms for c in fox_coordinates(w))
        assert seen.setdefault(key, w) == w
        if w.length() < 5:
            for gen in range(2):
                for sign in (1, -1):
                    nxt = w * XY.generator(gen, sign)
                    if nxt.length() > w.length():
                        stack.append(nxt)


def ring_elements(alpha=XY, max_terms=5):
    """(element, reference): one sum of monomials in both rings."""
    term = st.tuples(words(alpha, 5, max_exponent=3), st.integers(-3, 3))

    def build(terms):
        e, ref = FreeGroupRingElement.from_dict(alpha, {}), word_ring.WordRingElement.zero(alpha)
        for w, c in terms:
            e = e + FreeGroupRingElement.from_dict(alpha, {w.syllables: c})
            ref = ref + word_ring.WordRingElement.monomial(w, c)
        return e, ref

    return st.lists(term, max_size=max_terms).map(build)


def endomorphisms(alpha=XY, max_length=5):
    images = st.lists(words(alpha, max_length, max_exponent=2),
                      min_size=alpha.rank, max_size=alpha.rank)
    return images.map(lambda imgs: hom(alpha, *map(str, imgs)))


@given(st.sampled_from([XY, XYZ]).flatmap(lambda a: st.tuples(ring_elements(a),
                                                               ring_elements(a))))
def test_ring_matches_the_word_ring(pair):
    (a, ra), (b, rb) = pair
    assert word_ring.as_word_ring(a) == ra and word_ring.as_word_ring(b) == rb
    assert word_ring.as_word_ring(a + b) == ra + rb
    assert word_ring.as_word_ring(a * b) == ra * rb
    assert (not (a * b).terms) is (ra * rb).is_zero()


@given(st.sampled_from([XY, XYZ]).flatmap(lambda a: words(a, 12, max_exponent=6)))
def test_fox_coordinates_match_the_word_ring_recursion(w):
    assert (tuple(map(word_ring.as_word_ring, fox_coordinates(w)))
            == word_ring.fox_by_recursion(w))


@given(endomorphisms(), ring_elements())
def test_endo_on_ring_matches_the_word_ring(h, pair):
    e, ref = pair
    assert word_ring.as_word_ring(magnus.endo_on_ring(h, e)) == word_ring.endo_on_ring(h, ref)


def test_endo_on_ring_refuses_a_hom_that_is_not_an_endomorphism():
    # y -> v^2 into F(u, v, w) must not come back as y^2 over (x, y)
    uvw = alphabet("u", "v", "w")
    h = FreeHom(XY, uvw, (parse_word("u", uvw), parse_word("v^2", uvw)))
    e = FreeGroupRingElement.from_dict(XY, {parse_word("y", XY).syllables: 1})
    with pytest.raises(WordError, match="needs an endomorphism"):
        magnus.endo_on_ring(h, e)
    with pytest.raises(WordError, match="needs an endomorphism"):
        j_composition_identity(h, hom(XY, "x y", "y"))


def twisted(f, mat):
    """f applied to each entry of a matrix over Z[F_n]."""
    return [[magnus.endo_on_ring(f, e) for e in row] for row in mat]


@settings(max_examples=40)
@given(endomorphisms(), endomorphisms())
def test_j_composition_matches_the_word_ring(f, g):
    lhs = j_of_endo(compose(f, g))
    rhs = mat_mul(j_of_endo(f), twisted(f, j_of_endo(g)))
    ref_lhs, ref_rhs = word_ring.j_composition_sides(f, g)
    as_ref = lambda mat: [[word_ring.as_word_ring(e) for e in row] for row in mat]
    assert as_ref(lhs) == ref_lhs and as_ref(rhs) == ref_rhs
    assert j_composition_identity(f, g) is (ref_lhs == ref_rhs) is True


def test_fox_checks_build_no_word_per_term(monkeypatch):
    """``fox_identity_holds`` and the injectivity key read the Fox terms
    as syllable tuples: ``Word._trusted`` is never called, where applying
    an endomorphism to the coordinates makes two words per term, the term
    and its image."""
    rng = random.Random(5)
    ws = [random_word(rng, a, 30) for a in (XY, XYZ) for _ in range(20)]
    identity = hom(ws[0].alphabet, *ws[0].alphabet.names)
    calls = []
    trusted = Word._trusted

    def counting_trusted(alpha, syllables):
        calls.append(None)
        return trusted(alpha, syllables)

    monkeypatch.setattr(Word, "_trusted", staticmethod(counting_trusted))
    assert all(fox_identity_holds(w) for w in ws)
    keys = {tuple(c.terms for c in fox_coordinates(w)) for w in ws}
    assert calls == []
    assert len(keys) == len(set(ws))
    coords = fox_coordinates(ws[0])
    for c in coords:
        magnus.endo_on_ring(identity, c)
    assert len(calls) == 2 * sum(len(c.terms) for c in coords) > 0


def test_j_of_identity():
    one = FreeGroupRingElement.from_dict(XY, {(): 1})
    zero = FreeGroupRingElement.from_dict(XY, {})
    assert j_of_endo(hom(XY, "x", "y")) == [[one, zero], [zero, one]]


def test_j_composition_golden_pair():
    f = hom(XY, "x", "y x^2")
    g = hom(XY, "x y^2", "y")
    assert j_composition_identity(f, g)
    assert j_composition_identity(g, f)


def random_endomorphism_pairs():
    rng = random.Random(21)
    for _ in range(40):
        f = hom(XY, str(random_word(rng, XY, 5)), str(random_word(rng, XY, 5)))
        g = hom(XY, str(random_word(rng, XY, 5)), str(random_word(rng, XY, 5)))
        yield f, g


def test_j_composition_random():
    for f, g in random_endomorphism_pairs():
        assert j_composition_identity(f, g)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_j_composition_pushed_to_the_finite_ring(m):
    # both sides of the free chain rule pushed to Z_m[(Z/m)^n], the
    # right side multiplied there
    def push(mat):
        return [[push_to_finite(e, m) for e in row] for row in mat]

    for f, g in random_endomorphism_pairs():
        lhs = push(j_of_endo(compose(f, g)))
        assert lhs == mat_mul(push(j_of_endo(f)), push(twisted(f, j_of_endo(g))))
        assert lhs == j_of_endo(compose(f, g), m)


def test_acts_trivially_mod():
    # the transvections abelianize to I + 2 E_ij, the inversion to diag(-1, 1)
    for aut in (transvection_alpha(), transvection_beta()):
        for h in (aut.forward, aut.backward):
            assert acts_trivially_mod(h, 2)
            assert not acts_trivially_mod(h, 3)
            assert not acts_trivially_mod(h, 4)
    inversion = nielsen_inversion(XY, 0).forward
    assert acts_trivially_mod(inversion, 2)
    assert not acts_trivially_mod(inversion, 3)
    with pytest.raises(WordError, match="needs an endomorphism"):
        acts_trivially_mod(FreeHom(XY, XYZ, (parse_word("x", XYZ), parse_word("z", XYZ))), 2)


def test_ka_check_passes_mod2():
    auts = [transvection_alpha(), transvection_beta(),
            transvection_alpha().inverse(), transvection_beta().inverse()]
    res = ka_check(auts, 2, pairs=30, rng=random.Random(0))
    assert res["passed"], res["failures"]
    assert res["pairs_checked"] == 30


def test_ka_check_rejects_nontrivial_aut():
    res = ka_check([nielsen_inversion(XY, 0)], 3, pairs=5, rng=random.Random(0))
    assert not res["passed"]


def test_ka_check_refuses_no_automorphisms():
    with pytest.raises(ValueError, match="at least one automorphism"):
        ka_check([], 2, pairs=1, rng=random.Random(0))


@pytest.mark.parametrize("pairs", [0, -3])
def test_ka_check_refuses_no_pairs(pairs):
    with pytest.raises(ValueError, match="at least one pair"):
        ka_check([transvection_alpha()], 2, pairs=pairs, rng=random.Random(0))


@pytest.mark.parametrize("m", [1, 0, -2])
def test_ka_check_refuses_a_modulus_below_two(m):
    with pytest.raises(ValueError, match="modulus m >= 2"):
        ka_check([transvection_alpha()], m, pairs=1, rng=random.Random(0))


@pytest.mark.parametrize("samples", [0, -5])
def test_local_commutator_refuses_no_samples(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        local_commutator_check(3, 2, 1, 1, samples=samples, rng=random.Random(0))


@pytest.mark.parametrize("powers", [(3, 1), (1, 3), (-1, 1), (1, -1)])
def test_local_commutator_refuses_an_ideal_power_outside_0_to_k(powers):
    with pytest.raises(ValueError, match="1 <= s_power, t_power <= k"):
        local_commutator_check(3, 2, *powers, samples=10, rng=random.Random(0))


@pytest.mark.parametrize("powers", [(0, 1), (1, 0), (0, 0)])
def test_local_commutator_refuses_an_ideal_power_of_zero(powers):
    # S or T = R puts I+A or I+B in I + ST, so the check would be vacuous
    with pytest.raises(ValueError, match="1 <= s_power, t_power <= k"):
        local_commutator_check(3, 3, *powers, samples=10, rng=random.Random(0))


@pytest.mark.parametrize("p", [1, 4, 9, 0, -3, 2 ** 41 + 1])
def test_local_commutator_refuses_a_p_that_is_not_a_prime_up_to_the_cap(p):
    with pytest.raises(ValueError, match="needs a prime p"):
        local_commutator_check(p, 2, 1, 1, samples=10, rng=random.Random(0))


def test_local_commutator_refuses_k_below_one():
    with pytest.raises(ValueError, match="k >= 1"):
        local_commutator_check(3, 0, 0, 0, samples=10, rng=random.Random(0))


def test_local_commutator_mod9_and_mod8():
    assert local_commutator_check(3, 2, 1, 1, samples=100, rng=random.Random(0))["passed"]
    assert local_commutator_check(2, 3, 1, 2, samples=100, rng=random.Random(0))["passed"]


def test_local_commutator_reporting():
    res = local_commutator_check(3, 2, 1, 1, samples=100, rng=random.Random(0))
    assert res["samples"] == 100 and res["failures"] == 0
    assert res["modulus"] == 9 and res["ideal_product"] == 9


def test_mat_mul_over_group_ring():
    one = FreeGroupRingElement.from_dict(XY, {(): 1})
    x = FreeGroupRingElement.from_dict(XY, {((0, 1),): 1})
    prod = mat_mul([[one, x]], [[x], [one]])
    assert prod == [[x + x]]


def test_mat_mul_matches_dot_products_over_the_group_ring():
    # the former magnus.mat_mul, entry by entry through its _dot helper
    def dot(row, col):
        total = row[0] * col[0]
        for a, b in zip(row[1:], col[1:]):
            total = total + a * b
        return total

    rng = random.Random(31)
    for _ in range(30):
        a, b = ([[FreeGroupRingElement.from_dict(XY, {random_word(rng, XY, 4).syllables:
                                                      rng.randint(-2, 2)})
                  for _ in range(2)] for _ in range(2)] for _ in range(2))
        assert mat_mul(a, b) == [[dot(a[i], [b[0][j], b[1][j]]) for j in range(2)]
                                 for i in range(2)]


def mod_mat_inv3(a, mod):
    """Reference: the inverse of a 3x3 matrix over Z/mod via the
    adjugate; None unless the determinant is a unit."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    det = (a11 * (a22 * a33 - a23 * a32)
           - a12 * (a21 * a33 - a23 * a31)
           + a13 * (a21 * a32 - a22 * a31)) % mod
    try:
        det_inv = pow(det, -1, mod)
    except ValueError:
        return None
    cof = [
        [a22 * a33 - a23 * a32, a13 * a32 - a12 * a33, a12 * a23 - a13 * a22],
        [a23 * a31 - a21 * a33, a11 * a33 - a13 * a31, a13 * a21 - a11 * a23],
        [a21 * a32 - a22 * a31, a12 * a31 - a11 * a32, a11 * a22 - a12 * a21],
    ]
    return [[(det_inv * v) % mod for v in row] for row in cof]


@st.composite
def unipotent_cases(draw):
    """(p, k, s, A): A a 3x3 matrix over the ideal (p^s) of Z/p^k,
    entries in [0, p^k), for 1 <= s <= k."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 4))
    s = draw(st.integers(1, k))
    entry = st.integers(0, p ** (k - s) - 1).map(lambda r: p ** s * r)
    return p, k, s, [[draw(entry) for _ in range(3)] for _ in range(3)]


@settings(max_examples=300)
@given(unipotent_cases())
def test_series_inverse_matches_the_adjugate(case):
    p, k, s, a = case
    q = p ** k
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    unit = [[int(i == j) + v for j, v in enumerate(row)] for i, row in enumerate(a)]
    inv = magnus._series_inverse(a, s, k, q)
    assert [[v % q for v in row] for row in mat_mul(unit, inv)] == ident
    assert inv == mod_mat_inv3(unit, q)


def local_commutator_mod_reduced(p, k, s_power, t_power, samples, rng):
    """The former check, every product reduced mod p^k."""
    def mod_mat_mul(a, b, mod):
        return [[sum(a[i][t] * b[t][j] for t in range(3)) % mod for j in range(3)]
                for i in range(3)]

    mod = p ** k
    st_ = p ** min(s_power + t_power, k)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    failures = tested = 0
    while tested < samples:
        a = [[(p ** s_power) * rng.randrange(p ** (k - s_power)) % mod
              for _ in range(3)] for _ in range(3)]
        b = [[(p ** t_power) * rng.randrange(p ** (k - t_power)) % mod
              for _ in range(3)] for _ in range(3)]
        ia = [[(ident[i][j] + a[i][j]) % mod for j in range(3)] for i in range(3)]
        ib = [[(ident[i][j] + b[i][j]) % mod for j in range(3)] for i in range(3)]
        ia_inv, ib_inv = mod_mat_inv3(ia, mod), mod_mat_inv3(ib, mod)
        if ia_inv is None or ib_inv is None:
            continue
        comm = mod_mat_mul(mod_mat_mul(ia, ib, mod), mod_mat_mul(ia_inv, ib_inv, mod), mod)
        tested += 1
        if not all((comm[i][j] - ident[i][j]) % st_ == 0 for i in range(3) for j in range(3)):
            failures += 1
    return {"passed": failures == 0, "samples": tested, "failures": failures,
            "modulus": mod, "ideal_product": st_}


@pytest.mark.parametrize("case", [(3, 2, 1, 1), (2, 3, 1, 2), (5, 3, 1, 1), (2, 4, 1, 1)])
def test_local_commutator_matches_the_mod_reduced_check(case):
    for seed in range(3):
        ours = local_commutator_check(*case, samples=60, rng=random.Random(seed))
        old = local_commutator_mod_reduced(*case, samples=60, rng=random.Random(seed))
        assert ours == old
