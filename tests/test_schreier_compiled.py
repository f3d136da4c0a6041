"""The compiled coset-table BFS against the letter-by-letter reference.

``reference_system`` is the construction the compiled one replaced: a
BFS over hashable states that steps every action one letter at a time,
builds every transversal word and Schreier-generator word up front and
keeps the coset table as a dict.  The actions here step on the
permutations themselves, so nothing of the compiled tables is shared.
``generator_exponent_sums`` is the per-generator exponent vector list
that the streamed classes mod m replaced, ``generator_exponent_classes``
those streamed classes, which ``congruence.certify`` read in full before
its scan stopped at the proven image order, and ``memoised_words`` the
transversal-word cache that words read off the tree replaced.  The
compiled system keeps its off-tree edges as two flat arrays and numbers
its generators without storing names; ``assert_same_system`` compares
them with the (coset, generator) list and the names tuple built from
the reference.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fgcert.congruence import CongruenceInput, MOracle, NOracle
from fgcert.quotients import (
    ALPHA_BETA,
    FiniteQuotient,
    SchreierError,
    SubgroupHom,
    abelian_quotient,
    build_schreier_system,
    induced_quotient,
    kernel_subgroup,
    rank2_outer_hom,
    rank3_c2_kernel,
)
from fgcert.words import Alphabet, Word, alphabet, random_word
from word_letters import letters

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")


def edges(system) -> list[tuple[int, int]]:
    """(source coset, generator) of each Schreier generator's edge."""
    return list(zip(system.edge_coset, system.edge_gen))


def generator_exponent_sums(system) -> list[tuple[int, ...]]:
    """Exponent vector of each Schreier generator t_c x t_c'^-1, read
    off the tree as the vector of t_c plus e_x minus that of t_c'."""
    rank = system.alphabet.rank
    vectors = [(0,) * rank]
    for c in range(1, system.index):  # a parent precedes its children
        gen, negative = divmod(system.parent_letter[c], 2)
        v = list(vectors[system.parent[c]])
        v[gen] += -1 if negative else 1
        vectors.append(tuple(v))
    out = []
    for c, gen in edges(system):
        v = [a - b for a, b in zip(vectors[c], vectors[system.table[2 * gen][c]])]
        v[gen] += 1
        out.append(tuple(v))
    return out


def generator_exponent_classes(system, modulus: int) -> set[tuple[int, ...]]:
    """The exponent vectors of the Schreier generators mod ``modulus``,
    as a set, streamed off the tree: the route ``congruence.certify``
    used before it stopped the scan at the proven image order.

    One pass down the tree reads each coset's vector mod ``modulus``,
    packed into one int with coordinate g as digit g in base
    ``modulus``; a letter's move is computed once per packed vector it
    meets and kept in one dict per letter, so no table of all
    modulus^rank vectors is built."""
    m = modulus
    weights = [m ** g for g in range(system.alphabet.rank)]

    def move(l: int, v: int) -> int:
        """Packed vector v after letter l, which moves digit l // 2 by +-1 mod m."""
        w = weights[l >> 1]
        digit = v // w % m
        return v + ((digit - 1 if l & 1 else digit + 1) % m - digit) * w

    moved: list[dict[int, int]] = [{} for _ in range(2 * len(weights))]
    packed = [0] * system.index
    for c in range(1, system.index):  # a parent precedes its children
        l, v = system.parent_letter[c], packed[system.parent[c]]
        if v not in moved[l]:
            moved[l][v] = move(l, v)
        packed[c] = moved[l][v]
    ends = {(packed[c], gen, packed[system.table[2 * gen][c]]) for c, gen in edges(system)}
    return {tuple((a // w - b // w) % m for w in weights)
            for a, b in {(move(2 * gen, v), b) for v, gen, b in ends}}


def memoised_words(system) -> tuple[list[Word], list[Word]]:
    """Transversal and generator words built through a cache of
    transversal words: each new coset extends its parent's cached word
    by one letter, and generator i is t_c x t_c'^-1 by word products."""
    alpha = system.alphabet
    words = [alpha.identity()] + [None] * (system.index - 1)

    def transversal_word(c):
        path = []
        while words[c] is None:
            path.append(c)
            c = system.parent[c]
        syllables = words[c].syllables
        for c in reversed(path):
            gen, negative = divmod(system.parent_letter[c], 2)
            sign = -1 if negative else 1
            # a tree path is reduced: t_c x^-1 x would be t_c, not a new coset
            if syllables and syllables[-1][0] == gen:
                syllables = syllables[:-1] + ((gen, syllables[-1][1] + sign),)
            else:
                syllables = syllables + ((gen, sign),)
            words[c] = Word(alpha, syllables)
        return words[c]

    generators = [transversal_word(c) * alpha.generator(gen)
                  * transversal_word(system.table[2 * gen][c]).inverse()
                  for c, gen in edges(system)]
    return [transversal_word(c) for c in range(system.index)], generators


class RefQuotient:
    def __init__(self, q):
        self.q = q

    def base(self):
        return self.q.base_point

    def step(self, pt, gen, sign):
        perm = self.q.perms[gen]
        return perm[pt] if sign > 0 else perm.index(pt)

    def act_word(self, pt, w):
        for gen, sign in letters(w):
            pt = self.step(pt, gen, sign)
        return pt


class RefInduced:
    """States (target point, coset); a letter pushes the Schreier letter
    it sweeps out through the images into the target quotient."""

    def __init__(self, system, images, target, base_shift=None):
        self.system, self.images, self.target = system, images, RefQuotient(target)
        self._base = (target.base_point, 0)
        if base_shift is not None:
            for gen, sign in letters(base_shift):
                self._base = self.step(self._base, gen, sign)

    def base(self):
        return self._base

    def step(self, state, gen, sign):
        pt, coset = state
        coset2, idx, s = self.system.scan_letter(coset, gen, sign)
        if idx is not None:
            img = self.images[idx]
            pt = self.target.act_word(pt, img if s > 0 else img.inverse())
        return (pt, coset2)


class RefProduct:
    def __init__(self, actions):
        self.actions = actions

    def base(self):
        return tuple(a.base() for a in self.actions)

    def step(self, state, gen, sign):
        return tuple(a.step(s, gen, sign) for a, s in zip(self.actions, state))


class RefSystem:
    def __init__(self, alpha, transversal, table, generators, scan):
        self.alphabet, self.transversal, self.table = alpha, transversal, table
        self.generators, self.scan = generators, scan
        self.index = len(transversal)

    def scan_letter(self, coset, gen, sign):
        if sign > 0:
            return self.table[(coset, gen, 1)], self.scan[(coset, gen)], 1
        nxt = self.table[(coset, gen, -1)]
        return nxt, self.scan[(nxt, gen)], -1

    def rewrite(self, w):
        """(index, sign) letters, or None outside the subgroup."""
        coset, swept = 0, []
        for gen, sign in letters(w):
            coset, idx, s = self.scan_letter(coset, gen, sign)
            if idx is not None:
                swept.append((idx, s))
        return swept if coset == 0 else None


def reference_system(action, alpha, max_cosets=100_000):
    base = action.base()
    state_index = {base: 0}
    transversal = [alpha.identity()]
    table = {}
    queue = [base]
    for state in queue:
        c = state_index[state]
        for gen in range(alpha.rank):
            for sign in (1, -1):
                nxt = action.step(state, gen, sign)
                if nxt not in state_index:
                    if len(state_index) >= max_cosets:
                        raise SchreierError(
                            f"coset limit exceeded ({max_cosets}); input too large")
                    state_index[nxt] = len(transversal)
                    transversal.append(transversal[c] * alpha.generator(gen, sign))
                    queue.append(nxt)
                table[(c, gen, sign)] = state_index[nxt]
    generators, scan = [], {}
    for c in range(len(transversal)):
        for gen in range(alpha.rank):
            c2 = table[(c, gen, 1)]
            w = transversal[c] * alpha.generator(gen) * transversal[c2].inverse()
            if w.is_identity():
                scan[(c, gen)] = None
            else:
                scan[(c, gen)] = len(generators)
                generators.append(w)
    return RefSystem(alpha, transversal, table, generators, scan)


def assert_same_system(system, ref, words=()):
    """Index, table, transversal, edges, names, generators, scan and
    rewriting agree."""
    rank = system.alphabet.rank
    assert system.index == ref.index
    ref_edges = sorted((i, key) for key, i in ref.scan.items() if i is not None)
    assert edges(system) == [key for _, key in ref_edges]
    names = tuple(f"e{i + 1}" for i in range(len(ref.generators)))
    explicit = Alphabet(names)
    assert system.sub_alphabet == explicit and explicit == system.sub_alphabet
    assert hash(system.sub_alphabet) == hash(explicit)
    assert tuple(system.sub_alphabet.names) == names
    assert system.sub_alphabet.rank == len(names)
    assert [system.sub_alphabet.index(name) for name in names] == list(range(len(names)))
    assert {(c, l // 2, -1 if l % 2 else 1): system.table[l][c]
            for l in range(2 * rank) for c in range(system.index)} == ref.table
    assert [str(t) for t in system.transversal] == [str(t) for t in ref.transversal]
    assert [str(g) for g in system.generators] == [str(g) for g in ref.generators]
    assert {(c, gen): (None if system.scan[gen][c] < 0 else system.scan[gen][c])
            for gen in range(rank) for c in range(system.index)} == ref.scan
    memo_transversal, memo_generators = memoised_words(system)
    assert list(system.transversal) == memo_transversal
    assert list(system.generators) == memo_generators
    sums = generator_exponent_sums(system)
    assert sums == [g.exponent_sums() for g in ref.generators]
    for m in (2, 3, 4):
        assert generator_exponent_classes(system, m) == {tuple(s % m for s in v) for v in sums}
    for w in list(words) + list(ref.generators):
        want = ref.rewrite(w)
        if want is None:
            with pytest.raises(SchreierError):
                system.rewrite(w)
        else:
            assert system.rewrite(w) == Word.from_syllables(system.sub_alphabet, want)


@st.composite
def quotients(draw, alphabets=(XY, XYZ)):
    alpha = draw(st.sampled_from(alphabets))
    size = draw(st.integers(1, 12))
    perms = tuple(tuple(draw(st.permutations(range(size)))) for _ in range(alpha.rank))
    return FiniteQuotient(alpha, size, perms, draw(st.integers(0, size - 1)))


@settings(max_examples=150, deadline=None)
@given(quotients(), st.integers(0, 2 ** 32))
def test_compiled_bfs_matches_reference(q, seed):
    rng = random.Random(seed)
    words = [random_word(rng, q.alphabet, 12) for _ in range(20)]
    assert_same_system(kernel_subgroup(q), reference_system(RefQuotient(q), q.alphabet), words)


def test_rank3_c2_kernel_matches_reordered_reference():
    q = FiniteQuotient(XYZ, 2, ((1, 0), (0, 1), (0, 1)))
    ref = reference_system(RefQuotient(q), XYZ)
    perm = [2, 0, 3, 1, 4]  # BFS order y, z, x^2, xyx^-1, xzx^-1 -> x^2, y, xyx^-1, z, xzx^-1
    ref.generators = [ref.generators[p] for p in perm]
    ref.scan = {k: (None if v is None else perm.index(v)) for k, v in ref.scan.items()}
    rng = random.Random(9)
    words = [random_word(rng, XYZ, 10) for _ in range(200)]
    assert_same_system(rank3_c2_kernel(), ref, words)


def seeded_k(n: int, seed: int) -> FiniteQuotient:
    """A K of index n whose permutations generate all of S_n."""
    rng = random.Random(f"{seed}:{n}")
    order = 1
    for i in range(2, n + 1):
        order *= i
    while True:
        perms = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            g = frontier.pop()
            for p in perms:
                h = tuple(p[g[i]] for i in range(n))
                if h not in group:
                    group.add(h)
                    frontier.append(h)
        if len(group) == order:
            return FiniteQuotient(ALPHA_BETA, n, perms)


def reference_n(k: FiniteQuotient, max_cosets=100_000) -> RefSystem:
    """N built as before: letter-stepped actions over a reference delta."""
    delta = reference_system(RefQuotient(abelian_quotient(XY, (2, 2))), XY)
    images = rank2_outer_hom().images
    conjugated = [RefInduced(delta, images, k, base_shift=t) for t in delta.transversal]
    product = RefProduct([RefQuotient(abelian_quotient(XY, (6, 6)))] + conjugated)
    return reference_system(product, XY, max_cosets)


# [F:N] is 36 n^4 when K's permutations generate S_n and n != 2; at
# n = 2 the four conjugates of the preimage of K meet in index 72.
@pytest.mark.parametrize("n, index", [(1, 36), (2, 72), (3, 36 * 3 ** 4)])
def test_noracle_matches_reference(n, index):
    k = seeded_k(n, 2026)
    oracle = NOracle(CongruenceInput(k, 5))
    assert oracle.index == index
    rng = random.Random(n)
    words = [random_word(rng, XY, 12) for _ in range(200)]
    assert_same_system(oracle.schreier, reference_n(k), words)
    schreier = oracle.schreier
    for w in list(schreier.generators) + words:
        assert oracle.contains(w) == schreier.contains(w)


def image_classes(vectors, p):
    return {(p * x % 4, p * y % 4) for x, y in vectors}


@settings(max_examples=150, deadline=None)
@given(quotients((XY,)), st.sampled_from([5, 7, 11, 13]))
def test_streamed_classes_match_the_vectors(q, p):
    system = kernel_subgroup(q)
    assert (image_classes(generator_exponent_classes(system, 4), p)
            == image_classes(generator_exponent_sums(system), p))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_streamed_classes_of_n_match_the_vectors(n):
    schreier = NOracle(CongruenceInput(seeded_k(n, 2026), 5)).schreier
    vectors = generator_exponent_sums(schreier)
    for p in (5, 7, 11):
        assert image_classes(generator_exponent_classes(schreier, 4), p) == image_classes(vectors, p)


def m_contains_by_list(m_oracle, w) -> bool:
    """M membership through one exponent-sum entry per generator of N."""
    if any(s % 4 for s in w.exponent_sums()):
        return False
    coset, letters = m_oracle.n_oracle.schreier.sweep(w)
    if coset != 0:
        return False
    vec = [0] * m_oracle.n_oracle.rank
    for idx, sign in letters:
        vec[idx] += sign
    return all(v % m_oracle.p == 0 for v in vec)


def test_m_membership_matches_rewrite_definition():
    oracle = NOracle(CongruenceInput(seeded_k(3, 2026), 5))
    m_oracle = MOracle(oracle)
    schreier, sub = oracle.schreier, oracle.schreier.sub_alphabet
    rng = random.Random(12)
    inside = 0
    for i in range(100):
        u = random_word(rng, sub, 4)
        if i % 2:  # exponent sums 0 mod 5 over letters of both signs
            for gen, s in enumerate(u.exponent_sums()):
                u = u * sub.generator(gen, -s % 5)
        w = schreier.expand(u) ** (4 if i % 3 else 1)
        want = (all(s % 4 == 0 for s in w.exponent_sums())
                and schreier.contains(w)
                and all(v % 5 == 0 for v in schreier.rewrite(w).exponent_sums()))
        assert m_oracle.contains(w) == want == m_contains_by_list(m_oracle, w)
        inside += want
    assert 0 < inside < 100
    assert not m_oracle.contains(XY.generator(0, 4))
    # one swept generator's sum divisible by p and the next one's not
    for _ in range(20):
        a, b = rng.sample(range(sub.rank), 2)
        for e in (1, 5):
            w = schreier.expand(sub.generator(a, 5) * sub.generator(b, e)) ** 4
            assert m_oracle.contains(w) == m_contains_by_list(m_oracle, w) == (e == 5)


def test_induced_action_matches_reference():
    """A preimage through a hom on a kernel whose letters and their
    inverses move the cosets differently."""
    rng = random.Random(14)
    q = abelian_quotient(XY, (3, 2))
    system, ref = kernel_subgroup(q), reference_system(RefQuotient(q), XY)
    for trial in range(5):
        images = tuple(random_word(rng, ALPHA_BETA, 3) for _ in system.generators)
        k, shift = seeded_k(3, trial), random_word(rng, XY, 5)
        compiled = build_schreier_system(
            induced_quotient(SubgroupHom(system, ALPHA_BETA, images), k, base_shift=shift))
        words = [random_word(rng, XY, 12) for _ in range(50)]
        assert_same_system(compiled, reference_system(RefInduced(ref, images, k, shift), XY),
                           words)


def test_coset_cap_on_product_action():
    k = seeded_k(2, 2026)
    NOracle(CongruenceInput(k, 5), max_cosets=72)
    for build in (lambda: NOracle(CongruenceInput(k, 5), max_cosets=71),
                  lambda: reference_n(k, max_cosets=71)):
        with pytest.raises(SchreierError, match=r"coset limit exceeded \(71\); input too large"):
            build()


def test_bad_build_arguments_are_rejected():
    with pytest.raises(SchreierError):
        build_schreier_system(abelian_quotient(XYZ, (2, 2, 2)), abelian_quotient(XY, (2, 2)))


def test_build_needs_quotients_over_one_alphabet():
    with pytest.raises(SchreierError, match="at least one finite quotient required"):
        build_schreier_system()
    with pytest.raises(SchreierError, match="quotients over different alphabets"):
        build_schreier_system(abelian_quotient(XY, (2, 2)), abelian_quotient(XYZ, (2, 2, 2)))


def test_induced_quotient_is_a_finite_quotient():
    pi = rank2_outer_hom()
    with pytest.raises(SchreierError, match="target quotient over wrong alphabet"):
        induced_quotient(pi, abelian_quotient(XY, (2, 2)))
    k = seeded_k(3, 2026)
    q = induced_quotient(pi, k, base_shift=pi.system.transversal[3])
    assert isinstance(q, FiniteQuotient)
    assert (q.alphabet, q.size) == (XY, 4 * k.size)
    assert FiniteQuotient.from_json(json.loads(json.dumps(q.to_json()))) == q


@settings(max_examples=100, deadline=None)
@given(quotients(), st.integers(0, 2 ** 32))
def test_rewrite_matches_checked_words(q, seed):
    """Rewriting skips the syllable checks; the checked constructor
    builds the same word from the swept letters."""
    system = kernel_subgroup(q)
    sub = system.sub_alphabet
    rng = random.Random(seed)
    for _ in range(20):
        w = random_word(rng, q.alphabet, 12)
        member = w * system.transversal[system.coset_of(w)].inverse()
        got = system.rewrite(member)
        assert got == Word.from_syllables(sub, system.sweep(member)[1])
        assert Word(sub, got.syllables) == got  # passes the checks
        assert system.expand(got) == member
        if system.coset_of(w):
            with pytest.raises(SchreierError, match="not in the subgroup"):
                system.rewrite(w)


def test_wide_alphabet_keeps_generators_beyond_a_byte():
    """Past 256 generators the edge generators no longer fit in a byte."""
    wide = alphabet(*(f"x{i}" for i in range(300)))
    rng = random.Random(5)
    q = FiniteQuotient(wide, 3, tuple(tuple(rng.sample(range(3), 3)) for _ in range(300)))
    system = kernel_subgroup(q)
    assert max(system.edge_gen) > 255
    words = [random_word(rng, wide, 12) for _ in range(20)]
    assert_same_system(system, reference_system(RefQuotient(q), wide), words)


def test_exponent_classes_of_a_wide_kernel_mod_2():
    """The classes are read off the tree without a table of all
    modulus^rank packed vectors, which is 2^300 entries here."""
    wide = alphabet(*(f"x{i}" for i in range(300)))
    rng = random.Random(11)
    q = FiniteQuotient(wide, 2, tuple(rng.choice(((0, 1), (1, 0))) for _ in range(300)))
    system = kernel_subgroup(q)
    assert system.index == 2 and system.alphabet.rank == 300
    want = {tuple(s % 2 for s in v) for v in generator_exponent_sums(system)}
    assert generator_exponent_classes(system, 2) == want
    assert len(want) > 1


def test_generator_words_of_n_share_the_unit_syllables():
    """Off-tree edges never cancel: t_c x t_c'^-1 is reduced as it
    stands, so its syllables only merge equal letters, and every unit
    syllable is the alphabet's shared one."""
    schreier = NOracle(CongruenceInput(seeded_k(3, 2026), 5)).schreier
    units = schreier.alphabet.unit_syllables
    transversal = schreier.transversal
    shared = 0
    for g, (c, gen) in zip(schreier.generators, edges(schreier)):
        c2 = schreier.table[2 * gen][c]
        assert g.length() == transversal[c].length() + 1 + transversal[c2].length()
        for syllable in g.syllables:
            gen_of, exp = syllable
            if abs(exp) == 1:
                assert syllable is units[2 * gen_of + (exp < 0)]
                shared += 1
    for t in transversal:
        for syllable in t.syllables:
            if abs(syllable[1]) == 1:
                assert syllable is units[2 * syllable[0] + (syllable[1] < 0)]
    assert shared > len(schreier.generators)
