"""Seeded input generators for the benchmark workloads.

Everything here depends only on the standard library and a
``random.Random`` built from the benchmark seed, so the same seed gives
the same inputs whatever version of fgcert is under test.  The program
receives only what these functions produce: quotient files, affine
parameters and query words given as letter lists.
"""

from __future__ import annotations

import json
import math
import random

# Workload sizes.  "full" is what the benchmark measures; "tiny" is the
# smoke-test size (index 3, r = 13, a few queries).
SIZES = {
    "full": {
        "fox_words": 800,
        "hom_law_pairs": 80,
        "j_pairs": 12,
        "injectivity_length": 6,
        "ka_pairs": 6,
        "commutator_samples": 25,
        "ladder": (3, 4),
        "ks_per_index": 2,
        "samples": 250,
        # (r, 0) takes the third prime = 1 mod r; (r, B) the first above B
        "affine": ((13, 0), (17, 0), (19, 0), (23, 0), (23, 2 ** 31)),
        "schreier_k_index": 5,
        "kernel_index": 32,
        "queries": 2000,
    },
    "tiny": {
        "fox_words": 10,
        "hom_law_pairs": 2,
        "j_pairs": 2,
        "injectivity_length": 3,
        "ka_pairs": 2,
        "commutator_samples": 5,
        "ladder": (3,),
        "ks_per_index": 1,
        "samples": 50,
        "affine": ((13, 0),),
        "schreier_k_index": 3,
        "kernel_index": 8,
        "queries": 50,
    },
}

# The magnus suite's word lengths, (rank, modulus) cases of the hom law
# and (p, k, s, t) cases of the local commutator check.
FOX_WORD_MAX = 30
HOM_LAW_WORD_MAX = 15
HOM_IMAGE_MAX = 5
HOM_LAW_CASES = ((2, 2), (2, 3), (3, 2), (3, 4))
COMMUTATOR_CASES = ((3, 2, 1, 1), (2, 3, 1, 2))
GENERATOR_NAMES = ("x", "y", "z")
# An affine rung uses the third prime = 1 mod r.
AFFINE_PRIME_RANK = 3
# Share of the schreier-queries mix that are module queries.
MODULE_QUERY_SHARE = 0.02
# Membership query kinds, in equal numbers.
MEMBERSHIP_KINDS = ("roundtrip", "agree", "m_member")
# Lengths of random words over the Schreier generators of N: schreier
# queries, and the samples of congruence certify (as the CLI draws them).
SUB_WORD_MAX = 4
SAMPLE_WORD_MAX = 6


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per input stream, so adding a stream
    never changes the inputs of another."""
    return random.Random(f"{seed}:{stream}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _compose(p, q):
    return tuple(q[i] for i in p)


def _group_order(perms, n: int, limit: int) -> int:
    """Order of the permutation group generated by ``perms`` (closure by
    BFS), or ``limit + 1`` once it is known to exceed ``limit``."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for p in perms:
            h = _compose(g, p)
            if h not in seen:
                seen.add(h)
                if len(seen) > limit:
                    return limit + 1
                frontier.append(h)
    return len(seen)


def _symmetric_pair(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """A random pair of permutations of n points generating S_n."""
    order = math.factorial(n)
    while True:
        perms = [tuple(rng.sample(range(n), n)) for _ in range(2)]
        if _group_order(perms, n, order) == order:
            return perms


def k_quotient(seed: int, n: int, copy: int = 0) -> dict:
    """The quotient file of K, a seeded random transitive subgroup of
    index n in F(a, b): the stabilizer of point 0 under a random pair of
    permutations that generates S_n.

    Requiring S_n, not just transitivity, fixes [F:N] = 36 n^4 and with
    it the number of cosets: smaller groups gave [F:N] as low as 972 of
    2,916 at index 3 and 1,152 of 9,216 at index 4.  ``copy`` numbers
    independent draws of the same index.
    """
    stream = f"k-quotient:{n}" + (f":{copy}" if copy else "")
    perms = _symmetric_pair(rng_for(seed, stream), n)
    return {"alphabet": ["a", "b"], "targetSize": n,
            "permutations": [list(p) for p in perms], "basePoint": 0}


def rank_of_n(n: int) -> int:
    """Rank of N for K of index n >= 3 from ``k_quotient``: [F:N] + 1,
    with [F:N] = 36 n^4 (at n = 2 it is 72)."""
    return 36 * n ** 4 + 1


def congruence_prime(n: int) -> int:
    """5, or 7 where 5 divides 6n (the certificate needs p coprime to 6n)."""
    return 7 if (6 * n) % 5 == 0 else 5


def affine_params(rng: random.Random, r: int, above: int = 0) -> tuple[int, int, int]:
    """(r, p, xi): p the third prime = 1 mod r, or with ``above`` the
    first prime = 1 mod r greater than it; xi a seeded element of
    multiplicative order exactly r mod p.

    p is fixed rather than drawn.  The certificate prints the group
    order p^((r-1)(r-2)) r (r-1) in full, which passes CPython's
    4300-digit int->str limit once (r-1)(r-2) log10(p) > 4300: for
    r = 23 at p > 2^31, for r = 41 already at the third prime, 821.
    A drawn p made that defect show on some seeds and not others.
    """
    if above:
        p = above - above % r + 1
        while p <= above or not _is_prime(p):
            p += r
    else:
        p = r + 1
        found = 0
        while True:
            if _is_prime(p):
                found += 1
                if found == AFFINE_PRIME_RANK:
                    break
            p += r
    while True:
        xi = pow(rng.randrange(2, p), (p - 1) // r, p)
        if xi != 1:  # r is prime, so xi has order exactly r
            return r, p, xi


def random_letters(rng: random.Random, rank: int, max_length: int,
                   min_length: int = 0) -> list[tuple[int, int]]:
    """A freely reduced word as (generator, +-1) letters."""
    length = rng.randint(min_length, max_length)
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        letter = (rng.randrange(rank), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return letters


def word_text(letters: list[tuple[int, int]]) -> str:
    """Letters over x, y, z in the program's word syntax ("1" if empty)."""
    return " ".join(GENERATOR_NAMES[g] + ("" if s == 1 else "^-1")
                    for g, s in letters) or "1"


def magnus_checks(rng: random.Random, sizes: dict) -> dict:
    """Inputs of the magnus suite's checks, drawn as that suite draws
    them: words of up to 30 letters over x, y or x, y, z for the Fox
    identity, pairs of words of up to 15 letters for the hom law, and
    rank-2 endomorphisms with images of up to 5 letters for the chain
    rule.  The ka and local commutator checks get a sampling seed each.
    """
    fox = []
    for _ in range(sizes["fox_words"]):
        rank = rng.choice((2, 3))
        fox.append((rank, random_letters(rng, rank, FOX_WORD_MAX)))
    hom_law = [(n, m, random_letters(rng, n, HOM_LAW_WORD_MAX),
                random_letters(rng, n, HOM_LAW_WORD_MAX))
               for n, m in HOM_LAW_CASES for _ in range(sizes["hom_law_pairs"])]
    j_pairs = [[word_text(random_letters(rng, 2, HOM_IMAGE_MAX)) for _ in range(4)]
               for _ in range(sizes["j_pairs"])]
    return {
        "fox": fox,
        "hom_law": hom_law,
        "j_composition": j_pairs,
        "injectivity_length": sizes["injectivity_length"],
        "ka": {"pairs": sizes["ka_pairs"], "seed": rng.randrange(2 ** 31)},
        "local_commutator": [{"case": case, "samples": sizes["commutator_samples"],
                              "seed": rng.randrange(2 ** 31)}
                             for case in COMMUTATOR_CASES],
    }


def schreier_queries(rng: random.Random, count: int, n_rank: int, p: int) -> list[dict]:
    """The fixed query mix for one pass of schreier-queries.

    ``n_rank`` is the rank of N (number of Schreier generators) and p
    the prime of the M construction.  Module queries are spread evenly
    through the mix; at least one is always present.  Their shear
    products come from a fixed stream, the same for every seed: their
    cost varies about twofold between products, and p99 sits among
    them, so a seeded choice of products moved p99 between seeds.  The
    membership kinds come in equal numbers, in seeded order: the median
    latency falls among the roundtrip queries, so a drawn mix moved it.
    """
    products = random.Random("module-queries")
    modules = max(1, round(count * MODULE_QUERY_SHARE))
    stride = count / modules
    module_slots = {int(k * stride + stride / 2): k for k in range(modules)}
    kinds = [MEMBERSHIP_KINDS[i % len(MEMBERSHIP_KINDS)] for i in range(count - modules)]
    rng.shuffle(kinds)
    queries = []
    for i in range(count):
        if i in module_slots:
            # a product of 1..4 shears (indices into the shear pool); the
            # lengths cycle so that every seed has the same mix of them
            length = module_slots[i] % 4 + 1
            queries.append({"kind": "module",
                            "shears": [products.randrange(4) for _ in range(length)]})
            continue
        kind = kinds.pop()
        u = random_letters(rng, n_rank, SUB_WORD_MAX, min_length=1)
        q = {"kind": kind, "u": u}
        if kind == "agree":
            # a member of N times a commutator of two short words: the
            # exponent sums stay divisible by 6, so both membership
            # routes have to do their full work
            q["c"] = (random_letters(rng, 2, 3, min_length=1),
                      random_letters(rng, 2, 3, min_length=1))
            q["perturb"] = rng.random() < 0.5
        elif kind == "m_member":
            q["power"] = p if rng.random() < 0.5 else 1
        queries.append(q)
    return queries


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
