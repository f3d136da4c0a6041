"""Fuzzing the quotient-file boundary of the CLI with hypothesis.

Malformed and adversarial quotient JSON (non-permutations, mixed
alphabets, 0 points, sizes and entries past 2^63, floats, nested junk)
goes to ``quotients schreier --quotient`` and ``congruence certify
--k-quotient`` through ``CliRunner``, in process: no thread or process
is started per example.  Every run must end with exit code 0, 1 or 2,
print no traceback and finish within the deadline, since a small file
must never trigger unbounded work.

``affine certify`` gets the same treatment with ``--r``, ``--p``,
``--xi`` and ``--find-p`` drawn at and around ``R_CAP`` and
``PRIME_CAP``, with composites, values <= 2 and xi of the wrong order.
A draw that would certify in full has r <= 13: near ``R_CAP`` it always
holds some invalid value, since a whole certificate there takes seconds.

``congruence certify`` is driven around ``DIGIT_CAP`` with cyclic K of
index 15 and up, the first index where a prime under ``PRIME_CAP`` can
push the bound past the cap, and primes just above the cap for each
index.  The primes just below are checked through ``CongruenceInput``
only: an accepted input prints up to 20M digits, too slow for a
per-example deadline.
"""

import json
from datetime import timedelta

import sympy
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from fgcert.affine import R_CAP
from fgcert.cli import main
from fgcert.congruence import DIGIT_CAP, CongruenceInput, order_bound
from fgcert.intlinalg import PRIME_CAP
from fgcert.quotients import ALPHA_BETA, FiniteQuotient

BIG = (st.integers(min_value=2 ** 63 - 1, max_value=2 ** 80)
       | st.integers(min_value=-(2 ** 80), max_value=-(2 ** 63)))
SMALL = st.integers(-2, 5)
SCALARS = (st.none() | st.booleans() | SMALL | BIG | st.floats() | st.text(max_size=4))
JUNK = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
BAD_NAMES = st.sampled_from([["x", "y"], ["a", "y"], ["a"], [], ["a", "a"], ["a", 1],
                             ["1a", "b"], "ab"]) | JUNK

# Inputs found by hand before the fuzz ran, each once a traceback or a
# list the size of the claimed point count.
FOUND = [
    '{"alphabet": ["a", "b"], "targetSize": Infinity, "permutations": [[0], [0]]}',
    '{"alphabet": ["a", "b"], "targetSize": 1000000000000000000000, '
    '"permutations": [[0], [0]]}',
    "[" * 100_000,
]


def mostly(draw, good, bad):
    """A draw from ``good`` three times in four, else from ``bad``."""
    return draw(bad) if draw(st.integers(0, 3)) == 3 else draw(good)


@st.composite
def quotient_texts(draw, max_points: int):
    """The text of a quotient file.  Each field is well formed three
    times in four, so about a quarter of the files are valid quotients,
    over a, b or x, y, z, whose Schreier systems are built; the rest
    have some field wrong or missing, or are junk JSON or no JSON."""
    names = mostly(draw, st.sampled_from([["a", "b"], ["x", "y", "z"]]), BAD_NAMES)
    size = mostly(draw, st.integers(1, max_points), st.just(0) | BIG | JUNK)
    rank = len(names) if isinstance(names, list) else 2
    points = size if isinstance(size, int) and 0 <= size <= max_points else max_points
    perm = st.permutations(range(points)).map(list)
    bad_perm = (st.lists(st.integers(0, points), min_size=points, max_size=points)
                | st.lists(SMALL | BIG, max_size=4) | JUNK)
    perms = [mostly(draw, perm, bad_perm) for _ in range(rank)]
    data = {"alphabet": names, "targetSize": size,
            "permutations": mostly(draw, st.just(perms), JUNK)}
    base = mostly(draw, st.none() | st.integers(0, max(points - 1, 0)), BIG | JUNK)
    if base is not None:
        data["basePoint"] = base
    missing = mostly(draw, st.none(), st.sampled_from(["alphabet", "targetSize", "permutations"]))
    if missing:
        del data[missing]
    return mostly(draw, st.just(json.dumps(data)), JUNK.map(json.dumps) | st.text(max_size=12))


def assert_clean_run(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    return res


def assert_clean_exit(path, text, *args):
    path.write_text(text, encoding="utf-8")
    assert_clean_run([*args, str(path)])


@settings(max_examples=80, deadline=timedelta(seconds=5))
@given(quotient_texts(max_points=5))
@example(FOUND[0])
@example(FOUND[1])
@example(FOUND[2])
def test_quotients_schreier_survives_malformed_quotients(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-q.json"
    assert_clean_exit(path, text, "quotients", "schreier", "--quotient")


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(quotient_texts(max_points=3), st.sampled_from(["3", "5", "7", "9"]))
@example(FOUND[0], "5")
@example(FOUND[1], "5")
@example(FOUND[2], "5")
def test_congruence_certify_survives_malformed_quotients(tmp_path_factory, text, prime):
    path = tmp_path_factory.getbasetemp() / "fuzz-k.json"
    assert_clean_exit(path, text, "congruence", "certify", "--p", prime, "--samples", "3",
                      "--k-quotient")


NEAR_PRIME_CAP = [sympy.prevprime(PRIME_CAP), PRIME_CAP - 1, PRIME_CAP, PRIME_CAP + 1,
                  sympy.nextprime(PRIME_CAP)]
SMALL_R = [3, 5, 7, 11, 13]
NEAR_R_CAP = [p for p in sympy.primerange(R_CAP - 10, R_CAP + 1)]
BAD_R = ([-3, 0, 1, 2, 4, 9, 15, R_CAP - 1, R_CAP + 1, sympy.nextprime(R_CAP), 2 ** 40,
          2 ** 63, 10 ** 30] + NEAR_PRIME_CAP)


def first_primes_1_mod(r, count=2):
    return [p for p in range(r + 1, 100 * r, r) if sympy.isprime(p)][:count]


def last_prime_1_mod(r):
    """The largest prime p = 1 mod r up to PRIME_CAP."""
    return next(p for p in range(PRIME_CAP - PRIME_CAP % r + 1, 0, -r) if sympy.isprime(p))


# Primes p = 1 mod r for the prime r drawn up to the first past R_CAP.
GOOD_P = {r: first_primes_1_mod(r) for r in NEAR_R_CAP + [sympy.nextprime(R_CAP)]}
GOOD_P.update({r: first_primes_1_mod(r) + [last_prime_1_mod(r)] for r in SMALL_R})


def valid_p(r, p):
    return r > 2 and p is not None and 2 < p <= PRIME_CAP and sympy.isprime(p) and p % r == 1


def has_order_r(xi, r, p):
    return xi % p != 1 and pow(xi, r, p) == 1


@st.composite
def affine_args(draw):
    """The arguments of ``affine certify``: r small, near R_CAP or
    invalid; p prime and 1 mod r, composite, <= 2, not 1 mod r, near or
    past PRIME_CAP, or absent; xi of order r, of the wrong order, or
    absent; --find-p or not.  Near R_CAP, where a certificate takes
    seconds, the draw keeps some invalid value."""
    kind = draw(st.sampled_from(["small", "near cap", "bad"]))
    r = draw(st.sampled_from({"small": SMALL_R, "near cap": NEAR_R_CAP, "bad": BAD_R}[kind]))
    good = GOOD_P.get(r, [])
    bad = [-7, 0, 1, 2, r + 2, 2 * r + 1, 91, 2 ** 63, 10 ** 400 + 1] + NEAR_PRIME_CAP
    bad = [p for p in bad if not valid_p(r, p)]
    p = draw(st.none() | st.sampled_from(bad) | (st.sampled_from(good) if good else st.nothing()))
    if kind == "near cap" and p is None:
        p = draw(st.sampled_from(bad))
    xi = None
    if draw(st.booleans()):
        wrong = st.sampled_from([0, 1, -1, 2, 2 ** 70]) | st.integers(-10 ** 6, 10 ** 6)
        xi = draw(wrong)
        if valid_p(r, p) and draw(st.booleans()):
            xi = pow(draw(st.integers(2, p - 1)), (p - 1) // r, p)
    if kind == "near cap" and valid_p(r, p) and (xi is None or has_order_r(xi, r, p)):
        xi = 1
    args = ["affine", "certify", "--r", str(r)]
    if p is not None:
        args += ["--p", str(p)]
    if xi is not None:
        args += ["--xi", str(xi)]
    if draw(st.booleans()):
        args.append("--find-p")  # a given --p is used all the same
    return args


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(affine_args())
@example(["affine", "certify", "--r", "1", "--find-p"])
@example(["affine", "certify", "--r", "1000000007", "--find-p"])
@example(["affine", "certify", "--r", "5", "--p", str(10 ** 400 + 1)])
@example(["affine", "certify", "--r", str(R_CAP), "--p", "367", "--xi", "2"])
@example(["affine", "certify", "--r", str(sympy.nextprime(R_CAP)), "--find-p"])
def test_affine_certify_survives_adversarial_parameters(args):
    res = assert_clean_run(args)
    r = int(args[3])
    assert res.exit_code == 2 or r <= 13, args


def cyclic_k(n):
    """K of index n with a an n-cycle and b trivial."""
    return FiniteQuotient(ALPHA_BETA, n, (tuple((i + 1) % n for i in range(n)),
                                          tuple(range(n))))


def bound_digits(n, p):
    """The digit count ``order_bound(n, p).max_digits()`` gives, for any
    p: len(144 n^4) plus one len(p^64) per 64 factors of p."""
    return len(str(144 * n ** 4)) + -(-(36 * n ** 4 + 1) // 64) * len(str(p ** 64))


def primes_around_the_digit_cap(n, count=3):
    """The largest prime p prime to 6n whose bound at n fits under
    DIGIT_CAP (None if there is none) and the first ``count`` such
    primes above it, all up to PRIME_CAP."""
    lo, hi = 4, PRIME_CAP + 1  # the bound at lo fits, at hi it does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound_digits(n, mid) <= DIGIT_CAP else (lo, mid)
    valid = lambda q: q > 3 and n % q  # noqa: E731
    below = hi
    while (below := sympy.prevprime(below)) > 3 and not valid(below):
        pass
    below = below if valid(below) else None
    above = []
    q = hi - 1
    while len(above) < count and (q := sympy.nextprime(q)) <= PRIME_CAP:
        if valid(q):
            above.append(q)
    return below, above


# Index 14 is the last where every valid prime fits: its bound at
# PRIME_CAP has 16.7M digits.  From index 30 on no valid prime fits.
AROUND_DIGIT_CAP = {n: primes_around_the_digit_cap(n) for n in range(14, 61)}


def test_digit_cap_primes_bracket_the_cap():
    """Each index's primes bracket the cap, and the one below is accepted
    by ``CongruenceInput``, which validates and builds nothing."""
    assert AROUND_DIGIT_CAP[14] == (sympy.prevprime(PRIME_CAP), [])
    for n, (below, above) in AROUND_DIGIT_CAP.items():
        assert (below is None) == (n >= 30), n
        assert (len(above) == 3) == (n >= 15), n
        for q in above:
            assert order_bound(n, q).max_digits() > DIGIT_CAP
        if below is not None:
            assert order_bound(n, below).max_digits() <= DIGIT_CAP
            inp = CongruenceInput(cyclic_k(n), below)
            assert (inp.k_index, inp.p) == (n, below)


@settings(max_examples=40, deadline=timedelta(seconds=5))
@given(st.sampled_from(range(15, 61)), st.integers(0, 2))
@example(15, 0)
@example(25, 0)
@example(60, 2)
def test_congruence_certify_past_the_digit_cap_exits_2(tmp_path_factory, n, i):
    """Primes just above the cap for a cyclic K: a usage error that names
    the cap, before N is built."""
    p = AROUND_DIGIT_CAP[n][1][i]
    path = tmp_path_factory.getbasetemp() / f"cyclic-{n}.json"
    path.write_text(json.dumps(cyclic_k(n).to_json()), encoding="utf-8")
    res = assert_clean_run(["congruence", "certify", "--k-quotient", str(path), "--p", str(p)])
    assert res.exit_code == 2, res.output
    assert f"above the cap {DIGIT_CAP} on output digits" in res.output
