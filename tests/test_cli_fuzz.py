"""Fuzzing the quotient-file boundary of the CLI with hypothesis.

Malformed and adversarial quotient JSON (non-permutations, mixed
alphabets, 0 points, sizes and entries past 2^63, floats, nested junk)
goes to ``quotients schreier --quotient`` and ``congruence certify
--k-quotient`` through ``CliRunner``, in process: no thread or process
is started per example.  Every run must end with exit code 0, 1 or 2,
print no traceback and finish within the deadline, since a small file
must never trigger unbounded work.
"""

import json
from datetime import timedelta

from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from fgcert.cli import main

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


def assert_clean_exit(path, text, *args):
    path.write_text(text, encoding="utf-8")
    res = CliRunner().invoke(main, [*args, str(path)])
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output


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
