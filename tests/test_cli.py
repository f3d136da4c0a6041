import json
import random
import time
from decimal import Decimal
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import fgcert
from fgcert import affine, cli
from fgcert.affine import AffineParams, gamma_order
from fgcert.cli import (
    SAMPLES_CAP,
    SYLLABLE_CAP,
    Runner,
    load_manifest,
    main,
    make_report,
    run_affine,
    run_congruence,
)
from fgcert.quotients import ALPHA_BETA, FiniteQuotient, SchreierSystem, SubgroupHom
from fgcert.words import alphabet


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_verify_section2_json_schema():
    res = run("verify", "section2")
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert list(report) == ["toolVersion", "timestamp", "suite", "seed",
                            "checks", "summary"]
    assert report["toolVersion"] == fgcert.__version__
    assert report["suite"] == "section2"
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] == len(report["checks"])
    for c in report["checks"]:
        assert list(c) == ["id", "ref", "status", "expected", "computed",
                           "elapsedMillis"]
        assert (c["status"] == "pass") == (c["expected"] == c["computed"])


def test_verify_text_format():
    res = run("verify", "affine", "--format", "text")
    assert res.exit_code == 0
    assert "summary:" in res.output
    assert "[PASS]" in res.output


def test_verify_unknown_suite():
    res = run("verify", "nonsense")
    assert res.exit_code != 0


def test_verify_deterministic_with_seed(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run("verify", "largeness", "--seed", "42", "--out", str(out1)).exit_code == 0
    assert run("verify", "largeness", "--seed", "42", "--out", str(out2)).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["timestamp"] == "1970-01-01T00:00:00Z"
    assert all(c["elapsedMillis"] == 0 for c in report["checks"])


def test_elapsed_millis_is_measured_without_seed():
    # projection-in-k holds the drawing of the 1,000 samples and their loop
    runner = Runner(deterministic=False)
    run_congruence(runner, load_manifest(), random.Random(0))
    report = make_report("congruence", 0, runner)
    elapsed = {c["id"]: c["elapsedMillis"] for c in report["checks"]}
    assert elapsed["congruence.projection-in-k"] > 0


def test_each_sampled_congruence_check_holds_its_own_loop(monkeypatch):
    """On a clock that ticks one second per projection walk and per
    coset-table test, each sampled check's interval holds exactly its
    own loop: projection-in-k one walk per sample, oracle-agreement the
    four walks of each direct test and one coset-table test."""
    ticks = [0]
    walk, table_contains = SubgroupHom.fixes_base, SchreierSystem.contains

    def ticking(fn):
        def wrapped(*args):
            ticks[0] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: ticks[0]))
    monkeypatch.setattr(SubgroupHom, "fixes_base", ticking(walk))
    monkeypatch.setattr(SchreierSystem, "contains", ticking(table_contains))
    runner = Runner(deterministic=False, last=0)
    run_congruence(runner, load_manifest(), random.Random(0))
    checks = {c["id"]: c for c in runner.checks}
    samples = int(checks["congruence.projection-in-k"]["expected"])
    assert all(c["status"] == "pass" for c in runner.checks)
    assert checks["congruence.projection-in-k"]["elapsedMillis"] == samples * 1000
    assert checks["congruence.oracle-agreement"]["elapsedMillis"] == samples * (4 + 1) * 1000


def test_each_affine_fact_holds_its_own_check(monkeypatch):
    """On a clock that ticks one second per projection C = E_11, per
    conjugate translation and per closure, the projection lands in the
    vandermonde check, the seeds and the closures (the spin) in
    spun-dimensions, and the two-generated verdict holds no work."""
    ticks = [0]

    def ticking(fn):
        def wrapped(*args):
            ticks[0] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: ticks[0]))
    monkeypatch.setattr(cli, "diagonal_projection", ticking(affine.diagonal_projection))
    for name in ("conjugate_translation", "closure_dimensions"):
        monkeypatch.setattr(affine, name, ticking(getattr(affine, name)))
    runner = Runner(deterministic=False, last=0)
    manifest = load_manifest()
    run_affine(runner, manifest, random.Random(0))
    elapsed = {c["id"]: c["elapsedMillis"] for c in runner.checks}
    assert all(c["status"] == "pass" for c in runner.checks)
    for entry in manifest["affine"]:
        tag = f"affine.r{entry['r']}p{entry['p']}"
        assert elapsed[f"{tag}.vandermonde"] == 1000
        # one conjugate translation per copy (r - 2 of them), then two
        # closures: the first seed's and all seeds'
        assert elapsed[f"{tag}.spun-dimensions"] == (entry["copies"] + 2) * 1000
        assert elapsed[f"{tag}.two-generated"] == 0


@pytest.mark.parametrize("command", [
    ["verify", "affine"],
    ["congruence", "certify", "--p", "5", "--samples", "10"],
    ["affine", "certify", "--r", "5", "--p", "11"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, command):
    out = tmp_path / "missing" / "report.json"
    res = run(*command, "--out", str(out))
    assert res.exit_code == 2, res.output
    assert not isinstance(res.exception, OSError)
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "'--out'" in errors[0] and str(out) in errors[0]
    assert "Traceback" not in res.output
    assert not out.parent.exists()


def test_congruence_certify_trivial_k(tmp_path):
    out = tmp_path / "cert.json"
    res = run("congruence", "certify", "--p", "5", "--samples", "50",
              "--out", str(out))
    assert res.exit_code == 0, res.output
    cert = json.loads(out.read_text())
    assert cert["indexOfN"] == 36
    assert cert["orderOfF2ModM"] == str(144 * 5 ** 37)
    assert cert["divides"] is True
    assert cert["samplesInK"] == 50


def test_congruence_certify_with_quotient_file(tmp_path):
    q = FiniteQuotient(ALPHA_BETA, 2, ((1, 0), (0, 1)))
    path = tmp_path / "k.json"
    path.write_text(json.dumps(q.to_json()))
    res = run("congruence", "certify", "--k-quotient", str(path),
              "--p", "5", "--samples", "20")
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["n"] == 2 and cert["indexOfN"] == 72


def test_congruence_certify_bad_prime():
    res = run("congruence", "certify", "--p", "3")
    assert res.exit_code != 0


def test_affine_certify():
    res = run("affine", "certify", "--r", "5", "--p", "11")
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["xi"] == 3
    assert cert["irreducible"] is True
    assert cert["twoGeneration"]["passed"] is True


def test_affine_certify_group_order_past_the_digit_limit(tmp_path):
    # p^462 has about 4,310 digits: past int.__str__'s default limit
    r, p, xi = 23, 2147484517, 886862778
    out = tmp_path / "cert.json"
    res = run("affine", "certify", "--r", str(r), "--p", str(p), "--xi", str(xi),
              "--out", str(out))
    assert res.exit_code == 0, res.output
    cert = json.loads(out.read_text())
    assert len(cert["groupOrder"]) > 4300
    order = gamma_order(AffineParams(r, p, xi))
    assert cert["groupOrder"] == str(Decimal(order.cofactor * order.p ** order.exponent))


def test_affine_certify_find_p():
    res = run("affine", "certify", "--r", "3", "--find-p")
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["p"] == 7


def test_affine_certify_requires_p_or_find_p():
    res = run("affine", "certify", "--r", "5")
    assert res.exit_code != 0


def test_quotients_schreier(tmp_path):
    q = FiniteQuotient(ALPHA_BETA, 2, ((1, 0), (0, 1)))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(q.to_json()))
    res = run("quotients", "schreier", "--quotient", str(path))
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["index"] == 2
    assert data["rank"] == 3
    assert data["generators"] == {"e1": "b", "e2": "a^2", "e3": "a b a^-1"}


def assert_usage_error(res, text):
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert text in res.output


def test_congruence_certify_non_prime_p_is_a_usage_error():
    assert_usage_error(run("congruence", "certify", "--p", "4"), "p = 4 is not prime")


def test_congruence_certify_malformed_quotient_is_a_usage_error(tmp_path):
    path = tmp_path / "k.json"
    for text, error in [('{"alphabet": ["a", "b"], "permutations": [[0], [0]]}',
                         "KeyError: 'targetSize'"),
                        ("not json", "JSONDecodeError"),
                        ('{"alphabet": ["a", "b"], "targetSize": 2, '
                         '"permutations": [[0, 0], [0, 1]]}', "not a permutation"),
                        ("[1, 2]", "TypeError")]:
        path.write_text(text)
        res = run("congruence", "certify", "--k-quotient", str(path), "--p", "5")
        assert_usage_error(res, "Invalid value for '--k-quotient'")
        assert error in res.output


@pytest.mark.parametrize("names", ['"ab"', '{"a": 0, "b": 1}'])
@pytest.mark.parametrize("command", [["quotients", "schreier", "--quotient"],
                                     ["congruence", "certify", "--p", "5", "--k-quotient"]])
def test_alphabet_that_is_not_a_list_is_a_usage_error(tmp_path, names, command):
    # a string or an object would iterate to the names a, b
    path = tmp_path / "q.json"
    path.write_text('{"alphabet": %s, "targetSize": 2, "permutations": [[1, 0], [0, 1]]}' % names)
    res = run(*command, str(path))
    assert_usage_error(res, "the alphabet must be a JSON list of strings")
    lines = res.output.splitlines()
    assert lines[-1].startswith("Error: ") and "alphabet" in lines[-1]
    assert not any("alphabet" in line for line in lines[:-1])


def test_congruence_certify_k_over_wrong_alphabet_is_a_usage_error(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(FiniteQuotient(alphabet("x", "y"), 1, ((0,), (0,))).to_json()))
    res = run("congruence", "certify", "--k-quotient", str(path), "--p", "5")
    assert_usage_error(res, "alphabet (a, b)")


def test_congruence_certify_past_the_coset_cap_is_a_usage_error(tmp_path):
    # K of index 8 with the permutations generating S_8: [F:N] = 36 * 8^4
    k = FiniteQuotient(ALPHA_BETA, 8, ((4, 6, 3, 7, 5, 0, 2, 1), (7, 4, 6, 5, 2, 1, 0, 3)))
    path = tmp_path / "k.json"
    path.write_text(json.dumps(k.to_json()))
    res = run("congruence", "certify", "--k-quotient", str(path), "--p", "5")
    assert_usage_error(res, "coset limit exceeded (100000); input too large")


def test_quotients_schreier_malformed_quotient_is_a_usage_error(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"alphabet": ["a"]}')
    assert_usage_error(run("quotients", "schreier", "--quotient", str(path)),
                       "Invalid value for '--quotient'")


def test_affine_certify_bad_parameters_are_usage_errors():
    assert_usage_error(run("affine", "certify", "--r", "4", "--p", "13"),
                       "r = 4 must be an odd prime")
    assert_usage_error(run("affine", "certify", "--r", "5", "--p", "13"),
                       "r = 5 must divide p - 1")
    assert_usage_error(run("affine", "certify", "--r", "5", "--p", "11", "--xi", "10"),
                       "xi = 10 does not have order 5 mod 11")
    # r = 1 used to search for a prime p = 1 mod 1 forever
    assert_usage_error(run("affine", "certify", "--r", "1", "--find-p"),
                       "r = 1 must be an odd prime")


def test_affine_certify_large_p_default_xi_and_bad_xi(tmp_path):
    out = tmp_path / "cert.json"
    start = time.monotonic()
    res = run("affine", "certify", "--r", "23", "--p", "2147484517", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert time.monotonic() - start < 5
    assert json.loads(out.read_text())["xi"] == 178019499
    start = time.monotonic()
    res = run("affine", "certify", "--r", "23", "--p", "2147484517", "--xi", "2")
    assert time.monotonic() - start < 1
    assert_usage_error(res, "xi = 2 does not have order 23 mod 2147484517")


def test_p_above_the_cap_is_a_usage_error():
    # trial division made 10^18 + 3 run for minutes, and 10^400 + 1
    # overflowed a float square root
    for p in ("1000000000000000003", str(10 ** 400 + 1)):
        start = time.monotonic()
        assert_usage_error(run("congruence", "certify", "--p", p),
                           "p is above the cap 2^40 on r and p")
        assert_usage_error(run("affine", "certify", "--r", "5", "--p", p),
                           "p is above the cap 2^40 on r and p")
        assert time.monotonic() - start < 2


def test_r_above_the_cap_is_a_usage_error():
    assert_usage_error(run("affine", "certify", "--r", str(2 ** 40 + 15), "--find-p"),
                       "r is above the cap 2^40 on r and p")


def test_affine_find_p_for_a_large_r_is_quick():
    # the search steps through p = 1 mod r; the bad --xi stops the run
    # before the certificate, whose work grows with r
    start = time.monotonic()
    res = run("affine", "certify", "--r", "1000000007", "--find-p", "--xi", "2")
    assert_usage_error(res, "xi = 2 does not have order 1000000007 mod 44000000309")
    assert time.monotonic() - start < 2


def test_r_above_the_certificate_cap_is_a_usage_error():
    # without --xi the search for xi takes r powers and the certificate
    # builds (r-1) x (r-1) matrices; both are refused above the cap
    start = time.monotonic()
    res = run("affine", "certify", "--r", "1000000007", "--find-p")
    assert_usage_error(res, "r = 1000000007 is above the cap 61 on r for the affine certificate")
    # refused before the search for p, which finds none up to 2^40 here
    res = run("affine", "certify", "--r", "549755813881", "--find-p")
    assert_usage_error(res, "r = 549755813881 is above the cap 61 on r for the affine certificate")
    assert time.monotonic() - start < 2
    for args in (("--find-p",), ("--p", "269"), ("--p", "269", "--xi", "16")):
        assert_usage_error(run("affine", "certify", "--r", "67", *args),
                           "r = 67 is above the cap 61 on r for the affine certificate")


def cyclic_k_file(tmp_path, n):
    """K of index n with a an n-cycle and b trivial: [F:N] = 36 n^2 is
    small, the bound 144 n^4 p^(36 n^4 + 1) is not."""
    k = FiniteQuotient(ALPHA_BETA, n, (tuple((i + 1) % n for i in range(n)), tuple(range(n))))
    path = tmp_path / f"cyclic{n}.json"
    path.write_text(json.dumps(k.to_json()))
    return str(path)


def test_congruence_certify_cyclic_k_of_index_25(tmp_path):
    # the bound has 14.6M digits: under the digit cap, printed in full in
    # about 2 s (the big-integer route did not finish in 60 s)
    n, p = 25, 11
    out = tmp_path / "cert.json"
    start = time.monotonic()
    res = run("congruence", "certify", "--k-quotient", cyclic_k_file(tmp_path, n),
              "--p", str(p), "--samples", "100", "--out", str(out))
    assert time.monotonic() - start < 20
    assert res.exit_code == 0, res.output
    cert = json.loads(out.read_text())
    assert (cert["indexOfN"], cert["divides"], cert["samplesInK"]) == (22500, True, 100)
    e = 36 * n ** 4 + 1
    assert len(cert["bound"]) == 14_644_594
    assert int(cert["bound"][-40:]) == 144 * n ** 4 * pow(p, e, 10 ** 40) % 10 ** 40


def test_congruence_certify_past_the_digit_cap_is_a_usage_error(tmp_path):
    start = time.monotonic()
    res = run("congruence", "certify", "--k-quotient", cyclic_k_file(tmp_path, 25),
              "--p", "1000003")
    assert_usage_error(res, "the bound 144 n^4 p^(36 n^4 + 1) at n = 25, p = 1000003 has up "
                            "to 84594903 digits, above the cap 20000000 on output digits")
    assert time.monotonic() - start < 2


def test_negative_samples_is_a_usage_error():
    assert_usage_error(run("congruence", "certify", "--p", "5", "--samples", "-3"),
                       "Invalid value for '--samples'")


def test_samples_past_the_cap_is_a_usage_error():
    # a 15-digit count would run for years; the cap is refused before any work
    for count in (SAMPLES_CAP + 1, 10 ** 15 - 1):
        start = time.monotonic()
        res = run("congruence", "certify", "--p", "5", "--samples", str(count))
        assert_usage_error(res, "Invalid value for '--samples'")
        assert f"0<=x<={SAMPLES_CAP}" in res.output
        assert time.monotonic() - start < 2


def test_quotients_schreier_coset_cap_is_a_usage_error(tmp_path):
    q = FiniteQuotient(ALPHA_BETA, 2, ((1, 0), (0, 1)))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(q.to_json()))
    assert_usage_error(run("quotients", "schreier", "--quotient", str(path), "--max-cosets", "1"),
                       "coset limit exceeded (1); input too large")
    assert_usage_error(run("quotients", "schreier", "--quotient", str(path), "--max-cosets", "0"),
                       "Invalid value for '--max-cosets'")


def test_quotients_schreier_syllable_cap_is_a_usage_error(tmp_path):
    """A 4,000-point "ladder", a = (0 1)(2 3)... and b = (1 2)(3 4)...,
    is a 46 kB file whose Schreier words have about 24M syllables: it is
    refused from the tree before any word is built."""
    n = 4000
    a, b = list(range(n)), list(range(n))
    for i in range(0, n - 1, 2):
        a[i], a[i + 1] = i + 1, i
    for i in range(1, n - 1, 2):
        b[i], b[i + 1] = i + 1, i
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(FiniteQuotient(ALPHA_BETA, n, (tuple(a), tuple(b))).to_json()))
    start = time.monotonic()
    res = run("quotients", "schreier", "--quotient", str(path))
    assert time.monotonic() - start < 1
    assert_usage_error(res, f"above the cap {SYLLABLE_CAP} on output syllables")
