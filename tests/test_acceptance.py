"""Acceptance suite: one criterion per test, one printed verdict line
each.  All tolerances are exact.

Criteria 1-5 read their suite's checks in one ``fgcert verify all --seed
42`` report, by check id, so each golden check has one implementation,
the suite runner in ``fgcert.cli``; the tests add the sample counts and
the closed-form values the report must show.  Criterion 7 runs ``verify
all`` a second time and compares the bytes."""

import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from fgcert import cli
from fgcert.homs import transvection_alpha, transvection_beta
from fgcert.magnus import local_commutator_check
from fgcert.quotients import (
    abelian_quotient,
    kernel_subgroup,
    rank2_mod2_kernel,
    schreier_rank,
)
from fgcert.words import alphabet, parse_word, random_word
from word_letters import letters

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")

VERIFY_ALL = ["verify", "all", "--seed", "42"]


def verdict(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problem(s))"
    print(f"ACCEPTANCE {num} [{name}]: {status}")
    for f in failures:
        print(f"    - {f}")
    assert not failures


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """One ``verify all --seed 42 --out`` run: its exit code, the report's
    bytes, and the sample counts of the local commutator checks, which
    the report records only as passed or not."""
    commutator_samples = []

    def recording(*args, **kwargs):
        result = local_commutator_check(*args, **kwargs)
        commutator_samples.append(result["samples"])
        return result

    out = tmp_path_factory.mktemp("verify-all") / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "local_commutator_check", recording)
        res = CliRunner().invoke(cli.main, [*VERIFY_ALL, "--out", str(out)])
    return res.exit_code, out.read_bytes(), commutator_samples


@pytest.fixture(scope="module")
def checks(first_run):
    """The first run's checks by id."""
    return {c["id"]: c for c in json.loads(first_run[1])["checks"]}


def suite_failures(checks, suite, expected):
    """Problems with ``suite``'s checks in the report: their ids must be
    exactly the keys of ``expected`` and each must pass; where
    ``expected`` gives a value rather than None, it must be the check's
    expected value."""
    failures = [f"{cid}: not an expected check" for cid in checks
                if cid.startswith(f"{suite}.") and cid not in expected]
    for cid, value in expected.items():
        c = checks.get(cid)
        if c is None:
            failures.append(f"{cid}: not in the report")
            continue
        if c["status"] != "pass":
            failures.append(f"{cid}: expected {c['expected']}, computed {c['computed']}")
        if value is not None and c["expected"] != str(value):
            failures.append(f"{cid}: expects {c['expected']}, not {value}")
    return failures


def computed_failures(checks, values):
    """Closed-form values that the report's computed strings must equal."""
    return [f"{cid}: computed {checks[cid]['computed']}, closed form {value}"
            for cid, value in values.items()
            if cid in checks and checks[cid]["computed"] != str(value)]


def test_criterion_1_section2_golden(checks):
    m = cli.load_manifest()["section2"]
    expected = {"section2.transversal": " , ".join(m["transversal"])}
    for name, word in m["generators"].items():
        expected[f"section2.generator.{name}"] = word
        expected[f"section2.outer-image.{name}"] = m["outerImages"][name]
    for text in m["kernelNormalGenerators"]:
        expected[f"section2.kernel-member.{text.replace(' ', '')}"] = True
    for label in ("alpha", "beta"):
        for name in m["generators"]:
            expected[f"section2.{label}-image.{name}"] = m[f"{label}Images"][name]
            expected[f"section2.{label}-rewrite.{name}"] = m[f"{label}Rewrites"][name]
            expected[f"section2.{label}-roundtrip.{name}"] = None
        for text, rewrite in m["invarianceRewrites"][label].items():
            key = f"section2.invariance.{label}.{text.replace(' ', '')}"
            expected |= {f"{key}.word": None, f"{key}.rewrite": rewrite, f"{key}.kernel": True}
        for gen in ("a", "b"):
            expected[f"section2.induced.{label}.{gen}"] = m["inducedAction"][label][gen]
    verdict(1, "index-4 kernel rewriting tables",
            suite_failures(checks, "section2", expected))


def test_criterion_2_largeness(checks):
    m = cli.load_manifest()["largeness"]
    expected = {
        "largeness.generators": " , ".join(m["generators"]),
        "largeness.conjugation-matrix": m["conjugationMatrix"],
        "largeness.eigenlattice.plus": m["plusOneEigenlattice"],
        "largeness.eigenlattice.minus": m["minusOneEigenlattice"],
        "largeness.induced.alpha": m["inducedAlpha"],
        "largeness.induced.beta": m["inducedBeta"],
        "largeness.commutation-samples": 50,
    }
    verdict(2, "rank-5 module largeness data", suite_failures(checks, "largeness", expected))


def test_criterion_3_magnus(first_run, checks):
    expected = {"magnus.fox-identity": 10_000}
    for n, mod in ((2, 2), (2, 3), (3, 2), (3, 4)):
        expected[f"magnus.hom-law.n{n}m{mod}"] = 1000
    expected |= {
        "magnus.j-composition": 100,
        "magnus.fox-injectivity": 0,
        "magnus.ka-multiplicative": True,
        "magnus.local-commutator.mod9": True,
        "magnus.local-commutator.mod8": True,
    }
    failures = suite_failures(checks, "magnus", expected)
    if not checks.get("magnus.fox-injectivity", {}).get("ref", "").endswith("length <= 8"):
        failures.append("coordinate injectivity not checked to length 8")
    if first_run[2] != [200, 200]:
        failures.append(f"commutator checks drew {first_run[2]} samples, not 200 each")
    verdict(3, "triangular embedding over finite group rings", failures)


def test_criterion_4_congruence_certificate(checks):
    m = cli.load_manifest()["congruence"]
    expected = {f"congruence.{key}": value for key, value in m.items()}
    expected |= {"congruence.projection-in-k": 1000, "congruence.oracle-agreement": 1000}
    failures = suite_failures(checks, "congruence", expected)
    order = 144 * 5 ** 37
    failures += computed_failures(checks, {
        "congruence.n": 1,
        "congruence.p": 5,
        "congruence.indexOfN": 36,
        "congruence.rankOfN": 37,
        "congruence.orderOfF2ModM": order,
        "congruence.bound": order,
        "congruence.divides": True,
    })
    verdict(4, "order certificate at n=1, p=5", failures)


def test_criterion_5_affine(checks):
    expected, closed_forms = {}, {}
    for r, p in ((5, 11), (3, 7)):
        tag = f"affine.r{r}p{p}"
        for name in ("delta-relations", "irreducible", "vandermonde", "two-generated",
                     "geometric-sums"):
            expected[f"{tag}.{name}"] = True
        expected[f"{tag}.delta-order"] = expected[f"{tag}.spun-dimensions"] = None
        closed_forms[f"{tag}.delta-order"] = r * (r - 1)
        closed_forms[f"{tag}.spun-dimensions"] = [r - 1] * (r - 2)
    failures = suite_failures(checks, "affine", expected)
    failures += computed_failures(checks, closed_forms)
    verdict(5, "affine semidirect-product certificates", failures)


def test_criterion_6_property_suites():
    failures = []
    rng = random.Random(0)

    bad = 0
    for _ in range(10_000):
        w = random_word(rng, rng.choice([XY, XYZ]), 20)
        if parse_word(str(w), w.alphabet) != w or not (w * w.inverse()).is_identity():
            bad += 1
    if bad:
        failures.append(f"{bad} word round-trip failures")

    auts = [transvection_alpha(), transvection_beta()]
    bad = 0
    for _ in range(1000):
        aut = rng.choice(auts)
        w = random_word(rng, XY, 15)
        if aut.backward(aut.forward(w)) != w:
            bad += 1
    if bad:
        failures.append(f"{bad} automorphism round-trip failures")

    system = rank2_mod2_kernel()
    bad = 0
    for _ in range(1000):
        sub = random_word(rng, system.sub_alphabet, 8)
        if system.rewrite(system.expand(sub)) != sub:
            bad += 1
    if bad:
        failures.append(f"{bad} rewrite/expand round-trip failures")

    for _ in range(40):
        rank = rng.randint(2, 3)
        alpha = alphabet(*"xyz"[:rank])
        moduli = tuple(rng.randint(1, 4) for _ in range(rank))
        s = kernel_subgroup(abelian_quotient(alpha, moduli))
        index = 1
        for mm in moduli:
            index *= mm
        if s.index != index or len(s.generators) != schreier_rank(index, rank):
            failures.append(f"Schreier formula failed for moduli {moduli}")
        reps = {str(t) for t in s.transversal}
        for t in s.transversal:
            prefix = alpha.identity()
            for gen, sign in letters(t):
                if str(prefix) not in reps:
                    failures.append(f"transversal not prefix-closed for {moduli}")
                    break
                prefix = prefix * alpha.generator(gen, sign)
    verdict(6, "randomized structural properties", failures)


# sha256 of ``fgcert verify all --seed 42``, the ``verify-all`` pin of
# ``perfbench/pins.json`` copied here, as ``test_seeded_reports.py`` does
# for the single suites: the magnus suite's seeded output is pinned in
# tier-1 too.
VERIFY_ALL_SHA256 = "e1a7da32b938312cd31db3b79300de41d0fd288e59a73083a223d19d86ee2631"


def test_criterion_7_determinism(first_run, tmp_path):
    exit_code, first, _ = first_run
    out = tmp_path / "report.json"
    res = CliRunner().invoke(cli.main, [*VERIFY_ALL, "--out", str(out)])
    failures = [f"verify all exited {code}" for code in (exit_code, res.exit_code) if code]
    if not failures and first != out.read_bytes():
        failures.append("reports differ between runs")
    if not failures and hashlib.sha256(first).hexdigest() != VERIFY_ALL_SHA256:
        failures.append("report differs from the pinned verify-all digest")
    if not failures:
        report = json.loads(first)
        if report["summary"]["fail"]:
            failures.append(f"{report['summary']['fail']} checks failed in the report")
    verdict(7, "byte-identical seeded reports", failures)
