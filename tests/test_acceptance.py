"""Acceptance suite: one criterion per test, one printed verdict line
each.  All tolerances are exact."""

import hashlib
import json
import random

from click.testing import CliRunner

from fgcert.affine import (
    AffineParams,
    build_delta,
    irreducibility_certificate,
    two_generation_certificate,
)
from fgcert.cli import load_manifest, main
from fgcert.congruence import CongruenceInput, NOracle, certify
from fgcert.homs import (
    compose_auts,
    hom,
    shear_alpha3,
    shear_beta3,
    transvection_alpha,
    transvection_beta,
)
from fgcert.magnus import (
    fox_coordinates,
    fox_identity_holds,
    j_composition_identity,
    local_commutator_check,
    magnus_image,
)
from fgcert.quotients import (
    ALPHA_BETA,
    abelian_quotient,
    kernel_subgroup,
    rank2_mod2_kernel,
    rank2_outer_hom,
    rank3_c2_kernel,
    schreier_rank,
    trivial_quotient,
)
from fgcert.schreier_modules import (
    action_matrix,
    conjugation_matrix,
    eigen_lattice,
    induced_action,
)
from fgcert.words import alphabet, parse_word, random_word
from word_letters import letters

XY = alphabet("x", "y")
XYZ = alphabet("x", "y", "z")


def verdict(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problem(s))"
    print(f"ACCEPTANCE {num} [{name}]: {status}")
    for f in failures:
        print(f"    - {f}")
    assert not failures


def test_criterion_1_section2_golden():
    failures = []
    m = load_manifest()["section2"]
    system = rank2_mod2_kernel()
    sub = system.sub_alphabet
    names = list(m["generators"])
    alpha, beta = transvection_alpha(), transvection_beta()

    for label, aut, rewrites in (("alpha", alpha, m["alphaRewrites"]),
                                 ("beta", beta, m["betaRewrites"])):
        for i, name in enumerate(names):
            got = str(system.rewrite(aut(system.generators[i])))
            if got != rewrites[name]:
                failures.append(f"{label}({name}) rewrote to {got}")

    pi = rank2_outer_hom(system)
    for label, aut in (("alpha", alpha), ("beta", beta)):
        for text, expected in m["invarianceRewrites"][label].items():
            w = system.expand(parse_word(text, sub))
            image = aut(w)
            if image != system.expand(parse_word(expected, sub)):
                failures.append(f"{label}({text}): factorization does not expand back")
            if str(system.rewrite(image)) != expected:
                failures.append(f"{label}({text}): wrong factorization")
            if not pi.in_kernel(image):
                failures.append(f"{label}({text}): image left the kernel")

    induced = m["inducedAction"]
    e1, e3 = system.generators[0], system.generators[2]
    for label, aut in (("alpha", alpha), ("beta", beta)):
        if str(pi(aut(e1))) != induced[label]["a"]:
            failures.append(f"induced {label} on a")
        if str(pi(aut(e3))) != induced[label]["b"]:
            failures.append(f"induced {label} on b")
    verdict(1, "index-4 kernel rewriting tables", failures)


def test_criterion_2_largeness():
    failures = []
    m = load_manifest()["largeness"]
    system = rank3_c2_kernel()
    b = conjugation_matrix(system, parse_word("x", XYZ))
    if [list(r) for r in b.rows] != m["conjugationMatrix"]:
        failures.append("conjugation matrix mismatch")
    plus, minus = eigen_lattice(b, 1), eigen_lattice(b, -1)
    if [list(r) for r in plus.basis] != m["plusOneEigenlattice"]:
        failures.append("plus-one eigenlattice mismatch")
    if [list(r) for r in minus.basis] != m["minusOneEigenlattice"]:
        failures.append("minus-one eigenlattice mismatch")
    if [list(r) for r in induced_action(system, shear_alpha3(), minus).rows] \
            != m["inducedAlpha"]:
        failures.append("induced alpha mismatch")
    if [list(r) for r in induced_action(system, shear_beta3(), minus).rows] \
            != m["inducedBeta"]:
        failures.append("induced beta mismatch")

    rng = random.Random(0)
    pool = [shear_alpha3(), shear_beta3(),
            shear_alpha3().inverse(), shear_beta3().inverse()]
    for i in range(50):
        aut = rng.choice(pool)
        for _ in range(rng.randrange(4)):
            aut = compose_auts(aut, rng.choice(pool))
        a_mat = action_matrix(system, aut)
        if a_mat * b != b * a_mat:
            failures.append(f"sample {i}: action does not commute")
    verdict(2, "rank-5 module largeness data", failures)


def test_criterion_3_magnus():
    failures = []
    rng = random.Random(0)
    alphabets = [XY, XYZ]

    bad = sum(1 for _ in range(10_000)
              if not fox_identity_holds(random_word(rng, rng.choice(alphabets), 30)))
    if bad:
        failures.append(f"{bad}/10000 derivative-identity failures")

    for n, mod in ((2, 2), (2, 3), (3, 2), (3, 4)):
        a = XY if n == 2 else XYZ
        bad = 0
        for _ in range(1000):
            u, v = random_word(rng, a, 15), random_word(rng, a, 15)
            if magnus_image(u * v, mod) != magnus_image(u, mod) * magnus_image(v, mod):
                bad += 1
        if bad:
            failures.append(f"homomorphism law failed {bad} times at n={n}, m={mod}")

    for i in range(100):
        f = hom(XY, str(random_word(rng, XY, 5)), str(random_word(rng, XY, 5)))
        g = hom(XY, str(random_word(rng, XY, 5)), str(random_word(rng, XY, 5)))
        if not j_composition_identity(f, g):
            failures.append(f"composition law failed on pair {i}")

    seen = {}
    stack = [XY.identity()]
    collisions = 0
    while stack:
        w = stack.pop()
        key = tuple(c.terms for c in fox_coordinates(w))
        if seen.setdefault(key, w) != w:
            collisions += 1
        if w.length() < 8:
            for gen in range(2):
                for sign in (1, -1):
                    nxt = w * XY.generator(gen, sign)
                    if nxt.length() > w.length():
                        stack.append(nxt)
    if collisions:
        failures.append(f"{collisions} coordinate collisions up to length 8")

    if not local_commutator_check(3, 2, 1, 1, samples=200, rng=rng)["passed"]:
        failures.append("commutator check mod 9 failed")
    if not local_commutator_check(2, 3, 1, 2, samples=200, rng=rng)["passed"]:
        failures.append("commutator check mod 8 failed")
    verdict(3, "triangular embedding over finite group rings", failures)


def test_criterion_4_congruence_certificate():
    failures = []
    inp = CongruenceInput(trivial_quotient(ALPHA_BETA), 5)
    oracle = NOracle(inp)
    cert = certify(inp, n_oracle=oracle)
    expected_order = 144 * 5 ** 37
    if cert.index_of_n != 36:
        failures.append(f"index of N = {cert.index_of_n}")
    if cert.rank_of_n != 37:
        failures.append(f"rank of N = {cert.rank_of_n}")
    if int(cert.order_mod_m) != expected_order:
        failures.append("order of F2/M is not 144 * 5^37")
    if int(cert.bound) != expected_order:
        failures.append("bound is not 144 * 5^37")
    if not cert.divides:
        failures.append("divisibility verdict false")

    rng = random.Random(0)
    sub = oracle.schreier.sub_alphabet
    outside = sum(
        1 for _ in range(1000)
        if not inp.k_quotient.fixes_base(
            oracle.pi(oracle.schreier.expand(random_word(rng, sub, 6)))))
    if outside:
        failures.append(f"{outside}/1000 subgroup samples projected outside K")
    verdict(4, "order certificate at n=1, p=5", failures)


def test_criterion_5_affine():
    failures = []
    for r, p in ((5, 11), (3, 7)):
        params = AffineParams.choose(r, p)
        if build_delta(params)["order"] != r * (r - 1):
            failures.append(f"(r,p)=({r},{p}): wrong affine group order")
        if not irreducibility_certificate(params)["passed"]:
            failures.append(f"(r,p)=({r},{p}): irreducibility failed")
        cert = two_generation_certificate(params)
        if not cert["vandermonde_c_is_e11"]:
            failures.append(f"(r,p)=({r},{p}): projection is not the matrix unit")
        if cert["per_copy_spun_dimensions"] != [r - 1] * (r - 2):
            failures.append(f"(r,p)=({r},{p}): spun dimensions "
                            f"{cert['per_copy_spun_dimensions']}")
        if not cert["passed"]:
            failures.append(f"(r,p)=({r},{p}): two-generation failed")
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


def test_criterion_7_determinism(tmp_path):
    failures = []
    runner = CliRunner()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        res = runner.invoke(main, ["verify", "all", "--seed", "42",
                                   "--out", str(out)])
        if res.exit_code != 0:
            failures.append(f"verify all exited {res.exit_code}")
    if not failures and out1.read_bytes() != out2.read_bytes():
        failures.append("reports differ between runs")
    if not failures and hashlib.sha256(out1.read_bytes()).hexdigest() != VERIFY_ALL_SHA256:
        failures.append("report differs from the pinned verify-all digest")
    if not failures:
        report = json.loads(out1.read_text())
        if report["summary"]["fail"]:
            failures.append(f"{report['summary']['fail']} checks failed in the report")
    verdict(7, "byte-identical seeded reports", failures)
