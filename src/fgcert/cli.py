"""Command-line entry point: golden-value suites and certificates.

Every numeric claim the library makes is re-checked here against a
data manifest (``data/golden_checks.json``) so a reviewer can diff the
expected values directly.  Reports are JSON with stable key order; when
a seed is given explicitly the report is byte-reproducible (timestamps
and elapsed times are zeroed).
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import click

from . import __version__
from .affine import (
    AffineError,
    AffineParams,
    build_delta,
    gamma_order,
    geometric_sum_check,
    irreducibility_certificate,
    two_generation_certificate,
)
from .congruence import CongruenceError, CongruenceInput, NOracle, certify
from .homs import (
    compose_auts,
    hom,
    shear_alpha3,
    shear_beta3,
    transvection_alpha,
    transvection_beta,
)
from .magnus import (
    fox_coordinates,
    fox_identity_holds,
    j_composition_identity,
    ka_check,
    local_commutator_check,
    magnus_image,
)
from .quotients import (
    ALPHA_BETA,
    FiniteQuotient,
    SchreierError,
    kernel_subgroup,
    rank2_mod2_kernel,
    rank2_outer_hom,
    rank3_c2_kernel,
    schreier_rank,
    trivial_quotient,
)
from .schreier_modules import (
    action_matrix,
    conjugation_matrix,
    eigen_lattice,
    induced_action,
)
from .words import Word, alphabet, parse_word, random_word


def load_quotient(path: str, option: str) -> FiniteQuotient:
    """The finite quotient in a JSON file; a malformed one is a usage
    error, and so is JSON nested too deep for the parser's recursion."""
    with open(path, encoding="utf-8") as fh:
        try:
            return FiniteQuotient.from_json(json.load(fh))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise click.BadParameter(f"not a finite quotient ({type(exc).__name__}: {exc})",
                                     param_hint=f"'{option}'")


def load_manifest() -> dict:
    text = resources.files("fgcert").joinpath("data/golden_checks.json").read_text("utf-8")
    return json.loads(text)


@dataclass
class Runner:
    """Accumulates CheckResults; stringifies expected/computed so that
    status == pass exactly when the normalized strings agree.

    A check's ``elapsedMillis`` is the time since the previous check, or
    since the runner was made: callers compute the value they pass in
    before calling ``check``, so that interval holds its work.
    """

    deterministic: bool
    checks: list = field(default_factory=list)
    last: float = field(default_factory=time.monotonic)

    def check(self, check_id: str, ref: str, expected, computed) -> bool:
        exp, comp = str(expected), str(computed)
        status = "pass" if exp == comp else "fail"
        now = time.monotonic()
        elapsed = 0 if self.deterministic else int((now - self.last) * 1000)
        self.last = now
        self.checks.append({
            "id": check_id,
            "ref": ref,
            "status": status,
            "expected": exp,
            "computed": comp,
            "elapsedMillis": elapsed,
        })
        return status == "pass"


def make_report(suite: str, seed: int, runner: Runner) -> dict:
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for c in runner.checks:
        counts[c["status"]] += 1
    timestamp = ("1970-01-01T00:00:00Z" if runner.deterministic
                 else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    return {
        "toolVersion": __version__,
        "timestamp": timestamp,
        "suite": suite,
        "seed": seed,
        "checks": runner.checks,
        "summary": counts,
    }


def emit(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = [f"suite: {report['suite']}  (tool {report['toolVersion']})"]
        for c in report["checks"]:
            lines.append(f"  [{c['status'].upper():>4}] {c['id']}: "
                         f"expected {c['expected']} | computed {c['computed']}")
        s = report["summary"]
        lines.append(f"summary: {s['pass']} passed, {s['fail']} failed, "
                     f"{s['skipped']} skipped")
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.BadParameter(f"cannot write the file ({exc})", param_hint="'--out'")
    else:
        click.echo(text, nl=False)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def run_section2(runner: Runner, manifest: dict, rng: random.Random) -> None:
    m = manifest["section2"]
    system = rank2_mod2_kernel()
    sub = system.sub_alphabet
    names = list(m["generators"])

    runner.check("section2.transversal", "index-4 mod-2 kernel coset representatives",
                 " , ".join(m["transversal"]),
                 " , ".join(str(t) for t in system.transversal))
    for i, name in enumerate(names):
        runner.check(f"section2.generator.{name}", "Schreier generator word",
                     m["generators"][name], system.generators[i])

    alpha = transvection_alpha()
    beta = transvection_beta()
    for label, aut, images, rewrites in (
        ("alpha", alpha, m["alphaImages"], m["alphaRewrites"]),
        ("beta", beta, m["betaImages"], m["betaRewrites"]),
    ):
        for i, name in enumerate(names):
            image = aut(system.generators[i])
            runner.check(f"section2.{label}-image.{name}",
                         f"{label} applied to a subgroup generator, as a free word",
                         images[name], image)
            runner.check(f"section2.{label}-rewrite.{name}",
                         f"{label} action row in subgroup generators",
                         rewrites[name], system.rewrite(image))
            runner.check(f"section2.{label}-roundtrip.{name}",
                         "rewrite expands back to the image word",
                         image, system.expand(system.rewrite(image)))

    pi = rank2_outer_hom(system)
    for i, name in enumerate(names):
        runner.check(f"section2.outer-image.{name}",
                     "projection of the subgroup onto the outer rank-2 free group",
                     m["outerImages"][name], pi.images[i])
    for text in m["kernelNormalGenerators"]:
        w = system.expand(parse_word(text, sub))
        runner.check(f"section2.kernel-member.{text.replace(' ', '')}",
                     "normal generator of the projection kernel",
                     True, pi.in_kernel(w))

    for label, aut in (("alpha", alpha), ("beta", beta)):
        for text, expected in m["invarianceRewrites"][label].items():
            w = system.expand(parse_word(text, sub))
            image = aut(w)
            key = text.replace(" ", "")
            runner.check(f"section2.invariance.{label}.{key}.word",
                         "image agrees with the displayed factorization after expansion",
                         image, system.expand(parse_word(expected, sub)))
            runner.check(f"section2.invariance.{label}.{key}.rewrite",
                         "displayed factorization of the image",
                         expected, system.rewrite(image))
            runner.check(f"section2.invariance.{label}.{key}.kernel",
                         "image stays in the projection kernel",
                         True, pi.in_kernel(image))

    # induced action on the outer free group: a, b are the classes of
    # e1, e3; push images through the projection
    e1 = system.generators[0]
    e3 = system.generators[2]
    for label, aut in (("alpha", alpha), ("beta", beta)):
        runner.check(f"section2.induced.{label}.a",
                     "induced action on the class of e1",
                     m["inducedAction"][label]["a"], pi(aut(e1)))
        runner.check(f"section2.induced.{label}.b",
                     "induced action on the class of e3",
                     m["inducedAction"][label]["b"], pi(aut(e3)))


def run_largeness(runner: Runner, manifest: dict, rng: random.Random) -> None:
    m = manifest["largeness"]
    system = rank3_c2_kernel()
    f3 = system.alphabet
    x = f3.generator(0)

    runner.check("largeness.generators", "rank-3 index-2 kernel generators",
                 " , ".join(m["generators"]),
                 " , ".join(str(g) for g in system.generators))
    b_mat = conjugation_matrix(system, x)
    runner.check("largeness.conjugation-matrix",
                 "matrix of conjugation by x on the abelianized subgroup",
                 m["conjugationMatrix"], [list(r) for r in b_mat.rows])

    plus = eigen_lattice(b_mat, 1)
    minus = eigen_lattice(b_mat, -1)
    runner.check("largeness.eigenlattice.plus", "saturated fixed lattice",
                 m["plusOneEigenlattice"], [list(r) for r in plus.basis])
    runner.check("largeness.eigenlattice.minus", "saturated negated lattice",
                 m["minusOneEigenlattice"], [list(r) for r in minus.basis])

    alpha3 = shear_alpha3()
    beta3 = shear_beta3()
    nu_alpha = induced_action(system, alpha3, minus)
    nu_beta = induced_action(system, beta3, minus)
    runner.check("largeness.induced.alpha", "action of the z -> zy shear on the minus lattice",
                 m["inducedAlpha"], [list(r) for r in nu_alpha.rows])
    runner.check("largeness.induced.beta", "action of the y -> yz shear on the minus lattice",
                 m["inducedBeta"], [list(r) for r in nu_beta.rows])

    # sampled commutation: products of subgroup-preserving shears give
    # abelianized actions commuting with the conjugation matrix
    pool = [alpha3, beta3, alpha3.inverse(), beta3.inverse()]
    commuting = 0
    samples = 50
    for _ in range(samples):
        aut = rng.choice(pool)
        for _ in range(rng.randrange(4)):
            aut = compose_auts(aut, rng.choice(pool))
        a_mat = action_matrix(system, aut)
        if a_mat * b_mat == b_mat * a_mat:
            commuting += 1
    runner.check("largeness.commutation-samples",
                 "sampled subgroup-preserving actions commute with conjugation",
                 samples, commuting)


def run_magnus(runner: Runner, manifest: dict, rng: random.Random) -> None:
    word_samples = 10_000
    pair_samples = 1000

    alphabets = [alphabet("x", "y"), alphabet("x", "y", "z")]
    ok = 0
    for _ in range(word_samples):
        a = rng.choice(alphabets)
        w = random_word(rng, a, 30)
        if fox_identity_holds(w):
            ok += 1
    runner.check("magnus.fox-identity", "defining identity of the free derivatives",
                 word_samples, ok)

    for n, m_mod in ((2, 2), (2, 3), (3, 2), (3, 4)):
        a = alphabets[0] if n == 2 else alphabets[1]
        good = 0
        for _ in range(pair_samples):
            w1 = random_word(rng, a, 15)
            w2 = random_word(rng, a, 15)
            if magnus_image(w1 * w2, m_mod) == magnus_image(w1, m_mod) * magnus_image(w2, m_mod):
                good += 1
        runner.check(f"magnus.hom-law.n{n}m{m_mod}",
                     "multiplicativity of the finite triangular embedding",
                     pair_samples, good)

    f2 = alphabets[0]
    good = 0
    pairs = 100
    for _ in range(pairs):
        f = hom(f2, str(random_word(rng, f2, 5)), str(random_word(rng, f2, 5)))
        g = hom(f2, str(random_word(rng, f2, 5)), str(random_word(rng, f2, 5)))
        if j_composition_identity(f, g):
            good += 1
    runner.check("magnus.j-composition", "chain rule for the derivative matrix",
                 pairs, good)

    max_len = 8
    seen: dict = {}
    collisions = 0
    # letter l = 2*gen + (sign < 0); a reduced word of length < max_len
    # grows by the three letters other than the inverse (l ^ 1) of its last
    units = [f2.generator(gen, sign) for gen in range(2) for sign in (1, -1)]
    stack = [(f2.identity(), 0, -1)]  # (word, length, last letter)
    while stack:
        w, length, last = stack.pop()
        key = tuple(c.terms for c in fox_coordinates(w))
        if key in seen and seen[key] != w:
            collisions += 1
        seen[key] = w
        if length < max_len:
            stack.extend((w * u, length + 1, l) for l, u in enumerate(units) if l != last ^ 1)
    runner.check("magnus.fox-injectivity",
                 f"distinct coordinates on all reduced words of length <= {max_len}",
                 0, collisions)

    auts = [transvection_alpha(), transvection_beta(),
            transvection_alpha().inverse(), transvection_beta().inverse()]
    ka = ka_check(auts, 2, pairs=50, rng=rng)
    runner.check("magnus.ka-multiplicative",
                 "finite derivative map multiplicative on congruence-trivial automorphisms",
                 True, ka["passed"])

    for p, k, s, t in ((3, 2, 1, 1), (2, 3, 1, 2)):
        res = local_commutator_check(p, k, s, t, samples=200, rng=rng)
        runner.check(f"magnus.local-commutator.mod{p ** k}",
                     "commutators of unipotent congruence elements vanish mod the ideal product",
                     True, res["passed"])


def sample_of_n(oracle: NOracle, rng: random.Random) -> Word:
    """A random element of N: a word of length <= 6 over its Schreier
    generators, expanded into the free group."""
    return oracle.schreier.expand(random_word(rng, oracle.schreier.sub_alphabet, 6))


def run_congruence(runner: Runner, manifest: dict, rng: random.Random,
                   samples: int = 1000) -> None:
    m = manifest["congruence"]
    inp = CongruenceInput(trivial_quotient(ALPHA_BETA), m["p"])
    oracle = NOracle(inp)
    cert = certify(inp, n_oracle=oracle)
    got = cert.to_json()
    for key in ("n", "p", "indexOfN", "rankOfN", "imageOrderIn4Torus",
                "orderOfF2ModM", "bound", "divides"):
        runner.check(f"congruence.{key}", "order certificate field",
                     m[key], got[key])

    # sampled containment: the outer projection of elements of N lands in
    # K; each count is recorded as soon as it is made, so that each
    # check's interval holds its own loop
    ws = [sample_of_n(oracle, rng) for _ in range(samples)]
    k, fixes_base = inp.k_quotient, oracle.pi.fixes_base
    inside = sum(1 for w in ws if fixes_base(k, w))
    runner.check("congruence.projection-in-k",
                 "projection of sampled subgroup elements lies in K", samples, inside)
    consistent = sum(1 for w in ws if oracle.contains(w) and oracle.schreier.contains(w))
    runner.check("congruence.oracle-agreement",
                 "direct membership test agrees with the coset table", samples, consistent)


def run_affine(runner: Runner, manifest: dict, rng: random.Random) -> None:
    for entry in manifest["affine"]:
        params = AffineParams(entry["r"], entry["p"], entry["xi"])
        tag = f"r{entry['r']}p{entry['p']}"
        delta = build_delta(params)
        runner.check(f"affine.{tag}.delta-order", "order of the affine group",
                     entry["deltaOrder"], delta["order"])
        runner.check(f"affine.{tag}.delta-relations", "defining matrix relations",
                     True, delta["passed"])
        runner.check(f"affine.{tag}.irreducible", "irreducibility certificate",
                     True, irreducibility_certificate(params)["passed"])
        cert = two_generation_certificate(params)
        runner.check(f"affine.{tag}.vandermonde", "projection is the first matrix unit",
                     True, cert["vandermonde_c_is_e11"])
        runner.check(f"affine.{tag}.spun-dimensions",
                     "each copy spins to the full dimension",
                     [entry["dimension"]] * entry["copies"],
                     cert["per_copy_spun_dimensions"])
        runner.check(f"affine.{tag}.two-generated", "two-generation certificate",
                     True, cert["passed"])
        runner.check(f"affine.{tag}.geometric-sums", "partial geometric sums nonzero",
                     True, geometric_sum_check(params)["passed"])


# in the order ``verify all`` runs them
SUITE_RUNNERS = {
    "section2": run_section2,
    "congruence": run_congruence,
    "largeness": run_largeness,
    "magnus": run_magnus,
    "affine": run_affine,
}
SUITES = (*SUITE_RUNNERS, "all")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def main() -> None:
    """Verification suites for free-group rewriting, congruence-order
    certificates, and affine two-generation certificates."""


@main.command()
@click.argument("suite", type=click.Choice(SUITES))
@click.option("--seed", type=int, default=None,
              help="RNG seed for the sampled checks (default 0); giving a "
                   "seed explicitly also makes the report byte-reproducible.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", help="Report format.")
def verify(suite: str, seed: int | None, out: str | None, fmt: str) -> None:
    """Run one golden-check suite (or all of them)."""
    deterministic = seed is not None
    seed = 0 if seed is None else seed
    manifest = load_manifest()
    runner = Runner(deterministic=deterministic)
    names = list(SUITE_RUNNERS) if suite == "all" else [suite]
    for name in names:
        rng = random.Random(seed)
        SUITE_RUNNERS[name](runner, manifest, rng)
    report = make_report(suite, seed, runner)
    emit(report, out, fmt)
    if report["summary"]["fail"]:
        sys.exit(1)


# Cap on --samples of congruence certify: a million samples take under a
# minute (about 40 s on a 2-vCPU host), and a count of 15 digits would
# take years.
SAMPLES_CAP = 1_000_000


@main.group()
def congruence() -> None:
    """Congruence-subgroup order certificates."""


@congruence.command("certify")
@click.option("--k-quotient", "k_path", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="JSON finite quotient over the alphabet (a, b) whose "
                   "base-point stabilizer is K; defaults to the trivial quotient.")
@click.option("--p", "prime", type=int, required=True,
              help="Odd prime not dividing 6n.")
@click.option("--samples", type=click.IntRange(0, SAMPLES_CAP), default=1000,
              show_default=True, help="Sampled containment checks to run.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def congruence_certify(k_path: str | None, prime: int, samples: int,
                       seed: int, out: str | None) -> None:
    """Build N and M for the given K and p and certify the order bound."""
    if k_path is None:
        quotient = trivial_quotient(ALPHA_BETA)
    else:
        quotient = load_quotient(k_path, "--k-quotient")
    try:
        inp = CongruenceInput(quotient, prime)
        oracle = NOracle(inp)
    except (CongruenceError, SchreierError) as exc:
        raise click.UsageError(str(exc))
    cert = certify(inp, n_oracle=oracle)

    rng = random.Random(seed)
    inside = sum(1 for _ in range(samples)
                 if oracle.pi.fixes_base(inp.k_quotient, sample_of_n(oracle, rng)))
    payload = dict(cert.to_json())
    payload["samples"] = samples
    payload["samplesInK"] = inside
    _write(json.dumps(payload, indent=2) + "\n", out)
    if not cert.divides or inside != samples:
        sys.exit(1)


@main.group()
def affine() -> None:
    """Affine semidirect-product certificates."""


@affine.command("certify")
@click.option("--r", "r", type=int, required=True, help="Odd prime r.")
@click.option("--p", "prime", type=int, default=None,
              help="Prime with r | p-1; required unless --find-p is given.")
@click.option("--xi", type=int, default=None,
              help="Element of order exactly r mod p (default: smallest).")
@click.option("--find-p", is_flag=True,
              help="Search for the smallest prime p with p = 1 mod r.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def affine_certify(r: int, prime: int | None, xi: int | None,
                   find_p: bool, out: str | None) -> None:
    """Certify irreducibility and two-generation for the given (r, p)."""
    if prime is None and not find_p:
        raise click.UsageError("give --p or --find-p")
    try:
        params = AffineParams.choose(r, prime, xi)
    except AffineError as exc:
        raise click.UsageError(str(exc))
    delta = build_delta(params)
    irred = irreducibility_certificate(params)
    twogen = two_generation_certificate(params)
    geom = geometric_sum_check(params)
    payload = {
        "r": params.r,
        "p": params.p,
        "xi": params.xi,
        "deltaOrder": delta["order"],
        "deltaRelations": delta["passed"],
        "groupOrder": gamma_order(params).decimal(),
        "irreducible": irred["passed"],
        "twoGeneration": twogen,
        "geometricSumsNonzero": geom["passed"],
    }
    _write(json.dumps(payload, indent=2) + "\n", out)
    if not (delta["passed"] and irred["passed"] and twogen["passed"] and geom["passed"]):
        sys.exit(1)


@main.group()
def quotients() -> None:
    """Coset tables and Schreier systems from finite quotients."""


@quotients.command("schreier")
@click.option("--quotient", "path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON finite quotient description.")
@click.option("--max-cosets", type=click.IntRange(min=1), default=100_000, show_default=True)
def quotients_schreier(path: str, max_cosets: int) -> None:
    """Print the Schreier system of the base-point stabilizer."""
    quotient = load_quotient(path, "--quotient")
    try:
        system = kernel_subgroup(quotient, max_cosets=max_cosets)
    except SchreierError as exc:
        raise click.UsageError(str(exc))
    payload = {
        "index": system.index,
        "rank": schreier_rank(system.index, quotient.alphabet.rank),
        "transversal": [str(t) for t in system.transversal],
        "generators": {str(system.sub_alphabet.generator(i)): str(g)
                       for i, g in enumerate(system.generators)},
    }
    click.echo(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
