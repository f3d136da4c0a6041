"""The three benchmark workloads and their output gates.

Each workload has ``setup()`` (everything before the timed phase) and
``run_pass()``, which does the workload's fixed batch once and returns
one ``Op`` per operation: a suite or single check, a certificate step,
a certificate or a query.  An op whose gate fails is a failed
operation.  A failure that matches a documented defect of the program
is marked ``expected``; any other failure makes the run incorrect.

Why these workloads:

* paper-checks reproduces the paper: the golden checks of
  ``fgcert verify all --seed S``, the magnus suite split into its
  single checks; the words and magnus layers do its work.
* certify-ladder certifies new inputs, the other thing a user waits
  for.  Its congruence part runs the steps of ``fgcert congruence
  certify`` for two K of each index 3 and 4: the coset-table BFS over
  product and induced actions does that work, and its memory is the
  coset tables.  Its affine part certifies two-generation for r in
  {13, 17, 19, 23}, and for r = 23 once more at a prime above 2^31:
  mod-p spinning and affine-group products do that work.
* schreier-queries reads the Schreier systems that certify-ladder
  writes: rewriting, membership and module queries against a built N.
  It is the only workload where intlinalg and schreier_modules do
  measurable work.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import inputs

# Documented defect: ``congruence certify`` formats the bound with str(),
# which exceeds CPython's 4300-digit int->str limit from index 4 on.
KNOWN_DEFECT = "integer string conversion"
# The suites of ``fgcert verify all`` that run through the CLI; the
# magnus suite runs as its single checks.
CLI_SUITES = ("section2", "largeness", "congruence", "affine")


@dataclass
class Op:
    """One operation: its latency (None if untimed) and gate outcome."""

    name: str
    seconds: float | None
    ok: bool
    expected: bool = False
    detail: str = ""


@dataclass
class Context:
    seed: int
    size: str
    out_dir: Path
    pins: dict


def invoke(cli, args: list[str]) -> int:
    """Run the fgcert CLI in-process; returns its exit code."""
    try:
        cli.main(args, prog_name="fgcert", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def _failure(name: str, seconds: float, exc: Exception) -> Op:
    expected = type(exc) is ValueError and KNOWN_DEFECT in str(exc)
    detail = (f"known defect: {exc}" if expected
              else "".join(traceback.format_exception(exc)).strip())
    return Op(name, seconds, False, expected, detail)


class PaperChecks:
    """The golden checks of ``fgcert verify all``, as small operations.

    The section2, largeness, congruence and affine suites run through
    the CLI, one ``fgcert verify <suite> --seed S`` each.  The magnus
    suite, 31 of verify-all's 32 s, runs as its checks: one operation
    per Fox identity word, hom-law pair and chain-rule pair, plus the
    injectivity, ka and local commutator checks, on seeded inputs drawn
    as the suite draws them, at about a twelfth of its sample counts.
    Small operations can be repeated in every run, so each one's fastest
    time is well defined; one 32 s ``verify all`` is not.
    """

    name = "paper-checks"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.digests_path = ctx.out_dir / "paper-checks-digests.json"

    def setup(self) -> dict:
        from fgcert import cli, homs, magnus
        from fgcert.homs import transvection_alpha, transvection_beta
        from fgcert.words import Word, alphabet

        self.cli, self.homs, self.magnus = cli, homs, magnus
        rng = inputs.rng_for(self.ctx.seed, self.name)
        spec = inputs.magnus_checks(rng, inputs.SIZES[self.ctx.size])
        alphas = {2: alphabet("x", "y"), 3: alphabet("x", "y", "z")}
        self.f2 = alphas[2]
        self.auts = [transvection_alpha(), transvection_beta(),
                     transvection_alpha().inverse(), transvection_beta().inverse()]
        self.checks = [(f"suite:{suite}", self._suite, (suite,)) for suite in CLI_SUITES]
        for i, (rank, letters) in enumerate(spec["fox"]):
            w = Word.from_syllables(alphas[rank], letters)
            self.checks.append((f"fox#{i}", self._fox, (w,)))
        for i, (n, m, a, b) in enumerate(spec["hom_law"]):
            w1, w2 = (Word.from_syllables(alphas[n], x) for x in (a, b))
            self.checks.append((f"hom-law-n{n}m{m}#{i}", self._hom_law, (w1, w2, m)))
        for i, texts in enumerate(spec["j_composition"]):
            self.checks.append((f"j-composition#{i}", self._j_composition, (texts,)))
        self.checks.append(("fox-injectivity", self._injectivity,
                            (spec["injectivity_length"],)))
        self.checks.append(("ka", self._ka, (spec["ka"]["pairs"], spec["ka"]["seed"])))
        for c in spec["local_commutator"]:
            p, k = c["case"][:2]
            self.checks.append((f"local-commutator-mod{p ** k}", self._local_commutator,
                                (c["case"], c["samples"], c["seed"])))
        return {"cli_suites": list(CLI_SUITES), "operations": len(self.checks),
                "fox_words": len(spec["fox"]), "hom_law_pairs": len(spec["hom_law"]),
                "j_pairs": len(spec["j_composition"]),
                "injectivity_length": spec["injectivity_length"],
                "ka_pairs": spec["ka"]["pairs"]}

    def _expected_digest(self, suite: str, digest: str) -> tuple[str, str]:
        """The pinned digest of the suite's report for this seed, else
        the one first recorded in this checkout (recording it if absent)."""
        seed = str(self.ctx.seed)
        pinned = self.ctx.pins.get(self.name, {}).get(suite, {})
        if seed in pinned:
            return pinned[seed], "pinned"
        recorded = {}
        if self.digests_path.exists():
            recorded = json.loads(self.digests_path.read_text("utf-8"))
        key = f"{suite}:{seed}"
        if key not in recorded:
            recorded[key] = digest
            inputs.write_json(self.digests_path, recorded)
        return recorded[key], "recorded"

    def _suite(self, suite: str) -> tuple[bool, str]:
        out = self.ctx.out_dir / f"verify-{suite}-s{self.ctx.seed}.json"
        out.unlink(missing_ok=True)
        code = invoke(self.cli, ["verify", suite, "--seed", str(self.ctx.seed),
                                 "--out", str(out)])
        data = out.read_bytes()
        report = json.loads(data)
        failed = [c["id"] for c in report["checks"] if c["status"] != "pass"]
        digest = hashlib.sha256(data).hexdigest()
        want, source = self._expected_digest(suite, digest)
        ok = (code == 0 and bool(report["checks"]) and not failed
              and report["summary"]["fail"] == 0 and digest == want)
        return ok, (f"exit {code}, {len(report['checks'])} checks, failed: {failed}, "
                    f"sha256 {digest} ({source} {want})")

    def _fox(self, w) -> tuple[bool, str]:
        return self.magnus.fox_identity_holds(w) is True, "Fox identity"

    def _hom_law(self, w1, w2, m: int) -> tuple[bool, str]:
        image = self.magnus.magnus_image
        ok = image(w1 * w2, m) == image(w1, m) * image(w2, m)
        return ok, f"hom law mod {m}"

    def _j_composition(self, texts: list[str]) -> tuple[bool, str]:
        f = self.homs.hom(self.f2, texts[0], texts[1])
        g = self.homs.hom(self.f2, texts[2], texts[3])
        return self.magnus.j_composition_identity(f, g) is True, f"chain rule for {texts}"

    def _injectivity(self, max_len: int) -> tuple[bool, str]:
        fox_coordinates = self.magnus.fox_coordinates
        f2 = self.f2
        seen: dict = {}
        collisions = 0
        stack = [f2.identity()]
        while stack:
            w = stack.pop()
            key = tuple(c.terms for c in fox_coordinates(w))
            if key in seen and seen[key] != w:
                collisions += 1
            seen[key] = w
            if w.length() < max_len:
                for gen in range(2):
                    for sign in (1, -1):
                        nxt = w * f2.generator(gen, sign)
                        if nxt.length() > w.length():
                            stack.append(nxt)
        return collisions == 0 and len(seen) > 1, f"{len(seen)} words, {collisions} collisions"

    def _ka(self, pairs: int, seed: int) -> tuple[bool, str]:
        res = self.magnus.ka_check(self.auts, 2, pairs=pairs, rng=random.Random(seed))
        return res["passed"] is True, f"ka_check {res}"

    def _local_commutator(self, case, samples: int, seed: int) -> tuple[bool, str]:
        res = self.magnus.local_commutator_check(*case, samples=samples,
                                                 rng=random.Random(seed))
        return res["passed"] is True, f"local commutator {res}"

    def run_pass(self) -> list[Op]:
        ops = []
        clock = time.perf_counter
        for name, fn, args in self.checks:
            start = clock()
            try:
                ok, detail = fn(*args)
            except Exception as exc:  # the run reports the failure and goes on
                ops.append(_failure(name, clock() - start, exc))
                continue
            ops.append(Op(name, clock() - start, ok, detail="" if ok else detail))
        return ops


class CongruenceLadder:
    """The congruence part of certify-ladder: the steps of ``fgcert
    congruence certify``, each timed on its own.

    For every K (two of each index 3 and 4, p = 5) a pass builds N from
    scratch (the coset-table BFS over product and induced actions),
    certifies the order bound, formats the certificate as the CLI does,
    and checks seeded sample elements of N, one operation each: the
    projection of each must fix the base point, so lie in K.  A whole
    ``congruence certify`` takes 0.6-1.5 s; its fastest of a few
    repetitions still moved by a quarter between runs.  Split, its
    samples are sub-millisecond operations and only the BFS stays long.
    """

    name = "congruence-ladder"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes = inputs.SIZES[ctx.size]

    def setup(self) -> dict:
        from fgcert.quotients import FiniteQuotient

        rng = inputs.rng_for(self.ctx.seed, self.name)
        self.rungs = []
        for n in self.sizes["ladder"]:
            for copy in range(self.sizes["ks_per_index"]):
                data = inputs.k_quotient(self.ctx.seed, n, copy)
                inputs.write_json(self.ctx.out_dir / f"k-index{n}#{copy}-s{self.ctx.seed}.json",
                                  data)
                samples = [inputs.random_letters(rng, inputs.rank_of_n(n), inputs.SAMPLE_WORD_MAX)
                           for _ in range(self.sizes["samples"])]
                self.rungs.append((f"index{n}#{copy}", n, inputs.congruence_prime(n),
                                   FiniteQuotient.from_json(data), samples))
        return {"ladder": list(self.sizes["ladder"]),
                "ks_per_index": self.sizes["ks_per_index"],
                "primes": [p for _, _, p, _, _ in self.rungs],
                "samples": self.sizes["samples"]}

    def _rung(self, tag: str, n: int, p: int, quotient, samples: list) -> list[Op]:
        from fgcert.congruence import CongruenceInput, NOracle, certify
        from fgcert.words import Word

        ops = []
        clock = time.perf_counter
        names = [f"{tag}:build", f"{tag}:certify", f"{tag}:format"] + [
            f"{tag}:sample#{i}" for i in range(len(samples))]

        def step(fn, gate):
            name = names[len(ops)]
            start = clock()
            try:
                result = fn()
            except Exception as exc:  # the run reports the failure and goes on
                ops.append(_failure(name, clock() - start, exc))
                return None
            elapsed = clock() - start
            ok, detail = gate(result)
            ops.append(Op(name, elapsed, ok, detail="" if ok else detail))
            return result if ok else None

        inp = CongruenceInput(quotient, p)
        oracle = step(lambda: NOracle(inp),
                      lambda o: (o.index == 36 * n ** 4, f"[F:N] = {o.index}"))
        if oracle is None:
            return ops + [Op(name, None, False, detail="not run: N was not built")
                          for name in names[1:]]
        cert = step(lambda: certify(inp, n_oracle=oracle),
                    lambda c: (c.divides is True and c.n == n, f"divides {c.divides}, n {c.n}"))
        if cert is None:
            ops.append(Op(names[2], None, False, detail="not run: certify failed"))
        else:
            step(cert.to_json, lambda d: (d["indexOfN"] == oracle.index,
                                          f"indexOfN {d['indexOfN']}"))
        sub, k = oracle.schreier.sub_alphabet, inp.k_quotient
        for letters in samples:
            step(lambda: k.fixes_base(oracle.pi(oracle.schreier.expand(
                     Word.from_syllables(sub, letters)))),
                 lambda inside: (inside is True, f"{letters}: projection not in K"))
        return ops

    def run_pass(self) -> list[Op]:
        return [op for rung in self.rungs for op in self._rung(*rung)]


class AffineLadder:
    """The affine part of certify-ladder: ``fgcert affine certify`` per rung."""

    name = "affine-ladder"

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> dict:
        from fgcert import cli

        self.cli = cli
        rng = inputs.rng_for(self.ctx.seed, self.name)
        self.rungs = [inputs.affine_params(rng, r, above)
                      for r, above in inputs.SIZES[self.ctx.size]["affine"]]
        return {"ladder": [list(x) for x in self.rungs]}

    def _certify(self, r: int, p: int, xi: int) -> Op:
        out = self.ctx.out_dir / f"affine-r{r}-p{p}-s{self.ctx.seed}.json"
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = invoke(self.cli, ["affine", "certify", "--r", str(r), "--p", str(p),
                                     "--xi", str(xi), "--out", str(out)])
            elapsed = time.perf_counter() - start
            cert = json.loads(out.read_text("utf-8"))
        except Exception as exc:  # the run reports the failure and goes on
            return _failure(f"r{r}p{p}", time.perf_counter() - start, exc)
        twogen = cert["twoGeneration"]
        ok = (code == 0 and (cert["r"], cert["p"], cert["xi"]) == (r, p, xi)
              and cert["deltaRelations"] is True and cert["irreducible"] is True
              and twogen["passed"] is True and cert["geometricSumsNonzero"] is True
              and twogen["total_spun_dimension"] == (r - 1) * (r - 2))
        return Op(f"r{r}p{p}", elapsed, ok,
                  detail=f"exit {code}, p {p}, xi {xi}, "
                         f"spun {twogen['total_spun_dimension']}")

    def run_pass(self) -> list[Op]:
        return [self._certify(*rung) for rung in self.rungs]


class CertifyLadder:
    """Both certificate ladders in one pass, congruence first.  Each part
    keeps its own name, so its inputs come from its own seeded stream."""

    name = "certify-ladder"

    def __init__(self, ctx: Context):
        self.parts = [CongruenceLadder(ctx), AffineLadder(ctx)]

    def setup(self) -> dict:
        return {part.name: part.setup() for part in self.parts}

    def run_pass(self) -> list[Op]:
        return [op for part in self.parts for op in part.run_pass()]


class SchreierQueries:
    name = "schreier-queries"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes = inputs.SIZES[ctx.size]

    def setup(self) -> dict:
        from fgcert.congruence import CongruenceInput, MOracle, NOracle
        from fgcert.homs import shear_alpha3, shear_beta3
        from fgcert.quotients import FiniteQuotient, kernel_subgroup
        from fgcert.schreier_modules import conjugation_matrix
        from fgcert.words import Word, alphabet, commutator

        rng = inputs.rng_for(self.ctx.seed, self.name)
        n = self.sizes["schreier_k_index"]
        self.p = inputs.congruence_prime(n)
        k = FiniteQuotient.from_json(inputs.k_quotient(self.ctx.seed, n))
        self.noracle = NOracle(CongruenceInput(k, self.p))
        self.moracle = MOracle(self.noracle)
        schreier = self.noracle.schreier

        # kernel of F(x, y, z) -> Z/m, x -> 1, y, z -> 0: normal, so
        # conjugation by x acts on it, and the shears preserve it
        xyz = alphabet("x", "y", "z")
        m = self.sizes["kernel_index"]
        cycle = tuple((i + 1) % m for i in range(m))
        fixed = tuple(range(m))
        self.kernel = kernel_subgroup(FiniteQuotient(xyz, m, (cycle, fixed, fixed)))
        self.conj = conjugation_matrix(self.kernel, xyz.generator(0))
        self.shears = [shear_alpha3(), shear_beta3(),
                       shear_alpha3().inverse(), shear_beta3().inverse()]

        sub, f2 = schreier.sub_alphabet, schreier.alphabet
        self.queries = []
        for q in inputs.schreier_queries(rng, self.sizes["queries"], sub.rank, self.p):
            if q["kind"] == "module":
                self.queries.append(("module", q["shears"]))
                continue
            u = Word.from_syllables(sub, q["u"])
            if q["kind"] == "roundtrip":
                self.queries.append(("roundtrip", u))
            elif q["kind"] == "agree":
                w = schreier.expand(u)
                if q["perturb"]:
                    c1, c2 = (Word.from_syllables(f2, c) for c in q["c"])
                    w = w * commutator(c1, c2)
                self.queries.append(("agree", w))
            else:
                u = u ** q["power"]
                w = schreier.expand(u)
                expect = (all(s % 4 == 0 for s in w.exponent_sums())
                          and all(e % self.p == 0 for e in u.exponent_sums()))
                self.queries.append(("m_member", (w, expect)))
        kinds = [kind for kind, _ in self.queries]
        return {"k_index": n, "p": self.p, "index_of_n": self.noracle.index,
                "kernel_index": m, "queries": len(self.queries),
                "query_kinds": {k: kinds.count(k) for k in sorted(set(kinds))}}

    def _module(self, shears: list[int]) -> tuple[bool, tuple]:
        from fgcert.homs import compose_auts
        from fgcert.schreier_modules import action_matrix, eigen_lattice

        aut = self.shears[shears[0]]
        for s in shears[1:]:
            aut = compose_auts(aut, self.shears[s])
        a = action_matrix(self.kernel, aut)
        commutes = a * self.conj == self.conj * a
        lattice = eigen_lattice(a, 1)
        fixed = all(a.apply(v) == tuple(v) for v in lattice.basis)
        return commutes and fixed, ("commutes", commutes, "eigenvectors fixed", fixed)

    def _answer(self, kind: str, arg) -> tuple[bool, tuple]:
        """The gate's verdict and what it compared; the latter is only
        formatted when the gate fails, outside the hot path."""
        schreier = self.noracle.schreier
        if kind == "roundtrip":
            back = schreier.rewrite(schreier.expand(arg))
            return back == arg, (arg, "rewrote to", back)
        if kind == "agree":
            direct, table = self.noracle.contains(arg), schreier.contains(arg)
            return direct == table, ("NOracle", direct, "coset table", table)
        if kind == "m_member":
            w, expect = arg
            got = self.moracle.contains(w)
            return got == expect, ("MOracle", got, "expected", expect)
        return self._module(arg)

    def run_pass(self) -> list[Op]:
        ops = []
        clock = time.perf_counter
        for i, (kind, arg) in enumerate(self.queries):
            start = clock()
            try:
                ok, compared = self._answer(kind, arg)
            except Exception as exc:  # the run reports the failure and goes on
                ops.append(_failure(f"{kind}#{i}", clock() - start, exc))
                continue
            elapsed = clock() - start
            ops.append(Op(f"{kind}#{i}", elapsed, ok,
                          detail="" if ok else " ".join(map(str, compared))))
        return ops


WORKLOADS = {w.name: w for w in (PaperChecks, CertifyLadder, SchreierQueries)}
