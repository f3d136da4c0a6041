"""Span tracer installed from outside the program.

``Tracer.install`` wraps the public functions and methods of every
fgcert module at their module and class attributes, including names a
module re-binds with ``from .x import y`` and the suite table of the
CLI.  Nothing in fgcert is edited; the wrappers exist only in the traced
process.

Each call becomes a span (id, parent id, name, start, end) of one run.
Aggregates are kept per *key*: a key is one function, or a few
functions that do one job (the ``step`` of every coset action, say).
For each key the tracer counts calls and keeps

* busy time: the union of the key's spans, so nested calls of the same
  key are not counted twice;
* self time: span durations minus the time covered by child spans.

Per module it keeps busy time the same way.  Only spans of at least
``KEEP_MIN_S`` or at depth below ``KEEP_DEPTH`` are stored, so the
stored set is closed under parents; the aggregates count every span.
Spans stay in memory and are written out by ``write``.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import time

LAYERS = ("words", "homs", "quotients", "intlinalg", "schreier_modules",
          "magnus", "congruence", "affine", "cli")

KEEP_MIN_S = 1e-3
KEEP_DEPTH = 2
KEEP_MAX = 200_000

# Dunder methods that are operations of the algebra; the remaining ones
# (eq, hash, repr, dataclass-generated init) are plumbing.
OPERATOR_DUNDERS = {"__call__", "__mul__", "__pow__", "__add__", "__sub__", "__neg__"}

# Accessors left unwrapped: called 5.6M times per `verify all` run for no
# work a layer metric counts, they took a traced run from 8.2M spans to
# 13.8M.  Their time is their caller's.
UNWRAPPED = {"words.Word.length", "words.Alphabet.generator", "words.Alphabet.identity"}

# Functions that share one aggregate key.
SHARED_KEYS = {
    "quotients.FiniteQuotient.step": "quotients.step",
    "quotients.InducedAction.step": "quotients.step",
    "quotients.ProductAction.step": "quotients.step",
    "quotients.SubgroupHom.__call__": "quotients.subhom",
    "quotients.SubgroupHom.evaluate_sub": "quotients.subhom",
    "quotients.SubgroupHom.in_kernel": "quotients.subhom",
    "homs.compose": "homs.compose",
    "homs.compose_auts": "homs.compose",
    "congruence.NOracle.contains": "congruence.contains",
    "congruence.MOracle.contains": "congruence.contains",
    "magnus.j_of_endo": "magnus.jmat",
    "magnus.j_composition_identity": "magnus.jmat",
    "magnus.ka_check": "magnus.jmat",
    "magnus.twist_matrix": "magnus.jmat",
    "magnus.mat_mul": "magnus.jmat",
    # the CLI's own code: commands and report writing
    "cli.emit": "cli.emit",
    "cli.verify": "cli.emit",
    "cli.congruence_certify": "cli.emit",
    "cli.affine_certify": "cli.emit",
    "cli.quotients_schreier": "cli.emit",
}


def _letters(w) -> int:
    return sum(abs(e) for _, e in w.syllables)


# Work counts read off arguments or results: key -> (counter, hook).
COUNT_HOOKS = {
    "quotients.build_schreier_system": ("quotients.cosets", lambda a, r: r.index),
    "congruence.NOracle.__init__": ("congruence.index_of_n", lambda a, r: a[0].index),
    "schreier_modules.eigen_lattice": ("schreier_modules.lattice_rank", lambda a, r: len(r.basis)),
    "affine.two_generation_certificate":
        ("affine.spun_dim", lambda a, r: r["total_spun_dimension"]),
    "magnus.fox_coordinates": ("magnus.fox_letters", lambda a, r: _letters(a[0])),
}

# Per-layer metrics: name -> (unit, field, key).  field is "calls",
# "busy" or "self" of an aggregate key, or "count" of a work counter.
LAYER_METRICS = {
    "words.mul_calls": ("count", "calls", "words.Word.__mul__"),
    "words.mul_s": ("s", "busy", "words.Word.__mul__"),
    "words.letters_calls": ("count", "calls", "words.Word.letters"),
    "homs.apply_calls": ("count", "calls", "homs.FreeHom.__call__"),
    "homs.apply_s": ("s", "busy", "homs.FreeHom.__call__"),
    "homs.compose_s": ("s", "busy", "homs.compose"),
    "quotients.bfs_s": ("s", "busy", "quotients.build_schreier_system"),
    "quotients.cosets": ("count", "count", "quotients.cosets"),
    "quotients.step_calls": ("count", "calls", "quotients.step"),
    "quotients.step_s": ("s", "busy", "quotients.step"),
    "quotients.rewrite_calls": ("count", "calls", "quotients.SchreierSystem.rewrite"),
    "quotients.rewrite_s": ("s", "busy", "quotients.SchreierSystem.rewrite"),
    "quotients.expand_s": ("s", "busy", "quotients.SchreierSystem.expand"),
    "quotients.subhom_s": ("s", "busy", "quotients.subhom"),
    "intlinalg.hnf_calls": ("count", "calls", "intlinalg.row_hnf"),
    "intlinalg.hnf_s": ("s", "busy", "intlinalg.row_hnf"),
    "intlinalg.kernel_s": ("s", "busy", "intlinalg.kernel_basis"),
    "intlinalg.matmul_s": ("s", "busy", "intlinalg.IntMatrix.__mul__"),
    "schreier_modules.action_matrix_s": ("s", "busy", "schreier_modules.action_matrix"),
    "schreier_modules.eigen_lattice_s": ("s", "busy", "schreier_modules.eigen_lattice"),
    "schreier_modules.induced_action_s": ("s", "busy", "schreier_modules.induced_action"),
    "schreier_modules.lattice_rank": ("count", "count", "schreier_modules.lattice_rank"),
    "magnus.fox_calls": ("count", "calls", "magnus.fox_coordinates"),
    "magnus.fox_letters": ("count", "count", "magnus.fox_letters"),
    "magnus.fox_s": ("s", "busy", "magnus.fox_coordinates"),
    "magnus.image_calls": ("count", "calls", "magnus.magnus_image"),
    "magnus.image_s": ("s", "busy", "magnus.magnus_image"),
    "magnus.phi_mul_s": ("s", "busy", "magnus.PhiElement.__mul__"),
    "magnus.jmat_s": ("s", "busy", "magnus.jmat"),
    "congruence.noracle_s": ("s", "busy", "congruence.NOracle.__init__"),
    "congruence.certify_s": ("s", "busy", "congruence.certify"),
    "congruence.contains_calls": ("count", "calls", "congruence.contains"),
    "congruence.contains_s": ("s", "busy", "congruence.contains"),
    "congruence.index_of_n": ("count", "count", "congruence.index_of_n"),
    "affine.delta_s": ("s", "busy", "affine.build_delta"),
    "affine.twogen_self_s": ("s", "self", "affine.two_generation_certificate"),
    "affine.conj_translation_s": ("s", "busy", "affine.conjugate_translation"),
    "affine.gamma_mul_calls": ("count", "calls", "affine.GammaElement.__mul__"),
    "affine.gamma_mul_s": ("s", "busy", "affine.GammaElement.__mul__"),
    "affine.spun_dim": ("count", "count", "affine.spun_dim"),
    "cli.suite_s.section2": ("s", "busy", "cli.run_section2"),
    "cli.suite_s.largeness": ("s", "busy", "cli.run_largeness"),
    "cli.suite_s.congruence": ("s", "busy", "cli.run_congruence"),
    "cli.suite_s.affine": ("s", "busy", "cli.run_affine"),
    "cli.emit_s": ("s", "self", "cli.emit"),
}


class Tracer:
    """Spans and aggregates of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list[list] = []    # open spans: [id, start, child seconds]
        self.keys: dict[str, list] = {}  # key -> [calls, busy, self, open count]
        self.modules = {m: [0.0, 0] for m in LAYERS}  # layer -> [busy, open count]
        self.counts = {counter: 0 for counter, _ in COUNT_HOOKS.values()}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._wrapped: dict[int, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        """The traced stand-in for ``fn``; one per function object."""
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        layer = qualname.split(".", 1)[0]
        key = SHARED_KEYS.get(qualname, qualname)
        stat = self.keys.setdefault(key, [0, 0.0, 0.0, 0])
        mstat = self.modules[layer]
        hook = COUNT_HOOKS.get(qualname)
        counts = self.counts
        stack, spans, ids = self.stack, self.spans, self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            start = clock()
            frame = [next(ids), start, 0.0]
            stack.append(frame)
            stat[3] += 1
            mstat[1] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[2] += dur - frame[2]
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += dur
                mstat[1] -= 1
                if not mstat[1]:
                    mstat[0] += dur
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    pid = parent[0]
                else:
                    pid = 0
                if dur >= KEEP_MIN_S or len(stack) < KEEP_DEPTH:
                    if len(spans) < KEEP_MAX:
                        spans.append((frame[0], pid, qualname, start, end))
                    else:
                        tracer.dropped += 1
            if hook is not None:
                counts[hook[0]] += hook[1](args, result)
            return result

        self._wrapped[id(fn)] = traced
        return traced

    def install(self, package) -> int:
        """Wrap every public function and method of the package's layer
        modules; returns the number of functions wrapped."""
        import click

        modules = [getattr(package, name) for name in LAYERS]

        def layer_of(obj) -> str | None:
            mod = getattr(obj, "__module__", "") or ""
            head, _, tail = mod.partition(".")
            return tail if head == package.__name__ and tail in LAYERS else None

        # functions, wherever they are bound
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of(obj)
                if layer:
                    self._wrap(obj, f"{layer}.{obj.__qualname__}")
        # click command callbacks
        for obj in vars(package.cli).values():
            if isinstance(obj, click.Command) and obj.callback is not None:
                fn = obj.callback
                obj.callback = self._wrap(fn, f"cli.{fn.__name__}")
        # methods, on the class that defines them
        seen_classes = set()
        for mod in modules:
            for obj in vars(mod).values():
                if (not inspect.isclass(obj) or id(obj) in seen_classes
                        or issubclass(obj, BaseException)):
                    continue
                seen_classes.add(id(obj))
                layer = layer_of(obj)
                if layer:
                    self._wrap_class(obj, layer)
        # re-bind module attributes and table entries to the wrappers
        wrapped = self._wrapped
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            obj[k] = wrapped[id(v)]
        return len(self._wrapped)

    def _wrap_class(self, cls, layer: str) -> None:
        is_dataclass = hasattr(cls, "__dataclass_fields__")
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or name in OPERATOR_DUNDERS
            if name == "__init__" and not is_dataclass:
                public = True
            if not public or getattr(attr, "__module__", cls.__module__) != cls.__module__:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if qual in UNWRAPPED:
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, qual)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, qual)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, qual))

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span around one phase of the benchmark (set-up, a pass)."""
        start = time.perf_counter()
        frame = [next(self._ids), start, 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans.append((frame[0], 0, f"bench.{name}", start, time.perf_counter()))

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""
        out = {}
        fields = {"calls": 0, "busy": 1, "self": 2}
        for name, (unit, field, key) in LAYER_METRICS.items():
            if field == "count":
                value = self.counts[key]
            else:
                value = self.keys.get(key, [0, 0.0, 0.0, 0])[fields[field]]
            out[name] = (value, unit)
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (self.modules[layer][0], "s")
            out[f"{layer}.self_s"] = (
                sum(st[2] for key, st in self.keys.items() if key.split(".", 1)[0] == layer),
                "s")
        out["trace.spans"] = (sum(st[0] for st in self.keys.values()), "count")
        return out

    def write(self, path, header: dict) -> None:
        """Write the stored spans and the aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            head = dict(header, run=self.run_id, spans_kept=len(self.spans),
                        spans_dropped=self.dropped, keep_min_s=KEEP_MIN_S,
                        keep_depth=KEEP_DEPTH)
            fh.write(json.dumps(head) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            for key, (calls, busy, self_s, _) in sorted(self.keys.items()):
                if calls:
                    fh.write(json.dumps({"run": self.run_id, "key": key, "calls": calls,
                                         "busy_s": busy, "self_s": self_s}) + "\n")
