"""Finite quotients, coset tables, Schreier transversals and rewriting.

Subgroups are always presented through an action on a finite coset
space, from one or more finite quotients over one alphabet: the
stabilizer of the tuple of their base points is the intersection of
theirs.  A :class:`FiniteQuotient` gives the regular (or any
permutation) action of a free group; :func:`induced_quotient` compiles
a preimage's action into one, without coset enumeration.

The coset table is built by breadth-first search from the base point,
trying generators in index order, positive letter before negative; this
fixes the transversal {1, x, y, xy} for the rank-2 mod-2 kernel and
makes every golden value deterministic.  The BFS lists each Schreier
generator when it meets the off-tree edge, so they come in (transversal
position, generator) lexicographic order.  Several quotients are folded
in from last to first: each stage is a BFS over the pairs (point of
q_j, coset of the later quotients' orbit), keyed by one int, and only
the last stage records the tree and the edges.  The orbit of the tuple
of base points maps one to one onto the last stage's, with the same
edges, so the BFS order is that of the tuples.

The search runs on ints only.  Letter l = 2*gen + (sign < 0) indexes the
per-letter tables of every quotient and of the coset table, the
transversal is kept as BFS-tree parent pointers, and transversal and
Schreier-generator words are read off the tree only when asked for: a
Schreier transversal is a spanning tree of the coset graph, so each
representative is a path in the table, not a stored word (Sims,
*Computation with Finitely Presented Groups*, 1994, ch. 5).  A word is
spelled by grouping equal letters, with no free reduction: a tree path
never turns back, and in t_c x t_c'^-1 neither junction cancels, since
x after the last letter of t_c, or before the first letter of t_c'^-1,
cancels only when (c, x) is a tree edge in one direction or the other.

A subgroup hom holds a ``homs.FreeHom`` on the Schreier generators, and
is evaluated off a move table, built on its first evaluation: for each
letter and coset, the syllables that step emits, the syllables the
``FreeHom`` keeps of the image of the Schreier generator it sweeps
out, of that image's inverse, or none.  One walk of the word through
the move table and the coset table joins them, and one reduction ends
it; no Schreier letter or word over the Schreier generators is built in
between.  ``SubgroupHom.fixes_base`` walks a word and acts on a finite
quotient q of the target as it goes, since an action needs no reduced
word: the move table and q's permutations are compiled, once per
quotient, into a walk table on the pairs (coset, point of q), and the
walk costs one lookup per letter; nothing is built.  The tree paths t_c
and t_c^-1 emit nothing, so the walk from coset c emits the image of
t_c w t_c^-1: ``SubgroupHom.walk_quotient`` gives the walk table as a
finite quotient of the ambient group based at (c, base point of q),
whose base-point stabilizer is t_c^-1 H t_c for H the preimage of q's,
so one coset table of several of them decides membership in the
intersection of conjugate preimages in one walk.  The walk table comes from the move
table, not from ``induced_quotient``, so a membership test through it
stays independent of the actions a coset table is built from.
``SchreierSystem.expand`` joins the cached syllables of the generator
words and of their inverses in ``words.substitute``, which reduces
only where one of them meets what came before it.  Every walk of a
word through a coset or quotient table (``_act``, ``sweep``) steps a
unit syllable at once, with no inner loop.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .homs import FreeHom
from .words import (
    Alphabet,
    Word,
    WordError,
    _reduce,
    alphabet,
    numbered_alphabet,
    substitute,
)

# The default cap on the cosets of a Schreier system, wherever one is
# built and for `quotients schreier --max-cosets`.  [F : N] divides
# 36 n^4, so it admits N for every K of index n <= 7 (86,436 cosets at
# n = 7).
MAX_COSETS = 100_000


class SchreierError(ValueError):
    """Raised for invalid coset data or out-of-subgroup rewriting."""


def _act(tables: Sequence[Sequence[int]], state: int,
         syllables: Iterable[tuple[int, int]]) -> int:
    """Image of ``state`` under the word of ``syllables`` for per-letter
    int tables; a unit syllable is one step."""
    for gen, exp in syllables:
        if exp == 1:
            state = tables[2 * gen][state]
        elif exp == -1:
            state = tables[2 * gen + 1][state]
        elif exp > 0:
            table = tables[2 * gen]
            for _ in range(exp):
                state = table[state]
        else:
            table = tables[2 * gen + 1]
            for _ in range(-exp):
                state = table[state]
    return state


@dataclass(frozen=True)
class FiniteQuotient:
    """Permutation images of the generators acting on {0..size-1}.

    ``perms[i][p]`` is the image of point p under generator i.  The
    coset space of the base-point stabilizer is the orbit of
    ``base_point`` (the action need not be transitive on all points).
    """

    alphabet: Alphabet
    size: int
    perms: tuple[tuple[int, ...], ...]
    base_point: int = 0

    def __post_init__(self):
        if len(self.perms) != self.alphabet.rank:
            raise SchreierError("one permutation per generator required")
        for p in self.perms:
            # the length first: a size far past the points given is refused
            # before any list of that size is made
            if len(p) != self.size or sorted(p) != list(range(self.size)):
                raise SchreierError(f"not a permutation of 0..{self.size - 1}: {p}")
        if not 0 <= self.base_point < self.size:
            raise SchreierError("base point out of range")
        # per-letter tables: generator i, then its inverse
        tables = []
        for p in self.perms:
            tables += [p, tuple(_invert_perm(p))]
        object.__setattr__(self, "_tables", tuple(tables))

    def act_word(self, state: int, w: Word) -> int:
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise WordError("alphabet mismatch")
        return _act(self._tables, state, w.syllables)

    def fixes_base(self, w: Word) -> bool:
        return self.act_word(self.base_point, w) == self.base_point

    def orbit(self) -> list[int]:
        """The orbit of the base point, in breadth-first order."""
        seen = {self.base_point}
        orbit = [self.base_point]
        for pt in orbit:
            for table in self._tables:
                if table[pt] not in seen:
                    seen.add(table[pt])
                    orbit.append(table[pt])
        return orbit

    @staticmethod
    def from_json(data: dict) -> "FiniteQuotient":
        """The quotient of a JSON object; its alphabet must be a JSON list
        of strings, and its numbers JSON integers, not floats (Infinity,
        1.5), strings or booleans."""
        names = data["alphabet"]
        if type(names) is not list or not all(type(n) is str for n in names):
            raise SchreierError("the alphabet must be a JSON list of strings")
        return FiniteQuotient(
            alphabet=Alphabet(tuple(names)),
            size=_json_int(data["targetSize"]),
            perms=tuple(tuple(map(_json_int, p)) for p in data["permutations"]),
            base_point=_json_int(data.get("basePoint", 0)),
        )

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.names),
            "targetSize": self.size,
            "permutations": [list(p) for p in self.perms],
            "basePoint": self.base_point,
        }


def _json_int(value) -> int:
    if type(value) is not int:
        raise SchreierError(f"expected an integer, got {type(value).__name__}")
    return value


def _invert_perm(p: Sequence[int]) -> list[int]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return inv


def trivial_quotient(alpha: Alphabet) -> FiniteQuotient:
    return FiniteQuotient(alpha, 1, tuple((0,) for _ in range(alpha.rank)))


def abelian_quotient(alpha: Alphabet, moduli: Sequence[int]) -> FiniteQuotient:
    """Regular action of the product of cyclic groups Z/m_i, generator i
    adding 1 to coordinate i.  Point v has coordinate i = (v // s_i) % m_i
    for the stride s_i = m_(i+1) * ... * m_last, so generator i adds s_i,
    or subtracts (m_i - 1) * s_i where the coordinate wraps.  Each
    modulus must be an int >= 1 (not a float or a bool)."""
    if len(moduli) != alpha.rank:
        raise SchreierError("one modulus per generator required")
    for m in moduli:
        if type(m) is not int or m < 1:
            raise SchreierError(f"modulus {m!r} is not an int >= 1")
    sizes = list(moduli)
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 1, 0, -1):
        strides[i - 1] = strides[i] * sizes[i]
    total = strides[0] * sizes[0]
    perms = tuple(tuple(v - (m - 1) * s if v // s % m == m - 1 else v + s for v in range(total))
                  for m, s in zip(sizes, strides))
    return FiniteQuotient(alpha, total, perms)


class SchreierSystem:
    """Coset table, prefix-closed transversal, Schreier generators and
    the Reidemeister rewriting map of a finite-index subgroup.

    The system is stored as ints, letter l = 2*gen + (sign < 0):

    * ``table[l][c]`` is the coset reached from coset c by letter l;
    * ``parent[c]`` and ``parent_letter[c]`` give the BFS-tree edge into
      coset c (-1 at coset 0); the transversal word t_c spells the tree
      path from coset 0;
    * Schreier generator i is the word t_c x_gen t_c'^-1 of the off-tree
      edge from c = ``edge_coset[i]`` by gen = ``edge_gen[i]`` to
      c' = c x_gen; the two are flat int arrays, one entry per generator;
    * ``scan[gen][c]`` is the generator on edge (c, gen), or -1 on a
      tree edge, one int array per generator of the alphabet.

    ``table``, ``parent`` and ``parent_letter`` are lists, which the
    sweep and the tree walks read faster than arrays.  The
    ``sub_alphabet`` is numbered, e1 .. e<rank>, its names made only when
    read.  Words are read off the tree over the alphabet's shared unit
    syllables: a generator word is built on first read and cached, and
    the transversal is built when it is read.
    """

    def __init__(self, alphabet: Alphabet, table: Sequence[list[int]],
                 parent: list[int], parent_letter: list[int],
                 edge_coset: array, edge_gen: array):
        self.alphabet = alphabet
        self.index = len(parent)
        self.table = table
        self.parent = parent
        self.parent_letter = parent_letter
        self.edge_coset = edge_coset
        self.edge_gen = edge_gen
        self.sub_alphabet = numbered_alphabet("e", len(edge_coset))
        self.scan = [array("i", [-1]) * self.index for _ in range(alphabet.rank)]
        for i, (c, gen) in enumerate(zip(edge_coset, edge_gen)):
            self.scan[gen][c] = i
        # the syllables of each generator word, and of each inverse, read
        # so far, else None; and the one tuple of each syllable of
        # exponent other than +-1 that the words read off the tree hold
        self._syllables = [None] * len(edge_coset)
        self._inverse_syllables = [None] * len(edge_coset)
        self._runs: dict[tuple[int, int], tuple[int, int]] = {}

    @cached_property
    def transversal(self) -> tuple[Word, ...]:
        """Coset representatives: t_c is the tree path to coset c."""
        return tuple(Word._trusted(self.alphabet, self._spell(reversed(self._path_up(c))))
                     for c in range(self.index))

    @cached_property
    def generators(self) -> tuple[Word, ...]:
        return tuple(Word._trusted(self.alphabet, self._generator_syllables(i))
                     for i in range(len(self.edge_coset)))

    def _path_up(self, c: int) -> list[int]:
        """The letters of the tree path from coset 0 to coset c, last first."""
        parent, parent_letter = self.parent, self.parent_letter
        letters = []
        while c:
            letters.append(parent_letter[c])
            c = parent[c]
        return letters

    def _spell(self, letters: Iterable[int]) -> tuple[tuple[int, int], ...]:
        """The syllables of a letter sequence with no letter next to its
        inverse: runs of equal letters, each a shared tuple (a run of one
        is the alphabet's unit syllable).  Nothing cancels, so nothing is
        reduced."""
        units, runs = self.alphabet.unit_syllables, self._runs
        syllables: list[tuple[int, int]] = []
        prev = -1
        for l in letters:
            if l == prev:
                gen, exp = syllables[-1]
                run = (gen, exp - 1 if l & 1 else exp + 1)
                syllables[-1] = runs.setdefault(run, run)
            else:
                syllables.append(units[l])
                prev = l
        return tuple(syllables)

    def _generator_syllables(self, i: int, inverse: bool = False) -> tuple[tuple[int, int], ...]:
        """The syllables of generator i, or of its inverse, cached."""
        cache = self._inverse_syllables if inverse else self._syllables
        syllables = cache[i]
        if syllables is None:
            c, l = self.edge_coset[i], 2 * self.edge_gen[i]
            c2 = self.table[l][c]
            if inverse:  # t_c' x^-1 t_c^-1, the same edge walked back
                c, l, c2 = c2, l + 1, c
            # t_c x t_c'^-1: the path to c, the letter, and the path to c'
            # walked back up with each letter inverted (l ^ 1); nothing
            # cancels at the junctions of an off-tree edge
            letters = self._path_up(c)[::-1]
            letters.append(l)
            letters += [k ^ 1 for k in self._path_up(c2)]
            syllables = cache[i] = self._spell(letters)
        return syllables

    def syllable_bound(self) -> int:
        """An upper bound on the syllables of the transversal and the
        generator words together, read off the tree in O(index) with no
        word built: t_c has the syllables of t_parent(c), and one more
        where the letter changes, and t_c x t_c'^-1 has at most those of
        t_c and t_c' and one."""
        parent, parent_letter, table = self.parent, self.parent_letter, self.table
        syllables = [0] * self.index
        for c in range(1, self.index):  # a parent precedes its children
            up = parent[c]
            syllables[c] = syllables[up] + (parent_letter[c] != parent_letter[up])
        return sum(syllables) + sum(syllables[c] + 1 + syllables[table[2 * gen][c]]
                                    for c, gen in zip(self.edge_coset, self.edge_gen))

    def coset_of(self, w: Word) -> int:
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise WordError("alphabet mismatch")
        return _act(self.table, 0, w.syllables)

    def contains(self, w: Word) -> bool:
        return self.coset_of(w) == 0

    def sweep(self, w: Word) -> tuple[int, list[tuple[int, int]]]:
        """The coset w leads to from coset 0, and the Schreier letters
        (generator index, +-1) it sweeps out on the way."""
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise WordError("alphabet mismatch")
        coset = 0
        letters: list[tuple[int, int]] = []
        append = letters.append
        tables, scans = self.table, self.scan
        for gen, exp in w.syllables:
            scan = scans[gen]
            if exp == 1:
                if scan[coset] >= 0:
                    append((scan[coset], 1))
                coset = tables[2 * gen][coset]
            elif exp == -1:
                coset = tables[2 * gen + 1][coset]
                if scan[coset] >= 0:
                    append((scan[coset], -1))
            elif exp > 0:
                table = tables[2 * gen]
                for _ in range(exp):
                    if scan[coset] >= 0:
                        append((scan[coset], 1))
                    coset = table[coset]
            else:
                table = tables[2 * gen + 1]
                for _ in range(-exp):
                    coset = table[coset]
                    if scan[coset] >= 0:
                        append((scan[coset], -1))
        return coset, letters

    def schreier_letters(self, w: Word) -> list[tuple[int, int]]:
        """The Schreier letters (generator index, +-1) of a subgroup
        element, unreduced, as ``sweep`` reads them; raises for a word
        outside the subgroup."""
        coset, letters = self.sweep(w)
        if coset != 0:
            raise SchreierError(f"word not in the subgroup: {w}")
        return letters

    def rewrite(self, w: Word) -> Word:
        """Reidemeister rewriting of a subgroup element into a word over
        the Schreier-generator alphabet."""
        # swept letters are valid syllables over sub_alphabet by construction
        return Word._trusted(self.sub_alphabet, _reduce(self.schreier_letters(w)))

    def expand(self, sub_word: Word) -> Word:
        """Substitute each Schreier generator by its word and reduce,
        from the cached syllables of the generator words and of their
        inverses, each built on first use."""
        if sub_word.alphabet is not self.sub_alphabet and sub_word.alphabet != self.sub_alphabet:
            raise WordError("alphabet mismatch")
        syllables, inverses = self._syllables, self._inverse_syllables
        for gen, exp in sub_word.syllables:
            if (syllables if exp > 0 else inverses)[gen] is None:
                self._generator_syllables(gen, exp < 0)
        return substitute(self.alphabet, syllables, inverses, sub_word.syllables)


def schreier_rank(index: int, rank: int) -> int:
    """Rank of a finite-index subgroup of a free group: index*(rank-1)+1."""
    if index < 1 or rank < 1:
        raise ValueError("index and rank must be positive")
    return index * (rank - 1) + 1


def build_schreier_system(*quotients: FiniteQuotient,
                          max_cosets: int = MAX_COSETS) -> SchreierSystem:
    """Build the Schreier system of the stabilizer of the tuple of the
    quotients' base points: the intersection of their stabilizers.

    BFS order: cosets in discovery order, edges tried generator index
    ascending with the positive letter before the negative one.  Each
    Schreier generator is listed as the BFS meets its edge: a positive
    letter that leads to a coset already seen, unless it walks back the
    tree edge into the coset it leaves.  So they come in (coset,
    generator) order.

    The quotients are folded in from last to first, starting from the
    one-point action: each stage is a BFS over the pairs (point of q_j,
    coset of the orbit of the later quotients' base points), keyed by
    one int, and only the last stage records the tree and the edges.
    By induction, stage j's orbit is that of the tuple of the base
    points of q_j, ..., q_last, one pair per tuple, with the same edges,
    so the last stage is the BFS of the tuples, coset for coset.  Each
    earlier stage's orbit is an image of the last's, so none has more
    cosets, and each is held to ``max_cosets``, which must be an int
    >= 1.
    """
    if not quotients:
        raise SchreierError("at least one finite quotient required")
    alpha = quotients[0].alphabet
    if any(q.alphabet != alpha for q in quotients):
        raise SchreierError("quotients over different alphabets")
    if type(max_cosets) is not int or max_cosets < 1:
        raise SchreierError(f"coset limit must be an int >= 1, got {max_cosets!r}")
    size, table = 1, [[0] for _ in range(2 * alpha.rank)]
    for q in reversed(quotients[1:]):
        size, table = _orbit_table(q, size, table, max_cosets)
    return _schreier_stage(quotients[0], size, table, max_cosets)


def _coset_limit(max_cosets: int) -> SchreierError:
    return SchreierError(f"coset limit exceeded ({max_cosets}); input too large")


def _orbit_table(q: FiniteQuotient, size: int, table: list[list[int]],
                 max_cosets: int) -> tuple[int, list[list[int]]]:
    """One fold stage: the BFS over the pairs (a, b), a a point of q and
    b a coset of ``table`` (``size`` cosets, based at 0), from (q's base
    point, 0), keyed a * size + b.  Returns the orbit's size and its
    per-letter table, cosets numbered in discovery order."""
    key = {q.base_point * size: 0}
    points, cosets = [q.base_point], [0]
    new: list[list[int]] = [[] for _ in table]
    steps = list(zip(q._tables, table, new))
    for a, b in zip(points, cosets):  # both grow as the BFS goes
        for step, move, row in steps:
            a2, b2 = step[a], move[b]
            k2 = a2 * size + b2
            c2 = key.get(k2)
            if c2 is None:
                c2 = key[k2] = len(points)
                if c2 >= max_cosets:
                    raise _coset_limit(max_cosets)
                points.append(a2)
                cosets.append(b2)
            row.append(c2)
    return len(points), new


def _schreier_stage(q: FiniteQuotient, size: int, table: list[list[int]],
                    max_cosets: int) -> SchreierSystem:
    """The last fold stage, as ``_orbit_table``, recording the BFS tree
    and each Schreier generator's edge as the BFS meets it."""
    alpha = q.alphabet
    key = {q.base_point * size: 0}
    points, cosets = [q.base_point], [0]
    parent, parent_letter = [-1], [-1]
    new: list[list[int]] = [[] for _ in table]
    edge_coset, edge_gen = array("i"), array("B" if alpha.rank <= 256 else "i")
    steps = list(enumerate(zip(q._tables, table, new)))
    for c, (a, b) in enumerate(zip(points, cosets)):
        for l, (step, move, row) in steps:
            a2, b2 = step[a], move[b]
            k2 = a2 * size + b2
            c2 = key.get(k2)
            if c2 is None:
                c2 = key[k2] = len(points)
                if c2 >= max_cosets:
                    raise _coset_limit(max_cosets)
                points.append(a2)
                cosets.append(b2)
                parent.append(c)
                parent_letter.append(l)
            elif not (l & 1 or (parent[c] == c2 and parent_letter[c] == l + 1)):
                # a positive letter to a coset seen before, other than c's
                # own tree edge walked back: t_c x t_c'^-1 is nontrivial
                edge_coset.append(c)
                edge_gen.append(l >> 1)
            row.append(c2)
    del points, cosets, key  # freed before the scan arrays are made
    return SchreierSystem(alpha, new, parent, parent_letter, edge_coset, edge_gen)


def kernel_subgroup(q: FiniteQuotient, max_cosets: int = MAX_COSETS) -> SchreierSystem:
    """Schreier system of the stabilizer of the base point (for a
    regular action, the kernel of the quotient map)."""
    return build_schreier_system(q, max_cosets=max_cosets)


@dataclass(frozen=True)
class SubgroupHom:
    """A homomorphism from a Schreier subgroup: ``hom`` is a free-group
    hom from the Schreier generators (``system.sub_alphabet``) to the
    target, and checks the images.

    Evaluation is one walk of the word through the move table and one
    free reduction of what it emits: each step emits the images'
    syllables, or their inverses', for the Schreier letter that
    ``sweep`` would read there, so the result is the same as rewriting
    first and applying ``hom`` after, since every word has one reduced
    form.  When the target is a free
    group, kernel membership is free-word triviality; composing with a
    finite quotient of the target decides membership in preimages of
    finite-index subgroups.  ``fixes_base`` decides that membership
    without building a word: it walks w through a walk table compiled
    from the move table and the quotient's permutations, one lookup per
    letter, which moves the coset and the quotient's point together;
    ``walk_quotient`` gives that walk as a finite quotient of the
    source's ambient group.
    """

    system: SchreierSystem
    hom: FreeHom
    # the last quotient a walk table was compiled for, and that table
    _walk_of: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.hom.domain != self.system.sub_alphabet:
            raise SchreierError("the hom must be defined on the Schreier generators")

    @cached_property
    def _moves(self) -> list[list[tuple[tuple[int, int], ...]]]:
        """The move table, built on first evaluation: ``_moves[l][c]`` is
        what letter l emits at coset c, the shared syllables of the image
        of the Schreier generator it sweeps out, or of that image's
        inverse, or () on a tree edge.  The letter then leads to coset
        ``system.table[l][c]``; a negative letter sweeps the generator of
        the edge it walks back along, from the coset it leads to."""
        system, images, inverses = self.system, self.hom._syllables, self.hom._inverses
        moves = []
        for gen, scan in enumerate(system.scan):
            moves.append([() if i < 0 else images[i] for i in scan])
            moves.append([() if scan[c] < 0 else inverses[scan[c]]
                          for c in system.table[2 * gen + 1]])
        return moves

    def __call__(self, w: Word) -> Word:
        """The image of a subgroup element: one walk of w through the
        move table and the coset table, and one free reduction of what
        it emits, with no Schreier letter or word over the Schreier
        generators in between."""
        system = self.system
        if w.alphabet is not system.alphabet and w.alphabet != system.alphabet:
            raise WordError("alphabet mismatch")
        moves, table = self._moves, system.table
        syllables: list[tuple[int, int]] = []
        extend = syllables.extend
        coset = 0
        for gen, exp in w.syllables:
            if exp == 1:
                extend(moves[2 * gen][coset])
                coset = table[2 * gen][coset]
            elif exp == -1:
                extend(moves[2 * gen + 1][coset])
                coset = table[2 * gen + 1][coset]
            else:
                l = 2 * gen + (exp < 0)
                move, step = moves[l], table[l]
                for _ in range(abs(exp)):
                    extend(move[coset])
                    coset = step[coset]
        if coset != 0:
            raise SchreierError(f"word not in the subgroup: {w}")
        # one _reduce beats _joined here: each move is one syllable or none
        return Word._trusted(self.hom.codomain, _reduce(syllables))

    def _walk(self, quotient: FiniteQuotient) -> list[list[int]]:
        """The walk table for a quotient q of the target, compiled from
        the move table and q's permutations, and kept for the last
        quotient asked about (by identity: a quotient hashes all of its
        permutations).  State c * size + pt is coset c of the system and
        point pt of q; ``walk[l][c * size + pt]`` is
        ``system.table[l][c] * size`` plus the point that what letter l
        emits at coset c takes pt to."""
        codomain = self.hom.codomain
        if quotient.alphabet is not codomain and quotient.alphabet != codomain:
            raise SchreierError("target quotient over wrong alphabet")
        if self._walk_of is not None and self._walk_of[0] is quotient:
            return self._walk_of[1]
        size, act, points = quotient.size, quotient._tables, range(quotient.size)
        walk = []
        for moves, step in zip(self._moves, self.system.table):
            row: list[int] = []
            for move, c2 in zip(moves, step):
                offset = c2 * size
                row += [offset + _act(act, pt, move) for pt in points]
            walk.append(row)
        object.__setattr__(self, "_walk_of", (quotient, walk))
        return walk

    def fixes_base(self, quotient: FiniteQuotient, w: Word) -> bool:
        """Whether the image of a subgroup element fixes the base point
        of a quotient of the target: one walk of w from coset 0 through
        the compiled walk table (``_walk``), one lookup per letter, with
        no image word built.  Raises if w is not in the subgroup."""
        system = self.system
        if w.alphabet is not system.alphabet and w.alphabet != system.alphabet:
            raise WordError("alphabet mismatch")
        walk, base = self._walk(quotient), quotient.base_point
        state = _act(walk, base, w.syllables)
        if state >= quotient.size:
            raise SchreierError(f"word not in the subgroup: {w}")
        return state == base

    def walk_quotient(self, quotient: FiniteQuotient, coset: int) -> FiniteQuotient:
        """The walk table of a quotient q of the target as a finite
        quotient of the ambient group, on the pairs (coset, point of q)
        numbered coset * size + point, based at (``coset``, q's base
        point).  The tree paths t_c and t_c^-1 emit nothing, so its base
        point's stabilizer is the set of w with t_c w t_c^-1 in the
        subgroup and its image fixing q's base point: t_c^-1 H t_c, for
        H the preimage of q's base-point stabilizer.  A word that takes
        t_c outside the subgroup leaves the base coset, so it fixes
        nothing."""
        if not 0 <= coset < self.system.index:
            raise SchreierError(f"coset {coset} out of range")
        walk = self._walk(quotient)
        return FiniteQuotient(self.system.alphabet, len(walk[0]),
                              tuple(tuple(row) for row in walk[::2]),
                              coset * quotient.size + quotient.base_point)

    def in_kernel(self, w: Word) -> bool:
        return self(w).is_identity()


# ---------------------------------------------------------------------------
# Preimage actions
# ---------------------------------------------------------------------------


def induced_quotient(sub_hom: SubgroupHom, target_quotient: FiniteQuotient) -> FiniteQuotient:
    """Action of the ambient free group on cosets of the preimage, under
    a subgroup hom, of a finite-index subgroup of the target.

    States are (target point, coset of the Schreier subgroup), numbered
    coset * size + point.  A letter moves the coset through the coset
    table and the point by the image of the Schreier letter it sweeps
    out.  Each image is compiled once into a permutation of the target
    points, so the whole action is a finite quotient of the ambient
    group.  The stabilizer of its base point is hom^-1(stabilizer of the
    target base); the stabilizer of the point the base reaches by a word
    t is that preimage conjugated by t.
    """
    if target_quotient.alphabet != sub_hom.hom.codomain:
        raise SchreierError("target quotient over wrong alphabet")
    system = sub_hom.system
    size = target_quotient.size
    images = [tuple(target_quotient.act_word(pt, img) for pt in range(size))
              for img in sub_hom.hom.images]
    identity = tuple(range(size))
    perms = []
    for gen in range(system.alphabet.rank):
        table, scan = system.table[2 * gen], system.scan[gen]
        perm: list[int] = []
        for c in range(system.index):
            offset = table[c] * size
            perm.extend(offset + pt for pt in (images[scan[c]] if scan[c] >= 0 else identity))
        perms.append(tuple(perm))
    return FiniteQuotient(system.alphabet, size * system.index, tuple(perms),
                          target_quotient.base_point)


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

ALPHA_BETA = alphabet("a", "b")


def rank2_mod2_kernel() -> SchreierSystem:
    """The index-4 kernel of F(x,y) -> (Z/2)^2, with transversal
    {1, x, y, xy} and Schreier generators e1..e5 = x^2, yxy^-1x^-1,
    y^2, xyxy^-1, xy^2x^-1."""
    q = abelian_quotient(alphabet("x", "y"), (2, 2))
    return kernel_subgroup(q)


def rank2_outer_hom(system: SchreierSystem) -> SubgroupHom:
    """The map from the mod-2 kernel (``rank2_mod2_kernel``) onto the
    free group on a, b: e1 -> a, e2 -> 1, e3 -> b, e4 -> a^-1, e5 -> b^-1."""
    sub = system.sub_alphabet
    if sub.rank != 5:
        raise SchreierError("expected a rank-5 subgroup")
    a = ALPHA_BETA.generator(0)
    b = ALPHA_BETA.generator(1)
    images = (a, ALPHA_BETA.identity(), b, a.inverse(), b.inverse())
    return SubgroupHom(system, FreeHom(sub, ALPHA_BETA, images))


def rank3_c2_kernel() -> SchreierSystem:
    """The index-2 kernel of F(x,y,z) -> C2 (x -> the involution,
    y, z -> 1), with generators ordered x^2, y, xyx^-1, z, xzx^-1."""
    alpha = alphabet("x", "y", "z")
    system = kernel_subgroup(FiniteQuotient(alpha, 2, ((1, 0), (0, 1), (0, 1))))
    # the BFS lists y, z, x^2, xyx^-1, xzx^-1; put each x-conjugate right
    # after its plain generator
    perm = (2, 0, 3, 1, 4)
    coset, gen = system.edge_coset, system.edge_gen
    return SchreierSystem(alpha, system.table, system.parent, system.parent_letter,
                          array(coset.typecode, (coset[p] for p in perm)),
                          array(gen.typecode, (gen[p] for p in perm)))
