"""The memory a built Schreier system keeps, per coset, by tracemalloc.

The system stores each off-tree edge once, in flat arrays, keeps ``scan``
as int arrays and numbers its generators without storing names.  A
regression that brings back a list of (coset, generator) tuples, an int
object per scan entry or a name string per generator more than doubles
the bytes per coset, and fails here.

Once read, each generator word and each inverse is kept as a tuple of
syllables, and a syllable is one shared tuple: the alphabet's unit
syllable, or the system's one tuple of that run.  A regression that
gives every run its own tuple, or keeps a ``Word`` object per
generator, fails the second bound.
"""

import gc
import json
import tracemalloc
from pathlib import Path

from fgcert.congruence import CongruenceInput, NOracle
from fgcert.quotients import FiniteQuotient

DATA = Path(__file__).parent / "data"

# Measured with CPython 3.11.7 on x86-64: N of the index-4 K at p = 5 has
# 9,216 cosets and keeps 115 bytes per coset once built (with a name
# string, an edge tuple and an int object per generator it kept 295).
BYTES_PER_COSET = 115
BOUND = 1.5 * BYTES_PER_COSET
# Measured the same way, after every generator word and its inverse were
# read once: 390 bytes per coset (835 with a tuple per run, 519 with a
# Word cached per generator and each inverse built when used).
READ_BYTES_PER_COSET = 390
READ_BOUND = 1.25 * READ_BYTES_PER_COSET


def index4_input() -> CongruenceInput:
    k = FiniteQuotient.from_json(json.loads((DATA / "k-index4.json").read_text()))
    return CongruenceInput(k, 5)


def test_built_n_keeps_few_bytes_per_coset():
    inp = index4_input()
    gc.collect()
    tracemalloc.start()
    try:
        oracle = NOracle(inp)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle.index == 9216
    assert kept / oracle.index <= BOUND, f"{kept / oracle.index:.0f} bytes per coset"


def test_n_keeps_few_bytes_per_coset_once_every_generator_is_read():
    inp = index4_input()
    gc.collect()
    tracemalloc.start()
    try:
        oracle = NOracle(inp)
        schreier = oracle.schreier
        sub = schreier.sub_alphabet
        for i in range(sub.rank):
            schreier.expand(sub.generator(i))
            schreier.expand(sub.generator(i, -1))
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sub.rank == 9217
    assert kept / oracle.index <= READ_BOUND, f"{kept / oracle.index:.0f} bytes per coset"
