"""The memory a built Schreier system keeps, per coset, by tracemalloc.

The system stores each off-tree edge once, in flat arrays, keeps ``scan``
as int arrays and numbers its generators without storing names.  A
regression that brings back a list of (coset, generator) tuples, an int
object per scan entry or a name string per generator more than doubles
the bytes per coset, and fails here.
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


def test_built_n_keeps_few_bytes_per_coset():
    k = FiniteQuotient.from_json(json.loads((DATA / "k-index4.json").read_text()))
    inp = CongruenceInput(k, 5)
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
