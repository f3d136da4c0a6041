"""A word spelled out letter by letter, for the reference constructions
of the tests that step through words one letter at a time."""


def letters(w) -> list[tuple[int, int]]:
    """The word as a list of (generator, +1/-1) letters."""
    out = []
    for gen, exp in w.syllables:
        sign = 1 if exp > 0 else -1
        out.extend([(gen, sign)] * abs(exp))
    return out
