"""Abelianized subgroup actions: golden 5x5 data plus sympy oracles."""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fgcert.homs import compose_auts, shear_alpha3, shear_beta3
from fgcert.intlinalg import IntMatrix, Lattice, kernel_basis, row_hnf
from fgcert.quotients import FiniteQuotient, SchreierError, kernel_subgroup, rank3_c2_kernel
from fgcert.schreier_modules import (
    abelianized_image,
    action_matrix,
    conjugation_matrix,
    eigen_lattice,
    induced_action,
)
from fgcert.words import alphabet, parse_word
from nielsen import nielsen_inversion, nielsen_permutation, nielsen_transvection
from test_schreier_compiled import quotients

XYZ = alphabet("x", "y", "z")

B_ROWS = (
    (1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0),
)


def test_conjugation_matrix_golden():
    s = rank3_c2_kernel()
    b = conjugation_matrix(s, parse_word("x", XYZ))
    assert b.rows == B_ROWS


def test_conjugation_by_subgroup_element_needs_no_swap():
    # x^2 lies in the subgroup; conjugating by it is still fine and the
    # matrix is the square of B
    s = rank3_c2_kernel()
    b = conjugation_matrix(s, parse_word("x", XYZ))
    b2 = conjugation_matrix(s, parse_word("x^2", XYZ))
    assert b * b == b2


def conjugation_columns(s, g):
    """Oracle: conjugation_matrix column by column, each column the
    exponent vector of rewrite(g^-1 e_j g)."""
    return IntMatrix.from_columns(
        [abelianized_image(s, e.conjugated_by(g)) for e in s.generators])


def cyclic_kernel(m):
    """Kernel of F(x, y, z) -> Z/m, x -> 1, y, z -> 0."""
    cycle = tuple((i + 1) % m for i in range(m))
    fixed = tuple(range(m))
    return kernel_subgroup(FiniteQuotient(XYZ, m, (cycle, fixed, fixed)))


@pytest.mark.parametrize("system", [rank3_c2_kernel(), cyclic_kernel(5), cyclic_kernel(8)],
                         ids=["rank3-c2", "cyclic-5", "cyclic-8"])
@pytest.mark.parametrize("g", ["x", "x^-1", "x^2", "y", "x y^-1 z x"])
def test_conjugation_matrix_matches_the_column_oracle(system, g):
    word = parse_word(g, XYZ)
    assert conjugation_matrix(system, word) == conjugation_columns(system, word)


def test_conjugation_by_a_non_normalizing_element_raises():
    # the stabilizer of point 0 under x = (0 1), y = (1 2) has index 3
    # and is not normal: x moves it to the stabilizer of point 1
    s = kernel_subgroup(FiniteQuotient(alphabet("x", "y"), 3, ((1, 0, 2), (0, 2, 1))))
    with pytest.raises(SchreierError, match="^x does not normalize the subgroup$"):
        conjugation_matrix(s, parse_word("x", s.alphabet))


def preserves_both_ways(s, aut):
    """Oracle: aut maps every Schreier generator into the subgroup, and
    so does its inverse."""
    return all(s.contains(aut.forward(e)) and s.contains(aut.backward(e))
               for e in s.generators)


def action_columns(s, aut):
    """Oracle: action_matrix column by column, each column the exponent
    sums of the rewritten word rewrite(aut(e_j))."""
    return IntMatrix.from_columns([s.rewrite(aut(e)).exponent_sums() for e in s.generators])


def test_action_matrix_rejects_non_preserving():
    # swapping x and y does not preserve the kernel of x -> involution
    s = rank3_c2_kernel()
    swap_xy = nielsen_permutation(XYZ, (1, 0, 2))
    with pytest.raises(SchreierError, match="^automorphism does not preserve the subgroup$"):
        action_matrix(s, swap_xy)
    assert not preserves_both_ways(s, swap_xy)


@st.composite
def nielsen_products(draw, alpha):
    """A product of one to four Nielsen moves of F(alpha)."""
    n = alpha.rank
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    moves = st.one_of(
        st.builds(lambda ij, e, side: nielsen_transvection(alpha, *ij, e, side),
                  pair, st.sampled_from([1, -1]), st.sampled_from(["right", "left"])),
        st.builds(lambda i: nielsen_inversion(alpha, i), st.integers(0, n - 1)),
        st.builds(lambda perm: nielsen_permutation(alpha, tuple(perm)),
                  st.permutations(range(n))))
    auts = draw(st.lists(moves, min_size=1, max_size=4))
    product = auts[0]
    for aut in auts[1:]:
        product = compose_auts(product, aut)
    return product


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_action_matrix_matches_the_two_sided_check(data):
    """On kernels of random finite quotients, action_matrix raises
    exactly when the two-sided preservation check fails, and otherwise
    equals the column-by-column oracle."""
    q = data.draw(quotients())
    aut = data.draw(nielsen_products(q.alphabet))
    s = kernel_subgroup(q)
    if preserves_both_ways(s, aut):
        assert action_matrix(s, aut) == action_columns(s, aut)
    else:
        with pytest.raises(SchreierError, match="^automorphism does not preserve the subgroup$"):
            action_matrix(s, aut)


def test_abelianized_image_is_exponent_vector():
    s = rank3_c2_kernel()
    w = parse_word("x^2 y x^2 y^-1", XYZ)
    # rewrites to e1 * (something conjugate of y) * ... with zero net y
    vec = abelianized_image(s, w)
    assert len(vec) == 5
    assert vec[0] == 2  # two copies of x^2


def test_eigenlattices_golden():
    b = IntMatrix(B_ROWS)
    plus = eigen_lattice(b, 1)
    minus = eigen_lattice(b, -1)
    assert [list(r) for r in plus.basis] == [
        [1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]]
    assert [list(r) for r in minus.basis] == [
        [0, 1, -1, 0, 0], [0, 0, 0, 1, -1]]
    assert eigen_lattice(b, 2).rank == 0


def test_eigenlattice_against_sympy():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = IntMatrix(tuple(map(tuple, rows)))
        for lam in (-1, 0, 1, 2):
            lat = eigen_lattice(m, lam)
            shifted = sympy.Matrix(rows) - lam * sympy.eye(n)
            assert lat.rank == len(shifted.nullspace())
            for v in lat.basis:
                assert list(shifted * sympy.Matrix(v)) == [0] * n


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
           st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)),
       st.integers(-2, 2))
def test_eigen_lattice_matches_the_shifted_kernel(rows, lam):
    """The eigenlattice against the saturated kernel of m - lam*I, the
    shifted matrix built here and its kernel put in Hermite normal form."""
    n = len(rows)
    shifted = IntMatrix(tuple(tuple(v - lam * (i == j) for j, v in enumerate(row))
                              for i, row in enumerate(rows)))
    assert eigen_lattice(IntMatrix(tuple(map(tuple, rows))), lam) == Lattice(
        n, tuple(map(tuple, row_hnf(kernel_basis(shifted)))))


def test_induced_action_golden():
    s = rank3_c2_kernel()
    b = conjugation_matrix(s, parse_word("x", XYZ))
    minus = eigen_lattice(b, -1)
    nu_alpha = induced_action(s, shear_alpha3(), minus)
    nu_beta = induced_action(s, shear_beta3(), minus)
    assert nu_alpha.rows == ((1, 1), (0, 1))
    assert nu_beta.rows == ((1, 0), (1, 1))


def test_induced_action_is_multiplicative():
    s = rank3_c2_kernel()
    b = conjugation_matrix(s, parse_word("x", XYZ))
    minus = eigen_lattice(b, -1)
    a3, b3 = shear_alpha3(), shear_beta3()
    lhs = induced_action(s, compose_auts(a3, b3), minus)
    assert lhs == induced_action(s, a3, minus) * induced_action(s, b3, minus)


def test_action_commutes_with_b_sampled():
    s = rank3_c2_kernel()
    b = conjugation_matrix(s, parse_word("x", XYZ))
    rng = random.Random(13)
    pool = [shear_alpha3(), shear_beta3(),
            shear_alpha3().inverse(), shear_beta3().inverse()]
    for _ in range(60):
        aut = rng.choice(pool)
        for _ in range(rng.randrange(3)):
            aut = compose_auts(aut, rng.choice(pool))
        m = action_matrix(s, aut)
        assert m * b == b * m
