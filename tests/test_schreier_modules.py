"""Abelianized subgroup actions: golden 5x5 data plus sympy oracles."""

import random

import pytest
import sympy

from fgcert.homs import compose_auts, shear_alpha3, shear_beta3
from fgcert.intlinalg import IntMatrix
from fgcert.quotients import FiniteQuotient, SchreierError, kernel_subgroup, rank3_c2_kernel
from fgcert.schreier_modules import (
    abelianized_image,
    action_matrix,
    conjugation_matrix,
    eigen_lattice,
    induced_action,
    preserves_subgroup,
)
from fgcert.words import alphabet, parse_word

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


def test_action_matrix_rejects_non_preserving():
    # swapping x and y does not preserve the kernel of x -> involution
    from nielsen import nielsen_permutation

    s = rank3_c2_kernel()
    swap_xy = nielsen_permutation(XYZ, (1, 0, 2))
    with pytest.raises(SchreierError):
        action_matrix(s, swap_xy)
    assert not preserves_subgroup(s, swap_xy)


def test_abelianized_image_is_exponent_vector():
    s = rank3_c2_kernel()
    w = parse_word("x^2 y x^2 y^-1", XYZ)
    # rewrites to e1 * (something conjugate of y) * ... with zero net y
    vec = abelianized_image(s, w)
    assert len(vec) == 5
    assert vec[0] == 2  # two copies of x^2


def test_eigenlattices_golden():
    b = IntMatrix.from_rows([list(r) for r in B_ROWS])
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
        m = IntMatrix.from_rows(rows)
        for lam in (-1, 0, 1, 2):
            lat = eigen_lattice(m, lam)
            shifted = sympy.Matrix(rows) - lam * sympy.eye(n)
            assert lat.rank == len(shifted.nullspace())
            for v in lat.basis:
                assert list(shifted * sympy.Matrix(v)) == [0] * n


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
