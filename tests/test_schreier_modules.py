"""Abelianized subgroup actions: golden 5x5 data plus sympy oracles."""

import random

import pytest
import sympy

from fgcert.homs import compose_auts, shear_alpha3, shear_beta3
from fgcert.intlinalg import IntMatrix
from fgcert.quotients import SchreierError, rank3_c2_kernel
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
