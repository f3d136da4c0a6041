"""Exact integer linear algebra, cross-checked against sympy."""

import random

import pytest
import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form

from fgcert.intlinalg import (
    PRIME_CAP,
    IntMatrix,
    Lattice,
    echelon_mod,
    is_prime,
    kernel_basis,
    mat_mul,
    row_hnf,
    solve_mod,
)


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_matrix_arithmetic():
    a = IntMatrix(((1, 2), (3, 4)))
    b = IntMatrix(((0, 1), (1, 0)))
    assert (a * b).rows == ((2, 1), (4, 3))
    assert a.apply((1, 0)) == (1, 3)
    assert a.apply((0, 1)) == (2, 4)


def test_shape_mismatch():
    a = IntMatrix(((1, 2),))
    b = IntMatrix(((1, 2),))
    with pytest.raises(ValueError):
        a * b


def test_hnf_small_example():
    h = row_hnf([[2, 0], [0, 2], [1, 1]])
    assert h == [[1, 1], [0, 2]]


def _same_row_lattice(a, b):
    """Each row of one matrix is an integer combination of the other's rows."""
    ma, mb = sympy.Matrix(a), sympy.Matrix(b)
    if ma.shape[0] != mb.shape[0]:
        return False
    for src, dst in ((ma, mb), (mb, ma)):
        for i in range(src.shape[0]):
            try:
                sol = dst.T.solve(src.row(i).T)
            except Exception:
                return False
            if not all(x.is_integer for x in sol):
                return False
    return True


def test_hnf_matches_sympy_on_full_rank():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, n, n)
        m = sympy.Matrix(rows)
        if m.rank() < n:
            continue
        ours = row_hnf(rows)
        # sympy normalizes with the opposite triangular orientation, so
        # compare the generated lattices and the determinant size
        theirs = hermite_normal_form(m.T).T.tolist()
        assert _same_row_lattice(ours, theirs)
        assert abs(sympy.Matrix(ours).det()) == abs(sympy.Matrix(theirs).det())


def test_hnf_pivots_normalized():
    rng = random.Random(11)
    for _ in range(80):
        rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h = row_hnf(rows)
        pivots = []
        for row in h:
            nz = next(j for j, v in enumerate(row) if v)
            assert row[nz] > 0
            pivots.append(nz)
            # entries above the pivot are reduced
            for other in h:
                if other is not row and other[nz] != 0:
                    assert 0 <= other[nz] < row[nz]
        assert pivots == sorted(pivots)


def test_kernel_matches_sympy_nullspace():
    rng = random.Random(5)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, nrows, ncols)
        m = IntMatrix(tuple(map(tuple, rows)))
        ours = kernel_basis(m)
        theirs = sympy.Matrix(rows).nullspace()
        assert len(ours) == len(theirs)
        for v in ours:
            assert all(sum(rows[i][j] * v[j] for j in range(ncols)) == 0
                       for i in range(nrows))


def test_kernel_is_saturated():
    # the saturation property: if k*v is in the kernel lattice for some
    # k > 0, then v itself is
    m = IntMatrix(((2, -2),))
    basis = [tuple(v) for v in kernel_basis(m)]
    assert basis == [(1, 1)]
    # a non-primitive relation must still produce a primitive generator
    m2 = IntMatrix(((4, 6),))
    assert [tuple(v) for v in kernel_basis(m2)] == [(3, -2)]


def test_lattice_solve_and_contains():
    lat = Lattice(3, ((1, 0, 1), (0, 2, 0)))
    assert len(lat.basis) == 2
    assert lat.solve((1, 2, 1)) == (1, 1)
    assert lat.solve((0, 1, 0)) is None
    assert lat.solve((2, 4, 2)) is not None
    assert lat.solve((1, 0, 0)) is None


def test_lattice_solve_random_roundtrip():
    rng = random.Random(17)
    for _ in range(60):
        dim = rng.randint(2, 5)
        nrows = rng.randint(1, dim)
        lat = Lattice(dim, tuple(map(tuple, row_hnf(random_matrix(rng, nrows, dim)))))
        coeffs = [rng.randint(-4, 4) for _ in range(len(lat.basis))]
        v = [sum(c * b[j] for c, b in zip(coeffs, lat.basis)) for j in range(dim)]
        got = lat.solve(v)
        assert got is not None
        rebuilt = [sum(c * b[j] for c, b in zip(got, lat.basis)) for j in range(dim)]
        assert rebuilt == v


# ---------------------------------------------------------------------------
# The shared primitives against the copies they replaced
# ---------------------------------------------------------------------------


def product_by_columns(a, b):
    """The former ``IntMatrix.__mul__`` loop."""
    cols = list(zip(*b)) if b else []
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def product_by_dot(a, b):
    """The former ``magnus.mat_mul`` with its ``_dot`` helper."""
    def dot(row, col):
        total = row[0] * col[0]
        for x, y in zip(row[1:], col[1:]):
            total = total + x * y
        return total

    n, k, p = len(a), len(b), len(b[0])
    return [[dot(a[i], [b[t][j] for t in range(k)]) for j in range(p)] for i in range(n)]


def test_mat_mul_matches_the_replaced_products():
    rng = random.Random(23)
    for _ in range(200):
        n, k, p = rng.randint(0, 5), rng.randint(1, 5), rng.randint(0, 5)
        a, b = random_matrix(rng, n, k), random_matrix(rng, k, p)
        expected = product_by_columns(a, b)
        assert mat_mul(a, b) == [list(r) for r in expected]
        if n:  # an IntMatrix without rows has no columns either
            product = IntMatrix(tuple(map(tuple, a))) * IntMatrix(tuple(map(tuple, b)))
            assert product.rows == expected
        if n and p:
            assert mat_mul(a, b) == product_by_dot(a, b)


def test_matrix_product_without_columns():
    three_by_zero = IntMatrix(((), (), ()))
    assert (three_by_zero * IntMatrix(())).rows == ((), (), ())
    assert (IntMatrix(()) * IntMatrix(())).rows == ()


def test_from_columns():
    m = IntMatrix.from_columns([(1, 2, 3), (4, 5, 6)])
    assert m.rows == ((1, 4), (2, 5), (3, 6))
    assert m.apply((0, 1)) == (4, 5, 6)
    assert IntMatrix.from_columns([]).rows == ()


def row_hnf_by_column(rows):
    """The former ``row_hnf``: Euclid down each column, then at once the
    pivot sign and the reduction of the entries above it."""
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        while True:
            nonzero = [i for i in range(pivot_row, len(mat)) if mat[i][col] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(mat[i][col]))
            mat[pivot_row], mat[i_min] = mat[i_min], mat[pivot_row]
            p = mat[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, len(mat)):
                q = mat[i][col] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
                if mat[i][col] != 0:
                    done = False
            if done:
                break
        if pivot_row < len(mat) and mat[pivot_row][col] != 0:
            if mat[pivot_row][col] < 0:
                mat[pivot_row] = [-v for v in mat[pivot_row]]
            p = mat[pivot_row][col]
            for i in range(pivot_row):
                q = mat[i][col] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
            pivot_row += 1
            if pivot_row == len(mat):
                break
    return [r for r in mat[:pivot_row] if any(r)]


def test_row_hnf_matches_the_per_column_version():
    rng = random.Random(29)
    deficient = 0
    for _ in range(400):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols)
        # rank-deficient inputs: zero rows, repeated rows, combinations
        if nrows and rng.random() < 0.4:
            rows[rng.randrange(nrows)] = [0] * ncols
        if nrows >= 2 and rng.random() < 0.4:
            i, j = rng.sample(range(nrows), 2)
            c = rng.randint(-3, 3)
            rows[i] = [c * v for v in rows[j]]
        if nrows and sympy.Matrix(rows).rank() < min(nrows, ncols):
            deficient += 1
        assert row_hnf(rows) == row_hnf_by_column(rows), rows
    assert deficient > 100
    assert row_hnf([[0, 0], [0, 0]]) == row_hnf_by_column([[0, 0], [0, 0]]) == []


def test_is_prime_matches_sympy():
    assert [n for n in range(100_000) if is_prime(n)] == list(sympy.primerange(100_000))
    near_cap = range(PRIME_CAP - 99, PRIME_CAP - 59, 2)
    assert len(near_cap) == 20
    assert [is_prime(n) for n in near_cap] == [sympy.isprime(n) for n in near_cap]
    assert any(is_prime(n) for n in near_cap)
    assert not is_prime(-7) and not is_prime(0) and not is_prime(1)


def rank_mod_p_by_sympy(rows, ncols, p):
    if not rows:
        return 0
    field = GF(p)
    return DomainMatrix([[field(v) for v in row[:ncols]] for row in rows],
                        (len(rows), ncols), field).rank()


def test_echelon_mod_rank_matches_sympy():
    rng = random.Random(11)
    deficient = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 131])
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(nrows), 2)
            rows[i] = [rng.randrange(p) * v % p for v in rows[j]]
        expected = rank_mod_p_by_sympy(rows, ncols, p)
        deficient += expected < min(nrows, ncols)
        mat = [row[:] for row in rows]
        rank = echelon_mod(mat, ncols, p)
        assert rank == expected, (rows, p)
        # leading 1s in increasing columns, alone in their columns, then zero rows
        leads = [next(j for j, v in enumerate(row) if v) for row in mat[:rank]]
        assert leads == sorted(set(leads))
        for i, col in enumerate(leads):
            assert mat[i][col] == 1 and all(row[col] == 0 for t, row in enumerate(mat) if t != i)
        assert all(not any(row) for row in mat[rank:])
    assert deficient > 20


def test_solve_mod_over_local_rings():
    rng = random.Random(12)
    singular = 0
    for _ in range(300):
        p, k = rng.choice([2, 3, 5]), rng.randint(1, 3)
        q, n, m = p ** k, rng.randint(1, 4), rng.randint(1, 3)
        a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(-q, 2 * q) for _ in range(m)] for _ in range(n)]
        x = solve_mod(a, b, p, k)
        unit = rank_mod_p_by_sympy(a, n, p) == n
        assert (x is not None) == unit, (a, p, k)
        if x is None:
            singular += 1
            continue
        assert all(0 <= v < q for row in x for v in row)
        assert [[v % q for v in row] for row in mat_mul(a, x)] == [[v % q for v in row] for row in b]
    assert singular > 30
