import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbx.algebras import matrix_algebra
from rbx.errors import DimensionMismatchError, FieldMismatchError, NotInvertibleError
from rbx.fields import PrimeField, Rationals
from rbx.jordan import Poly
from rbx.linalg import Matrix, Subspace, as_vector, rank_nullspace, solve

Q = Rationals()
F5 = PrimeField(5)


def mat(field, rows):
    return Matrix(field, [[field.element(x) for x in row] for row in rows])


small = st.integers(min_value=0, max_value=4)
rows3 = st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3)


@given(rows3, rows3)
def test_matrix_ring_laws(a, b):
    A, B = mat(F5, a), mat(F5, b)
    assert A + B == B + A
    assert (A * B).transpose() == B.transpose() * A.transpose()
    assert A * Matrix.identity(F5, 3) == A
    assert (A - A).is_zero()


@given(rows3)
def test_rref_idempotent(a):
    A = mat(F5, a)
    red, pivots = A.rref()
    again, pivots2 = red.rref()
    assert red == again and pivots == pivots2
    # pivot columns carry unit vectors
    for r, c in enumerate(pivots):
        col = [red.data[i][c] for i in range(3)]
        assert col[r] == F5.one
        assert all(col[i].is_zero() for i in range(3) if i != r)


@given(rows3)
def test_rank_nullspace_dimension(a):
    A = mat(F5, a)
    rank, null = rank_nullspace(A)
    assert rank + null.dim == 3
    for v in null.basis:
        assert all(c.is_zero() for c in A.apply(v))


def test_inverse_and_det():
    A = mat(Q, [[2, 1], [1, 1]])
    Ainv = A.inverse()
    assert A * Ainv == Matrix.identity(Q, 2)
    assert A.det() == Q.one
    singular = mat(Q, [[1, 2], [2, 4]])
    assert singular.det().is_zero()
    with pytest.raises(NotInvertibleError):
        singular.inverse()


@given(rows3)
def test_det_multiplicative(a):
    A = mat(F5, a)
    B = mat(F5, [[1, 2, 0], [0, 1, 3], [0, 0, 1]])
    assert (A * B).det() == A.det() * B.det()


def test_solve_consistent_and_not():
    A = mat(Q, [[1, 2], [2, 4]])
    assert solve(A, [Q.element(1), Q.element(2)]) is not None
    assert solve(A, [Q.element(1), Q.element(3)]) is None
    x = solve(mat(Q, [[2, 0], [0, 3]]), [Q.element(4), Q.element(6)])
    assert x == (Q.element(2), Q.element(2))


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        mat(Q, [[1, 2]]) + mat(Q, [[1], [2]])
    with pytest.raises(DimensionMismatchError):
        mat(Q, [[1, 2]]).apply([Q.one])


def test_subspace_canonical_equality():
    s1 = Subspace(Q, 3, [[Q.element(1), Q.element(1), Q.element(0)],
                         [Q.element(0), Q.element(1), Q.element(1)]])
    s2 = Subspace(Q, 3, [[Q.element(1), Q.element(2), Q.element(1)],
                         [Q.element(0), Q.element(1), Q.element(1)]])
    assert s1 == s2
    assert s1.dim == 2


def test_subspace_membership_and_coordinates():
    s = Subspace(F5, 3, [[F5.element(1), F5.element(0), F5.element(2)],
                         [F5.element(0), F5.element(1), F5.element(3)]])
    inside = tuple(F5.element(x) for x in (2, 1, 2))  # 2*b0 + 1*b1
    assert s.contains_vector(inside)
    coords = s.coordinates(inside)
    assert coords == (F5.element(2), F5.element(1))
    outside = tuple(F5.element(x) for x in (0, 0, 1))
    assert not s.contains_vector(outside)
    assert s.coordinates(outside) is None


@given(rows3, rows3)
def test_sum_and_intersection_dims(a, b):
    A, B = mat(F5, a), mat(F5, b)
    sa = Subspace(F5, 3, A.data)
    sb = Subspace(F5, 3, B.data)
    total = sa + sb
    meet = sa.intersect(sb)
    assert total.dim + meet.dim == sa.dim + sb.dim
    for v in meet.basis:
        assert sa.contains_vector(v) and sb.contains_vector(v)
    assert sa.contains(meet) and sb.contains(meet)
    assert total.contains(sa) and total.contains(sb)


def test_zero_subspace():
    z = Subspace(Q, 4, [])
    assert z.dim == 0 and z.is_zero()
    full = Subspace(Q, 2, Matrix.identity(Q, 2).data)
    assert full.contains(z)


def test_elements_of_another_field_rejected():
    # every coercion into a field goes through Field.element, which checks
    seven = PrimeField(13).element(7)
    for build in (
        lambda: Matrix(F5, [[seven]]),
        lambda: as_vector(F5, [1, seven]),
        lambda: Matrix.identity(F5, 2).scale(seven),
        lambda: matrix_algebra(F5, 2).basis_element(0).scale(seven),
        lambda: Poly.const(F5, seven),
        lambda: Poly.var(F5, "x").scale(seven),
    ):
        with pytest.raises(FieldMismatchError):
            build()
