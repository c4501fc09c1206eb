"""Tensor-square elements and the associative Yang-Baxter machinery.

An element r of A (x) A is kept as a list of decomposable terms a (x) b.
Two such elements are equal when their dim x dim coefficient matrices
agree, so the term list itself is never canonical.

For associative A the three leg embeddings into A (x) A (x) A give the
classical form of the equation and its non-skew variant; solutions of the
latter correspond to weight-zero Rota-Baxter operators through a symmetric
associative nondegenerate bilinear form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import Algebra
from .errors import (
    AlgebraMismatchError,
    DegenerateFormError,
    DimensionMismatchError,
    InvalidSpecError,
    MissingStructureError,
    NotAssociativeError,
)
from .fields import Field
from .linalg import Matrix, Vector, as_vector, vec_add, vec_dot, vec_is_zero, vec_scale
from .rb import LinearOperator


class Tensor2:
    """A sum of decomposable tensors sum_i a_i (x) b_i over one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms):
        clean = []
        for a, b in terms:
            av = as_vector(algebra.field, a)
            bv = as_vector(algebra.field, b)
            if len(av) != algebra.dim or len(bv) != algebra.dim:
                raise DimensionMismatchError("tensor factor of the wrong length")
            if not vec_is_zero(av) and not vec_is_zero(bv):
                clean.append((av, bv))
        self.algebra = algebra
        self.terms = tuple(clean)

    def coefficient_matrix(self) -> Matrix:
        """The dim x dim matrix C with C[i][j] = sum over terms of a_i b_j."""
        field = self.algebra.field
        dim = self.algebra.dim
        rows = [[field.zero] * dim for _ in range(dim)]
        for a, b in self.terms:
            for i, ai in enumerate(a):
                if ai.is_zero():
                    continue
                for j, bj in enumerate(b):
                    if not bj.is_zero():
                        rows[i][j] = rows[i][j] + ai * bj
        return Matrix(field, rows)

    def is_zero(self) -> bool:
        return self.coefficient_matrix().is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Tensor2)
            and self.algebra == other.algebra
            and self.coefficient_matrix() == other.coefficient_matrix()
        )

    def __repr__(self):
        return f"Tensor2 on {self.algebra.name} with {len(self.terms)} terms"


def _require_associative(a: Algebra):
    if not a.is_associative():
        raise NotAssociativeError("leg products need an associative algebra")


def _accumulate(cube: list, dim: int, u: Vector, v: Vector, w: Vector, negate: bool):
    for x, ux in enumerate(u):
        if ux.is_zero():
            continue
        for y, vy in enumerate(v):
            if vy.is_zero():
                continue
            uv = ux * vy
            base = (x * dim + y) * dim
            for z, wz in enumerate(w):
                if not wz.is_zero():
                    c = uv * wz
                    cube[base + z] = cube[base + z] - c if negate else cube[base + z] + c
    return cube


def _legs_vanish(t: Tensor2, legs) -> bool:
    """True when the signed legs of every ordered pair of terms sum to zero.

    legs(mul, ai, bi, aj, bj) yields (u, v, w, negate) per leg u (x) v (x) w.
    """
    a = t.algebra
    _require_associative(a)
    dim = a.dim
    cube = [a.field.zero] * dim**3
    for ai, bi in t.terms:
        for aj, bj in t.terms:
            for u, v, w, negate in legs(a.product_vec, ai, bi, aj, bj):
                _accumulate(cube, dim, u, v, w, negate)
    return all(c.is_zero() for c in cube)


def check_aybe(t: Tensor2) -> bool:
    """The classical associative equation r13 r12 - r12 r23 + r23 r13 = 0."""
    return _legs_vanish(t, lambda mul, ai, bi, aj, bj: (
        (mul(ai, aj), bj, bi, False),
        (ai, mul(bi, aj), bj, True),
        (aj, ai, mul(bi, bj), False),
    ))


def check_naybe(t: Tensor2) -> bool:
    """The non-skew variant r12 r13 - r23 r12 - r13 r32 = 0.

    r32 swaps the factors of r into legs 3 and 2; solutions over a field
    with a suitable form are exactly the weight-zero operators.
    """
    return _legs_vanish(t, lambda mul, ai, bi, aj, bj: (
        (mul(ai, aj), bi, bj, False),
        (ai, mul(aj, bi), bj, True),
        (ai, bj, mul(bi, aj), True),
    ))


# ---------------------------------------------------------------------------
# operators from tensors
# ---------------------------------------------------------------------------


def _op_from_terms(t: Tensor2, image) -> LinearOperator:
    """The map x -> sum over the terms a (x) b of image(a, b, x)."""
    a = t.algebra
    cols = []
    for j in range(a.dim):
        e = a.basis_vector(j)
        col = (a.field.zero,) * a.dim
        for av, bv in t.terms:
            col = vec_add(col, image(av, bv, e))
        cols.append(col)
    return LinearOperator.from_columns(a, cols)


def op_from_tensor_sandwich(t: Tensor2) -> LinearOperator:
    """The map x -> sum_i a_i x b_i."""
    a = t.algebra
    _require_associative(a)
    return _op_from_terms(t, lambda av, bv, e: a.product_vec(a.product_vec(av, e), bv))


@dataclass(frozen=True)
class AssociativeForm:
    """A symmetric bilinear form with B(xy, z) = B(x, yz), as a Gram matrix."""

    algebra: Algebra
    gram: Matrix

    def __post_init__(self):
        if not check_associative_form(self.algebra, self.gram):
            raise InvalidSpecError("form is not symmetric associative")

    def pair(self, x: Vector, y: Vector):
        return vec_dot(self.algebra.field, x, self.gram.apply(y))

    def is_nondegenerate(self) -> bool:
        return self.gram.rank() == self.algebra.dim


def check_associative_form(a: Algebra, gram: Matrix) -> bool:
    """Symmetry plus B(xy, z) = B(x, yz) on basis triples."""
    if gram.nrows != a.dim or gram.ncols != a.dim:
        raise DimensionMismatchError("Gram matrix of the wrong shape")
    if not gram.is_symmetric():
        return False
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.table_vector(i, j)
            for k in range(a.dim):
                lhs = vec_dot(a.field, ij, gram.column(k))
                if lhs != vec_dot(a.field, gram.row(i), a.table_vector(j, k)):
                    return False
    return True


def trace_form(a: Algebra) -> AssociativeForm:
    """The form B(x, y) = t(xy) from the matrix trace or the quadratic trace."""
    field = a.field
    if a.matrix_shape is not None:
        n = a.matrix_shape
        tvec = [field.zero] * a.dim
        for i in range(n):
            tvec[i * n + i] = field.one
        tvec = tuple(tvec)
    elif a.quadratic is not None:
        tvec = a.quadratic.trace
    else:
        raise MissingStructureError("no trace available for this algebra")
    rows = [[vec_dot(field, tvec, a.table_vector(i, j)) for j in range(a.dim)]
            for i in range(a.dim)]
    return AssociativeForm(a, Matrix(field, rows))


def op_from_tensor_form(t: Tensor2, form: AssociativeForm) -> LinearOperator:
    """The map x -> sum_i a_i B(b_i, x)."""
    a = t.algebra
    if form.algebra != a:
        raise AlgebraMismatchError("form over a different algebra")
    if not form.is_nondegenerate():
        raise DegenerateFormError("the correspondence needs a nondegenerate form")
    return _op_from_terms(t, lambda av, bv, e: vec_scale(form.pair(bv, e), av))


def tensor_from_op(op: LinearOperator, form: AssociativeForm) -> Tensor2:
    """Invert op_from_tensor_form: b_j = G^-1 (row j of the matrix).

    The returned tensor has one term e_j (x) b_j per basis vector, and its
    coefficient matrix reproduces any preimage exactly.
    """
    a = op.algebra
    if form.algebra != a:
        raise AlgebraMismatchError("form over a different algebra")
    if not form.is_nondegenerate():
        raise DegenerateFormError("cannot invert a degenerate form")
    ginv = form.gram.inverse()
    terms = []
    for j in range(a.dim):
        b = ginv.apply(op.matrix.row(j))
        terms.append((a.basis_vector(j), b))
    return Tensor2(a, terms)


# ---------------------------------------------------------------------------
# the fixed corner-pair tensor on 4x4 matrices
# ---------------------------------------------------------------------------


def corner_pair_tensor(field: Field) -> Tensor2:
    """e11 (x) e12 - e12 (x) e11 + e33 (x) e34 - e34 (x) e33 on M4.

    Skew solution of both equations; its sandwich operator is weight-zero
    Rota-Baxter with a subalgebra image but a non-subalgebra kernel.
    """
    from .algebras import matrix_algebra

    a = matrix_algebra(field, 4)

    def unit(i, j):
        v = [field.zero] * 16
        v[(i - 1) * 4 + (j - 1)] = field.one
        return tuple(v)

    terms = [
        (unit(1, 1), unit(1, 2)),
        (tuple(-c for c in unit(1, 2)), unit(1, 1)),
        (unit(3, 3), unit(3, 4)),
        (tuple(-c for c in unit(3, 4)), unit(3, 3)),
    ]
    return Tensor2(a, terms)
