"""Rota-Baxter operators: checking, transforming, diagnosing.

An operator R on an algebra A is Rota-Baxter of weight w when

    R(x) R(y) = R( R(x) y + x R(y) + w x y )    for all x, y in A.

Bilinearity reduces the identity to basis pairs, which is exactly what
check_rb tests.  Operators are stored in the column convention: column j of
the matrix holds the coordinates of R(b_j).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    Algebra,
    Element,
    check_automorphism,
    check_subalgebra,
    matrix_algebra,
    termwise_power,
)
from .errors import (
    AlgebraMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
    InvalidDecompositionError,
    InvalidTripleError,
    IsotropicBuildError,
    MissingStructureError,
    NonzeroWeightError,
    NotApplicableError,
    NotAutomorphismError,
    NotDerivationError,
    NotQuasiIdempotentError,
    NotRBError,
    ZeroWeightError,
)
from .fields import Field, FieldElement
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    as_vector,
    rank_nullspace,
    solve,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)


def coerce_weight(field: Field, weight) -> FieldElement:
    return field.element(weight)


class LinearOperator:
    """A linear self-map of an algebra; column j is the image of basis j."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: Algebra, matrix: Matrix):
        if matrix.field != algebra.field:
            raise FieldMismatchError("operator matrix over the wrong field")
        if matrix.nrows != algebra.dim or matrix.ncols != algebra.dim:
            raise DimensionMismatchError("operator matrix must be dim x dim")
        self.algebra = algebra
        self.matrix = matrix

    @classmethod
    def zero(cls, algebra: Algebra) -> "LinearOperator":
        return cls(algebra, Matrix.zeros(algebra.field, algebra.dim, algebra.dim))

    @classmethod
    def from_rows(cls, algebra: Algebra, rows) -> "LinearOperator":
        return cls(algebra, Matrix(algebra.field, rows))

    @classmethod
    def from_columns(cls, algebra: Algebra, columns) -> "LinearOperator":
        return cls(algebra, Matrix.from_columns(algebra.field, columns))

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("element of a different algebra")
        return Element(self.algebra, self.matrix.apply(x.coeffs))

    def column(self, j: int) -> Vector:
        return self.matrix.column(j)

    def kernel(self) -> Subspace:
        return rank_nullspace(self.matrix)[1]

    def image(self) -> Subspace:
        return Subspace(self.algebra.field, self.algebra.dim, self.matrix.columns())

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, LinearOperator)
            and self.algebra == other.algebra
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.algebra, self.matrix))

    def __repr__(self):
        return f"LinearOperator on {self.algebra.name}: {self.matrix!r}"


def check_rb(op: LinearOperator, weight) -> bool:
    """Test the Rota-Baxter identity on all basis pairs."""
    a = op.algebra
    m = op.matrix
    w = coerce_weight(a.field, weight)
    cols = m.columns()
    basis = [a.basis_vector(i) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = a.product_vec(cols[i], cols[j])
            inner = vec_add(
                a.product_vec(cols[i], basis[j]), a.product_vec(basis[i], cols[j])
            )
            if not w.is_zero():
                inner = vec_add(inner, vec_scale(w, a.table_vector(i, j)))
            if lhs != m.apply(inner):
                return False
    return True


class RBOperator:
    """A linear operator together with a weight, verified at construction."""

    __slots__ = ("operator", "weight")

    def __init__(self, operator: LinearOperator, weight):
        w = coerce_weight(operator.algebra.field, weight)
        if not check_rb(operator, w):
            raise NotRBError(
                f"matrix is not Rota-Baxter of weight {w} on {operator.algebra.name}"
            )
        self.operator = operator
        self.weight = w

    @classmethod
    def _verified(cls, operator: LinearOperator, weight) -> "RBOperator":
        """Wrap an operator without checking it.

        Only for callers that have just checked this operator at this
        weight themselves.
        """
        r = cls.__new__(cls)
        r.operator = operator
        r.weight = coerce_weight(operator.algebra.field, weight)
        return r

    @classmethod
    def from_rows(cls, algebra: Algebra, rows, weight) -> "RBOperator":
        return cls(LinearOperator.from_rows(algebra, rows), weight)

    @classmethod
    def from_columns(cls, algebra: Algebra, columns, weight) -> "RBOperator":
        return cls(LinearOperator.from_columns(algebra, columns), weight)

    @property
    def algebra(self) -> Algebra:
        return self.operator.algebra

    @property
    def matrix(self) -> Matrix:
        return self.operator.matrix

    def apply(self, x: Element) -> Element:
        return self.operator.apply(x)

    def kernel(self) -> Subspace:
        return self.operator.kernel()

    def image(self) -> Subspace:
        return self.operator.image()

    def __eq__(self, other):
        return (
            isinstance(other, RBOperator)
            and self.operator == other.operator
            and self.weight == other.weight
        )

    def __hash__(self):
        return hash((self.operator, self.weight))

    def __repr__(self):
        return f"RB(weight {self.weight}) on {self.algebra.name}: {self.matrix!r}"


# ---------------------------------------------------------------------------
# elementary transforms
# ---------------------------------------------------------------------------


def apply_phi(r: RBOperator) -> RBOperator:
    """The involution R -> -R - w*id on weight-w operators."""
    a = r.algebra
    m = (-r.matrix) - Matrix.identity(a.field, a.dim).scale(r.weight)
    return RBOperator(LinearOperator(a, m), r.weight)


def normalize_weight(r: RBOperator) -> RBOperator:
    """Rescale a nonzero-weight operator to weight one."""
    if r.weight.is_zero():
        raise ZeroWeightError("cannot normalize a weight-zero operator")
    m = r.matrix.scale(r.weight.inverse())
    return RBOperator(LinearOperator(r.algebra, m), r.algebra.field.one)


def conjugate(r: RBOperator, psi: Matrix) -> RBOperator:
    """Transport R along an algebra automorphism psi: psi^-1 R psi."""
    a = r.algebra
    if not check_automorphism(a, psi):
        raise NotAutomorphismError("conjugating matrix is not an automorphism")
    m = psi.inverse() * r.matrix * psi
    return RBOperator(LinearOperator(a, m), r.weight)


def trivial_rb_ops(a: Algebra, weight) -> list[RBOperator]:
    """The zero operator and, for nonzero weight, minus the weight times id."""
    w = coerce_weight(a.field, weight)
    ops = [RBOperator(LinearOperator.zero(a), w)]
    if not w.is_zero():
        m = Matrix.identity(a.field, a.dim).scale(-w)
        ops.append(RBOperator(LinearOperator(a, m), w))
    return ops


# ---------------------------------------------------------------------------
# splitting operators
# ---------------------------------------------------------------------------


class Decomposition:
    """A direct sum A = A1 (+) A2 of two subalgebras of A."""

    __slots__ = ("algebra", "first", "second")

    def __init__(self, algebra: Algebra, first: Subspace, second: Subspace):
        if first.ambient != algebra.dim or second.ambient != algebra.dim:
            raise DimensionMismatchError("subspace of the wrong ambient dimension")
        if first.dim + second.dim != algebra.dim:
            raise InvalidDecompositionError("dimensions do not add up")
        if not first.intersect(second).is_zero():
            raise InvalidDecompositionError("summands intersect nontrivially")
        if not check_subalgebra(algebra, first):
            raise InvalidDecompositionError("first summand is not a subalgebra")
        if not check_subalgebra(algebra, second):
            raise InvalidDecompositionError("second summand is not a subalgebra")
        self.algebra = algebra
        self.first = first
        self.second = second

    def __eq__(self, other):
        return (
            isinstance(other, Decomposition)
            and self.algebra == other.algebra
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self):
        return hash((self.algebra, self.first, self.second))

    def __repr__(self):
        return f"Decomposition({self.first!r} (+) {self.second!r})"


def _op_sending(a: Algebra, src, dst) -> LinearOperator:
    """The operator sending each src[k] to dst[k], i.e. dst * src^-1."""
    change = Matrix.from_columns(a.field, src)
    return LinearOperator(a, Matrix.from_columns(a.field, dst) * change.inverse())


def split_op(dec: Decomposition, weight) -> RBOperator:
    """The operator that kills A1 and scales A2 by minus the weight."""
    a = dec.algebra
    w = coerce_weight(a.field, weight)
    src = list(dec.first.basis) + list(dec.second.basis)
    dst = [zero_vector(a.field, a.dim)] * dec.first.dim + [
        vec_scale(-w, v) for v in dec.second.basis
    ]
    return RBOperator(_op_sending(a, src, dst), w)


def is_splitting(r: RBOperator) -> bool:
    """Whether R (R + w id) = 0, the matrix form of the splitting property."""
    a = r.algebra
    shifted = r.matrix + Matrix.identity(a.field, a.dim).scale(r.weight)
    return (r.matrix * shifted).is_zero()


def splitting_witness(r: RBOperator) -> Decomposition | None:
    """A decomposition (ker R, im R) realizing R as a splitting operator.

    Returns None when R is not splitting, and also in the degenerate
    weight-zero situation where R(R + w id) = 0 holds (w = 0, R R = 0) but
    kernel and image overlap, so no direct sum exists.
    """
    if not is_splitting(r):
        return None
    try:
        return Decomposition(r.algebra, r.kernel(), r.image())
    except InvalidDecompositionError:
        return None


# ---------------------------------------------------------------------------
# stock constructions
# ---------------------------------------------------------------------------


def left_mult_op(a: Algebra, e, lam) -> LinearOperator:
    """Left multiplication by a quasi-idempotent e with e*e = -lam*e.

    On an associative algebra the result is Rota-Baxter of weight lam; only
    the quasi-idempotent law is enforced here, so the caller decides whether
    to promote the map with RBOperator.
    """
    ev = e.coeffs if isinstance(e, Element) else as_vector(a.field, e)
    if len(ev) != a.dim:
        raise DimensionMismatchError(f"element needs {a.dim} entries, got {len(ev)}")
    w = coerce_weight(a.field, lam)
    if a.product_vec(ev, ev) != vec_scale(-w, ev):
        raise NotQuasiIdempotentError("element does not satisfy e*e = -lam*e")
    cols = [a.product_vec(ev, a.basis_vector(j)) for j in range(a.dim)]
    return LinearOperator.from_columns(a, cols)


def partial_sum_op(field: Field, k: int) -> RBOperator:
    """Running sums on the k-fold termwise product of the field.

    Sends (x_1, .., x_k) to (x_1, x_1 + x_2, .., x_1 + .. + x_k); this is
    Rota-Baxter of weight -1.
    """
    a = termwise_power(field, k)
    one, zero = field.one, field.zero
    rows = [[one if j <= i else zero for j in range(k)] for i in range(k)]
    return RBOperator(LinearOperator.from_rows(a, rows), field.element(-1))


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def check_derivation_weight(d: LinearOperator, weight) -> bool:
    """Test d(xy) = d(x)y + x d(y) + w d(x) d(y) on all basis pairs."""
    a = d.algebra
    m = d.matrix
    w = coerce_weight(a.field, weight)
    cols = m.columns()
    basis = [a.basis_vector(i) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = m.apply(a.table_vector(i, j))
            rhs = vec_add(
                a.product_vec(cols[i], basis[j]), a.product_vec(basis[i], cols[j])
            )
            if not w.is_zero():
                rhs = vec_add(rhs, vec_scale(w, a.product_vec(cols[i], cols[j])))
            if lhs != rhs:
                return False
    return True


def rb_from_inverse_derivation(d: LinearOperator, weight) -> RBOperator:
    """Invert an invertible weight-w derivation into a weight-w operator."""
    w = coerce_weight(d.algebra.field, weight)
    if not check_derivation_weight(d, w):
        raise NotDerivationError("map fails the weighted derivation identity")
    inv = d.matrix.inverse()
    return RBOperator(LinearOperator(d.algebra, inv), w)


# ---------------------------------------------------------------------------
# weight-zero operators as triples (S, I, D)
# ---------------------------------------------------------------------------


class RBTriple:
    """Structure data (S, I, D) equivalent to a weight-zero operator.

    S = im R is a subalgebra, I = ker R satisfies S I + I S <= I, and the
    section D: S -> A (a matrix with one column per canonical basis vector
    of S) is an injective right inverse of R that is a derivation modulo I.
    Together they satisfy A = D(S) (+) I.
    """

    __slots__ = ("algebra", "sub", "kernel_part", "section")

    def __init__(self, algebra: Algebra, sub: Subspace, kernel_part: Subspace, section: Matrix):
        self.algebra = algebra
        self.sub = sub
        self.kernel_part = kernel_part
        self.section = section

    def validate(self) -> "RBTriple":
        a = self.algebra
        s, i, d = self.sub, self.kernel_part, self.section
        if s.ambient != a.dim or i.ambient != a.dim:
            raise DimensionMismatchError("subspace of the wrong ambient dimension")
        if d.nrows != a.dim or d.ncols != s.dim:
            raise DimensionMismatchError("section must be dim x dim(S)")
        if not check_subalgebra(a, s):
            raise InvalidTripleError("S is not a subalgebra")
        for u in s.basis:
            for v in i.basis:
                if not i.contains_vector(a.product_vec(u, v)):
                    raise InvalidTripleError("S I escapes I")
                if not i.contains_vector(a.product_vec(v, u)):
                    raise InvalidTripleError("I S escapes I")
        if d.rank() != s.dim:
            raise InvalidTripleError("section is not injective")
        ds = Subspace(a.field, a.dim, d.columns())
        if ds.dim + i.dim != a.dim or not ds.intersect(i).is_zero():
            raise InvalidTripleError("A is not D(S) (+) I")
        for k, u in enumerate(s.basis):
            for l, v in enumerate(s.basis):
                coords = s.coordinates(a.product_vec(u, v))
                if coords is None:
                    raise InvalidTripleError("S is not closed under products")
                lhs = d.apply(coords)
                rhs = vec_add(
                    a.product_vec(d.column(k), v), a.product_vec(u, d.column(l))
                )
                if not i.contains_vector(vec_sub(lhs, rhs)):
                    raise InvalidTripleError("section is not a derivation modulo I")
        return self

    def __eq__(self, other):
        return (
            isinstance(other, RBTriple)
            and self.algebra == other.algebra
            and self.sub == other.sub
            and self.kernel_part == other.kernel_part
            and self.section == other.section
        )

    def __repr__(self):
        return f"RBTriple(S dim {self.sub.dim}, I dim {self.kernel_part.dim})"


def rb_to_triple(r: RBOperator) -> RBTriple:
    """Extract (im R, ker R, D) from a weight-zero operator.

    The section is supported on the pivot columns of R's echelon form: those
    basis vectors map onto a basis of im R, so solving R(D(s)) = s inside
    their span pins D uniquely.
    """
    if not r.weight.is_zero():
        raise NonzeroWeightError("triples describe weight-zero operators only")
    a = r.algebra
    field = a.field
    m = r.matrix
    _, pivots = m.rref()
    sub = r.image()
    kernel_part = r.kernel()
    if not pivots:
        section = Matrix(field, [[] for _ in range(a.dim)])
        return RBTriple(a, sub, kernel_part, section).validate()
    pivot_block = Matrix.from_columns(field, [m.column(p) for p in pivots])
    sec_cols = []
    for b in sub.basis:
        combo = solve(pivot_block, b)
        col = [field.zero] * a.dim
        for c, p in zip(combo, pivots):
            col[p] = c
        sec_cols.append(col)
    section = Matrix.from_columns(field, sec_cols)
    return RBTriple(a, sub, kernel_part, section).validate()


def triple_to_rb(t: RBTriple) -> RBOperator:
    """Rebuild the weight-zero operator with kernel I and R(D(s)) = s."""
    t.validate()
    a = t.algebra
    src = list(t.section.columns()) + list(t.kernel_part.basis)
    dst = list(t.sub.basis) + [zero_vector(a.field, a.dim)] * t.kernel_part.dim
    return RBOperator(_op_sending(a, src, dst), 0)


# ---------------------------------------------------------------------------
# weight zero on commutative quadratic algebras
# ---------------------------------------------------------------------------


def op_from_isotropic_map(a: Algebra, m: Matrix) -> RBOperator:
    """Weight-zero operator from a square-zero map with isotropic image.

    On a commutative quadratic unital algebra, a linear map R is Rota-Baxter
    of weight zero exactly when R(1) = 0, R R = 0 and the norm form
    vanishes identically on im R.  Violations raise IsotropicBuildError
    tagged "unit-image", "square" or "norm".
    """
    if a.unit is None or a.quadratic is None:
        raise MissingStructureError("needs a unital quadratic algebra")
    if not a.is_commutative():
        raise NotApplicableError("correspondence requires a commutative algebra")
    if m.nrows != a.dim or m.ncols != a.dim:
        raise DimensionMismatchError("operator matrix must be dim x dim")
    if not vec_is_zero(m.apply(a.unit)):
        raise IsotropicBuildError("unit-image")
    if not (m * m).is_zero():
        raise IsotropicBuildError("square")
    if not _norm_vanishes_on(a.quadratic, Subspace(a.field, a.dim, m.columns())):
        raise IsotropicBuildError("norm")
    return RBOperator(LinearOperator(a, m), 0)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorReport:
    """Structural facts about a verified operator.

    Optional fields are None when the algebra lacks the structure needed to
    compute them (no unit, no quadratic data, not a matrix algebra), and
    degenerate_image is also None when it is not decided (see
    _image_all_degenerate).
    """

    weight: FieldElement
    dim_kernel: int
    dim_image: int
    splitting: bool
    square_zero: bool
    unit_image: Vector | None
    unit_image_scalar: bool | None
    norm_zero_on_trace_free: bool | None
    unit_case: str
    degenerate_image: bool | None


def _as_square(a: Algebra, vec: Vector) -> Matrix:
    n = a.matrix_shape
    return Matrix(a.field, [vec[i * n : (i + 1) * n] for i in range(n)])


def _norm_vanishes_on(q, sub: Subspace) -> bool:
    # n vanishes on the span iff it vanishes on a basis and f on basis pairs
    for idx, u in enumerate(sub.basis):
        if not q.n(u).is_zero():
            return False
        for v in sub.basis[idx + 1 :]:
            if not q.f(u, v).is_zero():
                return False
    return True


def _image_all_degenerate(a: Algebra, image: Subspace) -> bool | None:
    """Whether every element of the image is singular as a matrix.

    Exact for 2x2 (the determinant is a quadratic form) and for small
    finite images by enumeration.  Otherwise only the canonical basis is
    checked: a nonsingular basis vector gives False, and else the answer
    is None (not decided).
    """
    n = a.matrix_shape
    if n is None:
        return None
    field = a.field
    dets = [_as_square(a, u).det() for u in image.basis]
    if any(not d.is_zero() for d in dets):
        return False
    if n == 2:
        # basis determinants vanish, so det(u + v) is already the polar form
        for idx, u in enumerate(image.basis):
            for v in image.basis[idx + 1 :]:
                if not _as_square(a, vec_add(u, v)).det().is_zero():
                    return False
        return True
    if field.is_finite and field.order() ** image.dim <= 4096:
        scalars = list(field.elements())
        stack = [zero_vector(field, a.dim)]
        for b in image.basis:
            stack = [vec_add(v, vec_scale(c, b)) for v in stack for c in scalars]
        return all(_as_square(a, v).det().is_zero() for v in stack)
    return None


def diagnostics(op: LinearOperator, weight) -> OperatorReport:
    """Verify the operator and report its structural invariants."""
    w = coerce_weight(op.algebra.field, weight)
    if not check_rb(op, w):
        raise NotRBError("diagnostics requires a verified operator")
    return _diagnostics(RBOperator._verified(op, w))


def _diagnostics(r: RBOperator) -> OperatorReport:
    """The report of diagnostics, for an operator that is already verified."""
    op = r.operator
    a = op.algebra
    field = a.field
    w = r.weight
    m = op.matrix
    kernel = op.kernel()
    image = op.image()
    square_zero = (m * m).is_zero()

    unit_image = None
    unit_image_scalar = None
    if a.unit is not None:
        unit_image = m.apply(a.unit)
        unit_image_scalar = Subspace(field, a.dim, [a.unit]).contains_vector(unit_image)

    norm_zero = None
    if a.quadratic is not None:
        q = a.quadratic
        trace_free = rank_nullspace(Matrix(field, [q.trace]))[1]
        pushed = Subspace(field, a.dim, [m.apply(v) for v in trace_free.basis])
        norm_zero = _norm_vanishes_on(q, pushed)

    unit_case = "not-applicable"
    two = field.element(2)
    if (
        a.unit is not None
        and a.quadratic is not None
        and not w.is_zero()
        and not two.is_zero()
    ):
        q = a.quadratic
        norm_m = m.scale(w.inverse())
        r1 = norm_m.apply(a.unit)
        alpha = q.t(r1) / 2
        p_vec = vec_sub(r1, vec_scale(alpha, a.unit))
        if not vec_is_zero(p_vec):
            half = field.one / 2
            quarter = half * half
            rp = norm_m.apply(p_vec)
            shifted = vec_scale(-half, p_vec)
            cases = [
                ("I", -half, vec_add(vec_scale(quarter, a.unit), shifted)),
                ("II", half, vec_add(vec_scale(-quarter, a.unit), shifted)),
                ("III", -(field.element(3) * half), vec_add(vec_scale(-quarter, a.unit), shifted)),
            ]
            for label, expect_alpha, expect_rp in cases:
                if alpha == expect_alpha and rp == expect_rp:
                    unit_case = label
                    break

    return OperatorReport(
        weight=w,
        dim_kernel=kernel.dim,
        dim_image=image.dim,
        splitting=is_splitting(r),
        square_zero=square_zero,
        unit_image=unit_image,
        unit_image_scalar=unit_image_scalar,
        norm_zero_on_trace_free=norm_zero,
        unit_case=unit_case,
        degenerate_image=_image_all_degenerate(a, image),
    )


# ---------------------------------------------------------------------------
# reference operators on 2x2 matrices
# ---------------------------------------------------------------------------


def weight0_matrix_ops(field: Field) -> dict[str, RBOperator]:
    """The four reference weight-zero operators on 2x2 matrices.

    Keys m1..m4; basis order (e11, e12, e21, e22).  m1..m3 square to zero,
    m4 does not; the images of m1 and m2 consist of singular matrices.
    """
    a = matrix_algebra(field, 2)
    z = [0, 0, 0, 0]
    data = {
        "m1": [z, [0, 0, 1, 0], z, z],
        "m2": [[0, 0, 1, 0], z, z, z],
        "m3": [[0, 0, 1, 0], [0, 0, 0, 1], z, z],
        "m4": [[0, 0, -1, 0], [1, 0, 0, 0], z, z],
    }
    return {k: RBOperator.from_rows(a, rows, 0) for k, rows in data.items()}


def nonsplit_weight1_op(field: Field) -> RBOperator:
    """The non-splitting weight-one operator on 2x2 matrices.

    Kills e11 and e12, sends e22 to e11 and negates e21.  Its orbit under
    conjugation is stable under the phi involution.
    """
    a = matrix_algebra(field, 2)
    rows = [
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, 0],
    ]
    return RBOperator.from_rows(a, rows, 1)
