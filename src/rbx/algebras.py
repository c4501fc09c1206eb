"""Finite-dimensional algebras given by structure constants.

An Algebra bundles a scalar field, a basis, and the multiplication table
b_i * b_j = sum_k c_ijk b_k stored sparsely.  Optional extras carried by the
builders: a unit vector, a 0/1 grading vector (superalgebra bookkeeping for
the three-dimensional Kaplansky algebra), quadratic-algebra data (trace
functional plus norm Gram matrix), and for full matrix algebras the
transposition map as a basis permutation.

Builders return validated objects: the unit law, the grading compatibility
and the quadratic identity are all checked at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AlgebraMismatchError,
    DimensionMismatchError,
    InvalidSpecError,
    MissingStructureError,
)
from .fields import Field, FieldElement
from .linalg import Matrix, Subspace, Vector, as_vector, vec_add, vec_dot, vec_scale


@dataclass(frozen=True)
class QuadraticStructure:
    """Trace functional and norm form of a quadratic algebra.

    trace is the coefficient vector of t on the basis; gram is the symmetric
    matrix N of the norm, n(x) = x^T N x.  The bilinearization is
    f(x, y) = n(x + y) - n(x) - n(y) = 2 x^T N y.
    """

    trace: Vector
    gram: Matrix

    def t(self, coeffs: Vector) -> FieldElement:
        return vec_dot(self.gram.field, self.trace, coeffs)

    def n(self, coeffs: Vector) -> FieldElement:
        return vec_dot(self.gram.field, coeffs, self.gram.apply(coeffs))

    def f(self, x: Vector, y: Vector) -> FieldElement:
        acc = vec_dot(self.gram.field, x, self.gram.apply(y))
        return acc + acc


class Algebra:
    """A structure-constant algebra over one of the exact fields."""

    def __init__(
        self,
        field: Field,
        name: str,
        basis: Sequence[str],
        table: Sequence[Sequence[Sequence]],
        unit: Sequence | None = None,
        grading: Sequence[int] | None = None,
        quadratic: QuadraticStructure | None = None,
        matrix_shape: int | None = None,
        antiauto: Matrix | None = None,
    ):
        self.field = field
        self.name = name
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        if len(table) != self.dim or any(len(row) != self.dim for row in table):
            raise DimensionMismatchError("table must be dim x dim")
        sparse = []
        for row in table:
            srow = []
            for cell in row:
                vec = as_vector(field, cell)
                if len(vec) != self.dim:
                    raise DimensionMismatchError("table entry of wrong length")
                srow.append(tuple((k, c) for k, c in enumerate(vec) if not c.is_zero()))
            sparse.append(tuple(srow))
        self.table = tuple(sparse)
        self.unit = None if unit is None else as_vector(field, unit)
        self.grading = None if grading is None else tuple(int(g) for g in grading)
        if self.grading is not None and len(self.grading) != self.dim:
            raise DimensionMismatchError("grading length != dim")
        self.quadratic = quadratic
        self.matrix_shape = matrix_shape
        self.antiauto = antiauto
        self._associative: bool | None = None
        self._commutative: bool | None = None

    # --- multiplication -------------------------------------------------
    def table_vector(self, i: int, j: int) -> Vector:
        out = [self.field.zero] * self.dim
        for k, c in self.table[i][j]:
            out[k] = c
        return tuple(out)

    def product_vec(self, x: Sequence, y: Sequence) -> Vector:
        xv = as_vector(self.field, x)
        yv = as_vector(self.field, y)
        out = [self.field.zero] * self.dim
        for i, xi in enumerate(xv):
            if xi.is_zero():
                continue
            row = self.table[i]
            for j, yj in enumerate(yv):
                if yj.is_zero():
                    continue
                c = xi * yj
                for k, s in row[j]:
                    out[k] = out[k] + c * s
        return tuple(out)

    # --- elements ---------------------------------------------------------
    def element(self, coeffs: Sequence) -> "Element":
        return Element(self, as_vector(self.field, coeffs))

    def basis_element(self, i: int) -> "Element":
        coeffs = [self.field.zero] * self.dim
        coeffs[i] = self.field.one
        return Element(self, tuple(coeffs))

    def unit_element(self) -> "Element":
        if self.unit is None:
            raise MissingStructureError(f"{self.name} has no unit")
        return Element(self, self.unit)

    # --- cached global properties ----------------------------------------
    def is_associative(self) -> bool:
        if self._associative is None:
            ok = True
            for i in range(self.dim):
                for j in range(self.dim):
                    ij = self.table_vector(i, j)
                    for k in range(self.dim):
                        left = self.product_vec(ij, self.basis_vector(k))
                        right = self.product_vec(self.basis_vector(i), self.table_vector(j, k))
                        if left != right:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            self._associative = ok
        return self._associative

    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = all(
                self.table_vector(i, j) == self.table_vector(j, i)
                for i in range(self.dim)
                for j in range(i + 1, self.dim)
            )
        return self._commutative

    def basis_vector(self, i: int) -> Vector:
        out = [self.field.zero] * self.dim
        out[i] = self.field.one
        return tuple(out)

    # --- validation -------------------------------------------------------
    def validate(self) -> "Algebra":
        """Check unit law, grading compatibility and the quadratic identity."""
        if self.unit is not None:
            for i in range(self.dim):
                b = self.basis_vector(i)
                if self.product_vec(self.unit, b) != b or self.product_vec(b, self.unit) != b:
                    raise InvalidSpecError(f"unit law fails on basis {self.basis[i]}")
        if self.grading is not None:
            for i in range(self.dim):
                for j in range(self.dim):
                    parity = (self.grading[i] + self.grading[j]) % 2
                    for k, _ in self.table[i][j]:
                        if self.grading[k] != parity:
                            raise InvalidSpecError("product not compatible with grading")
        if self.quadratic is not None and not verify_quadratic(self):
            raise InvalidSpecError(f"quadratic identity fails for {self.name}")
        return self

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.table == other.table
            and self.unit == other.unit
            and self.grading == other.grading
        )

    def __hash__(self):
        return hash((self.field, self.table))

    def __repr__(self):
        return f"{self.name} over {self.field!r} (dim {self.dim})"


class Element:
    """An algebra element: coefficient tuple with operator sugar."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: Algebra, coeffs: Vector):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, vec_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.algebra, self.algebra.product_vec(self.coeffs, other.coeffs))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Element":
        return Element(self.algebra, vec_scale(self.algebra.field.element(c), self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra == other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        parts = [
            f"{c}*{lbl}"
            for c, lbl in zip(self.coeffs, self.algebra.basis)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def verify_quadratic(a: Algebra) -> bool:
    """Check the bilinearized degree-2 identity on all basis pairs.

    For a unital algebra this is x*y + y*x = t(x)y + t(y)x - f(x, y)*1.
    Without a unit the identity only makes sense when the norm form is
    identically zero (so no multiple of a unit is ever needed); in that case
    the f term drops and the same check applies.
    """
    q = a.quadratic
    if q is None:
        raise MissingStructureError(f"{a.name} carries no quadratic structure")
    if a.unit is None and not q.gram.is_zero():
        raise MissingStructureError(f"{a.name} has no unit but a nonzero norm form")
    for i in range(a.dim):
        bi = a.basis_vector(i)
        for j in range(i, a.dim):
            bj = a.basis_vector(j)
            circ = vec_add(a.product_vec(bi, bj), a.product_vec(bj, bi))
            expect = vec_add(vec_scale(q.t(bi), bj), vec_scale(q.t(bj), bi))
            if a.unit is not None:
                expect = vec_add(expect, vec_scale(-q.f(bi, bj), a.unit))
            if circ != expect:
                return False
    return True


def check_subalgebra(a: Algebra, s: Subspace) -> bool:
    """True when the subspace is closed under multiplication."""
    if s.ambient != a.dim:
        raise DimensionMismatchError("subspace of the wrong ambient dimension")
    for u in s.basis:
        for v in s.basis:
            if not s.contains_vector(a.product_vec(u, v)):
                return False
            if not s.contains_vector(a.product_vec(v, u)):
                return False
    return True


def check_automorphism(a: Algebra, m: Matrix) -> bool:
    """Invertible, multiplicative on basis pairs, grading-preserving."""
    if m.nrows != a.dim or m.ncols != a.dim:
        raise DimensionMismatchError("automorphism candidate of wrong shape")
    if m.rank() != a.dim:
        return False
    cols = m.columns()
    for i in range(a.dim):
        for j in range(a.dim):
            if a.product_vec(cols[i], cols[j]) != m.apply(a.table_vector(i, j)):
                return False
    if a.grading is not None:
        for j in range(a.dim):
            for k, c in enumerate(cols[j]):
                if not c.is_zero() and a.grading[k] != a.grading[j]:
                    return False
    return True


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def matrix_algebra(field: Field, n: int) -> Algebra:
    """Full n x n matrix algebra; basis e_ij in row-major order.

    For n = 2 the quadratic data (trace, determinant) is attached, and for
    every n the transposition antiautomorphism is recorded as a basis
    permutation so orbit classification can use it.
    """
    if n < 1:
        raise InvalidSpecError("matrix size must be positive")
    dim = n * n
    idx = lambda i, j: i * n + j
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    zero, one = field.zero, field.one
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        table[idx(i, j)][idx(k, l)][idx(i, l)] = one
    unit = [zero] * dim
    for i in range(n):
        unit[idx(i, i)] = one
    quadratic = None
    if n == 2 and not field.element(2).is_zero():
        half = one / 2
        gram = Matrix(
            field,
            [
                [zero, zero, zero, half],
                [zero, zero, -half, zero],
                [zero, -half, zero, zero],
                [half, zero, zero, zero],
            ],
        )
        quadratic = QuadraticStructure(as_vector(field, [1, 0, 0, 1]), gram)
    rows = [[zero] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            rows[idx(j, i)][idx(i, j)] = one
    perm = Matrix(field, rows)
    return Algebra(
        field,
        f"M{n}",
        labels,
        table,
        unit=unit,
        quadratic=quadratic,
        matrix_shape=n,
        antiauto=perm,
    ).validate()


def jordan_form(field: Field, diagonal: Sequence) -> Algebra:
    """Unit line plus a form space with diagonal symmetric form.

    Basis (1, e_1, .., e_n); products 1*x = x, e_i e_j = delta_ij d_i * 1.
    Commutative Jordan algebra whenever the d_i are nonzero.
    """
    d = as_vector(field, diagonal)
    if any(di.is_zero() for di in d):
        raise InvalidSpecError("form diagonal entries must be nonzero")
    n = len(d)
    dim = n + 1
    zero, one = field.zero, field.one
    labels = ["1"] + [f"e{i + 1}" for i in range(n)]
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for k in range(dim):
        table[0][k][k] = one
        table[k][0][k] = one
    table[0][0] = [zero] * dim
    table[0][0][0] = one
    for i in range(1, dim):
        table[i][i] = [zero] * dim
        table[i][i][0] = d[i - 1]
    unit = [one] + [zero] * n
    gram_rows = [[zero] * dim for _ in range(dim)]
    gram_rows[0][0] = one
    for i in range(1, dim):
        gram_rows[i][i] = -d[i - 1]
    quadratic = QuadraticStructure(
        as_vector(field, [2] + [0] * n), Matrix(field, gram_rows)
    )
    name = "J(" + ",".join(str(di) for di in d) + ")"
    return Algebra(field, name, labels, table, unit=unit, quadratic=quadratic).validate()


def grassmann2(field: Field) -> Algebra:
    """Exterior algebra on two generators: basis (1, e1, e2, e1e2).

    Treated as a plain algebra (no grading), so its automorphism group is
    the full multiplicative one.  Quadratic with t = 2*alpha, n = alpha^2.
    """
    zero, one = field.zero, field.one
    table = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for k in range(4):
        table[0][k][k] = one
        table[k][0][k] = one
    table[0][0] = [one, zero, zero, zero]
    table[1][2][3] = one
    table[2][1][3] = -one
    gram_rows = [[zero] * 4 for _ in range(4)]
    gram_rows[0][0] = one
    quadratic = QuadraticStructure(as_vector(field, [2, 0, 0, 0]), Matrix(field, gram_rows))
    return Algebra(
        field,
        "Gr2",
        ["1", "e1", "e2", "e1e2"],
        table,
        unit=[one, zero, zero, zero],
        quadratic=quadratic,
    ).validate()


def kaplansky3(field: Field) -> Algebra:
    """The three-dimensional Kaplansky superalgebra: even e, odd x, y.

    e*e = e, e acts as 1/2 on the odd part, x*y = e/2 = -y*x, squares of odd
    elements vanish.  Not unital; quadratic with t(ae + bx + cy) = a and
    zero norm form.  The 0/1 grading vector is carried for the
    grading-preserving automorphism filter.
    """
    zero, one = field.zero, field.one
    half = one / 2
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    table[0][0][0] = one
    table[0][1][1] = half
    table[1][0][1] = half
    table[0][2][2] = half
    table[2][0][2] = half
    table[1][2][0] = half
    table[2][1][0] = -half
    quadratic = QuadraticStructure(
        as_vector(field, [1, 0, 0]), Matrix.zeros(field, 3, 3)
    )
    return Algebra(
        field,
        "K3",
        ["e", "x", "y"],
        table,
        grading=[0, 1, 1],
        quadratic=quadratic,
    ).validate()


def _cd_conj(level: int, x: tuple) -> tuple:
    if level == 0:
        return x
    m = len(x) // 2
    return _cd_conj(level - 1, x[:m]) + tuple(-c for c in x[m:])


def _cd_mul(level: int, alphas: Vector, x: tuple, y: tuple) -> tuple:
    if level == 0:
        return (x[0] * y[0],)
    m = len(x) // 2
    a, b = x[:m], x[m:]
    c, d = y[:m], y[m:]
    al = alphas[level - 1]
    first = vec_add(
        _cd_mul(level - 1, alphas, a, c),
        vec_scale(al, _cd_mul(level - 1, alphas, d, _cd_conj(level - 1, b))),
    )
    second = vec_add(
        _cd_mul(level - 1, alphas, _cd_conj(level - 1, a), d),
        _cd_mul(level - 1, alphas, c, b),
    )
    return tuple(first) + tuple(second)


def cayley_dickson(field: Field, alphas: Sequence) -> Algebra:
    """Iterated doubling of the base field with parameters alpha_1..alpha_k.

    Doubling rule (a, b)(c, d) = (ac + alpha * d * conj(b), conj(a) d + c b),
    conjugation (a, b) -> (conj(a), -b).  Dimension 2^k; k = 2 gives the
    quaternion-type algebras, k = 3 the octonion-type ones.  Quadratic with
    t(x) = 2 x_0 and the doubled diagonal norm.
    """
    al = as_vector(field, alphas)
    if any(a.is_zero() for a in al):
        raise InvalidSpecError("doubling parameters must be nonzero")
    k = len(al)
    dim = 1 << k
    zero, one = field.zero, field.one
    basis_vecs = []
    for i in range(dim):
        v = [zero] * dim
        v[i] = one
        basis_vecs.append(tuple(v))
    table = [
        [_cd_mul(k, al, basis_vecs[i], basis_vecs[j]) for j in range(dim)]
        for i in range(dim)
    ]
    gram = [one]
    for a in al:
        gram = gram + [-a * g for g in gram]
    gram_rows = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        gram_rows[i][i] = gram[i]
    quadratic = QuadraticStructure(
        as_vector(field, [2] + [0] * (dim - 1)), Matrix(field, gram_rows)
    )
    labels = ["1"] + [f"i{j}" for j in range(1, dim)]
    name = "CD(" + ",".join(str(a) for a in al) + ")"
    return Algebra(
        field, name, labels, table, unit=basis_vecs[0], quadratic=quadratic
    ).validate()


def sl2(field: Field) -> Algebra:
    """Traceless 2x2 matrices as a Lie algebra, basis (h, e, f)."""
    zero = field.zero
    two = field.element(2)
    one = field.one
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1][1] = two       # [h, e] = 2e
    table[1][0][1] = -two
    table[0][2][2] = -two      # [h, f] = -2f
    table[2][0][2] = two
    table[1][2][0] = one       # [e, f] = h
    table[2][1][0] = -one
    return Algebra(field, "sl2", ["h", "e", "f"], table).validate()


def termwise_power(field: Field, k: int) -> Algebra:
    """Direct sum of k copies of the field with termwise multiplication."""
    if k < 1:
        raise InvalidSpecError("need at least one factor")
    zero, one = field.zero, field.one
    table = [[[zero] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        table[i][i][i] = one
    return Algebra(
        field,
        f"TP{k}",
        [f"u{i + 1}" for i in range(k)],
        table,
        unit=[one] * k,
    ).validate()


def derived_algebra(a: Algebra, variant: str) -> Algebra:
    """The derived products: "plus" is xy + yx, "minus" is xy - yx.

    The result is a bare algebra on the same space: a unit of the original
    is no longer a unit here, so unit, quadratic data and matrix tags are
    all dropped.
    """
    if variant not in ("plus", "minus"):
        raise InvalidSpecError('variant must be "plus" or "minus"')
    table = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            ij = a.table_vector(i, j)
            ji = a.table_vector(j, i)
            if variant == "plus":
                row.append(vec_add(ij, ji))
            else:
                row.append(tuple(x - y for x, y in zip(ij, ji)))
        table.append(row)
    suffix = "+" if variant == "plus" else "-"
    return Algebra(a.field, a.name + suffix, a.basis, table)


def build_algebra(field: Field, spec: str) -> Algebra:
    """Dispatch on the canonical textual names used in algebra files.

    Recognized: M<n>, J(d1,..,dn), Gr2, K3, CD(a1,..,ak), sl2, TP<k>.
    """
    import re

    s = spec.strip()
    m = re.fullmatch(r"M(\d+)", s)
    if m:
        return matrix_algebra(field, int(m.group(1)))
    m = re.fullmatch(r"J\(([^)]*)\)", s)
    if m:
        return jordan_form(field, [field.parse(t) for t in m.group(1).split(",")])
    if s == "Gr2":
        return grassmann2(field)
    if s == "K3":
        return kaplansky3(field)
    m = re.fullmatch(r"CD\(([^)]*)\)", s)
    if m:
        return cayley_dickson(field, [field.parse(t) for t in m.group(1).split(",")])
    if s == "sl2":
        return sl2(field)
    m = re.fullmatch(r"TP(\d+)", s)
    if m:
        return termwise_power(field, int(m.group(1)))
    raise InvalidSpecError(f"unknown algebra spec {spec!r}")
