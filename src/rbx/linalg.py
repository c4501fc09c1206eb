"""Exact linear algebra over the scalar fields.

Matrices are immutable, row-major, with entries of a single field.  Vectors
are plain tuples of FieldElement.  Everything here is fraction-free in
spirit: no pivoting heuristics, no tolerance; the first nonzero entry wins,
which makes every echelon form (and hence every Subspace basis) canonical.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatchError, FieldMismatchError, NotInvertibleError
from .fields import Field, FieldElement

Vector = tuple[FieldElement, ...]


def as_vector(field: Field, entries: Sequence) -> Vector:
    return tuple(map(field.element, entries))


def zero_vector(field: Field, n: int) -> Vector:
    return (field.zero,) * n


def vec_add(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatchError("vector lengths differ")
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatchError("vector lengths differ")
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c: FieldElement, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def vec_dot(field: Field, x: Vector, y: Vector) -> FieldElement:
    """The sum of x_k * y_k, skipping zero factors."""
    acc = field.zero
    for a, b in zip(x, y):
        if not a.is_zero() and not b.is_zero():
            acc = acc + a * b
    return acc


def vec_is_zero(x: Vector) -> bool:
    return all(a.is_zero() for a in x)


class Matrix:
    """Immutable matrix over one of the exact fields."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: Field, rows: Iterable[Sequence]):
        data = tuple(as_vector(field, row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatchError("ragged rows")
        self._fill(field, data)

    def _fill(self, field: Field, data: tuple) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", len(data[0]) if data else 0)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # --- constructors ---------------------------------------------------
    @classmethod
    def _trusted(cls, field: Field, data: tuple) -> "Matrix":
        """The matrix whose rows are data, taken as they are.

        Only for callers whose data is already a tuple of equal-length
        tuples of field's own elements.
        """
        m = cls.__new__(cls)
        m._fill(field, data)
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> "Matrix":
        cols = [as_vector(field, c) for c in columns]
        if cols and any(len(c) != len(cols[0]) for c in cols):
            raise DimensionMismatchError("ragged columns")
        n = len(cols[0]) if cols else 0
        return cls(field, [[c[i] for c in cols] for i in range(n)])

    # --- basic access ---------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    # --- arithmetic -----------------------------------------------------
    def _check_same(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("shape mismatch in addition")
        return Matrix(self.field, [vec_add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-e for e in row] for row in self.data])

    def scale(self, c) -> "Matrix":
        c = self.field.element(c)
        return Matrix(self.field, [[c * e for e in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_same(other)
            if self.ncols != other.nrows:
                raise DimensionMismatchError("inner dimensions differ")
            cols = other.columns()
            return Matrix(
                self.field, [[vec_dot(self.field, row, c) for c in cols] for row in self.data]
            )
        return self.scale(other)

    __rmul__ = scale

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product M v."""
        vec = as_vector(self.field, v)
        if len(vec) != self.ncols:
            raise DimensionMismatchError("vector length != column count")
        return tuple(vec_dot(self.field, row, vec) for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return (self + self.transpose()).is_zero() and all(
            self.data[i][i].is_zero() for i in range(min(self.nrows, self.ncols))
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        rows = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Matrix[{rows}]"

    # --- elimination ----------------------------------------------------
    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot columns.

        Deterministic: in each column the first row with a nonzero entry
        below the current one becomes the pivot.
        """
        rows = [list(r) for r in self.data]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            pivot_row = next((i for i in range(r, nr) if not rows[i][c].is_zero()), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = rows[r][c].inverse()
            rows[r] = [inv * e for e in rows[r]]
            for i in range(nr):
                if i != r and not rows[i][c].is_zero():
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise NotInvertibleError("only square matrices invert")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = Matrix(self.field, [list(self.data[i]) + list(ident.data[i]) for i in range(n)])
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)):
            raise NotInvertibleError("matrix is singular")
        return Matrix(self.field, [red.data[i][n:] for i in range(n)])

    def det(self) -> FieldElement:
        """Determinant by fraction-free-enough Gaussian elimination."""
        if self.nrows != self.ncols:
            raise DimensionMismatchError("determinant of non-square matrix")
        n = self.nrows
        rows = [list(r) for r in self.data]
        det = self.field.one
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
            if pivot_row is None:
                return self.field.zero
            if pivot_row != c:
                rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
                det = -det
            det = det * rows[c][c]
            inv = rows[c][c].inverse()
            for i in range(c + 1, n):
                if not rows[i][c].is_zero():
                    f = rows[i][c] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        return det


def rank_nullspace(m: Matrix) -> tuple[int, "Subspace"]:
    """Rank of m and its (right) nullspace as a canonical Subspace."""
    red, pivots = m.rref()
    field, nc = m.field, m.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * nc
        v[f] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][f]
        basis.append(tuple(v))
    return len(pivots), Subspace(field, nc, basis)


def solve(m: Matrix, b: Sequence) -> Vector | None:
    """One solution of M x = b (free variables set to zero), or None."""
    bvec = as_vector(m.field, b)
    if len(bvec) != m.nrows:
        raise DimensionMismatchError("rhs length != row count")
    aug = Matrix(m.field, [list(row) + [bb] for row, bb in zip(m.data, bvec)])
    red, pivots = aug.rref()
    if m.ncols in pivots:
        return None
    x = [m.field.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][m.ncols]
    return tuple(x)


class Subspace:
    """A subspace of F^n, stored as its canonical reduced-echelon basis.

    Two Subspace objects are equal exactly when they are the same subspace;
    the RREF basis makes this a plain tuple comparison.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, vectors: Iterable[Sequence]):
        vecs = [as_vector(field, v) for v in vectors]
        if any(len(v) != ambient for v in vecs):
            raise DimensionMismatchError("vector length != ambient dimension")
        if vecs:
            red, pivots = Matrix(field, vecs).rref()
            basis = tuple(red.data[i] for i in range(len(pivots)))
        else:
            basis, pivots = (), ()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains_vector(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(b) for b in other.basis)

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v in the canonical basis, or None if v is outside.

        Each canonical basis vector is the only one with a nonzero entry at
        its own pivot column, so the coefficients can be read off directly.
        """
        vec = as_vector(self.field, v)
        if len(vec) != self.ambient:
            raise DimensionMismatchError("vector length != ambient dimension")
        coords = tuple(vec[p] for p in self.pivots)
        recomposed = [self.field.zero] * self.ambient
        for c, b in zip(coords, self.basis):
            if not c.is_zero():
                recomposed = [a + c * e for a, e in zip(recomposed, b)]
        if tuple(recomposed) != vec:
            return None
        return coords

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(self.field, self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row-reduce [U|U; V|0]; rows (0|w) span the intersection."""
        self._check(other)
        n = self.ambient
        zero = [self.field.zero] * n
        block = [list(b) + list(b) for b in self.basis] + [list(b) + zero for b in other.basis]
        if not block:
            return Subspace(self.field, n, [])
        red, _ = Matrix(self.field, block).rref()
        inter = []
        for row in red.data:
            left, right = row[:n], row[n:]
            if vec_is_zero(left) and not vec_is_zero(right):
                inter.append(right)
        return Subspace(self.field, n, inter)

    def _check(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionMismatchError("subspaces of different ambient spaces")

    def __repr__(self):
        rows = "; ".join(" ".join(str(e) for e in b) for b in self.basis)
        return f"Subspace<{rows}>" if self.basis else "Subspace<0>"
