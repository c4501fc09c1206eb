"""Operators on the Jordan algebra of a diagonal symmetric form.

J(d_1, .., d_n) has basis (1, e_1, .., e_n) with e_i e_j = delta_ij d_i 1.
For an operator matrix (r_ij) the Rota-Baxter identity becomes a system of
quadratic equations in the entries; gen_system writes it out, either raw or
in the reduced variables

    rbar_ij = (s_i / s_j) r_ij,   s_0 = 1, s_i = sqrt(d_i),

where every nonzero-weight operator that moves the unit off the scalar line
satisfies rbar_kk = -w/2, rbar_kl = -rbar_lk (k, l >= 1) and
rbar_0k = z rbar_k0 for a sign z.  The sign and the value of rbar_00 sort
such operators into three cases (I, IIa, IIb), and cases IIa and IIb are in
bijection with skew matrices M obeying M M = (w/2)^2 E.  Case I reduces to
IIa by negating the first row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebras import Algebra, jordan_form
from .errors import (
    ConstraintViolatedError,
    DimensionMismatchError,
    InvalidSpecError,
    InvalidWitnessError,
    NoSquareRootError,
    NotApplicableError,
    ZeroFirstRowError,
    ZeroWeightError,
)
from .fields import Field, FieldElement, PrimeField
from .linalg import Matrix, Vector, as_vector, vec_is_zero
from .rb import LinearOperator, RBOperator, coerce_weight


@dataclass(frozen=True)
class JordanSpec:
    """Field, form diagonal and weight fixing one instance of the system."""

    field: Field
    diagonal: Vector
    weight: FieldElement

    @classmethod
    def make(cls, field: Field, diagonal, weight) -> "JordanSpec":
        return cls(field, as_vector(field, diagonal), coerce_weight(field, weight))

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def algebra(self) -> Algebra:
        return jordan_form(self.field, self.diagonal)


def jordan_diagonal(a: Algebra) -> Vector:
    """The form diagonal of a Jordan-form algebra, or NotApplicableError."""
    if a.unit is None or a.quadratic is None or a.dim < 2:
        raise NotApplicableError("not a Jordan form algebra")
    field = a.field
    d = [-a.quadratic.gram[i, i] for i in range(1, a.dim)]
    if any(di.is_zero() for di in d):
        raise NotApplicableError("degenerate form diagonal")
    if a.table != jordan_form(field, d).table:
        raise NotApplicableError("products do not match a Jordan form algebra")
    return tuple(d)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Polynomial over a field in named variables, stored sparsely.

    A monomial is a tuple of (name, exponent) pairs sorted by name; the
    printed form lists terms in sorted monomial order, so equal polynomials
    print identically.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            if not c.is_zero():
                clean[mono] = c
        self.field = field
        self.terms = clean

    @classmethod
    def const(cls, field: Field, c) -> "Poly":
        return cls(field, {(): field.element(c)})

    @classmethod
    def var(cls, field: Field, name: str) -> "Poly":
        return cls(field, {((name, 1),): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, self.field.zero) + c
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        return Poly(self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = self.field.element(c)
        return Poly(self.field, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                powers: dict = {}
                for name, e in m1 + m2:
                    powers[name] = powers.get(name, 0) + e
                mono = tuple(sorted(powers.items()))
                c = c1 * c2
                out[mono] = out.get(mono, self.field.zero) + c
        return Poly(self.field, out)

    def evaluate(self, assignment: dict) -> FieldElement:
        total = self.field.zero
        for mono, c in self.terms.items():
            val = c
            for name, e in mono:
                val = val * (assignment[name] ** e)
            total = total + val
        return total

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            if not mono:
                parts.append(str(c))
            else:
                body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    __repr__ = __str__


def reduce_z_squared(p: Poly) -> Poly:
    """Rewrite powers of z modulo z*z = 1."""
    out: dict = {}
    for mono, c in p.terms.items():
        new = tuple((n, e % 2 if n == "z" else e) for n, e in mono if not (n == "z" and e % 2 == 0))
        out[new] = out.get(new, p.field.zero) + c
    return Poly(p.field, out)


@dataclass(frozen=True)
class SystemLine:
    series: str
    target: str
    poly: Poly


@dataclass(frozen=True)
class PolynomialSystem:
    kind: str
    field: Field
    diagonal: Vector
    weight: FieldElement
    lines: tuple[SystemLine, ...]

    def format(self) -> str:
        d = ",".join(str(x) for x in self.diagonal)
        head = f"system kind={self.kind} field={self.field!r} d={d} weight={self.weight}"
        body = [f"series={ln.series} target={ln.target}: {ln.poly}" for ln in self.lines]
        return "\n".join([head] + body) + "\n"

    def residuals(self, assignment: dict) -> list[FieldElement]:
        return [ln.poly.evaluate(assignment) for ln in self.lines]


def raw_assignment(m: Matrix) -> dict:
    return {
        f"r_{{{i},{j}}}": m[i, j] for i in range(m.nrows) for j in range(m.ncols)
    }


def _series_tag(i: int, j: int) -> str:
    if i == 0 and j == 0:
        return "00"
    if i == 0:
        return "0k"
    if i == j:
        return "ss"
    return "kl"


def gen_system(spec: JordanSpec, reduced: bool = False) -> PolynomialSystem:
    """The Rota-Baxter equations for operator matrices on J(d_1..d_n).

    Raw: variables r_{i,j}, one polynomial per nonzero component of the
    identity on a symmetrized basis pair (commutativity makes those
    sufficient).  Reduced: variables rbar_{i,j} and the sign z, with the
    diagonal, skewness and row-column proportionality substituted in.
    """
    return _gen_reduced(spec) if reduced else _gen_raw(spec)


def _gen_raw(spec: JordanSpec) -> PolynomialSystem:
    field = spec.field
    a = spec.algebra()
    dim = a.dim
    w = spec.weight

    rvar = [[Poly.var(field, f"r_{{{i},{j}}}") for j in range(dim)] for i in range(dim)]
    zero = Poly(field)

    def pvec_mul(x: list[Poly], y: list[Poly]) -> list[Poly]:
        out = [zero] * dim
        for i in range(dim):
            if x[i].is_zero():
                continue
            for j in range(dim):
                if y[j].is_zero():
                    continue
                xy = x[i] * y[j]
                for k, c in a.table[i][j]:
                    out[k] = out[k] + xy.scale(c)
        return out

    def apply_r(v: list[Poly]) -> list[Poly]:
        return [
            sum((rvar[i][m] * v[m] for m in range(dim) if not v[m].is_zero()), zero)
            for i in range(dim)
        ]

    basis = [[Poly.const(field, 1) if k == j else zero for k in range(dim)] for j in range(dim)]
    cols = [[rvar[i][j] for i in range(dim)] for j in range(dim)]

    lines = []
    for i in range(dim):
        for j in range(i, dim):
            lhs = pvec_mul(cols[i], cols[j])
            inner = [
                x + y for x, y in zip(pvec_mul(cols[i], basis[j]), pvec_mul(basis[i], cols[j]))
            ]
            if not w.is_zero():
                tv = a.table_vector(i, j)
                inner = [x + Poly.const(field, c * w) for x, c in zip(inner, tv)]
            rhs = apply_r(inner)
            tag = _series_tag(i, j)
            for t in range(dim):
                poly = lhs[t] - rhs[t]
                if not poly.is_zero():
                    lines.append(SystemLine(tag, str(t), poly))
    return PolynomialSystem("raw", field, spec.diagonal, w, tuple(lines))


def _gen_reduced(spec: JordanSpec) -> PolynomialSystem:
    field = spec.field
    n = spec.n
    w = spec.weight
    half_w = w / 2
    z = Poly.var(field, "z")

    def vb(i: int, j: int) -> Poly:
        # resolve the built-in relations down to the free variables
        if i == 0 and j == 0:
            return Poly.var(field, "rbar_{0,0}")
        if j == 0:
            return Poly.var(field, f"rbar_{{{i},0}}")
        if i == 0:
            return z * vb(j, 0)
        if i == j:
            return Poly.const(field, -half_w)
        if i < j:
            return Poly.var(field, f"rbar_{{{i},{j}}}")
        return -Poly.var(field, f"rbar_{{{j},{i}}}")

    one = Poly.const(field, 1)
    lines = [SystemLine("z", "-", z * z - one)]

    r00 = vb(0, 0)
    lines.append(
        SystemLine("unit", "-", reduce_z_squared((one + z) * (r00.scale(2) + Poly.const(field, w))))
    )

    s = Poly(field)
    for p in range(1, n + 1):
        s = s + vb(p, 0) * vb(p, 0)
    col0 = (one - z.scale(2)) * s - r00 * (r00 + Poly.const(field, w))
    lines.append(SystemLine("col0", "-", reduce_z_squared(col0)))

    for i in range(1, n + 1):
        acc = Poly(field)
        for p in range(1, n + 1):
            acc = acc + vb(p, i) * vb(p, 0)
        acc = acc + (z * vb(0, i)).scale(half_w)
        acc = reduce_z_squared(acc)
        if not acc.is_zero():
            lines.append(SystemLine("cross", str(i), acc))

    for k in range(1, n + 1):
        acc = Poly(field)
        for p in range(1, n + 1):
            acc = acc + vb(p, k) * vb(p, k)
        acc = acc - vb(0, k) * vb(0, k)
        acc = reduce_z_squared(acc)
        if not acc.is_zero():
            lines.append(SystemLine("diag", str(k), acc))

    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            acc = Poly(field)
            for p in range(1, n + 1):
                acc = acc + vb(p, k) * vb(p, l)
            acc = acc - vb(0, k) * vb(0, l)
            acc = reduce_z_squared(acc)
            if not acc.is_zero():
                lines.append(SystemLine("offdiag", f"{k},{l}", acc))

    return PolynomialSystem("reduced", field, spec.diagonal, w, tuple(lines))


# ---------------------------------------------------------------------------
# normalization and the three cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedForm:
    """The rescaled matrix rbar, the sign z and the case label."""

    rbar: Matrix
    z: FieldElement
    case: str


def _form_roots(field: Field, diagonal: Vector) -> list[FieldElement]:
    roots = [field.one]
    for d in diagonal:
        r = field.sqrt(d)
        if r is None or r.is_zero():
            raise NoSquareRootError(f"no square root of {d} in {field!r}")
        roots.append(r)
    return roots


def normalize_and_classify(r: RBOperator) -> NormalizedForm:
    """Rescale by the form roots and read off the case of the operator.

    Applies to nonzero weight on a Jordan form algebra when the unit image
    is not a scalar; everything else raises (ZeroWeightError,
    NotApplicableError or NoSquareRootError).
    """
    a = r.algebra
    d = jordan_diagonal(a)
    if r.weight.is_zero():
        raise ZeroWeightError("classification needs a nonzero weight")
    field = a.field
    w = r.weight
    roots = _form_roots(field, d)
    m = r.matrix
    rbar = Matrix(
        field,
        [[roots[i] / roots[j] * m[i, j] for j in range(a.dim)] for i in range(a.dim)],
    )
    neg_half = -(w / 2)
    for k in range(1, a.dim):
        if rbar[k, k] != neg_half:
            raise NotApplicableError("diagonal entries do not sit at -w/2")
        for l in range(k + 1, a.dim):
            if rbar[k, l] != -rbar[l, k]:
                raise NotApplicableError("inner block is not skew")
    z = None
    for k in range(1, a.dim):
        if rbar[k, 0].is_zero():
            if not rbar[0, k].is_zero():
                raise NotApplicableError("first row is not proportional to first column")
            continue
        cand = rbar[0, k] / rbar[k, 0]
        if z is None:
            z = cand
        elif z != cand:
            raise NotApplicableError("first row is not proportional to first column")
    if z is None:
        raise NotApplicableError("unit maps to a scalar")
    if z != field.one and z != -field.one:
        raise NotApplicableError("proportionality sign is not +-1")
    r00 = rbar[0, 0]
    if z == field.one:
        if r00 != neg_half:
            raise NotApplicableError("corner entry inconsistent with z = 1")
        case = "I"
    elif r00 == w / 2:
        case = "IIa"
    elif r00 == -(3 * (w / 2)):
        case = "IIb"
    else:
        raise NotApplicableError("corner entry inconsistent with z = -1")
    return NormalizedForm(rbar, z, case)


def classify_case(r: RBOperator) -> str | None:
    """The case label, or None when the classification does not apply."""
    try:
        return normalize_and_classify(r).case
    except (NotApplicableError, ZeroWeightError, NoSquareRootError):
        return None


# ---------------------------------------------------------------------------
# the skew-matrix correspondence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewWitness:
    """A skew matrix M with M M = (w/2)^2 E, plus the affine shift.

    shift is w/2 except in characteristic three, where the correspondence
    shifts by -w/2; either way (shift E + M) has isotropic columns.
    """

    matrix: Matrix
    shift: FieldElement


def _imaginary_unit(field: Field) -> FieldElement:
    i = field.sqrt(-field.one)
    if i is None:
        raise NoSquareRootError(f"no square root of -1 in {field!r}")
    return i


def _check_witness(m: Matrix, w: FieldElement):
    if m.nrows != m.ncols:
        raise DimensionMismatchError("witness must be square")
    if not m.is_skew():
        raise InvalidWitnessError("witness is not skew")
    if vec_is_zero(m.row(0)):
        raise ZeroFirstRowError("witness has a zero first row")
    target = Matrix.identity(m.field, m.nrows).scale((w / 2) * (w / 2))
    if m * m != target:
        raise InvalidWitnessError("witness fails M M = (w/2)^2 E")


def rb_to_skew(r: RBOperator) -> tuple[SkewWitness, str]:
    """Encode a classified operator as a skew matrix; returns (witness, case).

    Cases IIa and IIb map directly; case I is first carried to IIa by
    negating the first row of rbar.  Entries touching index 0 pick up a
    factor sqrt(-1), so the field must contain one.
    """
    nf = normalize_and_classify(r)
    field = r.algebra.field
    w = r.weight
    imag = _imaginary_unit(field)
    rows = [list(row) for row in nf.rbar.data]
    if nf.case == "I":
        rows[0] = [-e for e in rows[0]]
    dim = len(rows)
    out = [[field.zero] * dim for _ in range(dim)]
    for k in range(dim):
        for l in range(dim):
            if k == l:
                continue
            factor = imag if (k == 0 or l == 0) else field.one
            out[k][l] = factor * rows[k][l]
    m = Matrix(field, out)
    _check_witness(m, w)
    shift = -(w / 2) if field.char == 3 else w / 2
    return SkewWitness(m, shift), nf.case


def skew_to_rb(spec: JordanSpec, witness: SkewWitness, case: str) -> RBOperator:
    """Decode a skew witness back into an operator on J(d_1..d_n)."""
    if case not in ("I", "IIa", "IIb"):
        raise InvalidSpecError(f"unknown case {case!r}")
    field = spec.field
    w = spec.weight
    if w.is_zero():
        raise ZeroWeightError("the correspondence needs a nonzero weight")
    m = witness.matrix
    if m.nrows != spec.n + 1:
        raise DimensionMismatchError("witness size does not match the spec")
    _check_witness(m, w)
    imag = _imaginary_unit(field)
    dim = spec.n + 1
    corner = -(3 * (w / 2)) if case == "IIb" else w / 2
    rbar = [[field.zero] * dim for _ in range(dim)]
    rbar[0][0] = corner
    for k in range(1, dim):
        rbar[k][k] = -(w / 2)
        rbar[0][k] = m[0, k] / imag
        rbar[k][0] = m[k, 0] / imag
        for l in range(1, dim):
            if l != k:
                rbar[k][l] = m[k, l]
    if case == "I":
        rbar[0] = [-e for e in rbar[0]]
    roots = _form_roots(field, spec.diagonal)
    rows = [
        [roots[j] / roots[i] * rbar[i][j] for j in range(dim)] for i in range(dim)
    ]
    return RBOperator(LinearOperator(spec.algebra(), Matrix(field, rows)), w)


def random_skew_witness(spec: JordanSpec, rng: random.Random) -> SkewWitness:
    """A random witness M = (w/2) C K C^T with C a product of reflections.

    K is block diagonal with blocks [[0, i], [-i, 0]] (i = sqrt(-1)), so
    K K = E and M M = (w/2)^2 E; reflections keep C orthogonal.  Only even
    sizes carry witnesses: an odd skew matrix is singular.
    """
    field = spec.field
    w = spec.weight
    if w.is_zero():
        raise ZeroWeightError("witnesses exist only for nonzero weight")
    size = spec.n + 1
    if size % 2:
        raise ConstraintViolatedError("odd size has no skew witness")
    imag = _imaginary_unit(field)
    zero, one = field.zero, field.one
    kblock = [[zero] * size for _ in range(size)]
    for b in range(size // 2):
        kblock[2 * b][2 * b + 1] = imag
        kblock[2 * b + 1][2 * b] = -imag
    k0 = Matrix(field, kblock)
    if not field.is_finite:
        raise NotApplicableError("random witnesses are drawn over finite fields")
    pool = list(field.elements())
    while True:
        c = Matrix.identity(field, size)
        for _ in range(size):
            while True:
                v = [rng.choice(pool) for _ in range(size)]
                vv = sum((x * x for x in v), zero)
                if not vv.is_zero() and any(not x.is_zero() for x in v):
                    break
            scale = field.element(2) / vv
            refl = Matrix(
                field,
                [
                    [
                        (one if i == j else zero) - scale * v[i] * v[j]
                        for j in range(size)
                    ]
                    for i in range(size)
                ],
            )
            c = c * refl
        m = (c * k0 * c.transpose()).scale(w / 2)
        if not vec_is_zero(m.row(0)):
            _check_witness(m, w)
            return SkewWitness(m, -(w / 2) if field.char == 3 else w / 2)


# ---------------------------------------------------------------------------
# reference operators
# ---------------------------------------------------------------------------


def block_pair_op(spec: JordanSpec) -> RBOperator:
    """A non-splitting case IIb operator built from 2x2 blocks.

    Needs an even basis count 1 + n; pairs (e_2, e_3), (e_4, e_5), .. are
    coupled through square roots of -d_i/d_{i+1}, and the unit couples with
    e_1 through sqrt(d_1).  All entries carry a factor w/2.
    """
    field = spec.field
    n = spec.n
    if (n + 1) % 2:
        raise ConstraintViolatedError("needs an even total dimension")
    w = spec.weight
    if w.is_zero():
        raise ZeroWeightError("the construction needs a nonzero weight")
    d = spec.diagonal
    half_w = w / 2
    dim = n + 1
    t = [[field.zero] * dim for _ in range(dim)]
    t[0][0] = field.element(-3)
    s1 = field.sqrt(d[0])
    if s1 is None or s1.is_zero():
        raise NoSquareRootError("no square root of d_1")
    t[0][1] = s1
    t[1][0] = -s1.inverse()
    for i in range(1, dim):
        t[i][i] = -field.one
    for i in range(2, dim, 2):
        ratio = -(d[i - 1] / d[i])
        root = field.sqrt(ratio)
        if root is None:
            raise NoSquareRootError(f"no square root of {ratio}")
        t[i][i + 1] = (d[i] / d[i - 1]) * root
        t[i + 1][i] = -root
    rows = [[half_w * e for e in row] for row in t]
    return RBOperator(LinearOperator(spec.algebra(), Matrix(field, rows)), w)


def _j111_op(field: Field, cols) -> RBOperator:
    """The weight -1 operator on J(1,1,1) with the given integer columns."""
    spec = JordanSpec.make(field, [1, 1, 1], -1)
    return RBOperator(LinearOperator.from_columns(spec.algebra(), cols), spec.weight)


def nonsplit_dim4_op(field: Field | None = None) -> RBOperator:
    """The fixed non-splitting weight -1 operator on J(1,1,1) mod 5."""
    cols = [[4, 4, 3, 3], [1, 3, 4, 1], [2, 1, 3, 2], [2, 4, 3, 3]]
    return _j111_op(field or PrimeField(5), cols)


def split_dim4_op(field: Field | None = None) -> RBOperator:
    """The fixed splitting weight -1 operator on J(1,1,1) mod 13."""
    cols = [[7, 7, 7, 9], [7, 7, 7, 9], [7, 6, 7, 4], [9, 4, 9, 7]]
    return _j111_op(field or PrimeField(13), cols)


def rank_one_split_op(
    spec: JordanSpec, alpha, k, l
) -> RBOperator:
    """Splitting operator on J(d_1, d_2): unit to zero, e_i to multiples of v.

    v = a_0 1 + a_1 e_1 + a_2 e_2 must be isotropic for the norm, and the
    multipliers must satisfy k a_1 + l a_2 + w = 0 with (k, l) nonzero.
    """
    field = spec.field
    if spec.n != 2:
        raise ConstraintViolatedError("defined for a two-dimensional form space")
    w = spec.weight
    av = as_vector(field, alpha)
    if len(av) != 3:
        raise DimensionMismatchError(f"alpha needs 3 entries, got {len(av)}")
    kc = coerce_weight(field, k)
    lc = coerce_weight(field, l)
    if vec_is_zero(av):
        raise ConstraintViolatedError("v must be nonzero")
    if kc.is_zero() and lc.is_zero():
        raise ConstraintViolatedError("(k, l) must be nonzero")
    d1, d2 = spec.diagonal
    if av[0] * av[0] - d1 * av[1] * av[1] - d2 * av[2] * av[2] != field.zero:
        raise ConstraintViolatedError("v is not isotropic for the norm")
    if kc * av[1] + lc * av[2] + w != field.zero:
        raise ConstraintViolatedError("k a_1 + l a_2 + w must vanish")
    zero = [field.zero] * 3
    cols = [zero, [kc * x for x in av], [lc * x for x in av]]
    return RBOperator(LinearOperator.from_columns(spec.algebra(), cols), w)
