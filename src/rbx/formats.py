"""Plain-text file formats for algebras, operators and tensors.

Grammar (one record per file, '#' lines and blank lines ignored):

  algebra file:
    "algebra" NAME "field=" FIELD "dim=" INT
    "basis" NAME*
    ["unit=" ELEM*]
    ["grading=" INT*]
    (INT INT INT ELEM)*          product line: e_i e_j has ELEM on e_k

  operator file:
    "operator" "algebra=" NAME "weight=" ELEM
    ELEM* x dim                  matrix rows; columns are basis images

  tensor file:
    "tensor" "algebra=" NAME "terms=" INT
    ("a=" ELEM* ";" "b=" ELEM*) x terms

FIELD is Q, F<p> or F<p>(s=<a>); ELEM uses the field's element encoding.
Writing then reading is the identity on the textual form.  An algebra that
is not a builder's is validated when read (Algebra.validate).
"""

from __future__ import annotations

import re

from .algebras import Algebra, build_algebra
from .errors import AlgebraMismatchError, InvalidSpecError
from .fields import MAX_DIGITS, bounded_int, field_from_text, field_to_text
from .linalg import Matrix, Vector
from .rb import LinearOperator, RBOperator, coerce_weight
from .ybe import Tensor2

_ALGEBRA_HEADER = re.compile(r"algebra\s+(\S+)\s+field=(\S+)\s+dim=(\d+)")
_OPERATOR_HEADER = re.compile(r"operator\s+algebra=(\S+)\s+weight=(\S+)")
_TENSOR_HEADER = re.compile(r"tensor\s+algebra=(\S+)\s+terms=(\d+)")
# the product table holds dim^3 cells; the largest shipped algebra has dim 16
MAX_DIM = 64
# the builder names that carry their size: M<n>, TP<k>, J(..) and CD(..)
_SIZED_NAME = re.compile(r"(M|TP)(\d+)|(J|CD)\(([^)]*)\)")


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _vec_text(vec) -> str:
    return " ".join(str(c) for c in vec)


def _header(text: str, kind: str, pattern: re.Pattern, algebra: Algebra | None = None):
    """The content lines of a record and the match of its header line.

    The header's first group names the algebra; when an algebra is given it
    must be the one named.
    """
    lines = _content_lines(text)
    if not lines:
        raise InvalidSpecError(f"empty {kind} file")
    m = pattern.fullmatch(lines[0])
    if not m:
        raise InvalidSpecError(f"bad {kind} header {lines[0]!r}")
    if algebra is not None and m.group(1) != algebra.name:
        raise AlgebraMismatchError(f"{kind} file is for {m.group(1)!r}, not {algebra.name!r}")
    return lines, m


def _parse_ints(parts, line: str) -> list[int]:
    try:
        return [int(t) for t in parts]
    except ValueError:
        raise InvalidSpecError(f"non-integer entry in {line!r}") from None


def _parse_vec(field, parts, dim) -> Vector:
    if len(parts) != dim:
        raise InvalidSpecError(f"expected {dim} entries, got {len(parts)}")
    return tuple(field.parse(t) for t in parts)


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


def algebra_to_text(a: Algebra) -> str:
    lines = [f"algebra {a.name} field={field_to_text(a.field)} dim={a.dim}"]
    lines.append("basis " + " ".join(a.basis))
    if a.unit is not None:
        lines.append("unit= " + _vec_text(a.unit))
    if a.grading is not None:
        lines.append("grading= " + " ".join(str(g) for g in a.grading))
    for i in range(a.dim):
        for j in range(a.dim):
            for k, c in a.table[i][j]:
                lines.append(f"{i} {j} {k} {c}")
    return "\n".join(lines) + "\n"


def algebra_from_text(text: str, allow_char2: bool = False) -> Algebra:
    lines, m = _header(text, "algebra", _ALGEBRA_HEADER)
    name = m.group(1)
    field = field_from_text(m.group(2), allow_char2=allow_char2)
    too_large = f"dim must be at most {MAX_DIM}"
    dim = bounded_int(m.group(3), too_large, len(str(MAX_DIM)))
    if dim > MAX_DIM:
        raise InvalidSpecError(too_large)
    if dim < 1:
        raise InvalidSpecError("dim must be at least 1")
    basis = None
    unit = None
    grading = None
    # entries by (i, j, k): the dim^3 cube is built only once the basis
    # line has confirmed dim
    entries: dict = {}
    for line in lines[1:]:
        if line.startswith("basis"):
            basis = line.split()[1:]
            if len(basis) != dim:
                raise InvalidSpecError("basis line length != dim")
        elif line.startswith("unit="):
            unit = _parse_vec(field, line[len("unit=") :].split(), dim)
        elif line.startswith("grading="):
            parts = line[len("grading=") :].split()
            if len(parts) != dim:
                raise InvalidSpecError("grading line length != dim")
            grading = tuple(_parse_ints(parts, line))
        else:
            parts = line.split()
            if len(parts) != 4:
                raise InvalidSpecError(f"bad product line {line!r}")
            i, j, k = _parse_ints(parts[:3], line)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InvalidSpecError(f"index out of range in {line!r}")
            entries[i, j, k] = entries.get((i, j, k), field.zero) + field.parse(parts[3])
    if basis is None:
        raise InvalidSpecError("missing basis line")
    zero = field.zero
    cells = [
        [[entries.get((i, j, k), zero) for k in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]
    parsed = Algebra(field, name, basis, cells, unit=unit, grading=grading)
    if _builds_dim(name, dim):
        try:
            rebuilt = build_algebra(field, name)
        except InvalidSpecError:
            return parsed.validate()
        if rebuilt == parsed and rebuilt.basis == parsed.basis:
            # canonical algebra: keep the builder's structural extras
            return rebuilt
    return parsed.validate()


def _builds_dim(name: str, dim: int) -> bool:
    """False when build_algebra would give name a dimension other than dim.

    M<n> has n^2, TP<k> k, J(d1,..,dn) n + 1 and CD(a1,..,ak) 2^k; the
    sizes are compared before any table of dim^3 cells is built.  Other
    names have one small size each, or are no builder's.
    """
    m = _SIZED_NAME.fullmatch(name)
    if m is None:
        return True
    if m.group(2):
        try:
            n = bounded_int(m.group(2), "size past MAX_DIM", len(str(MAX_DIM)))
        except InvalidSpecError:
            return False
        return (n * n if m.group(1) == "M" else n) == dim
    k = m.group(4).count(",") + 1
    return (k + 1 if m.group(3) == "J" else 2**k) == dim


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def operator_to_text(op, weight=None) -> str:
    if isinstance(op, RBOperator):
        weight = op.weight
        op = op.operator
    if weight is None:
        raise InvalidSpecError("weight required when writing a bare operator")
    w = coerce_weight(op.algebra.field, weight)
    lines = [
        f"operator algebra={op.algebra.name} weight={w}",
        "# columns hold the images of the basis vectors",
    ]
    for row in op.matrix.data:
        lines.append(_vec_text(row))
    return "\n".join(lines) + "\n"


def operator_from_text(text: str, algebra: Algebra):
    """Parse a matrix over the given algebra; returns (operator, weight).

    No Rota-Baxter verification happens here; callers decide what to check.
    """
    lines, m = _header(text, "operator", _OPERATOR_HEADER, algebra)
    field = algebra.field
    weight = field.parse(m.group(2))
    rows = lines[1:]
    if len(rows) != algebra.dim:
        raise InvalidSpecError(f"expected {algebra.dim} matrix rows, got {len(rows)}")
    data = [_parse_vec(field, line.split(), algebra.dim) for line in rows]
    return LinearOperator(algebra, Matrix(field, data)), weight


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def tensor_to_text(t: Tensor2) -> str:
    lines = [f"tensor algebra={t.algebra.name} terms={len(t.terms)}"]
    for a, b in t.terms:
        lines.append(f"a= {_vec_text(a)} ; b= {_vec_text(b)}")
    return "\n".join(lines) + "\n"


def tensor_from_text(text: str, algebra: Algebra) -> Tensor2:
    lines, m = _header(text, "tensor", _TENSOR_HEADER, algebra)
    count = bounded_int(m.group(2), f"terms= has more than {MAX_DIGITS} digits")
    if len(lines) - 1 != count:
        raise InvalidSpecError(f"expected {count} term lines, got {len(lines) - 1}")
    field = algebra.field
    terms = []
    for line in lines[1:]:
        mm = re.fullmatch(r"a=\s*(.*?)\s*;\s*b=\s*(.*)", line)
        if not mm:
            raise InvalidSpecError(f"bad tensor term line {line!r}")
        av = _parse_vec(field, mm.group(1).split(), algebra.dim)
        bv = _parse_vec(field, mm.group(2).split(), algebra.dim)
        terms.append((av, bv))
    return Tensor2(algebra, terms)
