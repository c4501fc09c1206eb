"""Orbit classification of operators and the fixed verification claims.

Three moves preserve the Rota-Baxter property with my conventions:
conjugation by any algebra automorphism, conjugation by a recorded
antiautomorphism (transposition on matrix algebras), and, for weight zero
only, rescaling the whole matrix.  The moves generate a finite group that
is listed in full, so each orbit is the set of images of one operator
under every group element, computed in plain integer arithmetic; the
canonical representative is the row-major smallest member.

The claims form one table, CLAIMS: each row names the primes and weight
its claim runs over, and the phrase `rbx verify` prints when it holds.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from operator import mul

from .algebras import Algebra, grassmann2, jordan_form, kaplansky3, matrix_algebra
from .errors import OrbitEscapeError, UnsupportedFieldError
from .fields import PrimeField, QuadraticExtension
from .linalg import Matrix, vec_is_zero
from .rb import (
    LinearOperator,
    RBOperator,
    _diagnostics,
    apply_phi,
    coerce_weight,
    is_splitting,
    weight0_matrix_ops,
)
from .search import (
    _inverse_mod_p,
    enumerate_automorphisms,
    enumerate_derivations,
    enumerate_rb,
)


def _to_int_rows(m: Matrix) -> tuple:
    return tuple(tuple(e.value for e in row) for row in m.data)


def _matmul(p: int, a: tuple, b: tuple) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _moves(p: int, autos: list, antiauto=None, scalars=(1,)) -> list:
    """The group generated by the moves, as (left, right^T) residue pairs.

    A move sends R to left * R * right.  autos must be the whole
    automorphism group.  An antiautomorphism t normalises it and t*t is an
    automorphism, so Aut and t*Aut together are closed under composition;
    scalars commute with conjugation.  The returned moves are therefore
    the whole group, and one operator's images under them are its orbit.
    """
    pairs = [(_inverse_mod_p(rows, p), rows) for rows in map(_to_int_rows, autos)]
    if antiauto is not None:
        t = _to_int_rows(antiauto)
        tinv = _inverse_mod_p(t, p)
        pairs += [(_matmul(p, t, inv), _matmul(p, h, tinv)) for inv, h in pairs]
    return [
        (tuple(tuple(s * x % p for x in row) for row in left), tuple(zip(*right)))
        for left, right in pairs
        for s in scalars
    ]


def _conjugate(p: int, move: tuple, cols: tuple) -> tuple:
    """The packed rows of left * R * right, for R given by its columns."""
    left, right_t = move
    lr = [[sum(map(mul, row, col)) for col in cols] for row in left]
    return tuple(sum(map(mul, row, col)) % p for row in lr for col in right_t)


def _pack_rows(rows: tuple) -> tuple:
    return tuple(x for row in rows for x in row)


def _unpack_rows(packed: tuple, dim: int) -> tuple:
    return tuple(packed[i * dim : (i + 1) * dim] for i in range(dim))


def matrix_hex(packed: tuple, p: int) -> str:
    """Row-major digits base p folded into one integer, printed in hex."""
    acc = 0
    for d in packed:
        acc = acc * p + d
    return format(acc, "x")


@dataclass(frozen=True)
class OrbitInfo:
    size: int
    rep: tuple
    rep_hex: str
    tags: tuple
    members: frozenset


@dataclass(frozen=True)
class OrbitReport:
    algebra_name: str
    weight: str
    orbits: tuple
    total: int

    def lines(self) -> list[str]:
        out = []
        for k, orb in enumerate(self.orbits):
            tags = ",".join(orb.tags)
            out.append(f"orbit {k}: size={orb.size} rep={orb.rep_hex} tags={tags}")
        out.append(f"total={self.total} orbits={len(self.orbits)}")
        return out

    def orbit_of(self, packed: tuple) -> int | None:
        for k, orb in enumerate(self.orbits):
            if packed in orb.members:
                return k
        return None


def _op_tags(r: RBOperator) -> tuple:
    rep = _diagnostics(r)
    tags = []
    if rep.splitting:
        tags.append("splitting")
    if rep.square_zero:
        tags.append("sq0")
    if rep.unit_image is not None:
        if vec_is_zero(rep.unit_image):
            tags.append("unit:zero")
        elif rep.unit_image_scalar:
            tags.append("unit:scalar")
        else:
            tags.append("unit:general")
    if rep.unit_case != "not-applicable":
        tags.append(f"case:{rep.unit_case}")
    return tuple(tags)


def pack_operator(r: RBOperator) -> tuple:
    return _pack_rows(_to_int_rows(r.matrix))


def orbit_classify(a: Algebra, ops: list[RBOperator], weight) -> OrbitReport:
    """Partition the operators into orbits under the three moves.

    ops must be closed under the moves; an image outside it raises
    OrbitEscapeError.
    """
    field = a.field
    if isinstance(field, QuadraticExtension) or not isinstance(field, PrimeField):
        raise UnsupportedFieldError("orbit classification runs over prime fields")
    p = field.p
    dim = a.dim
    w = coerce_weight(field, weight)
    scalars = range(1, p) if w.is_zero() else (1,)
    moves = _moves(p, enumerate_automorphisms(a), a.antiauto, scalars)
    keys = {pack_operator(r) for r in ops}
    seen: set = set()
    orbits = []
    for r in ops:
        packed = pack_operator(r)
        if packed in seen:
            continue
        cols = tuple(packed[j::dim] for j in range(dim))
        members = frozenset(_conjugate(p, m, cols) for m in moves)
        if not members <= keys:
            raise OrbitEscapeError(
                f"the orbit of operator {matrix_hex(packed, p)} leaves the "
                f"{len(ops)} operators being classified"
            )
        seen |= members
        rep = min(members)
        rep_op = RBOperator(
            LinearOperator(
                a, Matrix(field, [[field.element(x) for x in row] for row in _unpack_rows(rep, dim)])
            ),
            w,
        )
        orbits.append(OrbitInfo(len(members), rep, matrix_hex(rep, p), _op_tags(rep_op), members))
    orbits.sort(key=lambda o: o.rep)
    return OrbitReport(a.name, str(w), tuple(orbits), len(ops))


# ---------------------------------------------------------------------------
# the claim suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimReport:
    claim: str
    ok: bool
    lines: tuple

    def format(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        body = [f"claim {self.claim}: {status}"]
        body.extend(f"  {ln}" for ln in self.lines)
        return "\n".join(body)


def _claim_even_splitting(claim: Claim) -> tuple[bool, list[str]]:
    # even form-space dimension forces splitting for nonzero weight, and the
    # unit is killed by the operator or by its phi image
    ok = True
    lines = []
    for p in claim.primes:
        a = jordan_form(PrimeField(p), [1, 1])
        ops = enumerate_rb(a, claim.weight)
        split = all(is_splitting(r) for r in ops)
        unit_killed = all(
            vec_is_zero(r.matrix.apply(a.unit))
            or vec_is_zero(apply_phi(r).matrix.apply(a.unit))
            for r in ops
        )
        ok = ok and split and unit_killed
        lines.append(
            f"J(1,1) over F{p} weight {claim.weight}: {len(ops)} operators, "
            f"splitting={'all' if split else 'NOT all'}, "
            f"unit killed up to phi={'all' if unit_killed else 'NOT all'}"
        )
    return ok, lines


def _claim_all_splitting(label: str, build, claim: Claim) -> tuple[bool, list[str]]:
    ok = True
    lines = []
    for p in claim.primes:
        ops = enumerate_rb(build(PrimeField(p)), claim.weight)
        split = all(is_splitting(r) for r in ops)
        ok = ok and split
        lines.append(
            f"{label} over F{p} weight {claim.weight}: {len(ops)} operators, "
            f"splitting={'all' if split else 'NOT all'}"
        )
    return ok, lines


def _image_elements(field, basis, dim):
    span = [tuple(field.zero for _ in range(dim))]
    for b in basis:
        span = [
            tuple(x + c * y for x, y in zip(v, b))
            for v in span
            for c in field.elements()
        ]
    return span


def _soundness_fault(a: Algebra, ops) -> str | None:
    """The FAIL line of the first soundness fact an operator breaks."""
    for r in ops:
        image = r.image()
        if image.contains_vector(a.unit):
            return "FAIL: unit found inside an image"
        if r.kernel().dim < 2:
            return "FAIL: kernel dimension below 2"
        for v in _image_elements(a.field, list(image.basis), a.dim):
            if not (v[0] * v[3] - v[1] * v[2]).is_zero():
                return "FAIL: invertible matrix inside an image"
    return None


def _claim_m2_weight0(claim: Claim) -> tuple[bool, list[str]]:
    ok = True
    lines = []
    for p in claim.primes:
        field = PrimeField(p)
        a = matrix_algebra(field, 2)
        ops = enumerate_rb(a, claim.weight)
        lines.append(f"M2 over F{p} weight {claim.weight}: {len(ops)} operators")
        fault = _soundness_fault(a, ops)
        ok = ok and fault is None
        lines.append(fault or "every image is unit-free and singular, kernels have dim >= 2")
        report = orbit_classify(a, ops, claim.weight)
        lines.extend(report.lines())
        placements = {
            name: report.orbit_of(pack_operator(op))
            for name, op in sorted(weight0_matrix_ops(field).items())
        }
        if None in placements.values():
            ok = False
            lines.append("FAIL: a reference operator is missing from the enumeration")
        elif len(set(placements.values())) != len(placements):
            ok = False
            lines.append("FAIL: reference operators share an orbit")
        else:
            placed = " ".join(f"{k}->orbit {v}" for k, v in sorted(placements.items()))
            lines.append(f"reference operators sit in distinct orbits: {placed}")
    return ok, lines


def _closure_of_patterns(a: Algebra, patterns) -> set:
    p = a.field.p
    moves = _moves(p, enumerate_automorphisms(a))
    closure: set = set()
    for rows in patterns:
        # Aut is a group: a pattern already reached brings nothing new
        if _pack_rows(rows) not in closure:
            cols = tuple(zip(*rows))
            closure.update(_conjugate(p, m, cols) for m in moves)
    return closure


def _gr2_tail_patterns(p: int) -> list:
    # the radical tail: columns of 1 and e1 inside span{e2, e1e2}, rest zero
    return [
        ((0, 0, 0, 0), (0, 0, 0, 0), (c0, c2, 0, 0), (c1, c3, 0, 0))
        for c0, c1, c2, c3 in itertools.product(range(p), repeat=4)
    ]


def _k3_tail_patterns(p: int) -> list:
    # e, x killed, y into the span of e and x
    return [((0, 0, c0), (0, 0, c1), (0, 0, 0)) for c0, c1 in itertools.product(range(p), repeat=2)]


def _claim_pattern_closure(label: str, build, patterns, claim: Claim) -> tuple[bool, list[str]]:
    # every operator of the weight is conjugate to a pattern: the claim holds
    # when the pattern conjugates are exactly the enumerated operators, so
    # every operator is reached, and nothing else is
    ok = True
    lines = []
    for p in claim.primes:
        a = build(PrimeField(p))
        ops = enumerate_rb(a, claim.weight)
        closure = _closure_of_patterns(a, patterns(p))
        keys = {pack_operator(r) for r in ops}
        lines.append(
            f"{label} over F{p} weight {claim.weight}: {len(ops)} operators, "
            f"{len(closure)} pattern conjugates, outside the closure: {len(keys - closure)}"
        )
        extra = len(closure - keys)
        if extra:
            lines.append(f"FAIL: {extra} pattern conjugates are not operators")
        ok = ok and closure == keys
    return ok, lines


def _claim_gr2_derivations(claim: Claim) -> tuple[bool, list[str]]:
    ok = True
    lines = []
    for p in claim.primes:
        field = PrimeField(p)
        a = grassmann2(field)
        ders = enumerate_derivations(a, claim.weight)
        invertible = [d for d in ders if d.matrix.rank() == a.dim]
        neg_id = Matrix.identity(field, a.dim).scale(-1)
        only = len(invertible) == 1 and invertible[0].matrix == neg_id
        ok = ok and only
        lines.append(
            f"Gr2 over F{p} weight {claim.weight}: {len(ders)} derivations, "
            f"{len(invertible)} invertible, minus-identity only: {only}"
        )
    return ok, lines


@dataclass(frozen=True)
class Claim:
    """One claim of the paper: the primes and weight it quantifies over,
    the phrase `rbx verify` prints when it holds, and run(claim), which
    checks it over every prime at that weight."""

    id: str
    primes: tuple
    weight: int
    phrase: str
    run: Callable[[Claim], tuple[bool, list[str]]]


CLAIMS = {
    c.id: c
    for c in (
        Claim("T2-even-splitting", (3, 5), 1, "all splitting", _claim_even_splitting),
        Claim("T4-gr2", (3,), 1, "all splitting", partial(_claim_all_splitting, "Gr2", grassmann2)),
        Claim("T5-k3", (3, 5), 1, "all splitting", partial(_claim_all_splitting, "K3", kaplansky3)),
        Claim("T6-soundness", (3,), 0, "soundness facts hold", _claim_m2_weight0),
        Claim(
            "P1-gr2-weight0", (3,), 0, "classification covers all operators",
            partial(_claim_pattern_closure, "Gr2", grassmann2, _gr2_tail_patterns),
        ),
        Claim(
            "P2-k3-weight0", (5,), 0, "classification covers all operators",
            partial(_claim_pattern_closure, "K3", kaplansky3, _k3_tail_patterns),
        ),
        Claim(
            "C5-no-invertible-derivations", (3,), 1, "only minus identity is invertible",
            _claim_gr2_derivations,
        ),
    )
}


def verify_claim(claim: str) -> ClaimReport:
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim {claim!r}")
    row = CLAIMS[claim]
    ok, lines = row.run(row)
    return ClaimReport(claim, ok, tuple(lines))
