"""Orbit classification of operators and the fixed verification claims.

Three moves preserve the Rota-Baxter property with my conventions:
conjugation by any algebra automorphism, conjugation by a recorded
antiautomorphism (transposition on matrix algebras), and, for weight zero
only, rescaling the whole matrix.  The moves generate a finite group.
orbit_classify takes the strong generators of the automorphisms and the
operators from one call of search._rb_search, which also serves
enumerate_rb and the claims, and partitions the operators.  Each
orbit is closed breadth first from a few generators of the group
(residues._move_generators: the strong generators of the automorphisms'
stabiliser chain, the antiautomorphism, the nonzero scalars at weight 0),
in plain integer arithmetic, at |orbit| * |generators| images instead of
|orbit| * |group| (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, section 4.1).  The canonical representative is the
row-major smallest member.  The operator search is split by the
stabiliser chain of the whole group, with phi(R) = -R - w id added at
weight w != 0; phi is used by the search only, and the orbits are orbits
of the group without it.

The claims form one table, CLAIMS: each row names the primes and weight
its claim runs over, and the phrase `rbx verify` prints when it holds.
They decide their facts on the residue columns the searches have already
checked (search._check): splitting as R(R e_j) + w R e_j = 0 for every j,
the unit killed as R 1 = 0 or R 1 = -w 1, and a derivation invertible when
residues._inverse_mod_p finds its inverse.  T2 also looks up phi(R) among
the checked operators, and raises OrbitEscapeError when it is missing.  The
FieldElement predicates (rb.is_splitting, rb.apply_phi, Matrix.rank) are
kept for `rbx check` and `rbx construct` and as the tests' oracles; T6
alone reads FieldElement operators, re-checking each orbit representative
and reading kernels and images.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .algebras import Algebra, grassmann2, jordan_form, kaplansky3, matrix_algebra
from .errors import OrbitEscapeError
from .fields import PrimeField
from .linalg import vec_is_zero
from .rb import RBOperator, _diagnostics, _image_all_degenerate, weight0_matrix_ops
from .residues import (
    _conjugate,
    _inverse_mod_p,
    _matmul,
    _move_generators,
    _move_kinds,
    _to_int_rows,
    pack_columns,
)
from .search import IntAlgebra, _derivations, _rb_operators, _rb_search


def _pack_rows(rows: tuple) -> tuple:
    return tuple(x for row in rows for x in row)


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
    operators: tuple  # every operator classified, sorted row-major

    def lines(self) -> list[str]:
        out = []
        for k, orb in enumerate(self.orbits):
            tags = ",".join(orb.tags)
            out.append(f"orbit {k}: size={orb.size} rep={orb.rep_hex} tags={tags}")
        out.append(f"total={len(self.operators)} orbits={len(self.orbits)}")
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


def _orbits(p: int, gens: list, seeds, inside=None):
    """The orbit of each seed (residue columns) under the group the moves
    gens generate, as (packed seed, packed members), unless an earlier
    orbit holds the seed.

    Each orbit is closed breadth first, every member being moved once by
    each generator, so it costs |orbit| * |gens| images.  An image outside
    inside, when given, is kept among the members but not moved further.
    """
    seen: set = set()
    for cols in seeds:
        dim = len(cols)
        packed = pack_columns(cols, dim)
        if packed in seen:
            continue
        members = {packed}
        queue = [cols]
        for cur in queue:
            for move in gens:
                image = _conjugate(p, move, cur)
                if image not in members:
                    members.add(image)
                    if inside is None or image in inside:
                        queue.append(tuple(image[j::dim] for j in range(dim)))
        seen |= members
        yield packed, frozenset(members)


def orbit_classify(a: Algebra, weight) -> OrbitReport:
    """Every Rota-Baxter operator of the weight on a, in orbits under the
    three moves.

    The automorphisms come from one stabiliser chain, whose group splits
    the operator search (with phi at weight != 0); the orbits are closed
    from the moves of its strong generators, without phi.
    An image of an operator that is not itself an operator raises
    OrbitEscapeError.
    """
    w, strong, found = _rb_search(a, weight)
    p, dim = a.field.p, a.dim
    gens = _move_generators(p, dim, strong, *_move_kinds(a, w))
    by_key = dict(zip((pack_columns(cols, dim) for cols in found), _rb_operators(a, w, found)))
    orbits = []
    # found is sorted and each orbit is closed, so each orbit's seed is its
    # smallest member
    for rep, members in _orbits(p, gens, found, by_key.keys()):
        if not members <= by_key.keys():
            raise OrbitEscapeError(
                f"the orbit of operator {matrix_hex(rep, p)} leaves the "
                f"{len(found)} operators being classified"
            )
        # each representative is checked once more, by the FieldElement checker
        rep_op = RBOperator(by_key[rep].operator, w)
        orbits.append(OrbitInfo(len(members), rep, matrix_hex(rep, p), _op_tags(rep_op), members))
    return OrbitReport(a.name, str(w), tuple(orbits), tuple(by_key.values()))


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


def _splits(p: int, w: int, cols) -> bool:
    """R (R + w id) = 0, for R by its residue columns: R(R e_j) + w R e_j = 0
    for every j."""
    square = _matmul(p, cols, tuple(zip(*cols)))  # the columns of R R
    return all(
        not any((y + w * x) % p for y, x in zip(sq, col)) for sq, col in zip(square, cols)
    )


def _kills_unit(p: int, w: int, cols, unit) -> bool:
    """R 1 = 0 or phi(R) 1 = -R 1 - w 1 = 0, for R by its residue columns
    and 1 by its residues."""
    [image] = _matmul(p, (unit,), tuple(zip(*cols)))
    return not any(image) or not any((y + w * u) % p for y, u in zip(image, unit))


def _phi_images_found(p: int, w: int, dim: int, found) -> None:
    """Raise OrbitEscapeError unless phi(R) = -R - w id is among the checked
    operators found for every R in found."""
    keys = {pack_columns(cols, dim) for cols in found}
    for key in keys:
        image = tuple((-x - w * (k % (dim + 1) == 0)) % p for k, x in enumerate(key))
        if image not in keys:
            raise OrbitEscapeError(
                f"phi of operator {matrix_hex(key, p)} is not among the "
                f"{len(found)} operators found"
            )


def _claim_even_splitting(p: int, weight: int) -> tuple[bool, list[str]]:
    # even form-space dimension forces splitting for nonzero weight, and the
    # unit is killed by the operator or by its phi image, itself an operator
    a = jordan_form(PrimeField(p), [1, 1])
    w, _, found = _rb_search(a, weight)
    _phi_images_found(p, w.value, a.dim, found)
    unit = tuple(u.value for u in a.unit)
    split = all(_splits(p, w.value, cols) for cols in found)
    unit_killed = all(_kills_unit(p, w.value, cols, unit) for cols in found)
    return split and unit_killed, [
        f"J(1,1) over F{p} weight {weight}: {len(found)} operators, "
        f"splitting={'all' if split else 'NOT all'}, "
        f"unit killed up to phi={'all' if unit_killed else 'NOT all'}"
    ]


def _claim_all_splitting(label: str, build, p: int, weight: int) -> tuple[bool, list[str]]:
    w, _, found = _rb_search(build(PrimeField(p)), weight)
    split = all(_splits(p, w.value, cols) for cols in found)
    return split, [
        f"{label} over F{p} weight {weight}: {len(found)} operators, "
        f"splitting={'all' if split else 'NOT all'}"
    ]


def _soundness_fault(a: Algebra, ops) -> str | None:
    """The FAIL line of the first soundness fact an operator breaks."""
    for r in ops:
        image = r.image()
        if image.contains_vector(a.unit):
            return "FAIL: unit found inside an image"
        if r.kernel().dim < 2:
            return "FAIL: kernel dimension below 2"
        if _image_all_degenerate(a, image) is not True:
            return "FAIL: invertible matrix inside an image"
    return None


def _claim_m2_weight0(p: int, weight: int) -> tuple[bool, list[str]]:
    field = PrimeField(p)
    a = matrix_algebra(field, 2)
    report = orbit_classify(a, weight)
    fault = _soundness_fault(a, report.operators)
    ok = fault is None
    lines = [
        f"M2 over F{p} weight {weight}: {len(report.operators)} operators",
        fault or "every image is unit-free and singular, kernels have dim >= 2",
        *report.lines(),
    ]
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


def _closure_of_patterns(p: int, strong: list, patterns: list) -> set:
    """The images of the patterns (rows) under conjugation by every
    automorphism, closed from the strong generators."""
    gens = _move_generators(p, len(patterns[0]), strong)
    seeds = (tuple(zip(*rows)) for rows in patterns)
    return set().union(*(members for _, members in _orbits(p, gens, seeds)))


def _gr2_tail_patterns(p: int) -> list:
    # the radical tail: columns of 1 and e1 inside span{e2, e1e2}, rest zero
    return [
        ((0, 0, 0, 0), (0, 0, 0, 0), (c0, c2, 0, 0), (c1, c3, 0, 0))
        for c0, c1, c2, c3 in itertools.product(range(p), repeat=4)
    ]


def _k3_tail_patterns(p: int) -> list:
    # e, x killed, y into the span of e and x
    return [((0, 0, c0), (0, 0, c1), (0, 0, 0)) for c0, c1 in itertools.product(range(p), repeat=2)]


def _claim_pattern_closure(
    label: str, build, patterns, p: int, weight: int
) -> tuple[bool, list[str]]:
    # every operator of the weight is conjugate to a pattern: the claim holds
    # when the pattern conjugates are exactly the enumerated operators, so
    # every operator is reached, and nothing else is
    a = build(PrimeField(p))
    _, strong, found = _rb_search(a, weight)
    keys = {pack_columns(cols, a.dim) for cols in found}
    # the closure is this claim's peak: on Gr2/F3 holding the columns
    # through it raised peak RSS by about 0.15 MB
    del found
    closure = _closure_of_patterns(p, strong, patterns(p))
    lines = [
        f"{label} over F{p} weight {weight}: {len(keys)} operators, "
        f"{len(closure)} pattern conjugates, outside the closure: {len(keys - closure)}"
    ]
    extra = len(closure - keys)
    if extra:
        lines.append(f"FAIL: {extra} pattern conjugates are not operators")
    return closure == keys, lines


def _claim_gr2_derivations(p: int, weight: int) -> tuple[bool, list[str]]:
    a = grassmann2(PrimeField(p))
    ders = _derivations(IntAlgebra(a), weight % p)
    invertible = [d for d in ders if _inverse_mod_p(d, p) is not None]
    neg_id = tuple(tuple((p - 1) * (i == j) for i in range(a.dim)) for j in range(a.dim))
    only = len(invertible) == 1 and invertible[0] == neg_id
    return only, [
        f"Gr2 over F{p} weight {weight}: {len(ders)} derivations, "
        f"{len(invertible)} invertible, minus-identity only: {only}"
    ]


@dataclass(frozen=True)
class Claim:
    """One claim of the paper: the primes and weight it quantifies over,
    the phrase `rbx verify` prints when it holds, and run(p, weight), which
    checks it over one prime at that weight."""

    id: str
    primes: tuple
    weight: int
    phrase: str
    run: Callable[[int, int], tuple[bool, list[str]]]


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
    runs = [row.run(p, row.weight) for p in row.primes]
    lines = tuple(ln for _, run_lines in runs for ln in run_lines)
    return ClaimReport(claim, all(ok for ok, _ in runs), lines)
