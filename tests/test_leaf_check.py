"""The integer leaf check of the search against the FieldElement checkers.

_passing (with the rank and grading checks for automorphisms) must agree
with check_rb, check_derivation_weight and check_automorphism on every
matrix, alone and in a batch of others.  A weight-w derivation d is checked
as enumerate_derivations finds it: at w != 0 through phi = id + w d and the
automorphism pair, at w = 0 against the rows of _leibniz_rows.  Random matrices are almost never
in the solution set, so the draws mix in known members of it, and near
misses one entry away.

The enumerators check all their leaves in one batch, once each, on
residues, and raise on a leaf that fails; the commands that take an
operator check it once.
"""

import contextlib
import copy
import functools
import io
import operator
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbx import algebras, rb, search
from rbx.algebras import (
    Algebra,
    check_automorphism,
    grassmann2,
    jordan_form,
    matrix_algebra,
    termwise_power,
)
from rbx.cli import main
from rbx.errors import LeafRejectedError, NotInvertibleError
from rbx.fields import PrimeField
from rbx.formats import algebra_from_text, operator_from_text
from rbx.linalg import Subspace
from rbx.rb import LinearOperator, check_derivation_weight, check_rb
from rbx.search import (
    IntAlgebra,
    _auto_pair,
    _columns_to_matrix,
    _inverse_mod_p,
    _keeps_grading,
    _leibniz_rows,
    _passing,
    _rb_pair,
    pack_columns,
    enumerate_automorphisms,
    enumerate_derivations,
    enumerate_rb,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

PRIME_FIXTURES = (
    "gr2_f3", "k3_f3", "k3_f5", "m2_f3", "j3_f5", "j4_f5", "j4_f13", "sl2_f7", "cd_f5",
)

# small algebras whose full solution sets are cheap to enumerate, by weight
RB_ENUMERATED = {0: {"k3_f3", "k3_f5", "m2_f3", "j3_f5"}, 1: {"gr2_f3", "k3_f3", "m2_f3", "j3_f5"}}
SMALL = RB_ENUMERATED[0] | RB_ENUMERATED[1]

# on K3/F3 this fails the operator, derivation and automorphism identities
BAD = ((2, 0, 0), (0, 1, 0), (0, 0, 1))

# (operator file, fixture) pairs of known Rota-Baxter operators
KNOWN_OPS = (
    ("ex10.op", "j4_f5"), ("ex11.op", "j4_f5"), ("ex12.op", "j4_f13"), ("ex13.op", "j3_f5"),
)

# Gr2/F3 with its Z/2 grading (odd generators): some of its multiplicative
# invertible maps break the grading, which no fixture algebra has
GRADED_GR2 = "gr2_f3_graded"


@functools.cache
def load(name: str) -> IntAlgebra:
    if name == GRADED_GR2:
        a = load("gr2_f3").algebra
        table = [[a.table_vector(i, j) for j in range(a.dim)] for i in range(a.dim)]
        graded = Algebra(a.field, "Gr2", a.basis, table, unit=a.unit, grading=[0, 1, 1, 0])
        return IntAlgebra(graded.validate())
    return IntAlgebra(algebra_from_text((FIXTURES / f"{name}.alg").read_text()))


def columns(m) -> tuple:
    return tuple(tuple(x.value for x in col) for col in m.columns())


def scaled(cols, c: int, p: int) -> tuple:
    return tuple(tuple(c * x % p for x in col) for col in cols)


def diagonal(dim: int, c: int) -> tuple:
    return tuple(tuple(c if k == j else 0 for k in range(dim)) for j in range(dim))


@functools.cache
def enumerated(name: str, kind: str, w: int) -> tuple:
    enumerate_kind = enumerate_rb if kind == "rb" else enumerate_derivations
    return tuple(columns(r.matrix) for r in enumerate_kind(load(name).algebra, w))


@functools.cache
def rb_members(name: str, w: int) -> tuple:
    """Known weight-w operators: zero and -w id, enumerated ones on small
    algebras (w times a weight-1 operator has weight w), and the shipped
    examples rescaled the same way."""
    ia = load(name)
    p, dim, a = ia.p, ia.dim, ia.algebra
    out = [diagonal(dim, 0), diagonal(dim, -w % p)]
    base = 1 if w else 0
    if name in RB_ENUMERATED[base]:
        out += [scaled(cols, w or 1, p) for cols in enumerated(name, "rb", base)]
    for op_file, fixture in KNOWN_OPS:
        if fixture == name and w:
            op, w0 = operator_from_text((FIXTURES / op_file).read_text(), a)
            out.append(scaled(columns(op.matrix), w * pow(w0.value, p - 2, p), p))
    return tuple(out)


@functools.cache
def derivation_members(name: str, w: int) -> tuple:
    """Known weight-w derivations: zero, -id/w, and enumerated ones on small
    algebras (a weight-1 derivation divided by w has weight w)."""
    ia = load(name)
    p, dim = ia.p, ia.dim
    out = [diagonal(dim, 0)]
    if w:
        out.append(diagonal(dim, -pow(w, p - 2, p) % p))
    if name in SMALL:
        inv = pow(w, p - 2, p) if w else 1
        out += [scaled(cols, inv, p) for cols in enumerated(name, "derivation", 1 if w else 0)]
    return tuple(out)


@functools.cache
def auto_members(name: str) -> tuple:
    """Multiplicative maps: the identity and the zero map (singular), and on
    small algebras every multiplicative map of the ungraded search, which
    includes singular and grading-breaking ones."""
    ia = load(name)
    out = [diagonal(ia.dim, 1), diagonal(ia.dim, 0)]
    if name in SMALL or name == GRADED_GR2:
        pair = functools.partial(_auto_pair, ia)
        out += search._search(ia, pair, search._full_pools(ia, auto=False))
    return tuple(out)


def pair_of(ia: IntAlgebra, kind: str, w: int):
    """The pair the search checks: a derivation d through phi_of(d)."""
    if kind == "rb":
        return functools.partial(_rb_pair, ia, w)
    return functools.partial(_auto_pair, ia)


def phi_of(ia: IntAlgebra, cols, w: int) -> tuple:
    """id + w d, multiplicative exactly when d is a weight-w derivation."""
    return tuple(tuple((w * x + (k == c)) % ia.p for k, x in enumerate(col))
                 for c, col in enumerate(cols))


def int_passing(ia: IntAlgebra, kind: str, leaves, w: int) -> list:
    """The leaves the integer check passes, as the enumerators check them."""
    if kind == "derivation" and not w:
        rows = _leibniz_rows(ia)
        return [cols for cols in leaves
                if not any(sum(map(operator.mul, row, pack_columns(cols, ia.dim))) % ia.p
                           for row in rows)]
    if kind == "derivation":
        phis = [phi_of(ia, cols, w) for cols in leaves]
        passed = {id(phi) for phi in _passing(ia, pair_of(ia, kind, w), phis)}
        return [cols for cols, phi in zip(leaves, phis) if id(phi) in passed]
    passed = _passing(ia, pair_of(ia, kind, w), leaves)
    if kind == "auto":
        return [
            cols for cols in passed
            if _inverse_mod_p(cols, ia.p) is not None and _keeps_grading(ia, cols)
        ]
    return passed


def int_says(ia: IntAlgebra, kind: str, cols, w: int) -> bool:
    return int_passing(ia, kind, [cols], w) == [cols]


def field_says(ia: IntAlgebra, kind: str, cols, w: int) -> bool:
    a = ia.algebra
    m = _columns_to_matrix(a.field, cols, ia.dim)
    if kind == "rb":
        return check_rb(LinearOperator(a, m), w)
    if kind == "derivation":
        return check_derivation_weight(LinearOperator(a, m), w)
    return check_automorphism(a, m)


@st.composite
def candidates(draw, name: str, kind: str):
    ia = load(name)
    p, dim = ia.p, ia.dim
    w = draw(st.one_of(st.just(0), st.just(1), st.integers(2, p - 1)))
    members = {"rb": rb_members, "derivation": derivation_members}.get(kind)
    known = members(name, w) if members else auto_members(name)
    source = draw(st.sampled_from(("random", "member", "near-miss")))
    if source == "random":
        flat = draw(st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim))
        return tuple(tuple(flat[j * dim : (j + 1) * dim]) for j in range(dim)), w
    cols = draw(st.sampled_from(known))
    if source == "near-miss":
        j, k = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        delta = draw(st.integers(1, p - 1))
        col = list(cols[j])
        col[k] = (col[k] + delta) % p
        cols = cols[:j] + (tuple(col),) + cols[j + 1 :]
    return cols, w


@pytest.mark.parametrize(
    "name,kind",
    [(name, kind) for name in PRIME_FIXTURES for kind in ("rb", "derivation", "auto")]
    + [(GRADED_GR2, "auto")],
)
def test_leaf_check_matches_field_checker(name, kind):
    ia = load(name)

    @given(candidates(name, kind))
    def agree(drawn):
        cols, w = drawn
        assert int_says(ia, kind, cols, w) == field_says(ia, kind, cols, w)

    agree()


# unital and not, commutative and not, graded; near misses of one member
# share most of their columns, so a batch holds relations decided once for
# several leaves
BATCHED = ("gr2_f3", "k3_f5", "m2_f3", "j4_f5", "sl2_f7")


@pytest.mark.parametrize(
    "name,kind",
    [(name, kind) for name in BATCHED for kind in ("rb", "derivation", "auto")]
    + [(GRADED_GR2, "auto")],
)
def test_batch_check_matches_field_checker(name, kind):
    # one batch per weight drawn, its leaves in the drawn order: each
    # verdict must be the FieldElement checker's on that leaf alone
    ia = load(name)

    @given(st.lists(candidates(name, kind), min_size=1, max_size=12))
    def agree(drawn):
        for w in sorted({w for _, w in drawn}):
            batch = [cols for cols, w_drawn in drawn if w_drawn == w]
            expected = [cols for cols in batch if field_says(ia, kind, cols, w)]
            assert int_passing(ia, kind, batch, w) == expected

    agree()


@pytest.mark.parametrize(
    "kind,w,member,miss",
    [
        # R(e1e2) = 2 e1e2, or d(e1e2) = e1e2 (phi(e1e2) = 2 e1e2), alone
        # breaks only the pairs (1, 2) and (2, 1), whose v = +-e1e2 reads
        # column 3; their columns 1 and 2 are the same in both maps
        ("rb", 1, ((0,) * 4,) * 4, ((0,) * 4,) * 3 + ((0, 0, 0, 2),)),
        ("derivation", 1, ((0,) * 4,) * 4, ((0,) * 4,) * 3 + ((0, 0, 0, 1),)),
        # swapping e1 and e2 sends e1e2 to -e1e2, not to e1e2
        (
            "auto", 0,
            ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 2)),
            ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
        ),
    ],
    ids=["rb", "derivation", "auto"],
)
def test_batch_verdict_reads_every_column_of_v(kind, w, member, miss):
    # member and miss differ in column 3 only; miss breaks only pairs that
    # read column 3 through v alone, not as C_i or C_j, so a verdict keyed
    # on (C_i, C_j) would hand the verdict of one to the other
    ia = load("gr2_f3")
    pair = pair_of(ia, kind, w)
    assert field_says(ia, kind, member, w) and not field_says(ia, kind, miss, w)
    assert member[:3] == miss[:3]
    # a derivation is searched and checked as phi = id + w d
    leaf = phi_of(ia, miss, w) if kind == "derivation" else miss

    def holds(i, j):
        v, u = pair(leaf, i, j)
        acc = [sum(v[m] * leaf[m][k] for m in range(4)) - u[k] for k in range(4)]
        return not any(x % ia.p for x in acc)

    broken = [(i, j) for i in range(4) for j in range(4) if not holds(i, j)]
    assert broken and all(3 not in (i, j) and pair(leaf, i, j)[0][3] for i, j in broken)
    assert int_passing(ia, kind, [member, miss], w) == [member]
    assert int_passing(ia, kind, [miss, member], w) == [member]


def test_each_auto_leaf_check_rejects():
    # the rank and the grading check each reject maps that pass the pair
    # identity, and the field checker rejects them too
    ia = load(GRADED_GR2)
    verdicts = {"rank": 0, "grading": 0, "auto": 0}
    members = list(auto_members(GRADED_GR2))
    assert _passing(ia, functools.partial(_auto_pair, ia), members) == members
    for cols in members:
        if _inverse_mod_p(cols, ia.p) is None:
            verdict = "rank"
        elif not _keeps_grading(ia, cols):
            verdict = "grading"
        else:
            verdict = "auto"
        verdicts[verdict] += 1
        assert field_says(ia, "auto", cols, 0) == (verdict == "auto")
    assert all(verdicts.values())


# --- the pairs the leaf check tests -------------------------------------------

# _passing tests the pairs (i, j) with i <= j on a commutative algebra and
# every ordered pair otherwise
PAIR_ALGEBRAS = {
    "J(1,1)/F3": lambda: jordan_form(PrimeField(3), [1, 1]),
    "TP4/F2": lambda: termwise_power(PrimeField(2, allow_char2=True), 4),
    "Gr2/F3": lambda: grassmann2(PrimeField(3)),
    "M2/F3": lambda: matrix_algebra(PrimeField(3), 2),
}


@functools.cache
def pair_algebra(name: str) -> IntAlgebra:
    return IntAlgebra(PAIR_ALGEBRAS[name]())


@functools.cache
def upper_solutions(name: str, kind: str, w: int) -> tuple:
    """The maps meeting the pairs (i, j) with i <= j alone, found by a search
    told the algebra is commutative.  Every result is among them; on M2/F3
    so are maps that fail some pair (j, i), which a check of the pairs
    i <= j alone would keep."""
    ia = pair_algebra(name)
    upper = copy.copy(ia)
    upper.commutative = True
    pair = pair_of(ia, kind, w)
    return tuple(search._search(upper, pair, search._pools(upper, pair, auto=False)))


@st.composite
def pair_candidates(draw, name: str, kind: str, w: int):
    ia = pair_algebra(name)
    p, dim = ia.p, ia.dim
    source = draw(st.sampled_from(("random", "upper", "near-miss")))
    if source == "random":
        flat = draw(st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim))
        return tuple(tuple(flat[j * dim : (j + 1) * dim]) for j in range(dim))
    cols = draw(st.sampled_from(upper_solutions(name, kind, w)))
    if source == "near-miss":
        j, k = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        col = list(cols[j])
        col[k] = (col[k] + draw(st.integers(1, p - 1))) % p
        cols = cols[:j] + (tuple(col),) + cols[j + 1 :]
    return cols


@pytest.mark.parametrize(
    "name,kind,w",
    [(name, kind, w) for name in PAIR_ALGEBRAS
     for kind, w in (("rb", 0), ("rb", 1), ("auto", 0))],
)
def test_passing_tests_the_pairs_the_field_checker_needs(name, kind, w):
    # a batch of random matrices, solutions of the pairs i <= j alone, and
    # near misses of those: _passing keeps exactly what check_rb or
    # check_automorphism accepts, on commutative algebras too
    ia = pair_algebra(name)
    assert ia.commutative == (name in ("J(1,1)/F3", "TP4/F2"))
    if name == "M2/F3":
        full = search._search(ia, pair_of(ia, kind, w),
                              search._pools(ia, pair_of(ia, kind, w), auto=False))
        assert len(upper_solutions(name, kind, w)) > len(full)

    @settings(derandomize=True)
    @given(st.lists(pair_candidates(name, kind, w), min_size=1, max_size=8))
    def agree(batch):
        expected = [cols for cols in batch if field_says(ia, kind, cols, w)]
        assert int_passing(ia, kind, batch, w) == expected

    agree()


# --- values the search drops before it starts --------------------------------


@functools.cache
def dropped(name: str, kind: str, w: int) -> tuple:
    """Per column, the values _node_consistent cuts from its pool; for a
    derivation, the d(b_c) whose phi(b_c) = b_c + w d(b_c) it cuts, and
    none at w = 0, where nothing is searched."""
    ia = load(name)
    if kind == "derivation" and not w:
        return ((),) * ia.dim
    pools = search._full_pools(ia, kind == "auto")
    cut = search._node_consistent(ia, pair_of(ia, kind, w), pools)
    out = tuple(sorted(set(pool) - set(kept)) for pool, kept in zip(pools, cut))
    if kind != "derivation":
        return out
    inv = pow(w, ia.p - 2, ia.p)
    return tuple(sorted(tuple((x - (k == c)) * inv % ia.p for k, x in enumerate(y)) for y in ys)
                 for c, ys in enumerate(out))


@pytest.mark.parametrize(
    "name,kind",
    [(name, kind) for name in ("gr2_f3", "m2_f3", "k3_f5", "j3_f5", "j4_f5")
     for kind in ("rb", "derivation", "auto")]
    + [(GRADED_GR2, "auto")],
)
def test_dropped_values_fail_the_field_checker(name, kind):
    # a matrix whose column c is a value cut from column c's pool is no
    # result, whatever its other columns hold: random ones, or those of a
    # known member, which would pass with its own column c
    ia = load(name)
    p, dim = ia.p, ia.dim
    weights = [0] if kind == "auto" else range(p)
    assert any(any(dropped(name, kind, w)) for w in weights)

    @given(st.data())
    def rejected(data):
        w = data.draw(st.sampled_from([w for w in weights if any(dropped(name, kind, w))]))
        cut = dropped(name, kind, w)
        c = data.draw(st.sampled_from([c for c in range(dim) if cut[c]]))
        members = {"rb": rb_members, "derivation": derivation_members}.get(kind)
        known = members(name, w) if members else auto_members(name)
        if data.draw(st.booleans()):
            cols = list(data.draw(st.sampled_from(known)))
        else:
            flat = data.draw(st.lists(st.integers(0, p - 1), min_size=dim * dim,
                                      max_size=dim * dim))
            cols = [tuple(flat[j * dim : (j + 1) * dim]) for j in range(dim)]
        cols[c] = data.draw(st.sampled_from(cut[c]))
        assert not field_says(ia, kind, tuple(cols), w)

    rejected()


# --- inverses on residues ----------------------------------------------------


@pytest.mark.parametrize("name", [n for n in PRIME_FIXTURES if n != "j4_f13"])
def test_inverse_mod_p_matches_matrix_inverse(name):
    # j4_f13 is left out: its automorphism search takes about 6 s, and its
    # listed inverses are checked in test_search.py's chain test
    a = load(name).algebra
    for h in enumerate_automorphisms(a):
        inv = h.inverse()
        assert _inverse_mod_p(columns(h), a.field.p) == columns(inv)
        assert _inverse_mod_p(columns(h.transpose()), a.field.p) == columns(inv.transpose())


def test_inverse_mod_p_singular():
    # the third column is the sum of the first two: the last pivot is missing
    cols = ((1, 0, 1), (0, 1, 1), (1, 1, 2))
    with pytest.raises(NotInvertibleError):
        _columns_to_matrix(PrimeField(5), cols, 3).inverse()
    assert _inverse_mod_p(cols, 5) is None
    assert _inverse_mod_p(diagonal(3, 0), 5) is None


# --- leaf rejection ----------------------------------------------------------


def corrupt_search(monkeypatch, cols):
    monkeypatch.setattr(search, "_search", lambda ia, pair, pools, moves=(): [cols])


def test_rejected_rb_leaf_raises(monkeypatch):
    ia = load("k3_f3")
    assert not check_rb(LinearOperator(ia.algebra, _columns_to_matrix(ia.algebra.field, BAD, 3)), 1)
    corrupt_search(monkeypatch, BAD)
    with pytest.raises(LeafRejectedError):
        enumerate_rb(ia.algebra, 1)


def test_rejected_derivation_leaf_raises(monkeypatch):
    ia = load("k3_f3")
    op = LinearOperator(ia.algebra, _columns_to_matrix(ia.algebra.field, BAD, 3))
    assert not check_derivation_weight(op, 1)
    corrupt_search(monkeypatch, BAD)
    with pytest.raises(LeafRejectedError):
        enumerate_derivations(ia.algebra, 1)


def test_rejected_derivation_basis_raises(monkeypatch):
    # at weight 0 nothing is searched: a nullspace basis vector that fails
    # the Leibniz rows is rejected before any member is listed
    ia = load("k3_f3")
    field = ia.algebra.field
    assert not check_derivation_weight(
        LinearOperator(ia.algebra, _columns_to_matrix(field, BAD, 3)), 0)
    bad = Subspace(field, 9, [pack_columns(BAD, 3)])
    monkeypatch.setattr(search, "rank_nullspace", lambda m: (8, bad))
    with pytest.raises(LeafRejectedError, match="basis vector"):
        enumerate_derivations(ia.algebra, 0)


def test_rejected_auto_leaf_raises(monkeypatch):
    ia = load("k3_f3")
    assert not check_automorphism(ia.algebra, _columns_to_matrix(ia.algebra.field, BAD, 3))
    corrupt_search(monkeypatch, BAD)
    with pytest.raises(LeafRejectedError):
        enumerate_automorphisms(ia.algebra)


def test_bad_move_rejects_its_images(monkeypatch):
    # swapping e2 and e1e2 is invertible but no automorphism of Gr2/F3;
    # listed first, it is the move onto some values of R(1) at weight 0
    a = load("gr2_f3").algebra
    bad = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    assert not check_automorphism(a, _columns_to_matrix(a.field, bad, 4))
    real = search._automorphisms

    def with_bad(ia):
        members, inverses, strong = real(ia)
        return [bad] + members, [_inverse_mod_p(tuple(zip(*bad)), ia.p)] + inverses, strong

    monkeypatch.setattr(search, "_automorphisms", with_bad)
    with pytest.raises(LeafRejectedError):
        enumerate_rb(a, 0)


def test_leaf_found_twice_raises(monkeypatch):
    ia = load("k3_f3")
    cols = ((0, 0, 0),) * 3
    monkeypatch.setattr(search, "_search", lambda ia, pair, pools, moves=(): [cols, cols])
    with pytest.raises(LeafRejectedError, match="found twice"):
        enumerate_rb(ia.algebra, 1)


@pytest.mark.parametrize("kind", ["rb", "auto", "derivation"])
def test_rejected_leaf_exits_2(monkeypatch, kind):
    corrupt_search(monkeypatch, BAD)
    weight = [] if kind == "auto" else ["--weight", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            ["enumerate", "--algebra", str(FIXTURES / "k3_f3.alg"), "--kind", kind, *weight]
        )
    assert code == 2
    assert out.getvalue() == ""
    assert "error: search leaf" in err.getvalue()


# --- one integer check per leaf, no FieldElement checker ---------------------


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count calls to owner.name under every rbx module name bound to it."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "rbx" or mod_name.startswith("rbx."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def packed_ops(ops) -> list:
    return [tuple(x.value for row in r.matrix.data for x in row) for r in ops]


def test_enumerate_rb_tp4_f2_skips_field_checker(monkeypatch):
    checks = count_calls(monkeypatch, rb, "check_rb")
    batches = count_calls(monkeypatch, search, "_passing")
    ops = enumerate_rb(termwise_power(PrimeField(2, allow_char2=True), 4), 1)
    assert len(ops) == 2000
    assert checks == []
    # one batch of the operators, sorted; the automorphism search that
    # splits the operator search checks its own 24 leaves in another
    rb_leaves = [args[2] for args in batches if args[1].func is _rb_pair]
    assert [[search.pack_columns(cols, 4) for cols in leaves] for leaves in rb_leaves] == [
        packed_ops(ops)
    ]
    assert [len(args[2]) for args in batches if args[1].func is _auto_pair] == [24]


@pytest.mark.parametrize("weight,count", [(0, 315), (1, 148)])
def test_one_integer_check_per_operator_and_image(monkeypatch, weight, count):
    # Gr2 has unit e_0: at weight 0 most operators are images of a searched
    # leaf, and each of them is checked once all the same
    checks = count_calls(monkeypatch, rb, "check_rb")
    batches = count_calls(monkeypatch, search, "_passing")
    a = load("gr2_f3").algebra
    ops = enumerate_rb(a, weight)
    assert len(ops) == count
    assert checks == []
    rb_leaves = [args[2] for args in batches if args[1].func is _rb_pair]
    assert [[search.pack_columns(cols, 4) for cols in leaves] for leaves in rb_leaves] == [
        packed_ops(ops)
    ]


@pytest.mark.parametrize("kind", ["derivation", "auto"])
def test_one_integer_check_per_leaf(monkeypatch, kind):
    oracles = [
        count_calls(monkeypatch, rb, "check_rb"),
        count_calls(monkeypatch, rb, "check_derivation_weight"),
        count_calls(monkeypatch, algebras, "check_automorphism"),
    ]
    batches = count_calls(monkeypatch, search, "_passing")
    # the results: the derivation search's leaves, or the automorphisms
    # the stabiliser chain lists from its transversals
    leaves = []
    name = "_search" if kind == "derivation" else "_listed"
    real = getattr(search, name)

    def recording(*args):
        found = real(*args)
        leaves.extend(found if kind == "derivation" else [cols for cols, _ in found])
        return list(found)

    monkeypatch.setattr(search, name, recording)
    a = load("gr2_f3").algebra
    found = enumerate_derivations(a, 1) if kind == "derivation" else enumerate_automorphisms(a)
    assert len(found) == (730 if kind == "derivation" else 432)
    assert all(calls == [] for calls in oracles)
    assert [args[2] for args in batches] == [
        sorted(leaves, key=lambda c: search.pack_columns(c, 4))
    ]


# --- one check per user-supplied operator ------------------------------------


def test_diagnostics_checks_once(monkeypatch):
    checks = count_calls(monkeypatch, rb, "check_rb")
    op, w = operator_from_text((FIXTURES / "ex11.op").read_text(), load("j4_f5").algebra)
    rb.diagnostics(op, w)
    assert len(checks) == 1


@pytest.mark.parametrize(
    "argv,expected",
    [
        # the input once; a construction checks its result once more
        (["check", "--algebra", "j4_f5.alg", "--op", "ex11.op"], 1),
        (["construct", "phi", "--algebra", "j4_f5.alg", "--op", "ex11.op"], 2),
        (["construct", "triple-to-rb", "--algebra", "m2_q.alg", "--op", "m2_q.op"], 2),
        (
            ["construct", "conjugate", "--algebra", "m2_q.alg", "--op", "m2_q.op",
             "--auto", "swap_auto_m2q.op"],
            2,
        ),
        # classify_case cannot label this one, so the report gives the case
        (["check", "--algebra", "m2_q.alg", "--op", "m1_q.op"], 1),
    ],
)
def test_cli_checks_input_once(monkeypatch, argv, expected):
    checks = count_calls(monkeypatch, rb, "check_rb")
    argv = [str(FIXTURES / a) if a.endswith((".alg", ".op")) else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert len(checks) == expected
