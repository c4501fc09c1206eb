import collections
import functools
import math
import pathlib
import random
import sys

import pytest

from rbx import residues, search
from rbx.algebras import (
    Algebra,
    cayley_dickson,
    grassmann2,
    jordan_form,
    kaplansky3,
    matrix_algebra,
    sl2,
    termwise_power,
)
from rbx.errors import SearchSpaceTooLargeError, UnsupportedFieldError
from rbx.fields import PrimeField, QuadraticExtension, Rationals
from rbx.formats import algebra_from_text
from rbx.linalg import Matrix
from rbx.orbits import orbit_classify, pack_operator
from rbx.rb import apply_phi, check_derivation_weight, check_rb, is_splitting, trivial_rb_ops
from rbx.search import (
    enumerate_automorphisms,
    enumerate_automorphisms_raw,
    enumerate_derivations,
    enumerate_rb,
    enumerate_rb_raw,
    pack_columns,
)

from split_oracle import (
    column0_orbits,
    column0_searched,
    record_rb_searches,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

F2 = PrimeField(2, allow_char2=True)
F3 = PrimeField(3)
F5 = PrimeField(5)


def packed(ops):
    return [tuple(c.value for row in r.matrix.data for c in row) for r in ops]


# --- frozen counts ---------------------------------------------------------


def test_count_tp2_f3_weight1():
    ops = enumerate_rb(termwise_power(F3, 2), 1)
    assert len(ops) == 12


def test_count_k3_f3_weight0():
    ops = enumerate_rb(kaplansky3(F3), 0)
    assert len(ops) == 33


def test_count_k3_f3_weight1():
    ops = enumerate_rb(kaplansky3(F3), 1)
    assert len(ops) == 74
    assert all(is_splitting(r) for r in ops)


def test_count_j11_f3_weight1():
    ops = enumerate_rb(jordan_form(F3, [1, 1]), 1)
    assert len(ops) == 26
    assert all(is_splitting(r) for r in ops)


def test_count_m2_f2_weight0():
    ops = enumerate_rb(matrix_algebra(F2, 2), 0)
    assert len(ops) == 28


def test_count_m2_f3_weight0():
    ops = enumerate_rb(matrix_algebra(F3, 2), 0)
    assert len(ops) == 89


def test_count_gr2_f3_weight1():
    ops = enumerate_rb(grassmann2(F3), 1)
    assert len(ops) == 148


def test_count_k3_f5_weights():
    assert len(enumerate_rb(kaplansky3(F5), 1)) == 302
    assert len(enumerate_rb(kaplansky3(F5), 0)) == 145


# --- oracle agreement ------------------------------------------------------


@pytest.mark.parametrize(
    "algebra,weight",
    [
        (termwise_power(F3, 1), 0),
        (termwise_power(F3, 1), 1),
        (termwise_power(F3, 2), 1),
        (kaplansky3(F3), 0),
        (jordan_form(F3, [1, 1]), 1),
        (matrix_algebra(F2, 2), 0),
    ],
)
def test_pruned_equals_raw(algebra, weight):
    pruned = enumerate_rb(algebra, weight)
    raw = enumerate_rb_raw(algebra, weight)
    assert packed(pruned) == packed(raw)


def test_auto_pruned_equals_raw():
    a = kaplansky3(F3)
    pruned = [tuple(c.value for row in m.data for c in row)
              for m in enumerate_automorphisms(a)]
    raw = [tuple(c.value for row in m.data for c in row)
           for m in enumerate_automorphisms_raw(a)]
    assert pruned == raw
    assert len(pruned) == 24


def test_raw_guard_rejects_large_spaces():
    with pytest.raises(SearchSpaceTooLargeError):
        enumerate_rb_raw(matrix_algebra(F5, 2), 0)


# --- structural facts ------------------------------------------------------


def test_automorphism_group_orders():
    assert len(enumerate_automorphisms(matrix_algebra(F3, 2))) == 24
    assert len(enumerate_automorphisms(grassmann2(F3))) == 432
    assert len(enumerate_automorphisms(kaplansky3(F5))) == 120


def test_trivial_ops_always_found():
    a = grassmann2(F3)
    found = set(packed(enumerate_rb(a, 1)))
    for r in trivial_rb_ops(a, 1):
        key = tuple(c.value for row in r.matrix.data for c in row)
        assert key in found


def test_results_sorted_and_verified():
    ops = enumerate_rb(kaplansky3(F3), 0)
    keys = packed(ops)
    assert keys == sorted(keys)
    for r in ops:
        assert check_rb(r.operator, F3.zero)


def test_phi_closure_of_enumeration():
    # the enumerated set is closed under the phi involution
    a = jordan_form(F3, [1, 1])
    found = set(packed(enumerate_rb(a, 1)))
    ops = enumerate_rb(a, 1)
    for r in ops:
        key = tuple(c.value for row in apply_phi(r).matrix.data for c in row)
        assert key in found


def test_derivation_enumeration():
    ders = enumerate_derivations(grassmann2(F3), 1)
    assert len(ders) == 730
    invertible = [d for d in ders if d.matrix.rank() == 4]
    assert len(invertible) == 1
    assert invertible[0].matrix == Matrix.identity(F3, 4).scale(-1)


# every prime-field fixture: Der(A) = p^k maps at weight 0
DERIVATIONS_W0 = {
    "gr2_f3": 6, "k3_f3": 3, "k3_f5": 3, "m2_f3": 3, "j3_f5": 1, "j4_f5": 3, "j4_f13": 3,
    "sl2_f7": 3, "cd_f5": 3,
}


@pytest.mark.parametrize("name,exponent", DERIVATIONS_W0.items())
def test_weight0_derivations_are_a_power_of_p(name, exponent):
    # listed from a nullspace basis, not searched; j4_f13 (2197 maps) is
    # beyond the reach of a column search.  Each passes the FieldElement
    # checker.
    a = _fixture(name)
    ders = enumerate_derivations(a, 0)
    assert len(ders) == a.field.p ** exponent
    keys = packed(ders)
    assert keys == sorted(set(keys))
    assert all(check_derivation_weight(d, 0) for d in ders)


@pytest.mark.parametrize("weight", [1, 2])
@pytest.mark.parametrize("name,count", [("gr2_f3", 432), ("m2_f3", 24), ("j3_f5", 8)])
def test_invertible_id_plus_wd_are_the_automorphisms(name, weight, count):
    # d is a weight-w derivation exactly when id + w d is multiplicative;
    # over F5, 1/2 != 2 tells a map back by w from one by 1/w
    a = _fixture(name)
    ident = Matrix.identity(a.field, a.dim)
    phis = [ident + d.matrix.scale(weight) for d in enumerate_derivations(a, weight)]
    invertible = sorted(tuple(c.value for row in m.data for c in row)
                        for m in phis if m.rank() == a.dim)
    autos = [tuple(c.value for row in m.data for c in row) for m in enumerate_automorphisms(a)]
    assert len(autos) == count
    assert invertible == sorted(autos)


def test_unsupported_fields_rejected():
    with pytest.raises(UnsupportedFieldError):
        enumerate_rb(matrix_algebra(Rationals(), 2), 0)
    with pytest.raises(UnsupportedFieldError):
        enumerate_rb(jordan_form(QuadraticExtension(3, 2), [1, 1]), 1)


def test_pack_columns_row_major():
    cols = [(1, 2), (3, 4)]
    assert pack_columns(cols, 2) == (1, 3, 2, 4)


# --- one orbit of R(e_0) at a time --------------------------------------------


def _fixture(name):
    return algebra_from_text((FIXTURES / f"{name}.alg").read_text())


def _plain(a, weight):
    ia = search.IntAlgebra(a)
    pair = functools.partial(search._rb_pair, ia, weight % ia.p)
    found = search._search(ia, pair, search._full_pools(ia, False))
    return sorted(pack_columns(cols, ia.dim) for cols in found)


def _without_unit_line(a):
    table = [[a.table_vector(i, j) for j in range(a.dim)] for i in range(a.dim)]
    return Algebra(a.field, a.name, a.basis, table)


def _false_unit_tp2():
    # u1 is declared the unit of TP2, but u1 * u2 = 0; the swap of u1 and u2
    # is an automorphism that moves u1 (the parser rejects such an algebra,
    # so it is built here)
    return Algebra(F3, "TP2", ("u1", "u2"), [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], unit=(1, 0))


ALGEBRAS = {
    # the unit is e_0, declared or not: every move fixes it
    "gr2_f3": lambda: grassmann2(F3),
    "gr2_f3_undeclared": lambda: _without_unit_line(grassmann2(F3)),
    "j11_f3": lambda: jordan_form(F3, [1, 1]),
    "j11_f5": lambda: jordan_form(F5, [1, 1]),
    "j3_f5": lambda: _fixture("j3_f5"),
    "tp1_f3": lambda: termwise_power(F3, 1),
    "cd11_f3": lambda: cayley_dickson(F3, [F3.one, F3.one]),
    # the unit is not e_0, or there is none: only some moves fix e_0
    "m2_f3": lambda: matrix_algebra(F3, 2),
    "tp4_f2": lambda: termwise_power(F2, 4),
    "k3_f3": lambda: kaplansky3(F3),
    "k3_f5": lambda: kaplansky3(F5),
    "sl2_f5": lambda: sl2(F5),
    "tp2_f3_false_unit": _false_unit_tp2,
}


@pytest.mark.parametrize(
    "name,weight",
    [
        ("gr2_f3", 0), ("gr2_f3", 1), ("gr2_f3_undeclared", 0), ("gr2_f3_undeclared", 1),
        ("j11_f3", 1), ("j11_f5", 0), ("j11_f5", 1),
        ("j3_f5", 0), ("j3_f5", 1), ("tp1_f3", 0), ("tp1_f3", 1), ("cd11_f3", 0), ("cd11_f3", 1),
        ("m2_f3", 0), ("m2_f3", 1), ("tp4_f2", 1), ("k3_f3", 0), ("k3_f3", 1), ("k3_f5", 0),
        ("sl2_f5", 0), ("sl2_f5", 1),
        ("tp2_f3_false_unit", 0), ("tp2_f3_false_unit", 1), ("tp2_f3_false_unit", 2),
        ("gr2_f3", 2), ("m2_f3", 2), ("k3_f5", 1),
    ],
)
def test_orbit_split_equals_plain_search(name, weight):
    # every column is searched one orbit at a time under the moves that fix
    # e_0 and the columns before it (with phi at weight != 0), the rest are
    # images; on Gr2 at weight 0 and on CD(1,1) some operators have R(1)
    # outside the span of 1, so they come out as images
    a = ALGEBRAS[name]()
    assert packed(enumerate_rb(a, weight)) == _plain(a, weight)


@pytest.mark.parametrize("weight,orbits", [(0, 6), (1, 9)])
def test_orbit_split_searches_one_value_per_orbit(monkeypatch, weight, orbits):
    # Aut(Gr2/F3) has 432 elements; at weight 0 the scalars join in, at
    # weight 1 phi does: its 9 orbits on R(1) merge into fewer
    a = grassmann2(F3)
    assert len(column0_orbits(a, weight, phi=False)) == orbits
    calls = record_rb_searches(monkeypatch)
    ops = enumerate_rb(a, weight)
    assert len(ops) == (315 if weight == 0 else 148)
    assert calls == [column0_searched(a, weight)]
    assert len(calls[0]) < orbits


@pytest.mark.parametrize(
    "name,weight,count,column0",
    [
        ("m2_f3", 0, 89, 20), ("m2_f3", 1, 290, 36), ("k3_f3", 1, 74, 6), ("k3_f5", 0, 145, 4),
        ("tp4_f2", 1, 2000, 8), ("sl2_f5", 1, 392, 35),
    ],
)
def test_stabiliser_split_column0(monkeypatch, name, weight, count, column0):
    # M2 and TP4 have a unit that is not e_0, K3 and sl2 have none: the
    # moves that fix e_0 cut the p^dim values of R(e_0) into column0 orbits,
    # and column 0 runs over the first passing value of each (with phi at
    # weight != 0)
    a = ALGEBRAS[name]()
    assert len(column0_orbits(a, weight, phi=False)) == column0
    calls = record_rb_searches(monkeypatch)
    assert len(enumerate_rb(a, weight)) == count
    assert calls == [column0_searched(a, weight)]


@pytest.mark.parametrize("weight", [0, 1, 2])
def test_false_unit_line_takes_plain_search(monkeypatch, weight):
    # the swap of u1 and u2 moves e_0 = u1, so it never joins the split:
    # only the identity remains, times each scalar at weight 0 and with phi
    # at weights 1 and 2
    a = _false_unit_tp2()
    expected = _plain(a, weight)
    assert len(expected) == (1 if weight == 0 else 12)
    column0 = column0_searched(a, weight)
    calls = record_rb_searches(monkeypatch)
    groups = []
    real = search._orbit

    def recording(p, c, v, group):
        if c == 0:
            groups.append(group)
        return real(p, c, v, group)

    monkeypatch.setattr(search, "_orbit", recording)
    assert packed(enumerate_rb(a, weight)) == expected
    assert calls == [column0]
    # every value searched at column 0 runs under the same group
    assert groups == [groups[0]] * len(column0)
    assert [right_t for _, right_t, _ in groups[0]] == [((1, 0), (0, 1))] * 2
    assert [offset for _, _, offset in groups[0]] == [0, 0 if weight == 0 else -weight % 3]


@pytest.mark.parametrize(
    "name,weight", [("gr2_f3", 1), ("m2_f3", 1), ("k3_f5", 1), ("j11_f5", 2)]
)
def test_operators_closed_under_phi(name, weight):
    # phi(R) = -R - w id is an operator of weight w exactly when R is;
    # apply_phi checks each image with the FieldElement checker
    ops = enumerate_rb(ALGEBRAS[name](), weight)
    assert sorted(packed(apply_phi(r) for r in ops)) == packed(ops)


# --- metamorphic twins ------------------------------------------------------


def _isomorphism(src, dst):
    """The first isomorphism src -> dst, as a Matrix, by the search engine
    with dst's product on the images; checked with FieldElement arithmetic."""
    ia, ib = search.IntAlgebra(src), search.IntAlgebra(dst)

    def pair(cols, i, j):
        return ia.tvec[i][j], ib.product(cols[i], cols[j])

    found = search._search(ia, pair, search._full_pools(ia, auto=True))
    cols = next(cols for cols in found if search._inverse_mod_p(cols, ia.p) is not None)
    psi = Matrix.from_columns(src.field, cols)
    for i in range(src.dim):
        for j in range(src.dim):
            image = dst.product_vec(psi.column(i), psi.column(j))
            assert psi.apply(src.table_vector(i, j)) == image
    return psi


@pytest.mark.parametrize("weight,count", [(0, 89), (1, 290), (2, 290)])
def test_cd11_twin_of_m2_f3(weight, count):
    # every quaternion algebra over a finite field splits: psi^-1 R psi is an
    # operator on CD(1,1) exactly when R is one on M2.  CD(1,1) has its unit
    # at e_0, so every move splits its search; M2 is split by the moves that
    # fix e11 only
    cd, m2 = cayley_dickson(F3, [F3.one, F3.one]), matrix_algebra(F3, 2)
    psi = _isomorphism(cd, m2)
    psi_inv = psi.inverse()
    pulled = sorted(
        tuple(x.value for row in (psi_inv * r.matrix * psi).data for x in row)
        for r in enumerate_rb(m2, weight)
    )
    assert len(pulled) == count
    assert pulled == packed(enumerate_rb(cd, weight))


@pytest.mark.parametrize("name", ["m2_f3", "k3_f5"])
def test_weight_scaling_twins(name):
    # R has weight 1 exactly when cR has weight c
    a = ALGEBRAS[name]()
    p = a.field.p
    ones = packed(enumerate_rb(a, 1))
    for c in range(2, p):
        assert packed(enumerate_rb(a, c)) == sorted(tuple(c * x % p for x in key) for key in ones)


def _random_invertible(field, grading, rng):
    """A random invertible matrix over F_p that sends each basis vector
    into its own grade."""
    dim = len(grading)
    while True:
        rows = [
            [rng.randrange(field.p) if grading[i] == grading[j] else 0 for j in range(dim)]
            for i in range(dim)
        ]
        m = Matrix(field, rows)
        if m.rank() == dim:
            return m


def _basis_change(a, p_mat):
    """A^P: the product of a in the basis P e_0, ..., P e_{dim-1}, with no
    unit and no antiautomorphism declared."""
    p_inv = p_mat.inverse()
    cols = [p_mat.column(i) for i in range(a.dim)]
    table = [[p_inv.apply(a.product_vec(x, y)) for y in cols] for x in cols]
    return Algebra(a.field, f"{a.name}^P", a.basis, table, grading=a.grading)


@pytest.mark.parametrize(
    "name,weight,count",
    [("m2_f3", 1, 290), ("gr2_f3", 0, 315), ("gr2_f3", 1, 148), ("sl2_f5", 1, 392),
     ("k3_f5", 0, 145)],
)
def test_basis_change_twins(name, weight, count):
    # R is an operator on A^P exactly when P R P^-1 is one on A, and psi an
    # automorphism of A^P exactly when P psi P^-1 is one of A.  A^P declares
    # no unit and no antiautomorphism, and its e_0 is P e_0, so its search
    # runs under a smaller group and another stabiliser chain.  Where A
    # declares no antiautomorphism either, both sort their operators by
    # the same group, so P carries one orbit partition onto the other
    a = ALGEBRAS[name]()
    p_mat = _random_invertible(a.field, a.grading or (0,) * a.dim, random.Random(name))
    twin = _basis_change(a, p_mat)
    assert twin.table != a.table
    p_inv = p_mat.inverse()
    report, twin_report = orbit_classify(a, weight), orbit_classify(twin, weight)
    autos, twin_autos = (search._automorphisms(search.IntAlgebra(x))[0] for x in (a, twin))

    p = a.field.p
    p_rows, inv_rows = ([[x.value for x in row] for row in m.data] for m in (p_mat, p_inv))

    def push(rows):
        """P X P^-1 on residues, for X given by its rows."""
        px = [[sum(r[k] * x[j] for k, x in enumerate(rows)) % p for j in range(a.dim)]
              for r in p_rows]
        return tuple(tuple(sum(r[k] * s[j] for k, s in enumerate(inv_rows)) % p
                           for j in range(a.dim)) for r in px)

    def push_packed(key):
        rows = [key[i * a.dim : (i + 1) * a.dim] for i in range(a.dim)]
        return tuple(x for row in push(rows) for x in row)

    pushed_autos = sorted(push(tuple(zip(*cols))) for cols in twin_autos)
    assert pushed_autos == [tuple(zip(*cols)) for cols in autos]
    pushed = {key: push_packed(key) for key in map(pack_operator, twin_report.operators)}
    assert len(pushed) == count
    assert sorted(pushed.values()) == [pack_operator(r) for r in report.operators]
    if a.antiauto is None:
        partition = {orb.members for orb in report.orbits}
        assert {frozenset(map(pushed.get, orb.members)) for orb in twin_report.orbits} == partition


# --- the automorphisms' stabiliser chain -------------------------------------

# |Aut| of each prime-field fixture; J(1,1,1) over F_q has 2q(q^2 - 1)
AUT_ORDERS = {
    "gr2_f3": 432, "k3_f3": 24, "k3_f5": 120, "m2_f3": 24, "j3_f5": 8,
    "j4_f5": 2 * 5 * (5**2 - 1), "j4_f13": 2 * 13 * (13**2 - 1), "sl2_f7": 336, "cd_f5": 120,
}
# the twins of test_basis_change_twins, which draws one P per algebra
TWINS = {"m2_f3": 24, "gr2_f3": 432, "sl2_f5": 120, "k3_f5": 120}


def _twin(name):
    a = ALGEBRAS[name]()
    return _basis_change(a, _random_invertible(a.field, a.grading or (0,) * a.dim,
                                               random.Random(name)))


def _rows_product(p, a, b):
    """The rows of a * b over F_p, for a and b given by their rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def _invertible_leaves(ia):
    """The plain search over the whole pools, its invertible leaves sorted."""
    pools = search._full_pools(ia, auto=True)
    found = search._search(ia, functools.partial(search._auto_pair, ia),
                           [dict(zip(pool, pool)) for pool in pools])
    return sorted((cols for cols in found if search._inverse_mod_p(cols, ia.p) is not None),
                  key=lambda cols: pack_columns(cols, ia.dim))


@pytest.mark.parametrize(
    "name,order",
    [*AUT_ORDERS.items(), *((f"twin-{name}", order) for name, order in TWINS.items())],
)
def test_stabiliser_chain_lists_the_group(name, order):
    a = _twin(name[5:]) if name.startswith("twin-") else _fixture(name)
    ia = search.IntAlgebra(a)
    p, dim = ia.p, ia.dim
    members, inverses, strong = search._automorphisms(ia)
    assert len(members) == order
    # the plain search takes minutes on J(1,1,1)/F13
    if name != "j4_f13":
        assert members == _invertible_leaves(ia)
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert len(inverses) == order
    for h, inv in zip(members, inverses):
        assert _rows_product(p, inv, tuple(zip(*h))) == identity
    # those strong generators that fix e_0..e_{c-1} move e_c over its whole
    # orbit, the transversal of the chain's level c
    gens = [tuple(zip(*g)) for g, _ in strong]
    lengths = []
    for c in range(dim):
        level = [g for g in gens if all(g[i][:c] == identity[i][:c] for i in range(dim))]
        orbit, frontier = {identity[c]}, [identity[c]]
        for v in frontier:
            for g in level:
                u = tuple(sum(x * y for x, y in zip(row, v)) % p for row in g)
                if u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        lengths.append(len(orbit))
    assert math.prod(lengths) == order
    # the strong generators close breadth first to the whole group
    closure, frontier = {identity}, [identity]
    for x in frontier:
        for g in gens:
            y = _rows_product(p, g, x)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert closure == {tuple(zip(*h)) for h in members}


def test_one_inverse_per_transversal_element(monkeypatch):
    # the members' inverses are products of the transversals' inverses;
    # Gauss-Jordan runs once per transversal element but the identity, and
    # once per leaf tried as a strong generator
    ia = search.IntAlgebra(grassmann2(F3))
    calls = []
    real_inverse, real_search = search._inverse_mod_p, search._search
    leaves = []

    def inverse(rows, p):
        calls.append(sys._getframe(1).f_code.co_name)
        return real_inverse(rows, p)

    def recording(*args):
        found = real_search(*args)
        leaves.extend(found)
        return found

    monkeypatch.setattr(search, "_inverse_mod_p", inverse)
    monkeypatch.setattr(residues, "_inverse_mod_p", inverse)
    monkeypatch.setattr(search, "_search", recording)
    members, _, strong = search._automorphisms(ia)
    assert len(members) == 432
    by_caller = collections.Counter(calls)
    # the transversals' lengths are 1, 24, 18 and 1
    assert by_caller["_transversal"] == 23 + 17
    assert len(strong) <= by_caller["_automorphisms"] <= len(leaves)
    assert set(by_caller) == {"_transversal", "_automorphisms"}
    assert len(calls) < 100


# --- node consistency: each pool cut once by its own pair (c, c) -------------


def _pair(ia, kind, weight):
    """The pair each kind searches with; derivations at w != 0 search the
    multiplicative maps id + w d."""
    if kind == "rb":
        return functools.partial(search._rb_pair, ia, weight % ia.p)
    return functools.partial(search._auto_pair, ia)


@pytest.mark.parametrize("name", ["gr2_f3", "m2_f3", "k3_f5", "j3_f5", "tp2_f3_false_unit",
                                  "sl2_f5"])
@pytest.mark.parametrize("kind,weight", [("rb", 0), ("rb", 1), ("rb", 2), ("auto", 0),
                                         ("derivation", 0), ("derivation", 1)])
def test_cut_pools_change_no_search(monkeypatch, name, kind, weight):
    # every _search the enumerator runs (for operators: the automorphisms'
    # stabiliser chain, one search per value it tries, then the split
    # search under their moves; for derivations at w != 0 the
    # multiplicative maps, at w = 0 none) returns the same list, in the
    # same order, with each cut pool it reads replaced by the whole pool;
    # the columns the chain fixes stay fixed
    real_search, real_pools = search._search, search._pools
    whole = {}  # id of each cut pool -> (that pool, the whole pool)
    searched = []

    def cut(ia, pair, auto):
        pools = real_pools(ia, pair, auto)
        for pool, full in zip(pools, search._full_pools(ia, auto)):
            whole[id(pool)] = (pool, dict(zip(full, full)))
        return pools

    def both(ia, pair, pools, moves=()):
        found = real_search(ia, pair, pools, moves)
        uncut = [whole[id(pool)][1] if id(pool) in whole else pool for pool in pools]
        assert real_search(ia, pair, uncut, moves) == found
        searched.append(pair.func)
        return found

    monkeypatch.setattr(search, "_pools", cut)
    monkeypatch.setattr(search, "_search", both)
    a = ALGEBRAS[name]()
    if kind == "rb":
        enumerate_rb(a, weight)
    elif kind == "derivation":
        enumerate_derivations(a, weight)
    else:
        enumerate_automorphisms(a)
    if kind == "derivation":
        assert searched == ([search._auto_pair] if weight else [])
    else:
        chain = searched[:-1] if kind == "rb" else searched
        assert chain and set(chain) == {search._auto_pair}
        assert kind == "auto" or searched[-1] is search._rb_pair


@pytest.mark.parametrize(
    "name,kind,weight,sizes",
    [
        ("gr2_f3", "auto", 0, [1, 26, 26, 26]),
        ("gr2_f3", "rb", 1, [80, 27, 27, 27]),
        # the multiplicative maps id + d, over every column
        ("gr2_f3", "derivation", 1, [2, 27, 27, 27]),
        ("m2_f3", "auto", 0, [13, 8, 8, 13]),
        # pair (c, c) reads another column on every value, or no value fails it
        ("tp4_f2", "rb", 1, [16, 16, 16, 16]),
        ("sl2_f5", "rb", 1, [125, 125, 125]),
        ("sl2_f5", "auto", 0, [124, 124, 124]),
    ],
)
def test_cut_pool_sizes(name, kind, weight, sizes):
    ia = search.IntAlgebra(ALGEBRAS[name]())
    pools = search._full_pools(ia, kind == "auto")
    cut = search._node_consistent(ia, _pair(ia, kind, weight), pools)
    assert [len(pool) for pool in cut] == sizes
    # a cut pool keeps its values in the whole pool's order
    assert all(sorted(kept) == kept and set(kept) <= set(pool) for kept, pool in zip(cut, pools))
