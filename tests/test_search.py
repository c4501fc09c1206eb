import functools
import pathlib

import pytest

from rbx import search
from rbx.algebras import (
    Algebra,
    cayley_dickson,
    grassmann2,
    jordan_form,
    kaplansky3,
    matrix_algebra,
    termwise_power,
)
from rbx.errors import SearchSpaceTooLargeError, UnsupportedFieldError
from rbx.fields import PrimeField, QuadraticExtension, Rationals
from rbx.formats import algebra_from_text
from rbx.linalg import Matrix
from rbx.rb import apply_phi, check_rb, is_splitting, trivial_rb_ops
from rbx.search import (
    enumerate_automorphisms,
    enumerate_automorphisms_raw,
    enumerate_derivations,
    enumerate_rb,
    enumerate_rb_raw,
    pack_columns,
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


def test_unsupported_fields_rejected():
    with pytest.raises(UnsupportedFieldError):
        enumerate_rb(matrix_algebra(Rationals(), 2), 0)
    with pytest.raises(UnsupportedFieldError):
        enumerate_rb(jordan_form(QuadraticExtension(3, 2), [1, 1]), 1)


def test_pack_columns_row_major():
    cols = [(1, 2), (3, 4)]
    assert pack_columns(cols, 2) == (1, 3, 2, 4)


# --- one orbit of R(1) at a time -----------------------------------------------


def _fixture(name):
    return algebra_from_text((FIXTURES / f"{name}.alg").read_text())


def _plain(a, weight):
    ia = search.IntAlgebra(a)
    pair = functools.partial(search._rb_pair, ia, weight % ia.p)
    found = search._search(ia, pair, search._full_pools(ia, False))
    return sorted(pack_columns(cols, ia.dim) for cols in found)


def _record_rb_searches(monkeypatch):
    calls = []
    real = search._search

    def recording(ia, pair, pools):
        if pair.func is search._rb_pair:
            calls.append(pools)
        return real(ia, pair, pools)

    monkeypatch.setattr(search, "_search", recording)
    return calls


def _without_unit_line(a):
    table = [[a.table_vector(i, j) for j in range(a.dim)] for i in range(a.dim)]
    return Algebra(a.field, a.name, a.basis, table)


# algebras whose unit is e_0, declared or not
UNIT_AT_E0 = {
    "gr2_f3": lambda: grassmann2(F3),
    "gr2_f3_undeclared": lambda: _without_unit_line(grassmann2(F3)),
    "j11_f3": lambda: jordan_form(F3, [1, 1]),
    "j11_f5": lambda: jordan_form(F5, [1, 1]),
    "j3_f5": lambda: _fixture("j3_f5"),
    "tp1_f3": lambda: termwise_power(F3, 1),
    "cd11_f3": lambda: cayley_dickson(F3, [F3.one, F3.one]),
}


@pytest.mark.parametrize(
    "name,weight",
    [
        ("gr2_f3", 0), ("gr2_f3", 1), ("gr2_f3_undeclared", 0), ("gr2_f3_undeclared", 1),
        ("j11_f3", 1), ("j11_f5", 0), ("j11_f5", 1),
        ("j3_f5", 0), ("j3_f5", 1), ("tp1_f3", 0), ("tp1_f3", 1), ("cd11_f3", 0), ("cd11_f3", 1),
    ],
)
def test_orbit_split_equals_plain_search(name, weight):
    # column 0 is searched one orbit at a time, the rest are images; on Gr2
    # at weight 0 and on CD(1,1) some operators have R(1) outside the span
    # of 1, so they come out as images
    a = UNIT_AT_E0[name]()
    assert search._unit_at_e0(search.IntAlgebra(a))
    assert packed(enumerate_rb(a, weight)) == _plain(a, weight)


@pytest.mark.parametrize("weight,orbits", [(0, 6), (1, 9)])
def test_orbit_split_searches_one_value_per_orbit(monkeypatch, weight, orbits):
    # Aut(Gr2/F3) has 432 elements; at weight 0 the scalars join in
    calls = _record_rb_searches(monkeypatch)
    ops = enumerate_rb(grassmann2(F3), weight)
    assert len(ops) == (315 if weight == 0 else 148)
    assert len(calls) == 1
    assert len(calls[0][0]) == orbits
    assert calls[0][1:] == search._full_pools(search.IntAlgebra(grassmann2(F3)), False)[1:]


# M2 and TP4 have a unit that is not e_0, K3 has none
NO_UNIT_AT_E0 = {
    "m2_f3": lambda: matrix_algebra(F3, 2),
    "tp4_f2": lambda: termwise_power(F2, 4),
    "k3_f3": lambda: kaplansky3(F3),
}


@pytest.mark.parametrize("name,weight,count", [("m2_f3", 0, 89), ("tp4_f2", 1, 2000), ("k3_f3", 1, 74)])
def test_plain_search_without_unit_at_e0(monkeypatch, name, weight, count):
    a = NO_UNIT_AT_E0[name]()
    calls = _record_rb_searches(monkeypatch)
    autos = []
    monkeypatch.setattr(search, "_automorphisms", lambda ia: autos.append(ia))
    assert len(enumerate_rb(a, weight)) == count
    assert calls == [search._full_pools(search.IntAlgebra(a), False)]
    assert autos == []


@pytest.mark.parametrize("weight", [0, 1, 2])
def test_false_unit_line_takes_plain_search(monkeypatch, weight):
    # u1 is declared the unit of TP2, but u1 * u2 = 0; the swap of u1 and u2
    # is an automorphism that moves u1, so the split would be wrong (the
    # parser rejects such an algebra, so it is built here)
    a = Algebra(F3, "TP2", ("u1", "u2"), [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], unit=(1, 0))
    expected = _plain(a, weight)
    assert len(expected) == (1 if weight == 0 else 12)
    calls = _record_rb_searches(monkeypatch)
    autos = []
    monkeypatch.setattr(search, "_automorphisms", lambda ia: autos.append(ia))
    assert packed(enumerate_rb(a, weight)) == expected
    assert calls == [search._full_pools(search.IntAlgebra(a), False)]
    assert autos == []
