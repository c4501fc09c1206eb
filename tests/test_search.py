import pytest

from rbx.algebras import (
    grassmann2,
    jordan_form,
    kaplansky3,
    matrix_algebra,
    termwise_power,
)
from rbx.errors import SearchSpaceTooLargeError, UnsupportedFieldError
from rbx.fields import PrimeField, QuadraticExtension, Rationals
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
