import itertools
import pathlib
import random
from collections import Counter

import pytest

from rbx.algebras import jordan_form, matrix_algebra
from rbx.errors import (
    ConstraintViolatedError,
    InvalidWitnessError,
    NotApplicableError,
    ZeroFirstRowError,
)
from rbx.fields import PrimeField, QuadraticExtension, Rationals
from rbx.formats import algebra_from_text
from rbx.jordan import (
    JordanSpec,
    Poly,
    block_pair_op,
    classify_case,
    gen_system,
    jordan_diagonal,
    nonsplit_dim4_op,
    normalize_and_classify,
    random_skew_witness,
    rank_one_split_op,
    raw_assignment,
    rb_to_skew,
    skew_to_rb,
    split_dim4_op,
)
from rbx.linalg import Matrix
from rbx.rb import LinearOperator, RBOperator, check_rb, is_splitting
from rbx.search import enumerate_rb

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F13 = PrimeField(13)


def mat(field, rows):
    return Matrix(field, [[field.element(x) for x in row] for row in rows])


def test_jordan_diagonal_extraction():
    a = jordan_form(F5, [1, 2, 3])
    assert jordan_diagonal(a) == tuple(F5.element(x) for x in (1, 2, 3))
    with pytest.raises(NotApplicableError):
        jordan_diagonal(matrix_algebra(F5, 2))


def test_poly_formatting_sorted():
    x = Poly.var(Q, "r_{1,0}")
    y = Poly.var(Q, "r_{0,0}")
    p = x * x + y.scale(Q.element(3)) + Poly.const(Q, Q.element(2))
    s = str(p)
    assert s == "2 + 3*r_{0,0} + 1*r_{1,0}^2"


def test_raw_system_on_fixture_operators():
    spec = JordanSpec.make(F5, [1, 1, 1], -1)
    system = gen_system(spec)
    r = nonsplit_dim4_op()
    res = system.residuals(raw_assignment(r.matrix))
    assert all(v.is_zero() for v in res)
    # the identity IS Rota-Baxter of weight -1, so its residuals vanish too
    ident = raw_assignment(Matrix.identity(F5, 4))
    assert all(v.is_zero() for v in system.residuals(ident))
    # a genuinely non-RB matrix leaves a residual
    a = spec.algebra()
    bad_m = mat(F5, [[0, 1, 0, 0]] + [[0, 0, 0, 0]] * 3)
    assert not check_rb(LinearOperator(a, bad_m), spec.weight)
    assert any(not v.is_zero() for v in system.residuals(raw_assignment(bad_m)))


def test_raw_system_matches_check_rb_sample():
    spec = JordanSpec.make(F5, [1, 1], 1)
    a = spec.algebra()
    system = gen_system(spec)
    rng = random.Random(11)
    for _ in range(60):
        m = mat(F5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        ok_sys = all(v.is_zero() for v in system.residuals(raw_assignment(m)))
        ok_rb = check_rb(LinearOperator(a, m), F5.one)
        assert ok_sys == ok_rb


def test_reduced_system_shape():
    spec = JordanSpec.make(F5, [1, 1], 1)
    system = gen_system(spec, reduced=True)
    text = system.format()
    head = text.splitlines()[0]
    assert head == "system kind=reduced field=F5 d=1,1 weight=1"
    series = [line.split()[0] for line in text.splitlines()[1:]]
    assert "series=z" in series[0]
    assert any(s == "series=unit" for s in series)
    assert any(s == "series=col0" for s in series)
    assert any(s == "series=diag" for s in series)


def test_classify_fixture_cases():
    assert classify_case(nonsplit_dim4_op()) == "IIb"
    assert classify_case(split_dim4_op()) == "I"


def test_normalize_and_classify_case_shapes():
    nf = normalize_and_classify(nonsplit_dim4_op())
    w = F5.element(-1)
    # case IIb pins the corner at -3w/2
    corner = nf.rbar.data[0][0]
    assert corner == F5.element(-3) * w / 2
    assert nf.z == F5.element(-1)
    nf2 = normalize_and_classify(split_dim4_op())
    w13 = F13.element(-1)
    assert nf2.rbar.data[0][0] == -w13 / 2
    assert nf2.z == F13.one


def test_skew_round_trip_fixtures():
    for r in (nonsplit_dim4_op(), split_dim4_op()):
        witness, case = rb_to_skew(r)
        w = r.weight
        m = witness.matrix
        # exact algebraic witness identities
        assert m.transpose() == -m
        sq = m * m
        expected = Matrix.identity(m.field, m.nrows).scale((w / 2) * (w / 2))
        assert sq == expected
        spec = JordanSpec.make(
            r.algebra.field, jordan_diagonal(r.algebra), w
        )
        back = skew_to_rb(spec, witness, case)
        assert back == r


def test_skew_round_trip_random_witnesses():
    spec = JordanSpec.make(F13, [1, 1, 1], -1)
    rng = random.Random(7)
    for i in range(12):
        witness = random_skew_witness(spec, rng)
        for case in ("I", "IIa", "IIb"):
            r = skew_to_rb(spec, witness, case)
            assert check_rb(r.operator, spec.weight)
            wit2, case2 = rb_to_skew(r)
            assert case2 == case
            assert wit2.matrix == witness.matrix


def test_witness_rejections():
    spec = JordanSpec.make(F13, [1, 1, 1], -1)
    rng = random.Random(3)
    witness = random_skew_witness(spec, rng)
    # non-skew matrix
    from rbx.jordan import SkewWitness

    bad = Matrix.identity(F13, 4)
    with pytest.raises(InvalidWitnessError):
        skew_to_rb(spec, SkewWitness(bad, witness.shift), "I")
    # zero first row: put a valid 2x2 skew block in the lower corner
    w = F13.element(-1)
    half = w / 2
    i2 = F13.element(5)  # 5^2 = 25 = -1 mod 13
    rows = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    z = mat(F13, rows)
    data = [list(row) for row in z.data]
    data[2][3] = half * i2
    data[3][2] = -half * i2
    with pytest.raises(ZeroFirstRowError):
        skew_to_rb(spec, SkewWitness(Matrix(F13, data), witness.shift), "I")


def test_odd_size_witness_impossible():
    spec = JordanSpec.make(F13, [1, 1], -1)
    with pytest.raises(ConstraintViolatedError):
        random_skew_witness(spec, random.Random(0))


def test_block_pair_op_properties():
    spec = JordanSpec.make(F5, [1, 1, 1], 1)
    r = block_pair_op(spec)
    assert check_rb(r.operator, F5.one)
    assert not is_splitting(r)
    # unit goes to -3/2 plus a nonzero vector part
    img = r.matrix.apply(r.algebra.unit)
    assert img[0] == F5.element(-3) / 2


def test_ex11_ex12_construction_values():
    r11 = nonsplit_dim4_op()
    a = r11.algebra
    # R(1) = 4 + 4e1 + 3e2 + 3e3 over F5
    assert r11.matrix.apply(a.unit) == tuple(F5.element(x) for x in (4, 4, 3, 3))
    assert not is_splitting(r11)
    r12 = split_dim4_op()
    b = r12.algebra
    # R(1) = R(e1) = 7 + 7e1 + 7e2 + 9e3 over F13
    expected = tuple(F13.element(x) for x in (7, 7, 7, 9))
    assert r12.matrix.apply(b.unit) == expected
    assert r12.matrix.apply(b.basis_vector(1)) == expected
    assert is_splitting(r12)


def test_ex12_kernel_image():
    r = split_dim4_op()
    ker = r.kernel()
    expect = [
        tuple(F13.element(x) for x in (1, 12, 0, 0)),
        tuple(F13.element(x) for x in (0, 0, 1, 5)),
    ]
    assert list(ker.basis) == expect
    img = r.image()
    assert img.dim == 2
    total = ker + img
    assert total.dim == 4


def test_rank_one_split_op():
    spec = JordanSpec.make(F5, [1, 1], 1)
    alpha = tuple(F5.element(x) for x in (1, 1, 0))
    r = rank_one_split_op(spec, alpha, F5.element(4), F5.zero)
    a = spec.algebra()
    # R(e1) = 4 (1 + e1), R(1) = R(e2) = 0
    assert r.matrix.apply(a.basis_vector(1)) == tuple(F5.element(x) for x in (4, 4, 0))
    assert all(c.is_zero() for c in r.matrix.apply(a.unit))
    assert is_splitting(r)
    # constraint violations
    with pytest.raises(ConstraintViolatedError):
        rank_one_split_op(spec, alpha, F5.zero, F5.zero)
    with pytest.raises(ConstraintViolatedError):
        rank_one_split_op(spec, (F5.one, F5.zero, F5.zero), F5.element(4), F5.zero)


def test_char3_branch_round_trip():
    # characteristic 3 takes its own normalization; sqrt(-1) lives in F9
    ext = QuadraticExtension(3, 2)
    spec = JordanSpec.make(ext, [1, 1, 1], 1)
    rng = random.Random(9)
    for case in ("I", "IIa", "IIb"):
        witness = random_skew_witness(spec, rng)
        r = skew_to_rb(spec, witness, case)
        assert check_rb(r.operator, spec.weight)
        assert classify_case(r) == case
        wit2, case2 = rb_to_skew(r)
        assert case2 == case and wit2.matrix == witness.matrix
        m = wit2.matrix
        assert m.transpose() == -m
        w = spec.weight
        assert m * m == Matrix.identity(ext, 4).scale((w / 2) * (w / 2))


def test_extension_field_round_trip():
    # normalization that needs a square root outside F13 lands in F13(s)
    ext = QuadraticExtension(13, 2)
    spec = JordanSpec.make(ext, [1, 2, 2], -1)
    rng = random.Random(5)
    witness = random_skew_witness(spec, rng)
    r = skew_to_rb(spec, witness, "IIa")
    assert check_rb(r.operator, spec.weight)
    wit2, case2 = rb_to_skew(r)
    assert case2 == "IIa" and wit2.matrix == witness.matrix


def test_j4_f5_weight4_count_and_skew_cases():
    # J(1,1,1) over F5 at weight 4: each of the cases I, IIa and IIb has one
    # operator per skew witness, counted here straight from M^T = -M,
    # M M = 4 E and a nonzero first row
    a = algebra_from_text((FIXTURES / "j4_f5.alg").read_text())
    ops = enumerate_rb(a, 4)
    assert len(ops) == 2582
    cases = Counter(classify_case(r) for r in ops)
    assert cases == {"I": 60, "IIa": 60, "IIb": 60, None: 2402}
    upper = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    skew = 0
    for vals in itertools.product(range(5), repeat=len(upper)):
        m = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(upper, vals):
            m[i][j], m[j][i] = v, -v % 5
        square = [[sum(m[i][k] * m[k][j] for k in range(4)) % 5 for j in range(4)] for i in range(4)]
        skew += any(m[0]) and square == [[4 * (i == j) for j in range(4)] for i in range(4)]
    assert skew == 60
