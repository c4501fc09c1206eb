import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbx.algebras import (
    derived_algebra,
    grassmann2,
    jordan_form,
    kaplansky3,
    matrix_algebra,
    sl2,
    termwise_power,
)
from rbx.errors import (
    InvalidDecompositionError,
    IsotropicBuildError,
    NotApplicableError,
    NotDerivationError,
    NotQuasiIdempotentError,
    NotRBError,
    ZeroWeightError,
)
from rbx.fields import PrimeField, Rationals
from rbx.linalg import Matrix, Subspace, vec_is_zero
from rbx.rb import (
    Decomposition,
    LinearOperator,
    RBOperator,
    apply_phi,
    check_derivation_weight,
    check_rb,
    conjugate,
    diagnostics,
    is_splitting,
    left_mult_op,
    nonsplit_weight1_op,
    normalize_weight,
    op_from_isotropic_map,
    partial_sum_op,
    rb_from_inverse_derivation,
    rb_to_triple,
    split_op,
    splitting_witness,
    triple_to_rb,
    trivial_rb_ops,
    weight0_matrix_ops,
)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def mat(field, rows):
    return Matrix(field, [[field.element(x) for x in row] for row in rows])


def test_weight0_reference_operators():
    ops = weight0_matrix_ops(Q)
    assert set(ops) == {"m1", "m2", "m3", "m4"}
    a = ops["m1"].algebra
    for name, r in ops.items():
        assert check_rb(r.operator, Q.zero)
        sq = r.matrix * r.matrix
        if name in ("m1", "m2", "m3"):
            assert sq.is_zero()
        else:
            assert not sq.is_zero()
    # m1 sends e21 to e12 and kills everything else
    m1 = ops["m1"].matrix
    assert m1.apply(a.basis_vector(2)) == a.basis_vector(1)
    for j in (0, 1, 3):
        assert vec_is_zero(m1.apply(a.basis_vector(j)))


def test_identity_not_rb_weight0():
    a = matrix_algebra(Q, 2)
    ident = LinearOperator(a, Matrix.identity(Q, 4))
    assert not check_rb(ident, Q.zero)
    with pytest.raises(NotRBError):
        RBOperator(ident, Q.zero)


def test_trivial_ops_all_weights():
    a = grassmann2(F5)
    for w in (0, 1, 3):
        for r in trivial_rb_ops(a, w):
            assert check_rb(r.operator, a.field.element(w))
    assert len(trivial_rb_ops(a, 0)) == 1  # zero and -w*id coincide
    assert len(trivial_rb_ops(a, 1)) == 2


def test_phi_is_involution():
    for r in weight0_matrix_ops(Q).values():
        assert apply_phi(apply_phi(r)) == r
    r = nonsplit_weight1_op(Q)
    twice = apply_phi(apply_phi(r))
    assert twice == r


def test_phi_on_splitting_swaps_sides():
    a = matrix_algebra(Q, 2)
    first = Subspace(Q, 4, [a.basis_vector(0), a.basis_vector(1)])
    second = Subspace(Q, 4, [a.basis_vector(2), a.basis_vector(3)])
    dec = Decomposition(a, first, second)
    r = split_op(dec, 2)
    pr = apply_phi(r)
    # phi of the side-killing operator kills the other side
    for v in first.basis:
        assert vec_is_zero(r.matrix.apply(v))
        assert pr.matrix.apply(v) == tuple(Q.element(-2) * c for c in v)
    for v in second.basis:
        assert vec_is_zero(pr.matrix.apply(v))


def test_normalize_weight():
    r = nonsplit_weight1_op(F5)
    r3 = RBOperator(LinearOperator(r.algebra, r.matrix.scale(3)), F5.element(3))
    back = normalize_weight(r3)
    assert back.weight == F5.one
    with pytest.raises(ZeroWeightError):
        normalize_weight(weight0_matrix_ops(F5)["m1"])


def test_conjugate_preserves_rb():
    a = matrix_algebra(Q, 2)
    ops = weight0_matrix_ops(Q)
    swap = mat(Q, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    m2c = conjugate(ops["m2"], swap)
    # the swapped operator sends e12 to e22 and kills the rest
    assert m2c.matrix.apply(a.basis_vector(1)) == a.basis_vector(3)
    for j in (0, 2, 3):
        assert vec_is_zero(m2c.matrix.apply(a.basis_vector(j)))
    assert check_rb(m2c.operator, Q.zero)


def test_split_is_splitting_inverse_pair():
    a = grassmann2(F3)
    first = Subspace(F3, 4, [a.basis_vector(0), a.basis_vector(1), a.basis_vector(3)])
    second = Subspace(F3, 4, [a.basis_vector(2)])
    dec = Decomposition(a, first, second)
    r = split_op(dec, 1)
    assert is_splitting(r)
    wit = splitting_witness(r)
    assert wit is not None
    assert wit.first == first and wit.second == second
    assert split_op(wit, 1) == r


def test_nonsplitting_witness_absent():
    r = nonsplit_weight1_op(Q)
    assert not is_splitting(r)
    assert splitting_witness(r) is None


def test_zero_operator_splits_trivially():
    a = matrix_algebra(Q, 2)
    z = RBOperator(LinearOperator.zero(a), Q.one)
    wit = splitting_witness(z)
    assert wit is not None
    assert wit.first.dim == 4 and wit.second.dim == 0


def test_decomposition_validation():
    a = matrix_algebra(Q, 2)
    line = Subspace(Q, 4, [a.basis_vector(0)])
    rest = Subspace(Q, 4, [a.basis_vector(1), a.basis_vector(2), a.basis_vector(3)])
    # e12*e21 = e11 escapes the second summand, so it is not a subalgebra
    with pytest.raises(InvalidDecompositionError):
        Decomposition(a, line, rest)
    overlap = Subspace(Q, 4, [a.basis_vector(0), a.basis_vector(3)])
    with pytest.raises(InvalidDecompositionError):
        Decomposition(a, overlap, overlap)


def test_left_mult_op():
    a = matrix_algebra(Q, 2)
    # e11 * e11 = e11 = -(-1) e11
    op = left_mult_op(a, a.basis_vector(0), -1)
    assert check_rb(op, Q.element(-1))
    r = RBOperator(op, Q.element(-1))
    # R^2 + lam R = 0 for lam != 0
    assert (r.matrix * r.matrix + r.matrix.scale(-1)).is_zero()
    with pytest.raises(NotQuasiIdempotentError):
        left_mult_op(a, a.basis_vector(1), -1)


def test_partial_sum_op():
    r = partial_sum_op(Q, 4)
    assert r.weight == Q.element(-1)
    a = r.algebra
    # suffix sums: the image of u3 is u3 + u4
    v = r.matrix.apply(a.basis_vector(2))
    assert v == tuple(Q.element(1 if i >= 2 else 0) for i in range(4))


def test_derivation_checks():
    a = grassmann2(F3)
    neg_id = LinearOperator(a, Matrix.identity(F3, 4).scale(-1))
    assert check_derivation_weight(neg_id, 1)
    assert not check_derivation_weight(LinearOperator(a, Matrix.identity(F3, 4)), 1)


def test_rb_from_inverse_derivation_round():
    a = grassmann2(F3)
    neg_id = LinearOperator(a, Matrix.identity(F3, 4).scale(-1))
    r = rb_from_inverse_derivation(neg_id, 1)
    assert check_rb(r.operator, F3.one)
    assert r.matrix == Matrix.identity(F3, 4).scale(-1)
    bad = LinearOperator(a, Matrix.identity(F3, 4))
    with pytest.raises(NotDerivationError):
        rb_from_inverse_derivation(bad, 1)


def test_derivation_inverse_on_termwise():
    # d = diag(1..n) scaled: on TP, any invertible diagonal map with
    # d(xy) = d(x)y + x d(y) + w x y fails unless diagonal matches; use the
    # weight-(-1) identity map instead
    a = termwise_power(F5, 3)
    ident = LinearOperator(a, Matrix.identity(F5, 3))
    assert check_derivation_weight(ident, -1)
    r = rb_from_inverse_derivation(ident, -1)
    assert check_rb(r.operator, F5.element(-1))


def test_triple_round_trip_on_weight0_ops():
    for name, r in weight0_matrix_ops(Q).items():
        triple = rb_to_triple(r)
        triple.validate()
        back = triple_to_rb(triple)
        assert back == r, name
        again = rb_to_triple(back)
        assert again.sub == triple.sub and again.kernel_part == triple.kernel_part


def test_triple_zero_operator():
    a = matrix_algebra(Q, 2)
    z = RBOperator(LinearOperator.zero(a), Q.zero)
    t = rb_to_triple(z)
    assert t.sub.dim == 0 and t.kernel_part.dim == 4
    assert triple_to_rb(t) == z


def test_triple_on_sl2_fixture():
    g = sl2(F7)
    half = F7.element(1) / 2
    rows = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    m = mat(F7, rows)
    # R(f) = h/2, R(h) = R(e) = 0
    data = [list(row) for row in m.data]
    data[0][2] = half
    r = RBOperator(LinearOperator(g, Matrix(F7, data)), F7.zero)
    t = rb_to_triple(r)
    assert t.sub == Subspace(F7, 3, [g.basis_vector(0)])
    assert t.kernel_part == Subspace(F7, 3, [g.basis_vector(0), g.basis_vector(1)])
    assert triple_to_rb(t) == r


def test_isotropic_build_accepts():
    a = jordan_form(Q, [1, 1])
    data = [list(row) for row in Matrix.zeros(Q, 3, 3).data]
    # e2 -> 1 + e1: kills the unit, squares to zero, image isotropic
    data[0][2] = Q.one
    data[1][2] = Q.one
    r = op_from_isotropic_map(a, Matrix(Q, data))
    assert check_rb(r.operator, Q.zero)


def test_isotropic_build_rejections():
    a = jordan_form(Q, [1, 1])
    # unit not killed
    data = [list(row) for row in Matrix.zeros(Q, 3, 3).data]
    data[1][0] = Q.one
    with pytest.raises(IsotropicBuildError) as e1:
        op_from_isotropic_map(a, Matrix(Q, data))
    assert e1.value.condition == "unit-image"
    # square nonzero: e1 and e2 both go to 1 + e1
    data = [list(row) for row in Matrix.zeros(Q, 3, 3).data]
    data[0][1] = data[1][1] = Q.one
    data[0][2] = data[1][2] = Q.one
    with pytest.raises(IsotropicBuildError) as e2:
        op_from_isotropic_map(a, Matrix(Q, data))
    assert e2.value.condition == "square"
    # norm nonzero on the image: e2 -> e1 with n(e1) = -1
    data = [list(row) for row in Matrix.zeros(Q, 3, 3).data]
    data[1][2] = Q.one
    with pytest.raises(IsotropicBuildError) as e3:
        op_from_isotropic_map(a, Matrix(Q, data))
    assert e3.value.condition == "norm"
    # the correspondence needs commutativity
    with pytest.raises(NotApplicableError):
        op_from_isotropic_map(matrix_algebra(Q, 2), Matrix.zeros(Q, 4, 4))


def test_diagnostics_weight0_facts():
    ops = weight0_matrix_ops(Q)
    for name, r in ops.items():
        rep = diagnostics(r.operator, Q.zero)
        assert rep.weight.is_zero()
        assert rep.splitting == (name != "m4")
        assert rep.dim_kernel >= 2
        # the unit never lies in the image at weight zero
        assert not r.image().contains_vector(r.algebra.unit)
        assert rep.unit_image is not None
        if name in ("m1", "m2"):
            assert vec_is_zero(rep.unit_image)
        assert rep.degenerate_image is True
        assert rep.square_zero == (name != "m4")


def test_diagnostics_case_detection():
    r = nonsplit_weight1_op(Q)
    rep = diagnostics(r.operator, Q.one)
    assert rep.unit_case == "II"
    # R(1) = 1/2 + p with R(p) = -1/4 - p/2
    a = r.algebra
    img = r.matrix.apply(a.unit)
    half = Q.element(1) / 2
    p_vec = tuple(c - half * u for c, u in zip(img, a.unit))
    assert not vec_is_zero(p_vec)
    rp = r.matrix.apply(p_vec)
    expect = tuple(Q.element(-1) / 4 * u - half * c for u, c in zip(a.unit, p_vec))
    assert rp == expect


def test_diagnostics_scaled_weight_normalizes():
    r = nonsplit_weight1_op(F7)
    scaled = RBOperator(LinearOperator(r.algebra, r.matrix.scale(3)), F7.element(3))
    rep = diagnostics(scaled.operator, F7.element(3))
    assert rep.unit_case == "II"


def _m3_triangular_split(field):
    # M3 = strictly lower (+) upper triangular; the image is the upper
    # triangular matrices, which contain the identity
    a = matrix_algebra(field, 3)
    basis = lambda pairs: Subspace(field, 9, [a.basis_vector(3 * i + j) for i, j in pairs])
    lower = basis([(i, j) for i in range(3) for j in range(i)])
    upper = basis([(i, j) for i in range(3) for j in range(i, 3)])
    return split_op(Decomposition(a, lower, upper), 1)


def test_diagnostics_degenerate_image_decided_or_none():
    # F3: 3^6 image elements, few enough to enumerate; the identity is found
    assert diagnostics(_m3_triangular_split(F3).operator, 1).degenerate_image is False
    # Q and F7: too many to enumerate, and every basis matrix is singular
    for field in (Q, F7):
        assert diagnostics(_m3_triangular_split(field).operator, 1).degenerate_image is None


def test_diagnostics_rejects_non_rb():
    a = matrix_algebra(Q, 2)
    with pytest.raises(NotRBError):
        diagnostics(LinearOperator(a, Matrix.identity(Q, 4)), Q.zero)


def test_statement6_transport():
    # an RB-operator transports to the plus and minus product algebras
    for variant in ("plus", "minus"):
        for r in weight0_matrix_ops(Q).values():
            d = derived_algebra(r.algebra, variant)
            assert check_rb(LinearOperator(d, r.matrix), Q.zero)
    a = matrix_algebra(Q, 2)
    first = Subspace(Q, 4, [a.basis_vector(0), a.basis_vector(1)])
    second = Subspace(Q, 4, [a.basis_vector(2), a.basis_vector(3)])
    r = split_op(Decomposition(a, first, second), 1)
    for variant in ("plus", "minus"):
        d = derived_algebra(a, variant)
        assert check_rb(LinearOperator(d, r.matrix), Q.one)


def test_kaplansky_weight0_family():
    a = kaplansky3(F5)
    for aa in range(5):
        for bb in range(5):
            cols = [[0, 0, 0], [0, 0, 0], [aa, bb, 0]]
            m = mat(F5, cols).transpose()
            assert check_rb(LinearOperator(a, m), F5.zero)


@given(st.integers(min_value=0, max_value=5**9 - 1))
def test_random_k3_matrices_agree_with_raw_identity(code):
    # check_rb must agree with the direct two-sided evaluation
    a = kaplansky3(F5)
    digits = []
    c = code
    for _ in range(9):
        digits.append(c % 5)
        c //= 5
    m = mat(F5, [digits[0:3], digits[3:6], digits[6:9]])
    op = LinearOperator(a, m)
    direct = True
    for i in range(3):
        for j in range(3):
            x, y = a.basis_vector(i), a.basis_vector(j)
            rx, ry = m.apply(x), m.apply(y)
            lhs = a.product_vec(rx, ry)
            inner = tuple(
                p + q for p, q in zip(a.product_vec(rx, y), a.product_vec(x, ry))
            )
            if a.product_vec(x, y) != tuple(F5.zero for _ in range(3)):
                pass
            rhs = m.apply(inner)
            if lhs != rhs:
                direct = False
    assert check_rb(op, F5.zero) == direct
