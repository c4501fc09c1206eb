import pathlib

import pytest

from rbx import formats
from rbx.algebras import build_algebra, grassmann2, jordan_form, matrix_algebra
from rbx.errors import AlgebraMismatchError, InvalidSpecError
from rbx.fields import PrimeField, QuadraticExtension, Rationals
from rbx.formats import (
    algebra_from_text,
    algebra_to_text,
    operator_from_text,
    operator_to_text,
    tensor_from_text,
    tensor_to_text,
)
from rbx.jordan import nonsplit_dim4_op
from rbx.rb import check_rb
from rbx.ybe import Tensor2, corner_pair_tensor

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)


def read(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_fixture_algebras_byte_stable():
    for name in (
        "m2_q.alg", "m4_q.alg", "m2_f3.alg", "gr2_f3.alg", "k3_f3.alg",
        "k3_f5.alg", "j3_f5.alg", "j4_f5.alg", "j4_f13.alg", "cd_f5.alg",
        "sl2_f7.alg", "tp4_q.alg",
    ):
        text = read(name)
        a = algebra_from_text(text)
        assert algebra_to_text(a) == text, name


def test_fixture_structure_reattached():
    a = algebra_from_text(read("m2_f3.alg"))
    assert a.quadratic is not None
    assert a.antiauto is not None
    assert a.matrix_shape == 2
    j = algebra_from_text(read("j4_f5.alg"))
    assert j.quadratic is not None
    k = algebra_from_text(read("k3_f5.alg"))
    assert k.grading == (0, 1, 1)
    # names that carry their size, each of its file's own dim
    assert algebra_from_text(read("m2_q.alg")).matrix_shape == 2
    assert algebra_from_text(read("m4_q.alg")).matrix_shape == 4
    assert algebra_from_text(read("j3_f5.alg")).quadratic is not None
    assert algebra_from_text(read("cd_f5.alg")).quadratic is not None


NINES = "9" * 5000


@pytest.mark.parametrize(
    "name",
    ["M13", "M3", f"M{NINES}", "TP2", f"TP{NINES}", "J(" + ",".join(["1"] * 60) + ")",
     "CD(" + ",".join(["1"] * 12) + ")"],
    ids=["M13", "M3", "M-long", "TP2", "TP-long", "J60", "CD12"],
)
def test_builder_name_of_another_dim_is_not_built(monkeypatch, name):
    # the name's size is not the header's dim, so the builder's algebra
    # cannot be the parsed one and is not built: M13 would fill 169^3 cells,
    # CD with 12 entries 4096^3, and the long names are past int()'s limit
    def refused(field, spec):
        raise AssertionError(f"built {spec[:20]}")

    monkeypatch.setattr(formats, "build_algebra", refused)
    a = algebra_from_text(f"algebra {name} field=F3 dim=1\nbasis a\n0 0 0 1\n")
    assert (a.name, a.dim, a.matrix_shape) == (name, 1, None)


def test_custom_algebra_kept_as_is():
    text = "\n".join(
        [
            "algebra pair field=F5 dim=2",
            "basis a b",
            "0 0 0 1",
            "1 1 1 1",
            "",
        ]
    )
    a = algebra_from_text(text)
    assert a.name == "pair" and a.quadratic is None
    assert algebra_to_text(a) == text.replace("\n\n", "\n")


def test_renamed_canonical_table_not_upgraded():
    # same table as M2 but a non-canonical name: parsed plainly
    canonical = matrix_algebra(F3, 2)
    text = algebra_to_text(canonical).replace("algebra M2 ", "algebra mine ", 1)
    a = algebra_from_text(text)
    assert a.name == "mine"
    assert a.quadratic is None and a.antiauto is None


def test_canonical_name_with_other_table_not_upgraded():
    # named M2 but with a tweaked table: must not inherit M2 structure;
    # e12 e21 = e11 takes no part in the unit law, which still holds
    canonical = algebra_to_text(matrix_algebra(F3, 2))
    lines = canonical.splitlines()
    lines = [ln for ln in lines if ln != "1 2 0 1"]
    a = algebra_from_text("\n".join(lines) + "\n")
    assert a.name == "M2"
    assert a.quadratic is None and a.antiauto is None


def test_algebra_parse_errors():
    with pytest.raises(InvalidSpecError):
        algebra_from_text("")
    with pytest.raises(InvalidSpecError):
        algebra_from_text("algebra x field=F5 dim=zz")
    with pytest.raises(InvalidSpecError):
        algebra_from_text("algebra x field=F5 dim=2\nbasis a\n")
    with pytest.raises(InvalidSpecError):
        algebra_from_text("algebra x field=F5 dim=2\nbasis a b\n0 0 9 1\n")
    # a letter for an index or a grading entry, and an empty basis
    for text in (
        "algebra x field=F5 dim=2\nbasis a b\na 0 0 1\n",
        "algebra x field=F5 dim=2\nbasis a b\ngrading= 0 x\n",
        "algebra x field=F5 dim=0\nbasis\n",
    ):
        with pytest.raises(InvalidSpecError):
            algebra_from_text(text)


def test_operator_round_trip_fixtures():
    a = algebra_from_text(read("j4_f5.alg"))
    text = read("ex11.op")
    op, w = operator_from_text(text, a)
    assert w == F5.element(4)
    assert check_rb(op, w)
    assert operator_to_text(op, w) == text
    ref = nonsplit_dim4_op()
    assert op.matrix == ref.matrix


def test_operator_name_mismatch():
    a = algebra_from_text(read("m2_q.alg"))
    with pytest.raises(AlgebraMismatchError):
        operator_from_text(read("ex11.op"), a)


def test_operator_bad_shapes():
    a = algebra_from_text(read("m2_q.alg"))
    with pytest.raises(InvalidSpecError):
        operator_from_text("operator algebra=M2 weight=0\n1 0\n", a)
    with pytest.raises(InvalidSpecError):
        operator_from_text("nonsense\n", a)


def test_operator_comment_lines_ignored():
    a = algebra_from_text(read("m2_q.alg"))
    text = read("m1_q.op")
    with_extra = text.replace(
        "operator algebra=M2 weight=0\n",
        "operator algebra=M2 weight=0\n# extra note\n\n",
    )
    op, w = operator_from_text(with_extra, a)
    assert operator_to_text(op, w) == text


def test_tensor_round_trip_fixture():
    a = algebra_from_text(read("m4_q.alg"))
    text = read("example16_q.tensor")
    t = tensor_from_text(text, a)
    assert tensor_to_text(t) == text
    assert t == corner_pair_tensor(Q)


def test_tensor_errors():
    a = algebra_from_text(read("m4_q.alg"))
    with pytest.raises(AlgebraMismatchError):
        tensor_from_text("tensor algebra=M2 terms=0\n", a)
    with pytest.raises(InvalidSpecError):
        tensor_from_text("tensor algebra=M4 terms=2\na= 1 ; b= 1\n", a)


def test_tensor_drops_zero_terms():
    a = matrix_algebra(Q, 2)
    zero = tuple(Q.zero for _ in range(4))
    one = a.basis_vector(0)
    t = Tensor2(a, [(zero, one), (one, one)])
    assert len(t.terms) == 1
    text = tensor_to_text(t)
    assert "terms=1" in text.splitlines()[0]


def test_extension_field_algebra_file():
    ext = QuadraticExtension(13, 2)
    a = jordan_form(ext, [1, 1])
    text = algebra_to_text(a)
    assert "field=F13(s=2)" in text.splitlines()[0]
    back = algebra_from_text(text)
    assert back == a and algebra_to_text(back) == text


def test_grassmann_negative_entry_encoding():
    text = read("gr2_f3.alg")
    # e2 e1 = -e1e2 shows up as coefficient 2 over F3
    assert "2 1 3 2" in text.splitlines()
    a = algebra_from_text(text)
    assert a == grassmann2(F3)
    assert build_algebra(F3, "Gr2") == a


def test_dim_bound():
    # 64 is admitted, leading zeros and all; 65 and a long run of zeros
    # before it are not
    with pytest.raises(InvalidSpecError, match="basis line length != dim"):
        algebra_from_text("algebra x field=F5 dim=0064\nbasis a b\n")
    for dim in ("65", "0" * 5000 + "65", "100"):
        with pytest.raises(InvalidSpecError, match="dim must be at most 64"):
            algebra_from_text(f"algebra x field=F5 dim={dim}\nbasis a b\n")
