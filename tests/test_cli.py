import contextlib
import io
import pathlib

import pytest

from rbx.cli import main, rng_from_env

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_check_ex11_exact_output():
    code, out, err = run("check", "--algebra", fx("j4_f5.alg"), "--op", fx("ex11.op"))
    assert code == 0
    assert out == "RB weight=4 splitting=false case=IIb\n"
    assert "elapsed:" in err


def test_check_identity_weight0_fails():
    code, out, _ = run(
        "check", "--algebra", fx("m2_q.alg"), "--op", fx("identity_m2q.op"),
        "--weight", "0",
    )
    assert code == 1
    assert out == "not RB weight=0\n"


def test_check_machine_format():
    code, out, _ = run(
        "check", "--algebra", fx("j4_f5.alg"), "--op", fx("ex11.op"),
        "--format", "machine",
    )
    assert code == 0
    assert out == "rb=true weight=4 splitting=false case=IIb\n"


def test_check_ex12_case():
    code, out, _ = run("check", "--algebra", fx("j4_f13.alg"), "--op", fx("ex12.op"))
    assert code == 0
    assert out == "RB weight=12 splitting=true case=I\n"


def test_verify_t4():
    code, out, _ = run("verify", "--claim", "T4-gr2", "--p", "3", "--weight", "1")
    assert code == 0
    assert out.endswith("pass: all splitting\n")


def test_verify_unknown_claim():
    code, _, err = run("verify", "--claim", "T9-zzz")
    assert code == 2
    assert "unknown claim" in err


def test_verify_pin_mismatch():
    code, _, err = run("verify", "--claim", "T4-gr2", "--p", "7")
    assert code == 2
    assert "pinned" in err


def test_verify_p_runs_every_pinned_prime():
    # --p is checked against the pins but selects nothing
    code, out, _ = run("verify", "--claim", "T5-k3", "--p", "3", "--weight", "1")
    assert code == 0
    assert out == (
        "K3 over F3 weight 1: 74 operators, splitting=all\n"
        "K3 over F5 weight 1: 302 operators, splitting=all\n"
        "pass: all splitting\n"
    )
    code, out, err = run("verify", "--claim", "T5-k3", "--p", "7")
    assert code == 2
    assert out == ""
    assert "error: claim T5-k3 is pinned to p in [3, 5], got 7" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        run("bogus-command")
    assert e.value.code == 2


def test_missing_file_exits_2():
    code, _, err = run("check", "--algebra", "no/such/file.alg", "--op", fx("ex11.op"))
    assert code == 2
    assert "error:" in err


def test_byte_identical_reruns():
    a = run("classify", "--algebra", fx("m2_f3.alg"), "--weight", "0")
    b = run("classify", "--algebra", fx("m2_f3.alg"), "--weight", "0")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]
    assert "total=89 orbits=5" in a[1]


def test_construct_outputs_reverify(tmp_path):
    # every construct verb's output re-parses and check exits 0
    cases = [
        (("construct", "ex11"), fx("j4_f5.alg"), ()),
        (("construct", "ex12"), fx("j4_f13.alg"), ()),
        (("construct", "ex10", "--p", "5", "--d", "1,1,1", "--weight", "1"),
         fx("j4_f5.alg"), ()),
        (("construct", "ex13", "--p", "5", "--d", "1,1", "--alpha", "1,1,0",
          "--k", "4", "--l", "0", "--weight", "1"), fx("j3_f5.alg"), ()),
        (("construct", "m1"), fx("m2_q.alg"), ()),
        (("construct", "m2"), fx("m2_q.alg"), ()),
        (("construct", "m3"), fx("m2_q.alg"), ()),
        (("construct", "m4"), fx("m2_q.alg"), ()),
        (("construct", "example14"), fx("m2_q.alg"), ()),
        (("construct", "split", "--algebra", fx("m2_q.alg"), "--first", "0,1",
          "--weight", "1"), fx("m2_q.alg"), ()),
        (("construct", "phi", "--algebra", fx("m2_q.alg"), "--op", fx("m1_q.op")),
         fx("m2_q.alg"), ()),
        (("construct", "conjugate", "--algebra", fx("m2_q.alg"), "--op",
          fx("m2_q.op"), "--auto", fx("swap_auto_m2q.op")), fx("m2_q.alg"), ()),
        (("construct", "triple-to-rb", "--algebra", fx("m2_q.alg"), "--op",
          fx("m3_q.op")), fx("m2_q.alg"), ()),
        (("construct", "l-e", "--algebra", fx("m2_q.alg"), "--element", "1,0,0,0",
          "--weight", "-1"), fx("m2_q.alg"), ()),
    ]
    for argv, algebra, _ in cases:
        code, out, _err = run(*argv)
        assert code == 0, argv
        op_file = tmp_path / "out.op"
        op_file.write_text(out, encoding="utf-8")
        code2, out2, _ = run("check", "--algebra", algebra, "--op", str(op_file))
        assert code2 == 0, (argv, out2)


def test_construct_ex13_matches_fixture():
    code, out, _ = run(
        "construct", "ex13", "--p", "5", "--d", "1,1", "--alpha", "1,1,0",
        "--k", "4", "--l", "0", "--weight", "1",
    )
    assert code == 0
    assert out == (FIXTURES / "ex13.op").read_text(encoding="utf-8")


def test_construct_example16_matches_fixture():
    code, out, _ = run("construct", "example16")
    assert code == 0
    assert out == (FIXTURES / "example16_q.tensor").read_text(encoding="utf-8")


def test_construct_from_derivation(tmp_path):
    # identity is a weight -1 derivation on TP; its inverse is RB
    code, out, _ = run("construct", "split", "--algebra", fx("tp4_q.alg"),
                       "--first", "0,1", "--weight", "1")
    assert code == 0
    deriv = "operator algebra=TP4 weight=-1\n" + "\n".join(
        " ".join("1" if i == j else "0" for j in range(4)) for i in range(4)
    ) + "\n"
    dfile = tmp_path / "d.op"
    dfile.write_text(deriv, encoding="utf-8")
    code, out, _ = run(
        "construct", "from-derivation", "--algebra", fx("tp4_q.alg"),
        "--op", str(dfile), "--weight", "-1",
    )
    assert code == 0
    op_file = tmp_path / "r.op"
    op_file.write_text(out, encoding="utf-8")
    code2, out2, _ = run("check", "--algebra", fx("tp4_q.alg"), "--op", str(op_file))
    assert code2 == 0
    assert "weight=-1" in out2


def test_convert_round_trip(tmp_path):
    code, tensor_text, _ = run(
        "convert", "--mode", "to-tensor", "--algebra", fx("m2_q.alg"),
        "--op", fx("m1_q.op"),
    )
    assert code == 0
    tf = tmp_path / "t.tensor"
    tf.write_text(tensor_text, encoding="utf-8")
    code, op_text, _ = run(
        "convert", "--mode", "form-trace", "--algebra", fx("m2_q.alg"),
        "--tensor", str(tf),
    )
    assert code == 0
    assert op_text == (FIXTURES / "m1_q.op").read_text(encoding="utf-8")


def test_convert_sandwich_example16(tmp_path):
    code, out, _ = run(
        "convert", "--mode", "sandwich", "--algebra", fx("m4_q.alg"),
        "--tensor", fx("example16_q.tensor"),
    )
    assert code == 0
    op_file = tmp_path / "s.op"
    op_file.write_text(out, encoding="utf-8")
    code2, out2, _ = run("check", "--algebra", fx("m4_q.alg"), "--op", str(op_file))
    assert code2 == 0
    assert out2.startswith("RB weight=0 ")


def test_gen_system_output():
    code, out, _ = run("gen-system", "--p", "5", "--d", "1,1", "--weight", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "system kind=raw field=F5 d=1,1 weight=1"
    assert all(line.startswith("series=") for line in lines[1:])
    code2, out2, _ = run(
        "gen-system", "--p", "5", "--d", "1,1", "--weight", "1", "--reduced"
    )
    assert code2 == 0
    assert out2.splitlines()[0] == "system kind=reduced field=F5 d=1,1 weight=1"


def test_enumerate_pruned_equals_raw_bytes():
    base = ("enumerate", "--algebra", fx("k3_f3.alg"), "--kind", "rb", "--weight", "0")
    a = run(*base)
    b = run(*base, "--raw")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]
    assert a[1].splitlines()[0] == "enumerate algebra=K3 weight=0 kind=rb count=33"


def test_raw_automorphisms_guarded():
    # 5^9 matrices through the FieldElement checker would take minutes
    code, out, err = run("enumerate", "--algebra", fx("k3_f5.alg"), "--kind", "auto", "--raw")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == "error: 5^9 exceeds the raw enumeration guard"


def test_false_unit_line_exits_2():
    # u1 is declared the unit of TP2, but u1 * u2 = 0
    for argv in (["info"], ["classify", "--weight", "1"]):
        code, out, err = run(*argv, "--algebra", fx("tp2_f3_false_unit.alg"))
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == "error: unit law fails on basis u2"


@pytest.mark.parametrize(
    "name",
    [
        *(f"classify-{alg}-w{w}" for alg in ("gr2_f3", "m2_f3", "k3_f3") for w in (0, 1)),
        "verify-T6-soundness",
        "verify-P1-gr2-weight0",
    ],
)
def test_golden_output(name):
    # stdout as recorded before classification ran its own search; all exit 0
    command, rest = name.split("-", 1)
    if command == "classify":
        alg, w = rest.rsplit("-w", 1)
        code, out, _ = run("classify", "--algebra", fx(f"{alg}.alg"), "--weight", w)
    else:
        code, out, _ = run("verify", "--claim", rest)
    assert code == 0
    assert out == (FIXTURES / "golden" / f"{name}.out").read_text(encoding="utf-8")


def test_enumerate_derivations_cli():
    code, out, _ = run(
        "enumerate", "--algebra", fx("gr2_f3.alg"), "--kind", "derivation",
        "--weight", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "enumerate algebra=Gr2 weight=1 kind=derivation count=730"
    )


def test_info_output():
    code, out, _ = run("info", "--algebra", fx("k3_f5.alg"))
    assert code == 0
    assert out == (
        "algebra K3\n"
        "field=F5 dim=3\n"
        "associative=false commutative=false\n"
        "unital=false\n"
        "grading=0 1 1\n"
        "quadratic=true\n"
    )


def test_rng_from_env_default(monkeypatch):
    monkeypatch.delenv("RBX_SEED", raising=False)
    a = rng_from_env().random()
    b = rng_from_env().random()
    assert a == b
    monkeypatch.setenv("RBX_SEED", "99")
    c = rng_from_env().random()
    assert c != a
