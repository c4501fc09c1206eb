import argparse
import contextlib
import io
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from rbx.cli import build_parser, main

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize("text", [
    "algebra x field=F5 dim=2\nbasis a b\na 0 0 1\n",
    "algebra x field=F5 dim=2\nbasis a b\ngrading= 0 x\n",
    "algebra x field=F5 dim=0\nbasis\n",
    "algebra x field=Q dim=1\nbasis a\n0 0 0 1/0\n",
])
def test_malformed_algebra_file_exits_2(tmp_path, text):
    path = tmp_path / "bad.alg"
    path.write_text(text, encoding="utf-8")
    for argv in (["info"], ["classify"], ["enumerate", "--kind", "auto"]):
        code, out, err = run(*argv, "--algebra", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_oversized_weight0_derivations_exit_2(tmp_path):
    # the zero product on F5^4: every map is a derivation, 5^16 of them
    path = tmp_path / "z4.alg"
    path.write_text("algebra Z4 field=F5 dim=4\nbasis a b c d\n", encoding="utf-8")
    code, out, err = run("enumerate", "--algebra", str(path), "--kind", "derivation",
                         "--weight", "0")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: 5^16 maps exceed the enumeration guard"


def test_prime_past_the_bound_exits_2(tmp_path):
    # the square root of 10^400 overflows a float, and trial division up to
    # that of 10^18 + 3 takes 10^9 steps; p past 3.3e24 is refused
    path = tmp_path / "big.alg"
    path.write_text("algebra x field=F1" + "0" * 400 + " dim=1\nbasis a\n", encoding="utf-8")
    code, out, err = run("info", "--algebra", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: p must be below 3.3e24, where primality is decided exactly"
    path.write_text("algebra x field=F1000000000000000003 dim=1\nbasis a\n", encoding="utf-8")
    code, out, _ = run("info", "--algebra", str(path))
    assert code == 0
    assert out.splitlines()[1] == "field=F1000000000000000003 dim=1"


NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv,source,old,new,message",
    [
        (("check", "--algebra", fx("j4_f5.alg"), "--op"), "ex11.op", "\n4 1 2 2",
         f"\n{NINES} 1 2 2", "residue literal of more than 4300 digits"),
        (("info", "--algebra"), "m2_q.alg", "\n0 1 1 1", f"\n0 1 1 1/{NINES}",
         "rational literal of more than 4300 digits"),
        (("convert", "--mode", "sandwich", "--algebra", fx("m4_q.alg"), "--tensor"),
         "example16_q.tensor", "terms=4", f"terms={NINES}", "terms= has more than 4300 digits"),
        (("info", "--algebra"), "j4_f5.alg", "field=F5", f"field=F5(s={NINES})",
         "s= has more than 4300 digits"),
    ],
    ids=["element", "rational", "terms", "extension-root"],
)
def test_long_integer_exits_2(tmp_path, argv, source, old, new, message):
    # int() refuses a string of more than 4300 digits with a ValueError
    text = (FIXTURES / source).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / source
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run(*argv, str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: {message}"


@pytest.mark.parametrize(
    "name",
    ["M13", f"M{NINES}", f"TP{NINES}", "CD(" + ",".join(["1"] * 12) + ")"],
    ids=["M13", "M-long", "TP-long", "CD12"],
)
def test_builder_name_of_another_dim_prints_info(tmp_path, name):
    # a file may name a builder's algebra of another dim: it is read as
    # written, without building the named one
    path = tmp_path / "named.alg"
    path.write_text(f"algebra {name} field=F3 dim=1\nbasis a\n", encoding="utf-8")
    code, out, err = run("info", "--algebra", str(path))
    assert code == 0
    assert out.splitlines()[:2] == [f"algebra {name}", "field=F3 dim=1"]
    assert [ln for ln in err.splitlines() if not ln.startswith("elapsed:")] == []


def test_long_basis_index_exits_2():
    code, out, err = run("construct", "split", "--algebra", fx("m2_q.alg"), "--first", NINES)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: --first '{NINES}' is not a basis index in 0..3"
    # leading zeros are not counted
    split = ("construct", "split", "--algebra", fx("m2_q.alg"), "--first")
    plain, padded = run(*split, "0,1"), run(*split, "0," + "0" * 5000 + "1")
    assert padded[:2] == plain[:2] and plain[0] == 0


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _info_under_1gib(path):
    """rbx info on an algebra file, in a subprocess under a 1 GiB
    address-space limit, so a regression fails with MemoryError instead of
    exhausting the machine."""
    return subprocess.run(
        [sys.executable, "-m", "rbx.cli", "info", "--algebra", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_dim_checked_before_the_product_cube(tmp_path):
    # the 3000^3 cells a dim=3000 header names would take over 200 GB; the
    # header's dim is refused before any cell is built
    path = tmp_path / "big.alg"
    path.write_text("algebra x field=F3 dim=3000\nbasis a b\n", encoding="utf-8")
    proc = _info_under_1gib(path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[0] == "error: dim must be at most 64"


@pytest.mark.parametrize(
    "dim,basis",
    [
        # int() refuses a string of more than 4300 digits
        ("7" * 5000, "a"),
        # a basis line that confirms the dim: the cube would not fit in 1 GiB
        ("20000", " ".join(f"b{k}" for k in range(20000))),
    ],
    ids=["5000-digits", "20000-names"],
)
def test_dim_past_the_bound_exits_2(tmp_path, dim, basis):
    path = tmp_path / "big.alg"
    path.write_text(f"algebra x field=F3 dim={dim}\nbasis {basis}\n", encoding="utf-8")
    proc = _info_under_1gib(path)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = [ln for ln in proc.stderr.splitlines() if not ln.startswith("elapsed:")]
    assert lines == ["error: dim must be at most 64"]


# name -> argv of a command whose stdout is tests/fixtures/golden/<name>.out
GOLDEN = {
    **{
        f"classify-{alg}-w{w}": ("classify", "--algebra", fx(f"{alg}.alg"), "--weight", str(w))
        for alg in ("gr2_f3", "m2_f3", "k3_f3")
        for w in (0, 1)
    },
    **{
        f"verify-{c}": ("verify", "--claim", c)
        for c in ("T2-even-splitting", "T4-gr2", "T5-k3", "T6-soundness", "P1-gr2-weight0",
                  "P2-k3-weight0", "C5-no-invertible-derivations")
    },
    "check-ex11": ("check", "--algebra", fx("j4_f5.alg"), "--op", fx("ex11.op")),
    "check-ex11-machine": ("check", "--algebra", fx("j4_f5.alg"), "--op", fx("ex11.op"),
                           "--format", "machine"),
    "construct-ex10": ("construct", "ex10", "--p", "5", "--d", "1,1,1", "--weight", "1"),
    "construct-ex11": ("construct", "ex11"),
    "construct-ex12": ("construct", "ex12"),
    "construct-ex13": ("construct", "ex13", "--p", "5", "--d", "1,1", "--alpha", "1,1,0",
                       "--k", "4", "--l", "0", "--weight", "1"),
    **{
        f"construct-{v}": ("construct", v)
        for v in ("m1", "m2", "m3", "m4", "example14", "example16")
    },
    "construct-split": ("construct", "split", "--algebra", fx("m2_q.alg"), "--first", "0,1",
                        "--weight", "1"),
    "construct-split-tp4": ("construct", "split", "--algebra", fx("tp4_q.alg"), "--first", "0,1",
                            "--weight", "1"),
    "construct-phi": ("construct", "phi", "--algebra", fx("m2_q.alg"), "--op", fx("m1_q.op")),
    "construct-conjugate": ("construct", "conjugate", "--algebra", fx("m2_q.alg"),
                            "--op", fx("m2_q.op"), "--auto", fx("swap_auto_m2q.op")),
    "construct-triple-to-rb": ("construct", "triple-to-rb", "--algebra", fx("m2_q.alg"),
                               "--op", fx("m3_q.op")),
    "construct-l-e": ("construct", "l-e", "--algebra", fx("m2_q.alg"), "--element", "1,0,0,0",
                      "--weight", "-1"),
    "construct-from-derivation": ("construct", "from-derivation", "--algebra", fx("m2_q.alg"),
                                  "--op", fx("identity_m2q.op"), "--weight", "-1"),
    "convert-to-tensor": ("convert", "--mode", "to-tensor", "--algebra", fx("m2_q.alg"),
                          "--op", fx("m1_q.op")),
    "convert-form-trace": ("convert", "--mode", "form-trace", "--algebra", fx("m4_q.alg"),
                           "--tensor", fx("example16_q.tensor")),
    "convert-sandwich": ("convert", "--mode", "sandwich", "--algebra", fx("m4_q.alg"),
                         "--tensor", fx("example16_q.tensor")),
    "gen-system": ("gen-system", "--p", "5", "--d", "1,1", "--weight", "1"),
    "gen-system-reduced": ("gen-system", "--p", "5", "--d", "1,1", "--weight", "1", "--reduced"),
    "enumerate-k3_f3-rb-w1": ("enumerate", "--algebra", fx("k3_f3.alg"), "--weight", "1"),
    "enumerate-k3_f3-derivation-w1": ("enumerate", "--algebra", fx("k3_f3.alg"),
                                      "--kind", "derivation", "--weight", "1"),
    "enumerate-k3_f3-auto": ("enumerate", "--algebra", fx("k3_f3.alg"), "--kind", "auto"),
    "enumerate-k3_f3-rb-w1-raw": ("enumerate", "--algebra", fx("k3_f3.alg"), "--weight", "1",
                                  "--raw"),
    "enumerate-k3_f3-auto-raw": ("enumerate", "--algebra", fx("k3_f3.alg"), "--kind", "auto",
                                 "--raw"),
    "info-k3_f5": ("info", "--algebra", fx("k3_f5.alg")),
    # noncommutative at w != 0; commutative with the split search; the split
    # search with scalars
    "enumerate-sl2_f7-derivation-w1": ("enumerate", "--algebra", fx("sl2_f7.alg"),
                                       "--kind", "derivation", "--weight", "1"),
    # derivations from a nullspace at w = 0; mapped back by 1/w = 3 at w = 2
    "enumerate-k3_f5-derivation-w0": ("enumerate", "--algebra", fx("k3_f5.alg"),
                                      "--kind", "derivation", "--weight", "0"),
    "enumerate-j3_f5-derivation-w2": ("enumerate", "--algebra", fx("j3_f5.alg"),
                                      "--kind", "derivation", "--weight", "2"),
    "enumerate-j3_f5-rb-w1": ("enumerate", "--algebra", fx("j3_f5.alg"), "--weight", "1"),
    "enumerate-gr2_f3-rb-w0": ("enumerate", "--algebra", fx("gr2_f3.alg"), "--weight", "0"),
    # the case through QuadraticStructure.t; the case over F13; the unit tags
    # through Subspace.contains_vector
    "check-example14_q": ("check", "--algebra", fx("m2_q.alg"), "--op", fx("example14_q.op")),
    "check-ex12": ("check", "--algebra", fx("j4_f13.alg"), "--op", fx("ex12.op")),
    "classify-j3_f5-w1": ("classify", "--algebra", fx("j3_f5.alg"), "--weight", "1"),
    # algebras whose unit is not e_0, or that have none: searched with the
    # moves that fix e_0
    "enumerate-sl2_f7-rb-w1": ("enumerate", "--algebra", fx("sl2_f7.alg"), "--weight", "1"),
    "enumerate-k3_f5-rb-w0": ("enumerate", "--algebra", fx("k3_f5.alg"), "--weight", "0"),
    "enumerate-m2_f3-rb-w1": ("enumerate", "--algebra", fx("m2_f3.alg"), "--weight", "1"),
    # automorphisms listed from a stabiliser chain: graded, with unit at
    # e_0, with none, and noncommutative
    **{
        f"enumerate-{alg}-auto": ("enumerate", "--algebra", fx(f"{alg}.alg"), "--kind", "auto")
        for alg in ("gr2_f3", "m2_f3", "k3_f5", "j3_f5", "sl2_f7", "j4_f5")
    },
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_output(name):
    # stdout as recorded before the change that added each file; all exit 0
    code, out, _ = run(*GOLDEN[name])
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


# the options of each subcommand and construct verb: exactly those its handler reads
ACCEPTED = {
    "check": "algebra op weight allow-char2 format",
    "convert": "algebra op allow-char2 mode tensor",
    "gen-system": "p allow-char2 d weight reduced",
    "enumerate": "algebra allow-char2 weight kind raw",
    "classify": "algebra allow-char2 weight",
    "verify": "claim p weight",
    "info": "algebra allow-char2",
    "construct ex11": "",
    "construct ex12": "",
    "construct ex10": "p allow-char2 d weight",
    "construct ex13": "p allow-char2 d weight alpha k l",
    **{
        f"construct {v}": "p allow-char2"
        for v in ("m1", "m2", "m3", "m4", "example14", "example16")
    },
    "construct split": "algebra allow-char2 first weight",
    **{
        f"construct {v}": "algebra allow-char2 op weight"
        for v in ("phi", "from-derivation", "triple-to-rb")
    },
    "construct conjugate": "algebra allow-char2 op weight auto",
    "construct l-e": "algebra allow-char2 element weight",
}


def _accepted_options(parser, prefix=()) -> dict:
    options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(prefix): options}
    assert not options, prefix
    found = {}
    for name, sub in subs[0].choices.items():
        found.update(_accepted_options(sub, (*prefix, name)))
    return found


def test_each_command_accepts_only_the_options_it_reads():
    # built once per process, and shared by every call of main
    assert build_parser() is build_parser()
    accepted = _accepted_options(build_parser())
    assert accepted == {k: {"--" + o for o in v.split()} for k, v in ACCEPTED.items()}
    assert sum(len(v) for v in accepted.values()) == 76


# one option per subcommand and verb that was once accepted and ignored
IGNORED = {
    "check": (*GOLDEN["check-ex11"], "--p", "5"),
    "convert": (*GOLDEN["convert-to-tensor"], "--weight", "0"),
    "gen-system": (*GOLDEN["gen-system"], "--algebra", fx("m2_q.alg")),
    "enumerate": (*GOLDEN["enumerate-k3_f3-rb-w1"], "--op", fx("ex11.op")),
    "classify": (*GOLDEN["classify-m2_f3-w0"], "--format", "machine"),
    "verify": (*GOLDEN["verify-T6-soundness"], "--allow-char2"),
    "info": (*GOLDEN["info-k3_f5"], "--weight", "1"),
    "construct-ex11": ("construct", "ex11", "--p", "2"),
    "construct-ex12": ("construct", "ex12", "--weight", "1"),
    "construct-ex10": (*GOLDEN["construct-ex10"], "--alpha", "1,1,0"),
    "construct-m1": ("construct", "m1", "--weight", "1"),
    **{
        f"construct-{v}": (*GOLDEN[f"construct-{v}"], "--format", "machine")
        for v in (
            "ex13", "m2", "m3", "m4", "example14", "example16", "split", "phi", "conjugate",
            "triple-to-rb", "l-e", "from-derivation",
        )
    },
}


@pytest.mark.parametrize("name", list(IGNORED))
def test_ignored_option_is_a_usage_error(name, capsys):
    with pytest.raises(SystemExit) as e:
        main(list(IGNORED[name]))
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


ENUMERATE_K3 = ("enumerate", "--algebra", fx("k3_f3.alg"))
CONVERT_M4 = ("convert", "--algebra", fx("m4_q.alg"))
TENSOR = ("--tensor", fx("example16_q.tensor"))
OP = ("--op", fx("m1_q.op"))
SPLIT_M2 = ("construct", "split", "--algebra", fx("m2_q.alg"), "--weight", "1", "--first")
EX13 = ("construct", "ex13", "--p", "5", "--k", "1", "--l", "0", "--alpha")
L_E_M2 = ("construct", "l-e", "--algebra", fx("m2_q.alg"), "--weight", "-1", "--element")


@pytest.mark.parametrize(
    "argv,message",
    [
        ((*ENUMERATE_K3, "--kind", "derivation", "--raw", "--weight", "1"),
         "--raw applies to --kind rb and auto only"),
        ((*ENUMERATE_K3, "--kind", "auto", "--weight", "1"),
         "--weight does not apply to --kind auto"),
        ((*CONVERT_M4, "--mode", "sandwich", *TENSOR, *OP),
         "--op does not apply to --mode sandwich"),
        ((*CONVERT_M4, "--mode", "form-trace", *TENSOR, *OP),
         "--op does not apply to --mode form-trace"),
        ((*CONVERT_M4, "--mode", "to-tensor", *OP, *TENSOR),
         "--tensor does not apply to --mode to-tensor"),
        ((*SPLIT_M2, "a"), "--first 'a' is not a basis index in 0..3"),
        ((*SPLIT_M2, "0,9"), "--first '9' is not a basis index in 0..3"),
        ((*SPLIT_M2, "-1"), "--first '-1' is not a basis index in 0..3"),
        ((*EX13, "1,1"), "alpha needs 3 entries, got 2"),
        ((*EX13, "1,1,0,0"), "alpha needs 3 entries, got 4"),
        ((*L_E_M2, "1,0,0,0,1"), "element needs 4 entries, got 5"),
        ((*L_E_M2, "1,0,0"), "element needs 4 entries, got 3"),
        (("gen-system", "--d", "1,1", "--weight", "1/0"), "bad rational literal '1/0'"),
    ],
    ids=[
        "raw-derivation", "weight-auto", "op-sandwich", "op-form-trace", "tensor-to-tensor",
        "first-letter", "first-past-dim", "first-negative", "alpha-short", "alpha-long",
        "element-long", "element-short", "weight-zero-denominator",
    ],
)
def test_option_the_kind_or_mode_ignores_exits_2(argv, message):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == f"error: {message}"
