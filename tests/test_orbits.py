"""Orbit classification and the claim suite.

orbit_classify runs its own operator search and closes each orbit from
the moves of the automorphisms' strong generators.  The tests compare it
with a closure under the moves one at a time and with the images of each
orbit's first operator under every move of the group, check that the
moves form a group and that the strong generators give every
automorphism, count the T6 orbits by Burnside's lemma, and count the
automorphism searches each command makes.
"""

import contextlib
import importlib.util
import io
import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbx import orbits, rb, residues, search
from rbx.algebras import grassmann2, jordan_form, kaplansky3, matrix_algebra, sl2
from rbx.cli import main
from rbx.errors import LeafRejectedError, OrbitEscapeError
from rbx.fields import PrimeField
from rbx.linalg import Matrix, vec_is_zero
from rbx.orbits import (
    CLAIMS,
    matrix_hex,
    orbit_classify,
    pack_operator,
    verify_claim,
)
from rbx.rb import (
    LinearOperator,
    apply_phi,
    is_splitting,
    nonsplit_weight1_op,
    weight0_matrix_ops,
)
from rbx.search import enumerate_automorphisms, enumerate_rb

from split_oracle import (
    column0_orbits,
    column0_searched,
    record_rb_search_results,
    record_rb_searches,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
RUN_CLAIMS = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_claims.py"

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_matrix_hex_encoding():
    # base-p row-major digits folded into an integer
    assert matrix_hex((0, 0, 0, 0), 3) == "0"
    assert matrix_hex((0, 0, 1, 0), 3) == "3"
    assert matrix_hex((1, 0, 0, 0), 3) == "1b"  # 27


def test_m2_f3_weight0_orbits():
    a = matrix_algebra(F3, 2)
    report = orbit_classify(a, 0)
    assert len(report.operators) == 89
    assert len(report.orbits) == 5
    assert [o.size for o in report.orbits] == [1, 48, 16, 8, 16]
    # orbit sizes cover the whole enumeration exactly once
    assert sum(o.size for o in report.orbits) == 89
    seen = set()
    for o in report.orbits:
        assert o.members.isdisjoint(seen)
        seen |= o.members
    # zero operator sits alone
    assert report.orbits[0].size == 1
    assert report.orbits[0].rep == tuple([0] * 16)
    # reference operators in pairwise distinct orbits
    refs = weight0_matrix_ops(F3)
    placed = {name: report.orbit_of(pack_operator(r)) for name, r in refs.items()}
    assert None not in placed.values()
    assert len(set(placed.values())) == 4


def test_orbit_report_lines_deterministic():
    a = matrix_algebra(F3, 2)
    lines1 = orbit_classify(a, 0).lines()
    lines2 = orbit_classify(a, 0).lines()
    assert lines1 == lines2
    assert lines1[-1] == "total=89 orbits=5"
    assert lines1[0].startswith("orbit 0: size=1 rep=0 tags=")


def test_orbit_tags_content():
    a = matrix_algebra(F3, 2)
    report = orbit_classify(a, 0)
    tags_by_orbit = [o.tags for o in report.orbits]
    # the zero operator is splitting with square zero and kills the unit
    assert "splitting" in tags_by_orbit[0] and "sq0" in tags_by_orbit[0]
    # some orbit carries a non-splitting operator (the m4 class)
    assert any("splitting" not in t for t in tags_by_orbit)


def test_unknown_claim_rejected():
    with pytest.raises(KeyError):
        verify_claim("T9-unknown")


def test_claim_registry_complete():
    assert set(CLAIMS) == {
        "T2-even-splitting",
        "T4-gr2",
        "T5-k3",
        "T6-soundness",
        "P1-gr2-weight0",
        "P2-k3-weight0",
        "C5-no-invertible-derivations",
    }


def test_claim_t2_passes():
    rep = verify_claim("T2-even-splitting")
    assert rep.ok
    assert any("26 operators" in ln for ln in rep.lines)
    assert any("62 operators" in ln for ln in rep.lines)


def test_claim_c5_passes():
    rep = verify_claim("C5-no-invertible-derivations")
    assert rep.ok
    assert "730 derivations" in rep.lines[0]


def test_claim_p2_passes():
    rep = verify_claim("P2-k3-weight0")
    assert rep.ok
    assert "145 operators" in rep.lines[0]


def test_claim_report_format():
    rep = verify_claim("C5-no-invertible-derivations")
    text = rep.format()
    assert text.startswith("claim C5-no-invertible-derivations: PASS")


def test_pattern_claims_need_equality(monkeypatch):
    # a closure that reaches every operator but also a non-operator fails
    real = orbits._closure_of_patterns

    def too_big(p, strong, patterns):
        return real(p, strong, patterns) | {(1,) * len(patterns[0]) ** 2}

    monkeypatch.setattr(orbits, "_closure_of_patterns", too_big)
    rep = verify_claim("P2-k3-weight0")
    assert not rep.ok
    assert rep.lines == (
        "K3 over F5 weight 0: 145 operators, 146 pattern conjugates, outside the closure: 0",
        "FAIL: 1 pattern conjugates are not operators",
    )


def test_run_claims_script_runs_each_claim_at_its_pins():
    spec = importlib.util.spec_from_file_location("run_claims", RUN_CLAIMS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.main([]) == 0
    text = out.getvalue()
    assert text.endswith("all claims hold\n")
    _, *parts = re.split(r"^claim (\S+): PASS\n", text, flags=re.M)
    bodies = dict(zip(parts[::2], parts[1::2]))
    assert list(bodies) == list(CLAIMS)
    for cid, claim in CLAIMS.items():
        runs = {(int(p), int(w)) for p, w in re.findall(r"over F(\d+) weight (\d+)", bodies[cid])}
        assert runs == {(p, claim.weight) for p in claim.primes}


# --- the group of moves --------------------------------------------------------


def _int_rows(m: Matrix) -> tuple:
    return tuple(tuple(e.value for e in row) for row in m.data)


def _matmul(p, a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _pack(rows):
    return tuple(x for row in rows for x in row)


def _unpack(packed, dim):
    return tuple(packed[i * dim : (i + 1) * dim] for i in range(dim))


def bfs_orbits(a, ops, weight):
    """Orbits by closing each operator under one move at a time."""
    p, dim = a.field.p, a.dim
    conj = [(_int_rows(h.inverse()), _int_rows(h)) for h in enumerate_automorphisms(a)]
    if a.antiauto is not None:
        conj.append((_int_rows(a.antiauto), _int_rows(a.antiauto.inverse())))
    scalings = range(2, p) if weight % p == 0 else ()

    def neighbors(rows):
        for left, right in conj:
            yield _matmul(p, _matmul(p, left, rows), right)
        for s in scalings:
            yield tuple(tuple(s * x % p for x in row) for row in rows)

    seen, found = set(), []
    for r in ops:
        packed = pack_operator(r)
        if packed in seen:
            continue
        members, frontier = {packed}, [packed]
        while frontier:
            for nb in neighbors(_unpack(frontier.pop(), dim)):
                key = _pack(nb)
                if key not in members:
                    members.add(key)
                    frontier.append(key)
        seen |= members
        found.append((min(members), len(members), frozenset(members)))
    return sorted(found)


ORBIT_CASES = {
    # (algebra, weight): number of orbits
    ("m2_f3", 0): 5,
    ("m2_f3", 1): 15,
    ("k3_f3", 0): 4,
    ("k3_f3", 1): 6,
}


@pytest.mark.parametrize("name,weight", sorted(ORBIT_CASES))
def test_group_images_match_move_closure(name, weight):
    # matrix_algebra records transposition as an antiautomorphism, K3 none
    a = matrix_algebra(F3, 2) if name == "m2_f3" else kaplansky3(F3)
    ops = enumerate_rb(a, weight)
    report = orbit_classify(a, weight)
    assert [pack_operator(r) for r in report.operators] == [pack_operator(r) for r in ops]
    got = [(o.rep, o.size, o.members) for o in report.orbits]
    assert got == bfs_orbits(a, ops, weight)
    assert len(got) == ORBIT_CASES[name, weight]


def test_moves_closed_under_composition():
    # the premise of orbit_classify: on M2/F3 at weight 0 the moves
    # (automorphisms, transposition, scalars) are already the whole group
    a = matrix_algebra(F3, 2)
    members, inverses, _ = search._automorphisms(search.IntAlgebra(a))
    listed = residues._moves(3, members, inverses, a.antiauto, (1, 2))
    pairs = {(left, tuple(zip(*right_t))) for left, right_t, _ in listed}
    assert len(pairs) == len(listed) == 24 * 2 * 2
    for l1, r1 in pairs:
        for l2, r2 in pairs:
            # first (l1, r1), then (l2, r2)
            assert (_matmul(3, l2, l1), _matmul(3, r1, r2)) in pairs


# --- orbits from generators against the whole group ----------------------------

ALGEBRAS = {
    "gr2_f3": lambda: grassmann2(F3),
    "m2_f3": lambda: matrix_algebra(F3, 2),
    "k3_f5": lambda: kaplansky3(F5),
    "sl2_f5": lambda: sl2(F5),
}


def whole_group_orbits(p, group, seeds):
    """(seed, size, members) for each seed that no earlier orbit holds, the
    members being the seed's images under every move of the group."""
    seen, out = set(), []
    for cols in seeds:
        packed = search.pack_columns(cols, len(cols))
        if packed not in seen:
            members = frozenset(residues._conjugate(p, move, cols) for move in group)
            seen |= members
            out.append((packed, len(members), members))
    return out


@pytest.mark.parametrize(
    "name,weight",
    [("gr2_f3", 0), ("gr2_f3", 1), ("m2_f3", 0), ("m2_f3", 1), ("k3_f5", 0), ("sl2_f5", 1)],
)
def test_generator_orbits_match_whole_group_images(monkeypatch, name, weight):
    a = ALGEBRAS[name]()
    p = a.field.p
    results = record_rb_search_results(monkeypatch)
    report = orbit_classify(a, weight)
    [(_, _, found)] = results
    # conjugation by each automorphism and the antiautomorphism, at weight 0
    # times each nonzero scalar
    scalars = (1,) if weight % p else range(1, p)
    members, inverses, _ = search._automorphisms(search.IntAlgebra(a))
    listed = residues._moves(p, members, inverses, a.antiauto, scalars)
    got = [(o.rep, o.size, o.members) for o in report.orbits]
    assert got == whole_group_orbits(p, listed, found)


@pytest.mark.parametrize("claim", ["P1-gr2-weight0", "P2-k3-weight0"])
def test_pattern_orbits_match_whole_group_images(claim):
    build, patterns = CLAIMS[claim].run.args[1:]
    [p] = CLAIMS[claim].primes
    a = build(PrimeField(p))
    autos, inverses, strong = search._automorphisms(search.IntAlgebra(a))
    seeds = [tuple(zip(*rows)) for rows in patterns(p)]
    gens = residues._move_generators(p, a.dim, strong)
    got = [(rep, len(members), members) for rep, members in orbits._orbits(p, gens, seeds)]
    assert got == whole_group_orbits(p, residues._moves(p, autos, inverses), seeds)
    closure = orbits._closure_of_patterns(p, strong, patterns(p))
    assert closure == set().union(*(members for _, _, members in got))


def _rows(cols):
    return tuple(zip(*cols))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_generators_give_every_automorphism(name):
    a = ALGEBRAS[name]()
    p, dim = a.field.p, a.dim
    autos, _, strong = search._automorphisms(search.IntAlgebra(a))
    gens = [g for g, _ in strong]
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert identity not in gens and set(gens) <= set(autos)
    # each generator at least doubles the subgroup the earlier ones generate
    assert 2 ** len(gens) <= len(autos)
    # each strong generator's listed inverse is its inverse
    for g, inv in strong:
        assert _matmul(p, inv, _rows(g)) == identity
    closure = {_rows(g) for g in gens}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _matmul(p, _rows(g), x)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert closure == {_rows(h) for h in autos}


def test_t6_orbit_count_by_burnside():
    a = matrix_algebra(F3, 2)
    ops = {pack_operator(r) for r in enumerate_rb(a, 0)}
    t = _int_rows(a.antiauto)
    autos = [_int_rows(h) for h in enumerate_automorphisms(a)]
    group = []
    for g in autos + [_matmul(3, t, h) for h in autos]:
        group.append((_int_rows(Matrix(a.field, [list(r) for r in g]).inverse()), g))
    assert len({g for _, g in group}) == 48
    fixed = 0
    for ginv, g in group:
        for s in (1, 2):
            for r in ops:
                image = _matmul(3, _matmul(3, ginv, _unpack(r, 4)), g)
                fixed += _pack(tuple(tuple(s * x % 3 for x in row) for row in image)) == r
    order = len(group) * 2
    assert fixed % order == 0
    assert fixed // order == 5
    assert "total=89 orbits=5" in verify_claim("T6-soundness").lines


def test_soundness_fault_finds_invertible_image():
    # e11 -> e12 + e21, the rest to 0: the image holds [[0, 1], [1, 0]]
    a = matrix_algebra(F3, 2)
    op = LinearOperator(a, Matrix(a.field, [[0] * 4, [1, 0, 0, 0], [1, 0, 0, 0], [0] * 4]))
    assert orbits._soundness_fault(a, [op]) == "FAIL: invertible matrix inside an image"


def test_representatives_checked_once(monkeypatch):
    calls = []
    real = rb.check_rb

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rb, "check_rb", counted)
    report = orbit_classify(matrix_algebra(F3, 2), 0)
    assert len(calls) == len(report.orbits) == 5


# --- the claims' residue predicates against the FieldElement ones ------------

PREDICATE_CASES = {
    "J(1,1)/F3": lambda: jordan_form(F3, [1, 1]),
    "J(1,1)/F5": lambda: jordan_form(F5, [1, 1]),
    "Gr2/F3": lambda: grassmann2(F3),
    "K3/F3": lambda: kaplansky3(F3),
    "K3/F5": lambda: kaplansky3(F5),
    "M2/F3": lambda: matrix_algebra(F3, 2),
}


@pytest.mark.parametrize("name", sorted(PREDICATE_CASES))
def test_residue_predicates_match_field_elements(name):
    # on every weight-1 operator: R(R + w id) = 0 by rb.is_splitting, and
    # the unit killed by R or by rb.apply_phi(R)
    a = PREDICATE_CASES[name]()
    p = a.field.p
    w, _, found = search._rb_search(a, 1)
    ops = search._rb_operators(a, w, found)
    splits = [orbits._splits(p, w.value, cols) for cols in found]
    assert splits == [is_splitting(r) for r in ops]
    if a.unit is not None:
        unit = tuple(u.value for u in a.unit)
        kills = [orbits._kills_unit(p, w.value, cols, unit) for cols in found]
        assert kills == [
            vec_is_zero(r.matrix.apply(a.unit)) or vec_is_zero(apply_phi(r).matrix.apply(a.unit))
            for r in ops
        ]
    if name == "M2/F3":
        # the negative cases: 48 operators are not splitting, among them
        # rb.nonsplit_weight1_op, and 72 kill neither the unit nor its phi
        assert (len(found), splits.count(False), kills.count(False)) == (290, 48, 72)
        nonsplit = pack_operator(nonsplit_weight1_op(F3))
        assert not splits[[pack_operator(r) for r in ops].index(nonsplit)]


def test_derivation_invertibility_matches_rank():
    a = grassmann2(F3)
    ders = search._derivations(search.IntAlgebra(a), 1)
    ops = search.enumerate_derivations(a, 1)
    assert [search.pack_columns(d, 4) for d in ders] == [pack_operator(d) for d in ops]
    invertible = [residues._inverse_mod_p(d, 3) is not None for d in ders]
    assert invertible == [d.matrix.rank() == 4 for d in ops]
    assert (len(ders), invertible.count(True)) == (730, 1)


@st.composite
def square_matrices(draw):
    """(p, rows) over F3 or F5, half of them with the last row a combination
    of the others, so singular."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=n, max_size=n))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(n)]
    return p, rows


@given(square_matrices())
def test_residue_inverse_matches_rank(drawn):
    p, rows = drawn
    inv = residues._inverse_mod_p(rows, p)
    assert (inv is not None) == (Matrix(PrimeField(p), rows).rank() == len(rows))
    if inv is not None:
        identity = tuple(tuple(int(i == j) for j in range(len(rows))) for i in range(len(rows)))
        assert _matmul(p, rows, inv) == identity


def _drop_zero_operator(monkeypatch):
    # the zero operator is first in row-major order; its phi preimage,
    # -w id, stays among the operators found
    real = orbits._rb_search

    def dropping(a, weight):
        w, strong, found = real(a, weight)
        return w, strong, found[1:]

    monkeypatch.setattr(orbits, "_rb_search", dropping)


def test_missing_phi_image_raises(monkeypatch):
    _drop_zero_operator(monkeypatch)
    # -id on J(1,1)/F3 is 2 id, row-major 200 020 002 base 3
    with pytest.raises(OrbitEscapeError, match="phi of operator 33e6 is not among the 25"):
        verify_claim("T2-even-splitting")


def test_missing_phi_image_exits_2(monkeypatch):
    _drop_zero_operator(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--claim", "T2-even-splitting"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: phi of operator 33e6 ")


# --- a bad automorphism among the moves -------------------------------------

# Two maps that are invertible but not multiplicative on M2 (basis e11, e12,
# e21, e22).  Doubling e11 moves e_0, so it stays out of the split search,
# and the orbit closure meets it.
MOVES_E0 = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
# Doubling e12 fixes e_0, so it joins the split search, and its images fail
# their leaf check.
FIXES_E0 = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _with_bad_automorphism(monkeypatch, bad):
    # bad joins the listed group, whose moves split the search, and the
    # strong generators, from which the orbits are closed
    real = search._automorphisms

    def with_bad(ia):
        members, inverses, strong = real(ia)
        inv = residues._inverse_mod_p(tuple(zip(*bad)), ia.p)
        return members + [bad], inverses + [inv], strong + [(bad, inv)]

    monkeypatch.setattr(search, "_automorphisms", with_bad)


def _classify_m2_f3_w0():
    out, err = io.StringIO(), io.StringIO()
    argv = ["classify", "--algebra", str(FIXTURES / "m2_f3.alg"), "--weight", "0"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_orbit_escape_raises(monkeypatch):
    _with_bad_automorphism(monkeypatch, MOVES_E0)
    a = matrix_algebra(F3, 2)
    with pytest.raises(OrbitEscapeError, match="leaves the 89 operators"):
        orbit_classify(a, 0)


def test_orbit_escape_exits_2(monkeypatch):
    _with_bad_automorphism(monkeypatch, MOVES_E0)
    code, out, err = _classify_m2_f3_w0()
    assert (code, out) == (2, "")
    assert err.startswith("error: the orbit of operator ")


def test_bad_move_fixing_e0_rejects_a_leaf(monkeypatch):
    _with_bad_automorphism(monkeypatch, FIXES_E0)
    with pytest.raises(LeafRejectedError, match="fails its leaf check"):
        orbit_classify(matrix_algebra(F3, 2), 0)
    code, out, err = _classify_m2_f3_w0()
    assert (code, out) == (2, "")
    assert err.startswith("error: search leaf ")


# --- one automorphism search per command ---------------------------------------


def _count_automorphism_searches(monkeypatch) -> list:
    calls = []
    real = search._automorphisms

    def counted(ia, **kwargs):
        calls.append(ia.algebra.name)
        return real(ia, **kwargs)

    monkeypatch.setattr(search, "_automorphisms", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--algebra", str(FIXTURES / "gr2_f3.alg"), "--weight", "0"],
        ["classify", "--algebra", str(FIXTURES / "m2_f3.alg"), "--weight", "0"],
        ["verify", "--claim", "P1-gr2-weight0"],
        ["verify", "--claim", "T6-soundness"],
        ["enumerate", "--algebra", str(FIXTURES / "gr2_f3.alg"), "--weight", "1"],
        ["enumerate", "--algebra", str(FIXTURES / "gr2_f3.alg"), "--kind", "auto"],
    ],
)
def test_one_automorphism_search_per_command(monkeypatch, argv):
    calls = _count_automorphism_searches(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert len(calls) == 1


def test_t6_searches_operators_once(monkeypatch):
    # M2's unit is not e_0, but the moves that fix e11 still split the
    # search: the 81 values of R(e11) fall into 20 orbits
    m2 = matrix_algebra(F3, 2)
    assert len(column0_orbits(m2, 0, phi=False)) == 20
    column0 = column0_searched(m2, 0)
    calls = record_rb_searches(monkeypatch)
    assert verify_claim("T6-soundness").ok
    assert calls == [column0]


def test_classify_runs_the_split_search(monkeypatch):
    # Gr2/F3 has its unit at e_0: at weight 0 the 81 values of R(1) fall
    # into 6 orbits
    gr2 = grassmann2(F3)
    assert len(column0_orbits(gr2, 0, phi=False)) == 6
    column0 = column0_searched(gr2, 0)
    calls = record_rb_searches(monkeypatch)
    assert len(orbit_classify(gr2, 0).operators) == 315
    assert calls == [column0]
