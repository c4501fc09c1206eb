"""Checks of rbx output that share no code with rbx.

Everything here works on plain int residues modulo p.  Algebras are read
from the structure constants in their `.alg` files; operators are
row-major tuples of n*n ints, the order in which rbx prints them.  The
automorphism groups used for the closure and orbit checks are found by a
search of this module's own and verified here.

A check that fails raises CheckFailed with a message naming what broke.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# algebras and matrices over F_p
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntAlgebra:
    name: str
    p: int
    dim: int
    table: tuple  # table[i][j] = ((k, c), ...) with e_i e_j = sum c e_k
    grading: tuple | None

    def mul(self, x, y) -> tuple:
        p, table = self.p, self.table
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                row = table[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj
                        for k, s in row[j]:
                            out[k] += c * s
        return tuple(v % p for v in out)

    def basis(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def product_of_basis(self, i: int, j: int) -> tuple:
        out = [0] * self.dim
        for k, c in self.table[i][j]:
            out[k] = c
        return tuple(out)


def parse_algebra(text: str) -> IntAlgebra:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    m = re.fullmatch(r"algebra\s+(\S+)\s+field=F(\d+)\s+dim=(\d+)", lines[0])
    require(m is not None, f"not a prime-field algebra header: {lines[0]!r}")
    name, p, dim = m.group(1), int(m.group(2)), int(m.group(3))
    cells = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    grading = None
    for line in lines[1:]:
        if line.startswith(("basis", "unit=")):
            continue
        if line.startswith("grading="):
            grading = tuple(int(t) for t in line[8:].split())
        else:
            i, j, k, c = (int(t) for t in line.split())
            cells[i][j][k] = (cells[i][j][k] + c) % p
    table = tuple(
        tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in row)
        for row in cells
    )
    return IntAlgebra(name, p, dim, table, grading)


def load_algebra(filename: str) -> IntAlgebra:
    return parse_algebra((INPUTS / filename).read_text(encoding="utf-8"))


def identity(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def column(m: tuple, n: int, j: int) -> tuple:
    return m[j::n]


def apply(m: tuple, n: int, p: int, v) -> tuple:
    return tuple(
        sum(m[i * n + k] * v[k] for k in range(n)) % p for i in range(n)
    )


def matmul(a: tuple, b: tuple, n: int, p: int) -> tuple:
    rows = [a[i * n : (i + 1) * n] for i in range(n)]
    cols = [b[j::n] for j in range(n)]
    return tuple(
        sum(x * y for x, y in zip(r, c)) % p for r in rows for c in cols
    )


def rank(m: tuple, n: int, p: int) -> int:
    rows = [list(m[i * n : (i + 1) * n]) for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def inverse(m: tuple, n: int, p: int) -> tuple:
    rows = [list(m[i * n : (i + 1) * n]) + list(identity(n)[i * n : (i + 1) * n]) for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p), None)
        require(piv is not None, "matrix is not invertible")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return tuple(x for row in rows for x in row[n:])


def conjugate(r: tuple, psi: tuple, psi_inv: tuple, n: int, p: int) -> tuple:
    """psi^-1 R psi."""
    return matmul(matmul(psi_inv, r, n, p), psi, n, p)


def scale(r: tuple, s: int, p: int) -> tuple:
    return tuple(s * x % p for x in r)


# ---------------------------------------------------------------------------
# the defining identities
# ---------------------------------------------------------------------------


def is_rb(a: IntAlgebra, r: tuple, w: int) -> bool:
    """R(x)R(y) = R(R(x)y + xR(y) + w xy) on every basis pair."""
    n, p = a.dim, a.p
    cols = [column(r, n, j) for j in range(n)]
    for i in range(n):
        ei = a.basis(i)
        for j in range(n):
            inner = [
                x + y
                for x, y in zip(a.mul(cols[i], a.basis(j)), a.mul(ei, cols[j]))
            ]
            if w:
                inner = [x + w * t for x, t in zip(inner, a.product_of_basis(i, j))]
            if apply(r, n, p, inner) != a.mul(cols[i], cols[j]):
                return False
    return True


def is_multiplicative(a: IntAlgebra, f: tuple) -> bool:
    """f(e_i) f(e_j) = f(e_i e_j) on every basis pair."""
    n, p = a.dim, a.p
    cols = [column(f, n, j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if a.mul(cols[i], cols[j]) != apply(f, n, p, a.product_of_basis(i, j)):
                return False
    return True


def is_derivation(a: IntAlgebra, d: tuple, w: int) -> bool:
    """d(xy) = d(x)y + x d(y) + w d(x)d(y), for w != 0.

    Multiplying through by w shows this holds exactly when id + w*d is
    multiplicative.
    """
    require(w % a.p != 0, "the derivation check needs a nonzero weight")
    n, p = a.dim, a.p
    f = tuple((i + w * x) % p for i, x in zip(identity(n), d))
    return is_multiplicative(a, f)


def is_antiautomorphism(a: IntAlgebra, t: tuple) -> bool:
    """t(e_i e_j) = t(e_j) t(e_i) on every basis pair, t invertible."""
    n, p = a.dim, a.p
    cols = [column(t, n, j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if a.mul(cols[j], cols[i]) != apply(t, n, p, a.product_of_basis(i, j)):
                return False
    return rank(t, n, p) == n


def automorphisms(a: IntAlgebra) -> list[tuple]:
    """Every invertible multiplicative map, grading-preserving if graded.

    Columns are fixed in index order; a basis pair is tested as soon as
    both its columns and every column its product needs are fixed.
    """
    n, p = a.dim, a.p
    pair_at = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            need = max([i, j] + [k for k, _ in a.table[i][j]])
            pair_at[need].append((i, j))
    vectors = list(itertools.product(range(p), repeat=n))
    pools = []
    for j in range(n):
        if a.grading is None:
            pools.append(vectors)
        else:
            pools.append([
                v for v in vectors
                if all(x == 0 or a.grading[k] == a.grading[j] for k, x in enumerate(v))
            ])
    found = []
    cols: list = [None] * n

    def image(v):
        out = [0] * n
        for k, c in enumerate(v):
            if c:
                for t in range(n):
                    out[t] += c * cols[k][t]
        return tuple(x % p for x in out)

    def extend(c):
        for v in pools[c]:
            cols[c] = v
            if all(
                a.mul(cols[i], cols[j]) == image(a.product_of_basis(i, j))
                for i, j in pair_at[c]
            ):
                if c == n - 1:
                    m = tuple(cols[j][i] for i in range(n) for j in range(n))
                    if rank(m, n, p) == n:
                        found.append(m)
                else:
                    extend(c + 1)
        cols[c] = None

    extend(0)
    found.sort()
    for m in found:
        require(is_multiplicative(a, m), "automorphism search kept a non-multiplicative map")
    return found


class MatrixGroup:
    """A finite group of invertible matrices acting by R -> g^-1 R g."""

    def __init__(self, elements: list[tuple], n: int, p: int):
        self.n, self.p = n, p
        self.elements = sorted(set(elements))
        self.inverse = {g: inverse(g, n, p) for g in self.elements}
        members = set(self.elements)
        for g in self.elements:
            require(self.inverse[g] in members, "group is not closed under inverses")
        self.generators = self._generators()

    def _generators(self) -> list[tuple]:
        gens: list = []
        span = {identity(self.n)}
        for g in self.elements:
            if g not in span:
                gens.append(g)
                span = generated(gens, self.n, self.p)
        require(span == set(self.elements), "matrix set is not a group")
        return gens

    def act(self, r: tuple, g: tuple) -> tuple:
        return conjugate(r, g, self.inverse[g], self.n, self.p)

    def conjugacy_classes(self) -> list[tuple[tuple, int]]:
        """(least member, size) of every conjugacy class."""
        seen: set = set()
        out = []
        for g in self.elements:
            if g not in seen:
                cls = {g}
                frontier = [g]
                while frontier:
                    cur = frontier.pop()
                    for h in self.generators:
                        c = self.act(cur, h)
                        if c not in cls:
                            cls.add(c)
                            frontier.append(c)
                seen |= cls
                out.append((g, len(cls)))
        require(sum(size for _, size in out) == len(self.elements), "classes do not partition the group")
        return out


def generated(gens: list[tuple], n: int, p: int) -> set:
    """The group the matrices generate."""
    seen = {identity(n)}
    frontier = list(seen)
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = matmul(g, h, n, p)
            if gh not in seen:
                seen.add(gh)
                frontier.append(gh)
    return seen


def is_fixed(r: tuple, g: tuple, s: int, n: int, p: int) -> bool:
    """Whether s * g^-1 R g = R, tested as s R g = g R entry by entry."""
    for i in range(n):
        rrow = r[i * n : (i + 1) * n]
        grow = g[i * n : (i + 1) * n]
        for j in range(n):
            rg = sum(x * y for x, y in zip(rrow, g[j::n]))
            gr = sum(x * y for x, y in zip(grow, r[j::n]))
            if (s * rg - gr) % p:
                return False
    return True


def burnside_count(ops: set, group: MatrixGroup, scalars: list[int]) -> int:
    """Orbits of group x scalars on ops, as the mean number of fixed points.

    ops must be stable under the group, so conjugate elements fix equally
    many operators: each conjugacy class is counted once, by its size.
    """
    n, p = group.n, group.p
    fixed = 0
    for rep, size in group.conjugacy_classes():
        for s in scalars:
            fixed += size * sum(1 for r in ops if is_fixed(r, rep, s, n, p))
    order = len(group.elements) * len(scalars)
    require(fixed % order == 0, f"fixed-point total {fixed} is not a multiple of {order}")
    return fixed // order


def orbit(r: tuple, group: MatrixGroup, scalars: list[int]) -> set:
    p = group.p
    seen = {r}
    frontier = [r]
    while frontier:
        cur = frontier.pop()
        moved = [group.act(cur, g) for g in group.generators]
        moved += [scale(cur, s, p) for s in scalars if s != 1]
        for m in moved:
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return seen


def phi(r: tuple, w: int, n: int, p: int) -> tuple:
    """R -> -R - w id."""
    return tuple((-x - w * i) % p for x, i in zip(r, identity(n)))


# ---------------------------------------------------------------------------
# rbx output
# ---------------------------------------------------------------------------


def parse_matrix_line(line: str, n: int, p: int) -> tuple:
    parts = line.split()
    require(len(parts) == n * n, f"expected {n * n} entries: {line!r}")
    require(all(t.isdigit() for t in parts), f"non-numeric entry: {line!r}")
    m = tuple(int(t) for t in parts)
    require(all(0 <= x < p for x in m), f"entry outside 0..{p - 1}: {line!r}")
    return m


def decode_hex(rep_hex: str, n: int, p: int) -> tuple:
    """Inverse of rbx's rep=: row-major digits base p, read as one integer."""
    acc = int(rep_hex, 16)
    digits = []
    for _ in range(n * n):
        acc, d = divmod(acc, p)
        digits.append(d)
    require(acc == 0, f"rep={rep_hex} has more than {n * n} base-{p} digits")
    return tuple(reversed(digits))


def check_sorted_unique(rows: list[tuple], what: str):
    for prev, cur in zip(rows, rows[1:]):
        require(prev < cur, f"{what}: rows out of order or repeated at {cur}")


def check_enumeration(
    text: str, a: IntAlgebra, kind: str, w: int, expected: int, group: MatrixGroup
):
    """`rbx enumerate` output: header, count, order and every identity.

    The set must be closed under conjugation by the automorphism group,
    and an operator set also under R -> -R - w id and, at weight 0, under
    scaling.
    """
    n, p = a.dim, a.p
    lines = text.splitlines()
    require(bool(lines), "empty output")
    m = re.fullmatch(
        r"enumerate algebra=(\S+) weight=(\S+) kind=(\S+) count=(\d+)", lines[0]
    )
    require(m is not None, f"bad header {lines[0]!r}")
    require(m.group(1) == a.name, f"header names algebra {m.group(1)}")
    require(m.group(2) == str(w % p), f"header names weight {m.group(2)}")
    require(m.group(3) == kind, f"header names kind {m.group(3)}")
    rows = [parse_matrix_line(ln, n, p) for ln in lines[1:]]
    require(int(m.group(4)) == len(rows), f"count={m.group(4)} but {len(rows)} rows")
    require(len(rows) == expected, f"{len(rows)} {kind} maps, expected {expected}")
    check_sorted_unique(rows, kind)
    if kind == "rb":
        bad = next((r for r in rows if not is_rb(a, r, w)), None)
    else:
        bad = next((r for r in rows if not is_derivation(a, r, w)), None)
    require(bad is None, f"{bad} fails the {kind} identity")
    found = set(rows)
    for r in rows:
        for g in group.generators:
            require(group.act(r, g) in found, f"conjugate of {r} is missing")
        if kind == "rb":
            require(phi(r, w, n, p) in found, f"-R - w id of {r} is missing")
            if w % p == 0:
                for s in range(2, p):
                    require(scale(r, s, p) in found, f"{s} * {r} is missing")


_ORBIT = re.compile(r"orbit (\d+): size=(\d+) rep=([0-9a-f]+) tags=(\S*)")
_TOTAL = re.compile(r"total=(\d+) orbits=(\d+)")


def check_orbit_lines(
    lines: list[str], a: IntAlgebra, w: int, expected_total: int, group: MatrixGroup
):
    """Orbit lines as `rbx classify` and claim T6 print them.

    Each rep must be Rota-Baxter and the least member of its orbit, which
    this module computes under group x scalars (scalars only at weight 0);
    the printed size must match, orbits must be disjoint and their sizes
    must add up to `total=`, which must equal the expected count.  The
    orbit count must equal the Burnside count of the union, and at nonzero
    weight the union must be closed under R -> -R - w id.
    """
    n, p = a.dim, a.p
    scalars = list(range(1, p)) if w % p == 0 else [1]
    parsed = [_ORBIT.fullmatch(ln) for ln in lines]
    orbit_lines = [m for m in parsed if m is not None]
    totals = [m for m in (_TOTAL.fullmatch(ln) for ln in lines) if m is not None]
    require(len(totals) == 1, "expected one total= line")
    total, count = int(totals[0].group(1)), int(totals[0].group(2))
    require(total == expected_total, f"total={total}, expected {expected_total}")
    require(count == len(orbit_lines), f"orbits={count} but {len(orbit_lines)} orbit lines")
    require(
        [int(m.group(1)) for m in orbit_lines] == list(range(count)),
        "orbit lines are not numbered 0, 1, ...",
    )
    require(
        sum(int(m.group(2)) for m in orbit_lines) == total,
        "orbit sizes do not add up to total=",
    )
    reps = [decode_hex(m.group(3), n, p) for m in orbit_lines]
    check_sorted_unique(reps, "orbit reps")
    union: set = set()
    for m, rep in zip(orbit_lines, reps):
        require(is_rb(a, rep, w), f"rep={m.group(3)} is not Rota-Baxter")
        members = orbit(rep, group, scalars)
        require(len(members) == int(m.group(2)), f"orbit of rep={m.group(3)} has {len(members)} members, line says {m.group(2)}")
        require(min(members) == rep, f"rep={m.group(3)} is not the least member of its orbit")
        require(not (members & union), f"orbit of rep={m.group(3)} meets an earlier orbit")
        union |= members
        tags = m.group(4).split(",")
        shifted = tuple((x + w * i) % p for x, i in zip(rep, identity(n)))
        splitting = not any(matmul(rep, shifted, n, p))
        require(("splitting" in tags) == splitting, f"splitting tag wrong on rep={m.group(3)}")
        square_zero = not any(matmul(rep, rep, n, p))
        require(("sq0" in tags) == square_zero, f"sq0 tag wrong on rep={m.group(3)}")
    bad = next((r for r in union if not is_rb(a, r, w)), None)
    require(bad is None, f"orbit member {bad} is not Rota-Baxter")
    if w % p:
        require(all(phi(r, w, n, p) in union for r in union), "union not closed under -R - w id")
    burnside = burnside_count(union, group, scalars)
    require(burnside == count, f"Burnside count {burnside}, rbx printed orbits={count}")


def check_classify(text: str, a: IntAlgebra, w: int, expected_total: int, group: MatrixGroup):
    lines = text.splitlines()
    require(bool(lines), "empty output")
    require(
        lines[0] == f"classify algebra={a.name} weight={w % a.p}",
        f"bad header {lines[0]!r}",
    )
    require(_TOTAL.fullmatch(lines[-1]) is not None, "last line is not total=")
    require(
        all(_ORBIT.fullmatch(ln) for ln in lines[1:-1]),
        "unexpected line between the header and total=",
    )
    check_orbit_lines(lines[1:], a, w, expected_total, group)


# ---------------------------------------------------------------------------
# the seven claims
# ---------------------------------------------------------------------------

# Operator and derivation counts the claims print.  148, 74, 302, 89, 315,
# 145 and 730 are the paper's figures; 26 and 62 (J(1,1) over F3, F5) are
# recomputed by brute force in bruteforce.py, as are 74, 302 and 145.
FIGURES = {
    "J11-F3-w1": 26,
    "J11-F5-w1": 62,
    "Gr2-F3-w1": 148,
    "K3-F3-w1": 74,
    "K3-F5-w1": 302,
    "M2-F3-w0": 89,
    "Gr2-F3-w0": 315,
    "K3-F5-w0": 145,
    "Gr2-F3-derivations-w1": 730,
    "TP4-F2-w1": 2000,
}


@dataclass(frozen=True)
class Claim:
    p: int
    weight: int
    lines: tuple  # must appear, in this order
    phrase: str


CLAIMS = {
    "T2-even-splitting": Claim(3, 1, (
        f"J(1,1) over F3 weight 1: {FIGURES['J11-F3-w1']} operators, splitting=all, unit killed up to phi=all",
        f"J(1,1) over F5 weight 1: {FIGURES['J11-F5-w1']} operators, splitting=all, unit killed up to phi=all",
    ), "all splitting"),
    "T4-gr2": Claim(3, 1, (
        f"Gr2 over F3 weight 1: {FIGURES['Gr2-F3-w1']} operators, splitting=all",
    ), "all splitting"),
    "T5-k3": Claim(3, 1, (
        f"K3 over F3 weight 1: {FIGURES['K3-F3-w1']} operators, splitting=all",
        f"K3 over F5 weight 1: {FIGURES['K3-F5-w1']} operators, splitting=all",
    ), "all splitting"),
    "T6-soundness": Claim(3, 0, (
        f"M2 over F3 weight 0: {FIGURES['M2-F3-w0']} operators",
        "every image is unit-free and singular, kernels have dim >= 2",
    ), "soundness facts hold"),
    "P1-gr2-weight0": Claim(3, 0, (
        f"Gr2 over F3 weight 0: {FIGURES['Gr2-F3-w0']} operators, "
        f"{FIGURES['Gr2-F3-w0']} pattern conjugates, outside the closure: 0",
    ), "classification covers all operators"),
    "P2-k3-weight0": Claim(5, 0, (
        f"K3 over F5 weight 0: {FIGURES['K3-F5-w0']} operators, "
        f"{FIGURES['K3-F5-w0']} pattern conjugates, outside the closure: 0",
    ), "classification covers all operators"),
    "C5-no-invertible-derivations": Claim(3, 1, (
        f"Gr2 over F3 weight 1: {FIGURES['Gr2-F3-derivations-w1']} derivations, "
        "1 invertible, minus-identity only: True",
    ), "only minus identity is invertible"),
}


def m2_group(a: IntAlgebra) -> MatrixGroup:
    """Automorphisms of M2 together with transposition, for claim T6."""
    autos = MatrixGroup(automorphisms(a), a.dim, a.p)
    # basis e11 e12 e21 e22: transposition swaps e12 and e21
    t = (1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
    require(is_antiautomorphism(a, t), "transposition is not an antiautomorphism")
    return MatrixGroup(list(generated(autos.generators + [t], a.dim, a.p)), a.dim, a.p)


def check_claim(claim_id: str, text: str, exit_code: int, m2=None):
    """`rbx verify` output: exit code, figures, and the pass line."""
    claim = CLAIMS[claim_id]
    lines = text.splitlines()
    require(exit_code == 0, f"{claim_id}: exit code {exit_code}")
    require(bool(lines) and lines[-1] == f"pass: {claim.phrase}", f"{claim_id}: last line {lines[-1:]!r}")
    for ln in lines:
        require("FAIL" not in ln and "NOT all" not in ln, f"{claim_id}: {ln!r}")
    pos = 0
    for want in claim.lines:
        require(want in lines[pos:], f"{claim_id}: missing line {want!r}")
        pos = lines.index(want, pos) + 1
    if claim_id == "T6-soundness":
        a, group = m2
        check_orbit_lines(
            [ln for ln in lines if _ORBIT.fullmatch(ln) or _TOTAL.fullmatch(ln)],
            a, 0, FIGURES["M2-F3-w0"], group,
        )
        require(
            any(ln.startswith("reference operators sit in distinct orbits:") for ln in lines),
            f"{claim_id}: no reference-operator line",
        )
