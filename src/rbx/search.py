"""Exhaustive search for operators, automorphisms and derivations.

One backtracking engine serves all three problems.  A candidate matrix is
built column by column over a prime field; every time a basis pair (i, j)
has both its columns fixed, the defining identity for that pair becomes a
relation v |-> u, "the map sends v to u", with both vectors known:

    Rota-Baxter R   R(b_i)b_j + b_iR(b_j) + w b_ib_j  |->  R(b_i)R(b_j)
    automorphism    b_ib_j  |->  psi(b_i)psi(b_j)

Each is stated once, by _rb_pair and _auto_pair.  Derivations need no
third: d has weight w != 0 exactly when id + w d is multiplicative (Guo and
Keigher, JPAA 212, 2008); at w = 0 they are a nullspace.  The
relation is the linear equation sum_m v[m] * column_m = u, and the last
column d with v[d] != 0 decides it.  A relation whose d is already assigned
is a consistency check (prune on failure); any other is filed under d, and
at column d it forces the value instead of enumerating the pool.  Before
the search each column c's pool loses, once, the values that fail pair
(c, c) where its v reads column c alone: the pair reads only that column,
so such a value fails every full assignment (_node_consistent).  Columns
are assigned in index order and candidate values are tried in
lexicographic order, so the result list is deterministic; a raw
enumerator with none of this machinery double-checks the pruned one on
small spaces.

Rota-Baxter operators are searched in one place, _rb_search, for
enumerate_rb, orbit_classify and the claims, modulo a group on
every algebra, by its stabiliser chain.  The moves (conjugation by every
automorphism, by the recorded antiautomorphism, and at weight 0 scaling
by every nonzero scalar; the group orbit_classify sorts operators by) map
operators to operators, and so, at weight w != 0, does phi(R) = -R - w id,
which the search adds to them.  A move R -> left * R * right + offset * I
whose right factor fixes e_0..e_c and which fixes the columns
R(e_0)..R(e_{c-1}) already chosen sends the operators that have those
columns and R(e_c) = v bijectively to those that have them and
R(e_c) = left * v + offset * e_c, and such moves form a group.  So every
column runs over one value per orbit of that group, and every operator
with another value u is the image of a result below the searched value
under the first move that reaches u (McKay, Isomorph-free exhaustive
generation, J. Algorithms 26, 1998).  The next column runs under the moves
that also fix the chosen value and e_{c+1}.  When no move but the identity
is left, the search below is the plain one.  Derivations at w != 0 take
the plain search.  Automorphisms come from a stabiliser chain of their own
group, built level by level with one plain search per value that no
automorphism found so far reaches (_automorphisms); the group is then
listed once from the chain's transversals, with every member's inverse
for the split, which needs every move of the group for the stabiliser of
each node; orbit_classify closes its orbits from the moves of the chain's
strong generators instead (residues._move_generators).

All arithmetic here runs on plain integer residues.  Each result, searched
or image, is checked once, on residues, against the relation of every
ordered basis pair (on a commutative algebra, of every pair i <= j, as
in the search itself), all results in one pass that decides each distinct
relation instance once (_passing); a result that fails or a result found
twice is an internal error and raises LeafRejectedError.  rbx enumerate
prints these checked residue columns as they are.  Only the public
enumerate_* functions turn them into FieldElement objects, one per
residue shared by every entry, through constructors that do not check
them again.
"""

from __future__ import annotations

import itertools
from functools import cache, partial
from operator import mul

from .algebras import Algebra, check_automorphism
from .errors import LeafRejectedError, SearchSpaceTooLargeError, UnsupportedFieldError
from .fields import PrimeField
from .linalg import Matrix, rank_nullspace
from .rb import LinearOperator, RBOperator, coerce_weight
from .residues import (
    _close,
    _columns_to_matrices,
    _columns_to_matrix,
    _conjugate,
    _fixes,
    _identity,
    _inverse_mod_p,
    _listed,
    _move_kinds,
    _moves,
    _orbit,
    _transversal,
    pack_columns,
)

RAW_GUARD = 1 << 26
# each raw automorphism candidate is checked through FieldElement arithmetic
# (about 7000 matrices a second), so its space is held much smaller
RAW_AUTO_GUARD = 1 << 16


class IntAlgebra:
    """Structure constants of an algebra reduced to ints modulo p."""

    def __init__(self, a: Algebra):
        field = a.field
        if not isinstance(field, PrimeField):
            raise UnsupportedFieldError("search runs over prime fields")
        self.algebra = a
        self.p = field.p
        self.dim = a.dim
        self.table = tuple(
            tuple(tuple((k, c.value) for k, c in a.table[i][j]) for j in range(a.dim))
            for i in range(a.dim)
        )
        self.tvec = tuple(
            tuple(tuple(c.value for c in a.table_vector(i, j)) for j in range(a.dim))
            for i in range(a.dim)
        )
        self.commutative = a.is_commutative()

    def product(self, x, y) -> list:
        p = self.p
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                row = self.table[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj
                        for k, s in row[j]:
                            out[k] = (out[k] + c * s) % p
        return out

    def leibniz(self, i: int, j: int, x, y) -> list:
        """x b_j + b_i y, for x and y the images of b_i and b_j.

        Reads the column of b_j and the row of b_i straight off the table.
        """
        out = [0] * self.dim
        for m, xm in enumerate(x):
            if xm:
                for k, s in self.table[m][j]:
                    out[k] += xm * s
        row = self.table[i]
        for m, ym in enumerate(y):
            if ym:
                for k, s in row[m]:
                    out[k] += ym * s
        return [c % self.p for c in out]


def _rb_pair(ia: IntAlgebra, w: int, cols, i: int, j: int):
    """R sends v = R(b_i)b_j + b_iR(b_j) + w b_ib_j to u = R(b_i)R(b_j);
    reads only columns i and j of cols."""
    p = ia.p
    v = [(x + w * z) % p for x, z in zip(ia.leibniz(i, j, cols[i], cols[j]), ia.tvec[i][j])]
    return v, ia.product(cols[i], cols[j])


def _auto_pair(ia: IntAlgebra, cols, i: int, j: int):
    """psi sends v = b_ib_j to u = psi(b_i)psi(b_j); reads only columns i
    and j of cols."""
    return ia.tvec[i][j], ia.product(cols[i], cols[j])


def _new_pairs(dim: int, commutative: bool):
    """For each column c, the basis pairs completed by assigning c."""
    out = []
    for c in range(dim):
        pairs = []
        for i in range(c):
            pairs.append((i, c))
            if not commutative:
                pairs.append((c, i))
        pairs.append((c, c))
        out.append(tuple(pairs))
    return out


def _search(ia: IntAlgebra, pair, pools, moves=()) -> list:
    """All full column assignments meeting the relation of every basis pair.

    pools holds, per column, its values in the order they are tried, as a
    dict that maps each to itself (a list serves when there are no moves).
    Callers cut them first (_pools, _node_consistent): a value the cut
    drops fails pair (c, c), which reads column c alone, so no result
    holds it and the results and their order are those of the whole
    pools.  A relation is filed under its last unknown column d, with the
    columns known when it came up subtracted; at column d every relation
    filed there fixes the column by itself, and they must agree on a pool
    value.  With no moves this is the plain search, the oracle the split
    one is tested against.  Otherwise moves is a group of
    (left, right^T, offset) moves that map results to results, and the
    search is split by its stabiliser chain.
    Column c runs under the moves whose right factor fixes e_0..e_c and
    which fix the columns already chosen; they act on column c by
    v -> left * v + offset * e_c.  Only the first passing value of each
    orbit is searched, and every result below it brings its images under
    the first move that reaches each other member of the orbit (_orbit).
    Column c + 1 runs under the moves among these that fix the searched
    value and e_{c+1}.
    """
    pair_plan = _new_pairs(ia.dim, ia.commutative)
    dim, p = ia.dim, ia.p
    # due[d]: (c, v, rest) for each relation whose last unknown column is d,
    # rest being u minus the columns up to c, those known when it came up
    due: list = [[] for _ in range(dim)]

    def image(move, cols):
        # image columns are the pool's own tuples, as searched columns are
        packed = _conjugate(p, move, cols)
        return tuple(pools[j].get(col, col) for j, col in
                     enumerate(packed[j::dim] for j in range(dim)))

    def forced(c, cols):
        """The value every relation due at c fixes, or None if two differ."""
        value = None
        for known, v, rest in due[c]:
            for m in range(known + 1, c):
                cm = v[m]
                if cm:
                    rest = [r - cm * x for r, x in zip(rest, cols[m])]
            inv = pow(v[c], p - 2, p)
            col = tuple(r * inv % p for r in rest)
            if value is None:
                value = col
            elif col != value:
                return None
        return value

    def extend(c, cols, group, results):
        if due[c]:
            col = forced(c, cols)
            candidates = (col,) if col in pools[c] else ()
        else:
            candidates = pools[c]
        # the identity alone splits nothing
        split = len(group) > 1
        reached: set = set()
        for col in candidates:
            if col in reached:
                continue
            cols[c] = col
            filed = []
            ok = True
            for i, j in pair_plan[c]:
                v, u = pair(cols, i, j)
                rest, last = u, c
                for m, cm in enumerate(v):
                    if not cm:
                        continue
                    if m > c:
                        last = m
                    else:
                        rest = [(r - cm * x) % p for r, x in zip(rest, cols[m])]
                if last > c:
                    due[last].append((c, v, rest))
                    filed.append(last)
                elif any(rest):
                    ok = False
                    break
            if ok:
                # only a passing value's orbit is marked: a value that fails
                # here has no results below it, so by the bijection neither
                # has any member of its orbit, and marking it would be waste
                reach, sub = _orbit(p, c, col, group) if split else ({}, group)
                reached.update(reach)
                start = len(results)
                if c == dim - 1:
                    results.append(tuple(cols))
                else:
                    sub = [move for move in sub if _fixes(move, c + 1)]
                    extend(c + 1, cols, sub, results)
                if reach:
                    below = results[start:]
                    for move in reach.values():
                        results.extend(image(move, found) for found in below)
            for d in filed:
                due[d].pop()
            cols[c] = None
        return results

    return extend(0, [None] * dim, [move for move in moves if _fixes(move, 0)], [])


def _node_consistent(ia: IntAlgebra, pair, pools) -> list:
    """Each pool without the values y that fail pair (c, c) while its v
    reads C_c alone, as y then fails every full assignment (node
    consistency: Mackworth, Consistency in networks of relations, 1977)."""
    def keeps(c, y):
        v, u = pair([y] * ia.dim, c, c)  # reads C_c only
        return any(v[:c] + v[c + 1:]) or all((v[c] * x - r) % ia.p == 0 for x, r in zip(y, u))
    return [[y for y in pool if keeps(c, y)] for c, pool in enumerate(pools)]


def _full_pools(ia: IntAlgebra, auto: bool) -> list:
    """Per column, every column vector in lexicographic order; for
    automorphisms (auto), only the nonzero ones inside the grade of their
    basis vector, as no automorphism sends a basis vector to 0."""
    space = list(itertools.product(range(ia.p), repeat=ia.dim))
    if not auto:
        return [space] * ia.dim
    grading = ia.algebra.grading or (0,) * ia.dim
    return [
        [col for col in space[1:] if all(not x or grading[k] == g for k, x in enumerate(col))]
        for g in grading
    ]


def _passing(ia: IntAlgebra, pair, leaves) -> list:
    """The leaves (full column assignments) meeting the identity of pair,
    in order: the map sends v to u, sum_m v[m] * C_m == u (mod p), on every
    ordered basis pair (i, j), the pairs the FieldElement checkers test.
    On a commutative algebra only the pairs with i <= j are tested, as
    _new_pairs does: b_ib_j = b_jb_i, so the relation of (j, i) is that of
    (i, j) term for term, for operators and multiplicative maps alike.

    pair(cols, i, j) reads only C_i and C_j, so it runs once per distinct
    (C_i, C_j), and its relation is decided once per distinct tuple of the
    C_m with v[m] != 0.  A leaf that fails a pair is dropped before the next.
    """
    p = ia.p
    for i in range(ia.dim):
        for j in range(i if ia.commutative else 0, ia.dim):
            # (C_i, C_j) -> ((m, v[m]) with v[m] != 0, u, verdict per C_m tuple)
            relations: dict = {}
            kept = []
            for cols in leaves:
                rel = relations.get((cols[i], cols[j]))
                if rel is None:
                    v, u = pair(cols, i, j)
                    terms = [(m, cm) for m, cm in enumerate(v) if cm]
                    rel = relations[cols[i], cols[j]] = (terms, u, {})
                terms, u, verdicts = rel
                read = tuple([cols[m] for m, _ in terms])
                ok = verdicts.get(read)
                if ok is None:
                    acc = u
                    for (_, cm), col in zip(terms, read):
                        acc = [a - cm * x for a, x in zip(acc, col)]
                    ok = verdicts[read] = not any(a % p for a in acc)
                if ok:
                    kept.append(cols)
            leaves = kept
    return leaves


def _keeps_grading(ia: IntAlgebra, cols) -> bool:
    grading = ia.algebra.grading
    if grading is None:
        return True
    return all(
        not x or grading[k] == grading[j] for j, col in enumerate(cols) for k, x in enumerate(col)
    )


def _pools(ia: IntAlgebra, pair, auto: bool) -> list:
    """Per column, the pool cut by _node_consistent, as a dict that maps
    each value to itself in lexicographic order."""
    return [dict(zip(pool, pool)) for pool in _node_consistent(ia, pair, _full_pools(ia, auto))]


def _check(ia: IntAlgebra, pair, found, auto: bool) -> list:
    """found, which the caller sorted row-major, once every result in it
    is checked on residues; callers print it or build matrices from it
    with no further check.

    All results, searched and image, are checked in one _passing call, on
    the pairs i <= j alone when the algebra is commutative; the first found
    twice or failing raises LeafRejectedError.
    """
    passed = {id(cols) for cols in _passing(ia, pair, found)}
    prev = None
    for cols in found:
        if cols == prev:
            raise LeafRejectedError(
                f"search leaf {pack_columns(cols, ia.dim)} on {ia.algebra.name} is found twice"
            )
        if id(cols) not in passed or (auto and not _keeps_grading(ia, cols)):
            raise LeafRejectedError(
                f"search leaf {pack_columns(cols, ia.dim)} on {ia.algebra.name} "
                "fails its leaf check"
            )
        prev = cols
    return found


def _checked_leaves(ia: IntAlgebra, pair, auto: bool, moves=()) -> list:
    """Search, sort row-major, and check every result once on residues.

    moves, a group, splits the search by its stabiliser chain (_search).
    """
    found = _search(ia, pair, _pools(ia, pair, auto), moves)
    found.sort(key=lambda cols: pack_columns(cols, ia.dim))
    return _check(ia, pair, found, auto)


def _rb_search(a: Algebra, weight) -> tuple:
    """The operators of the given weight on a, and Aut's strong generators.

    Returns (w, strong, found): the weight in a's field, the strong
    generators of the automorphisms (_automorphisms), and every operator as
    checked residue columns, sorted row-major (_checked_leaves).  The
    search is split by the stabiliser chain of the moves of operators:
    conjugation by every automorphism and the antiautomorphism, scaling at
    weight 0 (_moves, _move_kinds).  At w != 0 the reflection
    phi(R) = -R - w * I joins them for the search only: phi commutes with
    every conjugation and left * right = I for every move, so
    phi o (left, right^T, 0) is (-left, right^T, -w) and the moves with
    these still form a group.
    """
    ia = IntAlgebra(a)
    p = ia.p
    w = coerce_weight(a.field, weight)
    members, inverses, strong = _automorphisms(ia)
    moves = _moves(p, members, inverses, *_move_kinds(a, w))
    if w.value:
        moves += [
            (tuple(tuple(-x % p for x in row) for row in left), right_t, -w.value % p)
            for left, right_t, _ in moves
        ]
    found = _checked_leaves(ia, partial(_rb_pair, ia, w.value), auto=False, moves=moves)
    return w, strong, found


def _rb_operators(a: Algebra, w, found) -> list[RBOperator]:
    return [RBOperator._verified(LinearOperator(a, m), w)
            for m in _columns_to_matrices(a.field, found, a.dim)]


def enumerate_rb(a: Algebra, weight) -> list[RBOperator]:
    """All Rota-Baxter operators of the given weight, sorted row-major (_rb_search)."""
    w, _, found = _rb_search(a, weight)
    return _rb_operators(a, w, found)


def _automorphisms(ia: IntAlgebra, inverses: bool = True) -> tuple:
    """All automorphisms (grading-preserving when graded), from a
    stabiliser chain with base e_0, ..., e_{dim-1} (Sims, Computational
    methods in the study of permutation groups, 1970; Leon, Permutation
    group algorithms based on partitions I, J. Symbolic Comput. 12, 1991).

    Returns (members, inverses, strong): every automorphism by its columns,
    sorted row-major; the rows of each one's inverse in the same order, or
    None unless inverses; and (g, rows of g^-1) for each strong generator
    g.  Those that fix e_0..e_{c-1} generate the automorphisms that fix them.

    G_c, the automorphisms that fix e_0..e_{c-1}, is found for c = dim - 1
    down to 0.  The orbit of e_c is closed under the strong generators
    found so far (_close); each value v of column c's pool outside it is
    searched with columns < c fixed to e_0..e_{c-1} and column c to v, and
    the first invertible leaf joins the strong generators.  With no such
    leaf, no value in the orbit of v under G_{c+1} (complete, and fixing
    e_c) has one either, and they are skipped.  Each member of G is then
    one product t_0 o ... o t_{dim-1}, t_c from the transversal of G_c
    (_transversal, _listed), checked like any search's results.
    """
    p, dim = ia.p, ia.dim
    pair = partial(_auto_pair, ia)
    pools = _pools(ia, pair, auto=True)
    base = [pool[e] for pool, e in zip(pools, _identity(dim))]
    strong: list = []
    transversals = []
    for c in reversed(range(dim)):
        above = strong[:]  # generates G_{c+1}
        orbit = _close(p, {base[c]: None}, strong)
        skipped: set = set()
        for v in pools[c]:
            if v in orbit or v in skipped:
                continue
            fixed = [{e: e} for e in base[:c]] + [{v: v}] + pools[c + 1:]
            for leaf in _search(ia, pair, fixed):
                inv = _inverse_mod_p(tuple(zip(*leaf)), p)
                if inv is not None:
                    strong.append((leaf, inv))
                    _close(p, orbit, strong)
                    break
            else:
                skipped.update(_close(p, {v: None}, above))
        transversals.append(_transversal(p, orbit, dim))
    listed = _listed(p, transversals[::-1], pools, inverses)
    listed.sort(key=lambda member: pack_columns(member[0], dim))
    members = _check(ia, pair, [cols for cols, _ in listed], auto=True)
    return members, [inv for _, inv in listed] if inverses else None, strong


def _automorphism_columns(a: Algebra) -> list:
    """The checked members of _automorphisms, without their inverses."""
    return _automorphisms(IntAlgebra(a), inverses=False)[0]


def enumerate_automorphisms(a: Algebra) -> list[Matrix]:
    """All algebra automorphisms as matrices, in the order of _automorphisms."""
    return _columns_to_matrices(a.field, _automorphism_columns(a), a.dim)


def _leibniz_rows(ia: IntAlgebra) -> list:
    """d(b_ib_j) = d(b_i)b_j + b_id(b_j), a row per b_k, over d row-major."""
    dim, tvec = ia.dim, ia.tvec
    rows = []
    for i, j, k in itertools.product(range(dim), repeat=3):
        row = [0] * (dim * dim)
        for m in range(dim):
            row[k * dim + m] += tvec[i][j][m]
            row[m * dim + i] -= tvec[m][j][k]
            row[m * dim + j] -= tvec[i][m][k]
        rows.append([x % ia.p for x in row])
    return rows


def _derivations(ia: IntAlgebra, w: int) -> list:
    """The maps obeying the derivation identity of residue weight w, as checked
    residue columns sorted row-major: at w != 0, (phi - id) / w for each checked
    multiplicative phi, each column built once; at w = 0, the nullspace of
    _leibniz_rows by its coefficients on the reduced basis (pivots ascending)."""
    a, p, dim = ia.algebra, ia.p, ia.dim
    if w:
        inv = pow(w, p - 2, p)
        back = cache(lambda c, y: tuple((x - (k == c)) * inv % p for k, x in enumerate(y)))
        return sorted((tuple(map(back, range(dim), phi))
                       for phi in _checked_leaves(ia, partial(_auto_pair, ia), auto=False)),
                      key=lambda cols: pack_columns(cols, dim))
    rows = _leibniz_rows(ia)
    basis = [[x.value for x in b] for b in rank_nullspace(Matrix(a.field, rows))[1].basis]
    if p ** len(basis) > RAW_GUARD:
        raise SearchSpaceTooLargeError(f"{p}^{len(basis)} maps exceed the enumeration guard")
    if any(sum(map(mul, row, b)) % p for b in basis for row in rows):
        raise LeafRejectedError(f"a derivation basis vector on {a.name} fails its check")
    flat = [tuple(sum(c * b[n] for c, b in zip(cs, basis)) % p for n in range(dim * dim))
            for cs in itertools.product(range(p), repeat=len(basis))]
    return [tuple(v[c::dim] for c in range(dim)) for v in flat]


def enumerate_derivations(a: Algebra, weight) -> list[LinearOperator]:
    """The maps of _derivations as operators, one FieldElement per residue."""
    found = _derivations(IntAlgebra(a), coerce_weight(a.field, weight).value)
    return [LinearOperator(a, m) for m in _columns_to_matrices(a.field, found, a.dim)]


# ---------------------------------------------------------------------------
# raw enumerators: no pruning machinery, used as an oracle on small spaces
# ---------------------------------------------------------------------------


def _guard(p: int, dim: int, limit: int):
    if p ** (dim * dim) > limit:
        raise SearchSpaceTooLargeError(
            f"{p}^{dim * dim} exceeds the raw enumeration guard"
        )


def _rb_raw(a: Algebra, weight) -> tuple:
    """(w, found): the weight in a's field and every operator of that
    weight as residue columns sorted row-major, from a plain full
    enumeration; small spaces only.

    Each sweep of the last column is one _passing call."""
    ia = IntAlgebra(a)
    _guard(ia.p, ia.dim, RAW_GUARD)
    w = coerce_weight(a.field, weight)
    pair = partial(_rb_pair, ia, w.value)
    space = list(itertools.product(range(ia.p), repeat=ia.dim))
    found = []
    for head in itertools.product(space, repeat=ia.dim - 1):
        found += _passing(ia, pair, [(*head, last) for last in space])
    found.sort(key=lambda cols: pack_columns(cols, ia.dim))
    return w, found


def enumerate_rb_raw(a: Algebra, weight) -> list[RBOperator]:
    """The operators of _rb_raw as RBOperators."""
    return _rb_operators(a, *_rb_raw(a, weight))


def _automorphisms_raw(a: Algebra) -> list:
    """Every matrix that check_automorphism accepts, as residue columns
    sorted row-major; small spaces only."""
    ia = IntAlgebra(a)
    _guard(ia.p, ia.dim, RAW_AUTO_GUARD)
    space = itertools.product(range(ia.p), repeat=ia.dim)
    found = [cols for cols in itertools.product(space, repeat=ia.dim)
             if check_automorphism(a, _columns_to_matrix(a.field, cols, ia.dim))]
    found.sort(key=lambda cols: pack_columns(cols, ia.dim))
    return found


def enumerate_automorphisms_raw(a: Algebra) -> list[Matrix]:
    """The automorphisms of _automorphisms_raw as matrices."""
    return _columns_to_matrices(a.field, _automorphisms_raw(a), a.dim)
