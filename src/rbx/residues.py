"""Matrices of plain integer residues over F_p, and the groups acting on them.

The searches hold every matrix as a tuple of columns of residues, one tuple
per column; this module packs and materialises such matrices, inverts and
multiplies them, lists a group from the transversals of its stabiliser
chain, and builds the moves that act on operators.

A move (left, right^T, offset) sends an operator R to
left * R * right + offset * I.  The moves of an automorphism h conjugate,
R -> h^-1 R h; with a recorded antiautomorphism t also R -> t h^-1 R h t^-1;
at weight 0 each of these is scaled by every nonzero scalar.
search._rb_search lists the whole group of moves for its split, and
orbits.orbit_classify closes orbits from the moves of the strong
generators of the automorphisms instead (_move_generators).
"""

from __future__ import annotations

from operator import mul

from .linalg import Matrix


def _inverse_mod_p(rows, p: int):
    """Inverse over F_p of a square residue matrix, or None when singular.

    Gauss-Jordan on the given vectors as rows, returning the rows of the
    inverse.  The inverse of the transpose is the transpose of the inverse,
    so columns given in return the columns of the inverse.
    """
    dim = len(rows)
    aug = [list(row) + [int(r == k) for k in range(dim)] for r, row in enumerate(rows)]
    for c in range(dim):
        pivot = next((r for r in range(c, dim) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(dim):
            f = aug[r][c]
            if f and r != c:
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[dim:]) for row in aug)


def _matmul(p: int, xs, ys) -> tuple:
    """Entry (i, j) is xs[i] . ys[j] over F_p.

    With xs the rows of a and ys the columns of b, these are the rows of
    a * b; with xs the columns of b and ys the rows of a, its columns.
    """
    return tuple(tuple(sum(map(mul, x, y)) % p for y in ys) for x in xs)


def _identity(dim: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def _to_int_rows(m: Matrix) -> tuple:
    return tuple(tuple(e.value for e in row) for row in m.data)


def pack_columns(cols, dim: int) -> tuple:
    """Row-major integer tuple of a column assignment; the sort key.  Built
    from a list, it is allocated at its size, so a freed key is reused."""
    return tuple([cols[j][i] for i in range(dim) for j in range(dim)])


def _columns_to_matrices(field, found, dim: int) -> list[Matrix]:
    """The matrices of residue column assignments, one shared FieldElement
    per residue."""
    elements = tuple(field.elements())
    return [Matrix._trusted(field, tuple(tuple(elements[col[i]] for col in cols)
                                         for i in range(dim))) for cols in found]


def _columns_to_matrix(field, cols, dim: int) -> Matrix:
    return _columns_to_matrices(field, [cols], dim)[0]


# ---------------------------------------------------------------------------
# a group from its stabiliser chain (search._automorphisms)
# ---------------------------------------------------------------------------


def _close(p: int, orbit: dict, strong) -> dict:
    """orbit, closed breadth first under the generators g of strong.

    orbit maps each column value to (rows of g, u) for the g that first
    reached it from u, or to None at its root.
    """
    gens = [tuple(zip(*g)) for g, _ in strong]
    queue = list(orbit)
    for u in queue:
        for rows in gens:
            w = tuple(sum(map(mul, row, u)) % p for row in rows)
            if w not in orbit:
                orbit[w] = (rows, u)
                queue.append(w)
    return orbit


def _transversal(p: int, orbit: dict, dim: int) -> list:
    """(t, rows of t^-1) for each point of a closed orbit, in its order:
    t is the product of the generators on the path from the root, which
    gets the identity; Gauss-Jordan runs once for each other point."""
    found: dict = {}
    for w, step in orbit.items():
        if step is None:
            found[w] = (_identity(dim), _identity(dim))
        else:
            rows, u = step
            t = _matmul(p, found[u][0], rows)  # the columns of g o t_u
            found[w] = (t, _inverse_mod_p(tuple(zip(*t)), p))
    return list(found.values())


def _listed(p: int, transversals, pools, inverses: bool = True) -> list:
    """(columns of t_0 o ... o t_{dim-1}, rows of its inverse
    t_{dim-1}^-1 o ... o t_0^-1, or None without inverses) for one t_c of
    each transversal, built prefix by prefix.  t_c fixes e_0..e_{c-1}, so
    appending it keeps the first c columns of the prefix and computes the
    rest, each interned to its pool's own tuple; the root of each
    transversal, the identity, keeps the prefix as it is."""
    dim = len(transversals)
    level = [(_identity(dim), _identity(dim) if inverses else None)]
    for c, transversal in enumerate(transversals):
        grown = []
        for cols, inv in level:
            grown.append((cols, inv))
            rows, inv_cols = tuple(zip(*cols)), inv and tuple(zip(*inv))
            for t, t_inv in transversal[1:]:
                new = _matmul(p, t[c:], rows)
                grown.append((cols[:c] + tuple(pools[j].get(x, x) for j, x in enumerate(new, c)),
                              inv and _matmul(p, t_inv, inv_cols)))
        level = grown
    return level


# ---------------------------------------------------------------------------
# moves on operators
# ---------------------------------------------------------------------------


def _move_kinds(a, w) -> tuple:
    """(antiauto, scalars) for the moves of operators of weight w on a.

    Beside conjugation by each automorphism, a move conjugates by the
    antiautomorphism a records, if any, and at weight 0 it scales by any
    nonzero scalar (s * R has weight s * w, so only weight 0 is kept).
    """
    return a.antiauto, ((1,) if w.value else range(1, a.field.p))


def _moves(p: int, autos, inverses, antiauto=None, scalars=(1,)) -> list:
    """Every move of the group, as (left, right^T, 0) residue moves.

    autos are automorphisms h by their columns and inverses the rows of
    each h^-1, so h gives the move (h^-1, h, 0), R -> h^-1 R h, sharing
    both; with antiauto t also R -> t h^-1 R h t^-1, and each of these is
    then scaled by every one of scalars.  When autos is the whole
    automorphism group the result is the whole group: t normalises Aut
    and t*t is an automorphism, so Aut and t*Aut together are closed under
    composition, and scalars commute with conjugation.
    """
    pairs = list(zip(inverses, autos))
    if antiauto is not None:
        t = _to_int_rows(antiauto)
        t_inv = _inverse_mod_p(tuple(zip(*t)), p)  # by its columns
        # the rows of t h^-1 and the columns of h t^-1
        pairs += [(_matmul(p, t, tuple(zip(*inv))), _matmul(p, t_inv, tuple(zip(*h))))
                  for inv, h in pairs]
    return [
        (left if s == 1 else tuple(tuple(s * x % p for x in row) for row in left), right_t, 0)
        for left, right_t in pairs
        for s in scalars
    ]


def _move_generators(p: int, dim: int, strong, antiauto=None, scalars=(1,)) -> list:
    """Generators of the group of moves, from strong generators of Aut.

    strong holds (g, rows of g^-1) for automorphisms g that generate Aut
    (search._automorphisms); the moves are the conjugations by them, the
    conjugation R -> t R t^-1 by antiauto t if given, and the scaling by
    each of scalars but 1.  Every move is a product of these.
    """
    gens = _moves(p, [g for g, _ in strong], [inv for _, inv in strong])
    if antiauto is not None:
        t = _to_int_rows(antiauto)
        gens.append((t, _inverse_mod_p(tuple(zip(*t)), p), 0))
    identity = _identity(dim)
    gens += [(tuple(tuple(s * x for x in row) for row in identity), identity, 0)
             for s in scalars if s != 1]
    return gens


def _fixes(move: tuple, j: int) -> bool:
    """Whether the right factor of a move sends e_j to e_j."""
    right_t = move[1]
    return right_t[j] == tuple(int(k == j) for k in range(len(right_t)))


def _conjugate(p: int, move: tuple, cols: tuple) -> tuple:
    """The packed rows of left * R * right + offset * I, for R given by its
    columns."""
    left, right_t, offset = move
    lr = [[sum(map(mul, row, col)) for col in cols] for row in left]
    packed = tuple(sum(map(mul, row, col)) % p for row in lr for col in right_t)
    if not offset:
        return packed
    step = len(cols) + 1
    return tuple((x + offset) % p if k % step == 0 else x for k, x in enumerate(packed))


def _orbit(p: int, c: int, v: tuple, group) -> tuple:
    """The orbit of column value v under v -> left * v + offset * e_c.

    Returns the first move of group reaching each other member, and the
    stabiliser of v: the moves that send v to itself.
    """
    reach = {}
    stabiliser = []
    for move in group:
        left, _, offset = move
        u = [sum(map(mul, row, v)) for row in left]
        u[c] += offset
        u = tuple(x % p for x in u)
        if u == v:
            stabiliser.append(move)
        elif u not in reach:
            reach[u] = move
    return reach, stabiliser
