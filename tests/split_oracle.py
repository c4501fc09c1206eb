"""Column 0 of the split operator search, recorded and by brute force.

The brute force is built with FieldElement matrices from the automorphisms
and the recorded antiautomorphism, not with the search's residue moves, so
the tests can check which values of R(e_0) the search runs over.  The
results of the operator searches orbit_classify runs can be recorded too,
so a test reads the residue columns without a second search.
"""

import itertools

from rbx import orbits, search
from rbx.search import enumerate_automorphisms


def record_rb_search_results(monkeypatch) -> list:
    """The (w, strong, found) of each _rb_search that orbit_classify runs."""
    results = []
    real = orbits._rb_search

    def recording(a, weight):
        results.append(real(a, weight))
        return results[-1]

    monkeypatch.setattr(orbits, "_rb_search", recording)
    return results


def record_rb_searches(monkeypatch) -> list:
    """For each operator search, the values of R(e_0) it searches below."""
    calls = []
    real_search, real_orbit = search._search, search._orbit

    def recording(ia, pair, pools, moves=()):
        if pair.func is search._rb_pair:
            calls.append([])
        return real_search(ia, pair, pools, moves)

    def orbit(p, c, v, group):
        if c == 0:
            calls[-1].append(v)
        return real_orbit(p, c, v, group)

    monkeypatch.setattr(search, "_search", recording)
    monkeypatch.setattr(search, "_orbit", orbit)
    return calls


def column0_orbits(a, weight, phi: bool) -> list:
    """The orbits of the values of R(e_0) under the moves that fix e_0.

    A move conjugates by an automorphism h (R -> h^-1 R h) or by h after
    the antiautomorphism t (R -> t h^-1 R h t^-1), times a nonzero scalar
    at weight 0; it fixes e_0 when its right factor does, and then sends
    R(e_0) = v to left * v.  With phi at weight w != 0, v -> -v - w e_0 joins
    them.  Orbits are closed one move at a time, each sorted, in the order
    of their first members.
    """
    f, dim = a.field, a.dim
    w = f.element(weight)
    e0 = tuple(f.one if k == 0 else f.zero for k in range(dim))
    lefts = []
    for h in enumerate_automorphisms(a):
        pairs = [(h.inverse(), h)]
        if a.antiauto is not None:
            pairs.append((a.antiauto * h.inverse(), h * a.antiauto.inverse()))
        lefts += [left for left, right in pairs if right.apply(e0) == e0]
    scalars = [f.element(s) for s in range(1, f.p)] if w.is_zero() else [f.one]

    def neighbours(v):
        vec = tuple(f.element(x) for x in v)
        for left in lefts:
            image = left.apply(vec)
            for s in scalars:
                yield tuple((s * x).value for x in image)
        if phi and not w.is_zero():
            yield tuple((-x - w * z).value for x, z in zip(vec, e0))

    seen, orbits = set(), []
    for v in itertools.product(range(f.p), repeat=dim):
        if v in seen:
            continue
        members, frontier = {v}, [v]
        while frontier:
            for u in neighbours(frontier.pop()):
                if u not in members:
                    members.add(u)
                    frontier.append(u)
        seen |= members
        orbits.append(sorted(members))
    return orbits


def passes_e0(a, weight, v) -> bool:
    """Whether R(e_0) = v can meet the relation of the pair (e_0, e_0),
    R(v e_0 + e_0 v + w e_0 e_0) = v v, as far as v alone decides it: when
    the argument is c e_0, it reads c v = v v."""
    f, dim = a.field, a.dim
    x = tuple(f.element(c) for c in v)
    e0 = tuple(f.one if k == 0 else f.zero for k in range(dim))
    w = f.element(weight)
    arg = [
        s + t + w * z
        for s, t, z in zip(a.product_vec(x, e0), a.product_vec(e0, x), a.product_vec(e0, e0))
    ]
    if any(not c.is_zero() for c in arg[1:]):
        return True
    return tuple(arg[0] * c for c in x) == a.product_vec(x, x)


def column0_searched(a, weight) -> list:
    """The values of R(e_0) the split search runs over, in pool order: the
    first passing value of each orbit (with phi) that has one."""
    out = []
    for orbit in column0_orbits(a, weight, phi=True):
        passing = [v for v in orbit if passes_e0(a, weight, v)]
        if passing:
            out.append(passing[0])
    return sorted(out)
