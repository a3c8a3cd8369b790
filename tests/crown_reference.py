"""Reference crown tests, for tests.

`is_crown` reads the definition of one crown on plain vertex sets; it is
what `crownfree.crowns.CrownWitness.validate` must agree with, and the
brute force of the base-local crown test.  `has_crown_containing` decides whether a crown uses a given edge,
from the edge list alone.  It is the slow, one-edge form that
`crownfree.crowns.CrownTables.free` must agree with on every candidate,
and the crown test of the reference walk in `search_reference.py`.
"""

from __future__ import annotations

from typing import Sequence

from crownfree.graphs import Triple


def is_crown(edges: Sequence[Sequence[int]], base: int, trio: Sequence[int]) -> bool:
    """True iff edge ids base and trio name a crown of the graph on
    `edges`: four distinct edges, the three of trio pairwise disjoint,
    each meeting the base in one vertex, the three meets making up the
    whole base.  Plain sets throughout; it shares no code with the
    package."""
    if len(trio) != 3 or len({base, *trio}) != 4:
        return False
    b = set(edges[base])
    jewels = [set(edges[i]) for i in trio]
    if jewels[0] & jewels[1] or jewels[0] & jewels[2] or jewels[1] & jewels[2]:
        return False
    meets = [b & j for j in jewels]
    return all(len(m) == 1 for m in meets) and set.union(*meets) == b


def has_crown_containing(edges: Sequence[Triple], e: Triple) -> bool:
    """True iff the linear 3-graph on `edges` (which include e) has a crown
    using edge e, as its base or as one of its jewels.

    Local to e: one pass over `edges` sorts the other edges, as vertex
    bitmasks, into the incidence lists of e's three vertices and the list
    of edges disjoint from e; nothing else is built.  Adding e to a
    crown-free graph creates a crown iff this holds.  It shares no code
    with crownfree.crowns.CrownTables, the tables the search carries from
    parent to child, and is the reference the tests hold them to.
    """
    if len(edges) < 4:
        return False
    a, b, c = e
    ba, bb, bc = 1 << a, 1 << b, 1 << c
    emask = ba | bb | bc
    at_a: list[int] = []
    at_b: list[int] = []
    at_c: list[int] = []
    far: list[int] = []
    for f in edges:
        if f == e:
            continue
        m = (1 << f[0]) | (1 << f[1]) | (1 << f[2])
        if not m & emask:
            far.append(m)
        elif m & ba:  # linearity: f meets e in exactly one vertex
            at_a.append(m)
        elif m & bb:
            at_b.append(m)
        else:
            at_c.append(m)
    # e is the base: three disjoint jewels, one through each vertex of e
    for ma in at_a:
        for mb in at_b:
            if ma & mb:
                continue
            mab = ma | mb
            for mc in at_c:
                if not mc & mab:
                    return True
    # e is the jewel at x of a base f = {x, y, z}: disjoint jewels g at y
    # and h at z, both disjoint from e (so neither is f)
    for at_x, bx in ((at_a, ba), (at_b, bb), (at_c, bc)):
        for mf in at_x:
            yz = mf ^ bx
            by = yz & -yz
            bz = yz ^ by
            gs = [mg for mg in far if mg & by]
            if not gs:
                continue
            for mh in far:
                if mh & bz:
                    for mg in gs:
                        if not mg & mh:
                            return True
    return False
