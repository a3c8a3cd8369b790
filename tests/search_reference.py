"""Reference edge walk for tests: canonical augmentation in its plain order.

`reference_walk` expands a node by listing every feasible addition
(`all_candidate_edges`), dropping (in crown-free walks) those that make a
crown through the new edge, cutting the survivors to the first of each
Aut(H)-orbit, and only then building every representative's child and
testing it in full with `reference_accept`: least sorted endpoint-degree
triple among the child's edges, then least sorted triple of vertex keys
(`vertex_keys`), ties to the last canonical image.  Every node is labelled
and every representative's child is built.  The crown test is the one-edge
reference `crown_reference.has_crown_containing`, read off the edge list,
so this walk shares no crown code with the `crownfree.crowns.CrownTables`
that `_walk` carries from parent to child.  `crownfree.search._walk` lists
fewer candidates, runs the cheap degree test on the parent first, labels a
parent only when two candidates left share their vertex keys, and labels a
child only on a tie of both keys; it must yield the same nodes in the same
order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from crownfree.canon import _orbit_roots
from crownfree.graphs import Triple
from crownfree.search import _extend, _index_perms, _Node, _orbit_reps, _root

from crown_reference import has_crown_containing


def all_candidate_edges(node: _Node, max_vertices: int) -> list[Triple]:
    """Every feasible addition in lexicographic order: free pairs only, new
    vertices taken consecutively.  A triple on covered vertices is built
    from a free pair (a, b) and a third vertex c > b."""
    cov = node.cov
    pairs = {p for a, b, c in node.edges for p in ((a, b), (a, c), (b, c))}
    free = [p for p in combinations(range(cov), 2) if p not in pairs]
    out = [(a, b, c) for a, b in free for c in range(b + 1, cov)
           if (a, c) not in pairs and (b, c) not in pairs]
    if cov + 1 <= max_vertices:
        out += [(a, b, cov) for a, b in free]
    if cov + 2 <= max_vertices:
        out += [(i, cov, cov + 1) for i in range(cov)]
    if cov + 3 <= max_vertices:
        out.append((cov, cov + 1, cov + 2))
    return out


def vertex_keys(edges) -> dict:
    """Each covered vertex's degree, then the sorted degree pairs of the
    other two vertices of each edge through it."""
    deg: dict[int, int] = {}
    for f in edges:
        for v in f:
            deg[v] = deg.get(v, 0) + 1
    return {v: (deg[v], tuple(sorted(tuple(sorted(deg[w] for w in f if w != v))
                                      for f in edges if v in f)))
            for v in deg}


def deletion_ties(edges) -> list[Triple]:
    """The edges with the least sorted endpoint-degree triple, and among
    them the least sorted triple of vertex keys: the deletion edge is the
    one of these with the last canonical image."""
    keys = vertex_keys(edges)

    def key(f):
        return sorted(keys[v][0] for v in f), sorted(keys[v] for v in f)

    least = min(map(key, edges))
    return [f for f in edges if key(f) == least]


def reference_accept(child: _Node, e: Triple) -> bool:
    """Is e in the Aut(child)-orbit of the child's deletion edge?"""
    ties = deletion_ties(child.edges)
    if e not in ties:
        return False
    if len(ties) == 1:
        return True
    canon = child.canonical()
    perm = canon.perm
    d = max(ties, key=lambda f: sorted((perm[f[0]], perm[f[1]], perm[f[2]])))
    edges = child.edges
    roots = _orbit_roots(len(edges), _index_perms(edges, canon.auts))
    return roots[edges.index(e)] == roots[edges.index(d)]


def reference_walk(max_vertices: int, crown_free: bool) -> Iterator[_Node]:
    """Every node, root first, each yielded before it is expanded."""
    stack = [_root()]
    while stack:
        node = stack.pop()
        yield node
        candidates = all_candidate_edges(node, max_vertices)
        if crown_free:
            candidates = [t for t in candidates
                          if not has_crown_containing(node.edges + (t,), t)]
        for e in _orbit_reps(candidates, node.canonical().auts):
            child = _extend(node, e)
            if reference_accept(child, e):
                stack.append(child)
