"""Reference edge walk for tests: canonical augmentation in its plain order.

`reference_walk` expands a node by listing its candidates, dropping (in
crown-free walks) those that make a crown through the new edge, cutting
the survivors to the first of each Aut(H)-orbit, and only then building
every representative's child and testing it in full with
`reference_accept`: least sorted endpoint-degree triple among the child's
edges, ties to the last canonical image.  Every node is labelled and every
representative's child is built.  `crownfree.search._walk` runs the cheap
degree test on the parent first and labels a parent only when two
candidates are left; it must yield the same nodes in the same order.
"""

from __future__ import annotations

from typing import Iterator

from crownfree.canon import _orbit_roots
from crownfree.crowns import crown_free_additions
from crownfree.graphs import Triple
from crownfree.search import _candidate_edges, _extend, _index_perms, _Node, _orbit_reps, _root


def reference_accept(child: _Node, e: Triple) -> bool:
    """Is e in the Aut(child)-orbit of the child's deletion edge?"""
    degs = child.degs
    key = sorted((degs[e[0]], degs[e[1]], degs[e[2]]))
    ties = []
    for f in child.edges:
        k = sorted((degs[f[0]], degs[f[1]], degs[f[2]]))
        if k < key:
            return False
        if k == key:
            ties.append(f)
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
        candidates = _candidate_edges(node, max_vertices)
        if crown_free:
            candidates = crown_free_additions(node.edges, candidates)
        for e in _orbit_reps(candidates, node.canonical().auts):
            child = _extend(node, e)
            if reference_accept(child, e):
                stack.append(child)
