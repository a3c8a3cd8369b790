"""Reference canonical labelling and permutation-group helpers for tests.

`reference_canonical_edges` walks every leaf of the individualization tree
and returns the whole automorphism group, one tuple per element in the
format of `CanonResult.auts`: g[v] is the image of label v.  It is the
slow, unpruned algorithm that `crownfree.canon.canonical_edges` must agree
with: same canonical edges, same permutation, same cover, and a generator
set whose closure has exactly as many elements as this group.
"""

from __future__ import annotations

from typing import Sequence

from crownfree.canon import CanonResult
from crownfree.graphs import Triple


def closure(gens, points) -> set[tuple[int, ...]]:
    """All elements of the group generated by gens (tuples indexed by
    label, mapping points onto points), as tuples giving the position in
    points of the image of each point."""
    points = tuple(points)
    index = {v: i for i, v in enumerate(points)}
    gens_t = [tuple(index[g[v]] for v in points) for g in gens]
    ident = tuple(range(len(points)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens_t:
                y = tuple(map(g.__getitem__, x))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def is_automorphism(alpha: Sequence[int], edges: Sequence[Triple]) -> bool:
    """alpha, a tuple indexed by label, is a permutation mapping edges
    onto edges."""
    es = {tuple(sorted(e)) for e in edges}
    return (sorted(alpha) == list(range(len(alpha)))
            and {tuple(sorted(alpha[v] for v in e)) for e in es} == es)


def reference_canonical_edges(n: int, edges: Sequence[Triple]) -> CanonResult:
    """Full-tree individualization-refinement: every leaf is visited and
    all of Aut(H) is returned, one length-n tuple per automorphism of the
    covered part, isolated labels fixed (identity included).
    """
    if not edges:
        return CanonResult((), tuple(range(n)), (tuple(range(n)),), ())

    cover = sorted({v for e in edges for v in e})
    k = len(cover)
    pos = {v: i for i, v in enumerate(cover)}
    # co-pairs per covered vertex: the other two endpoints of each incident edge
    copairs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for a, b, c in edges:
        pa, pb, pc = pos[a], pos[b], pos[c]
        copairs[pa].append((pb, pc))
        copairs[pb].append((pa, pc))
        copairs[pc].append((pa, pb))

    edge_pos = [(pos[a], pos[b], pos[c]) for a, b, c in edges]

    def refine(colors: list[int]) -> list[int]:
        ncells = len(set(colors))
        while True:
            sigs = []
            for v in range(k):
                cv = colors[v]
                sig = sorted(
                    (colors[u], colors[w]) if colors[u] <= colors[w] else (colors[w], colors[u])
                    for u, w in copairs[v]
                )
                sigs.append((cv, tuple(sig)))
            order = {s: i for i, s in enumerate(sorted(set(sigs)))}
            if len(order) == ncells:
                return [order[s] for s in sigs]
            colors = [order[s] for s in sigs]
            ncells = len(order)

    best_img: tuple[Triple, ...] | None = None
    best_labs: list[list[int]] = []

    def dfs(colors: list[int]) -> None:
        nonlocal best_img
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            # discrete: colors are exactly the labels 0..k-1
            img = tuple(sorted(
                tuple(sorted((colors[a], colors[b], colors[c]))) for a, b, c in edge_pos
            ))
            if best_img is None or img < best_img:
                best_img = img
                best_labs.clear()
                best_labs.append(colors)
            elif img == best_img:
                best_labs.append(colors)
            return
        base = colors
        for v in target:
            branch = [2 * c for c in base]
            branch[v] -= 1
            dfs(branch)

    dfs([0] * k)
    assert best_img is not None

    lab0 = best_labs[0]
    # automorphisms: compose each minimal labeling with the inverse of the first
    inv0 = [0] * k
    for v in range(k):
        inv0[lab0[v]] = v
    auts = []
    seen = set()
    for lab in best_labs:
        alpha = tuple(inv0[lab[v]] for v in range(k))
        if alpha not in seen:
            seen.add(alpha)
            full = list(range(n))
            for v in range(k):
                full[cover[v]] = cover[alpha[v]]
            auts.append(tuple(full))

    perm = [0] * n
    for v in range(k):
        perm[cover[v]] = lab0[v]
    nxt = k
    for v in range(n):
        if v not in pos:
            perm[v] = nxt
            nxt += 1
    return CanonResult(best_img, tuple(perm), tuple(auts), tuple(cover))
