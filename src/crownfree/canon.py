"""Exact canonical labeling for linear 3-graphs.

Iterative color refinement on vertices (colors propagated through the
triples) plus backtracking individualization.  The lexicographically
least edge list over the leaves of the individualization tree is the
canonical form; the tree itself is an isomorphism invariant, so
isomorphic graphs get identical canonical edge lists.

The partition is an ordered list of cells; a vertex's color is the
position where its cell starts.  The root is the unit partition, one
cell of all covered vertices; refinement's first round splits it into
the degree classes in increasing degree.  Refinement runs in synchronous
rounds: each round signs vertices by the sorted color pairs of their
co-pairs, using the colors at the start of the round, and splits every
cell in place by increasing signature.  Only cells next to a vertex that
changed cell in the previous round can split (at a tree node, the vertex
just individualized), so only those cells are signed; the rest would
come out unchanged.  The rounds stay synchronous on purpose: an
asynchronous splitter queue, as in nauty, would order the cells
differently, which would change the canonical forms, and with them the
canonical deletion edges and the search tree built on them.

The tree is pruned by automorphisms (McKay & Piperno, *Practical Graph
Isomorphism II*, J. Symb. Comput. 2014).  A leaf with the same edge image
as lab0, the first leaf of the least image found so far, differs from it
by an automorphism, which is recorded as a generator.  Two prunings
follow, each skipping a subtree that is the image of an explored one
under an automorphism and so has the same set of leaf images:

- at a tree node, a child vertex in the orbit of an already explored
  sibling, under the generators that fix the individualized prefix
  pointwise, is skipped;
- after recording a generator, the search jumps back to the common
  ancestor of the leaf and lab0, since the generator maps the rest of the
  current subtree onto the sibling subtree holding lab0.

Hence the least image and the first leaf reaching it are those of the
full tree, and, by induction along the path to that leaf
(orbit-stabilizer at each level), the recorded generators generate the
whole of Aut(H).  Only the generators are returned, never the group.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .graphs import LinearThreeGraph, Triple


class CanonResult(namedtuple("CanonResult", "edges perm auts cover")):
    """Canonical edge list, the relabeling achieving it, and Aut(H).

    edges: canonical edge list over covered vertices relabeled 0..k-1
      (isolated vertices do not affect it).
    perm: full permutation old label -> new label on all n vertices;
      isolated vertices get the labels k..n-1 in ascending original order.
    auts: generators of Aut(H), each a tuple g of length n where g[v] is
      the image of label v; isolated labels are fixed.  Distinct and never
      the identity, so a graph with trivial group has none.  Orbits come
      from _orbit_roots over them; the group itself is not listed.
    cover: sorted list of covered vertices (original labels).
    """

    __slots__ = ()


def canonical_form(H: LinearThreeGraph) -> CanonResult:
    return canonical_edges(H.n, H.edges)


def _find(root: list[int], x: int) -> int:
    """Root of x in the union-find root, halving the path on the way."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def _join(root: list[int], g: Sequence[int]) -> None:
    """Join each v with g[v] in the union-find root; the least point of
    each class stays its root."""
    for v, w in enumerate(g):
        if v != w:
            a, b = _find(root, v), _find(root, w)
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b


def _orbit_roots(k: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Orbit representative of each of 0..k-1 under the group of gens,
    each a permutation of 0..k-1 as a sequence; the representative is the
    least point of the orbit."""
    root = list(range(k))
    for g in gens:
        _join(root, g)
    return [_find(root, v) for v in range(k)]


def canonical_edges(n: int, edges: Sequence[Triple]) -> CanonResult:
    if not edges:
        return CanonResult((), tuple(range(n)), (), ())

    cover = sorted({v for e in edges for v in e})
    k = len(cover)
    pos = {v: i for i, v in enumerate(cover)}
    # co-pairs per covered vertex (the other two endpoints of each incident
    # edge) and the neighbours they hold, distinct since H is linear
    copairs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for a, b, c in edges:
        pa, pb, pc = pos[a], pos[b], pos[c]
        copairs[pa].append((pb, pc))
        copairs[pb].append((pa, pc))
        copairs[pc].append((pa, pb))
    nbrs = [[u for pair in cp for u in pair] for cp in copairs]

    edge_pos = [(pos[a], pos[b], pos[c]) for a, b, c in edges]

    # An ordered partition is three lists: lab, the vertices in cell order;
    # col[v], the start in lab of v's cell (its color); end[s], one past
    # the last position of the cell starting at s.
    def refine(lab: list[int], col: list[int], end: list[int], split: Sequence[int]) -> None:
        """Refine in place by synchronous rounds, given that each cell
        had one signature before the vertices in split left their cells.

        A vertex's signature is the sorted list of its co-pairs' color
        pairs, each packed as min*k + max (ordered as the pair is).  A
        round signs with the colors at its start, then splits every cell
        into pieces by increasing signature, in place.  A cell with no
        vertex next to split sees, from each of its vertices, the old
        colors under one renaming (what is left of a cell keeps one
        color), so it cannot split: only the non-singleton cells next to
        split are signed.  The next round's split is every vertex of a
        cell this one split."""
        while split:
            starts = {col[u] for v in split for u in nbrs[v]}
            todo = []
            for s in starts:
                e = end[s]
                if e - s == 1:
                    continue
                signed = []
                for v in lab[s:e]:
                    sig = []
                    for u, w in copairs[v]:
                        cu, cw = col[u], col[w]
                        sig.append(cu * k + cw if cu <= cw else cw * k + cu)
                    sig.sort()
                    signed.append((sig, v))
                signed.sort()
                if signed[0][0] != signed[-1][0]:
                    todo.append((s, signed))
            split = []
            for s, signed in todo:
                p = s
                prev = signed[0][0]
                for i, (sig, v) in enumerate(signed, s):
                    if sig != prev:
                        end[p] = i
                        p, prev = i, sig
                    lab[i] = v
                    col[v] = p
                    split.append(v)
                end[p] = s + len(signed)

    best_img: tuple[Triple, ...] | None = None
    lab0: list[int] = []
    inv0: list[int] = []
    path0: tuple[int, ...] = ()
    # automorphisms as position tuples: gens[i][v] is the image of vertex v
    gens: list[tuple[int, ...]] = []

    def dfs(lab: list[int], col: list[int], end: list[int], split: Sequence[int],
            prefix: tuple[int, ...]) -> int | None:
        """Explore the subtree at prefix; an int return asks every node
        deeper than that many individualized vertices to abandon its
        subtree."""
        nonlocal best_img, lab0, inv0, path0
        refine(lab, col, end, split)
        s = 0
        while s < k and end[s] == s + 1:
            s += 1
        if s == k:
            # discrete: colors are exactly the labels 0..k-1
            img = tuple(sorted(
                tuple(sorted((col[a], col[b], col[c]))) for a, b, c in edge_pos
            ))
            if best_img is None or img < best_img:
                best_img, lab0, inv0, path0 = img, col, lab, prefix
                return None
            if img != best_img:
                return None
            # g maps this leaf to lab0: each vertex goes to the one lab0
            # gives its label.  Leaves have distinct labelings (the
            # individualized vertex takes the least label of its cell), so
            # g is not the identity and maps this path onto path0.  It
            # fixes their common prefix and carries the rest of this
            # subtree onto the sibling subtree holding lab0, explored
            # earlier: jump back to the common ancestor.
            g = tuple(inv0[c] for c in col)
            if g not in gens:
                gens.append(g)
            common = 0
            while prefix[common] == path0[common]:
                common += 1
            return common
        depth = len(prefix)
        e = end[s]
        target = lab[s:e]
        explored: list[int] = []
        # orbits under the generators that fix prefix: a union-find that
        # joins in only the generators found since it was last read
        root = list(range(k))
        ngens = 0
        for v in target:
            if explored:
                for g in gens[ngens:]:
                    if all(g[u] == u for u in prefix):
                        _join(root, g)
                ngens = len(gens)
                r = _find(root, v)
                if any(_find(root, u) == r for u in explored):
                    continue
            explored.append(v)
            # individualize v: the cell becomes [v], rest
            blab, bcol, bend = lab[:], col[:], end[:]
            rest = [u for u in target if u != v]
            blab[s] = v
            blab[s + 1:e] = rest
            bcol[v] = s
            for u in rest:
                bcol[u] = s + 1
            bend[s] = s + 1
            bend[s + 1] = e
            jump = dfs(blab, bcol, bend, [v], prefix + (v,))
            if jump is not None and jump < depth:
                return jump
        return None

    # the root: the unit partition, one cell of all k vertices
    dfs(list(range(k)), [0] * k, [k] + [0] * (k - 1), range(k), ())
    assert best_img is not None

    auts = tuple(gens)
    if k < n:
        # positions are not labels: map them through cover and fix the
        # isolated labels
        auts = tuple(
            tuple(cover[g[pos[v]]] if v in pos else v for v in range(n)) for g in gens
        )
    perm = [0] * n
    for v in range(k):
        perm[cover[v]] = lab0[v]
    nxt = k
    for v in range(n):
        if v not in pos:
            perm[v] = nxt
            nxt += 1
    return CanonResult(best_img, tuple(perm), auts, tuple(cover))
