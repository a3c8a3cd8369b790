"""Isomorph-free exact computation of the crown Turán number for small n.

Generation is strict canonical augmentation (McKay, *Isomorph-free
exhaustive generation*, J. Algorithms 26, 1998).  A child H+e is
accepted exactly when e lies in the Aut(H+e)-orbit of its deletion edge.
That edge is chosen by invariants first: the least sorted
endpoint-degree triple (the key), then among those the least sorted
triple of vertex keys (_vertex_keys: a vertex's degree, then the sorted
degree pairs of its co-pairs).  Only a tie on both is broken by
canonical labelling (the last canonical image), as McKay and Piperno
(J. Symb. Comput. 60, 2014) use cheap invariants before individualising.
Expanding a node H runs five steps, cheapest first.  The candidate
additions are listed, less the covered triples that miss a least-degree
vertex, which cannot have the least key; free pairs are read off the
neighbour masks of H's crown tables.  Those whose key in H+e is not
least among its edges are dropped, read off H's degrees without building
H+e (_least_key_additions).  Crown-free runs then drop the candidates e
for which H's tables say not free(e), those that would make a crown
through the new edge; the parent is crown-free, so that is exactly when
the child has a crown.  The tables (crowns.CrownTables) are not rebuilt
per node: a child extends its parent's by its own edge when it is built,
which changes only the entries at the edge's three vertices, and reads
its degrees off them, a vertex's degree being its number of edge masks.
If at least two candidates are left and two of them have the same sorted
triple of H's vertex keys, H is labelled and they are cut to one per
Aut(H)-orbit, the first in candidate order; if every candidate's triple
differs, each is its own orbit and the cut would keep them all.  That
cut needs the candidates to be a union of orbits, and both filters keep
one: whether e's key is least in H+e, and whether H+e has a crown
through e, depend only on the isomorphism type of the pair (H, e),
which an automorphism of H fixes.
Last a child node H+e is built for each candidate left, and a tie on its
keys is broken as above.  Most parents need no labelling and most
children none either.  Each class is then reached exactly once and
children need no dedupe.
Both orbit steps use one representation and one union-find: the
generators of CanonResult.auts, tuples indexed by label, are turned into
permutations of the indices of a triple list closed under them (the
candidates, or the child's edges), and canon._orbit_roots joins the
indices, keeping the least index of each orbit as its root.
One generator, _walk, is the only traversal: a serial depth-first walk
that yields each node before expanding it.  generate_all yields the
graph of every non-root node; exact_ex is a fold over the crown-free
walk that keeps the largest edge count, the classes at that count and
the node count, and checks the two budgets.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations

from .canon import CanonResult, _orbit_roots, canonical_edges
from .crowns import CrownTables, crown_oracle, find_crown
from .graphs import LinearThreeGraph, Triple, _is_int, validate_linear


class ExtremalCertificate(namedtuple("ExtremalCertificate", "n value witnesses nodes_explored "
                                     "exhaustive elapsed_seconds params")):
    """Exact value of the crown Turán number with witnesses and evidence.

    witnesses is a list of canonical edge lists, sorted and capped (see
    exact_ex); params is a dict of the search's arguments.
    """

    __slots__ = ()

    def witness_graphs(self) -> list[LinearThreeGraph]:
        return [LinearThreeGraph(self.n, w) for w in self.witnesses]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "witnesses": [[list(e) for e in w] for w in self.witnesses],
            "witnesses_l3g": [g.to_l3g() for g in self.witness_graphs()],
            "nodes_explored": self.nodes_explored,
            "exhaustive": self.exhaustive,
            "elapsed_seconds": self.elapsed_seconds,
            "params": dict(self.params),
        }


# -- internal node state -------------------------------------------------------


class _Node:
    """Search node: edges and the node's crowns.CrownTables, which _extend
    builds from the parent's, plus what is read off the tables.  degs[v] is
    the number of edge masks at label v, its degree; the tables have
    entries for the covered labels and the three new ones, so cov is
    len(degs) - 3 and degs ends with three zeros.  Everything is fixed at
    construction except canon: canonical() labels the node when _accept
    has to break a tie, when two candidates left to cut to orbits share
    their vertex keys, or when the node is kept as a witness."""

    __slots__ = ("edges", "cov", "degs", "tables", "canon")

    def __init__(self, edges: tuple[Triple, ...], tables: CrownTables):
        self.edges = edges
        self.tables = tables
        self.degs = tuple(map(len, tables.at))
        self.cov = len(self.degs) - 3
        self.canon: CanonResult | None = None

    def canonical(self) -> CanonResult:
        if self.canon is None:
            self.canon = canonical_edges(max(self.cov, 1), self.edges)
        return self.canon

    def graph(self) -> LinearThreeGraph:
        return LinearThreeGraph(self.cov or 1, self.edges)


def _root() -> _Node:
    return _Node((), CrownTables.of(()))


def _extend(node: _Node, e: Triple) -> _Node:
    """Child node for edge e: node's tables extended by e, from which the
    child reads its degrees and cov."""
    return _Node(tuple(sorted(node.edges + (e,))), node.tables.extend(e))


def _candidate_edges(node: _Node, max_vertices: int) -> list[Triple]:
    """Feasible additions in lexicographic order, free pairs only and new
    vertices taken consecutively, less the covered triples that cannot
    pass _least_key_additions.  A pair {u, v} is free iff bit v of the
    neighbour mask nbrs[u] of the node's tables is clear.

    Let u be a covered vertex of least degree δ (every covered vertex is
    on an edge).  A covered triple e missing u has key at least
    (δ+1, δ+1, δ+1) in node + e, while an edge at u keeps u's degree δ, so
    e is not least.  Covered triples are therefore listed only through
    every least-degree covered vertex, and none when there are more than
    three.  The triples through new vertices are all listed."""
    cov = node.cov
    nbrs = node.tables.nbrs
    out: list[Triple] = []
    if node.edges:
        degs = node.degs
        least = min(degs[:cov])
        low = [v for v in range(cov) if degs[v] == least]
        if len(low) <= 3:
            # a vertex can join low only if it shares no edge with them
            near = 0
            for v in low:
                near |= nbrs[v] | 1 << v
            rest = [x for x in range(cov) if not near >> x & 1]
            for r in combinations(rest, 3 - len(low)):
                a, b, c = sorted(low + list(r))
                if not nbrs[a] & (1 << b | 1 << c) and not nbrs[b] >> c & 1:
                    out.append((a, b, c))
            out.sort()
    if cov + 1 <= max_vertices:
        out += [(a, b, cov) for a, b in combinations(range(cov), 2) if not nbrs[a] >> b & 1]
    if cov + 2 <= max_vertices:
        out += [(i, cov, cov + 1) for i in range(cov)]
    if cov + 3 <= max_vertices:
        out.append((cov, cov + 1, cov + 2))
    return out


def _index_perms(triples: Sequence[Triple], gens: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Each generator in gens as a permutation of the indices of triples,
    which must be closed under gens.  Labels past the end of a generator,
    the new vertices cov, cov+1 and cov+2 of a candidate, stay fixed."""
    index = {(1 << a) | (1 << b) | (1 << c): i for i, (a, b, c) in enumerate(triples)}
    perms = []
    for g in gens:
        n = len(g)
        bit = [1 << v for v in g] + [1 << v for v in range(n, n + 3)]
        perms.append([index[bit[a] | bit[b] | bit[c]] for a, b, c in triples])
    return perms


def _orbit_reps(candidates: list[Triple], gens: Sequence[tuple[int, ...]]) -> list[Triple]:
    """One representative per orbit of gens on candidates, the first in
    candidate order: the indices that are their own root under
    canon._orbit_roots, whose root is the least index of an orbit.
    candidates must be closed under gens."""
    if not gens:
        return candidates
    roots = _orbit_roots(len(candidates), _index_perms(candidates, gens))
    return [t for i, t in enumerate(candidates) if roots[i] == i]


def _least_key_additions(node: _Node, candidates: list[Triple]) -> list[Triple]:
    """The candidates e whose sorted endpoint-degree triple (the key) in
    node + e is least among the edges of node + e, ties kept.  Read off the
    parent's degrees without building node + e, keys packed into ints.

    Adding e raises each key by at most one degree, so an edge f can have a
    smaller key than e in node + e only if its key in node is already
    smaller: either f misses e, and e fails, or f meets e in one vertex (e
    uses free pairs only) and e fails if f's key with that vertex's degree
    raised by one is still smaller.  Scanning the parent's edges in key
    order therefore stops at the first key not below e's."""
    s = (node.cov + 3).bit_length()  # degrees stay below cov + 3
    d = node.degs
    mid, top = 1 << s, 1 << 2 * s
    table = []  # (key in node, vertex mask, {vertex bit: key with it raised})
    for a, b, c in node.edges:
        da, db, dc = d[a], d[b], d[c]
        x, y, z = sorted((da, db, dc))
        fk = (x << s | y) << s | z
        # raising the last sorted entry equal to a degree keeps the triple
        # sorted; a later key overwrites an equal earlier one
        bump = {x: top, y: mid, z: 1}
        table.append((fk, 1 << a | 1 << b | 1 << c,
                      {1 << a: fk + bump[da], 1 << b: fk + bump[db], 1 << c: fk + bump[dc]}))
    table.sort()
    one = top | mid | 1  # e's key in node + e: each of its degrees plus one
    out = []
    for e in candidates:
        a, b, c = e
        x, y, z = d[a], d[b], d[c]  # sorted by three compare-swaps
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        k = ((x << s | y) << s | z) + one
        mask = 1 << a | 1 << b | 1 << c
        for fk, fmask, raised in table:
            if fk >= k:
                out.append(e)
                break
            meet = fmask & mask
            if not meet or raised[meet] < k:
                break
        else:
            out.append(e)
    return out


def _vertex_keys(node: _Node) -> list[tuple]:
    """An isomorphism invariant of each label up to cov + 2: a covered
    vertex's degree, then the sorted degree pairs of its co-pairs (the
    other two vertices of each edge through it); a new vertex, label cov
    or more, gets (0, ())."""
    d = node.degs
    co: list[list[tuple[int, int]]] = [[] for _ in d]
    for a, b, c in node.edges:
        da, db, dc = d[a], d[b], d[c]
        co[a].append((db, dc) if db <= dc else (dc, db))
        co[b].append((da, dc) if da <= dc else (dc, da))
        co[c].append((da, db) if da <= db else (db, da))
    return [(d[v], tuple(sorted(p))) for v, p in enumerate(co)]


def _accept(child: _Node, e: Triple) -> bool:
    """Strict canonical-augmentation test, for an e that passed
    _least_key_additions: is e in the Aut(child)-orbit of the child's
    deletion edge?

    The deletion edge is taken from the edges with the least sorted
    endpoint-degree triple, e's; among those, from the edges with the
    least sorted triple of _vertex_keys, which e must have; if that still
    leaves more than one edge, the tie goes to the edge with the last
    canonical image.  Both classes and the orbit are isomorphism
    invariants, so the test does not depend on the labelling.  Only the
    last tie needs canonical labelling, and then the orbit is read from
    canon._orbit_roots over the child's edges.
    """
    degs = child.degs
    key = sorted((degs[e[0]], degs[e[1]], degs[e[2]]))
    ties = [f for f in child.edges if sorted((degs[f[0]], degs[f[1]], degs[f[2]])) == key]
    if len(ties) == 1:
        return True
    vk = _vertex_keys(child)
    ekey = sorted((vk[e[0]], vk[e[1]], vk[e[2]]))
    least = []
    for f in ties:
        fk = sorted((vk[f[0]], vk[f[1]], vk[f[2]]))
        if fk < ekey:
            return False
        if fk == ekey:
            least.append(f)
    if len(least) == 1:
        return True
    canon = child.canonical()
    perm = canon.perm
    d = max(least, key=lambda f: sorted((perm[f[0]], perm[f[1]], perm[f[2]])))
    edges = child.edges
    roots = _orbit_roots(len(edges), _index_perms(edges, canon.auts))
    return roots[edges.index(e)] == roots[edges.index(d)]


def _walk(max_vertices: int, crown_free: bool) -> Iterator[_Node]:
    """The one depth-first traversal: every node, root first, one per
    isomorphism class, each yielded before it is expanded.  Expansion runs
    the steps of the module docstring; the crown cut, free(e) on the
    node's tables, applies only if crown_free.  A node is labelled for its
    orbits only if two candidates are left with the same sorted triple of
    _vertex_keys, and a child node, which extends the node's tables by
    its edge, is built only for an orbit representative."""
    stack = [_root()]
    while stack:
        node = stack.pop()
        yield node
        candidates = _least_key_additions(node, _candidate_edges(node, max_vertices))
        if crown_free:
            candidates = [t for t in candidates if node.tables.free(t)]
        if len(candidates) > 1:
            vk = _vertex_keys(node)
            keys = {tuple(sorted((vk[a], vk[b], vk[c]))) for a, b, c in candidates}
            if len(keys) < len(candidates):
                candidates = _orbit_reps(candidates, node.canonical().auts)
        for e in candidates:
            child = _extend(node, e)
            if _accept(child, e):
                stack.append(child)


# -- generation ----------------------------------------------------------------

def generate_all(max_vertices: int, crown_free_only: bool = False) -> Iterator[LinearThreeGraph]:
    """Yield one representative per isomorphism class of linear 3-graphs
    whose covered vertices fit in max_vertices labels.

    With crown_free_only, subtrees containing a crown are cut (crown-free
    graphs are closed under edge deletion, so this loses nothing).
    A max_vertices that is not an int, bools included, raises ValueError
    on first iteration.
    """
    if not _is_int(max_vertices):
        raise ValueError(f"max_vertices must be an int, not {max_vertices!r}")
    for node in _walk(max_vertices, crown_free_only):
        if node.edges:
            yield node.graph()


# -- exact Turán number ----------------------------------------------------------

WITNESS_CAP = 10  # witnesses kept in a certificate, the least canonical first


def exact_ex(
    n: int,
    max_seconds: float | None = None,
    max_nodes: int | None = None,
    threads: int = 1,
) -> ExtremalCertificate:
    """Exact crown Turán number on n vertices by isomorph-free search.

    A fold over the walk of every crown-free class on at most n vertices:
    it keeps the largest edge count m and the canonical forms of the
    classes at that m.  No node is pruned (the theorem's 5n/3 bound is not
    used), so nodes_explored of an exhaustive run is the number of those
    classes plus one, the empty root.  The incumbent count is seeded with
    the lower-bound gadget's, so a budget stop returns at least its edge
    count.  The gadget is not labelled: an exhaustive walk reaches its
    class, and a stop before any walked node reaches its count returns
    the gadget's own edge list as the one witness.
    threads selects no code path: it is only recorded in the
    certificate's params.  Every witness returned (at most
    WITNESS_CAP) is rechecked against crown_oracle.

    A non-int max_nodes or threads (bools included) is a ValueError, as
    are a threads below 1, a max_seconds that is a bool or not an int or
    float, and a NaN, infinite or negative budget.  These are checked
    first, so a bad budget never waits for the gadget to be built; n is
    then checked by lower_bound_construction, whose ValueErrors for a
    non-int n and an n below 3 are exact_ex's.  Both budgets are
    checked before each node is taken, and a stop returns exhaustive=False.
    max_seconds can therefore be overrun by the expansion of one node (its
    candidates' crown checks and canonical tests).  The budget does not
    cover building the gadget before the search, nor the crown_oracle
    recheck of up to WITNESS_CAP witnesses after it.  Both are small: a
    1 s budget stops within 0.5 s of it for n <= 403.  Both grow with the
    square of the gadget's edge count (its find_crown self-check, the
    oracle on it), so past that the overrun is seconds: 2 s at n = 1003
    and 10 s at n = 2003 (see the README).
    """
    if max_seconds is not None and not (
        (_is_int(max_seconds) or isinstance(max_seconds, float)) and 0 <= max_seconds < math.inf
    ):
        raise ValueError(f"max_seconds must be a finite number >= 0, not {max_seconds!r}")
    if max_nodes is not None and not _is_int(max_nodes):
        raise ValueError(f"max_nodes must be an int, not {max_nodes!r}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0, not {max_nodes}")
    if not _is_int(threads):
        raise ValueError(f"threads must be an int, not {threads!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, not {threads}")
    t0 = time.monotonic()
    seed_graph = lower_bound_construction(n)
    best = len(seed_graph.edges)
    found: set[tuple[Triple, ...]] = set()
    nodes = 0
    deadline = t0 + max_seconds if max_seconds is not None else None

    exhaustive = True
    for node in _walk(n, crown_free=True):
        if (max_nodes is not None and nodes >= max_nodes) or (
            deadline is not None and time.monotonic() > deadline
        ):
            exhaustive = False
            break
        nodes += 1
        m = len(node.edges)
        if m > best:
            best, found = m, set()
        if m == best and m > 0:
            found.add(node.canonical().edges)

    witnesses = sorted(found)[:WITNESS_CAP]
    if not witnesses and best:
        witnesses = [seed_graph.edges]
    for w in witnesses:
        g = validate_linear(w, n)
        if len(g.edges) != best:
            raise AssertionError(f"witness has {len(g.edges)} edges, not {best}")
        if crown_oracle(g) is not None:
            raise AssertionError("witness fails the crown oracle")
    return ExtremalCertificate(
        n=n,
        value=best,
        witnesses=witnesses,
        nodes_explored=nodes,
        exhaustive=exhaustive,
        elapsed_seconds=time.monotonic() - t0,
        params={"threads": threads, "max_seconds": max_seconds, "max_nodes": max_nodes},
    )


# -- constructions and generators -------------------------------------------------

def lower_bound_construction(n: int) -> LinearThreeGraph:
    """Crown-free linear graph on n vertices with 6*floor((n-3)/4) edges.

    Three hub vertices; each group of four fresh vertices contributes the
    six pairs of a K4, properly 3-colored into perfect matchings, each pair
    joined to the hub of its color.  Every edge contains a hub, and the two
    candidate jewels at the non-hub vertices of any base always intersect,
    so no crown exists; both properties are re-verified before returning.
    A non-int n (bools included) or one below 3 is a ValueError.
    """
    if not _is_int(n):
        raise ValueError(f"n must be an int, not {n!r}")
    if n < 3:
        raise ValueError("need n >= 3")
    k = (n - 3) // 4
    edges: list[Triple] = []
    for g in range(k):
        p, q, r, s = (3 + 4 * g + i for i in range(4))
        edges += [(0, p, q), (0, r, s), (1, p, r), (1, q, s), (2, p, s), (2, q, r)]
    H = validate_linear(edges, n)
    if find_crown(H) is not None:
        raise AssertionError("lower-bound gadget failed self-certification")
    return H


RETRY_BUDGET = 2000  # rejected triples before random_linear_graph gives up


def random_linear_graph(n: int, m: int, seed: int) -> LinearThreeGraph:
    """Seeded random linear graph: rejection-sample triples avoiding pair reuse.

    Returns fewer than m edges if the graph saturates (no triple with three
    free pairs is left) or RETRY_BUDGET rejections come first.  Saturation
    is tested when the rejection count is a power of two; every later draw
    would be rejected, so stopping there gives the same edges.  A non-int
    n or m (bools included), an n below 1 or a negative m is a ValueError,
    since a graph needs a non-empty vertex set, and so is a seed that is
    not an int, bools included.
    """
    if not (_is_int(n) and _is_int(m)):
        raise ValueError(f"n and m must be ints, not n = {n!r}, m = {m!r}")
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, not n = {n}, m = {m}")
    if m > n * (n - 1) // 6:
        raise ValueError(f"m = {m} exceeds the linearity cap n(n-1)/6 = {n * (n - 1) // 6}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, not {seed!r}")
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    edges: list[Triple] = []
    misses = 0
    while len(edges) < m and misses < RETRY_BUDGET:
        t = tuple(sorted(rng.sample(range(n), 3)))
        ps = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
        if any(p in pairs for p in ps):
            misses += 1
            if not misses & (misses - 1) and _saturated(n, pairs):
                break
            continue
        pairs.update(ps)
        edges.append(t)
    return LinearThreeGraph(n, tuple(sorted(edges)))


def _saturated(n: int, pairs: set[tuple[int, int]]) -> bool:
    """True iff every triple on range(n) has a pair in `pairs`."""
    return not any(
        (a, b) not in pairs and (a, c) not in pairs and (b, c) not in pairs
        for a, b, c in combinations(range(n), 3)
    )
