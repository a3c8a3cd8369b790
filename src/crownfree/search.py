"""Isomorph-free exact computation of the crown Turán number for small n.

Generation is strict canonical augmentation (McKay, *Isomorph-free
exhaustive generation*, J. Algorithms 26, 1998).  Expanding a node H
runs four steps.  First the candidate additions are listed.  Crown-free
runs then drop, in one crowns.crown_free_additions call per parent, the
candidates that would make a crown through the new edge; the parent is
crown-free, so that is exactly when the child has a crown.  The
survivors are cut to one per Aut(H)-orbit, the first in candidate order,
by union-find over their indices under the generators canonical
labelling returns; the crown test is Aut(H)-invariant, so the survivors
are a union of orbits.  Only then is a child node H+e built, and it is
accepted exactly when e lies in the Aut(H+e)-orbit of its deletion edge.
That edge is chosen by an invariant first, the least sorted
endpoint-degree triple, and only a tie there is broken by canonical
labelling (the last canonical image), so most children need no
labelling.  Each class is then reached exactly once and children need
no dedupe.
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
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .canon import CanonResult, canonical_edges
from .crowns import crown_free_additions, crown_oracle, find_crown
from .graphs import LinearThreeGraph, Triple, from_edges_trusted, validate_linear


@dataclass
class ExtremalCertificate:
    """Exact value of the crown Turán number with witnesses and evidence."""

    n: int
    value: int
    witnesses: list[tuple[Triple, ...]]  # canonical edge lists, sorted, capped
    nodes_explored: int
    exhaustive: bool
    elapsed_seconds: float
    params: dict = field(default_factory=dict)

    def witness_graphs(self) -> list[LinearThreeGraph]:
        return [from_edges_trusted(self.n, w) for w in self.witnesses]

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
    """Search node: edges plus cheap derived state.  Everything is fixed
    at construction except canon, which canonical() fills in lazily: when
    _accept has to break a tie, or when the node is expanded or kept as a
    witness."""

    __slots__ = ("edges", "cov", "pairs", "degs", "canon")

    def __init__(self, edges: tuple[Triple, ...], cov: int, pairs: frozenset,
                 degs: tuple[int, ...]):
        self.edges = edges
        self.cov = cov
        self.pairs = pairs
        self.degs = degs
        self.canon: CanonResult | None = None

    def canonical(self) -> CanonResult:
        if self.canon is None:
            self.canon = canonical_edges(max(self.cov, 1), self.edges)
        return self.canon

    def graph(self) -> LinearThreeGraph:
        return from_edges_trusted(self.cov if self.cov else 1, self.edges)


def _root() -> _Node:
    return _Node((), 0, frozenset(), ())


def _extend(node: _Node, e: Triple) -> _Node:
    """Child node for edge e."""
    cov = max(node.cov, e[2] + 1)
    edges = tuple(sorted(node.edges + (e,)))
    degs = list(node.degs) + [0] * (cov - node.cov)
    for v in e:
        degs[v] += 1
    pairs = node.pairs | {(e[0], e[1]), (e[0], e[2]), (e[1], e[2])}
    return _Node(edges, cov, pairs, tuple(degs))


def _candidate_edges(node: _Node, max_vertices: int) -> list[Triple]:
    """Feasible additions in lexicographic order: free pairs only, new
    vertices taken consecutively.  A triple on covered vertices is built
    from a free pair (a, b) and a third vertex c > b."""
    cov = node.cov
    pairs = node.pairs
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


def _orbit(t: Triple, gens) -> Iterator[Triple]:
    """The orbit of t under the group generated by gens (each fixing the
    labels it does not map), yielded lazily by closing t under them."""
    seen = {t}
    frontier = [t]
    while frontier:
        u = frontier.pop()
        yield u
        for alpha in gens:
            img = tuple(sorted(alpha.get(v, v) for v in u))
            if img not in seen:
                seen.add(img)
                frontier.append(img)


def _orbit_reps(candidates: list[Triple], gens) -> list[Triple]:
    """One representative per orbit of gens on candidates, the first in
    candidate order.  candidates must be closed under gens.  Orbits are
    found by union-find over candidate indices, one union per candidate
    and generator, with the root kept at the least index."""
    if not gens:
        return candidates
    index = {(1 << a) | (1 << b) | (1 << c): i for i, (a, b, c) in enumerate(candidates)}
    parent = list(range(len(candidates)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    top = max((t[2] for t in candidates), default=0)
    for alpha in gens:
        img = [1 << alpha.get(v, v) for v in range(1 + max(top, max(alpha, default=0)))]
        for i, (a, b, c) in enumerate(candidates):
            ri, rj = root(i), root(index[img[a] | img[b] | img[c]])
            if ri < rj:
                parent[rj] = ri
            elif rj < ri:
                parent[ri] = rj
    return [t for i, t in enumerate(candidates) if parent[i] == i]


def _accept(child: _Node, e: Triple) -> bool:
    """Strict canonical-augmentation test: is e in the Aut(child)-orbit of
    the child's deletion edge?

    The deletion edge is taken from the edges with the least sorted
    endpoint-degree triple; if that class has more than one edge, the tie
    goes to the edge with the last canonical image.  The class and the
    orbit are isomorphism invariants, so the test does not depend on the
    labelling.  Only a tie needs canonical labelling.
    """
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
    return e in _orbit(d, canon.auts)


def _walk(max_vertices: int, crown_free: bool) -> Iterator[_Node]:
    """The one depth-first traversal: every node, root first, one per
    isomorphism class, each yielded before it is expanded.  Expansion runs
    the four steps of the module docstring; the crown cut applies only if
    crown_free.  A child node is built only for an orbit representative."""
    stack = [_root()]
    while stack:
        node = stack.pop()
        yield node
        candidates = _candidate_edges(node, max_vertices)
        if crown_free:
            candidates = crown_free_additions(node.edges, candidates)
        for e in _orbit_reps(candidates, node.canonical().auts):
            child = _extend(node, e)
            if _accept(child, e):
                stack.append(child)


# -- generation ----------------------------------------------------------------

def generate_all(max_vertices: int, crown_free_only: bool = False) -> Iterator[LinearThreeGraph]:
    """Yield one representative per isomorphism class of linear 3-graphs
    whose covered vertices fit in max_vertices labels.

    With crown_free_only, subtrees containing a crown are cut (crown-free
    graphs are closed under edge deletion, so this loses nothing).
    """
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
    classes plus one, the empty root.  The incumbent is seeded with the
    lower-bound gadget, so a budget stop returns at least its edge count.
    threads selects no code path: it is only recorded in the
    certificate's params.  Every witness returned (at most
    WITNESS_CAP) is rechecked against crown_oracle.

    A NaN or negative budget is a ValueError.  Both budgets are checked
    before each node is taken, and a stop returns exhaustive=False.
    max_seconds can therefore be overrun by the expansion of one node (its
    candidates' crown checks and canonical tests) plus the witness recheck
    after the search.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if max_seconds is not None and (math.isnan(max_seconds) or max_seconds < 0):
        raise ValueError(f"max_seconds must be a number >= 0, not {max_seconds}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0, not {max_nodes}")
    t0 = time.monotonic()
    seed_graph = lower_bound_construction(n)
    best = len(seed_graph.edges)
    found: set[tuple[Triple, ...]] = set()
    if seed_graph.edges:
        found.add(canonical_edges(n, seed_graph.edges).edges)
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
    for w in witnesses:
        g = from_edges_trusted(n, w)
        if len(g.edges) != best:
            raise AssertionError(f"witness has {len(g.edges)} edges, not {best}")
        validate_linear(g.edges, n)
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
    """
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

    Returns fewer than m edges if RETRY_BUDGET rejections come before
    saturation.  A negative n or m is a ValueError.
    """
    if n < 0 or m < 0:
        raise ValueError(f"need n >= 0 and m >= 0, not n = {n}, m = {m}")
    if m > n * (n - 1) // 6:
        raise ValueError(f"m = {m} exceeds the linearity cap n(n-1)/6 = {n * (n - 1) // 6}")
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    edges: list[Triple] = []
    misses = 0
    while len(edges) < m and misses < RETRY_BUDGET:
        t = tuple(sorted(rng.sample(range(n), 3)))
        ps = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
        if any(p in pairs for p in ps):
            misses += 1
            continue
        pairs.update(ps)
        edges.append(t)
    return from_edges_trusted(n, edges)


def densify_crown_free(n: int, seed: int, iterations: int = 2000) -> LinearThreeGraph:
    """Heuristic dense crown-free witness: add-if-legal with random removal kicks.

    Starts from the lower-bound gadget so the result never falls below it;
    returns the best graph seen.  Never claims optimality.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    cur = list(lower_bound_construction(n).edges)
    best = list(cur)

    def legal_additions(edges: list[Triple]) -> list[Triple]:
        pairs = {p for e in edges for p in combinations(e, 2)}
        free = [
            t for t in combinations(range(n), 3)
            if (t[0], t[1]) not in pairs and (t[0], t[2]) not in pairs
            and (t[1], t[2]) not in pairs
        ]
        return crown_free_additions(edges, free)

    for _ in range(iterations):
        adds = legal_additions(cur)
        if adds:
            cur.append(rng.choice(adds))
        else:
            if len(cur) > len(best):
                best = list(cur)
            drop = rng.randrange(1, min(3, len(cur)) + 1) if cur else 0
            for _ in range(drop):
                cur.pop(rng.randrange(len(cur)))
        if len(cur) > len(best):
            best = list(cur)
    H = from_edges_trusted(n, best)
    if find_crown(H) is not None:
        raise AssertionError("densified graph has a crown")
    return H
