"""Isomorph-free exact computation of the crown Turán number for small n.

Generation is canonical augmentation: a child H+e is accepted only when
deleting the canonical-deletion edge of H+e (the edge mapped to the
lexicographically last canonical edge) lands back on the parent's
isomorphism class; candidate additions are filtered down to one per
Aut(H)-orbit (closing each candidate under the generators that canonical
labelling returns) and accepted children are deduplicated per parent, so
each class is visited exactly once.  Crown-free runs cut a candidate
before its canonical test when crowns.has_crown_containing finds a crown
through the new edge; the parent is crown-free, so that is exactly when
the child has a crown.  One routine, _children, expands a node for both
generate_all and exact_ex.  exact_ex walks the tree in one serial
depth-first loop (the root has a single child, so there is nothing to
split across workers); it additionally prunes by an edge-capacity bound
and keeps an incumbent seeded from the lower-bound gadget.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .canon import CanonResult, canonical_edges
from .crowns import crown_oracle, find_crown, has_crown_containing
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
    at construction except canon, which _extend leaves None and _accept
    fills in."""

    __slots__ = ("edges", "cov", "pairs", "degs", "canon")

    def __init__(self, edges: tuple[Triple, ...], cov: int, pairs: frozenset,
                 degs: tuple[int, ...], canon: CanonResult):
        self.edges = edges
        self.cov = cov
        self.pairs = pairs
        self.degs = degs
        self.canon = canon

    def graph(self) -> LinearThreeGraph:
        return from_edges_trusted(self.cov if self.cov else 1, self.edges)


def _root() -> _Node:
    return _Node((), 0, frozenset(), (), canonical_edges(1, ()))


def _extend(node: _Node, e: Triple) -> _Node | None:
    """Child node for edge e, without canonical form (filled by caller)."""
    cov = max(node.cov, e[2] + 1)
    edges = tuple(sorted(node.edges + (e,)))
    degs = list(node.degs) + [0] * (cov - node.cov)
    for v in e:
        degs[v] += 1
    pairs = node.pairs | {(e[0], e[1]), (e[0], e[2]), (e[1], e[2])}
    return _Node(edges, cov, pairs, tuple(degs), None)


def _candidate_edges(node: _Node, max_vertices: int) -> list[Triple]:
    """Feasible additions: free pairs only, new vertices taken consecutively."""
    cov = node.cov
    out: list[Triple] = []
    pairs = node.pairs
    for t in combinations(range(cov), 3):
        if (t[0], t[1]) in pairs or (t[0], t[2]) in pairs or (t[1], t[2]) in pairs:
            continue
        out.append(t)
    if cov + 1 <= max_vertices:
        for p in combinations(range(cov), 2):
            if p not in pairs:
                out.append((p[0], p[1], cov))
    if cov + 2 <= max_vertices:
        for i in range(cov):
            out.append((i, cov, cov + 1))
    if cov + 3 <= max_vertices:
        out.append((cov, cov + 1, cov + 2))
    return out


def _orbit_reps(candidates: list[Triple], gens) -> list[Triple]:
    """One representative per Aut(H)-orbit, the first in candidate order.

    gens generate Aut(H) (identity on not-yet-used labels); each orbit is
    the closure of its representative under them.
    """
    if not gens:
        return candidates
    seen: set[Triple] = set()
    reps: list[Triple] = []
    for e in candidates:
        if e in seen:
            continue
        reps.append(e)
        seen.add(e)
        frontier = [e]
        while frontier:
            t = frontier.pop()
            for alpha in gens:
                img = tuple(sorted(alpha.get(v, v) for v in t))
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
    return reps


def _invariant(edges: tuple[Triple, ...]) -> tuple:
    """Cheap isomorphism invariant used to fast-reject parent mismatches."""
    deg: dict[int, int] = {}
    for a, b, c in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
        deg[c] = deg.get(c, 0) + 1
    dvs = sorted(
        tuple(sorted((deg[a], deg[b], deg[c]), reverse=True)) for a, b, c in edges
    )
    return (tuple(sorted(deg.values())), tuple(dvs))


def _accept(node: _Node, child: _Node, e: Triple, node_inv: tuple) -> bool:
    """Canonical-augmentation test: canonical deletion must recover the
    parent.  node_inv is _invariant(node.edges)."""
    child.canon = canonical_edges(max(child.cov, 1), child.edges)
    last = child.canon.edges[-1]
    perm = child.canon.perm
    d = None
    for f in child.edges:
        if tuple(sorted((perm[f[0]], perm[f[1]], perm[f[2]]))) == last:
            d = f
            break
    assert d is not None
    if d == e:
        return True
    rest = tuple(f for f in child.edges if f != d)
    if _invariant(rest) != node_inv:
        return False
    return canonical_edges(max(child.cov, 1), rest).edges == node.canon.edges


def _children(node: _Node, max_vertices: int, crown_free: bool) -> list[_Node]:
    """Accepted children of node, one per isomorphism class: candidates,
    one per Aut(H)-orbit, minus those creating a crown (if crown_free),
    minus those failing the canonical-augmentation test, deduplicated."""
    seen: set[tuple[Triple, ...]] = set()
    out: list[_Node] = []
    inv = _invariant(node.edges)
    for e in _orbit_reps(_candidate_edges(node, max_vertices), node.canon.auts):
        child = _extend(node, e)
        if crown_free and has_crown_containing(child.edges, e):
            continue
        if not _accept(node, child, e, inv):
            continue
        if child.canon.edges in seen:
            continue
        seen.add(child.canon.edges)
        out.append(child)
    return out


# -- generation ----------------------------------------------------------------

def generate_all(max_vertices: int, crown_free_only: bool = False) -> Iterator[LinearThreeGraph]:
    """Yield one representative per isomorphism class of linear 3-graphs
    whose covered vertices fit in max_vertices labels.

    With crown_free_only, subtrees containing a crown are cut (crown-free
    graphs are closed under edge deletion, so this loses nothing).
    """
    stack = [_root()]
    while stack:
        node = stack.pop()
        if node.edges:
            yield node.graph()
        stack.extend(_children(node, max_vertices, crown_free_only))


# -- exact Turán number ----------------------------------------------------------

def _capacity_bound(node: _Node, n: int) -> int:
    """Upper bound on the number of edges any extension within n vertices
    can reach: free pairs per vertex, two per edge per endpoint."""
    total_pairs = n * (n - 1) // 2 - 3 * len(node.edges)
    cap_pairs = len(node.edges) + total_pairs // 3
    free_slots = 0
    for v in range(n):
        d = node.degs[v] if v < node.cov else 0
        free_slots += ((n - 1) - 2 * d) // 2
    cap_vertex = len(node.edges) + free_slots // 3
    return min(cap_pairs, cap_vertex)


WITNESS_CAP = 10  # witnesses kept in a certificate, the least canonical first


def exact_ex(
    n: int,
    max_seconds: float | None = None,
    max_nodes: int | None = None,
    threads: int = 1,
    unsafe_5n3_prune: bool = False,
) -> ExtremalCertificate:
    """Exact crown Turán number on n vertices by isomorph-free search.

    The search is one serial depth-first loop.  threads selects no code
    path: it is only recorded in the certificate's params.  The incumbent
    is seeded with the lower-bound gadget.  The theorem-level 5n/3 cap is
    never used for pruning unless unsafe_5n3_prune is set (it would be
    circular in any run meant as evidence).  On budget exhaustion the best
    incumbent is returned with exhaustive=False.  Every witness returned
    (at most WITNESS_CAP) is rechecked against crown_oracle.

    Both budgets are checked on every node visited.  max_seconds can
    therefore be overrun by the expansion of one node (its candidates'
    crown checks and canonical tests) plus the lower-bound set-up before
    the search and the witness recheck after it.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    t0 = time.monotonic()
    seed_graph = lower_bound_construction(n)
    best = len(seed_graph.edges)
    found: set[tuple[Triple, ...]] = set()
    if seed_graph.edges:
        found.add(canonical_edges(n, seed_graph.edges).edges)
    nodes = 0
    deadline = t0 + max_seconds if max_seconds is not None else None
    hard_cap = (5 * n - 1) // 3 if unsafe_5n3_prune else None

    stack = [_root()]
    exhaustive = True
    while stack:
        node = stack.pop()
        nodes += 1
        if (max_nodes is not None and nodes > max_nodes) or (
            deadline is not None and time.monotonic() > deadline
        ):
            exhaustive = False
            break
        m = len(node.edges)
        if m > best:
            best, found = m, set()
        if m == best and m > 0:
            found.add(node.canon.edges)
        bound = _capacity_bound(node, n)
        if hard_cap is not None:
            bound = min(bound, hard_cap)
        if bound >= best:
            stack.extend(_children(node, n, crown_free=True))

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
        params={
            "threads": threads,
            "max_seconds": max_seconds,
            "max_nodes": max_nodes,
            "unsafe_5n3_prune": unsafe_5n3_prune,
        },
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
    if crown_oracle(H) is not None:
        raise AssertionError("lower-bound gadget failed self-certification")
    return H


RETRY_BUDGET = 2000  # rejected triples before random_linear_graph gives up


def random_linear_graph(n: int, m: int, seed: int) -> LinearThreeGraph:
    """Seeded random linear graph: rejection-sample triples avoiding pair reuse.

    Returns fewer than m edges if RETRY_BUDGET rejections come before
    saturation.
    """
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
        out = []
        for t in combinations(range(n), 3):
            if (t[0], t[1]) in pairs or (t[0], t[2]) in pairs or (t[1], t[2]) in pairs:
                continue
            if not has_crown_containing(edges + [t], t):
                out.append(t)
        return out

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
