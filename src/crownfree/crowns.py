"""Crown detection via link graphs and rainbow matchings.

A crown is a base edge plus three pairwise disjoint jewels, one through
each base vertex.  Equivalently, the 3-edge-colored link graph of the base
has a rainbow matching, so find_crown_with_base does not validate the
witness it builds from one.  The scan that splits a base's link into
its colour classes keeps its last result, so back-to-back calls on one
graph object and base reuse it: each planted Lemma 1 instance is
scanned once, though greedy_crown_642 and find_crown_with_base both
check it.  Those classes are shared lists, so no caller may change them.
For growing a graph edge by edge, CrownTables answers whether a triple
would lie on a crown, and is carried from a graph to the graph plus one
edge by adding that edge at its three vertices: the search builds each
child's tables from its parent's when it builds the child.  A
brute-force oracle, the definition read base by base on plain sets, is
kept alongside as an independent check.
It takes about 0.003, 0.008 and 0.02 s on the lower-bound gadget at
n = 43, 63 and 103 (one core of a 2-vCPU host, Python 3.11).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations, product

from .graphs import LinearThreeGraph, Triple, dominates


class ColoredLinkGraph(namedtuple("ColoredLinkGraph", "base vertices colored_edges")):
    """Link graph G(e) of a base edge, with edges colored by base vertex.

    colored_edges holds (u, v, color) with u < v; color is the base vertex
    through which the originating 3-graph edge passes.
    """

    __slots__ = ()

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


class CrownWitness(namedtuple("CrownWitness", "base jewels")):
    """Base edge id plus a tuple of three jewel edge ids certifying a crown."""

    __slots__ = ()

    def validate(self, H: LinearThreeGraph) -> None:
        """Check the witness invariants against H.  A bad witness is a
        ValueError, as are jewels that are not a tuple of three ids.  All
        four ids are resolved through H.edge before they are compared, so
        an id that is not an int, an unhashable one included, is edge()'s
        ValueError, and one that names no edge of H its IndexError."""
        if not (type(self.jewels) is tuple and len(self.jewels) == 3):
            raise ValueError(f"jewels must be a tuple of three edge ids, not {self.jewels!r}")
        ids = (self.base,) + self.jewels
        base, *jewels = [set(H.edge(i)) for i in ids]
        if len(set(ids)) != 4:
            raise ValueError(f"witness edges not distinct: {ids}")
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


_last_link: tuple = (None, None, None)  # (H, e, classes) of the last finished scan


def _link_classes(H: LinearThreeGraph, e: int) -> tuple[list, list, list]:
    """The link of base e split by base vertex: for each vertex x of e in
    turn, the (y, z, i), y < z, of every other edge i = {x, y, z} meeting
    e at x, in edge-id order.  An edge sharing two vertices with e is a
    ValueError.  find_crown_with_base, link_graph and greedy_crown_642
    read a base's link through it.

    The last finished scan is kept, holding H itself, so a call for the
    same graph object and edge id, made after e passes H.edge, returns
    the same lists without scanning again: the lemma1 corpus checks each
    planted base with greedy_crown_642 and then find_crown_with_base on
    one scan.  The lists are shared, so no caller may change them."""
    global _last_link
    base = H.edge(e)
    last_H, last_e, last_classes = _last_link
    if last_H is H and last_e == e:
        return last_classes
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
    _last_link = (H, e, classes)
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


def _disjoint_triple(la: Sequence[int], lb: Sequence[int], lc: Sequence[int]) -> tuple[int, int, int] | None:
    """First index triple (i, j, k) in product order for which the masks
    la[i], lb[j] and lc[k] are pairwise disjoint, or None.  The rainbow
    and base tests ask this of the masks of three colour classes."""
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


class CrownTables:
    """The bitmask tables of one linear graph that say, for a triple t
    sharing at most one vertex with each edge, whether adding t makes a
    crown through t.  Per vertex v:
    - at[v]: the masks of the edges through v.
    - nbrs[v]: the mask of the vertices that share an edge with v, so a
      pair {u, v} is free iff bit u of nbrs[v] is clear.
    Entries run to the largest covered label plus three, the labels a new
    triple can take; a table is never changed once built.  extend(t)
    gives the tables of the graph plus t, changing only the entries at
    t's three vertices.  The search builds every child's tables,
    including the children its canonical test then rejects.  Adding t to
    a crown-free graph creates a crown iff one goes through t, as its
    base or as one of its jewels, so free(t) is how the search filters a
    node's candidates.
    """

    __slots__ = ("at", "nbrs")

    def __init__(self, at: list[tuple[int, ...]], nbrs: list[int]):
        self.at = at
        self.nbrs = nbrs

    @classmethod
    def of(cls, edges: Sequence[Triple], size: int = 3) -> CrownTables:
        """The tables of edges, with entries for at least labels below size."""
        tables = cls([()] * size, [0] * size)
        for f in edges:
            tables = tables.extend(f)
        return tables

    def extend(self, t: Triple) -> CrownTables:
        """The tables of the graph plus t, for a sorted t that shares at
        most one vertex with each edge."""
        a, b, c = t
        ba, bb, bc = 1 << a, 1 << b, 1 << c
        tm = ba | bb | bc
        at, nbrs = self.at[:], self.nbrs[:]
        grow = c + 4 - len(at)
        if grow > 0:
            at += [()] * grow
            nbrs += [0] * grow
        at[a] += (tm,)
        at[b] += (tm,)
        at[c] += (tm,)
        nbrs[a] |= bb | bc
        nbrs[b] |= ba | bc
        nbrs[c] |= ba | bb
        return CrownTables(at, nbrs)

    def free(self, t: Triple) -> bool:
        """True iff adding t, whose labels have entries, makes no crown
        through t.

        t is the jewel at v of a base f = {v, y, z} when some g at y and
        some h at z miss t and each other; f meets t, so it is neither.
        t is a base when three edges, one at each of its vertices, are
        pairwise disjoint.  Most triples that make a crown make it only as
        a jewel, so that case is tested first."""
        a, b, c = t
        tm = (1 << a) | (1 << b) | (1 << c)
        at = self.at
        for v in t:
            for mf in at[v]:
                rest = mf ^ (1 << v)
                y = (rest & -rest).bit_length() - 1
                at_z = at[rest.bit_length() - 1]
                for mg in at[y]:
                    if not mg & tm:
                        mgt = mg | tm
                        for mh in at_z:
                            if not mh & mgt:
                                return False  # t is a jewel
        return _disjoint_triple(at[a], at[b], at[c]) is None  # t is no base


def find_crown(H: LinearThreeGraph) -> CrownWitness | None:
    """First crown witness scanning bases in edge-id order; None iff crown-free."""
    for e in range(len(H.edges)):
        w = find_crown_with_base(H, e)
        if w is not None:
            return w
    return None


def greedy_crown_642(H: LinearThreeGraph, e: int) -> CrownWitness:
    """Constructive witness for a base with degree vector >= (6,4,2).

    Degrees and jewels come from the base's link classes: in a linear
    graph every other edge through a base vertex meets the base there
    alone, so the vertex's degree is its class size plus one.  Picks a
    jewel through the minimum-degree endpoint, then one through the
    middle endpoint avoiding it, then one through the maximum-degree
    endpoint avoiding both; the counting argument guarantees each choice
    exists.  Endpoints of equal degree go in label order, and each jewel
    is the least edge id available.
    """
    order = sorted([(len(cls) + 1, v, cls) for v, cls in zip(H.edge(e), _link_classes(H, e))])
    dv = (order[2][0], order[1][0], order[0][0])
    if not dominates(dv, (6, 4, 2)):
        raise ValueError(f"degree vector {dv} does not dominate (6, 4, 2)")
    chosen: list[int] = []
    used: set[int] = set()
    for _, v, cls in order:
        for y, z, i in cls:
            if y not in used and z not in used:
                break
        else:  # cannot happen under the precondition
            raise AssertionError(f"no available jewel through vertex {v}")
        chosen.append(i)
        used.update((y, z))  # a jewel meets the base at its own vertex alone
    w = CrownWitness(e, tuple(chosen))
    w.validate(H)
    return w


def crown_oracle(H: LinearThreeGraph) -> CrownWitness | None:
    """Independent brute force: the definition read base by base, on sets.

    For each base b in edge-id order, list at each vertex v of b the other
    edges meeting b in v alone, and return the first pairwise disjoint
    triple in product order.  Shares no code with find_crown.  Detection
    proper goes through find_crown; exact_ex rechecks every witness it
    returns with this oracle, and the tests compare the two.
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
