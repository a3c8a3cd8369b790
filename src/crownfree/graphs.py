"""Linear 3-uniform hypergraphs: construction, validation, primitive queries, I/O.

Vertices are dense 0-based indices.  Edges are strictly increasing triples,
the edge list is lexicographically sorted and duplicate-free, and any two
edges share at most one vertex (linearity).  validate_linear checks
linearity with a pair table it builds and drops; the graph keeps no index.
It is the check for triples from outside the program (the parsers, the
library API); code that builds its edges increasing and linear by
construction calls the LinearThreeGraph constructor directly.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

Triple = tuple[int, int, int]


class LinearityError(ValueError):
    """Raised when a raw triple list fails validation as a linear 3-graph."""


def degree_vector(degs: Sequence[int] | Mapping[int, int], edge: Iterable[int]) -> Triple:
    """Non-increasing triple (x, y, z) of an edge's endpoint degrees under
    degs, a degree list or a map from at least the edge's vertices."""
    return tuple(sorted((degs[v] for v in edge), reverse=True))


def dominates(d1: Triple, d2: Triple) -> bool:
    """True iff d1 >= d2 in all three coordinates."""
    return d1[0] >= d2[0] and d1[1] >= d2[1] and d1[2] >= d2[2]


class LinearThreeGraph(namedtuple("LinearThreeGraph", "n edges")):
    """An immutable linear 3-graph on vertices 0..n-1: the named pair
    (n, edges), edges a tuple of Triples.

    Do not call the constructor directly with unvalidated data; use
    validate_linear() for raw input.
    """

    __slots__ = ()

    # -- primitive queries -------------------------------------------------

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for a, b, c in self.edges:
            d[a] += 1
            d[b] += 1
            d[c] += 1
        return d

    def degree_vector(self, e: int) -> Triple:
        """Non-increasing triple of endpoint degrees of edge e."""
        return degree_vector(self.degrees(), self.edge(e))

    def edge(self, e: int) -> Triple:
        """Edge e's triple.  An e that is not an int, a bool included, is
        a ValueError, and one outside 0..m-1 an IndexError; every query
        that names an edge by id reads it here."""
        edges = self.edges
        if type(e) is not int and not _is_int(e):  # plain ints skip the call: the crown scans' hot path
            raise ValueError(f"edge id must be an int, not {e!r}")
        if not (0 <= e < len(edges)):
            raise IndexError(f"edge id {e} out of range (m={len(edges)})")
        return edges[e]

    def edges_covering(self, xs: Iterable[int]) -> set[int]:
        """E_X: ids of all edges containing at least one vertex of X."""
        xs = list(xs)  # an iterator is read once
        for v in xs:  # before set() can fold True into 1 or refuse a list
            self._check_vertex(v)
        xset = set(xs)
        return {i for i, e in enumerate(self.edges) if xset & set(e)}

    def remove_vertices(self, xs: Iterable[int]) -> tuple["LinearThreeGraph", dict[int, int]]:
        """Delete X and E_X, reindex the rest; returns (graph, old->new map)."""
        xs = list(xs)
        drop = self.edges_covering(xs)  # checks each vertex of X
        xset = set(xs)
        if len(xset) == self.n:
            raise ValueError("cannot remove all vertices: vertex set must stay non-empty")
        keep = [v for v in range(self.n) if v not in xset]
        relabel = {v: i for i, v in enumerate(keep)}
        new_edges = sorted(
            tuple(sorted((relabel[a], relabel[b], relabel[c])))
            for i, (a, b, c) in enumerate(self.edges)
            if i not in drop
        )
        return LinearThreeGraph(len(keep), tuple(new_edges)), relabel

    def _check_vertex(self, v: int) -> None:
        """The vertex counterpart of edge(): ValueError on a non-int v,
        IndexError on one outside 0..n-1."""
        if type(v) is not int and not _is_int(v):
            raise ValueError(f"vertex must be an int, not {v!r}")
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range (n={self.n})")

    # -- serialization -----------------------------------------------------

    def to_l3g(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{a} {b} {c}" for a, b, c in self.edges)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _is_int(x) -> bool:
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def validate_linear(triples: Iterable[Sequence[int]], n: int) -> LinearThreeGraph:
    """Validate and normalize a raw triple list into a LinearThreeGraph.

    Raises LinearityError on an n that is not a positive int, on triples
    that are not iterable, or naming the first offending triple or pair of
    edges: a triple that is not a sequence, out-of-range index, repeated
    vertex within a triple, duplicate edge, or two edges sharing two
    vertices.  One loop reads the triples once (a generator is not copied
    to a list) and checks and sorts each.  After one sort of the edge list,
    one dict from each pair x < y to the first edge holding it finds the
    first duplicate edge or shared pair; a shared pair's message names
    both edges from the dict.
    """
    if not _is_int(n):
        raise LinearityError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise LinearityError("vertex set must be non-empty (n >= 1)")
    try:
        triples = iter(triples)
    except TypeError:
        raise LinearityError(f"triples must be an iterable of edges, got {triples!r}") from None
    norm: list[Triple] = []
    for t in triples:
        try:
            t = list(t)
        except TypeError:
            raise LinearityError(f"edge {t!r} is not a sequence of vertices") from None
        if len(t) != 3:
            raise LinearityError(f"edge {t} does not have 3 vertices")
        for v in t:
            if not _is_int(v):
                raise LinearityError(f"edge {t} has a non-integer vertex")
            if not (0 <= v < n):
                raise LinearityError(f"edge {t}: vertex {v} out of range [0, {n})")
        if len(set(t)) < 3:
            raise LinearityError(f"edge {t} repeats a vertex")
        norm.append(tuple(sorted(t)))
    norm.sort()
    holder: dict[tuple[int, int], int] = {}  # pair x < y -> first edge holding it
    for i, (a, b, c) in enumerate(norm):
        for pair in ((a, b), (a, c), (b, c)):
            j = holder.setdefault(pair, i)
            if j != i:
                if norm[i] == norm[i - 1]:
                    raise LinearityError(f"duplicate edge {list(norm[i])}")
                raise LinearityError(
                    f"edges #{j} {list(norm[j])} and #{i} {list(norm[i])} share pair {set(pair)}"
                )
    return LinearThreeGraph(n, tuple(norm))


# -- L3G text format ---------------------------------------------------------

def parse_l3g(text: str) -> LinearThreeGraph:
    """Parse the L3G text format; errors carry 1-based line numbers."""
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data.append((lineno, line))
    if not data:
        raise LinearityError("empty L3G input: missing 'n m' header")
    lineno, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise LinearityError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise LinearityError(f"line {lineno}: header must be two integers") from None
    body = data[1:]
    if len(body) != m:
        raise LinearityError(f"expected {m} edge lines, found {len(body)}")
    triples: list[Triple] = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise LinearityError(f"line {lineno}: expected 3 integers, got {line!r}")
        try:
            a, b, c = (int(p) for p in parts)
        except ValueError:
            raise LinearityError(f"line {lineno}: expected 3 integers, got {line!r}") from None
        if not (a < b < c):
            raise LinearityError(f"line {lineno}: triple must be strictly increasing")
        triples.append((a, b, c))
    for i in range(1, len(triples)):
        if triples[i - 1] >= triples[i]:
            raise LinearityError(f"edge lines not in strict lexicographic order near line {body[i][0]}")
    return validate_linear(triples, n)


def parse_json_graph(text: str) -> LinearThreeGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LinearityError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise LinearityError("invalid JSON: nesting too deep") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise LinearityError("JSON graph must be an object with 'n' and 'edges'")
    n, edges = obj["n"], obj["edges"]
    if not isinstance(edges, list):
        raise LinearityError("JSON 'edges' must be a list of 3-integer lists")
    for t in edges:
        if not (isinstance(t, list) and len(t) == 3 and all(_is_int(v) for v in t)):
            raise LinearityError(f"JSON edge {t!r} is not a list of 3 integers")
    return validate_linear(edges, n)
