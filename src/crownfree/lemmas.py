"""Mechanized replays of the structural lemmas on concrete instances.

Each suite returns a ReplayReport whose failure list is empty iff the
suite passes; reports are deterministic given their seed.  The report
counts, records and times the suite's checks: ReplayReport.check counts
one instance and records a (name, detail) failure unless it held, and
ReplayReport.done stops the clock started when the report was made.
The planted instances are linear by construction and are not
validated; the section 3 replay validates its extensions, and a refused
one is a reported failure.

The seeded corpora (the planted (6,4,2) instances and the random degree
functions) take every integer draw from rng.getrandbits alone, in the way
random.Random's randint, randrange and sample use it: through _below, or
inline where one bit length serves a loop of draws.  So the corpora are
those of the plain calls, yet depend only on the Mersenne Twister's bit
stream, not on the internals of random.sample.  The planted instances
also refuse a noise triple that meets the sunflower by arithmetic on its
petal ranges, without a table of the sunflower's pairs.  At seed 7,
10,000 planted instances take 0.10 s against the plain calls' 0.27 s,
and 1,000 degree functions 0.005 s against 0.016 s (best of 7, Python
3.11 on 2 vCPUs).
"""

from __future__ import annotations

import random
import time

from .canon import canonical_edges
from .crowns import (
    ColoredLinkGraph,
    CrownWitness,
    _disjoint_triple,
    _pair_masks,
    crown_oracle,
    find_crown,
    find_crown_with_base,
    find_rainbow_matching,
    greedy_crown_642,
)
from .discharging import build_discharge_sequence, verify_discharge_trace
from .graphs import LinearityError, LinearThreeGraph, Triple, _is_int, validate_linear


class ReplayReport:
    """One suite's outcome.  It counts, records and times the suite's
    checks: the clock starts when the report is made, check() counts one
    instance and records its (name, detail) in failures unless it held,
    and done() sets elapsed_ms and returns the report."""

    def __init__(self, suite: str, seed: int | None = None):
        self.suite = suite
        self.instances = 0
        self.failures: list[tuple[str, str]] = []
        self.elapsed_ms = 0.0
        self.seed = seed
        self._t0 = time.monotonic()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.instances += 1
        if not ok:
            self.failures.append((name, detail))

    def done(self) -> ReplayReport:
        self.elapsed_ms = (time.monotonic() - self._t0) * 1000
        return self

    @property
    def passed(self) -> bool:
        """No failures over at least one instance: a suite that checked
        nothing does not pass."""
        return not self.failures and self.instances > 0

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "failures": [list(f) for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
            "passed": self.passed,
        }

    def summary(self) -> str:
        if self.failures:
            status = f"FAIL ({len(self.failures)} failures)"
        else:
            status = "PASS" if self.instances else "FAIL (no instances)"
        return f"{self.suite}: {self.instances} instances, {status}, {self.elapsed_ms:.0f} ms"


# -- the fixed rainbow-free link graph of a (5,5,5) base -------------------------

# Vertex conventions for the fixed graph: base vertices a,b,c = 0,1,2 and
# link vertices v1..v8 = 3..10.  The labeling is pinned so that the edges
# {v1,v4,a}, {v2,v4,c}, {v6,v7,a} all exist in the induced 3-graph.
A, B, C = 0, 1, 2
V = [None] + list(range(3, 11))  # V[i] is v_i


def canonical_link_graph_G() -> ColoredLinkGraph:
    """Two 4-cycles alternating in colors a/b, with the c-edges as diagonals."""
    edges = [
        (V[1], V[4], A), (V[2], V[3], A),
        (V[1], V[2], B), (V[3], V[4], B),
        (V[1], V[3], C), (V[2], V[4], C),
        (V[6], V[7], A), (V[5], V[8], A),
        (V[5], V[6], B), (V[7], V[8], B),
        (V[5], V[7], C), (V[6], V[8], C),
    ]
    colored = tuple(sorted((min(u, w), max(u, w), x) for u, w, x in edges))
    return ColoredLinkGraph((A, B, C), frozenset(range(3, 11)), colored)


def induced_graph_of_G() -> LinearThreeGraph:
    """The 13-edge 3-graph: base {a,b,c} plus one edge per colored link edge."""
    G = canonical_link_graph_G()
    triples = [(A, B, C)] + [tuple(sorted((x, u, w))) for u, w, x in G.colored_edges]
    return validate_linear(triples, 11)


def _encode_colored(G_edges) -> tuple:
    """Canonical form of a 3-edge-colored graph up to vertex relabeling and
    color permutation, by encoding color classes as three extra vertices.

    Each colored edge {u,w}/c becomes the triple {u, w, X_c}.  Color
    vertices have degree 4 and ordinary vertices at most 3, so 3-graph
    isomorphisms are exactly the color-permuting graph isomorphisms.
    """
    verts = sorted({v for u, w, _ in G_edges for v in (u, w)})
    colors = sorted({c for _, _, c in G_edges})
    relabel = {v: i for i, v in enumerate(verts)}
    base = len(verts)
    cmap = {c: base + i for i, c in enumerate(colors)}
    triples = [tuple(sorted((relabel[u], relabel[w], cmap[c]))) for u, w, c in G_edges]
    return canonical_edges(base + len(colors), tuple(sorted(triples))).edges


def _two_colour_classes() -> list[tuple[list, int]]:
    """One (b_class, n_after_b) per isomorphism class of two 4-matchings
    sharing no pair, colour A on the pairs (0,1), (2,3), (4,5), (6,7).

    Every vertex meets at most one edge of each colour, so the graph is a
    disjoint union of alternating cycles and paths: cycles of 4, 6 or 8
    edges (no 2-cycles, as B shares no pair with A) and paths of 1 to 8
    edges.  Two such graphs are colour-preserving isomorphic iff they have
    the same multiset of components (cycle or path, edge count, end
    colour); only an odd path has a single end colour, the others get -1.
    A colour swap flips only the odd paths' end colours, so the lesser of
    the sorted multiset and its swapped copy keys the class.  The first
    multiset of each of the 32 classes, of the 42 with four edges of each
    colour, is laid out component by component, every A edge on the next
    pinned pair and every other path end on the next fresh vertex 8, 9, ...
    """
    comps = [(0, l, -1) for l in (4, 6, 8)] + [(1, l, -1) for l in (2, 4, 6, 8)]
    comps += [(1, l, c) for l in (1, 3, 5, 7) for c in (0, 1)]
    # edges of colour A; an odd path starts and ends on its end colour
    a_edges = [(l + (c != 1)) // 2 for _, l, c in comps]

    multisets: dict[tuple, list] = {}  # class key -> its first multiset

    def rec(start: int, chosen: list, a_left: int, b_left: int):
        if a_left == b_left == 0:
            swapped = [(t, l, 1 - c if c >= 0 else c) for t, l, c in chosen]
            multisets.setdefault(min(tuple(sorted(chosen)), tuple(sorted(swapped))), chosen)
            return
        for i in range(start, len(comps)):
            a, b = a_edges[i], comps[i][1] - a_edges[i]
            if a <= a_left and b <= b_left:
                rec(i, chosen + [comps[i]], a_left - a, b_left - b)

    rec(0, [], 4, 4)

    classes = []
    for multiset in multisets.values():
        next_a, fresh, b_class = 0, 8, []
        for kind, l, c in multiset:
            verts = [None] * (l + kind)  # a path has one vertex more
            odd = c == 1  # edge i has colour (i + odd) % 2
            for i in range(odd, l, 2):
                verts[i], verts[(i + 1) % len(verts)] = next_a, next_a + 1
                next_a += 2
            for i, v in enumerate(verts):
                if v is None:
                    verts[i], fresh = fresh, fresh + 1
            for i in range(1 - odd, l, 2):
                u, w = verts[i], verts[(i + 1) % len(verts)]
                b_class.append((min(u, w), max(u, w)))
        classes.append((b_class, fresh))
    return classes


def _matchings4(existing_pairs: set, n_used: int, rainbow_veto=None):
    """All size-4 matchings over the current vertices 0..n_used-1 plus fresh
    vertices introduced consecutively, pairs listed in increasing order;
    enumerate_555_link_graphs draws its third colour class from it.

    rainbow_veto(pair), when given, prunes a pair that already completes a
    rainbow triple with the previously fixed color classes.
    """
    out = []

    def rec(cur: list, used_v: set, n_cur: int, last_pair):
        if len(cur) == 4:
            out.append((list(cur), n_cur))
            return
        for u in range(n_cur + 1):
            if u in used_v:
                continue
            wmax = n_cur + 1 if u == n_cur else n_cur
            for w in range(u + 1, wmax + 1):
                if w in used_v:
                    continue
                pr = (u, w)
                if last_pair is not None and pr <= last_pair:
                    continue
                if pr in existing_pairs:
                    continue
                if rainbow_veto is not None and rainbow_veto(pr):
                    continue
                rec(cur + [pr], used_v | {u, w}, max(n_cur, w + 1), pr)

    rec([], set(), n_used, None)
    return out


def enumerate_555_link_graphs() -> list[tuple]:
    """All rainbow-matching-free link graphs of a (5,5,5) base, up to
    color-permuting isomorphism, returned as canonical encodings.

    Each color class is a matching of four edges; underlying pairs are
    distinct across colors (the ambient 3-graph is linear).  The first
    class is pinned to four fixed disjoint pairs (any matching relabels to
    it).  The second class is laid out once per isomorphism class of the
    two-class prefix by _two_colour_classes, which keys the 32 classes by
    their multisets of alternating cycles and paths instead of listing the
    3,763 prefixes.  Each class gets every third class, so the result does
    not depend on which member of a class is laid out.  A partial third class
    is pruned as soon as one of its pairs completes a rainbow triple, so
    every completion is rainbow-free and is not searched again; the
    completions are deduplicated by canonical labelling.
    """
    first = [(0, 1), (2, 3), (4, 5), (6, 7)]
    pairs_a = set(first)
    masks_a = _pair_masks(first)
    results: set[tuple] = set()
    for b_class, n_after_b in _two_colour_classes():
        pairs_ab = pairs_a | set(b_class)

        def veto(pr, _mb=_pair_masks(b_class)):
            return _disjoint_triple(_pair_masks([pr]), masks_a, _mb) is not None

        for c_class, _ in _matchings4(pairs_ab, n_after_b, rainbow_veto=veto):
            colored = (
                [(u, w, 0) for u, w in first]
                + [(u, w, 1) for u, w in b_class]
                + [(u, w, 2) for u, w in c_class]
            )
            results.add(_encode_colored(colored))
    return sorted(results)


def encode_canonical_G() -> tuple:
    return _encode_colored(canonical_link_graph_G().colored_edges)


# -- suite replays ----------------------------------------------------------------

def replay_section3() -> ReplayReport:
    """Replay the crown-extension argument around a (5,5,5) base edge."""
    rep = ReplayReport(suite="replay3")
    H0 = induced_graph_of_G()
    base_id = H0.edges.index((A, B, C))
    rep.check("base degree vector", H0.degree_vector(base_id) == (5, 5, 5))
    rep.check("|E| = 13", len(H0.edges) == 13)
    rep.check("H0 crown-free (oracle)", crown_oracle(H0) is None)
    X = set(range(11))
    ex_count = len(H0.edges_covering(X))
    rep.check("|E_X| = 13", ex_count == 13, f"got {ex_count}")
    rep.check("13 < 5|X|/3", 3 * ex_count < 5 * len(X))
    degs = H0.degrees()
    rep.check("degrees in {3,5}", sorted(set(degs)) == [3, 5]
              and all(degs[v] == 5 for v in (A, B, C))
              and all(degs[v] == 3 for v in range(3, 11)))

    v1, v2, v4, v5, v6, v7 = V[1], V[2], V[4], V[5], V[6], V[7]
    for case, (w1, w2, n2) in (
        ("w1 = v5", (v5, 11, 12)),
        ("w1 fresh", (11, 12, 13)),
    ):
        f = tuple(sorted((v1, w1, w2)))
        try:
            H = validate_linear(list(H0.edges) + [f], n2)
        except LinearityError as exc:
            rep.check(f"{case}: extension is linear", False, str(exc))
            continue
        rep.check(f"{case}: extension is linear", True)
        rep.check(f"{case}: crown found", find_crown(H) is not None)
        base = H.edges.index(tuple(sorted((v1, v4, A))))
        jewels = (
            H.edges.index(f),
            H.edges.index(tuple(sorted((v2, v4, C)))),
            H.edges.index(tuple(sorted((v6, v7, A)))),
        )
        try:
            CrownWitness(base, jewels).validate(H)
            rep.check(f"{case}: stated witness validates", True)
        except ValueError as exc:
            rep.check(f"{case}: stated witness validates", False, str(exc))
        rep.check(f"{case}: crown with stated base", find_crown_with_base(H, base) is not None)
    return rep.done()


def verify_links555() -> ReplayReport:
    rep = ReplayReport(suite="links555")
    classes = enumerate_555_link_graphs()
    rep.instances = len(classes)
    if len(classes) != 1:
        rep.failures.append(("class count", f"expected 1, got {len(classes)}"))
    elif classes[0] != encode_canonical_G():
        rep.failures.append(("class identity", "sole class differs from the fixed graph"))
    G = canonical_link_graph_G()
    if find_rainbow_matching(G) is not None:
        rep.failures.append(("fixed graph", "has a rainbow matching"))
    for col in (A, B, C):
        cl = G.color_class(col)
        if len(cl) != 4 or len({v for e in cl for v in e}) != 8:
            rep.failures.append(("fixed graph", f"color {col} is not a perfect matching"))
    # every edge of one color meets exactly two edges of each other color
    for col in (A, B, C):
        for u, w in G.color_class(col):
            for other in (A, B, C):
                if other == col:
                    continue
                hits = sum(1 for x, y in G.color_class(other) if {u, w} & {x, y})
                if hits != 2:
                    rep.failures.append(
                        ("intersection pattern", f"edge ({u},{w}) color {col} hits {hits} of {other}")
                    )
    return rep.done()


def _below(getrandbits, m: int) -> int:
    """Uniform int in [0, m), m >= 1, drawn as random.Random draws
    randrange(m): getrandbits(m.bit_length()) until the value is below m."""
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def plant_642_instance(rng: random.Random) -> tuple[LinearThreeGraph, int]:
    """Random linear graph with a planted edge whose degree vector dominates
    (6,4,2): a sunflower through a base edge plus random linear noise.

    Linear by construction, so not validated.  The base (0, 1, 2) is the
    least triple, so it is edge 0.  The petals at 0, 1 and 2 are
    (v, x, x + 1) for the odd x in [3, ea), [ea, eb) and [eb, end), fresh
    vertices below n.  A sorted noise triple a < b < c is refused when one
    of its pairs is taken:
    - by the base, when b < 3;
    - by a petal at its centre, when a < 3 and b or c lies in a's range;
    - by a petal's two fresh vertices x < y, when x >= 3, y < end and
      (x - 3) >> 1 == (y - 3) >> 1;
    - by an earlier noise edge, the only pairs stored.

    Every draw goes through rng.getrandbits alone, in the order and with
    the bit counts that rng.randint and rng.sample(range(n), 3) use: by
    _below for the first draws and the pool swap, and with n's bit length
    inline for the redraw.  So each instance, and rng's state after it, is
    that of the plain calls, which tests/lemma_reference.py keeps."""
    g = rng.getrandbits
    da = 6 + _below(g, 4)
    db = 4 + _below(g, min(da, 8) - 3)
    dc = 2 + _below(g, min(db, 6) - 1)
    ea = 1 + 2 * da
    eb = ea + 2 * (db - 1)
    end = eb + 2 * (dc - 1)
    # the base's 3 vertices, 2 fresh ones per petal, up to 6 spare ones
    n = end + _below(g, 7)
    lo = (3, ea, eb, end)  # the petals at v take the vertices [lo[v], lo[v + 1])
    edges: list[Triple] = [(0, 1, 2)]
    edges += [(0, x, x + 1) for x in range(3, ea, 2)]
    edges += [(1, x, x + 1) for x in range(ea, eb, 2)]
    edges += [(2, x, x + 1) for x in range(eb, end, 2)]
    pairs = set()  # the noise edges' pairs x < y, keyed as x*n + y
    bits = n.bit_length()
    for _ in range(_below(g, 13)):
        # three distinct vertices, drawn as random.sample draws k = 3 of n
        if n <= 21:  # its pool swap, for n up to its setsize
            pool = list(range(n))
            j = _below(g, n)
            a, pool[j] = pool[j], pool[n - 1]
            j = _below(g, n - 1)
            b, pool[j] = pool[j], pool[n - 2]
            c = pool[_below(g, n - 2)]
        else:  # its redraw of a repeat; a draw >= n is redrawn as by _below
            a = g(bits)
            while a >= n:
                a = g(bits)
            b = g(bits)
            while b >= n or b == a:
                b = g(bits)
            c = g(bits)
            while c >= n or c == a or c == b:
                c = g(bits)
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        if b < 3:
            continue
        if a < 3:
            if lo[a] <= b < lo[a + 1] or lo[a] <= c < lo[a + 1]:
                continue
        elif b < end and (a - 3) >> 1 == (b - 3) >> 1:
            continue
        if c < end and (b - 3) >> 1 == (c - 3) >> 1:
            continue
        p, q, r = a * n + b, a * n + c, b * n + c
        if p in pairs or q in pairs or r in pairs:
            continue
        pairs.update((p, q, r))
        edges.append((a, b, c))
    return LinearThreeGraph(n, tuple(sorted(edges))), 0


def verify_lemma1_on_corpus(seed: int = 0, count: int = 1000) -> ReplayReport:
    """Planted-(6,4,2) corpus: the greedy witness must always validate,
    and a crown with the planted base must always be found.
    greedy_crown_642 tests the base's domination of (6,4,2) itself, so an
    instance that lost it is reported as a greedy failure.  A count or
    seed that is not an int, bools included, is a ValueError."""
    if not _is_int(count):
        raise ValueError(f"count must be an int, not {count!r}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, not {seed!r}")
    rep = ReplayReport(suite="lemma1", seed=seed)
    rng = random.Random(seed)
    for i in range(count):
        H, e = plant_642_instance(rng)
        try:
            greedy_crown_642(H, e)
        except (ValueError, AssertionError) as exc:
            rep.check(f"instance {i}", False, f"greedy failed: {exc}")
            continue
        ok = find_crown_with_base(H, e) is not None
        rep.check(f"instance {i}", ok, "no crown found with planted base")
    return rep.done()


def min_counterexample_order() -> int:
    """Least n >= 1 where the linearity cap n(n-1)/6 reaches the 5n/3
    counter-example threshold; pure integer arithmetic."""
    n = 1
    while 3 * n * (n - 1) < 30 * n:  # n(n-1)/6 >= 5n/3, cross-multiplied
        n += 1
    return n


def verify_order11() -> ReplayReport:
    rep = ReplayReport(suite="order11")
    got = min_counterexample_order()
    rep.check("order", got == 11, f"expected 11, got {got}")
    return rep.done()


def verify_discharge_suite(seed: int = 0, count: int = 200) -> ReplayReport:
    """Random valid degree functions through the builder and the verifier,
    including planted large degrees; one verifier call per instance also
    checks the Delta_v bound at every vertex of degree >= 9.  A count or
    seed that is not an int, bools included, is a ValueError."""
    if not _is_int(count):
        raise ValueError(f"count must be an int, not {count!r}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, not {seed!r}")
    rep = ReplayReport(suite="discharge", seed=seed)
    rng = random.Random(seed)
    for i in range(count):
        d = random_degree_function(rng)
        try:
            trace = build_discharge_sequence(d)
        except (ValueError, AssertionError) as exc:
            rep.check(f"instance {i}", False, f"builder failed: {exc}")
            continue
        ok, bad = verify_discharge_trace(trace, d)
        rep.check(f"instance {i}", ok, "; ".join(bad))
    return rep.done()


def random_degree_function(rng: random.Random) -> list[int]:
    """Seeded degree function with sum 5n + l, min >= 2, n <= 40, and an
    occasional planted degree in 9..15.

    Draws as rng.randint and rng.randrange do, on rng.getrandbits like
    plant_642_instance: through _below for n, l and the planted degree,
    and with n's bit length inline for each unit added."""
    g = rng.getrandbits
    n = 3 + _below(g, 38)
    l = _below(g, 3)
    target = 5 * n + l
    d = [2] * n
    if rng.random() < 0.7:
        d[_below(g, n)] = 9 + _below(g, 7)  # the degree is drawn before the vertex
    remaining = target - sum(d)
    if remaining < 0:  # planted degree overshot on a tiny n
        d = [2] * n
        remaining = target - sum(d)
    bits = n.bit_length()
    for _ in range(remaining):
        v = g(bits)
        while v >= n:
            v = g(bits)
        d[v] += 1
    return d


# suite name -> callable(seed, count); suites without a corpus ignore both
ALL_SUITES = {
    "lemma1": verify_lemma1_on_corpus,
    "links555": lambda seed, count: verify_links555(),
    "replay3": lambda seed, count: replay_section3(),
    "discharge": verify_discharge_suite,
    "order11": lambda seed, count: verify_order11(),
}


def run_suite(name: str, seed: int = 0, count: int = 1000) -> ReplayReport:
    if name not in ALL_SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return ALL_SUITES[name](seed, count)
