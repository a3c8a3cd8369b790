import hashlib
import random
from itertools import combinations, product

import pytest

from crownfree import (
    crown_oracle,
    dominates,
    find_crown,
    find_crown_with_base,
    find_rainbow_matching,
    greedy_crown_642,
    link_graph,
    validate_linear,
)
from crownfree import lemmas, search
from crownfree.crowns import ColoredLinkGraph, CrownTables, CrownWitness, _disjoint_triple, _link_classes
from crownfree.graphs import LinearThreeGraph
from crownfree.lemmas import induced_graph_of_G, plant_642_instance
from crownfree.search import _extend, _root, generate_all, random_linear_graph

from conftest import CROWN_EDGES, ag23
from crown_reference import has_crown_containing, is_crown
from search_reference import all_candidate_edges


def sunflower(da, db, dc):
    """Base (0,1,2) with da-1 / db-1 / dc-1 fresh-vertex petals per endpoint."""
    edges = [(0, 1, 2)]
    nxt = 3
    for v, d in ((0, da), (1, db), (2, dc)):
        for _ in range(d - 1):
            edges.append(tuple(sorted((v, nxt, nxt + 1))))
            nxt += 2
    return validate_linear(edges, nxt), 0  # planted edge is (0,1,2) = id 0


class TestLinkGraph:
    def test_crown_base_link(self, crown):
        base = crown.edges.index((0, 1, 2))
        G = link_graph(crown, base)
        assert set(G.colored_edges) == {(3, 4, 0), (5, 6, 1), (7, 8, 2)}
        assert len(G.vertices) == 6

    def test_single_edge_empty_link(self):
        g = validate_linear([(0, 1, 2)], 3)
        G = link_graph(g, 0)
        assert G.colored_edges == () and G.vertices == frozenset()

    def test_color_class_sizes(self, fano):
        # each color class has d(x) - 1 = 2 edges and is a matching
        for e in range(7):
            G = link_graph(fano, e)
            for x in G.base:
                cl = G.color_class(x)
                assert len(cl) == 2
                verts = [v for p in cl for v in p]
                assert len(verts) == len(set(verts))

    def test_dot_output(self, crown):
        dot = link_graph(crown, crown.edges.index((0, 1, 2))).to_dot()
        assert dot.startswith("graph link {") and '"A"' in dot


def test_disjoint_triple_returns_first_index_triple():
    # masks of the pairs {0,1}, {2,3}, {1,2}, {4,5}, {3,6}, {0,4}
    p01, p23, p12, p45, p36, p04 = 0b11, 0b1100, 0b110, 0b110000, 0b1001000, 0b10001
    # (0, 0, k) is blocked by {0,1} and {1,2}, and (0, 1, 0) by {0,4};
    # (0, 1, 1) comes first in product order, though (0, 1, 2) is disjoint too
    assert _disjoint_triple([p01, p23], [p12, p45], [p04, p23, p36]) == (0, 1, 1)
    assert _disjoint_triple([p01], [p12, p04], [p23]) is None
    assert _disjoint_triple([p01], [], [p23]) is None


class TestRainbowMatching:
    def test_three_disjoint(self):
        G = ColoredLinkGraph(
            (0, 1, 2), frozenset(range(3, 9)),
            ((3, 4, 0), (5, 6, 1), (7, 8, 2)),
        )
        assert find_rainbow_matching(G) == ((3, 4, 0), (5, 6, 1), (7, 8, 2))

    def test_lexicographically_least(self):
        G = ColoredLinkGraph(
            (0, 1, 2), frozenset(range(3, 13)),
            ((3, 4, 0), (9, 12, 0), (5, 6, 1), (7, 8, 2)),
        )
        rm = find_rainbow_matching(G)
        assert rm[0] == (3, 4, 0)

    def test_blocked(self):
        # every pair of differently-colored edges intersects
        G = ColoredLinkGraph(
            (0, 1, 2), frozenset(range(3, 7)),
            ((3, 4, 0), (4, 5, 1), (3, 5, 2)),
        )
        assert find_rainbow_matching(G) is None


class TestFindCrown:
    def test_crown_is_found(self, crown):
        w = find_crown(crown)
        assert w is not None
        w.validate(crown)
        assert crown.edges[w.base] == (0, 1, 2)

    def test_jewel_base_has_no_crown(self, crown):
        jewel = crown.edges.index((0, 3, 4))
        assert find_crown_with_base(crown, jewel) is None
        G = link_graph(crown, jewel)
        assert {c for _, _, c in G.colored_edges} == {0}  # one color only

    def test_fano_crown_free(self, fano):
        for e in range(7):
            assert find_crown_with_base(fano, e) is None
        assert find_crown(fano) is None

    def test_small_graphs_trivially_crown_free(self):
        g = random_linear_graph(8, 8, seed=3)
        assert find_crown(g) is None

    def test_ag23_has_crown(self):
        H = ag23()
        w = find_crown(H)
        assert w is not None
        w.validate(H)
        assert crown_oracle(H) is not None

    def test_fewer_than_four_edges(self):
        g = validate_linear([(0, 1, 2), (3, 4, 5), (6, 7, 8)], 9)
        assert find_crown(g) is None


class TestWitnessMessages:
    """The exact text of each CrownWitness.validate ValueError, pinned."""

    @pytest.mark.parametrize("edges,n,jewels,message", [
        (CROWN_EDGES, 9, (1, 1, 2), "witness edges not distinct: (0, 1, 1, 2)"),
        ([(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 6, 7)], 8, (1, 2, 3),
         "jewels intersect: [0, 3, 4] / [1, 3, 5]"),
        ([(0, 1, 2), (0, 3, 4), (1, 5, 6), (7, 8, 9)], 10, (1, 2, 3),
         "jewel [7, 8, 9] meets base [0, 1, 2] in set()"),
    ])
    def test_message(self, edges, n, jewels, message):
        w = CrownWitness(0, jewels)
        with pytest.raises(ValueError) as info:
            w.validate(validate_linear(edges, n))
        assert str(info.value) == message

    # the last two faults need a graph that validate_linear would refuse
    def test_jewel_meets_base_twice(self):
        H = LinearThreeGraph(9, ((0, 1, 2), (0, 1, 3), (4, 5, 6), (2, 7, 8)))
        with pytest.raises(ValueError) as info:
            CrownWitness(0, (1, 2, 3)).validate(H)
        assert str(info.value) == "jewel [0, 1, 3] meets base [0, 1, 2] in {0, 1}"

    def test_jewels_miss_a_base_vertex(self):
        H = LinearThreeGraph(10, ((0, 1, 2, 9), (0, 3, 4), (1, 5, 6), (2, 7, 8)))
        with pytest.raises(ValueError) as info:
            CrownWitness(0, (1, 2, 3)).validate(H)
        assert str(info.value) == "jewels hit [0, 1, 2], not all three base vertices"

    @pytest.mark.parametrize("jewels", [[1, 2, 3], (1, 2), (1, 2, 3, 0)], ids=["list", "two", "four"])
    def test_jewels_not_a_triple(self, crown, jewels):
        with pytest.raises(ValueError) as info:
            CrownWitness(0, jewels).validate(crown)
        assert str(info.value) == f"jewels must be a tuple of three edge ids, not {jewels!r}"

    def test_valid_witness_passes(self, crown):
        CrownWitness(0, (1, 2, 3)).validate(crown)


def _validates(H, base, trio):
    """True iff CrownWitness(base, trio).validate(H) does not raise."""
    try:
        CrownWitness(base, trio).validate(H)
    except ValueError:
        return False
    return True


class TestValidateAgainstReference:
    """CrownWitness.validate raises exactly when the reference is_crown,
    which shares no code with it, rejects."""

    def test_every_base_and_ordered_trio_of_small_graphs(self, crown, fano):
        # trios with repeated ids or the base among them included; the
        # last three graphs are not linear: those of TestWitnessMessages,
        # and a 4-vertex base whose jewels cover it, one meeting it twice
        graphs = [
            crown, fano, ag23(), induced_graph_of_G(), sunflower(6, 4, 2)[0],
            LinearThreeGraph(9, ((0, 1, 2), (0, 1, 3), (4, 5, 6), (2, 7, 8))),
            LinearThreeGraph(10, ((0, 1, 2, 9), (0, 3, 4), (1, 5, 6), (2, 7, 8))),
            LinearThreeGraph(10, ((0, 1, 2, 9), (0, 3, 9), (1, 5, 6), (2, 7, 8))),
        ]
        crowns = checked = 0
        for H in graphs:
            ids = range(len(H.edges))
            for base, *jewels in product(ids, repeat=4):
                trio = tuple(jewels)
                ok = _validates(H, base, trio)
                assert ok == is_crown(H.edges, base, trio), (H.edges, base, trio)
                crowns += ok
                checked += 1
        assert checked == 4**4 * 4 + 7**4 + 12**4 + 13**4 + 10**4 and crowns > 0

    def test_planted_base_of_planted_instances(self):
        # every trio of other edges at the planted base; validate's
        # verdict does not depend on the order of the jewels, which the
        # ordered trios of the small graphs cover
        rng = random.Random(11)
        crowns = checked = 0
        for _ in range(200):
            H, e = plant_642_instance(rng)
            others = [i for i in range(len(H.edges)) if i != e]
            for trio in combinations(others, 3):
                ok = _validates(H, e, trio)
                assert ok == is_crown(H.edges, e, trio), (H.edges, e, trio)
                crowns += ok
                checked += 1
        assert 0 < crowns < checked


class TestGreedy642:
    def test_sunflower_642(self):
        H, e = sunflower(6, 4, 2)
        assert H.degree_vector(e) == (6, 4, 2)
        w = greedy_crown_642(H, e)
        w.validate(H)
        assert crown_oracle(H) is not None

    def test_sunflower_753(self):
        H, e = sunflower(7, 5, 3)
        w = greedy_crown_642(H, e)
        w.validate(H)
        assert crown_oracle(H) is not None

    def test_555_precondition_error(self):
        from crownfree.lemmas import induced_graph_of_G

        H = induced_graph_of_G()
        e = H.edges.index((0, 1, 2))
        assert H.degree_vector(e) == (5, 5, 5)
        with pytest.raises(ValueError, match=r"^degree vector \(5, 5, 5\) does not dominate \(6, 4, 2\)$"):
            greedy_crown_642(H, e)


def link_route_jewels(H, e):
    """Jewel ids by the link-graph route: find_rainbow_matching on
    link_graph(H, e), each colored edge mapped back by H.edges.index."""
    rm = find_rainbow_matching(link_graph(H, e))
    return None if rm is None else tuple(H.edges.index(tuple(sorted(j))) for j in rm)


class TestFindCrownWithBase:
    def assert_every_base_agrees(self, H):
        """Each base's witness matches the link route; greedy_crown_642
        gives a valid witness on every base dominating (6, 4, 2) and the
        domination error on every other."""
        for e in range(len(H.edges)):
            w = find_crown_with_base(H, e)
            assert (None if w is None else w.jewels) == link_route_jewels(H, e)
            if w is not None:
                w.validate(H)
            if dominates(H.degree_vector(e), (6, 4, 2)):
                g = greedy_crown_642(H, e)
                assert g.base == e
                g.validate(H)
            else:
                with pytest.raises(ValueError, match=r"^degree vector \(\d+, \d+, \d+\) does not dominate"):
                    greedy_crown_642(H, e)

    def test_link_route_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(9, 15)
            m = rng.randint(4, n * (n - 1) // 6)
            self.assert_every_base_agrees(random_linear_graph(n, m, seed=rng.randrange(2**30)))

    def test_link_route_on_planted_instances(self):
        rng = random.Random(3)
        for _ in range(500):
            self.assert_every_base_agrees(plant_642_instance(rng)[0])

    def test_lemma1_corpus_is_pinned(self):
        """sha256 over the first 1,000 instances of the seed-0 lemma1 corpus:
        n, edges, planted base id and both witnesses' jewels."""
        h = hashlib.sha256()
        rng = random.Random(0)
        for _ in range(1000):
            H, e = plant_642_instance(rng)
            assert validate_linear(H.edges, H.n) == H and e == 0
            w = find_crown_with_base(H, e)
            g = greedy_crown_642(H, e)
            h.update(repr((H.n, H.edges, e, w.jewels, g.jewels)).encode())
        assert h.hexdigest() == "e9c753b3c9664873518759f137cc44cf1414c9058f4b2f57d37cbac316adab15"

    def test_two_shared_vertices_rejected(self):
        H = LinearThreeGraph(5, ((0, 1, 2), (0, 1, 3), (2, 3, 4)))
        for f in (find_crown_with_base, greedy_crown_642):
            with pytest.raises(ValueError, match=r"^edges \(0, 1, 2\) and \(0, 1, 3\) share two vertices"):
                f(H, 0)


class TestLinkScanMemo:
    """_link_classes keeps its last finished scan and hands it back to a
    call for the same graph object and edge id."""

    def test_back_to_back_calls_share_the_scan(self):
        H, e = sunflower(6, 4, 2)
        assert _link_classes(H, e) is _link_classes(H, e)

    def test_other_base_or_graph_scans_afresh(self):
        H = random_linear_graph(15, 30, seed=5)
        twin = LinearThreeGraph(H.n, H.edges)
        m = len(H.edges)
        # each call on its own new graph object misses the memo
        ref = [_link_classes(LinearThreeGraph(H.n, H.edges), e) for e in range(m)]
        for e in range(m):
            assert _link_classes(H, e) == ref[e]
            nxt = _link_classes(H, (e + 1) % m)
            assert nxt == ref[(e + 1) % m]
            again = _link_classes(twin, (e + 1) % m)
            assert again is not nxt and again == nxt

    @pytest.mark.parametrize("f, x", [
        (find_crown_with_base, True), (link_graph, 1.0), (greedy_crown_642, True),
    ], ids=["find_crown_with_base", "link_graph", "greedy_crown_642"])
    def test_id_checked_before_a_hit(self, f, x):
        H, _ = sunflower(6, 4, 2)
        find_crown_with_base(H, 1)
        with pytest.raises(ValueError) as info:
            f(H, x)
        assert str(info.value) == f"edge id must be an int, not {x!r}"

    def test_failed_scan_is_not_kept(self):
        bad = LinearThreeGraph(5, ((0, 1, 2), (0, 1, 3), (2, 3, 4)))
        H, e = sunflower(6, 4, 2)
        kept = _link_classes(H, e)
        for _ in range(2):  # the second attempt scans, and fails, again
            with pytest.raises(ValueError, match="share two vertices"):
                _link_classes(bad, 0)
        assert _link_classes(H, e) is kept
        assert _link_classes(bad, 2) == ([(0, 1, 0)], [(0, 1, 1)], [])

    def test_lemma1_corpus_scans_each_instance_once(self, monkeypatch):
        iters = []

        class CountingEdges(tuple):
            def __iter__(self):
                iters.append(1)
                return super().__iter__()

        plant = lemmas.plant_642_instance

        def counted_plant(rng):
            H, e = plant(rng)
            return LinearThreeGraph(H.n, CountingEdges(H.edges)), e

        monkeypatch.setattr(lemmas, "plant_642_instance", counted_plant)
        rep = lemmas.verify_lemma1_on_corpus(0, 50)
        assert (rep.instances, rep.passed) == (50, True)
        assert len(iters) == 50  # the link scan is the one whole-list reader


class TestOracle:
    def test_crown(self, crown):
        assert crown_oracle(crown) is not None

    def test_fano_absent(self, fano):
        assert crown_oracle(fano) is None

    def test_matching_absent(self):
        g = validate_linear([(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)], 12)
        assert crown_oracle(g) is None

    def test_agrees_with_find_crown_on_random_corpus(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(9, 13)
            m = rng.randint(4, min(16, n * (n - 1) // 6))
            H = random_linear_graph(n, m, seed=rng.randrange(2**30))
            assert (find_crown(H) is None) == (crown_oracle(H) is None)

    def test_base_local_equivalence(self):
        rng = random.Random(5)
        for _ in range(50):
            H = random_linear_graph(rng.randint(9, 12), 12, seed=rng.randrange(2**30))
            if len(H.edges) < 4:
                continue
            for e in range(len(H.edges)):
                got = find_crown_with_base(H, e) is not None
                others = [i for i in range(len(H.edges)) if i != e]
                brute = any(is_crown(H.edges, e, trio) for trio in combinations(others, 3))
                assert got == brute


def oracle_has_crown(edges, n):
    return crown_oracle(validate_linear(edges, n)) is not None


class TestHasCrownContaining:
    """has_crown_containing(child, e) against crown_oracle(child) for a
    crown-free parent: the child has a crown iff one uses the new edge."""

    @pytest.mark.parametrize("e", CROWN_EDGES)
    def test_crown_each_edge(self, e):
        # (0,1,2) is the base, the other three edges are jewels
        assert has_crown_containing(CROWN_EDGES, e)

    def test_crown_plus_far_edge(self):
        # the graph has a crown, but not through the added edge
        edges = CROWN_EDGES + [(9, 10, 11)]
        assert not has_crown_containing(edges, (9, 10, 11))
        assert has_crown_containing(edges, (0, 1, 2))

    def test_every_search_child_to_n9(self):
        # every candidate of every node of the crown-free walk, not only
        # the few the search still sends to the crown filter after its
        # degree test
        decisions = []
        nodes = list(search._walk(9, crown_free=True))
        for node in nodes:
            candidates = all_candidate_edges(node, 9)
            tables = node.tables
            decisions.extend((node.edges, t, not tables.free(t)) for t in candidates)
        assert len(nodes) == 125  # 124 classes and the empty root
        assert len(decisions) > 500
        hits = 0
        for edges, t, got in decisions:
            assert got == oracle_has_crown(list(edges) + [t], 9), (edges, t)
            hits += got
        assert 0 < hits < len(decisions)

    def test_random_crown_free_growth(self):
        rng = random.Random(2021)
        hits = misses = 0
        for _ in range(200):
            n = rng.randint(9, 13)
            edges, pairs = [], set()
            for _ in range(60):
                t = tuple(sorted(rng.sample(range(n), 3)))
                ps = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
                if ps & pairs:
                    continue
                child = edges + [t]
                got = has_crown_containing(child, t)
                assert got == oracle_has_crown(child, n), (child, t)
                if got:
                    hits += 1
                else:
                    misses += 1
                    edges, pairs = child, pairs | ps
        assert hits > 500 and misses > 500


def _free_triples(edges, n):
    pairs = {p for e in edges for p in combinations(e, 2)}
    return [t for t in combinations(range(n), 3) if not pairs & set(combinations(t, 2))]


def _reference_additions(edges, candidates):
    return [t for t in candidates if not has_crown_containing(list(edges) + [t], t)]


def _same_tables(x, y):
    """Equal sorted edge masks and equal neighbour masks at every label,
    an entry past the end of one table counting as empty."""
    size = max(len(x.at), len(y.at))

    def pad(xs, empty):
        return list(xs) + [empty] * (size - len(xs))

    return (
        [sorted(m) for m in pad(x.at, ())] == [sorted(m) for m in pad(y.at, ())]
        and pad(x.nbrs, 0) == pad(y.nbrs, 0)
    )


class TestCrownTables:
    """CrownTables carried from edge to edge, against has_crown_containing
    and against tables rebuilt from the edge list."""

    def test_crown_jewels_and_base(self):
        # each edge of the crown completes it from the other three
        for t in CROWN_EDGES:
            rest = [e for e in CROWN_EDGES if e != t]
            assert not CrownTables.of(rest).free(t)
        assert CrownTables.of(CROWN_EDGES[1:]).free((9, 10, 11))
        # near misses: t = (0, 3, 4) at vertex 0 of the base (0, 1, 2),
        # whose only candidate jewels at 1 and 2 meet each other or t
        t = (0, 3, 4)
        for rest in (
            [(0, 1, 2), (1, 5, 6), (2, 5, 7)],  # they meet at 5
            [(0, 1, 2), (1, 3, 5), (2, 7, 8)],  # the one at 1 meets t at 3
            [(0, 1, 2), (1, 5, 6), (2, 4, 7)],  # the one at 2 meets t at 4
        ):
            assert not has_crown_containing(rest + [t], t), rest
            assert CrownTables.of(rest).free(t), rest

    def test_fewer_than_three_edges(self):
        tables = CrownTables.of([(0, 3, 6), (1, 4, 7)])
        assert tables.free((0, 1, 2)) and tables.free((3, 4, 5))

    def test_every_search_node_to_n10(self):
        # the tables each node carries from the empty root, on every
        # feasible addition, not only those the walk's degree test keeps
        hits = misses = 0
        for H in generate_all(10, crown_free_only=True):
            node = _root()
            for e in H.edges:
                node = _extend(node, e)
            cands = all_candidate_edges(node, 10)
            got = [t for t in cands if node.tables.free(t)]
            assert got == _reference_additions(H.edges, cands), H.edges
            hits += len(cands) - len(got)
            misses += len(got)
        assert hits > 2000 and misses > 5000

    def test_random_crown_free_growth(self):
        # seeded growths: at every step, every free triple t of the graph
        # so far; at the end the neighbour masks, and the carried tables
        # against tables folded over the edges in other orders
        rng = random.Random(2022)
        hits = misses = 0
        for _ in range(100):
            n = rng.randint(9, 13)
            edges, pairs = [], set()
            tables = CrownTables.of([], n)
            for _ in range(60):
                t = tuple(sorted(rng.sample(range(n), 3)))
                ps = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
                if ps & pairs:
                    continue
                for s in _free_triples(edges, n):
                    got = tables.free(s)
                    assert got == (not has_crown_containing(edges + [s], s)), (edges, s)
                    hits += not got
                    misses += got
                if tables.free(t):
                    edges, pairs = edges + [t], pairs | ps
                    tables = tables.extend(t)
            for v in range(n):
                assert tables.nbrs[v] == sum({1 << u for f in edges if v in f for u in f if u != v})
            shuffled = edges[:]
            rng.shuffle(shuffled)
            assert _same_tables(tables, CrownTables.of(shuffled)), edges
            assert _same_tables(tables, CrownTables.of(sorted(edges), n)), edges
        assert hits > 20000 and misses > 40000

    def test_walk_tables_equal_rebuilt_to_n10(self, monkeypatch):
        # each child the crown-free walk builds, whether _accept keeps it
        # or not, extends its parent's tables by its own edge; those must
        # be the tables of its edge list
        built = []
        real = search._extend

        def recording(node, e):
            built.append(real(node, e))
            return built[-1]

        monkeypatch.setattr(search, "_extend", recording)
        nodes = list(search._walk(10, crown_free=True))
        monkeypatch.undo()
        for node in [nodes[0]] + built:
            assert _same_tables(node.tables, CrownTables.of(node.edges)), node.edges
        # 617 children accepted and 131 rejected
        assert len(nodes) == 618 and len(built) == 748
        assert {id(node) for node in nodes[1:]} < {id(child) for child in built}

    def test_entries_for_three_new_labels(self):
        # a triple on the next three labels has entries, and is free
        tables = CrownTables.of(CROWN_EDGES[1:])
        top = max(map(max, CROWN_EDGES))
        assert len(tables.at) == top + 4
        assert tables.free((top + 1, top + 2, top + 3))
        assert not tables.free(CROWN_EDGES[0])
