import random

import pytest

from crownfree import (
    CanonResult,
    ColoredLinkGraph,
    CrownWitness,
    DischargeTrace,
    ExtremalCertificate,
    LinearityError,
    LinearThreeGraph,
    dominates,
    parse_json_graph,
    parse_l3g,
    validate_linear,
)
from crownfree.canon import canonical_form
from crownfree.discharging import StarDeficitResult, _Bookkeeping

from canon_reference import closure, is_automorphism
from conftest import CROWN_EDGES, FANO_EDGES


class TestValidate:
    def test_crown_valid(self, crown):
        assert crown.n == 9
        assert crown.edges == tuple(sorted(CROWN_EDGES))

    def test_shared_pair_rejected(self):
        with pytest.raises(LinearityError, match="share pair"):
            validate_linear([(0, 1, 2), (0, 1, 3)], 4)

    def test_fano_valid(self, fano):
        # brute-force: all 21 pairs covered exactly once
        from itertools import combinations

        cover = {p: 0 for p in combinations(range(7), 2)}
        for e in fano.edges:
            for p in combinations(e, 2):
                cover[p] += 1
        assert all(c == 1 for c in cover.values())

    def test_out_of_range(self):
        with pytest.raises(LinearityError, match="out of range"):
            validate_linear([(0, 1, 9)], 5)

    def test_repeated_vertex(self):
        with pytest.raises(LinearityError, match="repeats"):
            validate_linear([(0, 1, 1)], 3)

    def test_duplicate_edge(self):
        with pytest.raises(LinearityError, match="duplicate"):
            validate_linear([(0, 1, 2), (2, 1, 0)], 3)

    def test_empty_graph_ok(self):
        g = validate_linear([], 1)
        assert g.n == 1 and g.edges == ()

    def test_n_zero_rejected(self):
        with pytest.raises(LinearityError):
            validate_linear([], 0)


class TestValidateMessages:
    """The exact text of each LinearityError, pinned."""

    @pytest.mark.parametrize("triples,n,message", [
        ([(0, 1)], 3, "edge [0, 1] does not have 3 vertices"),
        ([(0, 1, True)], 3, "edge [0, 1, True] has a non-integer vertex"),
        ([(0, 1, 2.0)], 3, "edge [0, 1, 2.0] has a non-integer vertex"),
        # vertices are checked in order: the range error on 5 comes first
        ([[5, "x", 1]], 3, "edge [5, 'x', 1]: vertex 5 out of range [0, 3)"),
        ([(2, 0, 2)], 3, "edge [2, 0, 2] repeats a vertex"),
        ([(0, 1, 2), (2, 1, 0)], 3, "duplicate edge [0, 1, 2]"),
        ([(0, 1, 2), (4, 0, 1)], 5, "edges #0 [0, 1, 2] and #1 [0, 1, 4] share pair {0, 1}"),
        # the pair prints as a set, in the set's own order
        ([(0, 3, 4), (1, 2, 8), (9, 8, 7), (8, 7, 10)], 11,
         "edges #2 [7, 8, 9] and #3 [7, 8, 10] share pair {8, 7}"),
        # increasing tuples get every check too
        ([(False, 1, 2)], 3, "edge [False, 1, 2] has a non-integer vertex"),
        ([(0, 1, 5)], 5, "edge [0, 1, 5]: vertex 5 out of range [0, 5)"),
        ([(0, 1, 2), (0, 1, 2)], 3, "duplicate edge [0, 1, 2]"),
        ([(0, 1, 2), (0, 1, 3)], 4, "edges #0 [0, 1, 2] and #1 [0, 1, 3] share pair {0, 1}"),
        ([[0, 1, 2], [0, 3, 4], [0, 1, 5]], 6,
         "edges #0 [0, 1, 2] and #1 [0, 1, 5] share pair {0, 1}"),
        # n is checked before any triple
        ([(0, 1, 2)], 3.5, "n must be an integer, got 3.5"),
        ([], True, "n must be an integer, got True"),
        # a triple that is not a sequence at all
        ([5], 3, "edge 5 is not a sequence of vertices"),
        ([None], 3, "edge None is not a sequence of vertices"),
        # the shared pair in the later edge's (a, c) position
        ([(0, 2, 4), (0, 3, 4)], 5, "edges #0 [0, 2, 4] and #1 [0, 3, 4] share pair {0, 4}"),
        # in its (b, c) position, and first held by an edge before the one just before
        ([(1, 5, 6), (0, 5, 6), (1, 2, 3)], 7,
         "edges #0 [0, 5, 6] and #2 [1, 5, 6] share pair {5, 6}"),
    ])
    def test_message(self, triples, n, message):
        # the list, then a generator, which validate_linear reads once
        for given in (triples, (t for t in triples)):
            with pytest.raises(LinearityError) as info:
                validate_linear(given, n)
            assert str(info.value) == message

    @pytest.mark.parametrize("triples", [5, None])
    def test_triples_not_iterable(self, triples):
        with pytest.raises(LinearityError) as info:
            validate_linear(triples, 3)
        assert str(info.value) == f"triples must be an iterable of edges, got {triples}"

    def test_generator_triples_accepted(self):
        g = validate_linear([(x for x in (2, 0, 1)), iter([3, 4, 0])], 5)
        assert g.edges == ((0, 1, 2), (0, 3, 4))

    def test_generator_of_triples_read_once(self):
        # the triples are read once; the unsorted third is normalised
        g = validate_linear((t for t in [(0, 1, 2), (0, 3, 4), (6, 5, 1)]), 7)
        assert g.edges == ((0, 1, 2), (0, 3, 4), (1, 5, 6))

    def test_unsorted_edges_sorted(self):
        g = validate_linear([(1, 3, 5), (0, 3, 4), (0, 1, 2)], 6)
        assert g.edges == ((0, 1, 2), (0, 3, 4), (1, 3, 5))


class TestDegrees:
    def test_crown_base(self, crown):
        base = crown.edges.index((0, 1, 2))
        assert crown.degree_vector(base) == (2, 2, 2)

    def test_crown_jewel(self, crown):
        jewel = crown.edges.index((0, 3, 4))
        assert crown.degree_vector(jewel) == (2, 1, 1)

    def test_fano_lines(self, fano):
        for e in range(7):
            assert fano.degree_vector(e) == (3, 3, 3)

    def test_degree_sum_is_3m(self, crown, fano):
        for g in (crown, fano):
            assert sum(g.degrees()) == 3 * len(g.edges)

    def test_bad_edge_id(self, crown):
        with pytest.raises(IndexError):
            crown.degree_vector(99)


class TestDominates:
    def test_reflexive(self):
        assert dominates((6, 4, 2), (6, 4, 2))

    def test_first_coordinate(self):
        assert not dominates((5, 5, 5), (6, 4, 2))

    def test_componentwise(self):
        assert dominates((7, 4, 3), (6, 4, 2))


class TestCovers:
    def test_crown_single_vertex(self, crown):
        ids = crown.edges_covering({0})
        assert {crown.edges[i] for i in ids} == {(0, 1, 2), (0, 3, 4)}

    def test_full_cover(self, crown):
        assert crown.edges_covering(range(9)) == {0, 1, 2, 3}

    def test_empty_cover(self, crown):
        assert crown.edges_covering(set()) == set()

    def test_out_of_range(self, crown):
        with pytest.raises(IndexError):
            crown.edges_covering({42})


class TestRemoveVertices:
    def test_crown_drop_one_jewel_vertex(self, crown):
        g, relabel = crown.remove_vertices({3})
        assert g.n == 8 and len(g.edges) == 3
        assert 3 not in relabel

    def test_identity(self, crown):
        g, _ = crown.remove_vertices(set())
        assert g.edges == crown.edges and g.n == crown.n

    def test_fano_drop_point(self, fano):
        g, _ = fano.remove_vertices({0})
        assert g.n == 6 and len(g.edges) == 4

    def test_remove_all_forbidden(self, crown):
        with pytest.raises(ValueError):
            crown.remove_vertices(set(range(9)))

    def test_edge_set_complement(self, fano):
        x = {1, 4}
        g, relabel = fano.remove_vertices(x)
        keep = [fano.edges[i] for i in range(7) if i not in fano.edges_covering(x)]
        expect = sorted(tuple(sorted(relabel[v] for v in e)) for e in keep)
        assert list(g.edges) == expect


class TestSerialization:
    def test_l3g_roundtrip(self, crown):
        assert parse_l3g(crown.to_l3g()).edges == crown.edges

    def test_l3g_exact_text(self, crown):
        text = crown.to_l3g()
        assert text == parse_l3g(text).to_l3g()

    def test_l3g_comments(self):
        g = parse_l3g("# a comment\n3 1\n0 1 2\n")
        assert g.edges == ((0, 1, 2),)

    def test_l3g_bad_order(self):
        with pytest.raises(LinearityError, match="lexicographic"):
            parse_l3g("6 2\n0 4 5\n0 1 2\n")

    def test_l3g_not_increasing_triple(self):
        with pytest.raises(LinearityError, match="increasing"):
            parse_l3g("3 1\n2 1 0\n")

    def test_json_nesting_too_deep(self):
        text = '{"n": 3, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(LinearityError, match="^invalid JSON: nesting too deep$"):
            parse_json_graph(text)

    @pytest.mark.parametrize("text,message", [
        ('{"n": "5", "edges": []}', "n must be an integer, got '5'"),
        ('{"n": false, "edges": [[0, 1, 2]]}', "n must be an integer, got False"),
        # the edges are checked before n, which validate_linear checks
        ('{"n": "5", "edges": "012"}', "JSON 'edges' must be a list of 3-integer lists"),
        ('{"n": 2.5, "edges": [[0, 1]]}', "JSON edge [0, 1] is not a list of 3 integers"),
    ])
    def test_json_message(self, text, message):
        with pytest.raises(LinearityError) as info:
            parse_json_graph(text)
        assert str(info.value) == message

    def test_json_roundtrip(self, fano):
        assert parse_json_graph(fano.to_json()).edges == fano.edges


# Every record type, built from equal fields each time it is called, with
# its repr, which callers print and which stays fixed.
RECORDS = [
    (lambda: LinearThreeGraph(5, ((0, 1, 2), (0, 3, 4))),
     "LinearThreeGraph(n=5, edges=((0, 1, 2), (0, 3, 4)))"),
    (lambda: CrownWitness(0, (1, 2, 3)), "CrownWitness(base=0, jewels=(1, 2, 3))"),
    (lambda: ColoredLinkGraph((0, 1, 2), frozenset({3, 4}), ((3, 4, 0),)),
     "ColoredLinkGraph(base=(0, 1, 2), vertices=frozenset({3, 4}), colored_edges=((3, 4, 0),))"),
    (lambda: CanonResult(((0, 1, 2),), (0, 1, 2, 3), ((1, 0, 2, 3),), (0, 1, 2)),
     "CanonResult(edges=((0, 1, 2),), perm=(0, 1, 2, 3), auts=((1, 0, 2, 3),), cover=(0, 1, 2))"),
    (lambda: StarDeficitResult(0, 0, True, True, ()),
     "StarDeficitResult(deficit=0, bound=0, within_bound=True, premise_ok=True, offending=())"),
    (lambda: DischargeTrace([5, 6], [(0, 1)], {0}),
     "DischargeTrace(f0=[5, 6], steps=[(0, 1)], increase_set={0})"),
    (lambda: _Bookkeeping([1], [], [], [], {}, [1]),
     "_Bookkeeping(t=[1], delta=[], g=[], h=[], delta_v={}, fk=[1])"),
    (lambda: ExtremalCertificate(3, 1, [((0, 1, 2),)], 2, True, 0.5, {"threads": 1}),
     "ExtremalCertificate(n=3, value=1, witnesses=[((0, 1, 2),)], nodes_explored=2, "
     "exhaustive=True, elapsed_seconds=0.5, params={'threads': 1})"),
]


class TestRecords:
    @pytest.mark.parametrize("make, text", RECORDS, ids=[t.split("(")[0] for _, t in RECORDS])
    def test_repr_equality_immutability(self, make, text):
        r = make()
        assert repr(r) == text
        assert r == make()
        first = text.split("(", 1)[1].split("=", 1)[0]
        getattr(r, first)  # the field reads, so the error below is the refusal to set it
        with pytest.raises(AttributeError):
            setattr(r, first, None)
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_equal_graphs_hash_equal(self, crown):
        g = LinearThreeGraph(9, tuple(CROWN_EDGES))
        assert g == crown and hash(g) == hash(crown) and len({g, crown}) == 1
        assert g != LinearThreeGraph(10, g.edges)


class TestCanonicalForm:
    def test_relabel_invariance_crown(self, crown):
        base = canonical_form(crown).edges
        rng = random.Random(7)
        for _ in range(100):
            perm = list(range(9))
            rng.shuffle(perm)
            g = validate_linear(
                [tuple(sorted(perm[v] for v in e)) for e in crown.edges], 9
            )
            assert canonical_form(g).edges == base

    def test_fano_relabelings(self, fano):
        base = canonical_form(fano).edges
        rng = random.Random(11)
        for _ in range(20):
            perm = list(range(7))
            rng.shuffle(perm)
            g = validate_linear(
                [tuple(sorted(perm[v] for v in e)) for e in fano.edges], 7
            )
            assert canonical_form(g).edges == base

    def test_crown_vs_matching_differ(self, crown):
        matching = validate_linear(
            [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)], 12
        )
        assert canonical_form(matching).edges != canonical_form(crown).edges

    def test_perm_is_witnessing(self, fano):
        res = canonical_form(fano)
        relabeled = sorted(
            tuple(sorted((res.perm[a], res.perm[b], res.perm[c])))
            for a, b, c in fano.edges
        )
        assert tuple(relabeled) == res.edges

    def test_fano_automorphism_count(self, fano):
        res = canonical_form(fano)
        assert len(closure(res.auts, res.cover)) == 168
        assert all(is_automorphism(alpha, fano.edges) for alpha in res.auts)
