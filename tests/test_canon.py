"""Pruned canonical labelling against the full-tree reference, and an
orbit-stabilizer count of the generator that compares no canonical forms."""

import math
import random
from itertools import combinations

import pytest

from crownfree import validate_linear
from crownfree.canon import canonical_edges
from crownfree.lemmas import _matchings4
from crownfree.search import generate_all, lower_bound_construction, random_linear_graph

from canon_reference import closure, is_automorphism, reference_canonical_edges
from conftest import CROWN_EDGES, FANO_EDGES, ag23

MATCHING_EDGES = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
# Pruning this one with generators that move the individualized prefix,
# instead of only those fixing it, gives a wrong labelling or group.
PREFIX_SENSITIVE_EDGES = [
    (0, 1, 3), (0, 2, 7), (0, 4, 11), (0, 6, 10), (0, 8, 9), (1, 2, 11),
    (1, 4, 9), (1, 5, 10), (1, 7, 8), (2, 3, 8), (2, 4, 10), (2, 5, 6),
    (3, 4, 5), (3, 6, 7), (3, 9, 10), (4, 6, 8), (5, 7, 9), (5, 8, 11),
    (6, 9, 11), (7, 10, 11),
]


def ag23_minus_class():
    """AG(2,3) without its vertical lines: 3-regular on 9 vertices, so
    the degree classes are a single cell."""
    return [e for e in ag23().edges if e[2] - e[0] != 2]


def relabelled(edges, n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return sorted(tuple(sorted(p[v] for v in e)) for e in edges)


def two_colour_prefixes():
    """The two-colour prefixes of a (5,5,5) link graph as 3-graphs:
    colour class 0 fixed, class 1 every matching of four pairs, each
    coloured pair {u, w} joined to its colour vertex.
    enumerate_555_link_graphs does not list them, as it builds one per
    isomorphism class from its alternating components; they are kept as a
    high-symmetry reference set for canon."""
    first = [(0, 1), (2, 3), (4, 5), (6, 7)]
    out = []
    for second, n_used in _matchings4(set(first), 8):
        edges = [(u, w, n_used) for u, w in first]
        edges += [(u, w, n_used + 1) for u, w in second]
        out.append((n_used + 2, sorted(edges)))
    return out


def assert_matches_reference(n, edges):
    ref = reference_canonical_edges(n, edges)
    got = canonical_edges(n, edges)
    assert got.edges == ref.edges
    assert got.perm == ref.perm
    assert got.cover == ref.cover
    assert all(len(alpha) == n and is_automorphism(alpha, edges) for alpha in got.auts)
    images = [tuple(alpha[v] for v in got.cover) for alpha in got.auts]
    assert got.cover not in images and len(set(images)) == len(images)
    assert len(closure(got.auts, got.cover)) == len(ref.auts)


class TestAgainstReference:
    def test_all_classes_up_to_8(self):
        count = 0
        for H in generate_all(8):
            assert_matches_reference(H.n, H.edges)
            count += 1
        assert count == 31

    def test_seeded_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(400):
            n = rng.randint(6, 15)
            m = rng.randint(1, n * (n - 1) // 6)
            H = random_linear_graph(n, m, seed=rng.randrange(10**9))
            assert_matches_reference(H.n, H.edges)

    def test_crown_free_classes_on_9_relabelled(self):
        rng = random.Random(9)
        count = 0
        for H in generate_all(9, crown_free_only=True):
            canon = canonical_edges(H.n, H.edges).edges
            for _ in range(2):
                edges = relabelled(H.edges, H.n, rng)
                assert_matches_reference(H.n, edges)
                assert canonical_edges(H.n, edges).edges == canon
            count += 1
        assert count == 124

    def test_555_two_colour_prefixes(self):
        prefixes = two_colour_prefixes()
        assert len(prefixes) == 3763
        for n, edges in random.Random(555).sample(prefixes, 400):
            assert 10 <= n <= 18
            assert_matches_reference(n, edges)

    @pytest.mark.parametrize("edges,n", [
        (FANO_EDGES, 7), (CROWN_EDGES, 9), (MATCHING_EDGES, 12),
        (PREFIX_SENSITIVE_EDGES, 12), (ag23_minus_class(), 9),
    ], ids=["fano", "crown", "matching", "prefix_sensitive", "ag23_minus_class"])
    def test_fixtures(self, edges, n):
        H = validate_linear(edges, n)
        assert_matches_reference(H.n, H.edges)

    def test_regular_fixture_is_one_degree_class(self):
        H = validate_linear(ag23_minus_class(), 9)
        assert len(H.edges) == 9 and set(H.degrees()) == {3}

    def test_ag23_group_order(self):
        H = ag23()
        res = canonical_edges(H.n, H.edges)
        assert len(closure(res.auts, res.cover)) == 432  # AGL(2,3)

    def test_isolated_label_is_fixed(self):
        # the Fano plane on labels 0..7 with label 3 isolated: generators
        # are indexed by label over all n labels and fix the isolated one
        edges = [tuple(v + (v >= 3) for v in e) for e in FANO_EDGES]
        res = canonical_edges(8, edges)
        assert res.cover == (0, 1, 2, 4, 5, 6, 7) and res.auts
        for g in res.auts:
            assert len(g) == 8 and g[3] == 3 and is_automorphism(g, edges)
        assert len(closure(res.auts, res.cover)) == 168

    def test_empty_graph(self):
        res = canonical_edges(3, ())
        assert res.edges == () and res.auts == () and res.perm == (0, 1, 2)


@pytest.mark.parametrize("n", [43, 103])
def test_gadget_labelling_is_invariant(n):
    """The lower-bound gadget and a seeded relabelling of it get the same
    canonical edges.  Its group is large and its generators are found
    late in a deep tree, so each tree node's union-find takes in many of
    them after it was first read."""
    edges = lower_bound_construction(n).edges
    moved = relabelled(edges, n, random.Random(n))
    results = [canonical_edges(n, edges), canonical_edges(n, moved)]
    assert results[0].edges == results[1].edges
    for res, es in zip(results, (edges, moved)):
        assert sorted(tuple(sorted(res.perm[v] for v in e)) for e in es) == list(res.edges)
        assert res.auts and all(is_automorphism(g, es) for g in res.auts)


def count_labelled(n):
    """Labelled linear 3-graphs on n vertices (the empty one included),
    by a plain DFS over triples in lexicographic order."""
    triples = list(combinations(range(n), 3))

    def rec(start, pairs):
        total = 1
        for i in range(start, len(triples)):
            a, b, c = triples[i]
            ps = ((a, b), (a, c), (b, c))
            if pairs.isdisjoint(ps):
                total += rec(i + 1, pairs.union(ps))
        return total

    return rec(0, frozenset())


@pytest.mark.parametrize("n,labelled", [(6, 271), (7, 5596), (8, 231577)])
def test_orbit_stabilizer(n, labelled):
    """Sum of n!/|Aut(H)| over the generated classes, plus 1 for the empty
    graph, is the number of labelled graphs: this checks every group order
    and the completeness of generate_all together."""
    assert count_labelled(n) == labelled
    total = 1
    for H in generate_all(n):
        res = canonical_edges(H.n, H.edges)
        k = len(res.cover)
        order = len(closure(res.auts, res.cover)) * math.factorial(n - k)
        assert math.factorial(n) % order == 0
        total += math.factorial(n) // order
    assert total == labelled
