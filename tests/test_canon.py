"""Pruned canonical labelling against the full-tree reference, and an
orbit-stabilizer count of the generator that compares no canonical forms."""

import math
import random
from itertools import combinations

import pytest

from crownfree import validate_linear
from crownfree.canon import canonical_edges
from crownfree.search import generate_all, random_linear_graph

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


def assert_matches_reference(n, edges):
    ref = reference_canonical_edges(n, edges)
    got = canonical_edges(n, edges)
    assert got.edges == ref.edges
    assert got.perm == ref.perm
    assert got.cover == ref.cover
    assert all(is_automorphism(alpha, edges) for alpha in got.auts)
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

    @pytest.mark.parametrize("edges,n", [
        (FANO_EDGES, 7), (CROWN_EDGES, 9), (MATCHING_EDGES, 12),
        (PREFIX_SENSITIVE_EDGES, 12),
    ], ids=["fano", "crown", "matching", "prefix_sensitive"])
    def test_fixtures(self, edges, n):
        H = validate_linear(edges, n)
        assert_matches_reference(H.n, H.edges)

    def test_ag23_group_order(self):
        H = ag23()
        res = canonical_edges(H.n, H.edges)
        assert len(closure(res.auts, res.cover)) == 432  # AGL(2,3)

    def test_empty_graph(self):
        res = canonical_edges(3, ())
        assert res.edges == () and res.auts == () and res.perm == (0, 1, 2)


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
