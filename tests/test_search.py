import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from crownfree import (
    LinearThreeGraph,
    crown_oracle,
    find_crown,
    lower_bound_construction,
    exact_ex,
    random_linear_graph,
    validate_linear,
)
from crownfree.canon import canonical_edges, canonical_form
from crownfree.crowns import CrownTables
from crownfree.lemmas import induced_graph_of_G
from crownfree import search
from crownfree.search import (
    RETRY_BUDGET,
    _accept,
    _candidate_edges,
    _extend,
    _least_key_additions,
    _Node,
    _orbit_reps,
    _root,
    _walk,
    generate_all,
)

from conftest import slow
from search_reference import all_candidate_edges, deletion_ties, reference_walk


# Certificates of exact_ex(9) to exact_ex(13): the canonical witnesses,
# pinned literally so that a canon change that reorders cells shows here.
WITNESSES_9 = [
    ((0, 1, 2), (0, 3, 8), (1, 3, 4), (1, 5, 8), (2, 5, 6), (2, 7, 8), (3, 6, 7), (4, 5, 7), (4, 6, 8)),
    ((0, 1, 4), (0, 2, 5), (0, 3, 6), (1, 2, 3), (1, 6, 8), (2, 4, 7), (3, 7, 8), (4, 5, 8), (5, 6, 7)),
    ((0, 1, 7), (0, 2, 8), (1, 3, 8), (2, 4, 5), (2, 6, 7), (3, 4, 6), (3, 5, 7), (4, 7, 8), (5, 6, 8)),
    ((0, 2, 3), (0, 7, 8), (1, 4, 8), (1, 5, 7), (2, 4, 7), (2, 6, 8), (3, 5, 8), (3, 6, 7), (4, 5, 6)),
    ((0, 2, 7), (0, 3, 8), (1, 4, 7), (1, 5, 8), (2, 3, 6), (2, 4, 8), (3, 5, 7), (4, 5, 6), (6, 7, 8)),
]
WITNESSES_10 = [
    ((0, 1, 2), (0, 3, 7), (0, 4, 8), (1, 5, 7), (1, 8, 9), (2, 5, 8), (2, 7, 9), (3, 4, 9), (3, 6, 8),
     (4, 6, 7), (5, 6, 9)),
    ((0, 1, 6), (0, 2, 7), (1, 2, 8), (1, 7, 9), (2, 6, 9), (3, 4, 6), (3, 5, 7), (3, 8, 9), (4, 5, 9),
     (4, 7, 8), (5, 6, 8)),
]
WITNESSES_11 = [
    ((0, 1, 2), (0, 3, 8), (0, 9, 10), (1, 3, 9), (1, 8, 10), (2, 3, 10), (2, 8, 9), (4, 5, 8), (4, 6, 9),
     (4, 7, 10), (5, 6, 10), (5, 7, 9), (6, 7, 8)),
    ((0, 1, 8), (0, 2, 9), (0, 3, 10), (1, 2, 10), (1, 3, 9), (2, 3, 8), (4, 5, 8), (4, 6, 9), (4, 7, 10),
     (5, 6, 10), (5, 7, 9), (6, 7, 8), (8, 9, 10)),
]
WITNESSES_12 = [
    ((0, 1, 2), (0, 3, 4), (1, 3, 10), (1, 4, 11), (2, 3, 11), (2, 4, 10), (5, 6, 7), (5, 8, 9), (5, 10, 11),
     (6, 8, 10), (6, 9, 11), (7, 8, 11), (7, 9, 10)),
    *WITNESSES_11,
    ((0, 1, 11), (0, 2, 3), (0, 4, 5), (1, 6, 7), (1, 8, 9), (2, 4, 10), (2, 5, 11), (3, 4, 11), (3, 5, 10),
     (6, 8, 10), (6, 9, 11), (7, 8, 11), (7, 9, 10)),
    ((0, 10, 11), (1, 2, 9), (1, 3, 10), (1, 4, 11), (2, 3, 11), (2, 4, 10), (3, 4, 9), (5, 6, 9), (5, 7, 10),
     (5, 8, 11), (6, 7, 11), (6, 8, 10), (7, 8, 9)),
]
WITNESSES_13 = [
    ((0, 1, 2), (0, 3, 4), (0, 5, 12), (1, 3, 5), (1, 4, 12), (2, 3, 12), (2, 4, 5), (6, 7, 8), (6, 9, 10),
     (6, 11, 12), (7, 9, 11), (7, 10, 12), (8, 9, 12), (8, 10, 11)),
    ((0, 10, 12), (1, 11, 12), (2, 3, 10), (2, 4, 11), (2, 5, 12), (3, 4, 12), (3, 5, 11), (4, 5, 10),
     (6, 7, 10), (6, 8, 11), (6, 9, 12), (7, 8, 12), (7, 9, 11), (8, 9, 10)),
]


# Classes yielded by generate_all(n), by edge count, pinned literally so a
# lost or duplicated class fails without going through the generator's own
# canonical test.  No crown fits on 8 vertices, so crown_free_only changes
# nothing below n = 9.
CLASS_COUNTS = {
    3: {1: 1},
    4: {1: 1},
    5: {1: 1, 2: 1},
    6: {1: 1, 2: 2, 3: 1, 4: 1},
    7: {1: 1, 2: 2, 3: 3, 4: 3, 5: 2, 6: 1, 7: 1},
    8: {1: 1, 2: 2, 3: 4, 4: 6, 5: 7, 6: 6, 7: 4, 8: 1},
}
CROWN_FREE_COUNTS = {
    **CLASS_COUNTS,
    9: {1: 1, 2: 2, 3: 5, 4: 10, 5: 17, 6: 29, 7: 33, 8: 22, 9: 5},
}
# The crown-free classes of generate_all(12, crown_free_only=True) by
# covered vertices, then by edges: 3,641 classes in 51 cells.  A walk
# that replaces the edge walk must reproduce it.
CROWN_FREE_TALLY_12 = {
    3: {1: 1},
    5: {2: 1},
    6: {2: 1, 3: 1, 4: 1},
    7: {3: 2, 4: 2, 5: 2, 6: 1, 7: 1},
    8: {3: 1, 4: 3, 5: 5, 6: 5, 7: 3, 8: 1},
    9: {3: 1, 4: 4, 5: 10, 6: 23, 7: 29, 8: 21, 9: 5},
    10: {4: 3, 5: 11, 6: 39, 7: 98, 8: 161, 9: 133, 10: 46, 11: 2},
    11: {4: 1, 5: 10, 6: 40, 7: 132, 8: 305, 9: 407, 10: 234, 11: 39, 12: 6, 13: 2},
    12: {4: 1, 5: 6, 6: 37, 7: 161, 8: 427, 9: 630, 10: 438, 11: 128, 12: 17, 13: 3},
}
# The same tally for generate_all(17, crown_free_only=True): 256,738
# classes in 115 cells.  By cov = 13..17: 3,604, 8,237, 20,551, 57,024 and
# 163,681 classes.  The edge walk takes about a minute, so its test is slow.
CROWN_FREE_TALLY_17 = {
    **CROWN_FREE_TALLY_12,
    13: {5: 3, 6: 27, 7: 157, 8: 599, 9: 1193, 10: 1082, 11: 430, 12: 96, 13: 15, 14: 2},
    14: {5: 1, 6: 16, 7: 119, 8: 665, 9: 2012, 10: 2827, 11: 1792, 12: 619, 13: 149, 14: 35,
         15: 2},
    15: {5: 1, 6: 7, 7: 78, 8: 576, 9: 2625, 10: 5970, 11: 6275, 12: 3464, 13: 1214, 14: 283,
         15: 50, 16: 6, 17: 1, 18: 1},
    16: {6: 3, 7: 40, 8: 398, 9: 2656, 10: 9539, 11: 16778, 12: 15261, 13: 8416, 14: 3057,
         15: 740, 16: 114, 17: 17, 18: 4, 19: 1},
    17: {6: 1, 7: 18, 8: 226, 9: 2072, 10: 11352, 11: 32127, 12: 46761, 13: 39265, 14: 21381,
         15: 7916, 16: 2073, 17: 409, 18: 67, 19: 12, 20: 1},
}


def crown_free_tally(maxn):
    """{cov: {m: classes}} over generate_all(maxn, crown_free_only=True)."""
    tally: dict[int, dict[int, int]] = {}
    for H in generate_all(maxn, crown_free_only=True):
        cell = tally.setdefault(H.n, {})
        cell[len(H.edges)] = cell.get(len(H.edges), 0) + 1
    return tally


def brute_force_classes(maxn, crown_free_only=False):
    """Independent enumeration: lex-increasing edge DFS + canonical dedupe."""
    classes = set()
    triples = list(itertools.combinations(range(maxn), 3))

    def rec(edges, pairs, start):
        if edges:
            H = validate_linear(edges, maxn)
            if crown_free_only and crown_oracle(H) is not None:
                return
            classes.add(canonical_edges(maxn, tuple(sorted(edges))).edges)
        for i in range(start, len(triples)):
            t = triples[i]
            ps = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
            if any(p in pairs for p in ps):
                continue
            rec(edges + [t], pairs | set(ps), i + 1)

    rec([], set(), 0)
    return classes


class TestGeneration:
    @pytest.mark.parametrize("maxn", [4, 5, 6])
    def test_matches_brute_force(self, maxn):
        got = {canonical_edges(H.n, H.edges).edges for H in generate_all(maxn)}
        assert got == brute_force_classes(maxn)

    def test_no_duplicates(self):
        seen = []
        for H in generate_all(7):
            seen.append(canonical_edges(H.n, H.edges).edges)
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("crown_free_only,counts", [
        (False, CLASS_COUNTS), (True, CROWN_FREE_COUNTS),
    ])
    def test_class_counts_pinned(self, crown_free_only, counts):
        for n, expect in counts.items():
            by_size: dict[int, int] = {}
            forms = set()
            for H in generate_all(n, crown_free_only=crown_free_only):
                by_size[len(H.edges)] = by_size.get(len(H.edges), 0) + 1
                forms.add(canonical_edges(H.n, H.edges).edges)
            assert by_size == expect, n
            assert len(forms) == sum(expect.values()), n

    def test_crown_free_tally_to_n12(self):
        assert crown_free_tally(12) == CROWN_FREE_TALLY_12

    @slow
    def test_crown_free_tally_to_n17(self):
        assert crown_free_tally(17) == CROWN_FREE_TALLY_17

    def test_crown_filter_agrees_with_oracle(self):
        full = {
            canonical_edges(H.n, H.edges).edges
            for H in generate_all(9)
            if crown_oracle(H) is None
        }
        filtered = {
            canonical_edges(H.n, H.edges).edges
            for H in generate_all(9, crown_free_only=True)
        }
        assert full == filtered


def _node_of(edges):
    node = _root()
    for e in edges:
        node = _extend(node, e)
    return node


def _orbit(e, gens):
    """Orbit of triple e, by closing it under gens (tuples indexed by
    label; labels past a generator's end are fixed)."""
    seen = {e}
    frontier = [e]
    while frontier:
        t = frontier.pop()
        for g in gens:
            img = tuple(sorted(g[v] if v < len(g) else v for v in t))
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def _closure_reps(candidates, gens):
    """First-in-order orbit representatives, by closing each candidate
    under the generators."""
    seen, reps = set(), []
    for t in candidates:
        if t not in seen:
            reps.append(t)
            seen |= _orbit(t, gens)
    return reps


def _reference_candidates(node, max_vertices):
    """Every free triple on the covered vertices, in lexicographic order,
    then the triples through new vertices."""
    cov = node.cov
    pairs = {p for e in node.edges for p in itertools.combinations(e, 2)}
    out = [t for t in itertools.combinations(range(cov), 3)
           if not any(p in pairs for p in itertools.combinations(t, 2))]
    if cov + 1 <= max_vertices:
        out += [(a, b, cov) for a, b in itertools.combinations(range(cov), 2)
                if (a, b) not in pairs]
    if cov + 2 <= max_vertices:
        out += [(i, cov, cov + 1) for i in range(cov)]
    if cov + 3 <= max_vertices:
        out.append((cov, cov + 1, cov + 2))
    return out


class TestNodeState:
    def test_cov_and_degrees_read_off_the_tables(self):
        # a node's cov and degs come from its crown tables alone: one entry
        # per label up to cov + 2, the three new labels at degree 0
        nodes = list(_walk(10, True)) + list(_walk(8, False))
        for node in nodes:
            cov = 1 + max(max(e) for e in node.edges) if node.edges else 0
            assert node.cov == cov, node.edges
            assert node.degs == tuple(LinearThreeGraph(cov + 3, node.edges).degrees()), node.edges
        assert len(nodes) == 650


class TestCandidateEdges:
    def test_equals_filtered_triples_to_n9(self):
        # the full lister that the reference walk and the tests use
        nodes = [_root()] + [_node_of(H.edges) for H in generate_all(9)]
        for node in nodes:
            assert all_candidate_edges(node, 9) == _reference_candidates(node, 9), node.edges
        assert len(nodes) == 163

    def test_pruned_list_keeps_every_least_key_candidate_to_n9(self):
        # the walk's lister skips only covered triples that fail the key
        # test: filtering its list gives what filtering the full list gives
        nodes = [_root()] + [_node_of(H.edges) for H in generate_all(9)]
        skipped = 0
        for node in nodes:
            pruned, full = _candidate_edges(node, 9), all_candidate_edges(node, 9)
            assert _least_key_additions(node, pruned) == _least_key_additions(node, full), node.edges
            assert set(pruned) <= set(full), node.edges
            skipped += len(full) - len(pruned)
        assert skipped > 500


class TestOrbitReps:
    def test_union_find_equals_closure_to_n9(self):
        # all candidates, and the crown-free survivors: the crown test is
        # Aut(H)-invariant, so filtering first must keep whole orbits
        split = 0
        for H in generate_all(9):
            node = _node_of(H.edges)
            gens = node.canonical().auts
            cands = all_candidate_edges(node, 9)
            reps = _orbit_reps(cands, gens)
            assert reps == _closure_reps(cands, gens), H.edges
            split += len(reps) < len(cands)
            kept = [t for t in cands if node.tables.free(t)]
            assert _orbit_reps(kept, gens) == [t for t in reps if t in kept], H.edges
        assert split > 100


def _parent_of(edges, e):
    """Node of edges without e, on all 9 labels: a relabelled graph need
    not cover its labels in order."""
    rest = tuple(f for f in edges if f != e)
    return _Node(rest, CrownTables.of(rest, 12))


class TestDeletionEdge:
    def test_least_key_filter_equals_child_keys_to_n9(self):
        # _least_key_additions reads the child's least key off the parent;
        # build every child and compare with its own degrees
        nodes = [_root()] + [_node_of(H.edges) for H in generate_all(9)]
        dropped = 0
        for node in nodes:
            cands = all_candidate_edges(node, 9)
            expect = []
            for e in cands:
                degs = _extend(node, e).degs
                keys = {f: sorted(degs[v] for v in f) for f in node.edges + (e,)}
                if keys[e] == min(keys.values()):
                    expect.append(e)
            assert _least_key_additions(node, cands) == expect, node.edges
            dropped += len(cands) - len(expect)
        assert dropped > 500

    def test_accepted_edges_are_the_deletion_orbit_in_any_labelling(self):
        # For each class and two relabellings of it, _accept must take
        # exactly the Aut-orbit of the documented deletion edge: least
        # sorted endpoint-degree triple, then least sorted triple of vertex
        # keys, ties to the last canonical image.  n = 9 is the least n
        # where a least class can hold two orbits, so only from there can
        # a labelling-dependent tie-break show.
        rng = random.Random(9)
        split = 0
        for H in generate_all(9):
            versions = [H.edges]
            for _ in range(2):
                p = list(range(9))
                rng.shuffle(p)
                versions.append(tuple(sorted(
                    tuple(sorted(p[v] for v in e)) for e in H.edges
                )))
            images = []
            for edges in versions:
                child = _node_of(edges)
                accepted = {e for e in edges
                            if _least_key_additions(_parent_of(edges, e), [e]) and _accept(child, e)}
                canon = canonical_edges(9, edges)
                ties = deletion_ties(edges)
                d = max(ties, key=lambda e: sorted(canon.perm[v] for v in e))
                assert accepted == _orbit(d, canon.auts), edges
                split += len(accepted) < len(ties)
                images.append(sorted(
                    tuple(sorted(canon.perm[v] for v in e)) for e in accepted
                ))
            assert images[0] == images[1] == images[2], H.edges
        # 6 classes keep two orbits in their least class after the vertex
        # keys (13 on the endpoint-degree triple alone)
        assert split == 3 * 6


class TestParentOrbitCut:
    def test_expanded_candidates_are_the_orbit_reps_to_n10(self, monkeypatch):
        # a parent whose candidates all differ in their vertex keys is not
        # labelled; the children the walk builds must still be exactly the
        # first candidate of each Aut(H)-orbit
        expanded = {}
        real = search._extend

        def recording(node, e):
            expanded.setdefault(node.edges, []).append(e)
            return real(node, e)

        monkeypatch.setattr(search, "_extend", recording)
        nodes = list(_walk(10, crown_free=True))
        monkeypatch.undo()
        unlabelled = 0
        for node in nodes:
            unlabelled += node.canon is None
            tables = node.tables
            cands = [t for t in _least_key_additions(node, all_candidate_edges(node, 10)) if tables.free(t)]
            assert expanded.get(node.edges, []) == _orbit_reps(cands, node.canonical().auts), node.edges
        assert len(nodes) == 618 and unlabelled > 300


class TestReferenceWalk:
    @pytest.mark.parametrize("crown_free,maxn", [(True, 10), (False, 8)])
    def test_same_nodes_in_same_order(self, crown_free, maxn):
        # the walk that tests the degrees on the parent first must yield
        # what the plain order of search_reference yields, node for node
        for n in range(3, maxn + 1):
            got = [node.edges for node in _walk(n, crown_free)]
            assert got == [node.edges for node in reference_walk(n, crown_free)], n


class TestExactEx:
    def test_n7_is_fano(self):
        cert = exact_ex(7)
        assert cert.value == 7 and cert.exhaustive
        fano_canon = canonical_edges(7, validate_linear(
            [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)], 7
        ).edges).edges
        assert fano_canon in cert.witnesses

    def test_n8(self):
        cert = exact_ex(8)
        assert cert.value == 8 and cert.exhaustive

    def test_n9_below_ag23(self):
        cert = exact_ex(9)
        assert cert.exhaustive and cert.value < 12

    def test_witnesses_revalidate(self):
        cert = exact_ex(9)
        for g in cert.witness_graphs():
            validate_linear(g.edges, cert.n)
            assert crown_oracle(g) is None
            assert len(g.edges) == cert.value

    def test_matches_brute_force_classes(self):
        # against the independent enumeration: the value is the most edges
        # of any crown-free class, and the walk visits each class once
        # plus the empty root
        for n in (6, 7):
            classes = brute_force_classes(n, crown_free_only=True)
            cert = exact_ex(n)
            assert cert.value == max(len(c) for c in classes)
            assert cert.nodes_explored == len(classes) + 1

    @pytest.mark.parametrize("n,value,nodes,witnesses", [
        (9, 9, 125, WITNESSES_9), (10, 11, 618, WITNESSES_10),
        (11, 13, 1794, WITNESSES_11), (12, 13, 3642, WITNESSES_12),
        (13, 14, 7246, WITNESSES_13),
    ])
    def test_pinned_certificate(self, n, value, nodes, witnesses):
        cert = exact_ex(n)
        assert cert.exhaustive
        assert (cert.value, cert.nodes_explored) == (value, nodes)
        assert cert.witnesses == witnesses

    def test_witness_recheck_runs_under_optimize(self):
        # An oracle that reports a crown in every graph with more edges
        # than the gadget must stop exact_ex, even where asserts are off.
        code = textwrap.dedent("""
            import sys
            import crownfree.search as search
            if not sys.flags.optimize:
                raise SystemExit("asserts are on")
            gadget = len(search.lower_bound_construction(7).edges)
            real = search.crown_oracle
            search.crown_oracle = lambda H: "crown" if len(H.edges) > gadget else real(H)
            try:
                search.exact_ex(7)
            except AssertionError as exc:
                print("raised:", exc)
            else:
                print("returned")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised: witness fails the crown oracle"

    def test_budget_exceeded(self):
        cert = exact_ex(9, max_nodes=5)
        assert not cert.exhaustive
        assert cert.nodes_explored == 5
        assert cert.value >= 6  # incumbent seeded from the construction
        cert = exact_ex(9, max_nodes=0)
        assert (cert.nodes_explored, cert.exhaustive) == (0, False)
        # no node walked: the one witness is the gadget's own edge list
        assert cert.witnesses == [lower_bound_construction(9).edges]

    def test_max_seconds_overrun_is_small_at_n103(self):
        # the crown_oracle recheck of the 150-edge witness runs after the
        # budget, so only a cheap oracle keeps the stop near 1 s
        cert = exact_ex(103, max_seconds=1)
        assert not cert.exhaustive
        assert cert.elapsed_seconds < 10

    def test_max_seconds_overrun_is_small_at_n403(self):
        # the gadget is built but not labelled before the walk; labelling
        # it outside the budget made this stop take about 11 s
        cert = exact_ex(403, max_seconds=1)
        assert (cert.exhaustive, cert.value) == (False, 600)
        assert cert.elapsed_seconds < 5

    @slow
    def test_n15_only_witness_is_the_gadget(self):
        cert = exact_ex(15)
        assert (cert.value, cert.nodes_explored, cert.exhaustive) == (18, 36034, True)
        assert cert.witnesses == [canonical_form(lower_bound_construction(15)).edges]

    def test_n11_witness_is_the_555_link_graph(self):
        # The 13-edge graph built on the unique rainbow-free (5,5,5) link
        # graph is extremal for n = 11.
        cert = exact_ex(11)
        assert (cert.value, cert.exhaustive, len(cert.witnesses)) == (13, True, 2)
        assert canonical_form(induced_graph_of_G()).edges in cert.witnesses

    def test_n11_canon_calls_pinned(self, monkeypatch):
        # A parent is labelled only when two candidates pass its degree and
        # crown tests with the same vertex keys, and a child only on a tie
        # of both keys (2,164 calls when every parent was labelled); the
        # lower-bound gadget is not labelled.
        calls = []
        real = search.canonical_edges

        def counting(n, edges):
            calls.append(n)
            return real(n, edges)

        monkeypatch.setattr(search, "canonical_edges", counting)
        cert = exact_ex(11)
        assert (cert.nodes_explored, len(calls)) == (1794, 667)

    def test_thread_determinism(self):
        c1 = exact_ex(9, threads=1)
        c2 = exact_ex(9, threads=2)
        c4 = exact_ex(9, threads=4)
        assert c1.nodes_explored == 125
        for c in (c2, c4):
            assert c.value == c1.value
            assert c.witnesses == c1.witnesses
            assert c.exhaustive == c1.exhaustive
            assert c.nodes_explored == c1.nodes_explored

    def test_monotone_in_n(self):
        vals = [exact_ex(n).value for n in range(3, 10)]
        assert vals == sorted(vals)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            exact_ex(2)

    def test_json_shape(self):
        obj = exact_ex(7).to_json_obj()
        assert obj["exhaustive"] is True and obj["value"] == 7
        assert len(obj["witnesses_l3g"]) == len(obj["witnesses"])


class TestLowerBoundConstruction:
    @pytest.mark.parametrize("n,expect", [(11, 12), (7, 6), (6, 0), (15, 18)])
    def test_edge_counts(self, n, expect):
        H = lower_bound_construction(n)
        assert len(H.edges) == expect == 6 * ((n - 3) // 4)
        assert find_crown(H) is None

    def test_self_certified(self):
        # the construction checks itself with find_crown; recheck with
        # the independent oracle
        for n in (11, 19, 23, 103):
            H = lower_bound_construction(n)
            assert crown_oracle(H) is None
            validate_linear(H.edges, n)

    def test_n99_fast(self):
        t0 = time.monotonic()
        H = lower_bound_construction(99)
        assert time.monotonic() - t0 < 5.0
        assert len(H.edges) == 144


class TestRandomLinearGraph:
    def test_empty(self):
        assert random_linear_graph(9, 0, seed=1).edges == ()

    def test_deterministic(self):
        g1 = random_linear_graph(9, 12, seed=1)
        g2 = random_linear_graph(9, 12, seed=1)
        assert g1.edges == g2.edges

    def test_always_linear(self):
        for seed in range(30):
            g = random_linear_graph(7, 7, seed=seed)
            validate_linear(g.edges, 7)

    def test_m_over_cap_rejected(self):
        with pytest.raises(ValueError):
            random_linear_graph(7, 8, seed=0)

    @pytest.mark.parametrize("n,m", [(-5, 0), (-1, 0), (3, -1), (0, -1), (0, 0)])
    def test_negative_n_or_m_rejected(self, n, m):
        with pytest.raises(ValueError, match=">= 0"):
            random_linear_graph(n, m, seed=1)

    def test_same_edges_as_sampling_to_the_retry_budget(self):
        """Stopping at saturation returns what the loop without the
        saturation test returns, short graphs included."""

        def full_budget(n, m, seed):
            rng = random.Random(seed)
            pairs, edges, misses = set(), [], 0
            while len(edges) < m and misses < RETRY_BUDGET:
                t = tuple(sorted(rng.sample(range(n), 3)))
                ps = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
                if any(p in pairs for p in ps):
                    misses += 1
                    continue
                pairs.update(ps)
                edges.append(t)
            return tuple(sorted(edges))

        rng = random.Random(11)
        short = 0
        for seed in range(300):
            n = rng.randint(9, 15)
            cap = n * (n - 1) // 6
            m = rng.randint(1, cap)
            want = full_budget(n, m, seed)
            assert random_linear_graph(n, m, seed).edges == want
            short += len(want) < m
        assert short >= 20


class TestNonIntSizes:
    """A size that is not an int, bools included, is refused at the
    library boundary with a ValueError naming it."""

    @pytest.mark.parametrize("call,message", [
        (lambda: exact_ex(11.0), "n must be an int, not 11.0"),
        (lambda: exact_ex(5, max_nodes=2.5), "max_nodes must be an int, not 2.5"),
        (lambda: exact_ex(5, max_nodes=True), "max_nodes must be an int, not True"),
        (lambda: exact_ex(5, max_seconds="1"), "max_seconds must be a finite number >= 0, not '1'"),
        (lambda: exact_ex(5, max_seconds=True), "max_seconds must be a finite number >= 0, not True"),
        (lambda: exact_ex(5, threads="x"), "threads must be an int, not 'x'"),
        (lambda: exact_ex(5, threads=True), "threads must be an int, not True"),
        (lambda: exact_ex(5, threads=2.0), "threads must be an int, not 2.0"),
        (lambda: exact_ex(5, threads=0), "threads must be >= 1, not 0"),
        (lambda: lower_bound_construction(7.5), "n must be an int, not 7.5"),
        (lambda: random_linear_graph(5.0, 1, 1), "n and m must be ints, not n = 5.0, m = 1"),
        (lambda: random_linear_graph(5, 1.0, 1), "n and m must be ints, not n = 5, m = 1.0"),
        (lambda: random_linear_graph(5, 1, [1]), "seed must be an int, not [1]"),
        (lambda: random_linear_graph(5, 1, True), "seed must be an int, not True"),
        (lambda: random_linear_graph(5, 1, "1"), "seed must be an int, not '1'"),
        (lambda: list(generate_all(5.0)), "max_vertices must be an int, not 5.0"),
        (lambda: list(generate_all(True)), "max_vertices must be an int, not True"),
        # the budgets are checked before lower_bound_construction checks n
        (lambda: exact_ex("x", max_seconds=-1), "max_seconds must be a finite number >= 0, not -1"),
    ], ids=["exact_n", "exact_max_nodes", "exact_max_nodes_bool", "exact_max_seconds_str",
            "exact_max_seconds_bool", "exact_threads_str", "exact_threads_bool",
            "exact_threads_float", "exact_threads_zero", "lower_bound_n",
            "random_n", "random_m", "random_seed_list", "random_seed_bool", "random_seed_str",
            "generate_all_float", "generate_all_bool", "exact_budget_before_n"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
