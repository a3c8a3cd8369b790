import random
from itertools import product

import pytest

from crownfree import crown_oracle, dominates, find_crown, find_rainbow_matching
from crownfree import lemmas
from crownfree.cli import run
from crownfree.graphs import LinearityError
from crownfree.lemmas import (
    _encode_colored,
    _matchings4,
    _two_colour_classes,
    canonical_link_graph_G,
    encode_canonical_G,
    enumerate_555_link_graphs,
    induced_graph_of_G,
    min_counterexample_order,
    plant_642_instance,
    random_degree_function,
    replay_section3,
    run_suite,
    verify_discharge_suite,
    verify_lemma1_on_corpus,
    verify_links555,
    verify_order11,
)

import lemma_reference


def _rainbow_triples(colored):
    """Every choice of one pair per colour whose three pairs are pairwise
    disjoint, by plain sets over the colour classes."""
    classes: dict = {}
    for u, w, c in colored:
        classes.setdefault(c, []).append({u, w})
    assert len(classes) == 3
    return [
        (p, q, r) for p, q, r in product(*classes.values())
        if not (p & q or p & r or q & r)
    ]


class TestCanonicalG:
    def test_color_classes_are_perfect_matchings(self):
        G = canonical_link_graph_G()
        for c in G.base:
            cl = G.color_class(c)
            assert len(cl) == 4
            assert len({v for p in cl for v in p}) == 8

    def test_rainbow_free(self):
        assert find_rainbow_matching(canonical_link_graph_G()) is None

    def test_rainbow_free_by_brute_force(self):
        assert _rainbow_triples(canonical_link_graph_G().colored_edges) == []

    def test_intersection_pattern(self):
        G = canonical_link_graph_G()
        for c1 in G.base:
            for c2 in G.base:
                if c1 == c2:
                    continue
                for u, w in G.color_class(c1):
                    hits = sum(1 for x, y in G.color_class(c2) if {u, w} & {x, y})
                    assert hits == 2

    def test_proof_edges_exist(self):
        H = induced_graph_of_G()
        for t in ((0, 3, 6), (2, 4, 6), (0, 8, 9)):  # {a,v1,v4}, {c,v2,v4}, {a,v6,v7}
            assert t in H.edges

    def test_induced_graph_degrees(self):
        H = induced_graph_of_G()
        degs = H.degrees()
        assert [degs[v] for v in (0, 1, 2)] == [5, 5, 5]
        assert all(degs[v] == 3 for v in range(3, 11))


class TestReplaySection3:
    def test_passes(self):
        rep = replay_section3()
        assert rep.passed, rep.failures

    def test_e_x_is_13(self):
        H = induced_graph_of_G()
        assert len(H.edges_covering(range(11))) == 13

    def test_crown_free_by_oracle(self):
        assert crown_oracle(induced_graph_of_G()) is None

    def test_nonlinear_extension_is_a_reported_failure(self, monkeypatch):
        # the extensions are the only graphs built on 12 and 13 vertices;
        # a case whose extension is refused skips its other checks
        real = lemmas.validate_linear

        def refuse_extensions(triples, n):
            if n in (12, 13):
                raise LinearityError(f"refused at n = {n}")
            return real(triples, n)

        monkeypatch.setattr(lemmas, "validate_linear", refuse_extensions)
        rep = replay_section3()
        assert rep.failures == [
            ("w1 = v5: extension is linear", "refused at n = 12"),
            ("w1 fresh: extension is linear", "refused at n = 13"),
        ]
        assert rep.instances == 8
        assert run(["lemmas", "--suite", "replay3"]) == 2


class TestLinks555:
    def test_unique_class(self):
        rep = verify_links555()
        assert rep.passed, rep.failures
        assert rep.instances == 1

    def test_the_one_completion_is_rainbow_free(self, monkeypatch):
        # the veto alone keeps rainbow triples out of the completions
        seen = []
        real = lemmas._encode_colored

        def capture(colored):
            seen.append(list(colored))
            return real(colored)

        monkeypatch.setattr(lemmas, "_encode_colored", capture)
        enumerate_555_link_graphs()
        assert len(seen) == 1
        assert _rainbow_triples(seen[0]) == []

    def test_one_third_colour_search_per_class(self, monkeypatch):
        # the 32 two-colour classes are built, not drawn from the bare A class
        calls = []
        real = lemmas._matchings4

        def counting(existing_pairs, n_used, rainbow_veto=None):
            calls.append(len(existing_pairs))
            return real(existing_pairs, n_used, rainbow_veto)

        monkeypatch.setattr(lemmas, "_matchings4", counting)
        enumerate_555_link_graphs()
        assert calls == [8] * 32

    def test_encoding_is_stable(self):
        assert encode_canonical_G() == encode_canonical_G()

    def test_encoding_is_pinned(self):
        assert encode_canonical_G() == (
            (0, 1, 8), (0, 2, 9), (0, 3, 10), (1, 2, 10), (1, 3, 9), (2, 3, 8),
            (4, 5, 8), (4, 6, 9), (4, 7, 10), (5, 6, 10), (5, 7, 9), (6, 7, 8),
        )


def _coloured(pairs_by_colour):
    return [(u, w, c) for c, pairs in enumerate(pairs_by_colour) for u, w in pairs]


FIRST = [(0, 1), (2, 3), (4, 5), (6, 7)]


class TestTwoColourClasses:
    def test_same_partition_as_canonical_labelling(self):
        # the classes keyed by component multiset are, independently of
        # that key, the canonical forms of all 3,763 prefixes
        prefixes = [_coloured([FIRST, second]) for second, _ in _matchings4(set(FIRST), 8)]
        assert len(prefixes) == 3763
        forms = {_encode_colored(p) for p in prefixes}
        assert len(forms) == 32
        classes = [_coloured([FIRST, b_class]) for b_class, _ in _two_colour_classes()]
        assert len(classes) == 32
        assert {_encode_colored(c) for c in classes} == forms

    def test_generated_classes_are_prefixes(self):
        for b_class, n in _two_colour_classes():
            b_vertices = {v for pr in b_class for v in pr}
            # four pairwise disjoint increasing pairs, none of them an A pair
            assert len(b_class) == 4 and len(b_vertices) == 8
            assert all(u < w for u, w in b_class)
            assert not set(b_class) & set(FIRST)
            # A covers 0..7, so the labels from 8 up are B's fresh ones
            assert b_vertices | set(range(8)) == set(range(n))

    def test_canon_calls_are_pinned(self, monkeypatch):
        # the two-colour classes are built without labelling: the
        # enumeration labels only its one rainbow-free completion, and
        # verify_links555 adds the fixed graph (3,764 and 3,765 calls when
        # the 3,763 prefixes were labelled)
        calls = []
        real = lemmas.canonical_edges

        def counting(n, edges):
            calls.append(n)
            return real(n, edges)

        expected = [encode_canonical_G()]
        monkeypatch.setattr(lemmas, "canonical_edges", counting)
        assert enumerate_555_link_graphs() == expected
        assert len(calls) == 1
        calls.clear()
        assert verify_links555().passed
        assert len(calls) == 2


class TestLemma1Corpus:
    def test_small_corpus(self):
        rep = verify_lemma1_on_corpus(seed=42, count=300)
        assert rep.passed, rep.failures[:5]
        assert rep.instances == 300

    def test_planted_instances_dominate(self):
        import random

        rng = random.Random(0)
        for _ in range(20):
            H, e = plant_642_instance(rng)
            dv = H.degree_vector(e)
            assert dominates(dv, (6, 4, 2))
            assert find_crown(H) is not None

    def test_failed_domination_is_reported_by_greedy(self, monkeypatch):
        monkeypatch.setattr(lemmas, "plant_642_instance", lambda rng: (induced_graph_of_G(), 0))
        assert verify_lemma1_on_corpus(0, 1).failures == [
            ("instance 0", "greedy failed: degree vector (5, 5, 5) does not dominate (6, 4, 2)")
        ]

    def test_missing_crown_is_reported_per_instance(self, monkeypatch):
        monkeypatch.setattr(lemmas, "find_crown_with_base", lambda H, e: None)
        rep = verify_lemma1_on_corpus(0, 3)
        assert rep.failures == [
            (f"instance {i}", "no crown found with planted base") for i in range(3)
        ]
        assert rep.instances == 3

    def test_deterministic_given_seed(self):
        r1 = verify_lemma1_on_corpus(seed=9, count=50)
        r2 = verify_lemma1_on_corpus(seed=9, count=50)
        assert r1.instances == r2.instances and r1.failures == r2.failures

    def test_seed_0_corpus_is_pinned(self):
        # a drift in the draws from rng would change these
        import random

        rng = random.Random(0)
        H, e = plant_642_instance(rng)
        assert (H.n, e) == (35, 0)
        assert H.edges == (
            (0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (0, 9, 10), (0, 11, 12),
            (0, 13, 14), (0, 15, 16), (0, 17, 18), (1, 19, 20), (1, 21, 22),
            (1, 23, 24), (1, 25, 26), (1, 27, 28), (1, 29, 30), (2, 31, 32),
            (4, 6, 21), (6, 8, 16), (8, 18, 32), (9, 19, 34), (13, 20, 27),
            (13, 22, 30), (19, 25, 31),
        )
        sum_n, sum_m, ids = H.n, len(H.edges), {e}
        for _ in range(999):
            H, e = plant_642_instance(rng)
            sum_n += H.n
            sum_m += len(H.edges)
            ids.add(e)
        assert (sum_n, sum_m, ids) == (33475, 19193, {0})

    def test_seed_7_corpora_are_pinned(self):
        # the corpora of the replay_corpus benchmark unit at seed 7, the
        # seed its runs are reported at, as the sums of their sizes
        rng = random.Random(7)
        sum_n = sum_m = 0
        for _ in range(10_000):
            H, _ = plant_642_instance(rng)
            sum_n += H.n
            sum_m += len(H.edges)
        assert (sum_n, sum_m) == (336183, 192230)
        rng = random.Random(7)
        sum_len = sum_sq = 0
        for _ in range(1_000):
            d = random_degree_function(rng)
            sum_len += len(d)
            sum_sq += sum(x * x for x in d)
        assert (sum_len, sum_sq) == (21180, 662529)


class _Recording(random.Random):
    """A Random that logs each getrandbits call; randint, randrange and
    sample draw through getrandbits once it is overridden."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.log.append((k, r))
        return r


class _Scripted(random.Random):
    """A Random whose getrandbits returns the scripted values in turn,
    each of which must fit in the bits asked for, and logs each call."""

    def __init__(self, script):
        self.log = []
        self.script = list(script)
        super().__init__(0)

    def getrandbits(self, k):
        r = self.script.pop(0)
        assert 0 <= r < 1 << k, (k, r)
        self.log.append((k, r))
        return r


class TestCorpusDraws:
    """The library's getrandbits draws against the randint, randrange and
    sample draws of tests/lemma_reference.py."""

    def test_below_is_randrange(self):
        for s in (0, 7):
            r1, r2 = random.Random(s), random.Random(s)
            for m in range(1, 65):
                for _ in range(50):
                    assert lemmas._below(r1.getrandbits, m) == r2.randrange(m), (s, m)
                assert r1.getstate() == r2.getstate(), (s, m)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_planted_corpus_equals_reference(self, seed):
        r1, r2 = _Recording(seed), _Recording(seed)
        pool_branch = 0
        for i in range(3000):
            got = plant_642_instance(r1)
            assert got == lemma_reference.plant_642_instance(r2), i
            assert r1.log == r2.log and r1.getstate() == r2.getstate(), i
            r1.log.clear()
            r2.log.clear()
            pool_branch += got[0].n <= 21
        # random.sample takes its pool-swap branch only for n <= 21, which
        # about 0.3% of instances reach
        assert pool_branch > 0
        assert r1.random() == r2.random()

    def test_sunflower_pairs_refused(self):
        # n = 24: petals at 0 on 3..12, at 1 on 13..18, at 2 on 19..20, and
        # the spare vertices 21..23; six noise triples of 5-bit draws, the
        # first with a draw >= n and a repeat, both drawn again
        script = [0, 0, 0, 3, 6]  # da = 6, db = 4, dc = 2, n = 21 + 3, 6 triples
        script += [22, 30, 22, 0, 1]  # (0, 1, 22): the base pair {0, 1}
        script += [20, 2, 5]  # (2, 5, 20): centre 2 with 20 of its petal
        script += [8, 22, 7]  # (7, 8, 22): the petal pair {7, 8}
        script += [16, 0, 15]  # (0, 15, 16): the petal pair {15, 16}
        script += [21, 3, 13]  # (3, 13, 21): kept
        script += [13, 21, 5]  # (5, 13, 21): the noise pair {13, 21}
        r1, r2 = _Scripted(script), _Scripted(script)
        got = plant_642_instance(r1)
        assert got == lemma_reference.plant_642_instance(r2)
        assert r1.log == r2.log and not r1.script and not r2.script
        sunflower = [(0, 1, 2)] + [(0, x, x + 1) for x in range(3, 13, 2)]
        sunflower += [(1, x, x + 1) for x in range(13, 19, 2)] + [(2, 19, 20)]
        H, e = got
        assert (H.n, e) == (24, 0)
        assert H.edges == tuple(sorted(sunflower + [(3, 13, 21)]))

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_degree_functions_equal_reference(self, seed):
        r1, r2 = _Recording(seed), _Recording(seed)
        for i in range(500):
            assert random_degree_function(r1) == lemma_reference.random_degree_function(r2), i
            assert r1.log == r2.log and r1.getstate() == r2.getstate(), i
            r1.log.clear()
            r2.log.clear()


class TestOrder11:
    def test_value(self):
        assert min_counterexample_order() == 11

    def test_n10_fails_threshold(self):
        # 10*9/6 = 15 < 50/3
        assert 3 * 10 * 9 < 30 * 10

    def test_n11_equality(self):
        # 11*10/6 >= 55/3 holds with equality: 110 = 110
        assert 3 * 11 * 10 == 30 * 11

    def test_suite(self):
        assert verify_order11().passed

    def test_wrong_order_is_a_reported_failure(self, monkeypatch):
        monkeypatch.setattr(lemmas, "min_counterexample_order", lambda: 12)
        rep = verify_order11()
        assert rep.failures == [("order", "expected 11, got 12")]
        assert rep.instances == 1 and not rep.passed


class TestDischargeSuite:
    def test_one_replay_per_instance(self, monkeypatch):
        # the verifier checks the Delta_v bound on its own replay (2,177
        # replays when each vertex of degree >= 9 was replayed again)
        from crownfree import discharging

        calls = []
        real = discharging._bookkeeping

        def counting(trace):
            calls.append(1)
            return real(trace)

        monkeypatch.setattr(discharging, "_bookkeeping", counting)
        assert verify_discharge_suite(7, 1000).passed
        assert len(calls) == 1000

    def test_h_above_9_is_a_reported_failure(self, monkeypatch):
        from crownfree import discharging

        bad = discharging.DischargeTrace(
            [5] * 6, [(2, 0)] * 3 + [(2, 1)] * 3 + [(5, 2)] * 6, {3, 4, 5}
        )
        monkeypatch.setattr(lemmas, "random_degree_function", lambda rng: [2, 2, 5, 5, 5, 11])
        monkeypatch.setattr(lemmas, "build_discharge_sequence", lambda d: bad)
        rep = verify_discharge_suite(0, 1)
        assert rep.instances == 1 and len(rep.failures) == 1
        assert "h(7) = 21 > 9 on a step touching a vertex of degree >= 9" in rep.failures[0][1]
        assert rep.failures[0][1].endswith("Delta_v = 0 < 36 at vertex 5")

    def test_builder_failure_is_reported_per_instance(self, monkeypatch):
        def refuse(d):
            raise ValueError(f"refused {len(d)} degrees")

        monkeypatch.setattr(lemmas, "random_degree_function", lambda rng: [5] * 6)
        monkeypatch.setattr(lemmas, "build_discharge_sequence", refuse)
        rep = verify_discharge_suite(0, 3)
        assert rep.failures == [
            (f"instance {i}", "builder failed: refused 6 degrees") for i in range(3)
        ]
        assert rep.instances == 3


class TestRunSuite:
    def test_unknown(self):
        with pytest.raises(KeyError):
            run_suite("nope")

    def test_named(self):
        assert run_suite("order11").passed

    def test_reports_do_not_share_failures(self):
        a, b = lemmas.ReplayReport("x"), lemmas.ReplayReport("x")
        a.failures.append(("name", "detail"))
        assert b.failures == [] and a.failures is not b.failures

    @pytest.mark.parametrize("name", list(lemmas.ALL_SUITES))
    def test_every_suite_is_timed(self, name):
        # a suite that did not end with done() would report 0 ms
        assert run_suite(name, 0, 5).elapsed_ms > 0

    def test_reports_serialize(self):
        obj = verify_order11().to_json_obj()
        assert obj["suite"] == "order11" and obj["passed"] is True


class TestEmptySuite:
    @pytest.mark.parametrize("suite", [
        lambda: verify_lemma1_on_corpus(0, 0),
        lambda: verify_discharge_suite(0, -5),
    ], ids=["lemma1_count_0", "discharge_count_-5"])
    def test_zero_instances_fail(self, suite):
        rep = suite()
        assert rep.instances == 0 and rep.failures == []
        assert not rep.passed and rep.to_json_obj()["passed"] is False
        assert "FAIL (no instances)" in rep.summary()

    @pytest.mark.parametrize("suite", [verify_lemma1_on_corpus, verify_discharge_suite])
    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_int_count_refused(self, suite, count):
        with pytest.raises(ValueError) as info:
            suite(0, count)
        assert str(info.value) == f"count must be an int, not {count}"

    @pytest.mark.parametrize("suite", [verify_lemma1_on_corpus, verify_discharge_suite])
    @pytest.mark.parametrize("seed", [[1], True, 1.5, "1"], ids=["list", "True", "1.5", "str"])
    def test_non_int_seed_refused(self, suite, seed):
        # a bool or float seed would be recorded as JSON true or 1.5
        with pytest.raises(ValueError) as info:
            suite(seed, 3)
        assert str(info.value) == f"seed must be an int, not {seed!r}"

    def test_failures_are_counted_in_summary(self):
        rep = verify_order11()
        rep.failures.append(("x", "y"))
        assert not rep.passed and "FAIL (1 failures)" in rep.summary()
