import random
from fractions import Fraction

import pytest

from crownfree import (
    CrownWitness,
    LinearThreeGraph,
    build_discharge_sequence,
    crown_oracle,
    find_crown_with_base,
    greedy_crown_642,
    large_set,
    lemma2_rhs,
    link_graph,
    s_of,
    s_star,
    star_deficit_check,
    t_star,
    validate_linear,
    verify_discharge_trace,
)
from crownfree.discharging import DegreePreconditionError, DischargeTrace, _bookkeeping
from crownfree.lemmas import random_degree_function

from conftest import spoke_wheel
from discharge_reference import reference_delta_v_bound, reference_trace, replay


# Every public call that names an edge or a vertex by id, as f(H, id),
# with the name its refusal gives the id.  The witness ids around x are
# chosen so that no two are equal and validate reaches H.edge(x).
ID_ENTRY_POINTS = [
    pytest.param(s_of, "edge id", id="s_of"),
    pytest.param(s_star, "edge id", id="s_star"),
    pytest.param(star_deficit_check, "vertex", id="star_deficit_check"),
    pytest.param(find_crown_with_base, "edge id", id="find_crown_with_base"),
    pytest.param(link_graph, "edge id", id="link_graph"),
    pytest.param(greedy_crown_642, "edge id", id="greedy_crown_642"),
    pytest.param(lambda H, x: CrownWitness(0, (x, 2, 3)).validate(H), "edge id", id="witness_validate"),
    # x as the base: True and 1.0 would equal jewel 1 if ids were compared first
    pytest.param(lambda H, x: CrownWitness(x, (1, 2, 3)).validate(H), "edge id", id="witness_validate_base"),
    pytest.param(lambda H, x: CrownWitness(x, (1, 2, 3)).to_json_obj(H), "edge id", id="witness_to_json_obj"),
    pytest.param(LinearThreeGraph.degree_vector, "edge id", id="degree_vector"),
    pytest.param(lambda H, x: H.edges_covering([x]), "vertex", id="edges_covering"),
    pytest.param(lambda H, x: H.remove_vertices([x]), "vertex", id="remove_vertices"),
    # after a good vertex, so that set() cannot fold True or 1.0 into it
    pytest.param(lambda H, x: H.edges_covering([1, x]), "vertex", id="edges_covering_after_1"),
    pytest.param(lambda H, x: H.remove_vertices([1, x]), "vertex", id="remove_vertices_after_1"),
]


def star_graph(k):
    """k edges through vertex 0 on fresh endpoints."""
    edges = [(0, 1 + 2 * i, 2 + 2 * i) for i in range(k)]
    return validate_linear(edges, 1 + 2 * k)


class TestStarSums:
    @pytest.mark.parametrize(
        "dv,s,sstar",
        [((9, 3, 3), 15, 15), ((10, 3, 3), 16, 15), ((8, 5, 2), 15, 15)],
    )
    def test_s_star_cases(self, dv, s, sstar):
        # realize the degree vector with a sunflower at the base edge
        edges = [(0, 1, 2)]
        nxt = 3
        for v, d in zip((0, 1, 2), dv):
            for _ in range(d - 1):
                edges.append(tuple(sorted((v, nxt, nxt + 1))))
                nxt += 2
        H = validate_linear(edges, nxt)
        assert s_of(H, 0) == s
        assert s_star(H, 0) == sstar

    def test_large_set(self, crown, fano):
        assert large_set(crown) == set()
        assert large_set(fano) == set()
        assert large_set(star_graph(9)) == {0}

    def test_t_star_crown(self, crown):
        assert t_star(crown) == 18
        assert sum(d * d for d in crown.degrees()) == 18

    def test_t_star_fano(self, fano):
        assert t_star(fano) == 63

    def test_t_star_star9(self):
        H = star_graph(9)
        assert all(s_of(H, e) == 11 for e in range(9))
        assert t_star(H) == 99

    def test_clamp_invariants(self):
        rng = random.Random(2)
        from crownfree.search import random_linear_graph

        for _ in range(50):
            n = rng.randint(5, 14)
            m = min(10, n * (n - 1) // 6)
            H = random_linear_graph(n, m, seed=rng.randrange(2**30))
            for e in range(len(H.edges)):
                assert s_star(H, e) <= s_of(H, e)
            assert t_star(H) <= sum(d * d for d in H.degrees())
            if not large_set(H):
                assert t_star(H) == sum(d * d for d in H.degrees())


class TestBuilder:
    def test_already_uniform(self):
        tr = build_discharge_sequence([5, 5, 5])
        assert tr.k == 0 and tr.f0 == [5, 5, 5]
        assert tr.increase_set == {0, 1, 2}

    def test_single_step_l1(self):
        tr = build_discharge_sequence([4, 5, 7])
        assert tr.f0 == [5, 5, 6]
        assert tr.steps == [(2, 0)]
        assert 2 in tr.increase_set and 0 not in tr.increase_set

    def test_six_vertex_example(self):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        assert tr.k == 6
        book = _bookkeeping(tr)
        assert book.t[0] == 150 and book.t[-1] == 204
        assert book.delta_v[5] == 54
        ok, bad = verify_discharge_trace(tr, d)
        assert ok, bad

    def test_l2_prefers_single_seven(self):
        d = [2, 3, 7]  # sum 12 = 5*3 - 3? no: need 5n+2 = 17
        d = [3, 7, 7]  # sum 17 = 5*3 + 2
        tr = build_discharge_sequence(d)
        assert sorted(tr.f0) == [5, 5, 7]

    def test_l2_two_sixes(self):
        d = [2, 3, 6, 6]  # sum 17 = 5*4 - 3? -> need 22
        d = [4, 6, 6, 6]  # sum 22 = 5*4 + 2, max 6 < 7
        tr = build_discharge_sequence(d)
        assert sorted(tr.f0) == [5, 5, 6, 6]

    def test_min_degree_precondition(self):
        with pytest.raises(DegreePreconditionError, match="minimum degree"):
            build_discharge_sequence([1, 7, 7])

    def test_sum_precondition(self):
        with pytest.raises(DegreePreconditionError, match="5n"):
            build_discharge_sequence([2, 2, 2])

    def test_random_functions_all_verify(self):
        rng = random.Random(17)
        for _ in range(300):
            d = random_degree_function(rng)
            tr = build_discharge_sequence(d)
            ok, bad = verify_discharge_trace(tr, d)
            assert ok, (d, bad)

    def test_conservation_every_step(self):
        rng = random.Random(23)
        for _ in range(50):
            d = random_degree_function(rng)
            tr = build_discharge_sequence(d)
            total = 5 * len(d) + tr.residue
            for fi in replay(tr.f0, tr.steps):
                assert sum(fi) == total
            assert all(x > 0 for x in _bookkeeping(tr).delta)

    @pytest.mark.parametrize("d", [
        [2, 2, 5, 5, 5, 11.0],
        [2, 2, 5, 5, 5, Fraction(11)],
        [2.5, 2.5, 5, 5, 5, 10],
    ], ids=["float", "fraction", "half_units"])
    def test_non_int_degree_rejected(self, d):
        with pytest.raises(DegreePreconditionError, match="is not an int"):
            build_discharge_sequence(d)

    def test_hand_built_trace_matches_builder(self):
        d = [2, 2, 5, 5, 5, 11]
        built = build_discharge_sequence(d)
        tr = DischargeTrace(list(built.f0), list(built.steps), set(built.increase_set))
        assert tr.to_json_obj() == built.to_json_obj()
        assert _bookkeeping(tr) == _bookkeeping(built)
        assert verify_discharge_trace(tr, d) == (True, [])
        assert _bookkeeping(tr).delta_v[5] == 54


class TestVerifierNegativeCases:
    def test_swapped_step_fails(self):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        tr.steps[0] = (tr.steps[0][1], tr.steps[0][0])
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert any("condition (3)" in b for b in bad)

    def test_f0_out_of_range_fails(self):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        tr.f0[0] = 8
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert any("condition (1)" in b for b in bad)

    def test_tampered_middle_step_fails(self):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        mid = tr.k // 2
        tr.steps[mid] = (tr.steps[mid][1], tr.steps[mid][0])
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert f"condition (3): step {mid + 1} gainer {tr.steps[mid][0]} not in I" in bad

    def test_residue_outside_0_to_2_fails(self):
        tr = DischargeTrace([6, 6, 6], [], {0, 1, 2})
        assert tr.residue == 3
        ok, bad = verify_discharge_trace(tr, [6, 6, 6])
        assert not ok
        assert bad == ["sum f0 = 18 != 5n + l with l in {0,1,2} (n=3)"]

    @pytest.mark.parametrize("step", [(99, 0), (5, -6)])
    def test_step_vertex_out_of_range_is_a_violation(self, step):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        tr.steps[2] = step
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert bad == [f"step 3 = {step} has a vertex outside 0..5"]

    @pytest.mark.parametrize("step", [(5.0, 0), (0, "1"), (True, 0)])
    def test_step_vertex_not_an_int_is_a_violation(self, step):
        # bools are refused too, as validate_linear refuses them
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        tr.steps[2] = step
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert bad == [f"step 3 = {step!r} has a vertex that is not an int"]

    @pytest.mark.parametrize("step", [5, None, (1,), (1, 2, 3)])
    def test_step_not_a_pair_is_a_violation(self, step):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        tr.steps[2] = step
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert bad == [f"step 3 = {step!r} is not a pair of vertices"]

    @pytest.mark.parametrize("x", [11.0, Fraction(11), True], ids=["float", "fraction", "bool"])
    def test_degree_not_an_int_is_a_violation(self, x):
        tr = build_discharge_sequence([2, 2, 5, 5, 5, 11])
        d = [2, 2, 5, 5, 5, x]
        assert verify_discharge_trace(tr, d) == (False, [f"d(5) = {x!r} is not an int"])

    @pytest.mark.parametrize("x", [5.0, Fraction(5), True], ids=["float", "fraction", "bool"])
    def test_f0_not_an_int_is_a_violation(self, x):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        tr.f0[5] = x
        assert verify_discharge_trace(tr, d) == (False, [f"f0(5) = {x!r} is not an int"])

    def test_f0_all_floats_is_a_violation(self):
        d = [2, 2, 5, 5, 5, 11]
        t = build_discharge_sequence(d)
        tr = DischargeTrace([float(x) for x in t.f0], t.steps, t.increase_set)
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert bad == [f"f0({v}) = {float(x)!r} is not an int" for v, x in enumerate(t.f0)]

    def test_delta_v_bound_violation(self):
        # the big vertex 5 gains all its units from vertex 2 while f(2) is
        # still above 5, so every step at 5 has h > 9 and Delta_v sums to 0
        d = [2, 2, 5, 5, 5, 11]
        tr = DischargeTrace([5] * 6, [(2, 0)] * 3 + [(2, 1)] * 3 + [(5, 2)] * 6, {3, 4, 5})
        assert _bookkeeping(tr).fk == d
        ok, bad = verify_discharge_trace(tr, d)
        assert not ok
        assert "Delta_v = 0 < 36 at vertex 5" in bad
        assert "h(7) = 21 > 9 on a step touching a vertex of degree >= 9" in bad


class TestAgainstReference:
    """The linear-time builder and bookkeeping against the O(k * n)
    rescan-and-replay form in tests/discharge_reference.py."""

    def test_traces_match(self):
        rng = random.Random(1009)
        for _ in range(600):
            d = random_degree_function(rng)
            ref = reference_trace(d)
            tr = build_discharge_sequence(d)
            book = _bookkeeping(tr)
            for name, want in ref.items():
                if name != "touched_steps":
                    assert getattr(book if name in book._fields else tr, name) == want, (d, name)
            holds = all(reference_delta_v_bound(ref, v, m)[2] for v, m in enumerate(d) if m >= 9)
            assert verify_discharge_trace(tr, d)[0] == holds, d

    def test_seed_0_totals_are_pinned(self):
        rng = random.Random(0)
        sum_k = sum_tk = sum_dv = max_k = sum_n = 0
        for _ in range(1000):
            d = random_degree_function(rng)
            tr = build_discharge_sequence(d)
            sum_k += tr.k
            book = _bookkeeping(tr)
            sum_tk += book.t[-1]
            sum_dv += sum(book.delta_v.values())
            max_k = max(max_k, tr.k)
            sum_n += len(d)
        assert (sum_k, sum_tk, sum_dv, max_k, sum_n) == (16302, 661912, 243068, 36, 21152)


class TestDeltaVBound:
    def test_degree_11_example(self):
        d = [2, 2, 5, 5, 5, 11]
        tr = build_discharge_sequence(d)
        assert verify_discharge_trace(tr, d) == (True, [])
        assert _bookkeeping(tr).delta_v[5] == 54  # bound 11^2 - 9*11 + 14 = 36

    def test_degree_9(self):
        d = [2, 2, 2, 2, 2, 2, 2, 9, 9, 9, 9, 9]  # n=12, sum 59; adjust
        d = [2] * 9 + [9]  # n=10, sum 27; need 5n+l
        # build a valid function containing a degree-9 vertex: n=7, sum 35
        d = [2, 4, 4, 5, 5, 6, 9]
        assert sum(d) == 5 * 7
        tr = build_discharge_sequence(d)
        assert verify_discharge_trace(tr, d) == (True, [])
        book = _bookkeeping(tr)
        assert book.delta_v[6] >= 14  # bound 9^2 - 9*9 + 14
        for (x, y), h in zip(tr.steps, book.h):
            if 6 in (x, y):
                assert h <= 9


class TestStarDeficit:
    def test_nine_spoke_wheel(self):
        H = spoke_wheel(9)
        assert crown_oracle(H) is None
        assert min(H.degrees()) >= 2
        res = star_deficit_check(H, 0)
        assert res.premise_ok
        assert res.deficit == 0 and res.bound == 0 and res.within_bound

    def test_ten_spoke_wheel(self):
        H = spoke_wheel(10)
        assert crown_oracle(H) is None
        res = star_deficit_check(H, 0)
        assert res.deficit <= 10 and res.within_bound and res.premise_ok

    def test_degree_four_co_vertex_flagged(self):
        base = spoke_wheel(9)
        n = base.n
        x1 = 2  # a spoke endpoint; raise its degree to 4
        extra = [
            (x1, n, n + 1),
            (x1, n + 2, n + 3),
            (n, n + 2, n + 4),
            (n + 1, n + 3, n + 4),
        ]
        H = validate_linear(list(base.edges) + extra, n + 5)
        res = star_deficit_check(H, 0)
        assert not res.premise_ok and x1 in res.offending
        assert crown_oracle(H) is not None  # (9,4,2) >= (6,4,2) forces a crown

    def test_vertex_out_of_range(self):
        H = spoke_wheel(9)
        for v in (-1, H.n):
            with pytest.raises(IndexError, match=f"^vertex {v} out of range \\(n={H.n}\\)$"):
                star_deficit_check(H, v)

    @pytest.mark.parametrize("x", [True, 1.0, "1", [1]], ids=["True", "1.0", "1", "list"])
    @pytest.mark.parametrize("f, name", ID_ENTRY_POINTS)
    def test_non_int_refused(self, f, name, x):
        # True is not taken for edge or vertex 1, nor 1.0 for an index, and
        # an unhashable [1] is refused before any set or dict can see it
        with pytest.raises(ValueError) as info:
            f(spoke_wheel(9), x)
        assert str(info.value) == f"{name} must be an int, not {x!r}"

    @pytest.mark.parametrize("f", [LinearThreeGraph.edges_covering, LinearThreeGraph.remove_vertices])
    def test_unhashable_vertex_refused(self, f):
        with pytest.raises(ValueError) as info:
            f(spoke_wheel(9), [[1]])
        assert str(info.value) == "vertex must be an int, not [1]"

    @pytest.mark.parametrize("f", [LinearThreeGraph.edges_covering, LinearThreeGraph.remove_vertices])
    def test_vertex_iterator_read_once(self, f):
        H = spoke_wheel(9)
        assert f(H, iter([0, 2])) == f(H, [0, 2])

    @pytest.mark.parametrize("f, name", ID_ENTRY_POINTS)
    def test_out_of_range_id_refused(self, f, name):
        H = spoke_wheel(9)
        size, label = (len(H.edges), "m") if name == "edge id" else (H.n, "n")
        for x in (-1, size):
            with pytest.raises(IndexError) as info:
                f(H, x)
            assert str(info.value) == f"{name} {x} out of range ({label}={size})"

    def test_small_degree_rejected(self, fano):
        with pytest.raises(ValueError, match=">= 9"):
            star_deficit_check(fano, 0)


class TestLemma2Rhs:
    def test_n11(self):
        assert lemma2_rhs(11, 0) == Fraction(275, 19)
        assert lemma2_rhs(11, 0) > 14

    def test_large_vertex_case(self):
        for n in (1, 5, 11, 100, 9999):
            assert lemma2_rhs(n, 1) > 15

    def test_small_n_below_14(self):
        assert lemma2_rhs(5, 0) == Fraction(375, 27)
        assert lemma2_rhs(5, 0) < 14

    @pytest.mark.parametrize("n, L", [(1.5, 0), (True, 0), (11, 0.5), (11, True)])
    def test_non_int_refused(self, n, L):
        # exact arithmetic needs ints; a bool is not taken for 0 or 1
        with pytest.raises(ValueError, match=f"^n and L must be ints, not n = {n!r}, L = {L!r}$"):
            lemma2_rhs(n, L)

    def test_integer_identity(self):
        # 3(25n + 14L) > 15(5n + 2) <=> 42L > 30, true for all L >= 1
        assert 42 * 1 > 30
        # 3 * 25n > 14(5n + 2) <=> 5n > 28, true for n >= 6; with the
        # counter-example threshold n >= 11 the margin is strict
        for n in range(11, 200):
            assert 75 * n > 14 * (5 * n + 2)
