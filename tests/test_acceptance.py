"""Acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
so the gate can be read off the pytest -s output directly.  Seeds, counts,
and time budgets are pinned here and nowhere else.
"""

import os
import random
import time

import pytest

from crownfree import (
    crown_oracle,
    exact_ex,
    find_crown,
    lemma2_rhs,
    parse_l3g,
    validate_linear,
)
from crownfree.cli import run
from crownfree.lemmas import (
    encode_canonical_G,
    enumerate_555_link_graphs,
    min_counterexample_order,
    replay_section3,
    verify_discharge_suite,
    verify_lemma1_on_corpus,
)
from crownfree.search import generate_all, random_linear_graph

from conftest import CROWN_EDGES, FANO_EDGES


def report(num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    disagreements = 0
    scanned = 0
    for H in generate_all(8):
        scanned += 1
        if find_crown(H) != crown_oracle(H):
            disagreements += 1
    rng = random.Random(20260823)
    for _ in range(10_000):
        n = rng.randint(9, 15)
        m = rng.randint(0, min((5 * n) // 3, n * (n - 1) // 6))
        H = random_linear_graph(n, m, seed=rng.randrange(2**31))
        scanned += 1
        if find_crown(H) != crown_oracle(H):
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 600.0
    report(1, "oracle equivalence", ok,
           f"{scanned} graphs, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_2_lemma1_planted():
    rep = verify_lemma1_on_corpus(seed=642, count=10_000)
    report(2, "lemma 1 planted corpus", rep.passed and rep.instances == 10_000,
           f"{rep.instances} instances, {len(rep.failures)} failures, "
           f"{rep.elapsed_ms:.0f}ms")


def test_criterion_3_links555_unique():
    t0 = time.monotonic()
    classes = enumerate_555_link_graphs()
    elapsed = time.monotonic() - t0
    ok = len(classes) == 1 and classes[0] == encode_canonical_G() and elapsed < 60.0
    report(3, "(5,5,5) link graph uniqueness", ok,
           f"{len(classes)} class(es), {elapsed:.1f}s")


def test_criterion_4_section3_replay():
    rep = replay_section3()
    report(4, "induced-subgraph replay", rep.passed,
           "; ".join(d for _, d in rep.failures) or f"{rep.instances} checks")


def test_criterion_5_order_11():
    val = min_counterexample_order()
    report(5, "minimum counter-example order", val == 11, f"got {val}")


def test_criterion_6_discharge_suite():
    t0 = time.monotonic()
    rep = verify_discharge_suite(seed=4, count=1_000)
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.instances == 1_000 and elapsed < 60.0
    report(6, "discharging trace suite", ok,
           f"{rep.instances} functions, {len(rep.failures)} failures, "
           f"{elapsed:.1f}s")


def test_criterion_7_exact_values():
    t0 = time.monotonic()
    problems = []
    values = {}
    base_certs = {}
    for n in range(3, 11):
        cert = exact_ex(n, threads=1)
        base_certs[n] = cert
        values[n] = cert.value
        if not cert.exhaustive:
            problems.append(f"n={n} not exhaustive")
        if not 6 * ((n - 3) // 4) <= cert.value:
            problems.append(f"n={n} below construction bound")
        if not 3 * cert.value < 5 * n:
            problems.append(f"n={n} violates 3*value < 5n")
        if not cert.value <= n * (n - 1) // 6:
            problems.append(f"n={n} above pair-count bound")
        for g in cert.witness_graphs():
            if crown_oracle(g) is not None or len(g.edges) != cert.value:
                problems.append(f"n={n} witness fails re-validation")
    if values.get(7) != 7:
        problems.append(f"ex(7) = {values.get(7)} != 7")
    if values.get(8) != 8:
        problems.append(f"ex(8) = {values.get(8)} != 8")
    for n in (7, 9, 10):
        for threads in (2, os.cpu_count() or 2):
            c = exact_ex(n, threads=threads)
            ref = base_certs[n]
            if (c.value, c.witnesses, c.exhaustive) != (
                ref.value, ref.witnesses, ref.exhaustive
            ):
                problems.append(f"n={n} threads={threads} result differs")
    elapsed = time.monotonic() - t0
    if elapsed >= 1800.0:
        problems.append(f"over time budget: {elapsed:.0f}s")
    report(7, "exact extremal values", not problems,
           "; ".join(problems) or
           f"values {[values[n] for n in range(3, 11)]}, {elapsed:.1f}s")


def test_criterion_8_lemma2_rhs_ranges():
    bad = []
    for n in range(11, 10_001):
        if not lemma2_rhs(n, 0) > 14:
            bad.append((n, 0))
    for n in range(1, 10_001):
        if not lemma2_rhs(n, 1) > 15:
            bad.append((n, 1))
        if not lemma2_rhs(n, n) > 15:
            bad.append((n, n))
    report(8, "average star-sum threshold arithmetic", not bad,
           f"first violation {bad[0]}" if bad else "all exact-rational checks hold")


def test_criterion_9_cli_contract(tmp_path, capsys):
    failures = []

    # 100 seeded round trips through the text format
    rng = random.Random(9)
    for i in range(100):
        n = rng.randint(4, 14)
        m = rng.randint(0, min((5 * n) // 3, n * (n - 1) // 6))
        g = random_linear_graph(n, m, seed=i)
        text = g.to_l3g()
        back = parse_l3g(text)
        if back.edges != g.edges or back.to_l3g() != text:
            failures.append(f"round trip {i}")

    crown_path = tmp_path / "crown.l3g"
    crown_path.write_text(validate_linear(CROWN_EDGES, 9).to_l3g())
    fano_path = tmp_path / "fano.l3g"
    fano_path.write_text(validate_linear(FANO_EDGES, 7).to_l3g())
    bad_path = tmp_path / "bad.l3g"
    bad_path.write_text("4 2\n0 1 2\n0 1 3\n")

    golden = [
        (["check", str(fano_path)], 0),
        (["check", str(crown_path)], 2),
        (["check", str(fano_path), "--json"], 0),
        (["check", str(bad_path)], 1),
        (["check", str(tmp_path / "missing.l3g")], 1),
        (["random", "--n", "9", "--m", "6", "--seed", "1"], 0),
        (["random", "--n", "4", "--m", "99", "--seed", "1"], 1),
        (["construct", "--n", "11"], 0),
        (["construct", "--n", "7"], 0),
        (["exact", "--n", "6"], 0),
        (["exact", "--n", "7", "--json"], 0),
        (["exact", "--n", "9", "--max-nodes", "5"], 3),
        (["link", str(crown_path), "--edge", "0"], 0),
        (["link", str(crown_path), "--edge", "99"], 1),
        (["discharge", str(fano_path), "--json"], 0),
        (["lemmas", "--suite", "order11"], 0),
        (["lemmas", "--suite", "lemma1", "--count", "25"], 0),
        (["lemmas", "--suite", "bogus"], 1),
        (["frobnicate"], 1),
        ([], 1),
    ]
    for argv, expect in golden:
        got = run(argv)
        capsys.readouterr()  # discard command output
        if got != expect:
            failures.append(f"{argv} -> {got}, expected {expect}")

    report(9, "command-line contract", not failures,
           "; ".join(failures) or "100 round trips + 20 golden exit codes")
