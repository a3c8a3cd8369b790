"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench

They drive the same worker processes as the full workloads, in both
modes, with exact_ex(9) and small replay corpora in place of the full
sizes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import worker

ROOT = run.HERE.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT9 = {"kind": "exact", "n": 9, "value": 9, "nodes": 125}
SMALL_REPLAY = {"kind": "replay", "seed": 3, "lemma1": 200, "discharge": 20}


def test_exact_untraced_smoke():
    report, values = run.measure(SRC, EXACT9, 0, trace=False)
    assert report["failed"] == 0, report["problems"]
    assert report["seed_used"] is False
    assert report["samples"] == 1
    assert report["setup_samples"] == run.MIN_SETUP_SAMPLES
    assert report["wall_s"]["median"] > 0 and report["setup_raw_s"] > 0
    result = run.result_line(BENCH, False, report, values)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in result["metrics"].values():
        assert m["value"] > 0


def test_exact_traced_smoke(tmp_path):
    report, values = run.measure(SRC, EXACT9, 0, trace=True, spans=str(tmp_path / "spans"))
    assert report["failed"] == 0, report["problems"]
    result = run.result_line(BENCH, True, report, values)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert values["search.nodes"] == 125
    assert values["canon.calls"] > 0 and values["crowns.calls"] > 0
    assert values["search.canon_per_node"] == values["canon.calls"] / 125
    assert 0.98 < values["trace.coverage"] <= 1.0
    assert (tmp_path / "spans-0.tsv.gz").stat().st_size > 0


def test_replay_traced_smoke(tmp_path):
    report, values = run.measure(SRC, SMALL_REPLAY, 0, trace=True, spans=str(tmp_path / "s"))
    assert report["failed"] == 0, report["problems"]
    assert report["seed_used"] is True
    assert values["canon.calls"] == 0
    # one planted base per lemma1 instance, plus the replay3 crown checks
    assert values["crowns.calls"] >= SMALL_REPLAY["lemma1"]
    assert values["discharging.self_s"] > 0
    assert values["search.nodes"] == 0


def test_traced_counts_repeat(tmp_path):
    _, a = run.measure(SRC, SMALL_REPLAY, 0, trace=True, spans=str(tmp_path / "a"))
    _, b = run.measure(SRC, SMALL_REPLAY, 0, trace=True, spans=str(tmp_path / "b"))
    for name in ("canon.calls", "crowns.calls", "crowns.rainbow_calls", "graphs.calls",
                 "crowns.oracle_calls", "crowns.hit_ratio"):
        assert a[name] == b[name], name


def test_speed_probe_samples_during_the_timed_code():
    with worker.SpeedProbe() as speed:
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            pass
    assert len(speed.samples) > 2 * worker.EDGE_SAMPLES
    assert speed.scale() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_wrong_reference_is_a_failure():
    report, values = run.measure(SRC, dict(EXACT9, value=10), 0, trace=False)
    assert report["failed"] == 1
    assert report["error_rate"]["value"] > 0
    assert any("expected 10" in p for p in report["problems"])
    assert not run.result_line(BENCH, False, report, values)["correct"]


def test_pass_with_too_few_instances_is_a_failure():
    # lemma1 with a negative count reports PASS over 0 instances
    report, _ = run.measure(SRC, dict(SMALL_REPLAY, lemma1=-3), 0, trace=False)
    assert report["failed"] == 1
    assert any("lemma1: ran 0 instances, expected -3" in p for p in report["problems"])


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_every_listed_workload_has_inputs(name):
    spec = run.workload_spec(name, 5)
    assert spec["kind"] in ("exact", "links555", "replay")
