#!/usr/bin/env python3
"""crownfree benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/crownfree`` and
nothing else).  Each workload runs in fresh worker processes with
``threads=1`` passed explicitly, so ``CROWNFREE_THREADS`` plays no part.
Every output is checked against a reference; a failed check, an exception
or a budget stop counts as a failed unit, and the command then exits 1.
Units of work are repeated, each in its own worker, as long as one more
unit is expected to end within ``--seconds`` (at least one unit).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``wall_ref_s`` (median unit wall time at the reference CPU speed),
``setup_s`` (median over every fresh process of the time from process
start to the first timed call, also at the reference speed) and
``peak_rss_mb`` (median ``ru_maxrss`` of the unit workers).  The worker
measures the CPU speed each process got (``worker.SpeedProbe``); the host
is shared, and raw times move by up to 1.8 times with its load.  The raw
times are in the report.
``--trace 1`` prints the per-layer metrics from traced workers, plus the
tracing overhead against untraced units, and writes the spans to
``.perfbench/``.

The last line of standard output is the result object; the line before
it is a report with the sample count, the error rate and whether the seed
was used.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Set-up is sampled in this many probe processes before each unit's worker,
# topped up at the end of the run to at least MIN_SETUP_SAMPLES samples.
SETUP_PROBES = 3
MIN_SETUP_SAMPLES = 32
# Everything the command does must end well inside 180 s.
DEADLINE_S = 170.0
PERCENTILES = (99, 95, 90, 75, 50)


def workload_spec(name: str, seed: int) -> dict:
    """The inputs of each workload; only replay_corpus uses the seed."""
    if name == "exact_search":
        return {"kind": "exact", "n": 11, "value": 13, "nodes": 1794}
    if name == "links555":
        return {"kind": "links555"}
    if name == "replay_corpus":
        return {"kind": "replay", "seed": seed, "lemma1": 10_000, "discharge": 1_000}
    raise KeyError(name)


def spawn(src: Path, spec: dict, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion; a crash or timeout is a failed unit."""
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    cmd = [sys.executable, "-I", "-S", str(WORKER), json.dumps(spec), "--src", str(src),
           "--t-spawn", repr(t_spawn), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"wall_s": None, "problems": [f"worker killed after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"wall_s": None,
                "problems": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def _percentile(walls: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples above it."""
    for p in PERCENTILES:
        if len(walls) * (100 - p) >= 1000:
            return {"p": p, "value": statistics.quantiles(walls, n=100, method="inclusive")[p - 1]}
    return None


def _summary(walls: list[float]) -> dict:
    return {
        "unit": "s",
        "median": statistics.median(walls) if walls else None,
        "min": min(walls, default=None),
        "max": max(walls, default=None),
        "percentile": _percentile(walls),
    }


def measure(src: Path, spec: dict, seconds: float, trace: bool, spans: str = "") -> tuple[dict, dict]:
    """Run units of one workload, each in a fresh worker, within ``seconds``.

    Untraced, each unit is preceded by set-up probes, so that set-up is
    sampled across the whole run.  Traced, each unit is a pair: a plain
    worker, then a traced one whose spans go to ``<spans>-<unit>.tsv.gz``.
    Stops at the first failed unit.  Returns (report, metric values by
    name).
    """
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    units: list[dict] = []
    setups: list[dict] = []
    plain: list[float] = []
    while True:
        if trace:
            base = spawn(src, spec, deadline)
            if base["problems"]:
                units.append(base)
                break
            plain.append(base["wall_s"])
            units.append(spawn(src, spec, deadline, "--trace", f"{spans}-{len(units)}.tsv.gz"))
        else:
            probes = [spawn(src, spec, deadline, "--probe") for _ in range(SETUP_PROBES)]
            unit = spawn(src, spec, deadline)
            setups += [p for p in probes + [unit] if "setup_s" in p]
            unit["problems"] = [q for p in probes for q in p["problems"]] + unit["problems"]
            units.append(unit)
        if units[-1]["problems"]:
            break
        # Start another unit only if one more, at the mean pace so far, fits.
        elapsed = time.monotonic() - t_start
        if elapsed * (len(units) + 1) / len(units) > seconds:
            break
    while not trace and not units[-1]["problems"] and len(setups) < MIN_SETUP_SAMPLES:
        probe = spawn(src, spec, deadline, "--probe")
        units[-1]["problems"] += probe["problems"]
        setups += [probe] if "setup_s" in probe else []

    ok = [u for u in units if not u["problems"]]
    walls = [u["wall_s"] for u in ok]
    values: dict[str, float] = {}
    if ok and not trace:
        values = {
            "wall_ref_s": statistics.median(u["wall_ref_s"] for u in ok),
            "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in ok),
        }
    elif ok:
        # median_low keeps counts whole; they repeat exactly across units anyway
        values = {k: statistics.median_low(u["layers"][k] for u in ok) for k in ok[0]["layers"]}
        values["trace.overhead"] = statistics.median(walls) / statistics.median(plain)
    failed = len(units) - len(ok)
    report = {
        "kind": spec["kind"],
        "seed_used": "seed" in spec,
        "trace": int(trace),
        "samples": len(walls),
        "wall_s": _summary(walls),
        "wall_ref_s": _summary([u["wall_ref_s"] for u in ok if u["wall_ref_s"] is not None]),
        "setup_samples": len(setups),
        "setup_raw_s": statistics.median(p["setup_s"] for p in setups) if setups else None,
        "attempted": len(units),
        "failed": failed,
        "error_rate": {"value": failed / len(units), "unit": "ratio"},
        "problems": [p for u in units for p in u["problems"]],
    }
    return report, values


def result_line(bench: dict, trace: bool, report: dict, values: dict) -> dict:
    """The result object, with exactly the metrics BENCHMARK.json lists for the mode."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    correct = report["failed"] == 0 and all(m["name"] in values for m in wanted)
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "crownfree" / "__init__.py").is_file():
        print(f"error: no crownfree sources under {src}", file=sys.stderr)
        return 2
    try:
        spec = workload_spec(args.workload, args.seed)
    except KeyError:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    spans = ""
    if args.trace:
        (root / ".perfbench").mkdir(exist_ok=True)
        spans = str(root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}")
    report, values = measure(src, spec, args.seconds, bool(args.trace), spans)
    report = {"workload": args.workload, "seed": args.seed, **report}
    result = result_line(bench, bool(args.trace), report, values)
    for p in report["problems"]:
        print(f"FAIL {args.workload}: {p}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
