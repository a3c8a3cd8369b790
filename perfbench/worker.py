"""One benchmark worker: a fresh process that runs one workload spec.

Run as ``python3 -I -S worker.py SPEC --src DIR --t-spawn T`` with SPEC a
JSON object (see ``UNITS``).  The worker imports crownfree from ``DIR`` and
nowhere else, runs the workload's unit of work once, checks every output
against its reference, and prints one JSON line with the unit's wall
time, the problems found, the set-up time and the peak RSS.

The host is shared: a CPU-bound unit runs up to 1.8 times slower for
periods of seconds to minutes, and the two vCPUs differ in speed.  So the
worker also measures the CPU speed it got (``SpeedProbe``) and reports
each time scaled to a reference speed as well as raw.

``--probe`` stops right before the timed call, so the caller can sample
set-up time alone.  ``--trace FILE`` wraps the crownfree layers (see
``tracer.py``), adds the unit's layer metrics, and writes the spans to
FILE at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

# Passed to exact_ex so that a run-away search ends as a budget stop, which
# counts as a failure, well before the benchmark's 180 s limit.
EXACT_BUDGET_S = 120.0
REPLAY3_CHECKS = 14
# The speed probe times CALIB_ROUNDS rounds of a fixed loop every
# PROBE_INTERVAL_S.  REF_CALIB_S is about that loop's time on a quiet host
# (the machine in README.md); a scaled time is the raw time at that speed.
CALIB_ROUNDS = 120
PROBE_INTERVAL_S = 0.05
REF_CALIB_S = 0.25e-3
# Samples taken outside the timed region, so that short spans have some.
EDGE_SAMPLES = 8


def _calib() -> float:
    """Builds and sorts small dicts, the kind of work crownfree does with
    automorphisms and edge lists; it tracks the unit's slow-downs better
    than an integer loop does."""
    t0 = time.perf_counter()
    for i in range(CALIB_ROUNDS):
        d = {j: j ^ i for j in range(12)}
        sorted(d.items())
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the CPU speed this thread gets, from a SIGALRM handler.

    The speed is sampled on the same thread as the timed code, because the
    slow-downs of the two vCPUs do not go together.  The loop shares no data
    with the program, so a change to crownfree moves its time only through
    the caches.
    """

    def __init__(self) -> None:
        _calib()  # warm the loop up
        self.samples = [_calib() for _ in range(EDGE_SAMPLES)]

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(_calib()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [_calib() for _ in range(EDGE_SAMPLES)]

    def scale(self) -> float:
        """Reference speed over the speed got: work is time over loop time,
        so the harmonic mean of the loop times gives the mean speed."""
        return REF_CALIB_S / statistics.harmonic_mean(self.samples)


def _exact(cf, spec):
    n = spec["n"]
    crown_oracle = cf.crowns.crown_oracle
    validate_linear = cf.graphs.validate_linear

    def run():
        return cf.search.exact_ex(n, threads=1, max_seconds=EXACT_BUDGET_S)

    def check(cert) -> list[str]:
        bad = []
        if not cert.exhaustive:
            bad.append(f"exact_ex({n}) stopped on its budget")
        if cert.value != spec["value"]:
            bad.append(f"exact_ex({n}) value {cert.value}, expected {spec['value']}")
        if cert.nodes_explored != spec["nodes"]:
            bad.append(f"exact_ex({n}) explored {cert.nodes_explored} nodes, expected {spec['nodes']}")
        if not cert.witnesses:
            bad.append(f"exact_ex({n}) returned no witness")
        for w in cert.witnesses:
            g = validate_linear(w, n)
            if len(g.edges) != spec["value"]:
                bad.append(f"witness {w} has {len(g.edges)} edges")
            if crown_oracle(g) is not None:
                bad.append(f"witness {w} contains a crown")
        return bad

    return run, check, lambda cert: cert.nodes_explored


def _suite_problems(rep, expected: int) -> list[str]:
    """A suite fails on any failure, and on passing with a count other than asked."""
    bad = [f"{rep.suite}: {name}: {detail}" for name, detail in rep.failures]
    if rep.instances != expected:
        bad.append(f"{rep.suite}: ran {rep.instances} instances, expected {expected}")
    return bad


def _links555(cf, spec):
    def run():
        return cf.lemmas.verify_links555()

    return run, lambda rep: _suite_problems(rep, 1), lambda rep: 0


def _replay(cf, spec):
    lemmas = cf.lemmas
    seed, n_lemma1, n_discharge = spec["seed"], spec["lemma1"], spec["discharge"]

    def run():
        return [
            (lemmas.verify_lemma1_on_corpus(seed, n_lemma1), n_lemma1),
            (lemmas.verify_discharge_suite(seed, n_discharge), n_discharge),
            (lemmas.replay_section3(), REPLAY3_CHECKS),
            (lemmas.verify_order11(), 1),
        ]

    def check(out) -> list[str]:
        return [p for rep, expected in out for p in _suite_problems(rep, expected)]

    return run, check, lambda out: 0


UNITS = {"exact": _exact, "links555": _links555, "replay": _replay}


def _import_crownfree(src: str):
    sys.path.insert(0, src)
    import crownfree
    import crownfree.cli  # noqa: F401  (binds layer names; traced like the rest)

    where = os.path.realpath(crownfree.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"crownfree imported from {where}, not from {src}")
    return crownfree


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("--src", required=True)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent right before it started this process")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", metavar="FILE")
    args = ap.parse_args(argv)

    spec = json.loads(args.spec)
    cf = _import_crownfree(args.src)
    run, check, nodes_of = UNITS[spec["kind"]](cf, spec)
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - args.t_spawn
    speed = SpeedProbe()
    setup_ref = setup_s * speed.scale()
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref, "problems": []}))
        return 0

    layers = None
    wall_ref = None
    try:
        if tracer is None:
            with speed:
                t0 = time.perf_counter()
                out = run()
                wall = time.perf_counter() - t0
            wall_ref = wall * speed.scale()
        else:
            with tracer.root() as root:
                out = run()
            layers = tracer.unit_metrics(root, nodes_of(out))
            wall = layers["trace.wall_s"]
        problems = check(out)
    except Exception:
        wall = None
        problems = ["exception:\n" + traceback.format_exc()]

    if tracer is not None:
        tracer.write_spans(args.trace)
    print(json.dumps({
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "problems": problems,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
