"""Star sums, the large-vertex clamp, and the unit-transfer redistribution.

For an edge with degree vector (x, y, z): s = x + y + z, and s* clamps s
to 15 when x >= 9.  T* sums s* over all edges.  The redistribution builds
a sequence f_0..f_k of integer functions from a near-uniform start (values
in {5, 6, 7}) down to the true degree function by unit transfers, with an
increase-only / decrease-only vertex partition, and exposes the quadratic
bookkeeping (T_i, Delta_i, g, h, Delta_v) needed by the two inequality
checks.  All arithmetic is exact; no floats anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import LinearThreeGraph


# -- star sums ---------------------------------------------------------------

def s_of(H: LinearThreeGraph, e: int) -> int:
    """Sum of the three endpoint degrees of edge e."""
    return H.degree_vector(e).s


def _star_sums(degs: list[int], edge) -> tuple[int, int]:
    """(s, s*) of an edge under the degree list degs."""
    ds = [degs[u] for u in edge]
    s = sum(ds)
    return s, (min(s, 15) if max(ds) >= 9 else s)


def s_star(H: LinearThreeGraph, e: int) -> int:
    """s(e) clamped to 15 when the maximum endpoint degree is >= 9."""
    return _star_sums(H.degrees(), H.edge(e))[1]


def large_set(H: LinearThreeGraph) -> set[int]:
    """Vertices of degree 9 or higher."""
    return {v for v, d in enumerate(H.degrees()) if d >= 9}


def t_star(H: LinearThreeGraph) -> int:
    """Sum of s* over all edges; equals sum of d(v)^2 when no vertex is large."""
    degs = H.degrees()
    return sum(_star_sums(degs, edge)[1] for edge in H.edges)


def lemma2_rhs(n: int, L: int) -> Fraction:
    """Exact rational (25n + 14L) / ((5n + 2) / 3)."""
    if n < 1 or L < 0:
        raise ValueError("need n >= 1 and L >= 0")
    return Fraction(3 * (25 * n + 14 * L), 5 * n + 2)


# -- redistribution sequence --------------------------------------------------

class DegreePreconditionError(ValueError):
    """A degree function fails a precondition of the redistribution builder."""


@dataclass
class DischargeTrace:
    """The f_0..f_k unit-transfer sequence with all derived bookkeeping.

    steps[i] = (x, y): vertex x gains one unit, vertex y loses one, at step
    i+1.  increase_set holds the vertices never decreased; everything else
    is decrease-only.  t[i] is the sum of f_i(v)^2; delta[i] = t[i+1] - t[i];
    g/h split each delta into the gainer and loser contributions.
    """

    f0: list[int]
    steps: list[tuple[int, int]]
    increase_set: set[int]
    residue: int
    t: list[int] = field(default_factory=list)
    delta: list[int] = field(default_factory=list)
    g: list[int] = field(default_factory=list)
    h: list[int] = field(default_factory=list)
    touched_steps: dict[int, list[int]] = field(default_factory=dict)
    delta_v: dict[int, int] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.steps)

    def replay(self) -> list[list[int]]:
        """All intermediate functions f_0..f_k."""
        fs = [list(self.f0)]
        cur = list(self.f0)
        for x, y in self.steps:
            cur = list(cur)
            cur[x] += 1
            cur[y] -= 1
            fs.append(cur)
        return fs

    def to_json_obj(self) -> dict:
        return {
            "f0": list(self.f0),
            "steps": [list(st) for st in self.steps],
            "partition": ["I" if v in self.increase_set else "D" for v in range(len(self.f0))],
            "residue": self.residue,
            "t": list(self.t),
            "delta": list(self.delta),
            "delta_v": {str(v): dv for v, dv in sorted(self.delta_v.items())},
        }


def _check_preconditions(d: list[int]) -> int:
    n = len(d)
    if n == 0:
        raise DegreePreconditionError("empty degree function")
    if min(d) < 2:
        raise DegreePreconditionError("minimum degree must be >= 2")
    total = sum(d)
    l = total - 5 * n
    if l not in (0, 1, 2):
        raise DegreePreconditionError(f"sum {total} != 5n + l with l in {{0,1,2}} (n={n})")
    if l == 1 and max(d) < 6:
        raise DegreePreconditionError("l=1 requires a vertex of degree >= 6")
    if l == 2 and max(d) < 7 and sum(1 for x in d if x >= 6) < 2:
        raise DegreePreconditionError("l=2 requires degree >= 7 or two vertices of degree >= 6")
    return l


def build_discharge_sequence(d: list[int]) -> DischargeTrace:
    """Run the greedy unit-transfer procedure from the near-uniform start.

    Vertices are ordered by non-decreasing degree (ties by index).  f0 is 5
    everywhere except the top vertex gets 6 when l = 1; when l = 2 the top
    vertex gets 7 if its degree allows, else the top two get 6.  Each step
    moves a unit from the lowest-ordered vertex with f > d to the
    highest-ordered vertex with f < d.  The gainer-vs-loser inequality of
    condition (3) is asserted at every step rather than trusted.
    """
    l = _check_preconditions(d)
    n = len(d)
    order = sorted(range(n), key=lambda v: (d[v], v))
    f0 = [5] * n
    if l == 1:
        f0[order[-1]] = 6
    elif l == 2:
        if d[order[-1]] >= 7:
            f0[order[-1]] = 7
        else:
            f0[order[-1]] = 6
            f0[order[-2]] = 6

    f = list(f0)
    steps: list[tuple[int, int]] = []
    while True:
        a = next((i for i in range(n) if f[order[i]] > d[order[i]]), None)
        b = next((i for i in range(n - 1, -1, -1) if f[order[i]] < d[order[i]]), None)
        if a is None and b is None:
            break
        assert a is not None and b is not None, "transfer imbalance: sums differ"
        loser, gainer = order[a], order[b]
        if f[gainer] < f[loser]:
            raise AssertionError(
                f"condition (3) violated: gainer f={f[gainer]} < loser f={f[loser]}"
            )
        steps.append((gainer, loser))
        f[gainer] += 1
        f[loser] -= 1

    decreased = {y for _, y in steps}
    trace = DischargeTrace(
        f0=f0,
        steps=steps,
        increase_set=set(range(n)) - decreased,
        residue=l,
    )
    _fill_derived(trace)
    return trace


def _fill_derived(trace: DischargeTrace) -> None:
    fs = trace.replay()
    trace.t = [sum(v * v for v in fi) for fi in fs]
    trace.delta = [trace.t[i + 1] - trace.t[i] for i in range(trace.k)]
    trace.g = []
    trace.h = []
    trace.touched_steps = {}
    for i, (x, y) in enumerate(trace.steps):
        fx, fy = fs[i][x], fs[i][y]
        trace.g.append((fx + 1) ** 2 - fx ** 2)
        trace.h.append(fy ** 2 - (fy - 1) ** 2)
        trace.touched_steps.setdefault(x, []).append(i)
        trace.touched_steps.setdefault(y, []).append(i)
    trace.delta_v = {
        v: sum(trace.delta[i] for i in idxs) for v, idxs in trace.touched_steps.items()
    }


def verify_discharge_trace(trace: DischargeTrace, d: list[int]) -> tuple[bool, list[str]]:
    """Check every invariant of a trace against the target degree function.

    Violations are returned as data, not raised.
    """
    bad: list[str] = []
    n = len(d)
    if len(trace.f0) != n:
        return False, [f"f0 has length {len(trace.f0)}, expected {n}"]
    for v, x in enumerate(trace.f0):
        if not (5 <= x <= 7):
            bad.append(f"condition (1): f0({v}) = {x} not in [5, 7]")
    fs = trace.replay()
    if fs[-1] != list(d):
        bad.append("condition (2): f_k != d")
    total0 = sum(trace.f0)
    if total0 != 5 * n + trace.residue:
        bad.append(f"sum f0 = {total0} != 5n + l = {5 * n + trace.residue}")
    for i, (x, y) in enumerate(trace.steps):
        if x not in trace.increase_set:
            bad.append(f"condition (3): step {i + 1} gainer {x} not in I")
        if y in trace.increase_set:
            bad.append(f"condition (3): step {i + 1} loser {y} not in D")
        if fs[i][x] < fs[i][y]:
            bad.append(f"condition (3): step {i + 1} has f(x) = {fs[i][x]} < f(y) = {fs[i][y]}")
    for v in range(n):
        if v not in trace.increase_set and trace.f0[v] != 5:
            bad.append(f"condition (4): v = {v} in D but f0(v) = {trace.f0[v]}")
    for i, fi in enumerate(fs):
        if sum(fi) != total0:
            bad.append(f"conservation broken at f_{i}")
    ts = [sum(v * v for v in fi) for fi in fs]
    if trace.t and trace.t != ts:
        bad.append("stored T_i differ from replay")
    for i in range(len(ts) - 1):
        if ts[i + 1] - ts[i] <= 0:
            bad.append(f"Delta_{i + 1} = {ts[i + 1] - ts[i]} not positive")
    if ts[-1] != sum(x * x for x in d):
        bad.append("T_k != sum of d(v)^2")
    return not bad, bad


def delta_v_bound_check(trace: DischargeTrace, v: int, m: int) -> tuple[int, int, bool]:
    """Delta_v against the lower bound m^2 - 9m + 14 for a large vertex.

    Also asserts the proof ingredient h(i) <= 9 on every step touching v.
    """
    if m < 9:
        raise ValueError(f"vertex degree m = {m} must be >= 9")
    fs = trace.replay()
    if fs[-1][v] != m:
        raise ValueError(f"trace ends with f_k({v}) = {fs[-1][v]}, not m = {m}")
    idxs = trace.touched_steps.get(v, [])
    for i in idxs:
        if trace.h[i] > 9:
            raise AssertionError(f"h({i + 1}) = {trace.h[i]} > 9 on a step touching {v}")
    dv = sum(trace.delta[i] for i in idxs)
    bound = m * m - 9 * m + 14
    return dv, bound, dv >= bound


@dataclass(frozen=True)
class StarDeficitResult:
    deficit: int
    bound: int
    within_bound: bool
    premise_ok: bool
    offending: tuple[int, ...]  # co-edge vertices of degree > 3, if any


def star_deficit_check(H: LinearThreeGraph, v: int) -> StarDeficitResult:
    """Sum of s - s* over the edges at a large vertex, against m^2 - 9m.

    Also verifies the proof premise that every co-edge vertex of v has
    degree <= 3; a failure is flagged (it means the graph cannot be both
    crown-free and of minimum degree >= 2).
    """
    degs = H.degrees()
    m = degs[v]
    if m < 9:
        raise ValueError(f"d({v}) = {m}, need >= 9")
    if min(degs) < 2:
        raise ValueError("graph has a vertex of degree < 2")
    offending = []
    deficit = 0
    for e in H.edges_at(v):
        edge = H.edge(e)
        for u in edge:
            if u != v and degs[u] > 3:
                offending.append(u)
        s, s_st = _star_sums(degs, edge)
        deficit += s - s_st
    bound = m * m - 9 * m
    return StarDeficitResult(
        deficit=deficit,
        bound=bound,
        within_bound=deficit <= bound,
        premise_ok=not offending,
        offending=tuple(sorted(set(offending))),
    )
