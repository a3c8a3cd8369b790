"""Star sums, the large-vertex clamp, and the unit-transfer redistribution.

For an edge with degree vector (x, y, z): s = x + y + z, and s* clamps s
to 15 when x >= 9.  T* sums s* over all edges.  The redistribution builds
a sequence f_0..f_k of integer functions from a near-uniform start (values
in {5, 6, 7}) down to the true degree function by unit transfers, with an
increase-only / decrease-only vertex partition.  A trace stores only f_0,
the steps and the partition; the quadratic bookkeeping (T_i, Delta_i, g,
h, Delta_v) is replayed from them in one pass over one running f, and the
verifier checks every condition, the Delta_v bound at each vertex of
degree >= 9 included, on that one replay, so building, verifying and
bookkeeping a trace of k steps on n vertices costs O(n + k).
All arithmetic is exact; no floats anywhere in this module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .graphs import LinearThreeGraph, _is_int


# -- star sums ---------------------------------------------------------------

def s_of(H: LinearThreeGraph, e: int) -> int:
    """Sum of the three endpoint degrees of edge e."""
    return sum(H.degree_vector(e))


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
    """Exact rational (25n + 14L) / ((5n + 2) / 3).  A non-int n or L,
    bools included, is a ValueError, as is n < 1 or L < 0."""
    if not (_is_int(n) and _is_int(L)):
        raise ValueError(f"n and L must be ints, not n = {n!r}, L = {L!r}")
    if n < 1 or L < 0:
        raise ValueError("need n >= 1 and L >= 0")
    return Fraction(3 * (25 * n + 14 * L), 5 * n + 2)


# -- redistribution sequence --------------------------------------------------

class DegreePreconditionError(ValueError):
    """A degree function fails a precondition of the redistribution builder."""


class DischargeTrace(namedtuple("DischargeTrace", "f0 steps increase_set")):
    """The f_0..f_k unit-transfer sequence.

    f0 is the list of start values.  steps[i] = (x, y): vertex x gains one
    unit, vertex y loses one, at step i+1.  increase_set holds the vertices
    never decreased; everything else is decrease-only.  The quadratic
    bookkeeping is not stored: it is replayed from these three fields
    whenever it is read.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.steps)

    @property
    def residue(self) -> int:
        """l in sum f0 = 5n + l."""
        return sum(self.f0) - 5 * len(self.f0)

    def to_json_obj(self) -> dict:
        book = _bookkeeping(self)
        return {
            "f0": list(self.f0),
            "steps": [list(st) for st in self.steps],
            "partition": ["I" if v in self.increase_set else "D" for v in range(len(self.f0))],
            "residue": self.residue,
            "t": book.t,
            "delta": book.delta,
            "delta_v": {str(v): dv for v, dv in sorted(book.delta_v.items())},
        }


# t[i] is the sum of f_i(v)^2 and delta[i] = t[i+1] - t[i]; g[i] =
# 2 f_i(x) + 1 and h[i] = 2 f_i(y) - 1 for step i+1 = (x, y);
# delta_v[v] sums delta over the steps at v; fk is the final function.
_Bookkeeping = namedtuple("_Bookkeeping", "t delta g h delta_v fk")


def _bookkeeping(trace: DischargeTrace) -> _Bookkeeping:
    """Replay the steps of a trace once, with one running f.

    Raises ValueError on a step that is not a pair, on a step vertex that
    is not an int (bools are refused, as in validate_linear) or on one
    outside 0..n-1, n = len(f0).
    """
    f = list(trace.f0)
    n = len(f)
    t = sum(v * v for v in f)
    ts = [t]
    delta: list[int] = []
    g: list[int] = []
    h: list[int] = []
    delta_v: dict[int, int] = {}
    for i, step in enumerate(trace.steps):
        try:
            x, y = step
        except (TypeError, ValueError):
            raise ValueError(f"step {i + 1} = {step!r} is not a pair of vertices") from None
        if not _is_int(x) or not _is_int(y):
            raise ValueError(f"step {i + 1} = {(x, y)!r} has a vertex that is not an int")
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"step {i + 1} = ({x}, {y}) has a vertex outside 0..{n - 1}")
        fx, fy = f[x], f[y]
        f[x] += 1
        f[y] -= 1
        # f is read back after both updates, so a step with x == y is a no-op
        dt = f[x] * f[x] + f[y] * f[y] - fx * fx - fy * fy
        t += dt
        ts.append(t)
        delta.append(dt)
        g.append(2 * fx + 1)
        h.append(2 * fy - 1)
        delta_v[x] = delta_v.get(x, 0) + dt
        delta_v[y] = delta_v.get(y, 0) + dt
    return _Bookkeeping(ts, delta, g, h, delta_v, f)


def _check_preconditions(d: list[int]) -> int:
    n = len(d)
    if n == 0:
        raise DegreePreconditionError("empty degree function")
    for v, x in enumerate(d):
        if not _is_int(x):
            raise DegreePreconditionError(f"d({v}) = {x!r} is not an int")
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

    # Vertices with f > d only lose units and vertices with f < d only gain
    # them, so neither set ever grows: the lowest loser a only moves up the
    # order and the highest gainer b only moves down.
    f = list(f0)
    steps: list[tuple[int, int]] = []
    a, b = 0, n - 1
    while True:
        while a < n and f[order[a]] <= d[order[a]]:
            a += 1
        while b >= 0 and f[order[b]] >= d[order[b]]:
            b -= 1
        if a == n and b < 0:
            break
        assert a < n and b >= 0, "transfer imbalance: sums differ"
        loser, gainer = order[a], order[b]
        if f[gainer] < f[loser]:
            raise AssertionError(
                f"condition (3) violated: gainer f={f[gainer]} < loser f={f[loser]}"
            )
        steps.append((gainer, loser))
        f[gainer] += 1
        f[loser] -= 1

    decreased = {y for _, y in steps}
    return DischargeTrace(f0=f0, steps=steps, increase_set=set(range(n)) - decreased)


def verify_discharge_trace(trace: DischargeTrace, d: list[int]) -> tuple[bool, list[str]]:
    """Check every invariant of a trace against the target degree function.

    The bookkeeping is replayed once from f0 and the steps; it is held to
    d independently by f_k = d and T_k = sum of d(v)^2.  At each vertex v
    of degree m = d(v) >= 9 it also checks the discharging bound
    Delta_v >= m^2 - 9m + 14 and its proof ingredient h(i) <= 9 on every
    step touching v.  Violations are returned as data, not raised, grouped
    by condition in a fixed order.  An entry of d or f0 that is not an
    int, a bool included, is reported alone, before the replay.
    """
    n = len(d)
    f0 = trace.f0
    if len(f0) != n:
        return False, [f"f0 has length {len(f0)}, expected {n}"]
    bad = [f"{name}({v}) = {x!r} is not an int"
           for name, xs in (("d", d), ("f0", f0)) for v, x in enumerate(xs)
           if not _is_int(x)]
    if bad:
        return False, bad
    for v, x in enumerate(f0):
        if not (5 <= x <= 7):
            bad.append(f"condition (1): f0({v}) = {x} not in [5, 7]")
    try:
        book = _bookkeeping(trace)
    except ValueError as exc:
        return False, bad + [str(exc)]
    if book.fk != list(d):
        bad.append("condition (2): f_k != d")
    if trace.residue not in (0, 1, 2):
        bad.append(f"sum f0 = {sum(f0)} != 5n + l with l in {{0,1,2}} (n={n})")
    inc = trace.increase_set
    for i, (x, y) in enumerate(trace.steps):
        if x not in inc:
            bad.append(f"condition (3): step {i + 1} gainer {x} not in I")
        if y in inc:
            bad.append(f"condition (3): step {i + 1} loser {y} not in D")
        # g = 2 f(x) + 1 and h = 2 f(y) - 1 give back f_i at the step
        fx, fy = (book.g[i] - 1) // 2, (book.h[i] + 1) // 2
        if fx < fy:
            bad.append(f"condition (3): step {i + 1} has f(x) = {fx} < f(y) = {fy}")
        if book.h[i] > 9 and (d[x] >= 9 or d[y] >= 9):
            bad.append(f"h({i + 1}) = {book.h[i]} > 9 on a step touching a vertex of degree >= 9")
    for v in range(n):
        if v not in inc and f0[v] != 5:
            bad.append(f"condition (4): v = {v} in D but f0(v) = {f0[v]}")
    for i, dt in enumerate(book.delta):
        if dt <= 0:
            bad.append(f"Delta_{i + 1} = {dt} not positive")
    if book.t[-1] != sum(x * x for x in d):
        bad.append("T_k != sum of d(v)^2")
    for v, m in enumerate(d):
        if m >= 9:
            dv, bound = book.delta_v.get(v, 0), m * m - 9 * m + 14
            if dv < bound:
                bad.append(f"Delta_v = {dv} < {bound} at vertex {v}")
    return not bad, bad


# offending: the co-edge vertices of degree > 3, if any, as a sorted tuple.
StarDeficitResult = namedtuple("StarDeficitResult", "deficit bound within_bound premise_ok offending")


def star_deficit_check(H: LinearThreeGraph, v: int) -> StarDeficitResult:
    """Sum of s - s* over the edges at a large vertex, against m^2 - 9m.

    Also verifies the proof premise that every co-edge vertex of v has
    degree <= 3; a failure is flagged (it means the graph cannot be both
    crown-free and of minimum degree >= 2).
    """
    H._check_vertex(v)
    degs = H.degrees()
    m = degs[v]
    if m < 9:
        raise ValueError(f"d({v}) = {m}, need >= 9")
    if min(degs) < 2:
        raise ValueError("graph has a vertex of degree < 2")
    offending = []
    deficit = 0
    for edge in H.edges:
        if v not in edge:
            continue
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
