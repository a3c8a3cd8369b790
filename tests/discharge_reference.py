"""Reference unit-transfer builder and bookkeeping, for tests.

The plain form of `crownfree.discharging`: each step rescans the vertex
order for the lowest vertex with f > d and the highest with f < d, and the
bookkeeping is read off the full list f_0..f_k of intermediate functions.
It costs O(k * n) where the library costs O(n + k), and it shares no code
with the library, so the tests hold `build_discharge_sequence`, the
library's one-pass bookkeeping and the verifier's Delta_v bound to it.
"""

from __future__ import annotations


def reference_trace(d: list[int]) -> dict:
    """The trace of d as a dict with the DischargeTrace field names.

    d must meet the builder's preconditions (sum 5n + l with l in {0,1,2},
    minimum degree >= 2); they are not checked here.
    """
    n = len(d)
    l = sum(d) - 5 * n
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
    steps = []
    while True:
        a = next((i for i in range(n) if f[order[i]] > d[order[i]]), None)
        b = next((i for i in range(n - 1, -1, -1) if f[order[i]] < d[order[i]]), None)
        if a is None and b is None:
            break
        assert a is not None and b is not None
        loser, gainer = order[a], order[b]
        assert f[gainer] >= f[loser]
        steps.append((gainer, loser))
        f[gainer] += 1
        f[loser] -= 1

    fs = replay(f0, steps)
    t = [sum(v * v for v in fi) for fi in fs]
    delta = [t[i + 1] - t[i] for i in range(len(steps))]
    g, h, touched = [], [], {}
    for i, (x, y) in enumerate(steps):
        fx, fy = fs[i][x], fs[i][y]
        g.append((fx + 1) ** 2 - fx ** 2)
        h.append(fy ** 2 - (fy - 1) ** 2)
        touched.setdefault(x, []).append(i)
        touched.setdefault(y, []).append(i)
    return {
        "f0": f0,
        "steps": steps,
        "increase_set": set(range(n)) - {y for _, y in steps},
        "residue": l,
        "t": t,
        "delta": delta,
        "g": g,
        "h": h,
        "touched_steps": touched,
        "delta_v": {v: sum(delta[i] for i in idxs) for v, idxs in touched.items()},
    }


def replay(f0: list[int], steps: list[tuple[int, int]]) -> list[list[int]]:
    """All intermediate functions f_0..f_k, each as its own list."""
    fs = [list(f0)]
    for x, y in steps:
        cur = list(fs[-1])
        cur[x] += 1
        cur[y] -= 1
        fs.append(cur)
    return fs


def reference_delta_v_bound(ref: dict, v: int, m: int) -> tuple[int, int, bool]:
    """(Delta_v, m^2 - 9m + 14, Delta_v >= bound) from a reference_trace
    dict, with f_k(v) read off the replayed f_k; m >= 9 and f_k(v) == m
    are asserted."""
    assert m >= 9
    assert replay(ref["f0"], ref["steps"])[-1][v] == m
    idxs = ref["touched_steps"].get(v, [])
    assert all(ref["h"][i] <= 9 for i in idxs)
    dv = sum(ref["delta"][i] for i in idxs)
    bound = m * m - 9 * m + 14
    return dv, bound, dv >= bound
