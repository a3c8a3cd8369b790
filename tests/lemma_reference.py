"""Reference corpus draws, for tests.

The plain form of the draws in `crownfree.lemmas`: `plant_642_instance`
and `random_degree_function` as written on `rng.randint`, `rng.randrange`
and `rng.sample`.  The library draws the same values straight from
`rng.getrandbits`, so the tests hold it to these instance by instance,
with the generator's state compared after every draw.

This is the only place that keeps the pair-table form of planting: every
pair of the base, of each petal and of each kept noise edge goes into one
set, and a noise triple is refused when one of its pairs is in it.  The
library stores the noise edges' pairs alone and refuses a triple that
meets the sunflower by arithmetic on the petals' vertex ranges.
"""

from __future__ import annotations

import random

from crownfree.graphs import LinearThreeGraph, Triple


def plant_642_instance(rng: random.Random) -> tuple[LinearThreeGraph, int]:
    """Random linear graph with a planted edge whose degree vector dominates
    (6,4,2): a sunflower through a base edge plus random linear noise."""
    da = rng.randint(6, 9)
    db = rng.randint(4, min(da, 8))
    dc = rng.randint(2, min(db, 6))
    # the base's 3 vertices, 2 fresh ones per petal, up to 6 spare ones
    n = 3 + 2 * (da + db + dc - 3) + rng.randint(0, 6)
    # pairs x < y keyed as x*n + y; a petal (v, nxt, nxt + 1) has v < 3 <= nxt
    edges: list[Triple] = [(0, 1, 2)]
    pairs = {0 * n + 1, 0 * n + 2, 1 * n + 2}
    nxt = 3
    for v, dv in ((0, da), (1, db), (2, dc)):
        vn = v * n
        for _ in range(dv - 1):
            edges.append((v, nxt, nxt + 1))
            pairs.update((vn + nxt, vn + nxt + 1, nxt * n + nxt + 1))
            nxt += 2
    # random noise edges that keep linearity (pair-reuse rejected)
    for _ in range(rng.randint(0, 12)):
        a, b, c = rng.sample(range(n), 3)
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        p, q, r = a * n + b, a * n + c, b * n + c
        if p in pairs or q in pairs or r in pairs:
            continue
        pairs.update((p, q, r))
        edges.append((a, b, c))
    return LinearThreeGraph(n, tuple(sorted(edges))), 0


def random_degree_function(rng: random.Random) -> list[int]:
    """Seeded degree function with sum 5n + l, min >= 2, n <= 40, and an
    occasional planted degree in 9..15."""
    n = rng.randint(3, 40)
    l = rng.randint(0, 2)
    target = 5 * n + l
    d = [2] * n
    if rng.random() < 0.7:
        d[rng.randrange(n)] = rng.randint(9, 15)
    remaining = target - sum(d)
    while remaining < 0:  # planted degree overshot on a tiny n
        d = [2] * n
        remaining = target - sum(d)
    for _ in range(remaining):
        d[rng.randrange(n)] += 1
    return d
