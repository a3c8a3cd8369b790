"""Shared fixture graphs: the crown, Fano plane, AG(2,3), spoke wheels;
and the `slow` gate for opt-in tests."""

import os

import pytest

from crownfree import validate_linear

# Opt-in tests that take tens of seconds: run them with CROWNFREE_SLOW=1.
slow = pytest.mark.skipif(os.environ.get("CROWNFREE_SLOW") != "1",
                          reason="slow; set CROWNFREE_SLOW=1 to run")

CROWN_EDGES = [(0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8)]
FANO_EDGES = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6),
    (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]


@pytest.fixture
def crown():
    return validate_linear(CROWN_EDGES, 9)


@pytest.fixture
def fano():
    return validate_linear(FANO_EDGES, 7)


def ag23():
    """Affine plane of order 3: 9 points, 12 lines in 4 parallel classes."""
    lines = []
    for x in range(3):  # vertical lines
        lines.append(tuple(sorted(3 * x + y for y in range(3))))
    for s in range(3):  # slopes 0, 1, 2
        for b in range(3):
            lines.append(tuple(sorted(3 * x + (s * x + b) % 3 for x in range(3))))
    return validate_linear(lines, 9)


def spoke_wheel(spokes: int):
    """Crown-free graph with two high-degree hubs and min degree 2.

    Hub 0 carries `spokes` edges {0, x_i, y_i}; closing edges
    {y_i, x_(i+1), 1} run through a second hub so any two candidate jewels
    at the non-hub vertices of a spoke intersect at hub 1.
    """
    xs = [2 + 2 * i for i in range(spokes)]
    ys = [3 + 2 * i for i in range(spokes)]
    edges = [tuple(sorted((0, xs[i], ys[i]))) for i in range(spokes)]
    edges += [
        tuple(sorted((1, ys[i], xs[(i + 1) % spokes]))) for i in range(spokes)
    ]
    return validate_linear(edges, 2 + 2 * spokes)
