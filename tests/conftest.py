"""Shared builders and independent oracles for the test suite.

The resistance oracle here deliberately avoids the package's own Laplacian
assembly and solvers: it builds the dense matrix straight from the edge list
and pseudo-inverts it, so agreement with the library is evidence rather than
tautology.
"""

import math

import numpy as np
import pytest

from resnet.graphs import ConductanceGraph


def random_connected_graph(rng, n, extra_edges=0, base=0):
    """Random tree on n vertices plus optional extra edges, log-uniform weights."""

    def weight():
        return float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))

    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = weight()
    pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    for k in rng.choice(len(pool), size=min(extra_edges, len(pool)), replace=False):
        edges[pool[k]] = weight()
    return ConductanceGraph.from_edges(
        [(i, j, w) for (i, j), w in edges.items()], base
    )


def dense_laplacian(graph):
    """Dense Laplacian straight from the edge list (no package assembly)."""
    lap = np.zeros((graph.n, graph.n))
    for i, j, c in graph.edge_list():
        lap[i, i] += c
        lap[j, j] += c
        lap[i, j] -= c
        lap[j, i] -= c
    return lap


def pinv_resistance(graph, x, y):
    """Effective resistance via the pseudo-inverse of the full Laplacian."""
    pinv = np.linalg.pinv(dense_laplacian(graph))
    return float(pinv[x, x] + pinv[y, y] - 2.0 * pinv[x, y])


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def per_z_triangle_slack(d):
    """The per-z loop `ResistanceMatrix.triangle_slack` replaced, kept as its oracle.

    For each z it forms d(x,z) + d(z,y) - d(x,y) over every pair as one n x n
    temporary, writes +inf over the excluded triples (x = y, x = z, y = z)
    and keeps the running minimum.  The one change from the shipped loop: a
    NaN slice returns NaN, where Python's min(worst, nan) used to skip it.
    """
    worst = np.inf
    for z in range(d.shape[0]):
        slack = d[:, z, None] + d[None, z, :] - d
        np.fill_diagonal(slack, np.inf)
        slack[z, :] = np.inf
        slack[:, z] = np.inf
        low = float(slack.min())
        if math.isnan(low):
            return math.nan
        worst = min(worst, low)
    return worst
