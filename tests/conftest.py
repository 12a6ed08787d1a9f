"""Shared builders and independent oracles for the test suite.

The resistance oracle here deliberately avoids the package's own Laplacian
assembly and solvers: it builds the dense matrix straight from the edge list
and pseudo-inverts it, so agreement with the library is evidence rather than
tautology.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from resnet.graphs import ConductanceGraph, TruncatedGraph, ValidationIssue, as_truncated


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


def per_row_cdf(graph):
    """Row CDFs of the walk, one `np.cumsum` per vertex, each row's last entry set to 1.

    The per-vertex loop `markov._step_tables` replaced, kept as its oracle.
    """
    cdf = np.empty_like(graph.weights)
    for x in range(graph.n):
        lo, hi = graph.indptr[x], graph.indptr[x + 1]
        if hi > lo:
            cdf[lo:hi] = np.cumsum(graph.weights[lo:hi]) / graph.degrees[x]
            cdf[hi - 1] = 1.0
    return cdf


# -- the graph loader before array-native loading, kept as its oracle ----------


def oracle_label_sort_key(label):
    """The total label order of `graphs._label_sort_key`, built in full for every label."""
    if isinstance(label, bool):
        return (3, str(label), "")
    if isinstance(label, (int, float, np.integer, np.floating)):
        return (0, float(label), "")
    if isinstance(label, str):
        return (1, label, "")
    if isinstance(label, tuple):
        return (2, tuple(oracle_label_sort_key(part) for part in label), "")
    return (3, repr(label), "")


def oracle_label_from_json(obj):
    """JSON label to graph label, recursing into every part."""
    if isinstance(obj, list):
        return tuple(oracle_label_from_json(part) for part in obj)
    return obj


def oracle_build(cls, labels, base, i, j, w):
    """`ConductanceGraph._build` with a per-vertex hop loop and the keyed (hop, label) sort.

    Install it with ``monkeypatch.setattr(ConductanceGraph, "_build",
    classmethod(oracle_build))`` to make every constructor build as before.
    """
    n = len(labels)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keep = len(lo) - 1 - np.unique((lo * n + hi)[::-1], return_index=True)[1]
    rows, cols = np.r_[lo[keep], hi[keep]], np.r_[hi[keep], lo[keep]]
    vals = np.r_[w[keep], w[keep]]
    degree = np.bincount(rows, minlength=n)
    by_row = cols[np.argsort(rows, kind="stable")]
    pattern = sparse.csr_matrix(
        (np.ones(len(rows)), by_row, np.r_[0, np.cumsum(degree)]), shape=(n, n)
    )
    reached, pred = breadth_first_order(pattern, base, return_predecessors=True)
    hop, pred = [-1] * n, pred.tolist()
    hop[base] = 0
    for v in reached[1:].tolist():
        hop[v] = hop[pred[v]] + 1
    order = sorted(
        range(n), key=lambda v: (hop[v] < 0, hop[v], oracle_label_sort_key(labels[v]))
    )
    new = np.argsort(order)
    rows, cols = new[rows], new[cols]
    sort = np.lexsort((cols, rows))
    return cls(
        new[base],
        [labels[v] for v in order],
        np.r_[0, np.cumsum(degree[order])],
        cols[sort],
        vals[sort],
        np.array(hop, dtype=np.int64)[order],
    )


def oracle_load_graph(path):
    """`load_graph` of a valid file by the per-entry edge reading and `oracle_build`."""
    with open(path) as fh:
        data = json.load(fh)
    n = data["vertices"]
    parsed = [(int(x), int(y), float(c)) for x, y, c in data["edges"]]
    i, j, w = np.array(parsed, dtype=np.float64).reshape(-1, 3).T
    labels = [oracle_label_from_json(l) for l in data.get("labels", range(n))]
    graph = oracle_build(
        ConductanceGraph, labels, data["base_point"], i.astype(np.int64), j.astype(np.int64), w
    )
    if "frontier" not in data:
        return as_truncated(graph)
    idx = sorted(graph.index_of(oracle_label_from_json(l)) for l in data["frontier"])
    rest = np.setdiff1d(np.arange(graph.n), idx)
    radius = data.get("radius", int(graph.hop_distance.max()))
    return TruncatedGraph(graph, int(radius), rest, np.asarray(idx, dtype=np.int64))


def truncation_digest(t):
    """SHA-256 over every field of a truncation: labels with their types, base
    point, CSR arrays and hop distances with their dtypes, interior, frontier
    and radius."""
    g = t.graph
    h = hashlib.sha256()
    h.update(repr([(type(l).__name__, l) for l in g.labels]).encode())
    h.update(repr((g.n, g.base_point, int(t.radius))).encode())
    for arr in (g.indptr, g.indices, g.weights, g.hop_distance, t.interior, t.frontier):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def sparse_structure_issues(graph):
    """The asymmetry and self-loop issues of `validate`, found by sparse arithmetic
    on the adjacency matrix as before `validate` read the CSR arrays directly."""
    issues = []
    adj = sparse.csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(graph.n,) * 2)
    asym = abs(adj - adj.T)
    if asym.nnz and asym.max() > 0:
        rows, cols = asym.nonzero()
        i, j = int(rows[0]), int(cols[0])
        detail = f"stored weights differ across orientations, e.g. edge ({i}, {j})"
        issues.append(ValidationIssue("asymmetric", detail))
    if adj.diagonal().any():
        loops = np.flatnonzero(adj.diagonal())
        detail = f"diagonal entries at vertices {loops.tolist()[:5]}"
        issues.append(ValidationIssue("self-loop", detail))
    return issues


_THREE = {"vertices": 3, "base_point": 0, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}

# JSON with the right field names but the wrong shapes
WRONG_SHAPES = {
    "top-level-int": (5, "JSON object"),
    "top-level-list": ([_THREE], "JSON object"),
    "vertices-bool": ({**_THREE, "vertices": True}, "bad-count"),
    "base-point-bool": ({**_THREE, "base_point": True}, "bad-base"),
    "edges-int": ({**_THREE, "edges": 5}, "edges must be a list"),
    "labels-int": ({**_THREE, "labels": 7}, "'labels' field must be an array"),
    "labels-str": ({**_THREE, "labels": "abc"}, "'labels' field must be an array"),
    "label-object": ({**_THREE, "labels": [0, 1, {"a": 1}]}, "JSON object"),
    "label-nested-object": ({**_THREE, "labels": [0, [1, {"a": 1}], 2]}, "JSON object"),
    "frontier-int": ({**_THREE, "frontier": 5}, "'frontier' field must be an array"),
    "frontier-object": ({**_THREE, "frontier": [{"a": 1}]}, "unknown vertex label"),
    "frontier-nested-object": (
        {**_THREE, "labels": [0, [1, 2], 2], "frontier": [[1, {"a": 1}]]},
        "unknown vertex label",
    ),
    "radius-str": ({**_THREE, "frontier": [2], "radius": "x"}, "radius"),
    "radius-null": ({**_THREE, "frontier": [2], "radius": None}, "radius"),
    "radius-fraction": ({**_THREE, "frontier": [2], "radius": 2.5}, "radius"),
}
