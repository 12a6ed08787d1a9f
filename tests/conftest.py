"""Shared builders and independent oracles for the test suite.

The resistance oracle here deliberately avoids the package's own Laplacian
assembly and solvers: it builds the dense matrix straight from the edge list
and pseudo-inverts it, so agreement with the library is evidence rather than
tautology.
"""

import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from resnet import graphs
from resnet.decomposition import RoydenSplit, energy_split
from resnet.energy import (
    EnergyVector,
    _check_pair,
    _dipole_vectors,
    energy_inner,
    gauged,
    pointwise_product,
    reproducing_check,
    solve_dipoles,
)
from resnet.graphs import (
    ConductanceGraph,
    GraphError,
    TruncatedGraph,
    ValidationIssue,
    _check_tol,
    as_truncated,
    generate,
    truncate,
    underlying,
)
from resnet.greens import GreensMatrix
from resnet.laplacian import (
    assemble_laplacian,
    grounded_laplacian,
    grounded_solve,
    harmonic_extension,
)
from resnet.resistance import _cycle_system


def build_truncation(family, radius, params):
    """`generate(family, radius, **params)`, where the family "explicit" names a
    graph given by its `edges` and `base_point`, cut by `truncate` at `radius`."""
    if family != "explicit":
        return generate(family, radius=radius, **params)
    graph = ConductanceGraph.from_edges(params["edges"], params["base_point"])
    return as_truncated(graph) if radius is None else truncate(graph, radius)


def build_with_an_isolated_vertex():
    """The labels 0, 1, 2 with the one edge (0, 1), handed to the constructor,
    which refuses vertex 2 for having no edge."""
    return ConductanceGraph([0, 1, 2], 0, np.array([0]), np.array([1]), np.ones(1))


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


def _star_mesh(net, keep):
    """Eliminate every node of `net` off `keep`, in place, in minimum-degree order.

    `net` maps each node to {neighbor: conductance}.  Removing node v joins
    each pair u, w of its neighbors by c_uv c_vw / c(v) in parallel with what
    joins them already: the star-mesh transform, which is Kron reduction.
    """
    rest = set(net) - set(keep)
    while rest:
        v = min(rest, key=lambda u: len(net[u]))
        rest.remove(v)
        star = net.pop(v)
        total = sum(star.values())
        for u in star:
            del net[u][v]
        for (u, cu), (w, cw) in itertools.combinations(star.items(), 2):
            net[u][w] = net[w][u] = net[u].get(w, 0) + cu * cw / total
    return net


def exact_kron(graph, terminals, ground=()):
    """The network `graph` reduces to on `terminals`, in exact rational arithmetic.

    Every float conductance is a dyadic rational, so the network the code
    holds has an exact Kron reduction; `fractions.Fraction` computes it.  The
    vertices of `ground` are first shorted into one node, "ground", which is
    kept beside the terminals.  Returns {node: {neighbor: conductance}}.
    """
    ground = {int(v) for v in ground}
    net = {}
    for i, j, c in graph.edge_list():
        u, w = ("ground" if i in ground else i), ("ground" if j in ground else j)
        if u != w:
            net.setdefault(u, {})
            net.setdefault(w, {})
            net[u][w] = net[w][u] = net[u].get(w, 0) + Fraction(c)
    keep = {"ground" if int(t) in ground else int(t) for t in terminals}
    return _star_mesh(net, keep | ({"ground"} if ground else set()))


def exact_resistances(graph, pairs, ground=()):
    """{(x, y): exact R(x, y)} of `graph` with `ground` shorted into one node.

    One reduction onto the vertices of `pairs`; each pair then reduces the
    small terminal network onto its two ends.
    """
    net = exact_kron(graph, {v for pair in pairs for v in pair}, ground)
    out = {}
    for x, y in pairs:
        if x == y:
            out[x, y] = Fraction(0)
            continue
        pair = _star_mesh({u: dict(nbrs) for u, nbrs in net.items()}, {x, y})
        out[x, y] = 1 / pair[x][y]
    return out


def exact_tree_distance(graph, x, y):
    """The exact sum of the edge resistances 1/c along the path from x to y of a tree."""
    hop, total = graph.hop_distance, Fraction(0)
    while x != y:
        if hop[x] < hop[y]:
            x, y = y, x
        nbrs, w = graph.neighbors(x)
        (up,) = np.flatnonzero(hop[nbrs] < hop[x])  # a tree vertex has one parent
        x, total = int(nbrs[up]), total + 1 / Fraction(float(w[up]))
    return total


def pinv_resistance(graph, x, y):
    """Effective resistance via the pseudo-inverse of the full Laplacian."""
    pinv = np.linalg.pinv(dense_laplacian(graph))
    return float(pinv[x, x] + pinv[y, y] - 2.0 * pinv[x, y])


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def count_calls(monkeypatch, module, names, where=None):
    """Count the calls to each named function of `module`, wherever resnet holds it.

    With `where`, only the calls for which ``where(*args, **kwargs)`` is true count.
    Every binding of a name gets the same wrapper, so a later count on that
    name finds it everywhere and sees the calls made through any module.
    """
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            if where is None or where(*args, **kwargs):
                calls[name] += 1
            return fn(*args, **kwargs)

        return call

    originals = {name: getattr(module, name) for name in names}
    wrappers = {name: counted(name, fn) for name, fn in originals.items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("resnet"):
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrappers[name])
    return calls


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


def parent_solve_dipole(g, x, y, tol=1e-10):
    """`solve_dipole` as it was before it became the k = 1 case of
    `solve_dipoles`, kept as its oracle: its own vector right-hand side,
    handed to the PCG loop."""
    graph = underlying(g)
    _check_pair(graph, x, y)
    _check_tol(tol)
    lap = assemble_laplacian(graph)
    rhs = np.zeros(graph.n)
    rhs[x], rhs[y] = 1.0, -1.0
    return _dipole_vectors(graph, lap, rhs, [(x, y)], tol)[0]


def per_pair_dipoles(g, pairs, tol=1e-10):
    """The per-pair loop `energy.solve_dipoles` replaced, kept as its oracle:
    one single solve per pair, so the first failing pair raises its error."""
    return [parent_solve_dipole(g, int(x), int(y), tol) for x, y in pairs]


_PARENT_METHODS = ("M1", "M2", "M3", "M4", "M7")


def parent_resistance(g, x, y, method="M2", tol=1e-10):
    """`resistance()` as it was before every method resolved to one route
    table, kept as its oracle: a branch for "all" and one per single route.
    For x = y it returns 0.0 under every method, "all" included."""
    graph = underlying(g)
    _check_pair(graph, x, y, distinct=False)
    _check_tol(tol)
    if x == y:
        return 0.0
    if method == "all":
        values = _parent_dipole_routes(parent_solve_dipole(graph, x, y, tol))
        values["M3"] = _parent_min_dissipation(graph, x, y, tol)
        values["M4"] = _parent_grounded_increment(graph, x, y)
        values = {m: values[m] for m in _PARENT_METHODS}
        lo, hi = min(values.values()), max(values.values())
        values["max_rel_disagreement"] = (hi - lo) / hi if hi > 0 else 0.0
        return values
    method = {"M5": "M7", "M6": "M2"}.get(method, method)
    if method in ("M1", "M2", "M7"):
        return _parent_dipole_routes(parent_solve_dipole(graph, x, y, tol))[method]
    if method == "M3":
        return _parent_min_dissipation(graph, x, y, tol)
    if method == "M4":
        return _parent_grounded_increment(graph, x, y)
    raise GraphError(f"unknown method {method!r}")


def _parent_dipole_routes(v):
    increment = float(v.values[v.source] - v.values[v.sink])
    return {"M1": increment, "M2": v.energy, "M7": increment**2 / v.energy}


def _parent_min_dissipation(graph, x, y, tol):
    system = _cycle_system(graph)
    return system.certified_energy(system.unit_flow(x, y), tol)


def _parent_grounded_increment(graph, x, y):
    rhs = np.zeros(graph.n)
    rhs[x], rhs[y] = 1.0, -1.0
    v = grounded_solve(graph, graph.base_point, rhs)
    return float(v[x] - v[y])


def two_product_inversion_check(g, kernel):
    """`greens.greens_inversion_check` as it was before it formed one product
    for a symmetric kernel: K L and L K, with L sliced out of the assembled
    sparse Laplacian."""
    graph = getattr(g, "graph", g)
    sub = assemble_laplacian(graph).as_csr()[kernel.vertices][:, kernel.vertices]
    deviations = []
    for prod in (kernel.matrix @ sub, sub @ kernel.matrix):
        prod = np.asarray(prod)
        prod[np.diag_indices_from(prod)] -= 1.0
        deviations.append(float(np.max(np.abs(prod))))
    return float(np.max(deviations))


def parent_grounded_kernel(graph, ground):
    """`greens._grounded_kernel` as it was before it solved in column blocks,
    kept as its oracle: one solve of the whole identity, symmetrized by
    `0.5 * (k + k.T)` after recording the max of |k - k.T|."""
    kept, lu = grounded_laplacian(graph, ground)
    k = lu.solve(np.eye(len(kept)))
    residual = float(np.max(np.abs(k - k.T))) if len(kept) else 0.0
    return GreensMatrix(graph, kept.tolist(), 0.5 * (k + k.T), residual)


def vector_energy_inner(u, v):
    """<u, v> as `energy_inner` computed it before it became the k = 1 case of
    `energy._energy_form`: one `np.dot` over the edge increments of two vectors."""
    i, j, c = u.graph.edge_arrays()
    return float(np.dot(c * (u.values[i] - u.values[j]), v.values[i] - v.values[j]))


# -- the per-sample loops of `check`, kept as oracles of its block passes -------
#
# Each has the signature of the `cli` function it stands for and draws from
# `rng` in the same order.  The one change from the shipped loops: a NaN sample
# makes the result NaN, where Python's max(worst, nan) used to skip it.


def _worse(worst, value):
    return value if math.isnan(value) or value > worst else worst


def per_sample_algebra_bound(graph, rng):
    """One `pointwise_product` per pair of draws: the loop `cli._algebra_bound` replaced."""
    worst = -np.inf
    for _ in range(200):
        u = gauged(graph, rng.standard_normal(graph.n))
        w = gauged(graph, rng.standard_normal(graph.n))
        _, cert = pointwise_product(u, w)
        scale = max(1.0, abs(cert.bound))
        worst = _worse(worst, (cert.product_energy - cert.bound) / scale)
    return worst


def per_sample_reproducing_property(graph, rng, tol):
    """One `reproducing_check` per dipole: the loop `cli._reproducing_property` replaced."""
    pairs, fs = [], []
    for _ in range(25):  # each pair, then its test function f
        pairs.append(rng.choice(graph.n, size=2, replace=False))
        fs.append(gauged(graph, rng.standard_normal(graph.n)))
    dipoles = solve_dipoles(graph, pairs, tol=tol)
    worst = 0.0
    for v, f in zip(dipoles, fs):
        worst = _worse(worst, reproducing_check(v, f) / max(1.0, f.sup_norm()))
    return worst


def per_sample_royden_pythagoras(trunc, rng):
    """One `energy_split` per draw: the loop `cli._royden_pythagoras` replaced."""
    worst = 0.0
    for _ in range(10):
        f = gauged(trunc.graph, rng.standard_normal(trunc.graph.n))
        split = energy_split(trunc, f)
        worst = _worse(worst, split["identity_residual"] / max(1.0, split["total"]))
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


# -- the split and the harmonic measure before the one split helper -----------
#
# Each extends the frontier trace on its own and solves one harmonic measure
# per point, as `royden_split`, `project_finite`, `interpolate` and
# `harmonic_measure_exact` did before they shared the split helper and the
# block measure solve.


def single_harmonic_measure(trunc, x):
    """The harmonic measure from x by its own adjoint solve against e_x."""
    graph = trunc.graph
    e_x = np.zeros(graph.n)
    e_x[x] = 1.0
    z = grounded_solve(graph, trunc.frontier, e_x)
    return np.maximum((graph.adjacency() @ z)[trunc.frontier], 0.0)


def _parent_gauged_and_extension(trunc, f):
    graph = trunc.graph
    fv = f if isinstance(f, EnergyVector) else gauged(graph, np.asarray(f, dtype=float))
    if len(trunc.frontier) == 0:
        return fv, np.zeros(graph.n)
    return fv, harmonic_extension(trunc, fv.values[trunc.frontier])


def parent_royden_split(trunc, f):
    """`royden_split` with its own gauge and extension."""
    graph = trunc.graph
    fv, qraw = _parent_gauged_and_extension(trunc, f)
    harmonic = gauged(graph, qraw)
    finite = gauged(graph, fv.values - harmonic.values)
    residual = abs(energy_inner(finite, harmonic))
    return RoydenSplit(graph, fv.values, finite, harmonic, residual)


def _parent_kernel_remainder(trunc, kernel, f):
    fv, qraw = _parent_gauged_and_extension(trunc, f)
    return fv, assemble_laplacian(trunc.graph).apply(fv.values - qraw)[kernel.vertices]


def parent_project_finite(trunc, kernel, f):
    """`project_finite`: K applied to the Laplacian of f minus its extension."""
    _, rhs = _parent_kernel_remainder(trunc, kernel, f)
    out = np.zeros(trunc.graph.n)
    out[kernel.vertices] = kernel.matrix @ rhs
    return EnergyVector(trunc.graph, out)


def parent_interpolate(trunc, kernel, f, x):
    """`interpolate` with one single-point measure solve for x and one for the base."""
    fv, rhs = _parent_kernel_remainder(trunc, kernel, f)
    base = trunc.graph.base_point
    green_term = 0.0 if x == base else float(kernel.matrix[kernel._pos[x]] @ rhs)
    trace = fv.values[trunc.frontier]
    if len(trunc.frontier) == 0:
        boundary_term = 0.0
    else:
        mu_x = single_harmonic_measure(trunc, x)
        mu_base = single_harmonic_measure(trunc, base)
        boundary_term = float(mu_x @ trace - mu_base @ trace)
    value = green_term + boundary_term
    return {
        "value": value,
        "green_term": green_term,
        "boundary_term": boundary_term,
        "residual": abs(value - float(fv.values[x])),
    }


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


def oracle_build(labels, base, i, j, w):
    """`graphs._csr` with a per-vertex hop loop and the keyed (hop, label) sort.

    Install it with ``monkeypatch.setattr(graphs, "_csr", oracle_build)`` to
    make every constructor build as before.
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
    return (
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_csr", oracle_build)
        graph = ConductanceGraph(
            labels, data["base_point"], i.astype(np.int64), j.astype(np.int64), w
        )
    if "frontier" not in data:
        return as_truncated(graph)
    idx = sorted(graph.index_of(oracle_label_from_json(l)) for l in data["frontier"])
    radius = data.get("radius", int(graph.hop_distance.max()))
    return TruncatedGraph(graph, int(radius), np.asarray(idx, dtype=np.int64))


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
    """Asymmetry and self-loop issues of a graph's stored CSR arrays, found by
    sparse arithmetic on its adjacency matrix; the constructor makes both absent."""
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


# Conductances whose resistances overflow: 1/6e-309 is about 1.7e308, so in
# series two of them read inf, and 1/1e-310 is inf outright.  In C the tiny
# edge is one of several paths, so every resistance is finite.
EXTREME_FILES = {
    "A": {"vertices": 4, "base_point": 0, "edges": [[0, 1, 1.0], [1, 2, 6e-309], [2, 3, 6e-309]]},
    "B": {"vertices": 3, "base_point": 0, "edges": [[0, 1, 1.0], [1, 2, 1e-310]]},
    "C": {"vertices": 4, "base_point": 0,
          "edges": [[0, 1, 1.0], [1, 2, 1e-310], [2, 3, 1.0], [0, 3, 1.0], [1, 3, 2.0]]},
}


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
