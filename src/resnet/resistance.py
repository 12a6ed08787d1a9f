"""Effective resistance between vertices, by several independent routes.

The resistance metric d(x, y) is the voltage drop when one amp enters at x
and leaves at y.  Implemented routes:

  M1  dipole increment v(x) - v(y)
  M2  dipole energy ||v||^2
  M3  minimum dissipation over unit flows (Thomson's principle), solved in
      the cycle space of a maximum-conductance spanning tree
  M4  increment v(x) - v(y) of the dipole solved directly against the
      sparse LU of the Laplacian grounded at the base point
  M7  normalized increment (v(x) - v(y))^2 / ||v||^2, the variational
      maximizer evaluated explicitly

M1, M2 and M7 are three readouts of one conjugate-gradient dipole solve; M3
and M4 (direct factorization) are the independent routes.  M3 never touches
the nodal Laplacian: it sends the unit flow along the tree path from x to y,
corrects it by the fundamental cycles through one cached dense Cholesky of
C^T R C per graph, certifies Kirchhoff's voltage law on every cycle, and
sums r_e f_e^2 with fsum.  On a tree it is the exact path sum.  M5 and M6
(the two constrained variational forms) are analytically the duals of M7 and
M2; they are accepted as aliases and computed through their twins.

Whole matrices and the family diagnostics read d(x, y) = K(x, x) + K(y, y)
- 2 K(x, y) off the base-grounded kernel K, one multi-column solve against
the cached grounded factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .energy import SolverError, _write_csv, solve_dipole
from .graphs import GraphError, generate, underlying
from .greens import greens_gram
from .laplacian import grounded_solve

__all__ = [
    "METHODS",
    "resistance",
    "CurrentFlow",
    "current_of_dipole",
    "ResistanceMatrix",
    "resistance_matrix",
    "boundedness_diagnostic",
    "type_a_diagnostic",
    "continuum_reference",
]

METHODS = ("M1", "M2", "M3", "M4", "M7")
_ALIASES = {"M5": "M7", "M6": "M2"}


def _check_pair(graph, x, y):
    for v in (x, y):
        if not 0 <= v < graph.n:
            raise GraphError(f"vertex index {v} out of range [0, {graph.n})")


def resistance(g, x, y, method="M2", tol=1e-10):
    """Effective resistance between vertex indices x and y by one route.

    `method` is one of M1, M2, M3, M4, M7 (M5/M6 are dual aliases of M7/M2),
    or "all" for a dict of every route plus their max pairwise relative
    disagreement.
    """
    graph = underlying(g)
    _check_pair(graph, x, y)
    if x == y:
        return 0.0
    if method == "all":
        values = _dipole_routes(solve_dipole(graph, x, y, tol))
        values["M3"] = _min_dissipation(graph, x, y, tol)
        values["M4"] = _grounded_increment(graph, x, y)
        values = {m: values[m] for m in METHODS}
        lo, hi = min(values.values()), max(values.values())
        values["max_rel_disagreement"] = (hi - lo) / hi if hi > 0 else 0.0
        return values
    method = _ALIASES.get(method, method)
    if method in ("M1", "M2", "M7"):
        return _dipole_routes(solve_dipole(graph, x, y, tol))[method]
    if method == "M3":
        return _min_dissipation(graph, x, y, tol)
    if method == "M4":
        return _grounded_increment(graph, x, y)
    raise GraphError(f"unknown method {method!r}; choose from {METHODS} or 'all'")


def _dipole_routes(v):
    """M1, M2 and M7 read off one solved dipole."""
    increment = float(v.values[v.source] - v.values[v.sink])
    return {"M1": increment, "M2": v.energy, "M7": increment**2 / v.energy}


@dataclass
class _CycleSystem:
    """Thomson's principle in the cycle space of a maximum-conductance spanning tree.

    Edges follow `edge_arrays()`, oriented i -> j.  Each non-base vertex v
    keeps its tree parent, the index of the edge to it and the sign (+1 or
    -1) that edge carries for a flow from v toward the root, which is the
    base point.  Column c of `cycles` (the signed m x k matrix C) is the
    fundamental cycle of the c-th non-tree edge; `factor` is the Cholesky
    factor of the dense k x k matrix C^T R C, with R = diag(1/c_e).
    """

    parent: list
    parent_edge: list
    sign: list
    depth: list
    resistances: np.ndarray
    cycles: sparse.csr_matrix
    factor: tuple | None  # None on a tree, where k = 0

    def unit_flow(self, x, y):
        """The least-energy unit flow from x to y.

        The tree path carries one amp up from x and down to y; the cycle
        correction C alpha with alpha = -(C^T R C)^-1 C^T R f_tree then
        makes the flow satisfy Kirchhoff's voltage law on every cycle.
        """
        flow = np.zeros(len(self.resistances))
        parent, edge, sign, depth = self.parent, self.parent_edge, self.sign, self.depth
        while x != y:
            if depth[x] >= depth[y]:
                flow[edge[x]] = sign[x]
                x = parent[x]
            else:
                flow[edge[y]] = -sign[y]
                y = parent[y]
        if self.factor is not None:
            # The second pass is one step of iterative refinement: on lattice
            # r=40 it takes the KVL residual from about 6e-13 to 5e-16.
            for _ in range(2):
                drop = self.cycles.T @ (self.resistances * flow)
                flow -= self.cycles @ cho_solve(self.factor, drop, check_finite=False)
        return flow

    def kvl_residual(self, flow):
        """max over cycles of |sum_e C_ec r_e f_e| / max(sum_e |C_ec| r_e |f_e|, sum_e r_e f_e^2).

        The floor sum_e r_e f_e^2 is the voltage drop the flow carries from x
        to y.  Without it a cycle that carries no current has a scale made of
        rounding dust, and dust over dust reads as a residual of order 1.  0/0
        reads 0.
        """
        if self.factor is None:
            return 0.0
        drop = self.resistances * flow
        net = np.abs(self.cycles.T @ drop)
        scale = np.maximum(abs(self.cycles).T @ np.abs(drop), drop @ flow)
        ratio = np.divide(net, scale, out=np.zeros_like(net), where=scale > 0)
        return float(ratio.max())

    def certified_energy(self, flow, tol):
        """sum_e r_e f_e^2 of a flow whose KVL residual is at most `tol`."""
        residual = self.kvl_residual(flow)
        if residual > tol:
            raise SolverError(
                f"cycle-space flow breaks Kirchhoff's voltage law "
                f"(residual {residual:.3e} > tol {tol:.1e})",
                residual=residual,
            )
        return math.fsum(self.resistances * flow * flow)


def _cycle_system(graph):
    if "cycle_system" not in graph._cache:
        graph._cache["cycle_system"] = _build_cycle_system(graph)
    return graph._cache["cycle_system"]


def _build_cycle_system(graph):
    n = graph.n
    i, j, c = graph.edge_arrays()
    r = 1.0 / c
    tree = minimum_spanning_tree(sparse.csr_matrix((r, (i, j)), shape=(n, n)))
    order, pred = breadth_first_order(
        tree, graph.base_point, directed=False, return_predecessors=True
    )
    if len(order) < n:
        raise GraphError("graph is disconnected: no unit flow joins every pair")
    # edge_arrays is ordered by (i, j), so its keys i*n + j are sorted
    child = order[1:].astype(np.int64)
    up = pred[child].astype(np.int64)
    tree_edge = np.searchsorted(i * n + j, np.minimum(child, up) * n + np.maximum(child, up))
    parent_edge = np.zeros(n, dtype=np.int64)
    sign = np.zeros(n)
    parent_edge[child] = tree_edge
    sign[child] = np.where(child < up, 1.0, -1.0)
    parent = pred.tolist()
    depth = [0] * n
    for v in child.tolist():
        depth[v] = depth[parent[v]] + 1

    # Fundamental cycles, all at once: the non-tree edge i -> j, then the tree
    # path from j up to the common ancestor (toward the root) and down to i.
    in_tree = np.zeros(len(c), dtype=bool)
    in_tree[tree_edge] = True
    chords = np.flatnonzero(~in_tree)
    k = len(chords)
    depth_arr = np.asarray(depth)
    rows, cols, vals = [chords], [np.arange(k)], [np.ones(k)]
    a, b, col = j[chords], i[chords], np.arange(k)
    while len(col):
        climb_a = depth_arr[a] >= depth_arr[b]
        climb_b = depth_arr[b] >= depth_arr[a]
        for ends, climb, direction in ((a, climb_a, 1.0), (b, climb_b, -1.0)):
            rows.append(parent_edge[ends[climb]])
            cols.append(col[climb])
            vals.append(direction * sign[ends[climb]])
        a = np.where(climb_a, pred[a], a)
        b = np.where(climb_b, pred[b], b)
        open_ = a != b
        a, b, col = a[open_], b[open_], col[open_]
    cycles = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(c), k),
    )
    factor = None
    if k:
        gram = (cycles.T @ sparse.diags(r) @ cycles).toarray()
        try:
            factor = cho_factor(gram)
        except LinAlgError as exc:
            raise SolverError(f"cycle-space Cholesky failed ({k} cycles): {exc}") from None
    return _CycleSystem(parent, parent_edge.tolist(), sign.tolist(), depth, r, cycles, factor)


def _min_dissipation(graph, x, y, tol):
    system = _cycle_system(graph)
    return system.certified_energy(system.unit_flow(x, y), tol)


def _grounded_increment(graph, x, y):
    # The base-grounded LU is the one greens_gram uses, so M4 adds no
    # factorization per pair.
    rhs = np.zeros(graph.n)
    rhs[x], rhs[y] = 1.0, -1.0
    v = grounded_solve(graph, graph.base_point, rhs)
    return float(v[x] - v[y])


# -- current flows ------------------------------------------------------------


@dataclass
class CurrentFlow:
    """Edge currents induced by a potential; orientation low index -> high.

    `edges` are the graph's edge arrays (i, j, c), aligned with `currents`.
    """

    graph: object
    edges: tuple
    currents: np.ndarray
    dissipation: float

    def divergence(self):
        """Net current out of each vertex; a unit dipole flow gives +-1 at the poles."""
        i, j, _ = self.edges
        n = self.graph.n
        return np.bincount(i, self.currents, n) - np.bincount(j, self.currents, n)

    def current_between(self, x, y):
        i, j, _ = self.edges
        hit = np.flatnonzero((i == min(x, y)) & (j == max(x, y)))
        if not len(hit):
            return 0.0
        cur = float(self.currents[hit[0]])
        return cur if x < y else -cur


def current_of_dipole(dipole):
    """Ohm's law edge by edge: I_(xy) = c_xy (v(x) - v(y))."""
    graph = dipole.graph
    i, j, c = edges = graph.edge_arrays()
    currents = c * (dipole.values[i] - dipole.values[j])
    dissipation = math.fsum(currents * currents / c)
    return CurrentFlow(graph, edges, currents, dissipation)


# -- full matrices -------------------------------------------------------------

# Rows x per block of the triangle scan: the block's two buffers of
# 64 x n doubles stay in L2 up to n of about 1000.
_BLOCK_ROWS = 64


@dataclass
class ResistanceMatrix:
    graph: object
    matrix: np.ndarray
    method: str
    tol: float
    sym_residual: float = 0.0

    def triangle_slack(self):
        """min over distinct triples of d(x,z) + d(z,y) - d(x,y); negative = violation.

        The check is exhaustive: the sum is formed for every triple with x,
        y, z pairwise distinct.  Below three vertices there is no triple and
        the result is +inf.  A NaN triple (a NaN entry, or inf - inf) gives
        NaN, so a check on it fails and reports the number.

        The scan is min-plus over blocks of `_BLOCK_ROWS` rows x.  Over z it
        keeps P(x, y) = min_z fl(d(x,z) + d(z,y)), and it subtracts d(x, y)
        once per pair at the end.  Rounding is monotone, so
        min_z fl(a_z - c) = fl(min_z a_z - c): the result is the float the
        per-triple minimum gives, bit for bit (a -0.0 entry may flip the
        sign of a zero result).  The one exception, c = +inf beside a detour
        a_z = +inf, is a NaN triple that P - c reads as -inf; such pairs are
        checked one by one.

        The exclusions z = x, z = y and x = y are written as +inf over the
        buffers after each sum, never added, so no -inf or NaN entry leaks
        through them.  When d is exactly symmetric, as `resistance_matrix`
        returns it, pair (y, x) repeats pair (x, y) bit for bit, and each
        block scans only the columns y from its own first row on.
        """
        d = self.matrix
        n = d.shape[0]
        if n < 3:
            return math.inf
        symmetric = np.array_equal(d, d.T)
        worst = math.inf
        with np.errstate(invalid="ignore"):  # inf - inf makes a NaN triple
            for b0 in range(0, n, _BLOCK_ROWS):
                b1 = min(b0 + _BLOCK_ROWS, n)
                low = _block_slack(d, b0, b1, b0 if symmetric else 0)
                if math.isnan(low):
                    return math.nan
                worst = min(worst, low)
        return worst

    def to_csv(self, path):
        labels = [str(l) for l in self.graph.labels]
        rows = ([name] + [repr(float(v)) for v in row] for name, row in zip(labels, self.matrix))
        _write_csv(path, ["label"] + labels, rows)


def _block_slack(d, b0, b1, c0):
    """triangle_slack over the rows b0 <= x < b1 and columns y >= c0."""
    n = d.shape[0]
    left = d[b0:b1].T.copy()  # left[z] is column z of the block rows
    best = np.full((b1 - b0, n - c0), np.inf, dtype=d.dtype)
    buf = np.empty_like(best)
    for z in range(n):
        np.add(left[z, :, None], d[z, c0:], out=buf)
        if z >= c0:
            buf[:, z - c0] = np.inf  # z = y
        if b0 <= z < b1:
            buf[z - b0] = np.inf  # z = x
        np.minimum(best, buf, out=best)
    direct = d[b0:b1, c0:]
    np.subtract(best, direct, out=best)
    rows = np.arange(b1 - b0)
    best[rows, rows + b0 - c0] = np.inf  # x = y
    low = float(best.min())
    # P - inf reads -inf while one detour is finite, but a detour of +inf
    # makes its own triple NaN: look at each pair whose direct distance is +inf.
    for i, j in zip(*np.nonzero(np.isposinf(direct))):
        x, y = b0 + int(i), c0 + int(j)
        if x != y:
            detour = d[x] + d[:, y]
            detour[[x, y]] = 0.0
            if np.isposinf(detour).any():
                return math.nan
    return low


def resistance_matrix(g, method="M2", tol=1e-10, size_cap=2000):
    """All pairwise resistances as a symmetric matrix with zero diagonal.

    M2 and M4 read every distance off the base-grounded kernel, one
    multi-column solve against the sparse grounded factorization.  The
    remaining methods fall back to pairwise queries (quadratic in n; meant
    for small graphs).
    """
    graph = underlying(g)
    if graph.n > size_cap:
        raise GraphError(
            f"matrix capped at {size_cap} vertices (graph has {graph.n}); "
            "query pairwise resistances instead"
        )
    method = _ALIASES.get(method, method)
    if method in ("M2", "M4"):
        return _kernel_matrix(greens_gram(graph, tol), method)
    if method in METHODS:
        d = np.zeros((graph.n, graph.n))
        for x in range(graph.n):
            for y in range(x + 1, graph.n):
                d[x, y] = d[y, x] = resistance(graph, x, y, method, tol)
        return ResistanceMatrix(graph, d, method, tol, 0.0)
    raise GraphError(f"unknown method {method!r}; choose from {METHODS}")


def _kernel_matrix(kernel, method="M2"):
    """d(x, y) = K(x,x) + K(y,y) - 2K(x,y) from a base-grounded kernel.

    The base row and column of K are zero, so d(base, x) = K(x, x).  The
    matrix records how far the raw kernel was from symmetric.
    """
    graph = kernel.graph
    k = np.zeros((graph.n, graph.n))
    k[np.ix_(kernel.vertices, kernel.vertices)] = kernel.matrix
    diag = np.diag(k)
    d = diag[:, None] + diag[None, :] - 2.0 * k
    np.fill_diagonal(d, 0.0)
    return ResistanceMatrix(graph, d, method, kernel.tol, kernel.symmetry_residual)


# -- family diagnostics --------------------------------------------------------


def _geodesic_ray(graph):
    """Hop-geodesic from the base to a deepest vertex, ties broken by vertex index.

    Vertices are ordered by (hop, label), so the deepest vertex taken is the
    one with the largest label and each parent the one with the smallest.
    """
    hop = graph.hop_distance
    path = [int(np.flatnonzero(hop == hop.max())[-1])]
    while hop[path[-1]] > 0:
        nbrs, _ = graph.neighbors(path[-1])
        path.append(int(nbrs[hop[nbrs] == hop[path[-1]] - 1].min()))
    return path[::-1]


def boundedness_diagnostic(family, radii, params=None):
    """Track max_x d(base, x) across radii to see whether the metric stays bounded.

    Also reports the plain resistance sum (sum of 1/c) along a hop geodesic,
    the series whose convergence controls the one-ray picture.
    """
    if len(radii) < 2:
        raise GraphError("boundedness diagnostic needs at least two radii")
    params = dict(params or {})
    rows = []
    for radius in sorted(radii):
        trunc = generate(family, radius=radius, **params)
        graph = trunc.graph
        dists = _kernel_matrix(greens_gram(graph)).matrix[graph.base_point]
        ray = _geodesic_ray(graph)
        ray_sum = math.fsum(
            1.0 / graph.conductance(a, b) for a, b in zip(ray, ray[1:])
        )
        rows.append(
            {
                "radius": radius,
                "vertices": graph.n,
                "max_distance": float(dists.max()),
                "ray_resistance_sum": ray_sum,
                "ray_tip": str(graph.labels[ray[-1]]),
            }
        )
    maxima = [row["max_distance"] for row in rows]
    diffs = np.diff(maxima)
    if len(diffs) and np.all(diffs[1:] <= diffs[:-1] + 1e-12) and diffs[-1] <= 0.75 * diffs[0] + 1e-12:
        trend = "bounded"
    elif len(diffs) and diffs[-1] >= 0.9 * diffs[0] - 1e-12:
        trend = "growing"
    else:
        trend = "inconclusive"
    return {
        "family": family,
        "params": params,
        "per_radius": rows,
        "max_distance_diffs": diffs.tolist(),
        "trend": trend,
    }


_RAY_FAMILIES = ("comb", "binary-tree", "nary-tree", "halfline")


def type_a_diagnostic(family, radius, params=None, max_depth=None):
    """Sample distances along and across the labeled rays of a family.

    Distinct comb teeth keep a positive distance floor however deep one goes
    (the completion is not totally bounded there); tree rays with summable
    edge resistances collapse; the half-line has a single Cauchy ray.
    Reports signatures, not certificates.
    """
    if family not in _RAY_FAMILIES:
        raise GraphError(
            f"type-A diagnostic unsupported for family {family!r}: no labeled rays"
        )
    params = dict(params or {})
    trunc = generate(family, radius=radius, **params)
    graph = trunc.graph
    d = _kernel_matrix(greens_gram(graph)).matrix
    idx = graph.index_of
    report = {"family": family, "radius": radius, "params": params}
    if family == "comb":
        depth = radius - 2 if max_depth is None else min(max_depth, radius - 2)
        cross = []
        for k in range(1, depth + 1):
            cross.append(
                {
                    "k": k,
                    "d01": float(d[idx((0, k)), idx((1, k))]),
                    "d02": float(d[idx((0, k)), idx((2, k))]),
                    "d12": float(d[idx((1, k)), idx((2, k))]),
                }
            )
        floor = min(min(row["d01"], row["d02"], row["d12"]) for row in cross)
        report.update(
            cross_teeth=cross,
            distance_floor=floor,
            signature="separated" if floor > 1e-2 else "collapsing",
        )
        return report
    if family in ("binary-tree", "nary-tree"):
        word = (lambda n: "+" * n) if family == "binary-tree" else (lambda n: (0,) * n)
        depth = radius - 1 if max_depth is None else min(max_depth, radius - 1)
        steps = [
            {"level": n, "step": float(d[idx(word(n)), idx(word(n + 1))])}
            for n in range(depth)
        ]
        vals = [s["step"] for s in steps]
        collapsing = all(b < a for a, b in zip(vals, vals[1:])) and vals[-1] < 0.25 * vals[0]
        report.update(
            within_ray=steps, signature="collapsing" if collapsing else "separated"
        )
        return report
    depth = radius if max_depth is None else min(max_depth, radius)
    steps = [
        {"level": n, "step": float(d[idx(n), idx(n + 1)])} for n in range(depth)
    ]
    vals = [s["step"] for s in steps]
    cauchy = all(b <= a for a, b in zip(vals, vals[1:]))
    report.update(within_ray=steps, signature="cauchy-ray" if cauchy else "growing")
    return report


def continuum_reference(x, y):
    """Closed forms of the continuous one-dimensional model.

    Kernel exp(-|x-y|) and distance 2(1 - exp(-|x-y|)); the distance never
    reaches 2, so the continuum metric is bounded.
    """
    gap = abs(float(x) - float(y))
    kernel = math.exp(-gap)
    return kernel, 2.0 * (1.0 - kernel)
