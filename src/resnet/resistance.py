"""Effective resistance between vertices, by independent routes.

The resistance metric d(x, y) is the voltage drop when one amp enters at x
and leaves at y.  By Dirichlet's principle it is also the largest
(u(x) - u(y))^2 / ||u||^2 over vertex functions u.  Routes:

  M7  that quotient at the conjugate-gradient dipole potential v; as v
      maximizes it, its error is second order in v's
  M3  minimum dissipation over unit flows (Thomson's principle) in the
      cycle space of a spanning tree, certified against Kirchhoff's voltage
      law; on a tree it is the exact path sum
  M4  increment v(x) - v(y) of the dipole solved directly with the
      Laplacian grounded at the base point: by the exact sweep on a tree,
      against the sparse LU elsewhere

M1 (the drop v(x) - v(y)) and M2 (the energy ||v||^2) read M7's solve with
first-order error; the names remain as aliases of M7.

The whole matrix has one route, `resistance_matrix(g)`: it reads d(x, y) =
K(x, x) + K(y, y) - 2 K(x, y) off the base-grounded kernel K, the identity
solved in column blocks by the cached grounded solver.  The readout
itself is `ResistanceMatrix.from_kernel`, which `resnet check` calls on a
kernel it already holds and `radius_sweep` calls on the frontier-grounded
kernel of the wired metric.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse.csgraph import breadth_first_order, depth_first_order, minimum_spanning_tree

from .energy import _check_pair, solve_dipole
from .graphs import GraphError, SolverError, _check_tol, _offsets, _tree_depths, generate, underlying
from .greens import _grounded_kernel, _require_symmetric, greens_gram
from .laplacian import _grounded_drop

__all__ = [
    "METHODS",
    "resistance",
    "ResistanceMatrix",
    "resistance_matrix",
    "radius_sweep",
    "continuum_reference",
]

METHODS = ("M3", "M4", "M7")
_ALIASES = {"M1": "M7", "M2": "M7"}


def resistance(g, x, y, method="M7", tol=1e-10):
    """Effective resistance between vertex indices x and y by one route.

    `method` is one of M3, M4, M7 (M1 and M2 are aliases of M7), or "all"
    for a dict of every route plus their max pairwise relative
    disagreement.  `tol` must be a positive number on every route, so a bad
    tolerance fails the same way everywhere.  It bounds M7's relative PCG
    residual and M3's KVL residual and leak; M4's direct solve only validates it.
    For x = y every route gives 0.0 without a solve.  A route whose value
    is not finite and positive (an overflow, a NaN, or <= 0) raises
    SolverError naming it.

    What each route promises of a value it returns, relative to the exact R;
    where it cannot keep the promise it raises SolverError instead:

      M3  positive and within `tol`, at any conductance spread: its flow's
          KVL residual and the current the edges it leaves out would carry
          are at most `tol`, so R lies within a factor 1 + tol of the value
      M7  positive, and within 1e-8 at the default `tol` where the
          conductances span at most 16 decades: on 2,523 random networks
          of that spread its worst error was 3.7e-11.  Across 32 decades
          the PCG residual does not bound its error: 4 of 242 such
          networks were off by up to 7.9e-3, with no error raised
      M4  on a tree, within rounding: the sweep sums 1/c along the path.
          On 202 random trees with conductances across up to 32 decades
          it answered 171 with a worst error of 2.1e-16 and raised on the
          31 whose R exceeds the double range.
          On a graph with a cycle, only positive: on wide spreads the LU
          solve can be far off with no error, and where its drop is <= 0
          it raises
    """
    routes = METHODS if method == "all" else (_ALIASES.get(method, method),)
    if routes[0] not in METHODS:
        raise GraphError(f"unknown method {method!r}; choose from {METHODS} or 'all'")
    graph = underlying(g)
    x, y = _check_pair(graph, x, y, distinct=False)
    _check_tol(tol)
    values = dict.fromkeys(routes, 0.0)
    if x != y:
        for m in routes:
            try:
                if m == "M3":
                    system = _cycle_system(graph)
                    values[m] = system.certified_energy(system.unit_flow(x, y), tol)
                elif m == "M4":  # the base-grounded solver greens_gram uses: none built per pair
                    values[m] = _grounded_drop(graph, graph.base_point, x, y)
                else:
                    v = solve_dipole(graph, x, y, tol)
                    drop = float(v.values[x] - v.values[y])
                    values[m] = drop**2 / v.energy
            except OverflowError:  # in fsum, or in M7's square, which then divides first
                values[m] = drop * (drop / v.energy) if m == "M7" else math.inf
            if not 0.0 < values[m] < math.inf:  # NaN too
                raise SolverError(f"route {m} gives a non-positive or non-finite resistance ({values[m]})")
    if method != "all":
        return values[routes[0]]
    lo, hi = min(values.values()), max(values.values())
    values["max_rel_disagreement"] = (hi - lo) / hi if hi > 0 else 0.0
    return values


@dataclass
class _CycleSystem:
    """Thomson's principle in the cycle space of a maximum-conductance spanning tree.

    Edges follow `edge_arrays()`, oriented i -> j.  Each non-base vertex v
    keeps its tree parent, the index of the edge to it and the sign (+1 or
    -1) that edge carries for a flow from v toward the root, which is the
    base point.  Column c of `cycles` (the signed m x k matrix C) is the
    fundamental cycle of the c-th non-tree edge; `factor` is the Cholesky
    factor of the dense k x k matrix C^T R C, with R = diag(1/c_e).  An edge
    whose 1/c_e overflows (a subnormal c_e) is left out: it is neither a
    tree edge nor a chord, and its resistance is stored as 0.  `leaks` is
    c_e times its fundamental cycle, which reads the current it would carry.
    """

    parent: list
    parent_edge: list
    sign: list
    depth: list
    resistances: np.ndarray
    cycles: sparse.csr_matrix
    factor: tuple | None  # None on a tree, where k = 0
    leaks: sparse.csr_matrix | None  # None when no edge is left out

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
        """sum_e r_e f_e^2 of a flow whose KVL residual, and the current the
        left-out edges would carry (sum_e c_e |dphi_e|), are at most `tol`.
        As |dphi_e| <= R, the true R is then within a factor 1 + tol of it."""
        residual = self.kvl_residual(flow)
        if residual > tol:
            raise SolverError(
                f"cycle-space flow breaks Kirchhoff's voltage law "
                f"(residual {residual:.3e} > tol {tol:.1e})",
                residual=residual,
            )
        leak = 0.0 if self.leaks is None else math.fsum(abs(self.leaks.T @ (self.resistances * flow)))
        if not leak <= tol:  # NaN too
            raise SolverError(f"left-out edges would carry {leak:.3e} A (> tol {tol:.1e})", leak)
        return math.fsum(self.resistances * flow * flow)


def _cycle_system(graph):
    return graph._derived("cycle_system", lambda: _build_cycle_system(graph))


def _build_cycle_system(graph):
    n = graph.n
    i, j, c = graph.edge_arrays()
    with np.errstate(over="ignore"):  # a subnormal c gives r = inf: the edge is left out
        r = 1.0 / c
    live = np.isfinite(r)
    r[~live] = 0.0
    # edge_arrays is ordered by (i, j): with the row offsets of i it is the
    # CSR form of the upper triangle, and its keys i*n + j are sorted
    offsets = _offsets(np.bincount(i[live], minlength=n))
    tree = minimum_spanning_tree(sparse.csr_matrix((r[live], j[live], offsets), shape=(n, n)))
    order, pred = breadth_first_order(
        tree, graph.base_point, directed=False, return_predecessors=True
    )
    if len(order) < n:
        raise SolverError(f"the edges of finite resistance do not connect the graph's {n} vertices")
    child = order[1:].astype(np.int64)
    up = pred[child].astype(np.int64)
    tree_edge = np.searchsorted(i * n + j, np.minimum(child, up) * n + np.maximum(child, up))
    parent_edge = np.zeros(n, dtype=np.int64)
    sign = np.zeros(n)
    parent_edge[child] = tree_edge
    sign[child] = np.where(child < up, 1.0, -1.0)
    depth = _tree_depths(order, pred)

    # Fundamental cycles, all at once: the non-tree edge i -> j, then the tree
    # path from j up to the common ancestor (toward the root) and down to i.
    # Each step records the ends still open and which of them climb; their
    # entries are read off in one pass after the loop.  The chords come
    # first, then the edges left out.
    is_chord = live.copy()
    is_chord[tree_edge] = False
    chords = np.flatnonzero(is_chord)
    k = len(chords)
    edges = np.concatenate((chords, np.flatnonzero(~live)))
    a, b, col = j[edges], i[edges], np.arange(len(edges))
    depth_a, depth_b = depth[a], depth[b]
    steps = []
    while len(col):
        climb_a, climb_b = depth_a >= depth_b, depth_b >= depth_a
        steps.append((a, b, col, climb_a, climb_b))
        a = np.where(climb_a, pred[a], a)
        b = np.where(climb_b, pred[b], b)
        depth_a, depth_b = depth_a - climb_a, depth_b - climb_b
        open_ = a != b
        a, b, col, depth_a, depth_b = (v[open_] for v in (a, b, col, depth_a, depth_b))
    rows, cols, vals = [edges], [np.arange(len(edges))], [np.ones(len(edges))]
    if steps:
        a, b, col, climb_a, climb_b = (np.concatenate(v) for v in zip(*steps))
        for ends, climb, direction in ((a, climb_a, 1.0), (b, climb_b, -1.0)):
            rows.append(parent_edge[ends[climb]])
            cols.append(col[climb])
            vals.append(direction * sign[ends[climb]])
    cycles = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(c), len(edges)),
    )
    leaks = None  # the left-out edges' cycles, each times its c_e
    if len(edges) > k:
        cycles, leaks = cycles[:, :k], cycles[:, k:] @ sparse.diags(c[~live])
    factor = None
    if k:
        # C^T (R C): every term is +-r_e, summed over e in increasing order as
        # the product C^T R C sums it
        scaled = sparse.csr_matrix(
            (cycles.data * np.repeat(r, np.diff(cycles.indptr)), cycles.indices, cycles.indptr),
            shape=cycles.shape,
        )
        gram = (cycles.T @ scaled).toarray()
        try:
            factor = cho_factor(gram)
        except (LinAlgError, ValueError) as exc:  # ValueError: an infinite or NaN entry
            raise SolverError(f"cycle-space Cholesky failed ({k} cycles): {exc}") from None
    return _CycleSystem(
        pred.tolist(), parent_edge.tolist(), sign.tolist(), depth.tolist(), r, cycles, factor,
        leaks,
    )


# -- full matrices -------------------------------------------------------------

# The most vertices `resistance_matrix` takes: its dense kernel and matrix
# are 2 n^2 floats.
_MATRIX_CAP = 2000

# Kernel rows per block of the matrix readout: its 2 K temporary is never
# n x n.
_READOUT_ROWS = 64

# Vertices per tile of the triangle scan, and the most z whose sums a tile
# pair holds at once: a buffer of 1 MiB.
_TILE = 32
_Z_CHUNK = 128


@dataclass
class ResistanceMatrix:
    """Pairwise distances over the vertices of `graph`, exactly symmetric and
    finite as the metric of a connected graph is: an asymmetric matrix raises
    GraphError, a NaN or infinite entry SolverError."""

    graph: object
    matrix: np.ndarray
    sym_residual: float = 0.0

    def __post_init__(self):
        _require_symmetric(self.matrix, "resistance")

    @classmethod
    def from_kernel(cls, kernel):
        """d(x, y) = K(x,x) + K(y,y) - 2K(x,y) from a grounded kernel.

        K is zero on the grounded rows and columns, so d(x, ground) = K(x, x)
        and the grounded vertices lie at distance 0 from each other.  d is
        exactly symmetric as K is, and records how far raw K was from it.
        """
        graph = kernel.graph
        runs = _runs(kernel.vertices)
        diag = np.zeros(graph.n)
        diag[kernel.vertices] = np.diagonal(kernel.matrix)
        # A K(x, x) above half the double range overflows in K(x,x) + K(x,x)
        # and 2 K(x, x), and inf - inf is NaN, all on the diagonal, which is
        # then set to 0: no warning for that.  An off-diagonal entry that
        # overflows is refused as non-finite when the matrix is built.
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.add.outer(diag, diag)  # the one n x n buffer
            # the arithmetic of diag[:, None] + diag[None, :] - 2.0 * k
            for rows, krows in _runs(kernel.vertices, _READOUT_ROWS):
                for cols, kcols in runs:
                    d[rows, cols] -= 2.0 * kernel.matrix[krows, kcols]
        np.fill_diagonal(d, 0.0)
        return cls(graph, d, kernel.symmetry_residual)

    def triangle_slack(self):
        """min over distinct triples of d(x,z) + d(z,y) - d(x,y); negative = violation.

        The check is exhaustive: every triple with x, y, z pairwise distinct
        is either formed or certified unable to lower the minimum.  Below
        three vertices there is no triple and the result is +inf.

        The vertices are cut into tiles of at most `_TILE` (`_tiles`).  When
        the matrix has its graph, a tile is made of whole subtrees of the
        depth-first tree from the base (one, or siblings'), so on a tree,
        where d is the path sum, it is a compact patch of the metric; any
        other matrix is cut into runs in index order.  Pruning is sound under
        any tiling: the tiles set only how much is formed, never the result.
        For tiles X, Y and each z the scan bounds every triple of the tile
        pair below by

            LB_z = fl(fl(min_x d(x,z) + min_y d(z,y)) - max d(x,y)),

        the minima over x in X, y in Y other than z and the maximum over
        x != y.  Rounding is monotone, so LB_z <= fl(fl(d(x,z) + d(z,y)) -
        d(x,y)) for each such triple: a z whose LB_z is at or above the
        running minimum cannot lower it and is skipped (`_RULES_OUT`; a tie
        rules z out because ``min(worst, low)`` keeps the earlier of two
        equal values).  The z left are bounded once more with one x kept
        exact against all of Y, and a z that every x rules out is skipped;
        only the z still left are read against Y and bounded with one y kept
        exact against all of X, and a z that every y rules out is skipped
        too.  Every other z is formed.  The diagonal tiles go first, so the
        running minimum falls at once to the metric's own slack (about 0)
        and the remote z drop out of every later pair.

        Over the z it forms, a tile pair keeps P(x, y) = min_z fl(d(x,z) +
        d(z,y)) and subtracts d(x, y) once.  As min_z fl(a_z - c) =
        fl(min_z a_z - c), the result is the float the per-triple minimum
        gives, bit for bit (a -0.0 entry may flip the sign of a zero
        result).

        The scan's copy of d holds +inf on its diagonal, so a sum with z = x
        or z = y is +inf and never lowers a minimum; x = y is written as +inf
        over the result.  The other entries are finite, so no infinity
        reaches the result.  As d is exactly symmetric, pair (y, x) repeats
        pair (x, y) bit for bit, so only the tile pairs with Y at or after X
        are scanned, and one table of tile minima serves both ends of a
        triple.
        """
        n = self.matrix.shape[0]
        if n < 3:
            return math.inf
        order, starts = _tiles(self.graph, n)
        d = self.matrix[np.ix_(order, order)]  # the scan's one n x n copy
        tiles = [slice(lo, hi) for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [n])]
        diagonal = np.diag_indices(n)
        # reduceat along a row is several times faster than down a column, so
        # each column table is a row table of symmetric d, transposed
        d[diagonal] = -np.inf  # maxima over x != y
        rowmax = np.maximum.reduceat(d, starts, axis=1)  # [x, Y]: max_y d(x, y)
        colmax = np.ascontiguousarray(rowmax.T)  # [X, y]: max_x d(x, y)
        dmax = np.maximum.reduceat(colmax, starts, axis=1)  # [X, Y]
        d[diagonal] = np.inf  # minima over x != z
        # [T, z]: min over t in tile T of d(t, z) = d(z, t)
        dmin = np.ascontiguousarray(np.minimum.reduceat(d, starts, axis=1).T)
        worst = math.inf
        count = len(tiles)
        rows = [(a, [a]) for a in range(count)]  # the diagonal tiles first
        rows += [(a, list(range(a + 1, count))) for a in range(count)]
        for a, bs in rows:
            xs = tiles[a]
            bounds = (dmin[a] + dmin[bs]) - dmax[a, bs, None]
            for b, bound in zip(bs, bounds):
                ys = tiles[b]
                zs = np.flatnonzero(~_RULES_OUT(bound, worst))
                left = d[zs, xs]  # left[z, x] = d(z, x) = d(x, z)
                keep = ~_RULES_OUT((left + dmin[b, zs, None]) - rowmax[xs, b], worst).all(axis=1)
                zs, left = zs[keep], left[keep]
                right = d[zs, ys]  # right[z, y] = d(z, y)
                keep = ~_RULES_OUT((right + dmin[a, zs, None]) - colmax[a, ys], worst).all(axis=1)
                if keep.any():
                    worst = min(worst, _tile_slack(left[keep], right[keep], xs, ys, d[xs, ys]))
        return worst

    def to_csv(self, path):
        labels = [str(l) for l in self.graph.labels]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label"] + labels)
            rows = zip(labels, self.matrix)
            writer.writerows([name] + [repr(float(v)) for v in row] for name, row in rows)


def _runs(vertices, most=None):
    """(vertex slice, position slice) of each run of consecutive vertices in an
    increasing list: a grounded kernel's block of a matrix over every vertex
    is then a few slices (one when the ground is a prefix or a suffix).  With
    `most`, a run is also cut at every multiple of `most` positions."""
    v = np.asarray(vertices, dtype=np.int64)
    if not len(v):
        return []
    cut = np.diff(v) != 1
    if most:
        cut[most - 1::most] = True
    cuts = np.flatnonzero(cut) + 1
    starts, stops = np.concatenate(([0], cuts)), np.concatenate((cuts, [len(v)]))
    return [(slice(v[a], v[a] + b - a), slice(a, b)) for a, b in zip(starts.tolist(), stops.tolist())]


def _tiles(graph, n):
    """(order, starts): the triangle scan's vertex order and the first position of each tile.

    A matrix over its graph's vertices is tiled along the depth-first tree
    from the base, from the leaves up.  Each vertex v gathers the open
    groups of its children.  If they fit with v into `_TILE` vertices, they
    and v are v's open group.  Otherwise they are packed first-fit by
    decreasing size into groups of at most `_TILE`, v joins the smallest
    with room (or starts its own), and the others close as tiles.  The
    base's open group is the last tile.  So a tile is one subtree or the
    subtrees of siblings, less the tiles closed inside them.  Tiles are
    laid out by their first vertex in depth-first order, each in that
    order.  Any other matrix is cut into runs of `_TILE` in index order.
    """
    if graph is None or graph.n != n:
        return np.arange(n), np.arange(0, n, _TILE)
    order, pred = depth_first_order(graph.adjacency(), graph.base_point, directed=False,
                                    return_predecessors=True)
    parent = pred.tolist()
    below = [[] for _ in range(n)]  # the open groups of each vertex's children
    tiles = []
    for v in reversed(order.tolist()):  # the base last
        groups = below[v]
        if 1 + sum(map(len, groups)) > _TILE:
            bins = []
            for group in sorted(groups, key=len, reverse=True):
                fit = next((b for b in bins if len(b) + len(group) <= _TILE), None)
                if fit is None:
                    bins.append(group)
                else:
                    fit += group
            room = [b for b in bins if len(b) < _TILE]
            keep = min(room, key=len) if room else []
            tiles += [b for b in bins if b is not keep]
            groups = [keep]
        group = [v]
        for g in groups:
            group += g
        if v != graph.base_point:
            below[parent[v]].append(group)
    tiles.append(group)  # the base's
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    tiles = sorted(sorted(rank[t].tolist()) for t in tiles)
    return order[np.concatenate(tiles)], _offsets([len(t) for t in tiles])[:-1]


# How a lower bound rules its triples out against the running minimum: a tie
# too (see `ResistanceMatrix.triangle_slack`).
_RULES_OUT = np.greater_equal


def _tile_slack(left, right, xs, ys, direct):
    """min of fl(d(x,z) + d(z,y)) - d(x,y) over x in the slice xs, y in ys and
    the z of left's and right's rows, over pairwise distinct triples.

    left[z, x] = d(x, z) and right[z, y] = d(z, y) are read off the scan's
    copy of d, whose diagonal is +inf: a sum with z = x or z = y is +inf, so
    it never lowers the minimum.  direct is d[xs, ys], whose diagonal is
    that +inf when xs == ys.
    """
    best = None
    for c in range(0, len(left), _Z_CHUNK):
        sums = np.repeat(right[c:c + _Z_CHUNK, None, :], left.shape[1], axis=1)  # [z, x, y]
        sums += left[c:c + _Z_CHUNK, :, None]  # bitwise left + right: IEEE sums commute
        low = sums.min(axis=0)
        best = low if best is None else np.minimum(best, low, out=best)
    with np.errstate(invalid="ignore"):  # inf - inf where x = y meets a +inf sum
        best -= direct
    if xs == ys:
        np.fill_diagonal(best, np.inf)  # x = y
    return float(best.min())


def resistance_matrix(g):
    """All pairwise resistances as a symmetric matrix with zero diagonal.

    The one matrix route: every distance is read off the base-grounded
    kernel.  A graph of more than `_MATRIX_CAP` vertices raises GraphError
    before any solve.  Distinct vertices of a connected graph are at a
    positive distance, so a matrix with an off-diagonal entry <= 0 (the
    readout's cancellation, or the LU kernel off on a wide conductance
    spread) raises SolverError with the number of such pairs and the least
    value, as `resistance` refuses such a value on a single route.
    """
    graph = underlying(g)
    if graph.n > _MATRIX_CAP:
        raise GraphError(
            f"matrix capped at {_MATRIX_CAP} vertices (graph has {graph.n}); "
            "query pairwise resistances instead"
        )
    out = ResistanceMatrix.from_kernel(greens_gram(graph))
    low = out.matrix <= 0.0
    np.fill_diagonal(low, False)
    if low.any():  # d is symmetric: each pair is counted twice
        raise SolverError(
            f"resistance matrix has {np.count_nonzero(low) // 2} non-positive distances "
            f"(least {out.matrix[low].min():.3e})"
        )
    return out


# -- radius sweep ---------------------------------------------------------------


def radius_sweep(family, radii, params=None):
    """The free and the wired resistance metric of one family across radii.

    The wired metric shorts the frontier into one node: its matrix is read
    off the frontier-grounded kernel.  For each radius and each metric the
    report gives the largest d(base, x) and the covering numbers N(eps) for
    eps = D0 / 2^k, k = 1..5, where D0 is the free diameter at the smallest
    radius.  A bounded metric keeps the first bounded as the radius grows; a
    totally bounded completion keeps every N(eps) bounded.
    """
    radii = sorted(radii)
    if not radii:
        raise GraphError("radius sweep needs at least one radius")
    params = dict(params or {})
    rows, epsilons = [], None
    for radius in radii:
        trunc = generate(family, radius=radius, **params)
        if len(trunc.frontier) == 0:
            raise GraphError(
                f"family {family!r} at radius {radius} has an empty frontier; "
                "the wired metric shorts nothing"
            )
        graph = trunc.graph
        free = resistance_matrix(graph).matrix
        wired = ResistanceMatrix.from_kernel(_grounded_kernel(graph, trunc.frontier)).matrix
        if epsilons is None:
            epsilons = [float(free.max()) / 2**k for k in range(1, 6)]
        row = {"radius": radius, "n": graph.n}
        for name, d in (("free", free), ("wired", wired)):
            row[name] = {
                "max_base_distance": float(d[graph.base_point].max()),
                "covering": _covering_numbers(d, epsilons),
            }
        rows.append(row)
    return {"family": family, "params": params, "epsilons": epsilons, "per_radius": rows}


def _covering_numbers(d, epsilons):
    """N(eps) for each eps of the falling list `epsilons`.

    N(eps) is the size of the greedy farthest-point net started at vertex 0
    (Gonzalez 1985): the vertex farthest from the net joins it until every
    vertex lies within eps of the net.
    """
    gap, size, counts = d[0].copy(), 1, []
    for eps in epsilons:
        while gap.max() > eps:
            np.minimum(gap, d[gap.argmax()], out=gap)
            size += 1
        counts.append(size)
    return counts


def continuum_reference(x, y):
    """Closed forms of the continuous one-dimensional model.

    Kernel exp(-|x-y|) and distance 2(1 - exp(-|x-y|)); the distance never
    reaches 2, so the continuum metric is bounded.
    """
    gap = abs(float(x) - float(y))
    kernel = math.exp(-gap)
    return kernel, 2.0 * (1.0 - kernel)
