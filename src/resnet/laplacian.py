"""Graph Laplacian, random-walk transition operator, and the comb defect
recursion.

The Laplacian acts by (Lu)(x) = sum_{y~x} c_xy (u(x) - u(y)); in matrix form
L = B^T diag(c) B with B the signed edge-vertex incidence, which is how it is
applied, and L = C - A with C = diag(weighted degrees) and A the weighted
adjacency, which is how the grounded blocks are factored.  A tree grounded
at its base is not factored: its exact sweep (`TreeSolve`) solves it.  The
transition operator P = C^{-1} A is row-stochastic and reversible with
respect to the degree weights: c(x) p_xy = c(y) p_yx = c_xy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools  # the CSR kernels behind `A @ x`
from scipy.sparse.linalg import splu

from .graphs import GraphError, SolverError, _integer, _offsets, _require_frontier, underlying

__all__ = [
    "LaplacianOperator",
    "assemble_laplacian",
    "transition_operator",
    "harmonic_extension",
    "grounded_laplacian",
    "grounded_block",
    "grounded_solve",
    "interior_laplacian",
    "CombDefectReport",
    "defect_recursion_comb",
]


@dataclass
class LaplacianOperator:
    """L = B^T diag(c) B for one graph, B its signed edge-vertex incidence.

    `incidence` holds the CSR arrays (indptr, indices, data) of B, m x n:
    the row of edge e = (i, j) of `edge_arrays()` has +1 at i and -1 at j.
    `incidence_t` holds those of B^T, whose row v lists v's edges in edge
    order, which is the order of v's row of the graph's CSR.  `conductances`
    holds c in edge order and `diagonal` the weighted degrees c(x).
    """

    graph: object
    diagonal: np.ndarray
    conductances: np.ndarray
    incidence: tuple
    incidence_t: tuple

    def apply(self, u, out=None):
        """L u = B^T (c * B u) for a vertex vector, or for each column of an (n, k) block.

        The result lands in `out` when it is given.  No degree c(x) is
        formed, so L kills the constants exactly: their increments B u are
        0.  Each factor is the one CSR kernel call that scipy's operators
        make, so the result equals ``B.T @ (c * (B @ u))`` bit for bit.  A
        vector goes through `csr_matvec`; a block through `csr_matvecs`,
        which reads and writes row-major blocks, so each of its columns
        equals its vector apply bit for bit.
        """
        u = np.asarray(u, dtype=np.float64)
        n, m = self.graph.n, len(self.conductances)
        if u.ndim not in (1, 2) or u.shape[0] != n:
            raise GraphError(f"expected a vector of length {n} or an (n, k) block, got {u.shape}")
        out = np.empty(u.shape) if out is None else out
        if u.ndim == 1:
            flow = np.zeros(m)
            _sparsetools.csr_matvec(m, n, *self.incidence, np.ascontiguousarray(u), flow)
            flow *= self.conductances
            out.fill(0.0)
            _sparsetools.csr_matvec(n, m, *self.incidence_t, flow, out)
            return out
        k = u.shape[1]
        flow = np.zeros((m, k))
        _sparsetools.csr_matvecs(m, n, k, *self.incidence, u.ravel(), flow.ravel())
        flow *= self.conductances[:, None]
        target = out if out.flags.c_contiguous else np.empty(out.shape)
        target.fill(0.0)
        _sparsetools.csr_matvecs(n, m, k, *self.incidence_t, flow.ravel(), target.ravel())
        if target is not out:
            out[...] = target
        return out

    def as_csr(self):
        return sparse.diags(self.diagonal) - self.graph.adjacency()


def assemble_laplacian(g):
    """Assemble (and cache) the Laplacian of a graph or truncation."""
    graph = underlying(g)

    def build():
        i, j, c = graph.edge_arrays()
        m, nbrs = len(c), graph.indices
        upper = nbrs > np.repeat(np.arange(graph.n), np.diff(graph.indptr))
        # the edge of each CSR entry: the entries (i, j), i < j, are the edges
        # in order, and the entries (j, i) are too once sorted by i (stably)
        edge = np.empty(len(nbrs), dtype=np.int64)
        edge[upper] = np.arange(m)
        lower = np.flatnonzero(~upper)
        edge[lower[np.argsort(nbrs[lower], kind="stable")]] = np.arange(m)
        return LaplacianOperator(
            graph,
            graph.degrees,
            c,
            (2 * np.arange(m + 1), np.stack((i, j), axis=1).ravel(), np.tile([1.0, -1.0], m)),
            (graph.indptr, edge, np.where(upper, 1.0, -1.0)),
        )

    return graph._derived("laplacian", build)


@dataclass(frozen=True)
class TreeSolve:
    """The exact solve of a tree grounded at its base point.

    For any b on the vertices off the base, mean-free or not, it returns the
    z with z = 0 at the base and (L z)(v) = b(v) at every other vertex v.
    The current through the edge from v to its parent is the sum s(v) of b
    over the subtree of v, so z(v) = z(parent) + s(v) / c(v, parent).  For
    a unit source at y, s is 1 on the path from the base to y and 0 off it,
    so z(x) is the one sum of 1/c down the path the two share: the kernel
    it gives is exactly symmetric, and nothing is subtracted.

    Vertices are stored in (hop, label) order, so hop level h is the index
    range ``levels[h]:levels[h + 1]``, and the base, index 0, is level 0.
    The children of p are ``children[child_ptr[p]:child_ptr[p + 1]]``,
    `parent[v]` is the parent of v and `parent_conductance[v]` is
    c(v, parent), inf at the base.
    """

    levels: tuple
    child_ptr: np.ndarray
    children: np.ndarray
    parent: np.ndarray
    parent_conductance: np.ndarray

    # an edge whose 1/c overflows gives infinite potentials, without a warning
    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, b):
        """z off the base for a vector or (n - 1, k) block `b` of the rows off the base.

        These are the rows SuperLU's `solve` takes for the base-grounded
        block, so the sweep stands in for its factor (see
        `grounded_laplacian`).  The result has b's shape and is row-major.
        Both sweeps run level by level on one row-major block, the sums
        through `csr_matvecs`, so each column of a block equals its vector
        solve bit for bit.
        """
        n = len(self.parent)
        k = b.shape[1] if b.ndim == 2 else 1
        z = np.zeros((n, k))
        z[1:] = b.reshape(n - 1, k)
        flat, ones = z.ravel(), np.ones(len(self.children))
        levels = list(zip(self.levels[:-1], self.levels[1:]))
        # each level adds up the sums of the level below; the base's row stays 0
        for a, c in reversed(levels[1:-1]):
            _sparsetools.csr_matvecs(
                c - a, n, k, self.child_ptr[a:c + 1], self.children, ones, flat, z[a:c].ravel()
            )
        z /= self.parent_conductance[:, None]
        for a, c in levels[2:]:  # each level adds its parents' potentials (the base's is 0)
            z[a:c] += z[self.parent[a:c]]
        return z[1:].reshape(b.shape)


def _tree_solve(g):
    """The cached :class:`TreeSolve` of a tree (a graph with n - 1 edges)."""
    graph = underlying(g)

    def build():
        n, hop = graph.n, graph.hop_distance
        rows = np.repeat(np.arange(n), np.diff(graph.indptr))
        up = hop[graph.indices] == hop[rows] - 1  # the one edge of each v to its parent
        parent, conductance = np.zeros(n, dtype=np.int64), np.full(n, np.inf)
        parent[rows[up]], conductance[rows[up]] = graph.indices[up], graph.weights[up]
        return TreeSolve(
            tuple(np.searchsorted(hop, np.arange(int(hop[-1]) + 2)).tolist()),
            _offsets(np.bincount(parent[1:], minlength=n)),
            np.argsort(parent[1:], kind="stable") + 1,
            parent,
            conductance,
        )

    return graph._derived("tree_solve", build)


def transition_operator(g):
    """Assemble (and cache) the CSR walk operator P with p_xy = c_xy / c(x)."""
    graph = underlying(g)
    return graph._derived(
        "transition",
        lambda: (sparse.diags(1.0 / graph.degrees) @ graph.adjacency()).tocsr(),
    )


# -- grounded solves -----------------------------------------------------------


def grounded_laplacian(g, ground):
    """The solver of L grounded on `ground`, as (kept, solver), cached per ground set.

    `kept` lists the remaining vertices in increasing order, and
    ``solver.solve(b)`` solves the grounded block for a vector or block `b`
    of the kept rows.  The solver is picked from the graph by one rule: a
    tree (n - 1 edges) grounded at its base point gets the exact sweep of
    `_tree_solve`, which subtracts nothing and forms no degree, so no
    rounded c(x) leaks current to ground, and which reads no block.  Every
    other ground, and every graph with a cycle, gets the SuperLU factor of
    `grounded_block`, unscaled in MMD_AT_PLUS_A order: splu's default
    COLAMD order meets exactly singular pivots on the steep chain family,
    and diagonal equilibration loses digits there.
    """
    graph = underlying(g)
    ground = np.unique(np.asarray(ground, dtype=np.int64))

    def build():
        if graph.num_edges == graph.n - 1 and ground.tolist() == [graph.base_point]:
            return np.delete(np.arange(graph.n), ground), _tree_solve(graph)
        kept, block = grounded_block(graph, ground)
        try:
            lu = splu(block, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # a singular block
            raise SolverError(f"grounded factorization failed: {exc}") from None
        return kept, lu

    return graph._derived(("grounded_lu", ground.tobytes()), build)


def grounded_block(g, ground):
    """L without the `ground` rows and columns, as (kept, CSC block), cached per ground set.

    The block is built straight from the graph's CSR arrays: each row gets
    its diagonal entry c(x) between the columns below and above x, and the
    ground rows and columns are masked out; no entry is zero, as every
    weight and degree is positive.  As the graph stores A symmetric with
    sorted rows, those row-major arrays are the CSC arrays of the block,
    equal to the ``as_csr()[kept][:, kept].tocsc()`` slicing they replace.
    """
    graph = underlying(g)
    ground = np.unique(np.asarray(ground, dtype=np.int64))
    return graph._derived(("grounded_block", ground.tobytes()), lambda: _grounded_block(graph, ground))


def _grounded_block(graph, ground):
    """(kept, CSC block of L without the `ground` rows and columns)."""
    n = graph.n
    is_kept = np.ones(n, dtype=bool)
    is_kept[ground] = False
    kept = np.flatnonzero(is_kept)
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    # each diagonal entry goes ahead of the first column above its row
    at = graph.indptr[:-1] + np.bincount(rows[graph.indices < rows], minlength=n)
    vertices = np.arange(n)
    rows = np.insert(rows, at, vertices)
    cols = np.insert(graph.indices, at, vertices)
    vals = np.insert(-graph.weights, at, graph.degrees)
    keep = is_kept[rows] & is_kept[cols]
    slot = np.cumsum(is_kept) - 1  # the new index of each kept vertex
    m = len(kept)
    indptr = _offsets(np.bincount(slot[rows[keep]], minlength=m))
    return kept, sparse.csc_matrix((vals[keep], slot[cols[keep]], indptr), shape=(m, m))


def grounded_solve(g, ground, rhs):
    """The potential u with (L u)(x) = rhs(x) off `ground` and u = 0 on it.

    `rhs` is a full-length vector or an (n, k) block of columns; its ground
    rows are ignored.  This is the one solve against the cached
    :func:`grounded_laplacian` solver.
    """
    kept, solver = grounded_laplacian(g, ground)
    rhs = np.asarray(rhs, dtype=np.float64)
    out = np.zeros(rhs.shape)
    out[kept] = solver.solve(rhs[kept])
    return out


def _dipole_rhs(n, pairs):
    """The unit dipoles delta_x - delta_y of `pairs` as the columns of a
    Fortran-ordered (n, k) block; one pair comes back as a vector."""
    rhs = np.zeros((n, len(pairs)), order="F")
    for j, (x, y) in enumerate(pairs):
        rhs[x, j], rhs[y, j] = 1.0, -1.0
    return rhs[:, 0] if len(pairs) == 1 else rhs


def _grounded_drop(g, ground, x, y):
    """v(x) - v(y) of the unit dipole delta_x - delta_y solved with `ground` held at 0.

    With the base point as ground this is the free resistance (route M4);
    with the frontier of a truncation it is the wired one, the frontier
    shorted into one node at 0 (the dipole injects no net current, so that
    node takes none).  A drop that overflows comes back infinite or NaN,
    without a warning, for the caller to refuse.
    """
    graph = underlying(g)
    v = grounded_solve(graph, ground, _dipole_rhs(graph.n, [(x, y)]))
    return float(v[x]) - float(v[y])


def interior_laplacian(trunc):
    """The interior block L_II and its LU: the Laplacian grounded on the frontier.

    Returns (L_II, lu_solver).  The block is symmetric positive definite
    whenever the frontier is nonempty and reachable, which truncation
    guarantees.
    """
    _require_frontier(trunc, "an interior solve")
    graph, frontier = trunc.graph, trunc.frontier
    return grounded_block(graph, frontier)[1], grounded_laplacian(graph, frontier)[1]


def harmonic_extension(trunc, boundary_values):
    """Solve the Dirichlet problem: Lh = 0 on the interior, h = f on the frontier.

    `boundary_values` is aligned with ``trunc.frontier``: a vector, or an
    (m, k) block whose k columns are extended together.  Returns the full
    vertex vector, or an (n, k) block.  With f padded by zeros, h - f is the
    frontier-grounded potential of the current A f that f drives inward.
    """
    _require_frontier(trunc, "harmonic extension")
    f = np.asarray(boundary_values, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[0] != len(trunc.frontier):
        raise GraphError(
            f"expected {len(trunc.frontier)} boundary values, got shape {f.shape}"
        )
    graph = trunc.graph
    f_pad = np.zeros((graph.n,) + f.shape[1:])
    f_pad[trunc.frontier] = f
    return f_pad + grounded_solve(graph, trunc.frontier, graph.adjacency() @ f_pad)


# -- comb defect recursion -----------------------------------------------------


@dataclass
class CombDefectReport:
    """Decaying solution of the comb tooth recursion, normalized to l_0 = 1."""

    levels: int
    values: np.ndarray          # l_0 .. l_levels
    scaled: np.ndarray          # l_k * 2^k
    limit: float                # tail estimate of l_k * 2^k
    stabilized: bool            # False when `levels` was too small to settle
    energy_sum: float           # sum over k of 2^k (l_k - l_{k+1})^2
    max_residual: float         # worst recursion defect over the returned range


def defect_recursion_comb(levels):
    """Solve (1/3) l_{k-1} + (2/3) l_{k+1} = (1 + 1/(3*2^k)) l_k for the
    decaying branch.

    Recursing backward from far out keeps the decaying mode: forward shooting
    amplifies it away.  Seeds are planted hundreds of levels beyond the
    requested range, so the returned values carry no seeding bias at double
    precision.  `stabilized` is False (never an exception) when the scaled
    tail still moves by more than 1e-6.
    """
    levels = _integer(levels, "defect recursion needs integer levels >= 10", 10)
    if levels > 400:
        raise GraphError("levels > 400 would overflow the backward recursion")
    start = levels + 400
    hi, lo = 0.5, 1.0  # l_{start+1}, l_start, any decaying-scale seed pair works
    tail = np.empty(start + 2)
    tail[start + 1], tail[start] = hi, lo
    for k in range(start, 0, -1):
        tail[k - 1] = 3.0 * (1.0 + 1.0 / (3.0 * 2.0 ** k)) * tail[k] - 2.0 * tail[k + 1]
    values = tail[: levels + 2] / tail[0]
    scaled = values[: levels + 1] * np.exp2(np.arange(levels + 1))
    tail_moves = np.abs(np.diff(scaled[-6:]))
    stabilized = bool(np.all(tail_moves <= 1e-6))
    energy = math.fsum(
        2.0 ** k * (values[k] - values[k + 1]) ** 2 for k in range(levels + 1)
    )
    residual = max(
        abs(
            values[k - 1] / 3.0
            + 2.0 * values[k + 1] / 3.0
            - (1.0 + 1.0 / (3.0 * 2.0 ** k)) * values[k]
        )
        for k in range(1, levels + 1)
    )
    return CombDefectReport(
        levels=levels,
        values=values[: levels + 1],
        scaled=scaled,
        limit=float(scaled[-1]),
        stabilized=stabilized,
        energy_sum=energy,
        max_residual=residual,
    )

