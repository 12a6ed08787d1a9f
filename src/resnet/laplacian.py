"""Graph Laplacian, random-walk transition operator, and the comb defect
recursion.

The Laplacian acts by (Lu)(x) = sum_{y~x} c_xy (u(x) - u(y)); in matrix form
L = C - A with C = diag(weighted degrees) and A the weighted adjacency.  The
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

from .graphs import GraphError, _integer, _offsets, _require_frontier, underlying

__all__ = [
    "LaplacianOperator",
    "assemble_laplacian",
    "transition_operator",
    "harmonic_extension",
    "grounded_laplacian",
    "grounded_solve",
    "interior_laplacian",
    "CombDefectReport",
    "defect_recursion_comb",
]


@dataclass
class LaplacianOperator:
    """L = C - A for one graph: `diagonal` holds c(x), `offdiag` holds A."""

    graph: object
    diagonal: np.ndarray
    offdiag: sparse.csr_matrix

    def apply(self, u):
        """L u for a vertex vector, or for each column of an (n, k) block."""
        u = np.asarray(u, dtype=np.float64)
        if u.ndim not in (1, 2) or u.shape[0] != self.graph.n:
            raise GraphError(
                f"expected a vector of length {self.graph.n} or an (n, k) block, got {u.shape}"
            )
        diag = self.diagonal if u.ndim == 1 else self.diagonal[:, None]
        return diag * u - self.offdiag @ u

    def adjacency_product(self, u, out):
        """A u written into `out`, bit for bit ``self.offdiag @ u``.

        This is the one CSR kernel call that ``offdiag @ u`` makes after
        scipy's operator dispatch, which costs more than the product itself
        at the sizes a CG step runs on.  On a vector it is `csr_matvec`.  On
        an (n, k) block it is `csr_matvecs`, which reads and writes row-major
        blocks: a block in another layout is read through a row-major copy
        (``u.ravel()``) and the product lands in `out` through one, as
        scipy's own multivector product does.
        """
        n = self.graph.n
        adj = self.offdiag
        if u.ndim == 1:
            out.fill(0.0)
            _sparsetools.csr_matvec(n, n, adj.indptr, adj.indices, adj.data, u, out)
            return out
        target = out if out.flags.c_contiguous else np.empty(out.shape)
        target.fill(0.0)
        _sparsetools.csr_matvecs(
            n, n, u.shape[1], adj.indptr, adj.indices, adj.data, u.ravel(), target.ravel()
        )
        if target is not out:
            out[...] = target
        return out

    def as_csr(self):
        return sparse.diags(self.diagonal) - self.offdiag


def assemble_laplacian(g):
    """Assemble (and cache) the Laplacian of a graph or truncation."""
    graph = underlying(g)
    return graph._derived(
        "laplacian", lambda: LaplacianOperator(graph, graph.degrees, graph.adjacency())
    )


def transition_operator(g):
    """Assemble (and cache) the CSR walk operator P with p_xy = c_xy / c(x)."""
    graph = underlying(g)
    return graph._derived(
        "transition",
        lambda: (sparse.diags(1.0 / graph.degrees) @ graph.adjacency()).tocsr(),
    )


# -- grounded solves -----------------------------------------------------------


def grounded_laplacian(g, ground):
    """L without the `ground` rows and columns, as (kept, block, lu), cached per ground set.

    `kept` lists the remaining vertices in increasing order and `lu` is the
    SuperLU factorization of the CSC `block`.  The block is factored
    unscaled in MMD_AT_PLUS_A order: splu's default COLAMD order meets
    exactly singular pivots on the steep chain family, and diagonal
    equilibration loses digits there.

    The block is built straight from the graph's CSR arrays: each row gets
    its diagonal entry c(x) between the columns below and above x, and the
    ground rows and columns are masked out; no entry is zero, as every
    weight and degree is positive.  As the graph stores A symmetric with
    sorted rows, those row-major arrays are the CSC arrays of the block,
    equal to the ``as_csr()[kept][:, kept].tocsc()`` slicing they replace.
    """
    graph = underlying(g)
    ground = np.unique(np.asarray(ground, dtype=np.int64))

    def build():
        kept, block = _grounded_block(graph, ground)
        try:
            lu = splu(block, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # a singular block
            from .energy import SolverError  # energy imports this module

            raise SolverError(f"grounded factorization failed: {exc}") from None
        return kept, block, lu

    return graph._derived(("grounded_lu", ground.tobytes()), build)


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
    vals = np.insert(-graph.weights, at, assemble_laplacian(graph).diagonal)
    keep = is_kept[rows] & is_kept[cols]
    slot = np.cumsum(is_kept) - 1  # the new index of each kept vertex
    m = len(kept)
    indptr = _offsets(np.bincount(slot[rows[keep]], minlength=m))
    return kept, sparse.csc_matrix((vals[keep], slot[cols[keep]], indptr), shape=(m, m))


def grounded_solve(g, ground, rhs):
    """The potential u with (L u)(x) = rhs(x) off `ground` and u = 0 on it.

    `rhs` is a full-length vector or an (n, k) block of columns; its ground
    rows are ignored.  This is the one solve against the cached
    :func:`grounded_laplacian` factorization.
    """
    kept, _, lu = grounded_laplacian(g, ground)
    rhs = np.asarray(rhs, dtype=np.float64)
    out = np.zeros(rhs.shape)
    out[kept] = lu.solve(rhs[kept])
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
    node takes none).
    """
    graph = underlying(g)
    v = grounded_solve(graph, ground, _dipole_rhs(graph.n, [(x, y)]))
    return float(v[x] - v[y])


def interior_laplacian(trunc):
    """The interior block L_II and its LU: the Laplacian grounded on the frontier.

    Returns (L_II, lu_solver).  The block is symmetric positive definite
    whenever the frontier is nonempty and reachable, which truncation
    guarantees.
    """
    _require_frontier(trunc, "an interior solve")
    return grounded_laplacian(trunc.graph, trunc.frontier)[1:]


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

