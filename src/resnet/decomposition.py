"""Splitting finite-energy functions: interior-supported part + harmonic part.

On a truncation the finitely-supported span and the harmonic extensions of
frontier data are orthogonal complements in the energy inner product.  The
split is computed by one harmonic extension; the kernel route (applying the
Green matrix to the Laplacian of the interior-vanishing remainder) recovers
the same finite part and serves as its cross-check.  The interpolation
formula rebuilds point values from a kernel term plus a harmonic-measure
term against the frontier data.
"""

from __future__ import annotations

import numpy as np

from .energy import (
    EnergyVector,
    _column_dots,
    _edge_increments,
    _energy_form,
    _gauge,
    _write_csv,
    energy_inner,
    gauged,
)
from .graphs import GraphError, TruncatedGraph
from .laplacian import assemble_laplacian, harmonic_extension
from .markov import harmonic_measure_exact

__all__ = [
    "RoydenSplit",
    "royden_split",
    "project_finite",
    "interpolate",
    "energy_split",
    "energy_splits",
    "harmonic_basis",
    "harmonic_gram",
]


def _as_gauged(graph, f):
    if isinstance(f, EnergyVector):
        if f.graph is not graph:
            raise GraphError("function was built on a different graph")
        return f
    return gauged(graph, np.asarray(f, dtype=float))


def _frontier_extension(trunc, boundary):
    """Full-length vector, or (n, k) block: given data on the frontier, harmonic inside."""
    if len(trunc.frontier) == 0:
        return np.zeros((trunc.graph.n,) + boundary.shape[1:])
    return harmonic_extension(trunc, boundary)


class RoydenSplit:
    """f = finite_part + harmonic_part, orthogonal in energy."""

    def __init__(self, graph, values, finite_part, harmonic_part, orthogonality_residual):
        self.graph = graph
        self.values = values
        self.finite_part = finite_part
        self.harmonic_part = harmonic_part
        self.orthogonality_residual = orthogonality_residual

    def to_csv(self, path):
        columns = (self.values, self.finite_part.values, self.harmonic_part.values)
        rows = (
            [i, str(label)] + [repr(float(v)) for v in vals]
            for i, (label, *vals) in enumerate(zip(self.graph.labels, *columns))
        )
        _write_csv(path, ["vertex_index", "label", "value", "finite", "harmonic"], rows)


def royden_split(trunc, f):
    """Orthogonal split of f against the harmonic extensions of its frontier trace.

    The harmonic part is the extension of f restricted to the frontier; what
    remains vanishes there, hence lies in the span of the interior vertex
    masses.  With an empty frontier the harmonic part is zero and f is
    entirely finite.
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("the split needs a truncation carrying a frontier")
    graph = trunc.graph
    fv = _as_gauged(graph, f)
    qraw = _frontier_extension(trunc, fv.values[trunc.frontier])
    harmonic = gauged(graph, qraw)
    finite = gauged(graph, fv.values - harmonic.values)
    residual = abs(energy_inner(finite, harmonic))
    return RoydenSplit(graph, fv.values, finite, harmonic, residual)


def _kernel_remainder(trunc, kernel, fv):
    """L g on the kernel's vertices, for g = f minus the extension of its trace.

    g vanishes on the frontier, so it is the finite part and the kernel maps
    this right-hand side back onto it.  The kernel must be grounded at the
    base point alone.
    """
    graph = trunc.graph
    base = graph.base_point
    expected = [i for i in range(graph.n) if i != base]
    if list(kernel.vertices) != expected:
        raise GraphError(
            "kernel must cover every vertex except the base point "
            '(use the gram route or absorb="base")'
        )
    g = fv.values - _frontier_extension(trunc, fv.values[trunc.frontier])
    return assemble_laplacian(graph).apply(g)[kernel.vertices]


def project_finite(trunc, kernel, f):
    """Finite part via the kernel: apply K to the Laplacian of f minus its extension.

    Independent of `royden_split` except for the shared extension, so
    agreement between the two is a genuine consistency check on K.
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("the projection needs a truncation carrying a frontier")
    graph = trunc.graph
    rhs = _kernel_remainder(trunc, kernel, _as_gauged(graph, f))
    out = np.zeros(graph.n)
    out[kernel.vertices] = kernel.matrix @ rhs
    return EnergyVector(graph, out)


def interpolate(trunc, kernel, f, x):
    """Rebuild f(x) from kernel data plus harmonic measure against frontier values.

    The kernel term reproduces the interior-supported part; the boundary term
    integrates the frontier trace against the measures seen from x and from
    the base point (the base correction keeps everything gauged).  Returns
    the pieces and the reconstruction residual.
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("interpolation needs a truncation carrying a frontier")
    graph = trunc.graph
    fv = _as_gauged(graph, f)
    if not 0 <= x < graph.n:
        raise GraphError(f"vertex index {x} out of range [0, {graph.n})")
    if len(trunc.frontier) and trunc.frontier_mask[x]:
        raise GraphError("interpolation point must be interior")
    rhs = _kernel_remainder(trunc, kernel, fv)
    base = graph.base_point
    if x == base:
        green_term = 0.0
    else:
        green_term = float(kernel.matrix[kernel._pos[x]] @ rhs)
    trace = fv.values[trunc.frontier]
    if len(trunc.frontier) == 0:
        boundary_term = 0.0
    else:
        mu_x = harmonic_measure_exact(trunc, x)
        mu_base = harmonic_measure_exact(trunc, base)
        boundary_term = float(mu_x.weights @ trace - mu_base.weights @ trace)
    value = green_term + boundary_term
    return {
        "value": value,
        "green_term": green_term,
        "boundary_term": boundary_term,
        "residual": abs(value - float(fv.values[x])),
    }


def energy_split(trunc, f):
    """Energy of f as an interior sum plus the energy of its harmonic part.

    dirichlet_term evaluates sum over interior x of (f - extension)(x) times
    (Laplacian f)(x): summation by parts collapses the finite part's energy
    onto the interior because the remainder vanishes on the frontier.
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("the split needs a truncation carrying a frontier")
    fv = _as_gauged(trunc.graph, f)
    split = energy_splits(trunc, fv.values[:, None])
    return {key: float(value[0]) for key, value in split.items()}


def energy_splits(trunc, f):
    """:func:`energy_split` of every column of an (n, k) block of functions.

    The columns are gauged at the base point and share one harmonic
    extension, one Laplacian apply and one energy form; each term of the
    returned dict is a length-k array whose entry j equals the single split
    of column j bit for bit.
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("the split needs a truncation carrying a frontier")
    graph = trunc.graph
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != graph.n:
        raise GraphError(f"expected a ({graph.n}, k) block, got shape {f.shape}")
    f = _gauge(graph, f)
    qraw = _frontier_extension(trunc, f[trunc.frontier])
    lap_f = assemble_laplacian(graph).apply(f)
    g = f - qraw
    dirichlet = _column_dots(g[trunc.interior], lap_f[trunc.interior])
    boundary = _energy_form(graph, _gauge(graph, qraw))
    total = _energy_form(graph, f)
    return {
        "dirichlet_term": dirichlet,
        "boundary_term": boundary,
        "total": total,
        "identity_residual": np.abs(dirichlet + boundary - total),
    }


def harmonic_basis(trunc):
    """Gauged harmonic extensions of the frontier indicator functions.

    These span the harmonic complement; their number equals the frontier
    size.  Their energy gram matrix is positive semidefinite with a
    one-dimensional kernel (the indicators sum to the constant boundary
    function, whose extension is constant, hence energy-null).
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("the basis needs a truncation carrying a frontier")
    if len(trunc.frontier) == 0:
        raise GraphError("truncation has an empty frontier; the harmonic space is trivial")
    columns = harmonic_extension(trunc, np.eye(len(trunc.frontier)))
    return [gauged(trunc.graph, h) for h in columns.T]


def harmonic_gram(basis):
    """Energy inner products of a family of vectors on one graph: D^T C D.

    D holds the edge increments of every vector as columns and C the edge
    conductances; scaling D by sqrt(C) keeps the product exactly symmetric.
    """
    if not basis:
        return np.zeros((0, 0))
    graph = basis[0].graph
    if any(u.graph is not graph for u in basis):
        raise GraphError("energy inner product needs vectors on the same graph")
    c, d = _edge_increments(graph, np.column_stack([u.values for u in basis]))
    scaled = np.sqrt(c)[:, None] * d
    return scaled.T @ scaled
