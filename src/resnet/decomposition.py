"""Splitting finite-energy functions: interior-supported part + harmonic part.

On a truncation the finitely-supported span and the harmonic extensions of
frontier data are orthogonal complements in the energy inner product.  One
helper gauges f (a vector or an (n, k) block) and extends its frontier trace
q; f - q vanishes on the frontier and is the finite part.  The orthogonal
split, the energy split and the kernel route (the Green matrix applied to
L (f - q), a cross-check on the finite part) all start from that pair.  The
interpolation formula adds a harmonic-measure term against the frontier data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyVector,
    _column_dots,
    _energy_form,
    _gauge,
    energy_inner,
    gauged,
)
from .graphs import GraphError, _require_frontier, _require_vertex
from .laplacian import assemble_laplacian, harmonic_extension
from .markov import _harmonic_measures

__all__ = [
    "RoydenSplit",
    "royden_split",
    "project_finite",
    "interpolate",
    "energy_split",
    "energy_splits",
]


def _trace_split(trunc, f, needs="the split", block=False):
    """Check the truncation, gauge f and extend its frontier trace: returns (f, q).

    f is a vertex vector or an EnergyVector, or with `block` an (n, k) block.
    q is harmonic inside and equals f on the frontier (q = 0 when the
    frontier is empty), so f - q is the finite part before gauging.
    """
    _require_frontier(trunc, needs, empty_ok=True)
    graph = trunc.graph
    if block:
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != graph.n:
            raise GraphError(f"expected a ({graph.n}, k) block, got shape {f.shape}")
        f = _gauge(graph, f)
    elif getattr(f, "graph", graph) is not graph:
        raise GraphError("function was built on a different graph")
    else:
        f = gauged(graph, getattr(f, "values", f)).values
    if len(trunc.frontier) == 0:
        return f, np.zeros(f.shape)
    return f, harmonic_extension(trunc, f[trunc.frontier])


@dataclass
class RoydenSplit:
    """f = finite_part + harmonic_part, orthogonal in energy."""

    graph: object
    values: np.ndarray
    finite_part: EnergyVector
    harmonic_part: EnergyVector
    orthogonality_residual: float


def royden_split(trunc, f):
    """Orthogonal split of f against the harmonic extensions of its frontier trace.

    The harmonic part is the extension of f restricted to the frontier; what
    remains vanishes there, hence lies in the span of the interior vertex
    masses.  With an empty frontier the harmonic part is zero and f is
    entirely finite.
    """
    f, q = _trace_split(trunc, f)
    harmonic = gauged(trunc.graph, q)
    finite = gauged(trunc.graph, f - harmonic.values)
    return RoydenSplit(trunc.graph, f, finite, harmonic, abs(energy_inner(finite, harmonic)))


def _kernel_remainder(trunc, kernel, f, needs):
    """Gauged f, and L (f - q) on the kernel's vertices, which K maps back onto f - q.

    The kernel must be grounded at the base point alone.
    """
    f, q = _trace_split(trunc, f, needs)
    graph = trunc.graph
    if kernel.graph is not graph:
        raise GraphError("kernel was computed on a different graph")
    if list(kernel.vertices) != [i for i in range(graph.n) if i != graph.base_point]:
        raise GraphError(
            "kernel must cover every vertex except the base point "
            '(use the gram route or absorb="base")'
        )
    return f, assemble_laplacian(graph).apply(f - q)[kernel.vertices]


def project_finite(trunc, kernel, f):
    """Finite part via the kernel: apply K to the Laplacian of f minus its extension.

    Independent of `royden_split` except for the shared extension, so
    agreement between the two is a genuine consistency check on K.
    """
    _, rhs = _kernel_remainder(trunc, kernel, f, "the projection")
    out = np.zeros(trunc.graph.n)
    out[kernel.vertices] = kernel.matrix @ rhs
    return EnergyVector(trunc.graph, out)


def interpolate(trunc, kernel, f, x):
    """Rebuild f(x) from kernel data plus harmonic measure against frontier values.

    The kernel term reproduces the interior-supported part; the boundary term
    integrates the frontier trace against the measures seen from x and from
    the base point (one block solve; the base term keeps everything gauged).
    Returns the pieces and the reconstruction residual.
    """
    f, rhs = _kernel_remainder(trunc, kernel, f, "interpolation")
    graph = trunc.graph
    x = _require_vertex(graph, x)
    base = graph.base_point
    boundary_term = 0.0
    if len(trunc.frontier):  # the measure solve rejects a frontier point x
        trace = f[trunc.frontier]
        mu_x, mu_base = _harmonic_measures(trunc, [x, base])
        boundary_term = float(mu_x @ trace - mu_base @ trace)
    green_term = 0.0 if x == base else float(kernel.matrix[kernel._pos[x]] @ rhs)
    value = green_term + boundary_term
    return {
        "value": value,
        "green_term": green_term,
        "boundary_term": boundary_term,
        "residual": abs(value - float(f[x])),
    }


def energy_split(trunc, f):
    """Energy of f as an interior sum plus the energy of its harmonic part.

    dirichlet_term evaluates sum over interior x of (f - extension)(x) times
    (Laplacian f)(x): summation by parts collapses the finite part's energy
    onto the interior because the remainder vanishes on the frontier.
    """
    f, q = _trace_split(trunc, f)
    split = _energy_terms(trunc, f[:, None], q[:, None])
    return {key: float(value[0]) for key, value in split.items()}


def energy_splits(trunc, f):
    """:func:`energy_split` of every column of an (n, k) block of functions.

    The columns are gauged at the base point and share one harmonic
    extension, one Laplacian apply and one energy form; entry j of each
    returned length-k array equals the single split of column j bit for bit.
    """
    return _energy_terms(trunc, *_trace_split(trunc, f, block=True))


def _energy_terms(trunc, f, q):
    """The terms of :func:`energy_splits` for a gauged block f and its extension q."""
    graph = trunc.graph
    lap_f = assemble_laplacian(graph).apply(f)
    dirichlet = _column_dots((f - q)[trunc.interior], lap_f[trunc.interior])
    boundary = _energy_form(graph, _gauge(graph, q))
    total = _energy_form(graph, f)
    return {
        "dirichlet_term": dirichlet,
        "boundary_term": boundary,
        "total": total,
        "identity_residual": np.abs(dirichlet + boundary - total),
    }
