"""The energy Hilbert space of a conductance network.

Functions on the vertex set carry the quadratic form

    ||u||^2 = (1/2) sum_x sum_{y~x} c_xy (u(x) - u(y))^2,

which kills constants; the quotient is made concrete by pinning every vector
to 0 at the base point.  Dipoles — solutions of L v = delta_x - delta_y —
are the reproducing kernels of this space: <v, f> = f(x) - f(y) for every
finite-energy f.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphError, underlying
from .laplacian import assemble_laplacian

__all__ = [
    "SolverError",
    "EnergyVector",
    "DipoleVector",
    "gauged",
    "delta",
    "energy_inner",
    "solve_dipole",
    "reproducing_check",
    "ProductCertificate",
    "pointwise_product",
]


class SolverError(Exception):
    """An iterative solve failed to converge; carries the last residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class EnergyVector:
    """A vertex function gauged to 0 at the base point, with cached energy."""

    graph: object
    values: np.ndarray
    _energy: float = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.graph.n,):
            raise GraphError(f"expected {self.graph.n} values, got shape {vals.shape}")
        vals = vals - vals[self.graph.base_point]
        vals.flags.writeable = False
        self.values = vals

    @property
    def energy(self):
        if self._energy is None:
            self._energy = energy_inner(self, self)
        return self._energy

    def sup_norm(self):
        return float(np.max(np.abs(self.values))) if self.graph.n else 0.0

    def to_csv(self, path):
        labels = self.graph.labels
        rows = ([i, labels[i], repr(float(v))] for i, v in enumerate(self.values))
        _write_csv(path, ["vertex_index", "label", "value"], rows)


def _write_csv(path, header, rows):
    """Write a header row and then `rows` as one CSV file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def gauged(g, values):
    """Wrap raw values as an EnergyVector on the graph, gauging at the base."""
    return EnergyVector(underlying(g), values)


def delta(g, x):
    """The gauged indicator of vertex `x` (for x = base this is 1_x - 1)."""
    graph = underlying(g)
    if not 0 <= x < graph.n:
        raise GraphError(f"vertex index {x} out of range [0, {graph.n})")
    vals = np.zeros(graph.n)
    vals[x] = 1.0
    return EnergyVector(graph, vals)


def _edge_increments(graph, values):
    """Edge conductances c and increments u(i) - u(j) over the edges i < j.

    `values` is a vertex vector or an (n, k) block of them; the energy form
    is then sum over edges of c du dv.
    """
    i, j, c = graph.edge_arrays()
    return c, values[i] - values[j]


def energy_inner(u, v):
    """<u, v> = sum over edges of c_xy du dv."""
    if u.graph is not v.graph:
        raise GraphError("energy inner product needs vectors on the same graph")
    c, du = _edge_increments(u.graph, u.values)
    _, dv = _edge_increments(v.graph, v.values)
    return float(np.dot(c * du, dv))


@dataclass
class DipoleVector:
    """Solution of L v = delta_source - delta_sink, gauged at the base point."""

    vector: EnergyVector
    source: int
    sink: int
    solve_residual: float
    iterations: int

    @property
    def graph(self):
        return self.vector.graph

    @property
    def values(self):
        return self.vector.values

    @property
    def energy(self):
        return self.vector.energy


def solve_dipole(g, x, y, tol=1e-10):
    """Solve L v = delta_x - delta_y by preconditioned conjugate gradients.

    The Laplacian is positive semidefinite with the constants as kernel; the
    right-hand side is mean-free, and the residual is re-projected off the
    constants every iteration to stop roundoff drift.  Jacobi (degree)
    preconditioning; iteration cap 20 * n; relative residual target `tol`.
    """
    graph = underlying(g)
    if x == y:
        raise GraphError("dipole endpoints must differ")
    for v in (x, y):
        if not 0 <= v < graph.n:
            raise GraphError(f"vertex index {v} out of range [0, {graph.n})")
    if tol <= 0:
        raise GraphError("tol must be positive")
    lap = assemble_laplacian(graph)
    diag = lap.diagonal
    if np.any(diag <= 0):
        raise GraphError("dipole solve undefined: zero-degree vertex present")

    n = graph.n
    b = np.zeros(n)
    b[x], b[y] = 1.0, -1.0
    b_norm = math.sqrt(2.0)
    u = np.zeros(n)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(np.dot(r, z))
    cap = max(20 * n, 50)
    res = 1.0
    for it in range(1, cap + 1):
        ap = lap.apply(p)
        denom = float(np.dot(p, ap))
        if not denom > 0.0:
            # direction collapse: the Krylov space is exhausted at this
            # precision, so no further progress is possible
            raise SolverError(
                f"dipole solve broke down at residual {res:.3e} after {it} iterations",
                residual=res,
                iterations=it,
            )
        alpha = rz / denom
        u += alpha * p
        r -= alpha * ap
        r -= r.mean()
        res = float(np.linalg.norm(r)) / b_norm
        if res <= tol:
            break
        z = r / diag
        rz_next = float(np.dot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    else:
        raise SolverError(
            f"dipole solve stalled at residual {res:.3e} after {cap} iterations",
            residual=res,
            iterations=cap,
        )
    vec = EnergyVector(graph, u)
    true_res = float(np.linalg.norm(lap.apply(vec.values) - b)) / b_norm
    return DipoleVector(vec, x, y, true_res, it)


def reproducing_check(v, f):
    """|<v, f> - (f(source) - f(sink))| for a solved dipole and any f."""
    inner = energy_inner(v.vector, f)
    increment = float(f.values[v.source] - f.values[v.sink])
    return abs(inner - increment)


@dataclass
class ProductCertificate:
    product_energy: float
    bound: float

    @property
    def slack(self):
        return self.bound - self.product_energy


def pointwise_product(u, w):
    """Pointwise product uw with the submultiplicativity certificate.

    The energy of the product is bounded by
    (sup|u|^2 + sup|w|^2) * (||u||^2 + ||w||^2); the returned certificate
    carries both sides.  The bound follows from du*w + u*dw splitting of
    product increments plus Cauchy-Schwarz, so the slack is nonnegative for
    every pair.
    """
    if u.graph is not w.graph:
        raise GraphError("pointwise product needs vectors on the same graph")
    prod = EnergyVector(u.graph, u.values * w.values)
    bound = (u.sup_norm() ** 2 + w.sup_norm() ** 2) * (u.energy + w.energy)
    return prod, ProductCertificate(product_energy=prod.energy, bound=bound)
