"""The energy Hilbert space of a conductance network.

Functions on the vertex set carry the quadratic form

    ||u||^2 = (1/2) sum_x sum_{y~x} c_xy (u(x) - u(y))^2,

which kills constants; the quotient is made concrete by pinning every vector
to 0 at the base point.  Dipoles — solutions of L v = delta_x - delta_y —
are the reproducing kernels of this space: <v, f> = f(x) - f(y) for every
finite-energy f.

Every dipole comes from one preconditioned conjugate-gradient loop, `_pcg`,
which applies the Laplacian in edge form and runs over a vector or a block
of right-hand sides:
`solve_dipoles` solves a list of pairs in one pass, and `solve_dipole` is
its k = 1 case.  The reproducing check and the product bound follow the
same pattern: `reproducing_checks` and `pointwise_products` take an (n, k)
block of functions, and the single forms are their k = 1 case.  Every
energy, `energy_inner` included, comes from one column-wise form,
`_energy_form`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphError, SolverError, _check_tol, _require_vertex, underlying
from .laplacian import _dipole_rhs, _tree_solve, assemble_laplacian

__all__ = [
    "SolverError",
    "EnergyVector",
    "DipoleVector",
    "gauged",
    "delta",
    "energy_inner",
    "solve_dipole",
    "solve_dipoles",
    "reproducing_check",
    "reproducing_checks",
    "ProductCertificate",
    "pointwise_product",
    "pointwise_products",
]


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
        vals = _gauge(self.graph, vals)
        vals.flags.writeable = False
        self.values = vals

    @property
    def energy(self):
        if self._energy is None:
            self._energy = energy_inner(self, self)
        return self._energy

    def sup_norm(self):
        return float(np.max(np.abs(self.values))) if self.graph.n else 0.0


def _gauge(graph, values):
    """A vertex vector, or each column of an (n, k) block, minus its base-point value."""
    return values - values[graph.base_point]


def gauged(g, values):
    """Wrap raw values as an EnergyVector on the graph, gauging at the base."""
    return EnergyVector(underlying(g), values)


def delta(g, x):
    """The gauged indicator of vertex `x` (for x = base this is 1_x - 1)."""
    graph = underlying(g)
    vals = np.zeros(graph.n)
    vals[_require_vertex(graph, x)] = 1.0
    return EnergyVector(graph, vals)


def energy_inner(u, v):
    """<u, v> = sum over edges of c_xy du dv: the k = 1 case of `_energy_form`."""
    if u.graph is not v.graph:
        raise GraphError("energy inner product needs vectors on the same graph")
    other = None if v is u else v.values[:, None]
    return float(_energy_form(u.graph, u.values[:, None], other)[0])


def _column_dots(a, b):
    """a[:, j] . b[:, j] for every column j of two (n, k) blocks.

    Both are made Fortran-ordered first (a no-op if they are): on contiguous
    columns `np.vecdot` makes the very BLAS `ddot` call that `np.dot` makes
    on a vector, so entry j equals ``np.dot(a[:, j], b[:, j])`` bit for bit.
    """
    return np.vecdot(np.asfortranarray(a), np.asfortranarray(b), axis=0)


def _energy_form(graph, a, b=None):
    """<a_j, b_j> = sum over edges of c da_j db_j for every column j of two
    (n, k) blocks (b defaults to a).

    Each block is gathered as k rows, so its (m, k) increments come back with
    contiguous columns and entry j equals ``np.dot(c * da_j, db_j)`` on the
    vectors of column j bit for bit.
    """
    i, j, c = graph.edge_arrays()

    def increments(block):
        rows = block.T
        return (rows.take(i, axis=1) - rows.take(j, axis=1)).T

    da = increments(a)
    db = da if b is None else increments(b)
    return _column_dots(c[:, None] * da, db)


@dataclass(kw_only=True)
class DipoleVector(EnergyVector):
    """Solution of L v = delta_source - delta_sink, gauged at the base point."""

    source: int
    sink: int
    solve_residual: float
    iterations: int


def solve_dipole(g, x, y, tol=1e-10):
    """Solve L v = delta_x - delta_y by preconditioned conjugate gradients.

    The Laplacian is positive semidefinite with the constants as kernel; the
    right-hand side is mean-free, and the residual is re-projected off the
    constants every iteration to stop roundoff drift.  On a tree the
    preconditioner is the exact tree solve, and the loop ends after one or
    two steps; on any other graph it is the degree scaling r / c(x).
    Iteration cap max(20 n, 50); relative residual target `tol`, which must
    be a positive number.  A solve that breaks down or stalls raises
    SolverError with its last residual and iteration count.  This is the
    k = 1 case of :func:`solve_dipoles`.
    """
    return solve_dipoles(g, [(x, y)], tol)[0]


def solve_dipoles(g, pairs, tol=1e-10):
    """One DipoleVector per (x, y) in `pairs`, from one block PCG loop.

    Every pair is checked before any solve.  The pairs share each sparse
    product and reduction, but each column keeps its own step lengths and
    residual and stops at its own iteration, so every result equals
    ``solve_dipole(g, x, y, tol)`` bit for bit; a single pair goes to the
    loop as a vector.  A column that breaks down or stalls is frozen; after
    the loop the first such pair in input order raises the SolverError its
    single solve would have raised.
    """
    graph = underlying(g)
    pairs = [_check_pair(graph, x, y) for x, y in pairs]
    _check_tol(tol)
    lap = assemble_laplacian(graph)
    if not pairs:
        return []
    return _dipole_vectors(graph, lap, _dipole_rhs(graph.n, pairs), pairs, tol)


def _check_pair(graph, x, y, distinct=True):
    """(x, y) as int vertex indices of `graph`, distinct unless not `distinct`."""
    if distinct and x == y:
        raise GraphError("dipole endpoints must differ")
    return _require_vertex(graph, x), _require_vertex(graph, y)


def _dipole_vectors(graph, lap, rhs, pairs, tol):
    """Solve for every column of `rhs` and wrap each as a gauged DipoleVector
    that carries its true relative residual ||L v - rhs|| / ||rhs||."""
    u, iterations, errors = _pcg(lap, rhs, tol)
    for error in errors:
        if error is not None:
            raise error
    u = u - u[graph.base_point]
    rhs = rhs.reshape(u.shape, order="F")
    t = lap.apply(u, out=np.empty(u.shape, order="F"))
    t -= rhs
    true_res = np.sqrt(np.vecdot(t, t, axis=0)) / np.sqrt(np.vecdot(rhs, rhs, axis=0))
    return [
        DipoleVector(graph, u[:, j], source=x, sink=y, solve_residual=float(true_res[j]),
                     iterations=int(iterations[j]))
        for j, (x, y) in enumerate(pairs)
    ]


# Extreme conductances overflow in the loop: the infinities and NaNs end a
# column as a breakdown, or leave a non-finite potential, without a warning.
@np.errstate(over="ignore", invalid="ignore")
def _pcg(lap, rhs, tol):
    """Preconditioned CG on L u = rhs for a mean-free vector or block.

    The preconditioner is chosen from the graph.  On a tree (n - 1 edges)
    it is the base-grounded tree sweep of `laplacian._tree_solve`, the one
    the direct solves use there: the current has one path, so z is L^+ r up
    to a constant (0 at the base) and a column converges in a step or two.  Any
    other graph gets the degree scaling z = r / c(x).

    `rhs` has shape (n,) or (n, k); a block must be Fortran-ordered, so that
    each column is contiguous and its dot products and sums are the very
    BLAS and pairwise calls a single vector gets.  Each column keeps its own
    alpha, beta and residual.  A column that converges, breaks down or hits
    the cap of max(20 n, 50) iterations leaves the block there, and the rest
    go on.  Returns (u, iterations, errors): u is an (n, k) block (k = 1
    for a vector), iterations[j] is the step at which column j converged and
    errors[j] is the SolverError of a column that did not (None otherwise).

    The CG vectors live in buffers allocated once (again only when columns
    leave a block); the apply and the tree solve take their own scratch.  A
    vector keeps its alpha, beta and residual as Python floats and takes its
    dot products with `np.dot`, the `ddot` call that `np.vecdot` makes on a
    contiguous column; float arithmetic rounds as numpy's scalar arithmetic
    does, so both forms give the same bits.
    """
    n = rhs.shape[0]
    block = rhs.ndim == 2
    k = rhs.shape[1] if block else 1
    if block:
        dots, sqrt = functools.partial(np.vecdot, axis=0), np.sqrt
        any_, all_ = np.ndarray.any, np.ndarray.all
    else:
        dots, sqrt = _float_dot, math.sqrt
        any_ = all_ = bool
    graph = lap.graph
    if graph.num_edges == graph.n - 1:
        tree = _tree_solve(graph)

        def precondition(r, out):  # the base-grounded solve: 0 at the base
            out[0] = 0.0
            out[1:] = tree.solve(r[1:])
            return out
    else:
        diag = lap.diagonal[:, None] if block else lap.diagonal

        def precondition(r, out):
            return np.divide(r, diag, out=out)
    out = np.zeros((n, k), order="F")
    iterations = np.zeros(k, dtype=np.int64)
    errors = [None] * k

    def stopped(mask):
        """(column, residual) of each live column that `mask` picks."""
        mask = np.atleast_1d(mask)
        return zip(live[mask].tolist(), np.atleast_1d(res)[mask].tolist())

    live = np.arange(k)
    b_norm = sqrt(dots(rhs, rhs))
    u = np.zeros_like(rhs, order="F")
    r = rhs.copy(order="F")
    ap, z, t = np.empty_like(r), np.empty_like(r), np.empty_like(r)
    p = precondition(r, out=np.empty_like(r))
    rz = dots(r, p)
    res = np.ones(k) if block else 1.0
    cap = max(20 * n, 50)
    for it in range(1, cap + 1):
        lap.apply(p, out=ap)  # in place: `ap` stays Fortran-ordered
        denom = dots(p, ap)
        ok = (denom > 0.0) & (rz > 0.0)
        if not all_(ok):
            # direction collapse, or a preconditioned residual that underflowed
            # to 0: the Krylov space is exhausted at this precision, so no
            # further progress is possible
            for j, rj in stopped(np.logical_not(ok)):
                errors[j] = SolverError(
                    f"dipole solve broke down at residual {rj:.3e} after {it} iterations",
                    residual=rj,
                    iterations=it,
                )
            if not any_(ok):
                break
            live, rz, denom, res, b_norm = (a[ok] for a in (live, rz, denom, res, b_norm))
            u, r, p, ap, z, t = (a[:, ok] for a in (u, r, p, ap, z, t))
        alpha = rz / denom
        u += np.multiply(alpha, p, out=t)
        r -= np.multiply(alpha, ap, out=t)
        r -= np.add.reduce(r, axis=0) / n  # bitwise r.mean() per column
        res = sqrt(dots(r, r)) / b_norm
        done = res <= tol
        if any_(done):
            cols = live[np.atleast_1d(done)]
            out[:, cols] = u.reshape(n, -1)[:, np.atleast_1d(done)]
            iterations[cols] = it
            if all_(done):
                break
            keep = ~done
            live, rz, res, b_norm = (a[keep] for a in (live, rz, res, b_norm))
            u, r, p, ap, z, t = (a[:, keep] for a in (u, r, p, ap, z, t))
        precondition(r, out=z)
        rz_next = dots(r, z)
        p *= rz_next / rz  # p = z + beta p, as beta p + z
        p += z
        rz = rz_next
    else:
        for j, rj in stopped(np.ones(live.size, dtype=bool)):
            errors[j] = SolverError(
                f"dipole solve stalled at residual {rj:.3e} after {cap} iterations",
                residual=rj,
                iterations=cap,
            )
    return out, iterations, errors


def _float_dot(a, b):
    return float(np.dot(a, b))


def reproducing_check(v, f):
    """|<v, f> - (f(source) - f(sink))| for a solved dipole and any f."""
    if v.graph is not f.graph:
        raise GraphError("energy inner product needs vectors on the same graph")
    return float(reproducing_checks([v], f.values[:, None])[0])


def reproducing_checks(dipoles, f):
    """:func:`reproducing_check` of each dipole against its column of `f`.

    `f` is an (n, k) block holding one function per dipole, all on the
    dipoles' graph.  Returns the k residuals as an array, each equal to its
    single check bit for bit.
    """
    if not dipoles:
        return np.zeros(0)
    graph = dipoles[0].graph
    if any(v.graph is not graph for v in dipoles):
        raise GraphError("energy inner product needs vectors on the same graph")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (graph.n, len(dipoles)):
        raise GraphError(f"expected {(graph.n, len(dipoles))} values, got shape {f.shape}")
    cols = np.arange(len(dipoles))
    sources, sinks = np.array([(v.source, v.sink) for v in dipoles]).T
    inner = _energy_form(graph, np.array([v.values for v in dipoles]).T, f)
    return np.abs(inner - (f[sources, cols] - f[sinks, cols]))


@dataclass
class ProductCertificate:
    """Energy of a pointwise product and its bound: floats, or one array
    entry per column for :func:`pointwise_products`."""

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
    prod, cert = pointwise_products(u.graph, u.values[:, None], w.values[:, None])
    energy = float(cert.product_energy[0])
    return (
        EnergyVector(u.graph, prod[:, 0], _energy=energy),
        ProductCertificate(product_energy=energy, bound=float(cert.bound[0])),
    )


def pointwise_products(g, u, w):
    """:func:`pointwise_product` of every column pair of two (n, k) blocks.

    Both blocks are gauged at the base point first.  Returns the gauged
    (n, k) product block and one ProductCertificate whose two fields are
    length-k arrays; column j equals the single product bit for bit.
    """
    graph = underlying(g)
    u, w = np.asarray(u, dtype=np.float64), np.asarray(w, dtype=np.float64)
    if u.ndim != 2 or u.shape != w.shape or u.shape[0] != graph.n:
        raise GraphError(f"expected two ({graph.n}, k) blocks, got {u.shape} and {w.shape}")
    u, w = _gauge(graph, u), _gauge(graph, w)
    prod = _gauge(graph, u * w)
    sup_u, sup_w = (np.max(np.abs(a), axis=0) for a in (u, w))
    # libm pow, as Python's float ** 2 (x * x rounds differently about once in 1000)
    sup2 = np.float_power(sup_u, 2) + np.float_power(sup_w, 2)
    bound = sup2 * (_energy_form(graph, u) + _energy_form(graph, w))
    return prod, ProductCertificate(product_energy=_energy_form(graph, prod), bound=bound)
