"""Green's functions: gauged kernels, absorbed-walk series, and closed forms.

Two routes to the same kernel, kept deliberately independent so that their
agreement is evidence:

  * the gram route reads K(x, y) = <v_x, v_y> = v_x(y) off the dipole
    potentials anchored at the base point: K is the inverse of the Laplacian
    with the base row and column removed, the identity solved in column
    blocks against its cached sparse LU;
  * the walk route sums the Neumann series of the absorbed transition matrix
    and rescales by conductances.

Closed forms for the drifted nearest-neighbor walk (its diagonal is a central
binomial generating function) and for homogeneous trees are provided for
benchmarking, together with a transition-product calculator for layered
graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energy import SolverError, _check_tol
from .graphs import GraphError, _integer, _require_frontier, generate, underlying
from .laplacian import _grounded_drop, grounded_laplacian, transition_operator

__all__ = [
    "GreensMatrix",
    "greens_gram",
    "greens_inversion_check",
    "WalkGreens",
    "walk_greens",
    "BinomialWalk",
    "binomial_closed_form",
    "generating_function_check",
    "chain_walk_diagonal",
    "nary_tree_closed_forms",
    "nary_tree_comparison",
    "bratteli_transition_product",
]


@dataclass
class GreensMatrix:
    """Kernel over a subset of vertices (the grounded ones excluded), exactly
    symmetric and finite as <v_x, v_y> is on a connected graph: an asymmetric
    matrix raises GraphError, a NaN or infinite entry SolverError."""

    graph: object
    vertices: list
    matrix: np.ndarray
    symmetry_residual: float

    _excluded = "grounded"  # how a vertex outside `vertices` is described

    def __post_init__(self):
        _require_symmetric(self.matrix, "kernel")

    @cached_property
    def _pos(self):
        return {v: k for k, v in enumerate(self.vertices)}

    def _slot(self, v):
        """Row of vertex index `v`; a non-integer (1.0 and True included) is absent."""
        absent = "vertex index {} is " + self._excluded + " or absent"
        try:
            return self._pos[_integer(v, absent)]
        except KeyError:
            raise GraphError(absent.format(v)) from None

    def value(self, x, y):
        return float(self.matrix[self._slot(x), self._slot(y)])


def _require_symmetric(matrix, name):
    """GraphError unless `matrix` is its transpose (a NaN facing a NaN counts as
    equal, tested only where the faster plain test fails); then SolverError if
    it holds a NaN or an infinity, which on a connected graph only an overflow
    makes.  A matrix equal to its transpose holds no NaN, so its max and min
    find any infinity without an n x n temporary."""
    if np.array_equal(matrix, matrix.T):
        if math.isfinite(matrix.max(initial=0.0)) and math.isfinite(matrix.min(initial=0.0)):
            return
    elif not np.array_equal(matrix, matrix.T, equal_nan=True):
        raise GraphError(f"{name} matrix is not symmetric")
    bad = np.count_nonzero(~np.isfinite(matrix))
    raise SolverError(f"{name} matrix has {bad} non-finite entries")


_SOLVE_BLOCK_BYTES = 1 << 20  # the right-hand sides of one kernel solve


def greens_gram(g, tol=1e-10):
    """Base-grounded kernel: column x is the dipole potential v_x, v_x(y) = K(x, y).

    The columns come from block solves against the grounded factorization
    (see `_grounded_kernel`).  A direct solve has no tolerance, so `tol` is
    ignored; it stays in the signature for callers that still pass it, until
    ROADMAP item 3 lets it go.  The kernel is symmetrized after recording how
    far the raw columns were from symmetric.
    """
    graph = underlying(g)
    return _grounded_kernel(graph, graph.base_point)


def _grounded_kernel(graph, ground):
    """The inverse of L without the `ground` rows and columns, one column per kept vertex.

    The identity is solved a block of columns at a time, each block about
    `_SOLVE_BLOCK_BYTES`, so the solve works in cache and no identity matrix
    is formed.  SuperLU solves each right-hand side on its own, so every
    column is bitwise the one a single solve of the whole identity gives.
    """
    kept, _, lu = grounded_laplacian(graph, ground)
    m = len(kept)
    k = np.empty((m, m), order="F")  # lu.solve's own layout: each block a slab
    step = max(1, _SOLVE_BLOCK_BYTES // (8 * max(m, 1)))
    for lo in range(0, m, step):
        e = np.zeros((m, min(step, m - lo)), order="F")
        np.fill_diagonal(e[lo:], 1.0)
        k[:, lo:lo + e.shape[1]] = lu.solve(e)
    return GreensMatrix(graph, kept.tolist(), *_symmetrized(k))


def _symmetrized(k):
    """(1/2)(k + k^T) and the asymmetry max |k - k^T| of a square matrix.

    One n x n temporary holds k - k^T, then k + k^T, halved in place
    (bitwise 0.5 * (k + k^T)).  An overflowed k gives infinities and NaNs
    here without a warning; the kernel built from them refuses them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.subtract(k, k.T)
        residual = float(np.max(np.abs(t, out=t))) if len(k) else 0.0
        np.add(k, k.T, out=t)
    t *= 0.5
    return t, residual


def greens_inversion_check(g, kernel):
    """max-norm deviation of K * L_grounded from the identity (both orders).

    L_grounded is the block of the cached grounded factorization whose
    ground is every vertex the kernel leaves out (the kernel's vertices must
    be in increasing order).  A GreensMatrix is exactly symmetric, so K L
    equals (L K)^T bit for bit (the same terms summed in the same order) and
    the one product L K measures both orders.  It is finite too, so only a
    product that overflows reads inf or NaN, and the check then fails.
    """
    graph = underlying(g)
    if graph is not kernel.graph:
        raise GraphError("kernel was computed on a different graph")
    off = np.ones(graph.n, dtype=bool)
    off[kernel.vertices] = False
    kept, block, _ = grounded_laplacian(graph, np.flatnonzero(off))
    if not np.array_equal(kept, kernel.vertices):
        raise GraphError("kernel vertices must be distinct and in increasing order")
    sub = block.T  # the CSR form of the symmetric block: the same arrays
    return _identity_deviation(np.asarray(sub @ kernel.matrix))


def _identity_deviation(prod):
    # overwrites `prod`, so the product is the only n x n array it holds
    prod[np.diag_indices_from(prod)] -= 1.0
    return float(np.max(np.abs(prod, out=prod)))


# -- absorbed-walk route -------------------------------------------------------


def _absorbed_radius(graph, kept):
    # P restricted off the absorbing set is similar to the symmetric
    # D^-1/2 A D^-1/2, whose eigenvalues eigvalsh finds backward stably; with
    # a norm of at most 1 that backward error is at most len(kept) ulps, so
    # max |lambda| plus that many ulps never undershoots the spectral radius.
    root_deg = np.sqrt(graph.degrees[kept])
    sym = graph.adjacency()[kept][:, kept].toarray() / root_deg[:, None] / root_deg[None, :]
    lam = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    return lam + len(kept) * float(np.finfo(float).eps)


@dataclass
class WalkGreens:
    """Partial Neumann sum sum_m P^m over the non-absorbed vertices."""

    graph: object
    vertices: list
    matrix: np.ndarray
    order: int
    rho: float
    tail_bound: float
    absorb: str

    _excluded = "absorbed"
    _pos = GreensMatrix._pos
    _slot = GreensMatrix._slot
    value = GreensMatrix.value

    def to_kernel(self):
        """Rescale expected visit counts by conductances to get the symmetric kernel."""
        degrees = self.graph.degrees[self.vertices]
        k = self.matrix / degrees[None, :]
        return GreensMatrix(self.graph, list(self.vertices), *_symmetrized(k))


def walk_greens(g, order_cap=100_000, tail_tol=1e-10, absorb="base"):
    """Sum the series I + P + P^2 + ... restricted off the absorbing set.

    absorb="base" grounds only the base point (and matches the gram kernel
    there); absorb="frontier" grounds the frontier of a truncation, which is
    the version boundary-limit quantities are built from.  The expansion
    order is chosen so the geometric tail rho^order / (1 - rho) drops below
    `tail_tol`, with rho bounded above through the symmetric eigenvalues, and
    is checked against `order_cap`.  The series is summed by doubling, so the
    order reported is the first 2^j - 1 at or above the one needed and the
    tail only tightens.  `tail_tol` must be positive and `order_cap` an
    integer of at least 1.
    """
    _check_tol(tail_tol, "tail_tol")
    order_cap = _integer(order_cap, "order_cap must be an integer of at least 1, got {!r}", 1)
    if absorb == "base":
        graph = underlying(g)
        kept = [i for i in range(graph.n) if i != graph.base_point]
    elif absorb == "frontier":
        _require_frontier(g, 'absorb="frontier"')
        graph = g.graph
        kept = list(g.interior)
    else:
        raise GraphError(f'unknown absorb mode {absorb!r}; use "base" or "frontier"')
    p_sub = transition_operator(graph)[kept][:, kept].toarray()
    rho = _absorbed_radius(graph, kept) if kept else 0.0
    if rho >= 1.0:
        raise SolverError(
            f"absorbed walk is not uniformly contracting (spectral radius {rho:.6f})",
            residual=rho,
        )
    need = tail_tol * (1.0 - rho)
    if rho == 0.0 or need >= 1.0:  # one term already meets it
        order = 1
    else:
        # a product that underflows to 0 is summed as logs instead
        log_need = math.log(need) if need > 0.0 else math.log(tail_tol) + math.log1p(-rho)
        order = int(math.ceil(log_need / math.log(rho)))
    if order > order_cap:
        raise SolverError(
            f"series needs order {order} to push the tail below {tail_tol:g} "
            f"(spectral radius {rho:.12f}) but the cap is {order_cap}",
            residual=rho,
            iterations=order,
        )
    # Doubling: S_2k = S_k + P^k S_k with S_k = I + P + ... + P^(k-1), so the
    # sum runs to the first order 2^j - 1 at or above the one needed.
    total, power, terms = np.eye(len(kept)), p_sub, 1
    while True:
        total = total + power @ total
        terms *= 2
        if terms > order:
            break
        power = power @ power
    order = terms - 1
    tail = rho**order / (1.0 - rho) if rho > 0.0 else 0.0
    return WalkGreens(graph, kept, total, order, rho, tail, absorb)


# -- closed forms for the drifted chain ---------------------------------------


@dataclass
class BinomialWalk:
    """Nearest-neighbor walk stepping forward with probability p_plus."""

    p_plus: float
    p_minus: float
    lam: float
    diagonal: float


def binomial_closed_form(p_plus):
    """Closed-form Green quantities for the drifted walk; p=1/2 is degenerate."""
    if not 0.0 < p_plus < 1.0:
        raise GraphError(f"step probability must lie in (0, 1), got {p_plus}")
    if p_plus == 0.5:
        raise GraphError(
            "degenerate drift: at p=1/2 the discriminant vanishes and the walk "
            "is recurrent, so no finite closed form exists"
        )
    p_minus = 1.0 - p_plus
    lam = p_plus * p_minus
    return BinomialWalk(p_plus, p_minus, lam, 1.0 / math.sqrt(1.0 - 4.0 * lam))


def generating_function_check(lam, terms=200):
    """Partial sums of sum_m C(2m, m) lam^m against 1/sqrt(1 - 4 lam).

    Returns the partial sum, the closed form, their gap, and the geometric
    tail majorant the gap must stay under.
    """
    if not 0.0 <= lam < 0.25:
        raise GraphError(f"generating function requires 0 <= lam < 1/4, got {lam}")
    t = 1.0
    partial = 0.0
    for m in range(terms):
        partial += t
        t = t * lam * 2.0 * (2 * m + 1) / (m + 1)
    closed = 1.0 / math.sqrt(1.0 - 4.0 * lam)
    tail_bound = t / (1.0 - 4.0 * lam)
    return {
        "lam": lam,
        "terms": terms,
        "partial_sum": partial,
        "closed_form": closed,
        "residual": abs(partial - closed),
        "tail_bound": tail_bound,
    }


def chain_walk_diagonal(p_plus, width):
    """Green diagonal at the center of a finite drifted chain, by the walk route.

    Geometric conductances growth^i make every interior vertex step forward
    with probability p_plus, so widening the chain converges to the
    closed-form diagonal 1/sqrt(1 - 4 p q).
    """
    model = binomial_closed_form(p_plus)
    growth = p_plus / (1.0 - p_plus)
    trunc = generate("chain", width=width, growth=growth)
    wg = walk_greens(trunc, order_cap=200_000, tail_tol=1e-10, absorb="frontier")
    center = trunc.graph.base_point
    diagonal = wg.value(center, center)
    return {
        "p_plus": p_plus,
        "lam": model.lam,
        "width": width,
        "diagonal": diagonal,
        "closed_form": model.diagonal,
        "rel_error": abs(diagonal - model.diagonal) / model.diagonal,
        "order": wg.order,
        "rho": wg.rho,
        "tail_bound": wg.tail_bound,
    }


# -- homogeneous trees ---------------------------------------------------------


def nary_tree_closed_forms(branching, b, level=1):
    """Stated constants for the regular tree with geometric conductances.

    same_level_green is the conductance-weighted escape quantity
    (Nb + 1)/(Nb - 1); root_distance is 1/((1 + Nb) b^(level-1)).
    """
    nb = branching * b
    if nb <= 1.0:
        raise GraphError(f"tree requires branching * b > 1, got {nb}")
    if level < 1:
        raise GraphError("level must be at least 1")
    return {
        "same_level_green": (nb + 1.0) / (nb - 1.0),
        "root_distance": 1.0 / ((1.0 + nb) * b ** (level - 1)),
    }


def nary_tree_comparison(branching, b, radius, level=1):
    """Stated tree constants next to what finite truncations actually give.

    measured_free is the plain resistance on the truncated tree (a tree has
    a single path, so this telescopes the edge resistances); measured_wired
    shorts the whole frontier into one vertex first.  Both are the grounded
    dipole drop, grounded at the root and on the frontier.  Both disagree
    with the stated root_distance, and the report quantifies by how much
    rather than hiding it.
    """
    stated = nary_tree_closed_forms(branching, b, level)
    if level >= radius:
        raise GraphError("comparison level must be interior to the truncation")
    trunc = generate("nary-tree", radius=radius, branching=branching, b=b)
    graph = trunc.graph
    root = graph.base_point
    target = graph.index_of((0,) * level)
    free = _grounded_drop(graph, root, root, target)  # route M4
    wired = _grounded_drop(graph, trunc.frontier, root, target)
    return {
        "stated": stated,
        "measured_free": free,
        "measured_wired": wired,
        "free_gap": abs(free - stated["root_distance"]),
        "wired_gap": abs(wired - stated["root_distance"]),
    }


# -- layered graphs ------------------------------------------------------------


def bratteli_transition_product(level_sizes, level_weights, word, start_level=0):
    """Probability block for following a level word on a layered graph.

    Each vertex of level n connects to every vertex of the adjacent levels,
    with per-edge weight level_weights[n] on the (n, n+1) band; "+" steps up
    a level, "-" steps down.  Returns the product of the one-step transition
    blocks, whose row sums are the probabilities of tracing the word.
    """
    top = len(level_sizes) - 1
    if top < 1:
        raise GraphError("need at least two levels")
    if len(level_weights) != top:
        raise GraphError(
            f"expected {top} band weights for {top + 1} levels, got {len(level_weights)}"
        )
    if not 0 <= start_level <= top:
        raise GraphError(f"start level {start_level} outside [0, {top}]")

    def degree(n):
        c = 0.0
        if n >= 1:
            c += level_sizes[n - 1] * level_weights[n - 1]
        if n <= top - 1:
            c += level_sizes[n + 1] * level_weights[n]
        return c

    level = start_level
    block = np.eye(level_sizes[level])
    for symbol in word:
        if symbol == "+":
            nxt = level + 1
            if nxt > top:
                raise GraphError(
                    f"word climbs past level {top}: supply more levels to trace it"
                )
            w = level_weights[level]
        elif symbol == "-":
            nxt = level - 1
            if nxt < 0:
                raise GraphError("level underflow: word steps below the bottom level")
            w = level_weights[nxt]
        else:
            raise GraphError(f"word symbols must be '+' or '-', got {symbol!r}")
        step = np.full((level_sizes[level], level_sizes[nxt]), w) / degree(level)
        block = block @ step
        level = nxt
    return {
        "matrix": block,
        "start_level": start_level,
        "end_level": level,
        "row_sums": block.sum(axis=1),
    }
