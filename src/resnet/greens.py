"""Green's functions: gauged kernels, absorbed-walk series, and closed forms.

Two routes to the same kernel, kept deliberately independent so that their
agreement is evidence:

  * the gram route reads K(x, y) = <v_x, v_y> = v_x(y) off the dipole
    potentials anchored at the base point: K is the inverse of the Laplacian
    with the base row and column removed, obtained by one multi-column solve
    against its cached sparse LU;
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

from .energy import SolverError, _write_csv
from .graphs import GraphError, TruncatedGraph, generate, underlying
from .laplacian import assemble_laplacian, grounded_laplacian, transition_operator

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
    """Symmetric kernel over a subset of vertices (the grounded ones excluded)."""

    graph: object
    vertices: list
    matrix: np.ndarray
    method: str
    symmetry_residual: float
    tol: float

    _excluded = "grounded"  # how a vertex outside `vertices` is described

    @cached_property
    def _pos(self):
        return {v: k for k, v in enumerate(self.vertices)}

    def value(self, x, y):
        try:
            return float(self.matrix[self._pos[x], self._pos[y]])
        except KeyError as exc:
            raise GraphError(f"vertex index {exc.args[0]} is {self._excluded} or absent") from None

    def to_csv(self, path):
        labels = [str(self.graph.labels[v]) for v in self.vertices]
        rows = ([name] + [repr(float(v)) for v in row] for name, row in zip(labels, self.matrix))
        _write_csv(path, ["label"] + labels, rows)


def greens_gram(g, tol=1e-10):
    """Base-grounded kernel: column x is the dipole potential v_x, v_x(y) = K(x, y).

    All columns come from one multi-column solve against the grounded
    factorization.  A direct solve has no tolerance; `tol` is recorded on
    the result.  The kernel is symmetrized after recording how far the raw
    columns were from symmetric.
    """
    graph = underlying(g)
    kept, _, lu = grounded_laplacian(graph, graph.base_point)
    k = lu.solve(np.eye(len(kept)))
    residual = float(np.max(np.abs(k - k.T))) if len(kept) else 0.0
    k = 0.5 * (k + k.T)
    return GreensMatrix(graph, kept.tolist(), k, "gram", residual, tol)


def greens_inversion_check(g, kernel):
    """max-norm deviation of K * L_grounded from the identity (both orders)."""
    graph = underlying(g)
    if graph is not kernel.graph:
        raise GraphError("kernel was computed on a different graph")
    lap = assemble_laplacian(graph).as_csr()
    sub = lap[kernel.vertices][:, kernel.vertices]
    worst = 0.0
    for prod in (np.asarray(kernel.matrix @ sub), np.asarray(sub @ kernel.matrix)):
        prod[np.diag_indices_from(prod)] -= 1.0
        worst = max(worst, float(np.max(np.abs(prod))))
    return worst


# -- absorbed-walk route -------------------------------------------------------


def _squared_power_radius(mat, max_iter=20000, rtol=1e-12):
    # Power iteration on mat @ mat sidesteps the sign-flip oscillation that
    # bipartite pieces (paths, trees) inflict on the plain iteration.  The
    # stopping test watches the normalized iterate, not the eigenvalue
    # estimate: survival probabilities plateau near 1 for the first ~diameter
    # steps, which fools any successive-difference test on the value alone.
    sq = mat @ mat
    w = np.ones(mat.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        w_next = sq @ w
        lam = float(w_next.max())
        if lam <= 0.0:
            return 0.0
        w_next /= lam
        if float(np.max(np.abs(w_next - w))) <= rtol:
            return math.sqrt(lam)
        w = w_next
    return math.sqrt(lam)


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
    value = GreensMatrix.value

    def to_kernel(self):
        """Rescale expected visit counts by conductances to get the symmetric kernel."""
        degrees = self.graph.degrees[self.vertices]
        k = self.matrix / degrees[None, :]
        residual = float(np.max(np.abs(k - k.T))) if len(self.vertices) else 0.0
        k = 0.5 * (k + k.T)
        return GreensMatrix(self.graph, list(self.vertices), k, "walk", residual, self.tail_bound)


def walk_greens(g, order_cap=100_000, tail_tol=1e-10, absorb="base"):
    """Sum the series I + P + P^2 + ... restricted off the absorbing set.

    absorb="base" grounds only the base point (and matches the gram kernel
    there); absorb="frontier" grounds the frontier of a truncation, which is
    the version boundary-limit quantities are built from.  The expansion
    order is chosen so the geometric tail rho^order / (1 - rho) drops below
    `tail_tol`, with rho estimated by power iteration, and is checked against
    `order_cap`.  The series is summed by doubling, so the order reported is
    the first 2^j - 1 at or above the one needed and the tail only tightens.
    """
    if absorb == "base":
        graph = underlying(g)
        kept = [i for i in range(graph.n) if i != graph.base_point]
    elif absorb == "frontier":
        if not isinstance(g, TruncatedGraph):
            raise GraphError('absorb="frontier" needs a truncation carrying a frontier')
        if len(g.frontier) == 0:
            raise GraphError("truncation has an empty frontier; nothing absorbs")
        graph = g.graph
        kept = list(g.interior)
    else:
        raise GraphError(f'unknown absorb mode {absorb!r}; use "base" or "frontier"')
    p_full = transition_operator(graph).matrix
    p_sub = p_full[kept][:, kept].toarray()
    rho = _squared_power_radius(p_sub) if kept else 0.0
    if rho >= 1.0:
        raise SolverError(
            f"absorbed walk is not uniformly contracting (spectral radius {rho:.6f})",
            residual=rho,
        )
    if rho == 0.0:
        order = 1
    else:
        order = int(math.ceil(math.log(tail_tol * (1.0 - rho)) / math.log(rho)))
        order = max(order, 1)
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


def _series_ratio(m, k, lam):
    return lam * (2 * m + k + 1) * (2 * m + k + 2) / ((m + 1) * (m + k + 1))


@dataclass
class BinomialWalk:
    """Nearest-neighbor walk stepping forward with probability p_plus."""

    p_plus: float
    p_minus: float
    lam: float
    diagonal: float

    def kernel_diagonal(self, conductance):
        return self.diagonal / conductance

    def offdiagonal(self, k, tol=1e-12, max_terms=1_000_000):
        """Expected visits k steps forward of the start, with a certified tail.

        The series is p^k sum_m C(2m+k, m) lam^m; successive-term ratios
        approach 4*lam < 1, so a geometric majorant bounds what is dropped.
        """
        k = int(k)
        drift = self.p_plus if k >= 0 else self.p_minus
        k = abs(k)
        prefactor = drift**k
        t = 1.0
        total = t
        m = 0
        while True:
            t = t * _series_ratio(m, k, self.lam)
            m += 1
            ratio_cap = max(_series_ratio(m, k, self.lam), 4.0 * self.lam)
            if ratio_cap < 1.0:
                tail = t / (1.0 - ratio_cap)
                if tail <= tol * max(total, 1.0):
                    return {
                        "value": prefactor * total,
                        "terms": m,
                        "tail_bound": prefactor * tail,
                    }
            total += t
            if m >= max_terms:
                raise SolverError(
                    f"off-diagonal series did not certify within {max_terms} terms",
                    iterations=m,
                )


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


def chain_walk_diagonal(p_plus, width, order_cap=200_000, tail_tol=1e-10):
    """Green diagonal at the center of a finite drifted chain, by the walk route.

    Geometric conductances growth^i make every interior vertex step forward
    with probability p_plus, so widening the chain converges to the
    closed-form diagonal 1/sqrt(1 - 4 p q).
    """
    model = binomial_closed_form(p_plus)
    growth = p_plus / (1.0 - p_plus)
    trunc = generate("chain", width=width, growth=growth)
    wg = walk_greens(trunc, order_cap=order_cap, tail_tol=tail_tol, absorb="frontier")
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


def nary_tree_comparison(branching, b, radius, level=1, tol=1e-10):
    """Stated tree constants next to what finite truncations actually give.

    measured_free is the plain resistance on the truncated tree (a tree has
    a single path, so this telescopes the edge resistances); measured_wired
    shorts the whole frontier into one vertex first.  Both disagree with the
    stated root_distance, and the report quantifies by how much rather than
    hiding it.
    """
    from .graphs import ConductanceGraph
    from .resistance import resistance

    stated = nary_tree_closed_forms(branching, b, level)
    if level >= radius:
        raise GraphError("comparison level must be interior to the truncation")
    trunc = generate("nary-tree", radius=radius, branching=branching, b=b)
    graph = trunc.graph
    root = graph.base_point
    target = graph.index_of((0,) * level)
    free = resistance(graph, root, target, method="M4", tol=tol)
    # short the frontier: accumulate parallel edges into a single hub vertex
    merged = {}
    frontier = set(int(i) for i in trunc.frontier)
    hub = "wired-hub"
    for i, j, c in graph.edge_list():
        a = hub if i in frontier else graph.labels[i]
        bb = hub if j in frontier else graph.labels[j]
        if a == bb:
            continue
        key = (a, bb) if str(a) <= str(bb) else (bb, a)
        merged[key] = merged.get(key, 0.0) + c
    wired_graph = ConductanceGraph.from_edges(
        [(a, bb, c) for (a, bb), c in merged.items()],
        base_point=graph.labels[root],
    )
    wroot = wired_graph.index_of(graph.labels[root])
    wtarget = wired_graph.index_of((0,) * level)
    wired = resistance(wired_graph, wroot, wtarget, method="M4", tol=tol)
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
