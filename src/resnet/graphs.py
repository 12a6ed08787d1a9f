"""Conductance networks: validated weighted graphs, family generators, and
finite truncations with a marked absorbing frontier.

A conductance network is an undirected graph with strictly positive symmetric
edge weights (siemens; the reciprocal of each weight is the edge resistance in
ohms) and a distinguished base vertex.  Vertices are indexed breadth-first
from the base point, ties within a distance shell broken by label, so the
radius-R ball of any generated family is an index prefix of the
radius-(R+1) ball.  Graphs are immutable once built and safe to share
across threads.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

__all__ = [
    "GraphError",
    "ValidationIssue",
    "ValidationReport",
    "ConductanceGraph",
    "TruncatedGraph",
    "validate",
    "generate",
    "truncate",
    "with_frontier",
    "load_graph",
    "underlying",
    "as_truncated",
    "FAMILIES",
]

_WEIGHT_MATCH_RTOL = 1e-12


class GraphError(Exception):
    """Structurally unusable graph input or invalid generator parameters.

    Carries an optional `report` attribute with the validation issues that
    triggered the failure, when raised from a loading/validation path.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SolverError(Exception):
    """A numerical route failed to converge or to give a usable value; carries
    the last residual and iteration count where it has them."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _check_tol(tol, name="tol"):
    # `not tol > 0` also rejects NaN, against which every residual test passes
    # (M3's KVL certificate) or fails (PCG runs until it breaks down)
    if not tol > 0:
        raise GraphError(f"{name} must be positive, got {tol!r}")


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass
class ValidationReport:
    """Outcome of a structural check.  Empty `issues` means the input is valid."""

    issues: list

    @property
    def ok(self):
        return not self.issues

    def codes(self):
        return sorted({issue.code for issue in self.issues})

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(issue) for issue in self.issues)


def _label_sort_key(label):
    # Total order over heterogeneous labels: numbers, strings, tuples, then
    # anything else by its repr.  Only used for deterministic tie-breaking.
    if isinstance(label, bool):
        return (3, str(label), "")
    if isinstance(label, (int, float, np.integer, np.floating)):
        return (0, float(label), "")
    if isinstance(label, str):
        return (1, label, "")
    if isinstance(label, tuple):
        return (2, tuple(_label_sort_key(part) for part in label), "")
    return (3, repr(label), "")


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _offsets(counts):
    """CSR row offsets [0, c0, c0 + c1, ...] of the int64 `counts`."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _tree_depths(reached, pred):
    """Depths in a search tree from its `reached` order and predecessors; -1 off the tree.

    By pointer jumping up the tree: each pass doubles how far `up` reaches
    and adds the hops it skipped to `depth`.
    """
    n = len(pred)
    up = np.arange(n)
    up[reached[1:]] = pred[reached[1:]]
    depth = (up != np.arange(n)).astype(np.int64)
    while (up != up[up]).any():
        depth += depth[up]
        up = up[up]
    depth[up != reached[0]] = -1
    return depth


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(part) for part in label]
    if isinstance(label, (np.integer,)):
        return int(label)
    if isinstance(label, (np.floating,)):
        return float(label)
    return label


def _labels_from_json(objs):
    """Labels read from JSON: arrays become tuples, at any depth.

    A list of flat arrays converts in one pass; only nested arrays are
    visited part by part.
    """
    kinds = set(map(type, objs))
    if list not in kinds:
        return list(objs)
    if kinds == {list}:
        labels = list(map(tuple, objs))
        try:
            hash(tuple(labels))  # a label holding an array (or an object) is unhashable
            return labels
        except TypeError:
            pass
    return [tuple(_labels_from_json(obj)) if type(obj) is list else obj for obj in objs]


_EXACT_INT = 2**53  # ints within this bound compare as their floats do


def _exact_int_array(values):
    """The ints `values` as an int64 array if all lie within float precision, else None."""
    try:
        arr = np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return None
    if len(arr) and (arr.min() < -_EXACT_INT or arr.max() > _EXACT_INT):
        return None
    return arr


def _label_order(labels):
    """Vertex indices sorted by `_label_sort_key` of their labels, ties by index.

    Python's own order is that order when every label is an int, every label
    a str, or every label a tuple of ints, all ints within float precision;
    such label sets are sorted without building the key.
    """
    kinds = set(map(type, labels))
    ints = _exact_int_array(labels) if kinds == {int} else None
    if ints is not None:
        return np.argsort(ints, kind="stable")
    if kinds == {tuple}:
        parts = list(itertools.chain.from_iterable(labels))
        native = set(map(type, parts)) <= {int} and _exact_int_array(parts) is not None
    else:
        native = kinds == {str}
    key = labels.__getitem__ if native else lambda v: _label_sort_key(labels[v])
    return np.array(sorted(range(len(labels)), key=key), dtype=np.int64)


def _csr(labels, base, i, j, w):
    """(base, labels, indptr, indices, weights, hop) of the graph on `labels` with
    checked index edges (i, j, w), based at index `base`.

    A repeated edge keeps its last weight.  One breadth-first search gives
    the hop distances; vertices are ordered by (hop, label), unreached last.
    """
    n = len(labels)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # np.unique keeps the first of equal keys: read the listing backwards
    keep = len(lo) - 1 - np.unique((lo * n + hi)[::-1], return_index=True)[1]
    lo, hi, w = lo[keep], hi[keep], w[keep]
    rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    degree = np.bincount(rows, minlength=n)
    by_row = cols[np.argsort(rows, kind="stable")]
    pattern = sparse.csr_matrix((np.ones(len(rows)), by_row, _offsets(degree)), shape=(n, n))
    hop = _tree_depths(*breadth_first_order(pattern, base, return_predecessors=True))
    by_label = _label_order(labels)
    order = by_label[np.argsort(np.where(hop < 0, n, hop)[by_label], kind="stable")]
    new = np.argsort(order)
    rows, cols = new[rows], new[cols]
    sort = np.argsort(rows * n + cols)  # the keys are distinct: any sort is the one order
    return (
        new[base],
        map(labels.__getitem__, order.tolist()),
        _offsets(degree[order]),
        cols[sort],
        np.concatenate((w, w))[sort],
        hop[order],
    )


class ConductanceGraph:
    """Immutable weighted graph in compressed sparse row form.

    ``ConductanceGraph(labels, base_point, i, j, w)`` builds the graph on
    `labels` from int64 index edges (i, j) with float64 weights `w` that
    passed the edge check of :meth:`from_edges` and :func:`load_graph`,
    based at the index `base_point`.  It raises GraphError on a weight that
    is not positive and finite.  It stores every edge in both orientations
    with one weight, then runs :func:`validate` once and raises GraphError
    unless every vertex has an edge and is reachable from the base point, so
    every graph is connected, as the resistance metric needs.  Unchecked
    edges come in through :meth:`from_edges` and :func:`load_graph`.

    Attributes
    ----------
    n : int
        Number of vertices.
    base_point : int
        Index of the gauge vertex (potentials are pinned to 0 there).
    labels : list
        Vertex labels, indexed by vertex.  Labels are the stable identity of
        a vertex; indices are an implementation detail of one build.
    indptr, indices, weights : ndarray
        CSR neighbor structure; each undirected edge is stored in both
        directions with the same weight.
    hop_distance : ndarray of int
        Unweighted graph distance from the base point.
    """

    def __init__(self, labels, base_point, i, j, w):
        bad = np.flatnonzero(~((w > 0) & (w < np.inf)))  # NaN fails both
        if len(bad):
            k = bad[0]
            raise GraphError(
                f"edge ({labels[i[k]]!r}, {labels[j[k]]!r}) has invalid weight {float(w[k])!r}"
            )
        base, labels, *arrays = _csr(labels, base_point, i, j, w)
        self.base_point = int(base)
        self.labels = list(labels)
        self.indptr, self.indices, self.weights, self.hop_distance = map(_read_only, arrays)
        self.n = len(self.labels)
        self.label_index = dict(zip(self.labels, range(self.n)))
        self._cache = {}
        report = validate(self)
        if not report.ok:
            raise GraphError(f"graph failed validation:\n{report}", report)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges, base_point):
        """Build a graph from an iterable of (u, v, weight) triples.

        Vertex identities are the labels `u`, `v` themselves (any hashable);
        the vertices are the labels the edges name.  Listing an edge twice is
        allowed when the weights agree.  Malformed entries (`bad-edge`),
        self-loops, nonpositive or nonfinite weights and conflicting repeats
        raise GraphError with the report of each, as does a graph that is not
        connected (see :func:`validate`).  A bool label equal to a number label
        (True and 1) raises GraphError rather than share its vertex, and a
        bool base point names only a bool label, a number one only a number.
        """
        # bools are kept apart from the numbers they equal: the label order parts them
        index, flags, parsed, issues = {}, {}, [], []
        for e in edges:
            try:
                x, y, c = e
                x = (flags if type(x) is bool else index).setdefault(x, len(index) + len(flags))
                y = (flags if type(y) is bool else index).setdefault(y, len(index) + len(flags))
                parsed.append((x, y, float(c)))
            except (TypeError, ValueError, OverflowError):
                issues.append(ValidationIssue("bad-edge", f"malformed edge entry {e!r}"))
        for flag in flags:
            if flag in index:
                number = next(label for label in index if label == flag)
                raise GraphError(
                    f"bool label {flag!r} and number label {number!r} would share a vertex"
                )
        i, j, w = np.array(parsed, dtype=np.float64).reshape(-1, 3).T
        labels = list(index)
        if flags:  # the bools take their places among the other labels
            labels = [v for v, _ in sorted([*index.items(), *flags.items()], key=lambda e: e[1])]
        arrays = (i.astype(np.int64), j.astype(np.int64), w)
        issues += _edge_issues(*arrays, labels)
        if issues:
            raise GraphError(issues[0].detail, ValidationReport(issues))
        try:
            base = (flags if type(base_point) is bool else index)[base_point]
        except (KeyError, TypeError):  # TypeError: an unhashable base point
            raise GraphError(f"base point {base_point!r} not among the vertices") from None
        return cls(labels, base, *arrays)

    # -- queries -----------------------------------------------------------

    def _derived(self, key, build):
        """The state derived from this immutable graph under `key`, made by `build()`
        on first use.  Every per-graph cache is filled here and nowhere else."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def num_edges(self):
        return len(self.indices) // 2

    def neighbors(self, x):
        """Neighbor indices and weights of vertex index `x` as array views."""
        x = _require_vertex(self, x)
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def weighted_degree(self, x):
        """c(x): the sum of the weights of the edges incident to `x`."""
        _, w = self.neighbors(x)
        return float(w.sum())

    @property
    def degrees(self):
        """Vector of weighted degrees c(x), cached."""
        return self._derived(  # every row has an edge: reduceat sums each row alone
            "degrees", lambda: _read_only(np.add.reduceat(self.weights, self.indptr[:-1]))
        )

    def conductance(self, x, y):
        """Weight of edge (x, y), or 0.0 when not adjacent."""
        nbrs, w = self.neighbors(x)
        y = _require_vertex(self, y)
        pos = np.searchsorted(nbrs, y)
        if pos < len(nbrs) and nbrs[pos] == y:
            return float(w[pos])
        return 0.0

    def adjacency(self):
        """Weights as a scipy CSR matrix (cached, do not mutate)."""
        csr = (self.weights, self.indices, self.indptr)
        return self._derived("adjacency", lambda: sparse.csr_matrix(csr, shape=(self.n, self.n)))

    def index_of(self, label):
        try:
            return self.label_index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise GraphError(f"unknown vertex label {label!r}") from None

    def edge_arrays(self):
        """Undirected edges as read-only arrays (i, j, w) with i < j, ordered by (i, j).

        The upper triangle of :meth:`adjacency`, cached.
        """

        def build():
            rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
            upper = self.indices > rows
            return tuple(_read_only(arr[upper]) for arr in (rows, self.indices, self.weights))

        return self._derived("edge_arrays", build)

    def edge_list(self):
        """Undirected edges as (i, j, w) tuples with i < j, ordered by (i, j)."""
        return list(zip(*(arr.tolist() for arr in self.edge_arrays())))

    def __repr__(self):
        return (
            f"ConductanceGraph(n={self.n}, edges={self.num_edges}, "
            f"base={self.labels[self.base_point]!r})"
        )

    # -- serialization -----------------------------------------------------

    def to_data(self):
        return {
            "vertices": self.n,
            "base_point": self.base_point,
            "edges": [list(edge) for edge in self.edge_list()],
            "labels": [_label_to_json(l) for l in self.labels],
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_data(), fh, indent=1)
            fh.write("\n")


@dataclass(frozen=True)
class TruncatedGraph:
    """A finite graph with an interior/frontier split.

    The frontier is the absorbing boundary: a stand-in, at one finite radius,
    for the ideal boundary of the infinite graph the ball was cut from.
    Finite families have an empty frontier.  The interior is every vertex
    off the frontier, derived from it once, so the two cannot disagree.
    """

    graph: ConductanceGraph
    radius: int
    frontier: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frontier", _read_only(np.asarray(self.frontier, dtype=np.int64)))

    @cached_property
    def frontier_mask(self):
        mask = np.zeros(self.graph.n, dtype=bool)
        mask[self.frontier] = True
        return _read_only(mask)

    @cached_property
    def interior(self):
        """The vertices off the frontier, in increasing order."""
        return _read_only(np.flatnonzero(~self.frontier_mask))

    @property
    def frontier_labels(self):
        return [self.graph.labels[i] for i in self.frontier]

    def to_data(self):
        data = self.graph.to_data()
        data["radius"] = int(self.radius)
        data["frontier"] = [_label_to_json(self.graph.labels[i]) for i in self.frontier]
        return data

    write_json = ConductanceGraph.write_json


def _require_frontier(trunc, needs, empty_ok=False):
    """Raise GraphError unless `trunc` is a truncation with a frontier, nonempty
    unless `empty_ok`.  `needs` names what needs it and starts the message."""
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError(f"{needs} needs a truncation carrying a frontier")
    if not empty_ok and len(trunc.frontier) == 0:
        raise GraphError(f"{needs} needs a nonempty frontier; this truncation has an empty frontier")


def _require_vertex(graph, x, interior_of=None):
    """`x` as an int vertex index of `graph`, or GraphError.

    `x` must be an integer as `_integer` reads it (so 1.5, 1.0 and True are
    rejected, numpy integers accepted) and lie in [0, n).  With a truncation
    `interior_of`, it must also lie off that truncation's frontier.
    """
    k = _integer(x, "vertex index {!r} is not an integer")
    if not 0 <= k < graph.n or (interior_of is not None and interior_of.frontier_mask[k]):
        if interior_of is not None:
            raise GraphError(f"vertex index {x} is not interior to the truncation")
        raise GraphError(f"vertex index {x} out of range [0, {graph.n})")
    return k


def underlying(g):
    """The ConductanceGraph beneath either graph type."""
    return g.graph if isinstance(g, TruncatedGraph) else g


def as_truncated(g):
    """Wrap a plain graph as a truncation with empty frontier (all interior)."""
    if isinstance(g, TruncatedGraph):
        return g
    return TruncatedGraph(g, int(g.hop_distance.max()), np.empty(0, dtype=np.int64))


# -- validation --------------------------------------------------------------


def validate(graph):
    """Report the zero-degree and unreachable vertices of a graph's arrays.

    Never raises; an empty report means the graph is valid.  The
    constructor of :class:`ConductanceGraph` runs it once and refuses any
    other graph, so every built graph passes.  Symmetric, positive weights
    and no self-loops hold by construction: the constructor takes checked
    edges, refuses a weight that is not positive and finite, and stores each
    edge in both orientations with one weight.
    """
    issues = []
    isolated = np.flatnonzero(np.diff(graph.indptr) == 0)
    if len(isolated):
        issues.append(
            ValidationIssue(
                "zero-degree",
                f"vertices without edges: {[graph.labels[i] for i in isolated[:5]]}",
            )
        )
    unreachable = np.flatnonzero(graph.hop_distance < 0)
    if len(unreachable):
        issues.append(
            ValidationIssue(
                "disconnected",
                f"{len(unreachable)} vertices unreachable from the base point, "
                f"e.g. {[graph.labels[i] for i in unreachable[:5]]}",
            )
        )
    return ValidationReport(issues)


def _edge_issues(i, j, w, labels):
    """Self-loops, invalid weights and conflicting repeats among index edges.

    Issues come in input order and name vertices by `labels`.  Each repeat
    of an edge, in either orientation, is compared with its previous listing.
    """

    def name(k):
        return f"({labels[i[k]]!r}, {labels[j[k]]!r})"

    found = {
        k: ValidationIssue("self-loop", f"self-loop at vertex {labels[i[k]]!r}")
        for k in np.flatnonzero(i == j)
    }
    proper = (i != j) & np.isfinite(w) & (w > 0)
    for k in np.flatnonzero((i != j) & ~proper):
        found[k] = ValidationIssue(
            "nonpositive-weight", f"edge {name(k)} has invalid weight {float(w[k])!r}"
        )
    listed = np.flatnonzero(proper)
    key = (np.minimum(i, j) * len(labels) + np.maximum(i, j))[listed]
    sort = np.argsort(key, kind="stable")  # listings of one edge stay in input order
    listed, key = listed[sort], key[sort]
    prev, cur = listed[:-1], listed[1:]
    conflict = (key[1:] == key[:-1]) & (
        np.abs(w[prev] - w[cur]) > _WEIGHT_MATCH_RTOL * np.maximum(w[prev], w[cur])
    )
    for p, k in zip(prev[conflict], cur[conflict]):
        found[k] = ValidationIssue(
            "asymmetric",
            f"conflicting weights for edge {name(k)}: {float(w[p])!r} vs {float(w[k])!r}",
        )
    return [found[k] for k in sorted(found)]


def _edge_array(num_vertices, edges):
    """Arrays (i, j, w) of an edge list of int and float triples in range, else None.

    One array conversion reads such a list; any other value (a bool, a
    string), or an index not an integer in [0, num_vertices), is left to the
    per-entry reading of :func:`_check_edge_data`.
    """
    try:
        values = list(itertools.chain.from_iterable(edges))
        if set(map(len, edges)) != {3} or not set(map(type, values)) <= {int, float}:
            return None
        arr = np.array(values, dtype=np.float64).reshape(-1, 3)
    except (TypeError, OverflowError):  # OverflowError: an int beyond float range
        return None
    ends = arr[:, :2]
    if not ((ends >= 0) & (ends < num_vertices) & (ends == np.floor(ends))).all():
        return None
    return ends[:, 0].astype(np.int64), ends[:, 1].astype(np.int64), arr[:, 2]


def _vertex_index(x):
    k = int(x)  # alone, int() would read 1.7 and "1" as vertex 1, and True as 1
    if k != x or type(x) is bool:
        raise ValueError(x)
    return k


def _check_edge_data(num_vertices, base_point, edges):
    """Parse a raw indexed edge list into arrays (i, j, w) and check it.

    Returns the issues, each of which makes the list unusable, and the
    arrays of the entries that parsed (None when the count is unusable).
    An index must be a number of integral value: a bool, a string, or a
    fractional or nonfinite number, makes its entry malformed.
    """
    if type(num_vertices) is not int or num_vertices < 1:
        detail = f"vertices must be a positive int, got {num_vertices!r}"
        return [ValidationIssue("bad-count", detail)], None
    issues = []
    if type(base_point) is not int or not 0 <= base_point < num_vertices:
        detail = f"base_point must be an int in [0, {num_vertices}), got {base_point!r}"
        issues.append(ValidationIssue("bad-base", detail))
    arrays = _edge_array(num_vertices, edges)
    if arrays is None:
        if not isinstance(edges, Iterable):
            detail = f"edges must be a list of [x, y, c] entries, got {edges!r}"
            return issues + [ValidationIssue("bad-edge", detail)], None
        parsed = []
        for e in edges:
            try:
                x, y, w = e
                x, y, w = _vertex_index(x), _vertex_index(y), float(w)
            except (TypeError, ValueError, OverflowError):
                issues.append(ValidationIssue("bad-edge", f"malformed edge entry {e!r}"))
                continue
            if 0 <= x < num_vertices and 0 <= y < num_vertices:
                parsed.append((x, y, w))
            else:
                issues.append(ValidationIssue("bad-index", f"edge ({x}, {y}) out of range"))
        i, j, w = np.array(parsed, dtype=np.float64).reshape(-1, 3).T
        arrays = (i.astype(np.int64), j.astype(np.int64), w)
    return issues + _edge_issues(*arrays, range(num_vertices)), arrays


# -- truncation ---------------------------------------------------------------


def truncate(g, radius):
    """Closed ball of hop radius `radius` around the base point.

    The ball is the induced subgraph on vertices at distance <= radius;
    vertices at distance exactly `radius` form the absorbing frontier.
    Because vertex order is (distance, label), the radius-R ball is an index
    prefix of the radius-(R+1) ball of the same graph.
    """
    graph = underlying(g)
    radius = _integer(radius, _RADIUS, 1)
    k = int(np.count_nonzero(graph.hop_distance <= radius))
    i, j, w = graph.edge_arrays()
    inside = j < k  # i < j, and the ball is the index prefix [0, k)
    ball = ConductanceGraph(graph.labels[:k], graph.base_point, i[inside], j[inside], w[inside])
    return _ball_result(ball, radius)


def _ball_result(graph, radius):
    return TruncatedGraph(graph, radius, np.flatnonzero(graph.hop_distance == radius))


def with_frontier(graph, frontier_labels):
    """Designate an explicit absorbing frontier on a finite graph by label.

    Each label may appear once: a repeated one would count its vertex twice
    in every frontier sum.
    """
    graph = underlying(graph)
    labels = list(frontier_labels)
    try:
        idx = np.fromiter(map(graph.label_index.__getitem__, labels), np.int64, len(labels))
    except (KeyError, TypeError):  # TypeError: an unhashable label
        # index_of raises the GraphError that names the first unknown label
        idx = np.fromiter(map(graph.index_of, labels), np.int64, len(labels))
    idx.sort()
    if (idx == graph.base_point).any():
        raise GraphError("base point cannot be on the frontier")
    repeated = idx[1:][idx[1:] == idx[:-1]]
    if len(repeated):
        raise GraphError(f"frontier label {graph.labels[repeated[0]]!r} is repeated")
    return TruncatedGraph(graph, int(graph.hop_distance.max()), idx)


# -- generator families -------------------------------------------------------


def _require(cond, message):
    if not cond:
        raise GraphError(message)


def _integer(value, message, least=None):
    """`value` as an int, read as `operator.index` reads it but never from a bool.

    Raises GraphError(`message`), formatted with `value`, when `value` is no
    such integer or lies below `least`.  So 2.0, "2" and True are refused
    and numpy integers accepted.
    """
    if not isinstance(value, bool):
        try:
            k = operator.index(value)
        except TypeError:
            pass
        else:
            if least is None or k >= least:
                return k
    raise GraphError(message.format(value))


_RADIUS = "truncation radius must be an integer >= 1, got {!r}"


def _finite_weight(w, context):
    _require(math.isfinite(w), f"{context} overflows double precision; reduce the radius")
    return w


def _gen_wye(radius=None, *, r1=1.0, r2=1.0, r3=1.0):
    # Two terminals joined through a middle node: a series resistor r1 into a
    # parallel pair (r2, r3), realized with the pair merged into one edge.
    for name, r in (("r1", r1), ("r2", r2), ("r3", r3)):
        _require(math.isfinite(r) and r > 0, f"wye requires {name} > 0")
    edges = [("a", "m", 1.0 / r1), ("m", "b", 1.0 / r2 + 1.0 / r3)]
    return as_truncated(ConductanceGraph.from_edges(edges, "a"))


def _gen_halfline(radius=None, *, growth=math.e):
    radius = _integer(radius, _RADIUS, 1)
    _require(math.isfinite(growth) and growth > 0, "halfline requires growth > 0")
    _finite_weight(growth ** radius, f"growth**{radius}")
    edges = [(k, k + 1, growth ** k) for k in range(radius)]
    return _ball_result(ConductanceGraph.from_edges(edges, 0), radius)


def _gen_lattice(radius=None, *, d=2):
    radius = _integer(radius, _RADIUS, 1)
    d = _integer(d, "lattice requires integer dimension d >= 1", 1)
    _finite_weight(math.exp(radius), f"exp({radius})")
    points = [
        x for x in itertools.product(range(radius + 1), repeat=d) if sum(x) <= radius
    ]
    edges = []
    for x in points:
        if sum(x) >= radius:
            continue
        for i in range(d):
            y = x[:i] + (x[i] + 1,) + x[i + 1 :]
            edges.append((x, y, math.exp(math.hypot(*y))))
    base = (0,) * d
    return _ball_result(ConductanceGraph.from_edges(edges, base), radius)


def _tree_edges(radius, root, children_of, edge_weight):
    edges = []
    level = [root]
    for depth in range(radius):
        nxt = []
        for word in level:
            for child in children_of(word):
                edges.append((word, child, edge_weight(depth, child)))
                nxt.append(child)
        level = nxt
    return edges


def _gen_binary_tree(radius=None, *, b_plus=2.0, b_minus=2.0):
    radius = _integer(radius, _RADIUS, 1)
    for name, b in (("b_plus", b_plus), ("b_minus", b_minus)):
        _require(math.isfinite(b) and b > 0, f"binary-tree requires {name} > 0")
    _finite_weight(max(b_plus, b_minus) ** radius, "level weight")

    def children(word):
        return (word + "+", word + "-")

    def weight(depth, child):
        return (b_plus if child.endswith("+") else b_minus) ** depth

    edges = _tree_edges(radius, "", children, weight)
    return _ball_result(ConductanceGraph.from_edges(edges, ""), radius)


def _gen_nary_tree(radius=None, *, branching=2, b=2.0):
    radius = _integer(radius, _RADIUS, 1)
    branching = _integer(branching, "nary-tree requires branching >= 2", 2)
    _require(math.isfinite(b) and b > 1, "nary-tree requires b > 1")
    _finite_weight(b ** radius, "level weight")

    def children(word):
        return tuple(word + (c,) for c in range(branching))

    edges = _tree_edges(radius, (), children, lambda depth, child: b ** depth)
    return _ball_result(ConductanceGraph.from_edges(edges, ()), radius)


def _gen_comb(radius=None):
    # Spine vertices (n, 0) with teeth climbing in k; tooth edges double with
    # every step, so the walk along a tooth moves outward with probability 2/3.
    radius = _integer(radius, _RADIUS, 1)
    edges = []
    for n in range(radius):
        edges.append(((n, 0), (n + 1, 0), 2.0 ** (n + 1)))
    for n in range(radius + 1):
        for k in range(radius - n):
            edges.append(((n, k), (n, k + 1), 2.0 ** (k + 1)))
    return _ball_result(ConductanceGraph.from_edges(edges, (0, 0)), radius)


def _gen_bratteli(radius=None, *, level_sizes, level_weights):
    _require(len(level_sizes) >= 2, "bratteli requires at least two levels")
    _require(
        len(level_weights) == len(level_sizes) - 1,
        "bratteli requires one weight per adjacent level pair",
    )
    level_sizes = [_integer(m, "bratteli level sizes must be ints >= 1", 1) for m in level_sizes]
    for w in level_weights:
        _require(math.isfinite(w) and w > 0, "bratteli level weights must be > 0")
    radius = _integer(len(level_sizes) - 1 if radius is None else radius, _RADIUS, 1)
    _require(radius <= len(level_sizes) - 1, "radius exceeds the number of levels")
    edges = []
    for n in range(radius):
        for j in range(level_sizes[n]):
            for i in range(level_sizes[n + 1]):
                edges.append(((n, j), (n + 1, i), level_weights[n]))
    return _ball_result(ConductanceGraph.from_edges(edges, (0, 0)), radius)


def _gen_chain(radius=None, *, width, growth=2.0):
    # Finite cut of the two-sided geometric chain; both cut ends absorb, the
    # base sits at the middle.  With growth g the walk steps up with constant
    # probability g/(1+g) at every interior vertex.
    _require(radius is None, "chain takes width, not a radius")
    width = _integer(width, "chain requires integer width >= 3", 3)
    _require(math.isfinite(growth) and growth > 0, "chain requires growth > 0")
    _finite_weight(growth ** (width - 2), "chain weight")
    edges = [(i, i + 1, growth ** i) for i in range(width - 1)]
    graph = ConductanceGraph.from_edges(edges, width // 2)
    return with_frontier(graph, [0, width - 1])


FAMILIES = {
    "wye": _gen_wye,
    "halfline": _gen_halfline,
    "lattice": _gen_lattice,
    "binary-tree": _gen_binary_tree,
    "nary-tree": _gen_nary_tree,
    "comb": _gen_comb,
    "bratteli": _gen_bratteli,
    "chain": _gen_chain,
}


def generate(family, radius=None, **params):
    """Build a named example family, truncated to `radius` where infinite.

    Families: wye, halfline, lattice, binary-tree, nary-tree, comb, bratteli,
    chain.  Returns a TruncatedGraph; finite families come back
    with an empty frontier.  Deterministic: the same arguments yield the
    same graph, indices included.
    """
    try:
        builder = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise GraphError(f"unknown family {family!r}; known families: {known}") from None
    try:
        return builder(radius, **params)
    except TypeError as exc:
        raise GraphError(f"bad parameters for family {family!r}: {exc}") from None


# -- JSON loading -------------------------------------------------------------


def _json_labels(data, key):
    """The labels of the array field `key` of a graph file."""
    objs = data[key]
    if type(objs) is not list:
        kind = type(objs).__name__
        raise GraphError(f"the {key!r} field must be an array of labels, not {kind}")
    return _labels_from_json(objs)


def load_graph(path):
    """Load a graph JSON file, returning a TruncatedGraph.

    The format is ``{"vertices": N, "base_point": i, "edges": [[x, y, c],
    ...]}`` with each undirected edge stored once (both orientations are
    accepted when the weights agree), plus optional ``labels``, ``radius``
    and ``frontier`` (a list of labels).  Edges get the checks of
    :meth:`ConductanceGraph.from_edges`, plus in-range integer indices; any
    issue raises GraphError carrying the report.  So does a graph with an
    isolated or unreachable vertex, as the constructor refuses it.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GraphError(f"cannot read graph file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GraphError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise GraphError(f"graph file must hold a JSON object, not {type(data).__name__}")
    for key in ("vertices", "base_point", "edges"):
        if key not in data:
            raise GraphError(f"graph file is missing the {key!r} field")
    issues, arrays = _check_edge_data(data["vertices"], data["base_point"], data["edges"])
    if issues:
        raise GraphError(
            "graph file failed validation:\n" + "\n".join(map(str, issues)),
            ValidationReport(issues),
        )
    n = data["vertices"]
    labels = data.get("labels")
    labels = range(n) if labels is None else _json_labels(data, "labels")
    try:
        distinct = len(set(labels))
    except TypeError:  # a JSON object in a label
        raise GraphError("a label cannot hold a JSON object") from None
    if len(labels) != n or distinct != n:
        raise GraphError("labels must give each vertex its own label")
    graph = ConductanceGraph(labels, data["base_point"], *arrays)
    if "frontier" in data:
        trunc = with_frontier(graph, _json_labels(data, "frontier"))
        if "radius" in data:
            radius = data["radius"]
            if type(radius) is not int or radius < 0:
                raise GraphError(f"radius must be a nonnegative integer, got {radius!r}")
            trunc = TruncatedGraph(graph, radius, trunc.frontier)
        return trunc
    return as_truncated(graph)
