"""The reversible chain of a conductance graph: paths, absorption, boundary data.

The walk steps from x to a neighbor y with probability c_xy / c(x).  On a
truncation the frontier absorbs, and where a walk lands is the harmonic
measure seen from its start; averaging boundary data against it reproduces
harmonic functions.  The exact measures from k starts come from one adjoint
block solve, the single measure being its k = 1 case; seeded walks audit them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import (
    ConductanceGraph,
    GraphError,
    _integer,
    _require_frontier,
    _require_vertex,
    underlying,
)
from .laplacian import assemble_laplacian, grounded_solve

__all__ = [
    "PathSample",
    "PathSamples",
    "cylinder_probability",
    "sample_paths",
    "BoundaryEstimate",
    "harmonic_measure_exact",
    "estimate_from_samples",
    "measure_z_scores",
    "poisson_reproduce",
    "martin_kernel",
]


def cylinder_probability(g, word):
    """Probability that the chain traces the given vertex-index word."""
    graph = underlying(g)
    word = [_require_vertex(graph, w) for w in word]
    if not word:
        raise GraphError("cylinder word must contain at least the starting vertex")
    prob = 1.0
    degrees = graph.degrees
    for a, b in zip(word, word[1:]):
        c = graph.conductance(a, b)
        if c == 0.0:
            raise GraphError(
                f"word steps between non-adjacent vertices {graph.labels[a]!r} "
                f"and {graph.labels[b]!r}"
            )
        prob *= c / degrees[a]
    return prob


def _step_tables(graph):
    """Per-CSR-entry row CDF, log step probability and int32 target, cached.

    The CDF of row x is the running sum of its weights over c(x), its last
    entry forced to 1.  The sums run over the position k within a row, one
    array step for every row with a k-th entry, and add left to right, so each
    row is bitwise its `np.cumsum`.  The rows are taken in order of falling
    degree, so the rows with a k-th entry are a prefix and a hub costs one
    pass per entry but no padding.  The log table is built with `math.log`,
    one entry at a time, so the sampled log-probabilities are bitwise those of
    adding `math.log(c_xy / c(x))` step by step.
    """

    def build():
        degrees = graph.degrees
        count = np.diff(graph.indptr)
        order = np.argsort(-count, kind="stable")
        first, scale = graph.indptr[order], degrees[order]
        # longer[k]: how many rows have more than k entries
        longer = np.searchsorted(-count[order], -np.arange(count.max(initial=0)), side="left")
        cdf = np.empty_like(graph.weights)
        run = np.zeros(graph.n)
        for k, m in enumerate(longer.tolist()):
            at = first[:m] + k
            run[:m] += graph.weights[at]
            cdf[at] = run[:m] / scale[:m]
        cdf[graph.indptr[1:][count > 0] - 1] = 1.0  # guard against rounding shortfall
        ratio = graph.weights / np.repeat(degrees, count)
        log_step = np.fromiter(map(math.log, ratio.tolist()), float, len(ratio))
        return cdf, log_step, graph.indices.astype(np.int32)

    return graph._derived("step_tables", build)


def _stream(seed):
    """numpy's Philox under the walk streams' key, as numpy reads key=[seed, 0].

    numpy converts the list through one array, so a seed at or above 2**63
    goes through float64 and a negative one wraps; building it with numpy
    keeps that.  A seed outside [-2**63, 2**64) is no 64-bit key.
    """
    if not -(2**63) <= seed < 2**64:
        raise GraphError(f"seed {seed} is outside [-2^63, 2^64)")
    return np.random.Philox(key=[seed, 0])


def _block_draws(bitgen, state, t, ids):
    """Draws 4t ... 4t + 3 of the samples `ids`, an increasing index array, one row each.

    Sample i's block t is the Philox4x64-10 block at counter (i + 1, t, 0, 0)
    under the stream key, so the blocks of samples id0 ... id1 - 1 are one
    run of `bitgen`, numpy's Philox under that key, from counter
    (id0, t, 0, 0); `state` is its state dict, whose counter is set here.
    The words are converted as `Generator.random()` converts them,
    (w >> 11) * 2**-53.
    """
    id0 = ids[0]
    state["state"]["counter"][:2] = id0, t
    bitgen.state = state
    raw = bitgen.random_raw(4 * (ids[-1] + 1 - id0)).reshape(-1, 4)
    return (raw[ids - id0] >> 11) * 2.0**-53


@dataclass(slots=True)  # slots: iterating a batch builds one per walk
class PathSample:
    start: int
    vertices: np.ndarray
    log_probability: float
    absorbed_at: int | None
    length: int


@dataclass(frozen=True)
class PathSamples:
    """A batch of walks from one start, recorded as the CSR entries they took.

    `absorbed_at` (-1 when the walk was cut off unabsorbed) and `length` (its
    number of steps) hold one entry per walk.  `entries[t]` holds the CSR
    entry taken at step t + 1 by every walk still running then, in sample
    order; `targets` and `log_step` map an entry to the vertex it steps to and
    to its log step probability, and `graph` is the graph the walks ran on.
    `offsets`, `vertices` and `log_probability` are laid out on first read:
    walk i visits `vertices[offsets[i]:offsets[i + 1]]`, its start first, and
    `log_probability` holds one entry per walk.  Indexing and iteration build
    a `PathSample` for each walk asked for.
    """

    start: int
    absorbed_at: np.ndarray
    length: np.ndarray
    entries: list = field(repr=False)
    targets: np.ndarray = field(repr=False)
    log_step: np.ndarray = field(repr=False)
    graph: ConductanceGraph = field(repr=False)

    @cached_property
    def _layout(self):
        """Replay the record: walk i is running at step t + 1 exactly when
        length[i] > t, and its log-probability adds its steps left to right."""
        n = len(self.length)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.length + 1, out=offsets[1:])
        flat = np.empty(offsets[-1], dtype=np.int64)
        log_p = np.zeros(n)
        ids, live = np.arange(n), self.length
        pos = offsets[:-1]
        flat[pos] = self.start
        for t, entry in enumerate(self.entries):
            if len(entry) != len(ids):
                keep = live > t
                ids, pos, live = ids[keep], pos[keep], live[keep]
            pos = pos + 1
            flat[pos] = self.targets[entry]
            log_p[ids] += self.log_step[entry]
        return offsets, flat, log_p

    @property
    def offsets(self):
        return self._layout[0]

    @property
    def vertices(self):
        return self._layout[1]

    @property
    def log_probability(self):
        return self._layout[2]

    def __len__(self):
        return len(self.length)

    def __getitem__(self, i):
        i = range(len(self))[i]  # IndexError out of range, negative from the end
        end = int(self.absorbed_at[i])
        return PathSample(
            start=self.start,
            vertices=self.vertices[self.offsets[i] : self.offsets[i + 1]],
            log_probability=float(self.log_probability[i]),
            absorbed_at=None if end < 0 else end,
            length=int(self.length[i]),
        )

    def __iter__(self):
        # one `tolist` per field: walk by walk, `__getitem__` costs twice as much
        bounds = self.offsets.tolist()
        for a, b, log_p, end, steps in zip(
            bounds, bounds[1:], self.log_probability.tolist(),
            self.absorbed_at.tolist(), self.length.tolist(),
        ):
            yield PathSample(self.start, self.vertices[a:b], log_p, None if end < 0 else end, steps)


def sample_paths(trunc, x, n_samples, max_steps, seed):
    """Run seeded chains from interior vertex x until frontier absorption.

    Each sample gets its own counter-based bit stream, a function of (seed,
    index) alone, so results do not depend on sampling order.  Walks still
    unabsorbed after max_steps are returned with absorbed_at -1; they are
    never silently dropped or redistributed.  Returns one `PathSamples` batch.

    All walks advance in lockstep, one array step per step count.  Step s of
    sample i draws word s % 4 of the Philox4x64-10 block at counter
    (i + 1, s // 4, 0, 0) under the key numpy reads from key=[seed, 0],
    converted as `Generator.random()` converts it, and picks the first
    neighbor whose row CDF exceeds it.  Every fourth step one run of numpy's
    Philox draws the next block for the index range of the running walks
    (`_block_draws`), and no block past max_steps is drawn.  A running walk
    is known by the CSR entry it last took;
    per-entry tables give the first entry of the row it steps to, whether
    that step absorbed, and the CDF each probe of the neighbor search reads.
    The loop records only those entries; the batch lays the paths out when
    they are first read.
    """
    _require_frontier(trunc, "path sampling")
    graph = trunc.graph
    x = _require_vertex(graph, x)
    if trunc.frontier_mask[x]:
        raise GraphError(f"start vertex {graph.labels[x]!r} lies on the frontier")
    n = _integer(n_samples, "n_samples {!r} is not an integer")
    max_steps = _integer(max_steps, "max_steps {!r} is not an integer")
    for name, count in (("n_samples", n), ("max_steps", max_steps)):
        if count < 0:
            raise GraphError(f"{name} must be >= 0, got {count}")
    bitgen = _stream(_integer(seed, "seed {!r} is not an integer"))
    state = bitgen.state  # its counter is set per block; the constructor reads OS entropy
    cdf, log_step, targets = _step_tables(graph)
    # per CSR entry e: the first entry of the row e steps to, and whether
    # that row's vertex absorbs
    first, absorbs = graph.indptr[targets], trunc.frontier_mask[targets]
    # "cdf <= u" holds on a prefix of every row (its CDF is nondecreasing and
    # its last entry is 1 > u), so the prefix length, numpy's
    # searchsorted(side="right"), is found by one probe per power of two
    # below the longest row; a probe past the row's end reads its last entry.
    # The probe of stride k from entry e reads the CDF at
    # min(e + k - 1, last entry of e's row), tabled per entry.  The search
    # never passes a row's last entry, so the stride-1 probe, the last one,
    # reads the CDF itself.
    count = np.diff(graph.indptr)
    bits = (int(count.max()) - 1).bit_length()
    row_last = np.repeat(graph.indptr[1:] - 1, count)
    entry = np.arange(len(row_last))
    strides = [1 << j for j in reversed(range(1, bits))]
    wide = [(k, cdf[np.minimum(entry + (k - 1), row_last)]) for k in strides]

    length = np.full(n, max_steps, dtype=np.int64)
    absorbed_at = np.full(n, -1, dtype=np.int64)
    ids = np.arange(n)  # the walks still running, in sample order
    lo = np.full(n, graph.indptr[x])  # each running walk's search, from its row's first entry
    entries = []
    for s in range(max_steps if n else 0):
        t, word = divmod(s, 4)
        if word == 0:
            # one block for every running walk; slot is each one's row
            draws = _block_draws(bitgen, state, t, ids)
            slot = np.arange(len(ids))
        u = draws[slot, word]
        for stride, probe_cdf in wide:
            lo += (probe_cdf[lo] <= u) * stride
        if bits:
            lo += cdf[lo] <= u
        entries.append(lo)
        done = absorbs[lo]
        if done.any():
            finished = ids[done]
            length[finished] = s + 1
            absorbed_at[finished] = targets[lo[done]]
            running = ~done
            ids, lo, slot = ids[running], lo[running], slot[running]
            if len(ids) == 0:
                break
        lo = first[lo]
    return PathSamples(int(x), absorbed_at, length, entries, targets, log_step, graph)


@dataclass
class BoundaryEstimate:
    """Harmonic measure on the frontier, exact or sampled."""

    frontier: np.ndarray
    weights: np.ndarray
    counts: np.ndarray | None
    total_samples: int
    unabsorbed: int
    std_error: np.ndarray | None
    kind: str


def _harmonic_measures(trunc, points):
    """Harmonic measures from k interior points by one adjoint block solve.

    h_I = L_II^-1 A_IF f, so evaluating at x against every boundary vector at
    once means solving L_II z = e_x and reading off z^T A_IF, which is A z on
    the frontier.  Row j of the returned (k, m) array is the measure from
    points[j]; rows are contiguous, so their dot products match a vector's.
    """
    _require_frontier(trunc, "harmonic measure")
    graph = trunc.graph
    e = np.zeros((graph.n, len(points)))
    for j, x in enumerate(points):
        e[_require_vertex(graph, x, interior_of=trunc), j] = 1.0
    # one start reaches the solve as a vector, as one dipole does
    z = grounded_solve(graph, trunc.frontier, e[:, 0] if len(points) == 1 else e)
    mu = (graph.adjacency() @ z)[trunc.frontier].T
    mu = np.maximum(mu, 0.0, order="C")  # clip the solver's negative dust
    return mu.reshape(len(points), len(trunc.frontier))


def harmonic_measure_exact(trunc, x):
    """Harmonic measure from x: the k = 1 case of the adjoint block solve."""
    (mu,) = _harmonic_measures(trunc, [x])
    return BoundaryEstimate(
        frontier=np.array(trunc.frontier, dtype=np.int64),
        weights=mu,
        counts=None,
        total_samples=0,
        unabsorbed=0,
        std_error=None,
        kind="exact",
    )


def estimate_from_samples(trunc, samples):
    """Empirical harmonic measure of a `PathSamples` batch, with binomial errors."""
    if samples.graph is not trunc.graph:
        raise GraphError("samples were drawn on a different graph")
    frontier = np.array(trunc.frontier, dtype=np.int64)
    ends = samples.absorbed_at[samples.absorbed_at >= 0]
    slot = np.full(trunc.graph.n, -1, dtype=np.int64)
    slot[frontier] = np.arange(len(frontier))
    hits = slot[ends]
    if np.any(hits < 0):
        raise GraphError(f"a sample ends at vertex index {ends[hits < 0][0]}, off the frontier")
    counts = np.bincount(hits, minlength=len(frontier))
    unabsorbed = len(samples) - len(ends)
    total = len(samples)
    weights = counts / total if total else counts.astype(float)
    se = np.sqrt(weights * (1.0 - weights) / total) if total else None
    return BoundaryEstimate(
        frontier=frontier,
        weights=weights,
        counts=counts,
        total_samples=total,
        unabsorbed=unabsorbed,
        std_error=se,
        kind="monte-carlo",
    )


def measure_z_scores(sampled, exact):
    """(mu_hat - mu) / sqrt(mu (1 - mu) / n), using the exact mu in the scale.

    Components whose exact weight is 0 or 1 have zero binomial spread; they
    come back as 0 when the sample agrees exactly and +-inf when it does not.
    The exact mu is clipped to [0, 1] first: a weight that rounds to
    1 + 2.2e-16 is a certain hit, not a negative variance.
    """
    if sampled.total_samples <= 0:
        raise GraphError("sampled estimate holds no samples")
    if not np.array_equal(sampled.frontier, exact.frontier):
        raise GraphError("the two estimates come from a different graph: their frontiers differ")
    mu = np.clip(exact.weights, 0.0, 1.0)
    n = sampled.total_samples
    scale = np.sqrt(mu * (1.0 - mu) / n)
    diff = sampled.weights - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / scale)
    return z


def poisson_reproduce(trunc, h_values, x, n_samples, seed, max_steps=None):
    """Reproduce a harmonic function at x by averaging it over absorbed walks.

    Rejects inputs that are not harmonic on the interior (the representation
    only holds for those), reporting the offending residual.  Unabsorbed
    walks contribute nothing to the average and are returned in the report
    rather than being reweighted away.  The standard error needs at least two
    samples.
    """
    _require_frontier(trunc, "boundary representation")
    n_samples = _integer(n_samples, "n_samples {!r} is not an integer")
    if n_samples < 2:
        raise GraphError(f"n_samples must be at least 2 for a standard error, got {n_samples}")
    graph = trunc.graph
    if getattr(h_values, "graph", graph) is not graph:
        raise GraphError("function was built on a different graph")
    h = np.asarray(getattr(h_values, "values", h_values), dtype=float)
    if h.shape != (graph.n,):
        raise GraphError(f"expected {graph.n} vertex values, got shape {h.shape}")
    lap = assemble_laplacian(graph)
    residual = float(np.max(np.abs(lap.apply(h)[trunc.interior])))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(h)))):
        raise GraphError(
            f"input is not harmonic on the interior (max |Laplacian| = {residual:.3e}); "
            "the boundary average only reproduces harmonic functions"
        )
    exact_measure = harmonic_measure_exact(trunc, x)
    exact_value = float(exact_measure.weights @ h[exact_measure.frontier])
    if max_steps is None:
        max_steps = 100 * graph.n
    samples = sample_paths(trunc, x, n_samples, max_steps, seed)
    absorbed = samples.absorbed_at >= 0
    contributions = np.where(absorbed, h[samples.absorbed_at], 0.0)
    unabsorbed = len(samples) - int(np.count_nonzero(absorbed))
    mc = float(contributions.mean())
    se = float(contributions.std(ddof=1) / math.sqrt(len(samples)))
    return {
        "point_value": float(h[x]),
        "exact_measure_value": exact_value,
        "mc_estimate": mc,
        "std_error": se,
        "n_samples": len(samples),
        "unabsorbed": unabsorbed,
        "harmonic_residual": residual,
    }


def martin_kernel(trunc, walk_g, x, y):
    """Kernel ratio G(x, y) / G(base, y) for the frontier-absorbed walk."""
    if walk_g.absorb != "frontier":
        raise GraphError(
            'Martin ratios need the frontier-absorbed series; pass absorb="frontier"'
        )
    if walk_g.graph is not trunc.graph:
        raise GraphError("walk series was computed on a different graph")
    base = trunc.graph.base_point
    denom = walk_g.value(base, y)
    if denom == 0.0:
        raise GraphError(
            f"G(base, {trunc.graph.labels[y]!r}) = 0; the ratio is undefined"
        )
    return walk_g.value(x, y) / denom
