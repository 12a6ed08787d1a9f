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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3").
# A round multiplies counter word 0 by M0 and word 2 by M1, then xors key word
# 0 into the new word 0 and key word 1 into the new word 2; the keys step by W.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MOD64 = 1 << 64
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _multiplier(m):
    """A multiplier's 32-bit halves and itself, as `_mulhilo` takes them."""
    m = np.asarray(m, dtype=np.uint64)
    return m & _LO32, m >> _SHIFT32, m


# _BOTH's row 0 multiplies counter word 0, its row 1 counter word 2
_BOTH = _multiplier([[[_M0]], [[_M1]]])
_BY_M0, _BY_M1 = _multiplier(_M0), _multiplier(_M1)


def _mulhilo(b, mult, hi, lo, x, y, z):
    """Write the high and low words of the 128-bit products mult * b to hi and lo.

    mult is a `_multiplier`, broadcast against b; x, y and z are scratch
    arrays shaped like b.  numpy has no 128-bit product, so the high word is
    assembled from 32-bit halves; every partial sum fits in 64 bits.
    """
    m_lo, m_hi, m = mult
    np.bitwise_and(b, _LO32, out=x)
    np.multiply(x, m_lo, out=y)
    y >>= _SHIFT32
    np.right_shift(b, _SHIFT32, out=hi)
    np.multiply(hi, m_lo, out=z)
    z += y  # b_hi a_lo + carry of b_lo a_lo
    x *= m_hi
    np.bitwise_and(z, _LO32, out=y)
    x += y  # b_lo a_hi + low half of the line above
    hi *= m_hi
    z >>= _SHIFT32
    hi += z
    x >>= _SHIFT32
    hi += x
    np.multiply(b, m, out=lo)


def _philox_uniforms(first, count, key0, key1):
    """Doubles of the Philox4x64-10 blocks at counters first ... first + count - 1.

    One column per key (key0, key1[j]); row 4b + w is word w of the block at
    counter (first + b, 0, 0, 0), converted as `Generator.random()` converts
    it, (x >> 11) * 2**-53.  Draw t of the stream `Generator(Philox(key=...))`
    is row t % 4 at counter t // 4 + 1.

    Counter words 1-3 are 0 and key word 0 is shared by every column, so the
    first round forms only M0 times each counter, once per block, and the
    second only M1 times word 2; key word 0 stays a Python int.  From the
    third round on, the multiplied words (0, 2) and the xored words (1, 3)
    are each a (2, count, m) array, so both products of a round are one pass.
    The rounds work in place on a fixed set of arrays: a fresh temporary for
    every operation raised the peak memory of a `walk` run by about 1%.
    """
    m = len(key1)
    key0 = int(key0)
    key1 = np.asarray(key1).astype(np.uint64)
    # round 1 on (c, 0, 0, 0) leaves (key0, 0, hi(M0 c) ^ key1, lo(M0 c))
    c = np.arange(first, first + count, dtype=np.uint64)
    c_hi, c_lo, *scratch = np.empty((5, count), dtype=np.uint64)
    _mulhilo(c, _BY_M0, c_hi, c_lo, *scratch)
    mult, xor, hi, lo, *scratch = np.empty((7, 2, count, m), dtype=np.uint64)
    np.bitwise_xor(c_hi[:, None], key1, out=mult[1])
    # round 2: word 0 is key0 in every column, so M0 key0 is one Python
    # product; it leaves (hi(M1 w2) ^ k0, lo(M1 w2), hi(M0 key0) ^ w3 ^ k1, lo(M0 key0))
    k0_hi, k0_lo = divmod(_M0 * key0, _MOD64)
    key0 = (key0 + _W0) % _MOD64
    key1 += np.uint64(_W1)
    _mulhilo(mult[1], _BY_M1, hi[0], xor[0], *(a[0] for a in scratch))
    np.bitwise_xor(hi[0], np.uint64(key0), out=mult[0])
    c_lo ^= np.uint64(k0_hi)
    np.bitwise_xor(c_lo[:, None], key1, out=mult[1])
    xor[1] = k0_lo
    for _ in range(8):
        key0 = (key0 + _W0) % _MOD64
        key1 += np.uint64(_W1)
        _mulhilo(mult, _BOTH, hi, lo, *scratch)
        # word 0 <- hi(M1 w2) ^ w1 ^ k0, word 2 <- hi(M0 w0) ^ w3 ^ k1,
        # word 1 <- lo(M1 w2), word 3 <- lo(M0 w0)
        np.bitwise_xor(hi[::-1], xor, out=mult)
        mult[0] ^= np.uint64(key0)
        mult[1] ^= key1
        xor, lo = lo[::-1], xor
    out = np.empty((count, 4, m))
    for words, rows in ((mult, out[:, 0::2]), (xor, out[:, 1::2])):
        words >>= np.uint64(11)
        np.multiply(words, 2.0**-53, out=rows.transpose(1, 0, 2))
    return out.reshape(4 * count, m)


def _stream_key(seed):
    """First key word of every sample's stream, as numpy reads key=[seed, i].

    numpy converts the list through one array, so a seed at or above 2**63
    goes through float64 and a negative one wraps; asking numpy keeps that.
    """
    return np.random.Philox(key=[int(seed), 0]).state["state"]["key"][0]


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


# Walk-blocks per generator call, and blocks per walk per call.  A call has a
# fixed cost of about 180 numpy calls; twice as many columns spill the cache
# and cost more than they save.  A walk that finishes leaves the rest of its
# blocks in the call unread, so no call draws more than _DRAW_AHEAD blocks (32
# steps) ahead of a walk: with few walks running, the column bound alone let a
# call draw hundreds of steps that no walk read.
_DRAW_COLUMNS = 8192
_DRAW_AHEAD = 8


def sample_paths(trunc, x, n_samples, max_steps, seed):
    """Run seeded chains from interior vertex x until frontier absorption.

    Each sample gets its own counter-based bit stream keyed by (seed, index),
    so results do not depend on sampling order.  Walks still unabsorbed after
    max_steps are returned with absorbed_at -1; they are never silently
    dropped or redistributed.  Returns one `PathSamples` batch.

    All walks advance in lockstep, one array step per step count.  Sample i
    draws exactly what `Generator(Philox(key=[seed, i])).random()` returns,
    one draw per step, and picks the first neighbor whose row CDF exceeds it.
    Draws come in blocks of four, each generator call drawing at most
    `_DRAW_AHEAD` blocks per walk and `_DRAW_COLUMNS` walk-blocks (or one
    block per walk).  A running walk is known by the CSR entry it last took;
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
    key0 = _stream_key(_integer(seed, "seed {!r} is not an integer"))
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
    blocks = -(-max_steps // 4)  # blocks of four draws that max_steps uses

    length = np.full(n, max_steps, dtype=np.int64)
    absorbed_at = np.full(n, -1, dtype=np.int64)
    ids = np.arange(n)  # the walks still running, in sample order
    lo = np.full(n, graph.indptr[x])  # each running walk's search, from its row's first entry
    entries = []
    end = 0
    for s in range(max_steps if n else 0):
        if s == end:
            # draw ahead for every running walk; slot is each one's column
            ahead = min(max(1, _DRAW_COLUMNS // len(ids)), _DRAW_AHEAD, blocks - s // 4)
            draws = _philox_uniforms(s // 4 + 1, ahead, key0, ids)
            slot = np.arange(len(ids))
            start, end = s, s + 4 * ahead
        u = draws[s - start][slot]
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
