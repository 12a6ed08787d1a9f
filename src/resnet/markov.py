"""The reversible chain of a conductance graph: paths, absorption, boundary data.

The walk steps from x to a neighbor y with probability c_xy / c(x).  On a
truncation the frontier absorbs, and where a walk lands is the harmonic
measure seen from its start; averaging boundary data against that measure
reproduces harmonic functions pointwise.  Both an exact linear-algebra route
and a seeded Monte Carlo route are provided so each can audit the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, TruncatedGraph, underlying
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
    word = [int(w) for w in word]
    if not word:
        raise GraphError("cylinder word must contain at least the starting vertex")
    for v in word:
        if not 0 <= v < graph.n:
            raise GraphError(f"vertex index {v} out of range [0, {graph.n})")
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
    if "step_tables" not in graph._cache:
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
        graph._cache["step_tables"] = (cdf, log_step, graph.indices.astype(np.int32))
    return graph._cache["step_tables"]


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3").
# Each constant is a column: row 0 acts on counter word 0 and key word 0, row 1
# on counter word 2 and key word 1.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32


def _mulhilo(b, hi, lo, x, y, z):
    """Write the high and low words of the 128-bit products _PHILOX_M * b to hi and lo.

    b is a (2, m) uint64 array whose row r is multiplied by _PHILOX_M[r]; x,
    y and z are scratch arrays shaped like b.  numpy has no 128-bit product,
    so the high word is assembled from 32-bit halves; every partial sum fits
    in 64 bits.
    """
    np.bitwise_and(b, _LO32, out=x)
    np.multiply(x, _M_LO, out=y)
    y >>= _SHIFT32
    np.right_shift(b, _SHIFT32, out=hi)
    np.multiply(hi, _M_LO, out=z)
    z += y  # b_hi a_lo + carry of b_lo a_lo
    x *= _M_HI
    np.bitwise_and(z, _LO32, out=y)
    x += y  # b_lo a_hi + low half of the line above
    hi *= _M_HI
    z >>= _SHIFT32
    hi += z
    x >>= _SHIFT32
    hi += x
    np.multiply(b, _PHILOX_M, out=lo)


def _philox_uniforms(counter, key0, key1):
    """Doubles of the Philox4x64-10 block at counter (counter, 0, 0, 0).

    One column per key (key0, key1[j]); row w is word w converted as
    `Generator.random()` converts it, (x >> 11) * 2**-53.  Draw t of the
    stream `Generator(Philox(key=...))` is row t % 4 at counter t // 4 + 1.
    The counter is held as its multiplied words (0, 2) and its xored words
    (1, 3), each a (2, m) array, so both products of a round are one pass.
    The rounds work in place on a fixed set of arrays: a fresh temporary for
    every operation raised the peak memory of a `walk` run by about 1%.
    """
    m = len(key1)
    key = np.empty((2, m), dtype=np.uint64)
    key[0] = key0
    key[1] = key1
    mult = np.zeros((2, m), dtype=np.uint64)
    mult[0] = counter
    xor = np.zeros((2, m), dtype=np.uint64)
    hi, lo, *scratch = np.empty((5, 2, m), dtype=np.uint64)
    for r in range(10):
        if r:
            key += _PHILOX_W
        _mulhilo(mult, hi, lo, *scratch)
        # word 0 <- hi(M1 w2) ^ w1 ^ k0, word 2 <- hi(M0 w0) ^ w3 ^ k1,
        # word 1 <- lo(M1 w2), word 3 <- lo(M0 w0)
        np.bitwise_xor(hi[::-1], xor, out=mult)
        mult ^= key
        xor, lo = lo[::-1], xor
    out = np.empty((4, m))
    for words, rows in ((mult, out[0::2]), (xor, out[1::2])):
        words >>= np.uint64(11)
        np.multiply(words, 2.0**-53, out=rows)
    return out


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
    """A batch of walks from one start, laid end to end.

    Walk i visits `vertices[offsets[i]:offsets[i + 1]]`, its start first.
    `log_probability`, `absorbed_at` (-1 when the walk was cut off unabsorbed)
    and `length` (its number of steps) hold one entry per walk.  Indexing and
    iteration build a `PathSample` for each walk asked for.
    """

    start: int
    offsets: np.ndarray
    vertices: np.ndarray
    log_probability: np.ndarray
    absorbed_at: np.ndarray
    length: np.ndarray

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

    Each sample gets its own counter-based bit stream keyed by (seed, index),
    so results do not depend on sampling order.  Walks still unabsorbed after
    max_steps are returned with absorbed_at -1; they are never silently
    dropped or redistributed.  Returns one `PathSamples` batch.

    All walks advance in lockstep, one array step per step count.  Sample i
    draws exactly what `Generator(Philox(key=[seed, i])).random()` returns,
    one draw per step, and picks the first neighbor whose row CDF exceeds it
    (the bisection is numpy's `searchsorted(..., side="right")`).
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("path sampling needs a truncation carrying a frontier")
    if len(trunc.frontier) == 0:
        raise GraphError("truncation has an empty frontier; walks cannot absorb")
    graph = trunc.graph
    if not 0 <= x < graph.n:
        raise GraphError(f"vertex index {x} out of range [0, {graph.n})")
    if trunc.frontier_mask[x]:
        raise GraphError(f"start vertex {graph.labels[x]!r} lies on the frontier")
    n, max_steps = int(n_samples), int(max_steps)
    for name, value in (("n_samples", n), ("max_steps", max_steps)):
        if value < 0:
            raise GraphError(f"{name} must be >= 0, got {value}")
    cdf, log_step, targets = _step_tables(graph)
    row_lo, row_hi = graph.indptr[:-1], graph.indptr[1:]
    bisections = int(np.diff(graph.indptr).max()).bit_length()
    mask = trunc.frontier_mask
    key0 = _stream_key(seed)

    length = np.full(n, max_steps, dtype=np.int64)
    absorbed_at = np.full(n, -1, dtype=np.int64)
    final_log_p = np.zeros(n)
    ids = np.arange(n)  # the walks still running, in sample order
    cur = np.full(n, x, dtype=np.int32)
    log_p = np.zeros(n)
    steps = []  # steps[s]: vertex after step s + 1 of every walk running then
    for s in range(max_steps if n else 0):
        if s % 4 == 0:
            draws = _philox_uniforms(s // 4 + 1, key0, ids)
        u = draws[s % 4]
        lo, hi = row_lo[cur], row_hi[cur]
        # numpy's searchsorted midpoints; a walk whose search has ended stays
        # put, since its cdf[lo] exceeds u, so every walk takes as many rounds
        # as the longest row needs.
        for _ in range(bisections):
            mid = (lo + hi) >> 1
            right = cdf[mid] > u
            lo = np.where(right, lo, mid + 1)
            hi = np.where(right, mid, hi)
        log_p += log_step[lo]
        cur = targets[lo]
        steps.append(cur)
        done = mask[cur]
        if done.any():
            finished = ids[done]
            length[finished] = s + 1
            absorbed_at[finished] = cur[done]
            final_log_p[finished] = log_p[done]
            running = ~done
            ids, cur, log_p = ids[running], cur[running], log_p[running]
            draws = draws[:, running]
            if len(ids) == 0:
                break
    final_log_p[ids] = log_p

    # Lay the walks end to end, each as its start and its steps; walk i is
    # running at step t + 1 exactly when length[i] > t.
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length + 1, out=offsets[1:])
    flat = np.empty(offsets[-1], dtype=np.int64)
    pos = offsets[:-1]
    flat[pos] = x
    live = length
    for t, step in enumerate(steps):
        if len(step) != len(pos):
            keep = live > t
            pos, live = pos[keep], live[keep]
        pos = pos + 1
        flat[pos] = step
    return PathSamples(int(x), offsets, flat, final_log_p, absorbed_at, length)


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

    def weight_of(self, vertex_index):
        pos = np.nonzero(self.frontier == vertex_index)[0]
        if len(pos) == 0:
            raise GraphError(f"vertex index {vertex_index} is not on the frontier")
        return float(self.weights[pos[0]])


def harmonic_measure_exact(trunc, x):
    """Harmonic measure from x by the adjoint solve: one factorized system.

    h_I = L_II^-1 A_IF f, so evaluating at x against every boundary vector at
    once means solving L_II z = e_x and reading off z^T A_IF, which is A z
    on the frontier.
    """
    graph = trunc.graph
    if not 0 <= x < graph.n or trunc.frontier_mask[x]:
        raise GraphError(f"vertex index {x} is not interior to the truncation")
    e_x = np.zeros(graph.n)
    e_x[x] = 1.0
    z = grounded_solve(graph, trunc.frontier, e_x)
    mu = (graph.adjacency() @ z)[trunc.frontier]
    mu = np.maximum(mu, 0.0)  # clip the solver's negative dust
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
    rather than being reweighted away.
    """
    if not isinstance(trunc, TruncatedGraph):
        raise GraphError("boundary representation needs a truncation")
    h = np.asarray(getattr(h_values, "values", h_values), dtype=float)
    graph = trunc.graph
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
    se = float(contributions.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
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
    base = trunc.graph.base_point
    denom = walk_g.value(base, y)
    if denom == 0.0:
        raise GraphError(
            f"G(base, {trunc.graph.labels[y]!r}) = 0; the ratio is undefined"
        )
    return walk_g.value(x, y) / denom
