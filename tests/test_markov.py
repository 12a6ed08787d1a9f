"""Path sampling, harmonic measure, and the boundary-average representation."""

import dataclasses
import math
import re

import numpy as np
import pytest

from resnet.graphs import (
    ConductanceGraph,
    GraphError,
    as_truncated,
    generate,
    truncate,
    with_frontier,
)
from resnet.laplacian import (
    assemble_laplacian,
    harmonic_extension,
    interior_laplacian,
    transition_operator,
)
from resnet import laplacian
from resnet.energy import gauged
from resnet.markov import (
    BoundaryEstimate,
    PathSample,
    PathSamples,
    _block_draws,
    _harmonic_measures,
    _step_tables,
    _stream,
    cylinder_probability,
    estimate_from_samples,
    harmonic_measure_exact,
    martin_kernel,
    measure_z_scores,
    poisson_reproduce,
    sample_paths,
)
from resnet.greens import walk_greens

from conftest import (
    count_calls,
    dense_laplacian,
    per_row_cdf,
    random_connected_graph,
    single_harmonic_measure,
)


def scalar_sample_paths(trunc, x, n_samples, max_steps, seed):
    """One walk at a time, one numpy generator per block of four steps.

    The reference `sample_paths` must reproduce field by field: step s of
    sample i draws word s % 4 of
    `Generator(Philox(key=[seed, 0], counter=[i, s // 4, 0, 0])).random(4)`
    (numpy steps the counter to (i + 1, s // 4, 0, 0) before its first
    block) and takes the first neighbor whose row CDF exceeds it.
    """
    graph = trunc.graph
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    degrees = graph.degrees
    cdf = per_row_cdf(graph)
    mask = trunc.frontier_mask
    out = []
    for i in range(int(n_samples)):
        cur = x
        verts = [x]
        log_p = 0.0
        absorbed = None
        for s in range(int(max_steps)):
            if s % 4 == 0:
                counter = [i, s // 4, 0, 0]
                block = np.random.Generator(np.random.Philox(key=[int(seed), 0], counter=counter)).random(4)
            lo, hi = indptr[cur], indptr[cur + 1]
            u = block[s % 4]
            k = lo + int(np.searchsorted(cdf[lo:hi], u, side="right"))
            log_p += math.log(weights[k] / degrees[cur])
            cur = int(indices[k])
            verts.append(cur)
            if mask[cur]:
                absorbed = cur
                break
        out.append(PathSample(x, np.array(verts, dtype=np.int64), log_p, absorbed, len(verts) - 1))
    return out


def power_iterate(trunc, boundary_values, n):
    """n steps of u <- P u with the frontier pinned to the boundary data.

    Converges to the harmonic extension as n grows; a slow but independent
    check on the direct interior solve.
    """
    f = np.asarray(boundary_values, dtype=float)
    if f.shape != (len(trunc.frontier),):
        raise GraphError(
            f"expected {len(trunc.frontier)} boundary values, got shape {f.shape}"
        )
    p = transition_operator(trunc.graph)
    h = np.zeros(trunc.graph.n)
    h[trunc.frontier] = f
    for _ in range(int(n)):
        h = p @ h
        h[trunc.frontier] = f
    return h


def shift_invariant_correspondence_demo(trunc, boundary_function, n_samples, seed):
    """Boundary data <-> harmonic functions, both ways.

    Evaluating `boundary_function` at each frontier vertex and extending
    harmonically gives a function killed by the Laplacian on the interior;
    the Monte Carlo mean of the function at the absorption site, seen from
    the base point, recovers its value there.
    """
    f = np.array([float(boundary_function(int(b))) for b in trunc.frontier])
    h = harmonic_extension(trunc, f)
    lap = assemble_laplacian(trunc.graph)
    residual = float(np.max(np.abs(lap.apply(h)[trunc.interior])))
    report = poisson_reproduce(trunc, h, trunc.graph.base_point, n_samples, seed)
    return {
        "values": h,
        "harmonic_residual": residual,
        "base_value": report["point_value"],
        "mc_estimate": report["mc_estimate"],
        "std_error": report["std_error"],
        "unabsorbed": report["unabsorbed"],
    }


def exact_measure_oracle(trunc, x):
    """Dense absorbing-chain solve, independent of the package's sparse route."""
    lap = dense_laplacian(trunc.graph)
    interior, frontier = list(trunc.interior), list(trunc.frontier)
    z = np.linalg.solve(
        lap[np.ix_(interior, interior)],
        np.eye(len(interior))[interior.index(x)],
    )
    a_if = -lap[np.ix_(interior, frontier)]
    return a_if.T @ z


def adjoint_measure_oracle(trunc, x):
    """The sparse adjoint solve on the interior block, read through a dense A_IF.

    This is the route harmonic_measure_exact took before it read A z on the
    frontier through the shared grounded solve.
    """
    _, lu = interior_laplacian(trunc)
    rhs = np.zeros(len(trunc.interior))
    rhs[list(trunc.interior).index(x)] = 1.0
    a_if = trunc.graph.adjacency()[trunc.interior][:, trunc.frontier].toarray()
    return np.maximum(a_if.T @ lu.solve(rhs), 0.0)


def test_cylinder_probability_by_hand():
    g = generate("wye").graph  # a -1- m -2- b
    a, m, b = g.index_of("a"), g.index_of("m"), g.index_of("b")
    assert cylinder_probability(g, [a]) == 1.0
    assert cylinder_probability(g, [a, m]) == pytest.approx(1.0)
    assert cylinder_probability(g, [a, m, b]) == pytest.approx(2.0 / 3.0)
    assert cylinder_probability(g, [m, a]) == pytest.approx(1.0 / 3.0)


def test_walk_entry_points_reject_a_non_integer_vertex():
    trunc = generate("halfline", radius=3)
    g = trunc.graph
    for word in ([0, 1.7], [1.0, 2], ["1"]):  # int() would read 1.7 as 1
        with pytest.raises(GraphError, match="is not an integer"):
            cylinder_probability(g, word)
    assert cylinder_probability(g, [np.int64(0), np.int32(1)]) == cylinder_probability(g, [0, 1])
    for x in (1.5, 1.0, None):
        with pytest.raises(GraphError, match=re.escape(f"vertex index {x!r} is not an integer")):
            sample_paths(trunc, x, 1, 10, seed=0)
        with pytest.raises(GraphError, match="is not an integer"):
            harmonic_measure_exact(trunc, x)


def test_cylinder_guards():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 0)
    with pytest.raises(GraphError, match="at least"):
        cylinder_probability(g, [])
    with pytest.raises(GraphError, match="out of range"):
        cylinder_probability(g, [0, 3])
    with pytest.raises(GraphError, match="non-adjacent"):
        cylinder_probability(g, [0, 2])


def test_cylinder_mass_is_conserved(rng):
    g = random_connected_graph(rng, 7, 4)

    def total(word, remaining):
        if remaining == 0:
            return cylinder_probability(g, word)
        nbrs, _ = g.neighbors(word[-1])
        return sum(total(word + [int(y)], remaining - 1) for y in nbrs)

    for start in (0, 3):
        assert total([start], 4) == pytest.approx(1.0)


def test_sample_paths_are_seed_deterministic_and_order_free():
    trunc = generate("comb", radius=3)
    a = sample_paths(trunc, trunc.graph.base_point, 6, 500, seed=11)
    b = sample_paths(trunc, trunc.graph.base_point, 6, 500, seed=11)
    longer = sample_paths(trunc, trunc.graph.base_point, 12, 500, seed=11)
    for s, t, l in zip(a, b, longer):
        assert np.array_equal(s.vertices, t.vertices)
        assert np.array_equal(s.vertices, l.vertices)
    other = sample_paths(trunc, trunc.graph.base_point, 6, 500, seed=12)
    assert any(not np.array_equal(s.vertices, t.vertices) for s, t in zip(a, other))


def test_sample_path_fields_are_consistent():
    trunc = generate("halfline", radius=4)
    for s in sample_paths(trunc, 0, 20, 2000, seed=3):
        assert s.start == 0
        assert s.absorbed_at is not None
        assert s.vertices[-1] == s.absorbed_at
        assert trunc.frontier_mask[s.absorbed_at]
        assert s.length == len(s.vertices) - 1
        assert s.log_probability <= 0.0
        # absorption ends the walk: no frontier vertex appears earlier
        assert not trunc.frontier_mask[s.vertices[:-1]].any()


def test_sample_paths_report_unabsorbed_honestly():
    trunc = generate("lattice", radius=4, d=2)
    starved = sample_paths(trunc, trunc.graph.base_point, 30, 1, seed=0)
    hungry = [s for s in starved if s.absorbed_at is None]
    assert len(hungry) > 0
    assert all(s.length == 1 for s in hungry)


# numpy reads key=[seed, 0] through one array, so seed 2**64 - 1 passes
# through float64 and warns about the cast; both sides read it the same way.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 4, 5, 2**32 + 7, 2**62, 2**63 - 1, 2**64 - 1, -7])
def test_philox_uniforms_match_numpy_streams(seed):
    # row i of block t is what numpy's Philox under key=[seed, 0] draws
    # first from counter (i, t, 0, 0), as `Generator.random()` converts it
    for ids in ([0, 1, 2, 5, 9], [2**32 + 3, 2**32 + 7], [2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1]):
        ids = np.array(ids, dtype=np.uint64)
        bitgen = _stream(seed)
        state = bitgen.state
        for t in (0, 1, 6, 2**40):
            blocks = _block_draws(bitgen, state, t, ids)
            assert blocks.shape == (len(ids), 4)
            for i, row in zip(ids.tolist(), blocks):
                # a list would pass a counter word at or above 2**63 through float64
                counter = np.array([i, t, 0, 0], dtype=np.uint64)
                expect = np.random.Generator(np.random.Philox(key=[seed, 0], counter=counter)).random(4)
                assert np.array_equal(row, expect)


@pytest.mark.parametrize("seed", [2**64 + 5, -(2**63) - 1, 2**200])
def test_sample_paths_refuse_a_seed_outside_the_key_range(seed):
    # numpy reads a key word from [-2^63, 2^64); past either end it raised a
    # bare OverflowError
    trunc = generate("lattice", radius=3)
    with pytest.raises(GraphError, match=re.escape(f"seed {seed} is outside [-2^63, 2^64)")):
        sample_paths(trunc, trunc.graph.base_point, 5, 10, seed)


# numpy reads key=[seed, 0] through one array, so seed 2**64 - 1 passes
# through float64 and warns about the cast; both sides read it the same way.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize(
    "trunc, start, n, max_steps, seed",
    [
        (generate("lattice", radius=6), None, 200, 700, 3),
        (generate("lattice", radius=6), 5, 200, 1, 2**64 - 1),
        (generate("comb", radius=5), None, 200, 400, -7),
        (generate("comb", radius=5), 3, 100, 1, 2**63 + 5),
        (generate("binary-tree", radius=4), None, 200, 500, 2**32 + 7),
        (generate("binary-tree", radius=4), None, 100, 1, 0),
        (generate("binary-tree", radius=3), None, 40, 0, 1),  # no step taken
        (generate("chain", width=9, growth=1.0), None, 0, 100, 4),  # an empty batch
        (generate("lattice", radius=6), 5, 200, 9, -(2**63)),  # the key range's lower end
    ],
)
def test_sample_paths_equal_scalar_oracle(trunc, start, n, max_steps, seed):
    x = trunc.graph.base_point if start is None else start
    got = sample_paths(trunc, x, n, max_steps, seed)
    want = scalar_sample_paths(trunc, x, n, max_steps, seed)
    assert len(got) == len(want) == n
    for g, w in zip(got, want):
        assert g.start == w.start
        assert g.vertices.dtype == w.vertices.dtype
        assert np.array_equal(g.vertices, w.vertices)
        assert g.log_probability == w.log_probability
        assert g.absorbed_at == w.absorbed_at
        assert g.length == w.length
    # the batch's own arrays, as the array readers see them
    assert isinstance(got, PathSamples) and got.start == x
    assert got.offsets.dtype == got.vertices.dtype == np.int64
    assert got.offsets.tolist() == np.cumsum([0] + [len(w.vertices) for w in want]).tolist()
    assert got.vertices.tolist() == [int(v) for w in want for v in w.vertices]
    assert got.log_probability.dtype == np.float64
    assert got.log_probability.tolist() == [w.log_probability for w in want]
    assert got.absorbed_at.dtype == got.length.dtype == np.int64
    assert got.absorbed_at.tolist() == [-1 if w.absorbed_at is None else w.absorbed_at for w in want]
    assert got.length.tolist() == [w.length for w in want]
    if n and max_steps <= 1:
        assert any(s.absorbed_at is None for s in got)


def assert_same_walks(got, want):
    assert got.vertices.tolist() == [int(v) for w in want for v in w.vertices]
    assert got.log_probability.tolist() == [w.log_probability for w in want]
    assert got.absorbed_at.tolist() == [-1 if w.absorbed_at is None else w.absorbed_at for w in want]
    assert got.length.tolist() == [w.length for w in want]


@pytest.mark.parametrize("max_steps", [1, 5, 6, 7, 300])
@pytest.mark.parametrize("draw_columns", [1, 3, 7, 64])
def test_sample_paths_equal_scalar_oracle_for_any_draw_block(draw_columns, max_steps):
    # a draw block spans the index range of the walks running at its step,
    # all `draw_columns` walks at step 0; the walks must depend neither on
    # that width nor on where max_steps cuts the last block
    for trunc, seed in ((generate("comb", radius=4), 5), (generate("lattice", radius=4), 2**63 + 9)):
        x = trunc.graph.base_point
        assert_same_walks(
            sample_paths(trunc, x, draw_columns, max_steps, seed),
            scalar_sample_paths(trunc, x, draw_columns, max_steps, seed),
        )


@pytest.mark.parametrize("n, max_steps", [(100, 500), (30, 500), (30, 9), (5, 3000)])
def test_draw_blocks_cover_the_running_walks_up_to_max_steps(n, max_steps, monkeypatch):
    # block t, steps 4t ... 4t + 3, is one run of the generator over the index
    # range of the walks running at step 4t, drawn once and only while
    # 4t < max_steps; walk i is running at step s when length[i] > s
    calls = []

    class Recording(np.random.Philox):
        def random_raw(self, size=None, output=True):
            calls.append((self.state["state"]["counter"].tolist(), size))
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", Recording)
    trunc = generate("chain", width=12, growth=1.0)
    batch = sample_paths(trunc, trunc.graph.base_point, n, max_steps, seed=1)
    expect = []
    for t in range(-(-max_steps // 4)):
        running = np.flatnonzero(batch.length > 4 * t)
        if len(running):
            expect.append(([running[0], t, 0, 0], 4 * (running[-1] + 1 - running[0])))
    assert calls == expect
    if max_steps >= 500:
        assert calls[-1][1] < 4 * n  # the range narrows as walks finish


def _hub_with_ties(rng, degree):
    """A hub of `degree` leaves with frontier leaves every fifth, the leaves
    joined in a path.  Weights of 1e-20 beside weights of order 1 leave runs
    of equal row-CDF entries, some of them 1.0 before a row's last entry."""
    weights = rng.choice([1e-20, 0.5, 1.0, 3.0], size=degree, p=[0.3, 0.3, 0.2, 0.2])
    edges = [(0, i + 1, float(w)) for i, w in enumerate(weights)]
    edges += [(i, i + 1, float(w)) for i, w in zip(range(1, degree), rng.choice([1e-20, 1.0], degree - 1))]
    graph = ConductanceGraph.from_edges(edges, 0)
    return with_frontier(graph, range(5, degree + 1, 5))


@pytest.mark.parametrize("degree", [37, 38])
def test_sample_paths_equal_scalar_oracle_on_a_hub_with_ties(degree, rng):
    trunc = _hub_with_ties(rng, degree)
    graph = trunc.graph
    assert np.diff(graph.indptr).max() == degree
    cdf, _, _ = _step_tables(graph)
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    early = (cdf == 1.0) & (np.arange(len(cdf)) != graph.indptr[rows + 1] - 1)
    assert early.any()  # a row's CDF reaches 1.0 before its last entry
    for x in (graph.base_point, graph.index_of(1)):
        assert_same_walks(
            sample_paths(trunc, x, 300, 60, seed=degree),
            scalar_sample_paths(trunc, x, 300, 60, seed=degree),
        )


def test_path_layout_is_built_once_on_first_read():
    trunc = generate("comb", radius=4)
    batch = sample_paths(trunc, trunc.graph.base_point, 40, 30, seed=6)
    assert "_layout" not in vars(batch)
    offsets = batch.offsets
    assert "_layout" in vars(batch)
    assert batch.offsets is offsets and batch.vertices is batch.vertices
    assert offsets[-1] == len(batch.vertices) == int((batch.length + 1).sum())


def test_estimate_and_poisson_lay_out_no_path(rng, monkeypatch):
    def refuse(self):
        raise AssertionError("the paths were laid out")

    monkeypatch.setattr(PathSamples, "_layout", property(refuse))
    trunc = generate("comb", radius=3)
    samples = sample_paths(trunc, trunc.graph.base_point, 200, 50, seed=2)
    assert estimate_from_samples(trunc, samples).total_samples == 200
    h = harmonic_extension(trunc, rng.uniform(0.0, 2.0, size=len(trunc.frontier)))
    assert poisson_reproduce(trunc, h, trunc.graph.base_point, 200, seed=5)["n_samples"] == 200


def test_path_samples_index_like_a_list():
    trunc = generate("comb", radius=4)
    batch = sample_paths(trunc, trunc.graph.base_point, 30, 5, seed=2)
    walks = list(batch)
    assert len(walks) == 30
    for i in (0, 7, 29, -1, -30):
        w, v = batch[i], walks[i]
        assert (w.start, w.log_probability, w.absorbed_at, w.length) == (
            v.start, v.log_probability, v.absorbed_at, v.length
        )
        assert np.array_equal(w.vertices, v.vertices)
    for i in (30, -31):
        with pytest.raises(IndexError):
            batch[i]


@pytest.mark.parametrize("name, args", [("n_samples", (-3, 10)), ("max_steps", (5, -1))])
def test_sample_paths_reject_negative_counts(name, args):
    trunc = generate("halfline", radius=3)
    with pytest.raises(GraphError, match=f"{name} must be >= 0"):
        sample_paths(trunc, 0, *args, seed=0)


@pytest.mark.parametrize("value", [2.5, 3.0, "3", None, float("nan"), float("inf"), np.float64(2.0)])
@pytest.mark.parametrize("name", ["n_samples", "max_steps", "seed"])
def test_sample_paths_read_counts_and_seed_as_integers(name, value):
    # int() used to read 2.5 as 2 and "3" as 3, and to raise a raw error on
    # NaN, inf and None
    trunc = generate("lattice", radius=3)
    args = {"n_samples": 5, "max_steps": 10, "seed": 0, name: value}
    with pytest.raises(GraphError, match=re.escape(f"{name} {value!r} is not an integer")):
        sample_paths(trunc, trunc.graph.base_point, **args)
    if name == "n_samples":
        h = harmonic_extension(trunc, np.ones(len(trunc.frontier)))
        with pytest.raises(GraphError, match="n_samples .* is not an integer"):
            poisson_reproduce(trunc, h, trunc.graph.base_point, value, seed=0)


def test_sample_paths_take_numpy_integers():
    trunc = generate("lattice", radius=3)
    x = trunc.graph.base_point
    want = sample_paths(trunc, x, 5, 10, seed=3)
    got = sample_paths(trunc, x, np.int64(5), np.uint8(10), seed=np.int32(3))
    assert got.absorbed_at.tolist() == want.absorbed_at.tolist()
    assert got.length.tolist() == want.length.tolist()


def _star(rng, leaves):
    weights = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=leaves))
    return ConductanceGraph.from_edges([(0, i + 1, float(w)) for i, w in enumerate(weights)], 0)


def test_step_table_cdf_equals_per_row_cumsum(rng):
    graphs = [
        generate("bratteli", level_sizes=[1, 3, 5, 7, 9], level_weights=[1, 2, 4, 8]).graph,
        generate("bratteli", level_sizes=[2, 7, 3], level_weights=[0.3, 11.0]).graph,
        _star(rng, 500),
        random_connected_graph(rng, 40, 60),
        generate("lattice", radius=8).graph,
    ]
    for g in graphs:
        cdf, _, _ = _step_tables(g)
        assert cdf.tobytes() == per_row_cdf(g).tobytes()


def test_readme_walk_example_counts():
    trunc = generate("chain", width=9, growth=1.0)
    samples = sample_paths(trunc, trunc.graph.base_point, 400, 100 * trunc.graph.n, seed=4)
    assert estimate_from_samples(trunc, samples).counts.tolist() == [195, 205]


def test_estimate_from_samples_counts_each_end():
    trunc = generate("comb", radius=4)
    samples = sample_paths(trunc, trunc.graph.base_point, 300, 6, seed=1)
    est = estimate_from_samples(trunc, samples)
    ends = [s.absorbed_at for s in samples]
    assert est.counts.tolist() == [ends.count(int(b)) for b in trunc.frontier]
    assert est.unabsorbed == ends.count(None) > 0
    assert est.total_samples == 300
    stray_ends = samples.absorbed_at.copy()
    stray_ends[ends.index(None)] = int(trunc.interior[1])
    stray = dataclasses.replace(samples, absorbed_at=stray_ends)
    with pytest.raises(GraphError, match="off the frontier"):
        estimate_from_samples(trunc, stray)


def test_estimate_from_samples_rejects_a_batch_of_another_graph():
    # the lattice batch used to read as 50 of 50 hits on the comb
    comb, lattice = generate("comb", radius=3), generate("lattice", radius=3)
    samples = sample_paths(lattice, lattice.graph.base_point, 50, 500, seed=1)
    with pytest.raises(GraphError, match="samples were drawn on a different graph"):
        estimate_from_samples(comb, samples)
    assert estimate_from_samples(lattice, samples).total_samples == 50


def test_sample_paths_guards(rng):
    g = random_connected_graph(rng, 5)
    with pytest.raises(GraphError, match="truncation"):
        sample_paths(g, 0, 1, 10, seed=0)
    finite = generate("wye")
    with pytest.raises(GraphError, match="empty frontier"):
        sample_paths(finite, 0, 1, 10, seed=0)
    trunc = generate("halfline", radius=3)
    with pytest.raises(GraphError, match="out of range"):
        sample_paths(trunc, 99, 1, 10, seed=0)
    with pytest.raises(GraphError, match="frontier"):
        sample_paths(trunc, 3, 1, 10, seed=0)


def test_power_iterate_converges_to_harmonic_extension(rng):
    trunc = generate("comb", radius=3)
    f = rng.uniform(-1.0, 1.0, size=len(trunc.frontier))
    slow = power_iterate(trunc, f, 4000)
    direct = harmonic_extension(trunc, f)
    assert np.allclose(slow, direct, atol=1e-9)
    with pytest.raises(GraphError, match="boundary values"):
        power_iterate(trunc, f[:-1], 5)


def test_exact_measure_matches_dense_oracle():
    for trunc in [generate("comb", radius=4), generate("binary-tree", radius=4)]:
        x = trunc.graph.base_point
        est = harmonic_measure_exact(trunc, x)
        assert est.kind == "exact"
        assert np.allclose(est.weights, exact_measure_oracle(trunc, x), atol=1e-10)
        assert est.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(est.weights >= 0.0)


@pytest.mark.parametrize(
    "family,radius", [("lattice", 6), ("comb", 6), ("binary-tree", 5)]
)
def test_exact_measure_matches_the_adjoint_interior_solve(family, radius):
    trunc = generate(family, radius=radius)
    for x in trunc.interior[:: max(1, len(trunc.interior) // 8)]:
        mu = harmonic_measure_exact(trunc, int(x)).weights
        expected = adjoint_measure_oracle(trunc, int(x))
        assert np.max(np.abs(mu - expected)) <= 1e-15 * np.max(expected)


def test_exact_measure_needs_interior_start():
    trunc = generate("halfline", radius=3)
    for x in (int(trunc.frontier[0]), -1, trunc.graph.n):
        with pytest.raises(GraphError, match="not interior"):
            harmonic_measure_exact(trunc, x)


def test_exact_measure_needs_a_nonempty_frontier():
    with pytest.raises(GraphError, match="needs a truncation"):
        harmonic_measure_exact(generate("halfline", radius=3).graph, 0)
    with pytest.raises(GraphError, match="empty frontier"):
        harmonic_measure_exact(as_truncated(generate("halfline", radius=3).graph), 0)
    with pytest.raises(GraphError, match="empty frontier"):
        harmonic_measure_exact(generate("wye"), 0)


MEASURE_GRAPHS = {
    "lattice-12": lambda: generate("lattice", radius=12),
    "lattice-20": lambda: generate("lattice", radius=20),
    "lattice-40": lambda: generate("lattice", radius=40),
    "comb-10": lambda: generate("comb", radius=10),
    "binary-tree-7": lambda: generate("binary-tree", radius=7),
    "chain-60": lambda: generate("chain", width=60),
    "halfline-32": lambda: generate("halfline", radius=32),
}


@pytest.mark.parametrize("case", sorted(MEASURE_GRAPHS))
def test_block_measures_equal_the_single_solves(case):
    trunc = MEASURE_GRAPHS[case]()
    points = [int(x) for x in trunc.interior[::15]] + [trunc.graph.base_point]
    block = _harmonic_measures(trunc, points)
    assert block.shape == (len(points), len(trunc.frontier))
    for x, row in zip(points, block):
        single = single_harmonic_measure(trunc, x)
        assert row.tobytes() == single.tobytes()
    for x in points[:3]:
        weights = harmonic_measure_exact(trunc, x).weights
        assert weights.tobytes() == single_harmonic_measure(trunc, x).tobytes()


def test_harmonic_measure_exact_makes_one_frontier_solve(monkeypatch):
    trunc = generate("comb", radius=5)
    calls = count_calls(
        monkeypatch, laplacian, ["grounded_solve"],
        where=lambda g, ground, rhs: np.array_equal(ground, trunc.frontier),
    )
    harmonic_measure_exact(trunc, int(trunc.interior[3]))
    assert calls == {"grounded_solve": 1}


def test_count_calls_sees_every_binding_on_a_second_count(monkeypatch):
    trunc = generate("comb", radius=5)
    every = count_calls(monkeypatch, laplacian, ["grounded_solve"])
    frontier = count_calls(
        monkeypatch, laplacian, ["grounded_solve"],
        where=lambda g, ground, rhs: np.array_equal(ground, trunc.frontier),
    )
    harmonic_measure_exact(trunc, int(trunc.interior[3]))  # calls through markov's binding
    assert every == frontier == {"grounded_solve": 1}


@pytest.mark.parametrize("case", sorted(MEASURE_GRAPHS))
def test_harmonic_measure_exact_solves_one_start_as_a_vector(case, monkeypatch):
    trunc = MEASURE_GRAPHS[case]()
    graph, x = trunc.graph, int(trunc.interior[len(trunc.interior) // 2])
    # the (n, 1) block route the single measure took before
    e = np.zeros((graph.n, 1))
    e[x, 0] = 1.0
    z = laplacian.grounded_solve(graph, trunc.frontier, e)
    block = np.maximum((graph.adjacency() @ z)[trunc.frontier].T, 0.0, order="C")[0]
    shapes = []
    count_calls(monkeypatch, laplacian, ["grounded_solve"],
                where=lambda g, ground, rhs: shapes.append(rhs.shape))
    assert harmonic_measure_exact(trunc, x).weights.tobytes() == block.tobytes()
    assert shapes == [(graph.n,)]


def test_sampled_measure_agrees_with_exact():
    trunc = generate("chain", width=9, growth=1.0)
    x = trunc.graph.base_point
    samples = sample_paths(trunc, x, 4000, 5000, seed=7)
    sampled = estimate_from_samples(trunc, samples)
    assert sampled.kind == "monte-carlo"
    assert sampled.unabsorbed == 0
    assert int(sampled.counts.sum()) == sampled.total_samples
    exact = harmonic_measure_exact(trunc, x)
    z = measure_z_scores(sampled, exact)
    assert np.max(np.abs(z)) < 4.0


def test_measure_z_scores_reject_estimates_of_another_graph():
    sampled_on = generate("chain", width=10)
    samples = sample_paths(sampled_on, sampled_on.graph.base_point, 200, 5000, seed=3)
    sampled = estimate_from_samples(sampled_on, samples)
    exact_on = generate("chain", width=12)
    exact = harmonic_measure_exact(exact_on, exact_on.graph.base_point)
    with pytest.raises(GraphError, match="different graph"):
        measure_z_scores(sampled, exact)


def test_measure_z_scores_handle_degenerate_components():
    frontier = np.array([3, 4])
    exact = BoundaryEstimate(frontier, np.array([1.0, 0.0]), None, 0, 0, None, "exact")
    agree = BoundaryEstimate(
        frontier, np.array([1.0, 0.0]), np.array([10, 0]), 10, 0, None, "monte-carlo"
    )
    disagree = BoundaryEstimate(
        frontier, np.array([0.9, 0.1]), np.array([9, 1]), 10, 0, None, "monte-carlo"
    )
    assert np.array_equal(measure_z_scores(agree, exact), [0.0, 0.0])
    assert np.all(np.isinf(measure_z_scores(disagree, exact)))
    # an exact weight that rounds past 1 is still a certain hit
    over = BoundaryEstimate(frontier, np.array([1.0 + 2.0**-52, 0.0]), None, 0, 0, None, "exact")
    with np.errstate(all="raise"):
        assert np.array_equal(measure_z_scores(agree, over), [0.0, 0.0])
    empty = BoundaryEstimate(frontier, np.zeros(2), np.zeros(2, int), 0, 0, None, "monte-carlo")
    with pytest.raises(GraphError, match="no samples"):
        measure_z_scores(empty, exact)


def test_poisson_reproduce_harmonic_input(rng):
    trunc = generate("comb", radius=3)
    h = harmonic_extension(trunc, rng.uniform(0.0, 2.0, size=len(trunc.frontier)))
    report = poisson_reproduce(trunc, h, trunc.graph.base_point, 1500, seed=5)
    assert report["point_value"] == pytest.approx(report["exact_measure_value"], abs=1e-10)
    slack = 4.0 * report["std_error"] + 1e-12
    assert abs(report["mc_estimate"] - report["point_value"]) <= slack
    assert report["unabsorbed"] == 0
    assert report["harmonic_residual"] < 1e-10


def test_poisson_reproduce_rejects_non_harmonic(rng):
    trunc = generate("comb", radius=3)
    bumpy = rng.standard_normal(trunc.graph.n)
    with pytest.raises(GraphError, match="not harmonic"):
        poisson_reproduce(trunc, bumpy, trunc.graph.base_point, 10, seed=0)


def test_poisson_reproduce_rejects_a_function_of_another_graph():
    trunc = generate("halfline", radius=6)
    other = generate("halfline", radius=6, growth=2.0)
    h = gauged(other.graph, np.ones(other.graph.n))  # harmonic on either graph
    with pytest.raises(GraphError, match="different graph"):
        poisson_reproduce(trunc, h, trunc.graph.base_point, 10, seed=0)


def test_poisson_reproduce_rejects_a_wrongly_shaped_function():
    trunc = generate("comb", radius=3)
    n = trunc.graph.n
    for shape in [(n - 1,), (n, 1), ()]:
        with pytest.raises(GraphError, match=rf"expected {n} vertex values, got shape"):
            poisson_reproduce(trunc, np.zeros(shape), trunc.graph.base_point, 10, seed=0)


def test_poisson_reproduce_needs_a_nonempty_frontier():
    with pytest.raises(GraphError, match="boundary representation needs a truncation"):
        poisson_reproduce(generate("wye").graph, np.zeros(3), 0, 10, seed=0)
    with pytest.raises(GraphError, match="empty frontier"):
        poisson_reproduce(generate("wye"), np.zeros(3), 0, 10, seed=0)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_poisson_reproduce_needs_two_samples(rng, n_samples):
    # one sample has no spread to measure and zero samples no mean; a
    # std_error of 0.0 would claim an exact estimate
    trunc = generate("comb", radius=3)
    h = harmonic_extension(trunc, np.ones(len(trunc.frontier)))
    with pytest.raises(GraphError, match=f"at least 2 .*got {n_samples}$"):
        poisson_reproduce(trunc, h, trunc.graph.base_point, n_samples, seed=0)


def test_martin_kernel_matches_dense_ratio():
    trunc = generate("halfline", radius=5)
    wg = walk_greens(trunc, absorb="frontier", tail_tol=1e-12)
    interior = list(trunc.interior)
    lap = dense_laplacian(trunc.graph)[np.ix_(interior, interior)]
    deg = np.asarray(trunc.graph.degrees)[interior]
    # visit counts = (I - P_II)^-1 = L_II^-1 D_I
    counts = np.linalg.inv(lap) @ np.diag(deg)
    base = trunc.graph.base_point
    x, y = 2, 3
    expect = counts[interior.index(x), interior.index(y)] / counts[
        interior.index(base), interior.index(y)
    ]
    assert martin_kernel(trunc, wg, x, y) == pytest.approx(expect, rel=1e-8)


def test_martin_kernel_with_no_walk_from_the_base_to_y_is_undefined():
    # the frontier {2} cuts the path 0-4, so no absorbed walk from 0 reaches 3
    g = ConductanceGraph.from_edges([(k, k + 1, 1.0) for k in range(4)], 0)
    trunc = with_frontier(g, [2])
    wg = walk_greens(trunc, absorb="frontier")
    with pytest.raises(GraphError, match=r"G\(base, 3\) = 0; the ratio is undefined"):
        martin_kernel(trunc, wg, 1, 3)


def test_martin_kernel_requires_frontier_series():
    trunc = generate("halfline", radius=5)
    wg = walk_greens(trunc, absorb="base")
    with pytest.raises(GraphError, match="frontier"):
        martin_kernel(trunc, wg, 1, 2)


def test_martin_kernel_rejects_a_series_of_another_graph():
    trunc = generate("halfline", radius=5)
    other = generate("halfline", radius=5, growth=2.0)
    wg = walk_greens(other, absorb="frontier", tail_tol=1e-12)
    with pytest.raises(GraphError, match="different graph"):
        martin_kernel(trunc, wg, 1, 2)


def test_correspondence_demo_round_trip():
    trunc = generate("binary-tree", radius=4)
    labels = trunc.graph.labels
    plus_side = lambda idx: 1.0 if str(labels[idx]).startswith("+") else 0.0
    report = shift_invariant_correspondence_demo(trunc, plus_side, n_samples=1500, seed=2)
    assert report["harmonic_residual"] < 1e-10
    f = np.array([plus_side(int(b)) for b in trunc.frontier])
    assert np.allclose(report["values"][trunc.frontier], f)
    slack = 5.0 * report["std_error"] + 1e-3
    assert abs(report["mc_estimate"] - report["base_value"]) <= slack
    assert report["unabsorbed"] == 0
