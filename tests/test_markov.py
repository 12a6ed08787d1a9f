"""Path sampling, harmonic measure, and the boundary-average representation."""

import dataclasses
import math

import numpy as np
import pytest

from resnet.graphs import ConductanceGraph, GraphError, generate, truncate
from resnet.laplacian import (
    assemble_laplacian,
    harmonic_extension,
    interior_laplacian,
    transition_operator,
)
from resnet.markov import (
    BoundaryEstimate,
    PathSample,
    PathSamples,
    _philox_uniforms,
    _step_tables,
    cylinder_probability,
    estimate_from_samples,
    harmonic_measure_exact,
    martin_kernel,
    measure_z_scores,
    poisson_reproduce,
    sample_paths,
)
from resnet.greens import walk_greens

from conftest import dense_laplacian, per_row_cdf, random_connected_graph


def scalar_sample_paths(trunc, x, n_samples, max_steps, seed):
    """One walk at a time, one `Generator(Philox(key=[seed, i]))` per walk.

    The reference `sample_paths` must reproduce field by field: each step
    draws `rng.random()` and takes the first neighbor whose row CDF exceeds it.
    """
    graph = trunc.graph
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    degrees = graph.degrees
    cdf = per_row_cdf(graph)
    mask = trunc.frontier_mask
    out = []
    for i in range(int(n_samples)):
        rng = np.random.Generator(np.random.Philox(key=[int(seed), i]))
        cur = x
        verts = [x]
        log_p = 0.0
        absorbed = None
        for _ in range(int(max_steps)):
            lo, hi = indptr[cur], indptr[cur + 1]
            u = rng.random()
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


@pytest.mark.parametrize("seed", [0, 4, 5, 2**32 + 7, 2**62, 2**63 - 1, 2**64 - 1])
def test_philox_uniforms_match_numpy_streams(seed):
    ids = np.array([0, 1, 2**32 + 3, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1], dtype=np.uint64)
    blocks = np.concatenate([_philox_uniforms(c, seed, ids) for c in (1, 2, 3, 4)])
    for column, i in enumerate(ids):
        key = np.array([seed, i], dtype=np.uint64)
        expect = np.random.Generator(np.random.Philox(key=key)).random(13)
        assert np.array_equal(blocks[:13, column], expect)


# numpy reads key=[seed, i] through one array, so seed 2**64 - 1 passes
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
    assert estimate_from_samples(trunc, samples).counts.tolist() == [207, 193]


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
    est = harmonic_measure_exact(trunc, 0)
    with pytest.raises(GraphError, match="not on the frontier"):
        est.weight_of(0)


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


def test_martin_kernel_requires_frontier_series():
    trunc = generate("halfline", radius=5)
    wg = walk_greens(trunc, absorb="base")
    with pytest.raises(GraphError, match="frontier"):
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
