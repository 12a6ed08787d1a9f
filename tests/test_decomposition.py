"""Orthogonal splitting, kernel projection, interpolation, energy bookkeeping."""

import numpy as np
import pytest

from resnet import laplacian
from resnet.energy import energy_inner, gauged
from resnet.graphs import GraphError, as_truncated, generate, truncate
from resnet.greens import greens_gram, walk_greens
from resnet.decomposition import (
    energy_split,
    energy_splits,
    interpolate,
    project_finite,
    royden_split,
)
from resnet.laplacian import assemble_laplacian, harmonic_extension
from resnet.markov import harmonic_measure_exact, poisson_reproduce, sample_paths

from conftest import (
    count_calls,
    parent_interpolate,
    parent_project_finite,
    parent_royden_split,
    random_connected_graph,
    vector_energy_inner,
)


def lattice_case(rng):
    trunc = generate("lattice", radius=3, d=2)
    f = rng.standard_normal(trunc.graph.n)
    return trunc, f


def test_split_reassembles_and_is_orthogonal(rng):
    trunc, f = lattice_case(rng)
    split = royden_split(trunc, f)
    total = gauged(trunc.graph, f)
    assert np.allclose(
        split.finite_part.values + split.harmonic_part.values, total.values
    )
    assert split.orthogonality_residual < 1e-10
    assert abs(energy_inner(split.finite_part, split.harmonic_part)) < 1e-10
    # the finite part carries no boundary data (up to the shared gauge shift)
    boundary_vals = split.finite_part.values[trunc.frontier]
    assert np.allclose(boundary_vals, boundary_vals[0])
    # the harmonic part is killed by the Laplacian inside
    from resnet.laplacian import assemble_laplacian

    lap = assemble_laplacian(trunc.graph).apply(split.harmonic_part.values)
    assert np.max(np.abs(lap[trunc.interior])) < 1e-10


def test_split_pythagoras(rng):
    trunc, f = lattice_case(rng)
    split = royden_split(trunc, f)
    total = gauged(trunc.graph, f).energy
    parts = split.finite_part.energy + split.harmonic_part.energy
    assert parts == pytest.approx(total, rel=1e-10)


def test_split_with_empty_frontier_is_all_finite(rng):
    g = random_connected_graph(rng, 8, 4)
    trunc = truncate(g, 99)
    assert len(trunc.frontier) == 0
    f = rng.standard_normal(8)
    split = royden_split(trunc, f)
    assert np.allclose(split.harmonic_part.values, 0.0)
    assert np.allclose(split.finite_part.values, gauged(g, f).values)


def test_split_requires_truncation(rng):
    g = random_connected_graph(rng, 6)
    with pytest.raises(GraphError, match="truncation"):
        royden_split(g, np.zeros(6))
    trunc = truncate(g, 2)
    with pytest.raises(GraphError, match="different graph"):
        royden_split(trunc, gauged(random_connected_graph(rng, 6), np.zeros(6)))


def test_project_finite_agrees_with_split(rng):
    trunc, f = lattice_case(rng)
    kernel = greens_gram(trunc.graph, tol=1e-13)
    via_kernel = project_finite(trunc, kernel, f)
    via_split = royden_split(trunc, f).finite_part
    assert np.allclose(via_kernel.values, via_split.values, atol=1e-8)


def test_project_finite_accepts_walk_kernel(rng):
    trunc = generate("comb", radius=3)
    f = rng.standard_normal(trunc.graph.n)
    kernel = walk_greens(trunc, tail_tol=1e-13, absorb="base").to_kernel()
    via_kernel = project_finite(trunc, kernel, f)
    via_split = royden_split(trunc, f).finite_part
    assert np.allclose(via_kernel.values, via_split.values, atol=1e-7)


def test_project_finite_rejects_partial_kernel(rng):
    trunc = generate("comb", radius=3)
    frontier_kernel = walk_greens(trunc, absorb="frontier").to_kernel()
    with pytest.raises(GraphError, match="except the base point"):
        project_finite(trunc, frontier_kernel, np.zeros(trunc.graph.n))


def test_interpolation_reconstructs_pointwise(rng):
    trunc, f = lattice_case(rng)
    kernel = greens_gram(trunc.graph, tol=1e-13)
    gauged_f = gauged(trunc.graph, f)
    for x in map(int, trunc.interior):
        report = interpolate(trunc, kernel, f, x)
        assert report["residual"] < 1e-8
        assert report["value"] == pytest.approx(
            float(gauged_f.values[x]), abs=1e-8
        )
    at_base = interpolate(trunc, kernel, f, trunc.graph.base_point)
    assert at_base["green_term"] == 0.0
    assert at_base["residual"] < 1e-10


def test_interpolation_guards(rng):
    trunc, f = lattice_case(rng)
    kernel = greens_gram(trunc.graph, tol=1e-13)
    with pytest.raises(GraphError, match="interior"):
        interpolate(trunc, kernel, f, int(trunc.frontier[0]))
    with pytest.raises(GraphError, match="out of range"):
        interpolate(trunc, kernel, f, trunc.graph.n)


def test_interpolation_rejects_a_non_integer_point(rng):
    trunc, f = lattice_case(rng)
    kernel = greens_gram(trunc.graph, tol=1e-13)
    x = int(trunc.interior[1])
    for point in (x + 0.5, float(x), str(x)):
        with pytest.raises(GraphError, match="is not an integer"):
            interpolate(trunc, kernel, f, point)
    assert interpolate(trunc, kernel, f, np.int64(x)) == interpolate(trunc, kernel, f, x)


def test_kernel_routes_reject_a_kernel_of_another_graph():
    trunc = generate("halfline", radius=6)
    other = greens_gram(generate("halfline", radius=6, growth=2.0).graph, tol=1e-13)
    f = np.linspace(0.0, 1.0, trunc.graph.n)
    with pytest.raises(GraphError, match="different graph"):
        project_finite(trunc, other, f)
    with pytest.raises(GraphError, match="different graph"):
        interpolate(trunc, other, f, 2)


PARITY_CASES = {
    "lattice-6": lambda: generate("lattice", radius=6),
    "comb-8": lambda: generate("comb", radius=8),
    "binary-tree-6": lambda: generate("binary-tree", radius=6),
    "chain-30": lambda: generate("chain", width=30),
    "halfline-16": lambda: generate("halfline", radius=16),
    "no-frontier": lambda: as_truncated(generate("lattice", radius=4).graph),
}


def _same_bits(u, v):
    return u.graph is v.graph and u.values.tobytes() == v.values.tobytes()


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_split_routes_equal_the_parent_bodies(case):
    trunc = PARITY_CASES[case]()
    graph = trunc.graph
    kernel = greens_gram(graph, tol=1e-13)
    rng = np.random.default_rng(23)
    for raw in rng.standard_normal((3, graph.n)):
        for f in (raw, gauged(graph, raw)):
            got, want = royden_split(trunc, f), parent_royden_split(trunc, f)
            assert got.values.tobytes() == want.values.tobytes()
            assert _same_bits(got.finite_part, want.finite_part)
            assert _same_bits(got.harmonic_part, want.harmonic_part)
            assert got.orthogonality_residual == want.orthogonality_residual
            assert _same_bits(project_finite(trunc, kernel, f), parent_project_finite(trunc, kernel, f))
        points = [int(x) for x in trunc.interior[:: max(1, len(trunc.interior) // 6)]]
        for x in points + [graph.base_point]:
            got = interpolate(trunc, kernel, raw, x)
            want = parent_interpolate(trunc, kernel, raw, x)
            assert {k: np.float64(v).tobytes() for k, v in got.items()} == {
                k: np.float64(v).tobytes() for k, v in want.items()
            }


@pytest.mark.parametrize(
    "route,solves",
    [
        (lambda trunc, kernel, f: royden_split(trunc, f), 1),
        (lambda trunc, kernel, f: project_finite(trunc, kernel, f), 1),
        (lambda trunc, kernel, f: interpolate(trunc, kernel, f, int(trunc.interior[5])), 2),
    ],
    ids=["royden_split", "project_finite", "interpolate"],
)
def test_split_routes_count_their_frontier_solves(route, solves, monkeypatch):
    trunc = generate("comb", radius=5)
    kernel = greens_gram(trunc.graph, tol=1e-13)
    f = np.random.default_rng(5).standard_normal(trunc.graph.n)
    calls = count_calls(
        monkeypatch, laplacian, ["grounded_solve"],
        where=lambda g, ground, rhs: np.array_equal(ground, trunc.frontier),
    )
    route(trunc, kernel, f)
    assert calls == {"grounded_solve": solves}


def test_energy_split_identity(rng):
    for trunc in [generate("lattice", radius=3, d=2), generate("comb", radius=4)]:
        f = rng.standard_normal(trunc.graph.n)
        report = energy_split(trunc, f)
        assert report["identity_residual"] < 1e-9 * max(1.0, report["total"])
        assert report["dirichlet_term"] + report["boundary_term"] == pytest.approx(
            report["total"], rel=1e-9
        )
        assert report["boundary_term"] >= 0.0
        assert report["dirichlet_term"] >= -1e-12


def test_energy_split_of_harmonic_function_is_all_boundary(rng):
    trunc = generate("binary-tree", radius=4)
    h = harmonic_extension(trunc, rng.standard_normal(len(trunc.frontier)))
    report = energy_split(trunc, h)
    assert report["dirichlet_term"] == pytest.approx(0.0, abs=1e-10)
    assert report["boundary_term"] == pytest.approx(report["total"], rel=1e-10)


def parent_energy_split(trunc, f):
    """`energy_split` before its block form: one vector at a time."""
    graph = trunc.graph
    fv = gauged(graph, f)
    if len(trunc.frontier):
        qraw = harmonic_extension(trunc, fv.values[trunc.frontier])
    else:
        qraw = np.zeros(graph.n)
    lap_f = assemble_laplacian(graph).apply(fv.values)
    g = fv.values - qraw
    dirichlet = float(g[trunc.interior] @ lap_f[trunc.interior])
    q = gauged(graph, qraw)
    boundary = vector_energy_inner(q, q)
    total = vector_energy_inner(fv, fv)
    return {
        "dirichlet_term": dirichlet,
        "boundary_term": boundary,
        "total": total,
        "identity_residual": abs(dirichlet + boundary - total),
    }


SPLIT_CASES = {
    "lattice-6": lambda: generate("lattice", radius=6),
    "comb-5": lambda: generate("comb", radius=5),
    "binary-tree-5": lambda: generate("binary-tree", radius=5),
    "nary-tree-3": lambda: generate("nary-tree", radius=3, branching=3),
    "chain-30": lambda: generate("chain", width=30),
    "no-frontier": lambda: as_truncated(generate("lattice", radius=6).graph),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_energy_splits_equal_the_single_split_per_column(case):
    trunc = SPLIT_CASES[case]()
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((10, trunc.graph.n))
    block = energy_splits(trunc, raw.T)
    assert set(block) == {"dirichlet_term", "boundary_term", "total", "identity_residual"}
    for j, f in enumerate(raw):
        single = energy_split(trunc, f)
        assert single == parent_energy_split(trunc, f)
        assert single == {key: float(value[j]) for key, value in block.items()}
    if case == "no-frontier":
        assert not np.any(block["boundary_term"])


def test_energy_splits_guards():
    trunc = generate("lattice", radius=3)
    with pytest.raises(GraphError, match="truncation"):
        energy_splits(trunc.graph, np.zeros((trunc.graph.n, 2)))
    with pytest.raises(GraphError, match="block"):
        energy_splits(trunc, np.zeros(trunc.graph.n))
    with pytest.raises(GraphError, match="block"):
        energy_splits(trunc, np.zeros((trunc.graph.n + 1, 2)))


def test_energy_split_checks_the_truncation_first(rng):
    g = random_connected_graph(rng, 6)
    # neither the wrong length nor a non-graph gets as far as gauging f
    for not_a_truncation in (g, truncate(g, 2).graph, object()):
        for f in (np.zeros(6), np.zeros(7), gauged(random_connected_graph(rng, 6), np.zeros(6))):
            with pytest.raises(GraphError, match="truncation"):
                energy_split(not_a_truncation, f)


FRONTIER_GUARDS = {
    "path sampling": lambda t: sample_paths(t, 0, 1, 10, seed=0),
    "harmonic measure": lambda t: harmonic_measure_exact(t, 0),
    "boundary representation": lambda t: poisson_reproduce(t, np.zeros(3), 0, 10, seed=0),
    "an interior solve": laplacian.interior_laplacian,
    'absorb="frontier"': lambda t: walk_greens(t, absorb="frontier"),
    "harmonic extension": lambda t: harmonic_extension(t, np.zeros(0)),
}


@pytest.mark.parametrize("needs", FRONTIER_GUARDS)
def test_frontier_guards_share_one_message(needs):
    wye = generate("wye")  # a finite family: its frontier is empty
    with pytest.raises(GraphError) as exc:
        FRONTIER_GUARDS[needs](wye.graph)
    assert str(exc.value) == f"{needs} needs a truncation carrying a frontier"
    with pytest.raises(GraphError) as exc:
        FRONTIER_GUARDS[needs](wye)
    assert str(exc.value) == f"{needs} needs a nonempty frontier; this truncation has an empty frontier"
    # the split only needs a truncation: with no frontier, f is all finite
    with pytest.raises(GraphError, match="^the split needs a truncation carrying a frontier$"):
        royden_split(wye.graph, np.zeros(3))
    assert royden_split(wye, np.ones(3)).orthogonality_residual == 0.0
