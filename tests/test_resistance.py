"""Effective resistance routes, current flows, metric matrices, diagnostics.

Every numeric expectation here is anchored either to the pseudo-inverse
oracle in conftest or to a hand-derivable series/parallel closed form.
"""

import importlib
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from resnet.energy import SolverError, solve_dipole
from resnet.graphs import ConductanceGraph, GraphError, generate
from resnet.resistance import (
    METHODS,
    _build_cycle_system,
    _cycle_system,
    ResistanceMatrix,
    boundedness_diagnostic,
    continuum_reference,
    current_of_dipole,
    resistance,
    resistance_matrix,
    type_a_diagnostic,
)

from conftest import per_z_triangle_slack, pinv_resistance, random_connected_graph


def test_all_routes_match_pinv_oracle(rng):
    for n, extra in [(2, 0), (7, 4), (19, 12), (33, 20)]:
        g = random_connected_graph(rng, n, extra)
        x, y = 0, n - 1
        expect = pinv_resistance(g, x, y)
        for method in METHODS:
            assert resistance(g, x, y, method, tol=1e-12) == pytest.approx(
                expect, rel=1e-7
            ), method


def test_all_mode_reports_disagreement(rng):
    g = random_connected_graph(rng, 11, 6)
    report = resistance(g, 1, 8, "all", tol=1e-12)
    assert set(report) == set(METHODS) | {"max_rel_disagreement"}
    assert report["max_rel_disagreement"] < 1e-8


def test_all_mode_solves_one_dipole(rng, monkeypatch):
    g = random_connected_graph(rng, 10, 5)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return solve_dipole(*args, **kwargs)

    # the package re-exports the function `resistance` over the module name
    module = importlib.import_module("resnet.resistance")
    monkeypatch.setattr(module, "solve_dipole", counting)
    report = resistance(g, 2, 7, "all", tol=1e-12)
    assert calls == [(2, 7)]
    for method in ("M1", "M7"):
        assert report[method] == pytest.approx(report["M2"], rel=1e-10)
    for method, expect in [("M1", 1), ("M2", 1), ("M7", 1), ("M3", 0), ("M4", 0)]:
        calls.clear()
        resistance(g, 2, 7, method, tol=1e-12)
        assert len(calls) == expect, method


def test_m4_on_steep_chain_answers_or_raises_solver_error():
    # conductances 2^0 .. 2^58: the dense grounded solve raised LinAlgError
    g = generate("chain", width=60).graph
    for x in range(g.n):
        for y in range(g.n):
            if x == y:
                continue
            try:
                value = resistance(g, x, y, "M4")
            except SolverError:
                continue
            assert np.isfinite(value)


def test_m4_on_steep_chain_matches_series_resistance():
    # the chain's edge (k, k+1) has conductance 2^k, so d(a, b) is a finite
    # geometric sum; every ordered pair must land within 1e-9 of it
    g = generate("chain", width=60).graph
    for a in range(60):
        for b in range(60):
            if a == b:
                continue
            exact = math.fsum(2.0**-k for k in range(min(a, b), max(a, b)))
            value = resistance(g, g.index_of(a), g.index_of(b), "M4")
            assert abs(value - exact) <= 1e-9 * exact, (a, b)


def test_m4_reuses_the_one_base_grounded_factorization():
    g = generate("lattice", radius=8).graph
    for y in range(1, g.n):
        resistance(g, 0, y, "M4")
    grounded = [key for key in g._cache if isinstance(key, tuple) and key[0] == "grounded_lu"]
    assert len(grounded) == 1


def _tree_path_sum(graph, x, y):
    """Series resistance of the one path from x to y in a tree."""
    _, pred = breadth_first_order(graph.adjacency(), x, directed=False, return_predecessors=True)
    hops, v = [], y
    while v != x:
        hops.append(1.0 / graph.conductance(int(pred[v]), v))
        v = int(pred[v])
    return math.fsum(hops)


def _seeded_pairs(graph, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in rng.choice(graph.n, size=2, replace=False)) for _ in range(count)]


def test_m3_on_steep_chain_matches_series_resistance():
    # a path has no cycles to correct, so M3 is the fsum of the edge
    # resistances 2^-k along it
    g = generate("chain", width=60).graph
    for a in range(60):
        for b in range(60):
            if a == b:
                continue
            exact = math.fsum(2.0**-k for k in range(min(a, b), max(a, b)))
            value = resistance(g, g.index_of(a), g.index_of(b), "M3")
            assert abs(value - exact) <= 1e-13 * exact, (a, b)


@pytest.mark.parametrize("family, radius", [("comb", 16), ("binary-tree", 9)])
def test_m3_on_trees_is_the_path_sum(family, radius):
    g = generate(family, radius=radius).graph
    assert g.num_edges == g.n - 1
    for x, y in _seeded_pairs(g, 100, 7):
        assert resistance(g, x, y, "M3") == _tree_path_sum(g, x, y), (x, y)


@pytest.mark.parametrize("radius", [24, 30])
def test_m3_matches_pcg_on_lattices(radius):
    g = generate("lattice", radius=radius).graph
    for x, y in _seeded_pairs(g, 200, radius):
        m2 = resistance(g, x, y, "M2", tol=1e-12)
        assert abs(resistance(g, x, y, "M3") - m2) <= 1e-9 * m2, (x, y)


@pytest.mark.parametrize("radius", [24, 30, 40])
def test_m3_kvl_certificate_on_lattices(radius):
    # conductances span 2.7 to 2.4e17 at radius 40; every flow must satisfy
    # Kirchhoff's voltage law to 1e-12 relative, so M3 raises nothing
    g = generate("lattice", radius=radius).graph
    system = _cycle_system(g)
    for x, y in _seeded_pairs(g, 200, 1):
        assert system.kvl_residual(system.unit_flow(x, y)) <= 1e-12, (x, y)
        assert resistance(g, x, y, "M3", tol=1e-12) > 0.0


def test_m3_answers_every_pair_where_cycles_carry_no_current():
    # Between adjacent levels every vertex meets every vertex, so by symmetry
    # many fundamental cycles carry no current.  Their net drops and scales
    # are both rounding dust; 29 of the 300 pairs used to raise a KVL
    # residual of 1.0 (3e-33 over 3e-33).
    g = generate("bratteli", level_sizes=[1, 3, 5, 7, 9], level_weights=[1, 2, 4, 8]).graph
    assert g.n == 25
    for x in range(g.n):
        for y in range(x + 1, g.n):
            m2 = resistance(g, x, y, "M2", tol=1e-12)
            assert abs(resistance(g, x, y, "M3") - m2) <= 1e-12 * m2, (x, y)


def test_m3_builds_one_cycle_system_per_graph(monkeypatch):
    module = importlib.import_module("resnet.resistance")
    built = []

    def counting(graph):
        built.append(graph)
        return _build_cycle_system(graph)

    monkeypatch.setattr(module, "_build_cycle_system", counting)
    g = generate("lattice", radius=6).graph
    first = resistance(g, 0, 5, "M3")
    resistance(g, 3, 9, "M3")
    assert resistance(g, 0, 5, "M3") == first
    assert built == [g]
    system = g._cache["cycle_system"]
    assert system.cycles.shape == (g.num_edges, g.num_edges - g.n + 1)


def test_m3_unit_flow_is_a_unit_flow(rng):
    g = random_connected_graph(rng, 17, 12)
    system = _cycle_system(g)
    i, j, _ = g.edge_arrays()
    flow = system.unit_flow(3, 11)
    net = np.bincount(i, flow, g.n) - np.bincount(j, flow, g.n)
    expect = np.zeros(g.n)
    expect[3], expect[11] = 1.0, -1.0
    assert np.allclose(net, expect, atol=1e-12)


def test_m3_certificate_rejects_a_perturbed_flow(rng):
    g = random_connected_graph(rng, 15, 10)
    system = _cycle_system(g)
    flow = system.unit_flow(2, 9)
    assert system.kvl_residual(flow) < 1e-13
    # a circulation around the first cycle keeps the flow a unit flow but
    # breaks Kirchhoff's voltage law
    bent = flow + 1e-3 * system.cycles[:, 0].toarray().ravel()
    with pytest.raises(SolverError, match="voltage law") as exc:
        system.certified_energy(bent, 1e-10)
    assert exc.value.residual == system.kvl_residual(bent) > 1e-10
    assert system.certified_energy(flow, 1e-10) == pytest.approx(
        pinv_resistance(g, 2, 9), rel=1e-12
    )


def test_m3_failed_cholesky_is_a_solver_error(rng, monkeypatch):
    module = importlib.import_module("resnet.resistance")

    def singular(matrix):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(module, "cho_factor", singular)
    g = random_connected_graph(rng, 8, 4)
    with pytest.raises(SolverError, match="Cholesky"):
        resistance(g, 0, 7, "M3")


def test_dual_aliases(rng):
    g = random_connected_graph(rng, 9, 4)
    assert resistance(g, 0, 5, "M5", tol=1e-12) == resistance(g, 0, 5, "M7", tol=1e-12)
    assert resistance(g, 0, 5, "M6", tol=1e-12) == resistance(g, 0, 5, "M2", tol=1e-12)


def test_guards(rng):
    g = random_connected_graph(rng, 5)
    assert resistance(g, 3, 3) == 0.0
    with pytest.raises(GraphError, match="out of range"):
        resistance(g, 0, 5)
    with pytest.raises(GraphError, match="unknown method"):
        resistance(g, 0, 1, "M9")


def test_triangle_closed_form():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0)
    for method in METHODS:
        assert resistance(g, 0, 1, method, tol=1e-12) == pytest.approx(2.0 / 3.0)


def test_series_and_parallel_laws():
    series = ConductanceGraph.from_edges([(0, 1, 0.5), (1, 2, 0.25)], 0)
    assert resistance(series, 0, 2, "M4") == pytest.approx(6.0)
    parallel = ConductanceGraph.from_edges(
        [("a", "m1", 1.0), ("m1", "b", 1.0), ("a", "m2", 1.0), ("m2", "b", 1.0)], "a"
    )
    a, b = parallel.index_of("a"), parallel.index_of("b")
    assert resistance(parallel, a, b, "M4") == pytest.approx(1.0)


def test_wye_closed_form(rng):
    for _ in range(20):
        r1, r2, r3 = rng.uniform(0.1, 10.0, size=3)
        trunc = generate("wye", r1=r1, r2=r2, r3=r3)
        g = trunc.graph
        expect = r1 + r2 * r3 / (r2 + r3)
        got = resistance(g, g.index_of("a"), g.index_of("b"), "M2", tol=1e-13)
        assert got == pytest.approx(expect, rel=1e-8)


def test_halfline_frozen_distances():
    g = generate("halfline", radius=8).graph
    assert resistance(g, 0, 5, "M2", tol=1e-13) == pytest.approx(
        1.5713174316646532, rel=1e-9
    )
    assert resistance(g, 2, 4, "M2", tol=1e-13) == pytest.approx(
        0.18512235160447665, rel=1e-9
    )


def test_unit_current_flow_on_path():
    g = ConductanceGraph.from_edges([(0, 1, 2.0), (1, 2, 4.0)], 0)
    dip = solve_dipole(g, 0, 2, tol=1e-13)
    flow = current_of_dipole(dip)
    # one amp in at 0, out at 2, conserved in between
    assert np.allclose(flow.divergence(), [1.0, 0.0, -1.0], atol=1e-9)
    assert flow.current_between(0, 1) == pytest.approx(1.0)
    assert flow.current_between(1, 0) == pytest.approx(-1.0)
    assert flow.current_between(0, 2) == 0.0
    assert flow.dissipation == pytest.approx(resistance(g, 0, 2, "M4"))


def test_flow_dissipation_equals_energy(rng):
    g = random_connected_graph(rng, 13, 8)
    dip = solve_dipole(g, 2, 9, tol=1e-12)
    flow = current_of_dipole(dip)
    assert flow.dissipation == pytest.approx(dip.energy, rel=1e-9)
    div = flow.divergence()
    expect = np.zeros(g.n)
    expect[2], expect[9] = 1.0, -1.0
    assert np.allclose(div, expect, atol=1e-8)


def test_matrix_matches_pairwise_oracle(rng):
    g = random_connected_graph(rng, 12, 7)
    mat = resistance_matrix(g, "M2", tol=1e-12)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert mat.matrix[x, y] == pytest.approx(
                pinv_resistance(g, x, y), rel=1e-7
            )
    assert np.array_equal(mat.matrix, mat.matrix.T)
    assert np.all(np.diag(mat.matrix) == 0.0)
    assert mat.sym_residual < 1e-8
    assert mat.triangle_slack() >= -1e-9


def test_matrix_m4_and_pairwise_fallback_agree(rng):
    g = random_connected_graph(rng, 8, 3)
    m2 = resistance_matrix(g, "M2", tol=1e-12).matrix
    m4 = resistance_matrix(g, "M4").matrix
    m1 = resistance_matrix(g, "M1", tol=1e-12).matrix
    assert np.allclose(m2, m4, rtol=1e-8, atol=1e-10)
    assert np.allclose(m2, m1, rtol=1e-7, atol=1e-9)


def test_matrix_guards(rng):
    g = random_connected_graph(rng, 6)
    with pytest.raises(GraphError, match="capped"):
        resistance_matrix(g, "M2", size_cap=5)
    with pytest.raises(GraphError, match="unknown method"):
        resistance_matrix(g, "M8")


def test_triangle_slack_flags_planted_violation(rng):
    g = random_connected_graph(rng, 3)
    bad = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    mat = ResistanceMatrix(g, bad, "M2", 1e-10)
    assert mat.triangle_slack() == pytest.approx(-1.0)


def _same_float(a, b):
    """Bit for bit, with any NaN equal to any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _signed_matrix(n, symmetric, plus, minus, seed):
    """Normal entries (negative ones and a nonzero diagonal included), with
    `plus` entries of +inf and `minus` of -inf planted at random."""
    rng = np.random.default_rng([n, symmetric, plus, minus, seed])
    d = rng.standard_normal((n, n))
    if symmetric:
        d = d + d.T
    for value, count in ((np.inf, plus), (-np.inf, minus)):
        x, y = rng.integers(0, max(n, 1), size=(2, count if n else 0))
        d[x, y] = value
        if symmetric:
            d[y, x] = value
    return d


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 129])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("plus, minus", [(0, 0), (1, 1), (3, 0), (0, 3), (3, 3)])
def test_triangle_slack_equals_per_z_oracle(n, symmetric, plus, minus):
    for seed in range(2):
        d = _signed_matrix(n, symmetric, plus, minus, seed)
        mat = ResistanceMatrix(None, d, "M2", 1e-10)
        with np.errstate(invalid="ignore"):
            want = per_z_triangle_slack(d)
        assert _same_float(mat.triangle_slack(), want), (seed, want)


def test_triangle_slack_scans_below_the_diagonal_when_asymmetric():
    # the path metric on 129 points, with only d(120, 5) too long: the one
    # violation lies in a row block past the column it needs
    d = np.abs(np.subtract.outer(np.arange(129.0), np.arange(129.0)))
    d[120, 5] = 200.0
    got = ResistanceMatrix(None, d, "M2", 1e-10).triangle_slack()
    assert got == per_z_triangle_slack(d) == 115.0 - 200.0


@pytest.mark.parametrize("symmetric", [True, False])
def test_triangle_slack_never_reads_the_diagonal(symmetric):
    d = _signed_matrix(65, symmetric, 0, 0, 0)
    want = per_z_triangle_slack(d)
    d[np.diag_indices(65)] = np.resize([np.inf, -np.inf, np.nan], 65)
    got = ResistanceMatrix(None, d, "M2", 1e-10).triangle_slack()
    assert math.isfinite(got) and _same_float(got, want)


@pytest.mark.parametrize(
    "family, radius, params",
    [
        ("lattice", 12, {}),
        ("comb", 10, {}),
        ("binary-tree", 7, {}),
        ("nary-tree", 4, {"branching": 3}),
    ],
)
def test_triangle_slack_equals_per_z_oracle_on_families(family, radius, params):
    mat = resistance_matrix(generate(family, radius=radius, **params), "M2")
    assert _same_float(mat.triangle_slack(), per_z_triangle_slack(mat.matrix))


def test_triangle_slack_is_nan_beside_an_infinite_detour():
    # d(0, 1) = d(0, 2) = +inf: the triple (0, 1, 2) is inf - inf, although
    # the detour through 3 is finite and alone would read -inf
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    d[0, 1] = d[0, 2] = np.inf
    assert math.isnan(ResistanceMatrix(None, d, "M2", 1e-10).triangle_slack())


def test_triangle_slack_is_nan_on_a_nan_distance():
    # the path 0-1-2-3 with d(0, 3) unknown; the old loop skipped every
    # NaN slice and returned +inf, so the metric check passed
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    d[0, 3] = d[3, 0] = np.nan
    assert math.isnan(ResistanceMatrix(None, d, "M2", 1e-10).triangle_slack())


def test_matrix_csv(tmp_path, rng):
    g = random_connected_graph(rng, 5, 2)
    mat = resistance_matrix(g, "M4")
    path = tmp_path / "dist.csv"
    mat.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == g.n + 1
    got = np.array(
        [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    )
    assert np.array_equal(got, mat.matrix)


def test_boundedness_diagnostic_trends():
    bounded = boundedness_diagnostic("halfline", [4, 6, 8, 10])
    assert bounded["trend"] == "bounded"
    # geometric weights: the ray resistance sum approaches a finite limit
    sums = [row["ray_resistance_sum"] for row in bounded["per_radius"]]
    assert sums[-1] == pytest.approx(sums[-2], rel=1e-2)
    growing = boundedness_diagnostic("halfline", [4, 6, 8, 10], {"growth": 1.0})
    assert growing["trend"] == "growing"
    assert growing["per_radius"][-1]["max_distance"] == pytest.approx(10.0)
    with pytest.raises(GraphError, match="two radii"):
        boundedness_diagnostic("halfline", [4])


def test_type_a_comb_teeth_stay_separated():
    report = type_a_diagnostic("comb", radius=8)
    assert report["signature"] == "separated"
    assert report["distance_floor"] > 1e-2
    assert all(row["d12"] > 0 for row in report["cross_teeth"])


def test_type_a_tree_ray_collapses():
    report = type_a_diagnostic("binary-tree", radius=7, params={"b_plus": 2.0})
    steps = [s["step"] for s in report["within_ray"]]
    assert report["signature"] == "collapsing"
    assert all(b < a for a, b in zip(steps, steps[1:]))


def test_type_a_halfline_cauchy():
    report = type_a_diagnostic("halfline", radius=9)
    assert report["signature"] == "cauchy-ray"


def test_type_a_rejects_unlabeled_families():
    with pytest.raises(GraphError, match="unsupported"):
        type_a_diagnostic("lattice", radius=3)


def test_continuum_reference_closed_form():
    kernel, dist = continuum_reference(0.0, 0.0)
    assert (kernel, dist) == (1.0, 0.0)
    kernel, dist = continuum_reference(1.0, 3.5)
    assert kernel == pytest.approx(np.exp(-2.5))
    assert dist == pytest.approx(2.0 * (1.0 - np.exp(-2.5)))
    # the metric approaches but never exceeds 2
    assert continuum_reference(0.0, 30.0)[1] < 2.0
    assert continuum_reference(0.0, 1e6)[1] <= 2.0
    # symmetry and a sampled triangle inequality
    assert continuum_reference(2.0, 5.0) == continuum_reference(5.0, 2.0)
    d = lambda a, b: continuum_reference(a, b)[1]
    for x, y, z in [(0.0, 1.0, 2.0), (0.0, 0.1, 5.0), (-3.0, 0.0, 3.0)]:
        assert d(x, y) + d(y, z) >= d(x, z) - 1e-12
