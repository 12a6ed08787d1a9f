"""Effective resistance routes, current flows, metric matrices, the radius sweep.

Every numeric expectation here is anchored either to the pseudo-inverse
oracle in conftest or to a hand-derivable series/parallel closed form,
except the sweep's covering numbers, which are pinned as measured.
"""

import dataclasses
import importlib
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order, depth_first_order

from resnet.energy import SolverError, solve_dipole, solve_dipoles
from resnet.graphs import ConductanceGraph, GraphError, generate, underlying
from resnet.greens import GreensMatrix, _grounded_kernel, greens_gram
from resnet.resistance import (
    _ALIASES,
    METHODS,
    _build_cycle_system,
    _cycle_system,
    ResistanceMatrix,
    continuum_reference,
    radius_sweep,
    resistance,
    resistance_matrix,
)

from conftest import (
    count_calls,
    dense_laplacian,
    exact_resistances,
    exact_tree_distance,
    per_z_triangle_slack,
    pinv_resistance,
    random_connected_graph,
)


def test_all_routes_match_pinv_oracle(rng):
    for n, extra in [(2, 0), (7, 4), (19, 12), (33, 20)]:
        g = random_connected_graph(rng, n, extra)
        x, y = 0, n - 1
        expect = pinv_resistance(g, x, y)
        for method in METHODS:
            assert resistance(g, x, y, method, tol=1e-12) == pytest.approx(
                expect, rel=1e-7
            ), method


def test_every_method_rejects_a_tolerance_that_is_not_positive(rng):
    g = random_connected_graph(rng, 6, 2)
    for method in METHODS + tuple(_ALIASES) + ("all",):
        for tol in (float("nan"), 0.0, -1.0):
            with pytest.raises(GraphError, match="tol must be positive"):
                resistance(g, 1, 4, method, tol=tol)


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
    resistance(g, 2, 7, "all", tol=1e-12)
    assert calls == [(2, 7)]
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
    pairs = _seeded_pairs(g, 200, radius)
    # one block solve: each energy is bitwise that of solve_dipole(g, x, y, tol=1e-12).energy
    for (x, y), dipole in zip(pairs, solve_dipoles(g, pairs, tol=1e-12)):
        energy = dipole.energy
        assert abs(resistance(g, x, y, "M3") - energy) <= 1e-9 * energy, (x, y)


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
            energy = solve_dipole(g, x, y, tol=1e-12).energy
            assert abs(resistance(g, x, y, "M3") - energy) <= 1e-12 * energy, (x, y)


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


def test_pcg_route_and_its_aliases_on_a_steep_tree_are_the_path_sum():
    # the path from 1 to 2 meets conductances 5.3e-8 and 5.2e6; the drop and
    # the energy of the PCG dipole, once M1 and M2, were 3.5e-4 and 6.9e-4 low
    g = ConductanceGraph.from_edges([(0, 1, 5.253e-08), (0, 2, 5.156e06), (0, 3, 2.907e05),
                                     (0, 5, 6.722e01), (0, 7, 4.172e03), (1, 4, 1.933e06),
                                     (1, 6, 1.053e02)], 0)
    x, y = g.index_of(1), g.index_of(2)
    exact = math.fsum([1 / 5.253e-08, 1 / 5.156e06])
    for method in ("M1", "M2", "M7"):
        assert abs(resistance(g, x, y, method) - exact) <= 1e-12 * exact, method
    assert resistance(g, x, y) == resistance(g, x, y, "M7")


def test_guards(rng):
    g = random_connected_graph(rng, 5)
    assert resistance(g, 3, 3) == 0.0
    with pytest.raises(GraphError, match="out of range"):
        resistance(g, 0, 5)
    with pytest.raises(GraphError, match="unknown method"):
        resistance(g, 0, 1, "M9")


# the six graphs of the benchmark's `queries` workload, then the two steepest
PAIR_GRAPHS = [
    ("lattice", 12, {}),
    ("lattice", 24, {}),
    ("binary-tree", 9, {}),
    ("comb", 16, {}),
    ("chain", None, {"width": 60}),
    ("nary-tree", 6, {"branching": 3}),
    ("halfline", 32, {}),
    ("lattice", 40, {}),
]
ROUTES = METHODS + tuple(_ALIASES) + ("all",)


def _reference(g, radius, pairs):
    """The exact R of each pair on a tree and on lattice 12, M3 on the larger
    lattices (within 1e-15 of exact where tier-1 can afford the reference)."""
    if g.num_edges == g.n - 1:
        return {(x, y): exact_tree_distance(g, x, y) for x, y in pairs}
    if radius <= 12:
        return exact_resistances(g, pairs)
    return {(x, y): Fraction(resistance(g, x, y, "M3")) for x, y in pairs}


# each route's promise in `resistance`'s docstring, relative to the exact R
# (M4 on a tree: 1e-15); M4 on a graph with a cycle promises only a
# positive value.  The worst errors measured here: M3 2.3e-16, M7 5.4e-16
# (lattice 40, whose 17 decades are one past M7's promise), M4 3.2e-16 on
# the trees and 6.2e-4 on lattice 40
_PROMISE = {"M3": 1e-10, "M7": 1e-8}


@pytest.mark.parametrize("family, radius, params", PAIR_GRAPHS)
def test_every_route_is_within_its_promise_of_the_exact_value(family, radius, params):
    g = generate(family, radius=radius, **params).graph
    tree = g.num_edges == g.n - 1
    pairs = _seeded_pairs(g, 20, 19)
    exact = _reference(g, radius, pairs)
    for x, y in pairs:
        values = {m: resistance(g, x, y, m) for m in METHODS}
        for m, value in values.items():
            promise = 1e-15 if m == "M4" and tree else _PROMISE.get(m)
            assert value > 0, (x, y, m)
            if promise is not None:
                assert abs(Fraction(value) - exact[x, y]) <= promise * exact[x, y], (x, y, m)
        for alias, route in _ALIASES.items():  # positive floats: == is bit for bit
            assert resistance(g, x, y, alias) == values[route], (x, y, alias)
        lo, hi = min(values.values()), max(values.values())
        assert resistance(g, x, y, "all") == values | {"max_rel_disagreement": (hi - lo) / hi}


def _solve_counts(monkeypatch):
    """Count every PCG loop, every grounded solve and every cycle-system lookup.

    Returns a function that reads the three counts as one dict, and the list
    of grounds the grounded solves were given, each as a list of vertices.
    """
    grounds = []

    def record(graph, ground, rhs):
        grounds.append(np.atleast_1d(ground).tolist())
        return True

    counts = [
        count_calls(monkeypatch, importlib.import_module(f"resnet.{module}"), [name], where)
        for module, name, where in [("energy", "_pcg", None),
                                    ("laplacian", "grounded_solve", record),
                                    ("resistance", "_cycle_system", None)]
    ]
    return (lambda: {k: v for c in counts for k, v in c.items()}), grounds


@pytest.mark.parametrize("method, pcg, grounded, cycles", [
    ("M1", 1, 0, 0), ("M2", 1, 0, 0), ("M7", 1, 0, 0),
    ("M3", 0, 0, 1), ("M4", 0, 1, 0), ("all", 1, 1, 1),
])
def test_each_route_makes_its_one_solve(monkeypatch, method, pcg, grounded, cycles):
    g = generate("lattice", radius=6).graph
    calls, grounds = _solve_counts(monkeypatch)
    for k, (x, y) in enumerate(_seeded_pairs(g, 3, 5), start=1):
        resistance(g, x, y, method)
        assert calls() == {"_pcg": k * pcg, "grounded_solve": k * grounded,
                           "_cycle_system": k * cycles}
    assert grounds == [[g.base_point]] * (3 * grounded)


@pytest.mark.parametrize("family, radius", [("wye", None), ("lattice", 4), ("binary-tree", 3)])
def test_the_same_vertex_is_0_on_every_route_without_a_solve(monkeypatch, family, radius):
    g = generate(family, radius=radius).graph
    calls, _ = _solve_counts(monkeypatch)
    for x in range(g.n):
        for method in METHODS + tuple(_ALIASES):
            value = resistance(g, x, x, method)
            assert type(value) is float and value == 0.0
        report = resistance(g, x, x, "all")
        assert report == dict.fromkeys(METHODS, 0.0) | {"max_rel_disagreement": 0.0}
    assert calls() == {"_pcg": 0, "grounded_solve": 0, "_cycle_system": 0}


def test_an_unknown_method_is_rejected_before_anything_else(rng):
    g = random_connected_graph(rng, 5)
    for x, y in [(1, 1), (0, 5), (0, 1.5)]:
        with pytest.raises(GraphError, match="unknown method 'M9'"):
            resistance(g, x, y, "M9")
    with pytest.raises(GraphError, match="unknown method 'M9'"):
        resistance(g, 0, 1, "M9", tol=float("nan"))


@pytest.mark.parametrize("method", ROUTES)
def test_every_route_rejects_a_non_integer_vertex(rng, method):
    g = random_connected_graph(rng, 6, 2)
    for x, y in [(1.5, 3), (1, 3.0), ("1", 3), (None, 3)]:
        with pytest.raises(GraphError, match="is not an integer"):
            resistance(g, x, y, method)
    value = resistance(g, np.int64(1), np.int32(3), method)
    assert value == resistance(g, 1, 3, method)


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


def test_matrix_matches_pairwise_oracle(rng):
    g = random_connected_graph(rng, 12, 7)
    mat = resistance_matrix(g)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert mat.matrix[x, y] == pytest.approx(
                pinv_resistance(g, x, y), rel=1e-7
            )
    assert np.array_equal(mat.matrix, mat.matrix.T)
    assert np.all(np.diag(mat.matrix) == 0.0)
    assert mat.sym_residual < 1e-8
    assert mat.triangle_slack() >= -1e-9


def test_matrix_agrees_with_pairwise_routes(rng):
    g = random_connected_graph(rng, 8, 3)
    d = resistance_matrix(g).matrix
    for method in METHODS:
        for x in range(g.n):
            for y in range(x + 1, g.n):
                assert d[x, y] == pytest.approx(resistance(g, x, y, method, tol=1e-12), rel=1e-8)


def test_matrix_guards(monkeypatch):
    g = generate("chain", width=2001, growth=1.0)
    assert g.graph.n > 2000
    module = _resistance_module()
    monkeypatch.setattr(module, "greens_gram", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(GraphError, match="capped at 2000 vertices"):
        resistance_matrix(g)


def test_triangle_slack_flags_planted_violation(rng):
    g = random_connected_graph(rng, 3)
    bad = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    mat = ResistanceMatrix(g, bad)
    assert mat.triangle_slack() == pytest.approx(-1.0)


def _same_float(a, b):
    """Bit for bit, with any NaN equal to any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _signed_matrix(n, symmetric, plus, minus, seed):
    """Normal entries (negative ones and a nonzero diagonal included), with
    `plus` entries of +inf and `minus` of -inf planted at random.  Unless
    `symmetric`, d(x, y) and d(y, x) are drawn apart."""
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


def _finite_extremes(d):
    """d with each +inf made 1e300, each -inf -1e300 and each NaN 0.5."""
    return np.nan_to_num(d, nan=0.5, posinf=1e300, neginf=-1e300)


def _assert_scan_is_the_oracle(graph, d):
    """The scan of the symmetric d gives the per-z oracle's float bit for
    bit.  A d with a NaN or an infinity never reaches it: building its
    matrix raises SolverError, and its `_finite_extremes` go to the oracle."""
    if not np.isfinite(d).all():
        with pytest.raises(SolverError, match=r"resistance matrix has \d+ non-finite entries"):
            ResistanceMatrix(graph, d)
        d = _finite_extremes(d)
    want = per_z_triangle_slack(d)
    got = ResistanceMatrix(graph, d).triangle_slack()
    assert _same_float(got, want), (got, want)


# The scan tests draw symmetric matrices only; `symmetric` stays a
# parameter so that their ids stay as they were.  An asymmetric matrix is
# refused before any scan, whatever its size and its diagonal:
@pytest.mark.parametrize("n", [2, 65, 129])
@pytest.mark.parametrize("diagonal", ["finite", "inf-nan"])
def test_an_asymmetric_matrix_never_reaches_the_scan(n, diagonal):
    for plus, minus in [(0, 0), (1, 1), (3, 0), (0, 3)]:
        for seed in range(2):
            d = _signed_matrix(n, False, plus, minus, seed)
            if diagonal == "inf-nan":
                d[np.diag_indices(n)] = np.resize([np.inf, -np.inf, np.nan], n)
            assert not np.array_equal(d, d.T, equal_nan=True)
            with pytest.raises(GraphError, match="resistance matrix is not symmetric"):
                ResistanceMatrix(None, d)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 129])
@pytest.mark.parametrize("symmetric", [True])
@pytest.mark.parametrize("plus, minus", [(0, 0), (1, 1), (3, 0), (0, 3), (3, 3)])
def test_triangle_slack_equals_per_z_oracle(n, symmetric, plus, minus):
    for seed in range(2):
        _assert_scan_is_the_oracle(None, _signed_matrix(n, symmetric, plus, minus, seed))


@pytest.mark.parametrize("symmetric", [True])
def test_triangle_slack_never_reads_the_diagonal(symmetric):
    d = _signed_matrix(65, symmetric, 0, 0, 0)
    want = per_z_triangle_slack(d)
    d[np.diag_indices(65)] = np.resize([np.inf, -np.inf, np.nan], 65)
    with pytest.raises(SolverError, match="resistance matrix has 65 non-finite entries"):
        ResistanceMatrix(None, d)
    d[np.diag_indices(65)] = np.resize([1e300, -1e300], 65)
    got = ResistanceMatrix(None, d).triangle_slack()
    assert math.isfinite(got) and _same_float(got, want)


def _matrix_builds(g):
    """(name, matrix, build) of each way to build a matrix type on `g`:
    a ResistanceMatrix, a GreensMatrix and a `dataclasses.replace` of one."""
    kernel = greens_gram(g)
    return [
        ("resistance", resistance_matrix(g).matrix, lambda m: ResistanceMatrix(None, m)),
        ("kernel", kernel.matrix, lambda m: GreensMatrix(g, kernel.vertices, m, 0.0)),
        ("kernel", kernel.matrix, lambda m: dataclasses.replace(kernel, matrix=m)),
    ]


def test_matrices_are_symmetric_by_construction(rng):
    # a NaN facing a number is asymmetric; a NaN facing a NaN is not, and is
    # refused as a non-finite entry
    for name, matrix, build in _matrix_builds(random_connected_graph(rng, 6, 3)):
        for value in (matrix[0, -1] + 1e-3, np.nan):
            off = matrix.copy()
            off[0, -1] = value
            with pytest.raises(GraphError, match=f"{name} matrix is not symmetric"):
                build(off)
        assert build(matrix.copy()).matrix.tobytes() == matrix.tobytes()


def test_matrices_are_finite_by_construction(rng):
    for name, matrix, build in _matrix_builds(random_connected_graph(rng, 6, 3)):
        for value in (np.nan, np.inf, -np.inf):
            # the diagonal, an off-diagonal pair, and both
            for entries in ([(1, 1)], [(0, -1), (-1, 0)], [(1, 1), (0, -1), (-1, 0)]):
                bad = matrix.copy()
                bad[tuple(zip(*entries))] = value
                count = len(entries)
                with pytest.raises(SolverError, match=f"{name} matrix has {count} non-finite entries"):
                    build(bad)
        extreme = matrix.copy()
        extreme[[0, -1], [-1, 0]] = -np.finfo(float).max
        assert build(extreme).matrix is extreme


@pytest.mark.parametrize(
    "family, radius, params",
    [
        ("lattice", 12, {}),
        ("comb", 10, {}),
        ("binary-tree", 7, {}),
        ("nary-tree", 4, {"branching": 3}),
        ("binary-tree", 8, {}),
    ],
)
def test_triangle_slack_equals_per_z_oracle_on_families(family, radius, params):
    mat = resistance_matrix(generate(family, radius=radius, **params))
    assert _same_float(mat.triangle_slack(), per_z_triangle_slack(mat.matrix))


def test_triangle_slack_is_nan_beside_an_infinite_detour():
    # d(0, 1) = d(0, 2) = +inf, whose triple d(0, 2) + d(2, 1) - d(0, 1) is
    # inf - inf, is refused before any scan; at 1e300 in their place the
    # detour through 3 is the worst triple
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    d[0, 1] = d[0, 2] = d[1, 0] = d[2, 0] = np.inf
    with pytest.raises(SolverError, match="resistance matrix has 4 non-finite entries"):
        ResistanceMatrix(None, d)
    d = _finite_extremes(d)
    got = ResistanceMatrix(None, d).triangle_slack()
    assert got == per_z_triangle_slack(d) == 3.0 + 2.0 - 1e300


def test_triangle_slack_is_nan_on_a_nan_distance():
    # the path 0-1-2-3 with d(0, 3) unknown never reaches the scan, whose
    # metric check must not pass on it: the matrix refuses the NaN
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    d[0, 3] = d[3, 0] = np.nan
    with pytest.raises(SolverError, match="resistance matrix has 2 non-finite entries"):
        ResistanceMatrix(None, d)


def _resistance_module():
    return importlib.import_module("resnet.resistance")


def _near_metric(n, seed):
    """Distances between random points of the plane, each nudged by up to
    1e-3: a near-metric whose remote tile pairs the scan can prune."""
    rng = np.random.default_rng([n, 1, seed])
    points = rng.uniform(0.0, 10.0, size=(n, 2))
    d = np.hypot(*(points[:, None, :] - points[None, :, :]).transpose(2, 0, 1))
    d += rng.uniform(-1e-3, 1e-3, size=(n, n))
    return np.triu(d, 1) + np.triu(d, 1).T


def _counting_tiles(monkeypatch):
    """Patch the tile evaluation to count the triple sums it forms."""
    module = _resistance_module()
    formed = [0]
    tile_slack = module._tile_slack

    def counted(left, right, zs, *rest):
        formed[0] += left.shape[1] * right.shape[1] * len(zs)
        return tile_slack(left, right, zs, *rest)

    monkeypatch.setattr(module, "_tile_slack", counted)
    return formed


_TILE, _Z_CHUNK = _resistance_module()._TILE, _resistance_module()._Z_CHUNK


def _tiled(monkeypatch, order, sizes):
    """Make the scan lay the vertices out in `order`, cut into tiles of `sizes`."""
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    assert sum(sizes) == len(order) and all(0 < s <= _TILE for s in sizes)
    monkeypatch.setattr(_resistance_module(), "_tiles", lambda g, n: (np.asarray(order), starts))


def _runs_of(size, n):
    return [size] * (n // size) + [n % size] * (n % size > 0)


@pytest.mark.parametrize(
    "n", sorted({15, 16, 17, 33, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, _Z_CHUNK + 1})
)
@pytest.mark.parametrize("symmetric", [True])
@pytest.mark.parametrize("shuffled", [False, True])
def test_tile_scan_equals_per_z_oracle_at_tile_boundaries(monkeypatch, n, symmetric, shuffled):
    # a shuffled scan tiles the vertices in a random order, as a graph's
    # depth-first tiling would
    graph = None
    if shuffled:
        graph = SimpleNamespace(n=n)
        _tiled(monkeypatch, np.random.default_rng([n, symmetric]).permutation(n), _runs_of(_TILE, n))
    for seed in range(3):
        for d in (_signed_matrix(n, symmetric, 0, 0, seed), _near_metric(n, seed)):
            _assert_scan_is_the_oracle(graph, d)


def _mixed_sizes(n, seed):
    """Tile sizes from 1 to `_TILE` at random, summing to n."""
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, _TILE + 1)), n - sum(sizes)))
    return sizes


@pytest.mark.parametrize("n", [40, _Z_CHUNK + 1])
@pytest.mark.parametrize("tiling", ["ones", "tile-1", "tile", "mixed"])
@pytest.mark.parametrize("symmetric", [True])
def test_tile_scan_equals_per_z_oracle_on_tiles_of_any_size(monkeypatch, n, tiling, symmetric):
    # the graph's tiles vary in size, from a lone vertex up to `_TILE`
    sizes = {
        "ones": [1] * n,
        "tile-1": _runs_of(_TILE - 1, n),
        "tile": _runs_of(_TILE, n),
        "mixed": _mixed_sizes(n, n),
    }[tiling]
    _tiled(monkeypatch, np.random.default_rng([n, 1]).permutation(n), sizes)
    graph = SimpleNamespace(n=n)
    for seed in range(2):
        for d in (_signed_matrix(n, symmetric, 0, 0, seed), _near_metric(n, seed)):
            _assert_scan_is_the_oracle(graph, d)
        d = _signed_matrix(n, symmetric, 1, 1, seed)
        d[np.diag_indices(n)] = np.resize([np.inf, -np.inf, np.nan], n)
        _assert_scan_is_the_oracle(graph, d)


@pytest.mark.parametrize("symmetric", [True])
def test_tile_scan_keeps_inf_and_nan_semantics_in_any_order(monkeypatch, symmetric):
    _tiled(monkeypatch, np.random.default_rng(7).permutation(40), _runs_of(_TILE, 40))
    for plus, minus in [(1, 1), (3, 0), (0, 3), (3, 3)]:
        for seed in range(3):
            d = _signed_matrix(40, symmetric, plus, minus, seed)
            d[np.diag_indices(40)] = np.resize([np.inf, -np.inf, np.nan], 40)
            _assert_scan_is_the_oracle(SimpleNamespace(n=40), d)


def test_tile_scan_finds_a_planted_shortcut_among_pruned_tiles(monkeypatch):
    # the path metric on 600 points with d(100, 400) = 1: the worst triple
    # is 1 + (y - 400) - (y - 100) for any y > 400, found although most
    # tile pairs are pruned
    formed = _counting_tiles(monkeypatch)
    d = np.abs(np.subtract.outer(np.arange(600.0), np.arange(600.0)))
    d[100, 400] = d[400, 100] = 1.0
    got = ResistanceMatrix(None, d).triangle_slack()
    assert got == per_z_triangle_slack(d) == -299.0
    assert formed[0] < 600**3 / 4


def test_tile_slack_drops_the_x_equals_y_entries_without_a_warning():
    # a diagonal tile pair whose one kept z lies in the tile: best(0, 0) is
    # +inf over the z = x exclusion, less the scan's +inf diagonal, a NaN
    # that the x = y exclusion overwrites; the one triple left is
    # d(1, 0) + d(0, 2) - d(1, 2) = 2
    d = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    d[np.diag_indices(3)] = np.inf  # as the scan sets it for its minima
    zs, tile = np.array([0]), slice(0, 3)
    assert _resistance_module()._tile_slack(d[zs, tile], d[zs, tile], zs, tile, tile, d) == 2.0


def test_tile_scan_order_covers_every_vertex():
    # the tiles partition the vertices, each at most `_TILE` of them; each
    # tile is one piece of the depth-first tree, or pieces whose tops share
    # a parent there
    for g in (
        generate("binary-tree", radius=8),
        generate("nary-tree", radius=5, branching=3),
        generate("comb", radius=14),
        generate("lattice", radius=12),
        generate("chain", width=60),
        random_connected_graph(np.random.default_rng(4), 300, 150, base=9),
    ):
        graph = underlying(g)
        n = graph.n
        order, starts = _resistance_module()._tiles(graph, n)
        assert np.array_equal(np.sort(order), np.arange(n))
        sizes = np.diff(np.append(starts, n))
        assert starts[0] == 0 and sizes.min() >= 1 and sizes.max() <= _TILE
        _, pred = depth_first_order(graph.adjacency(), graph.base_point, directed=False)
        for lo, hi in zip(starts, np.append(starts[1:], n)):
            tile = order[lo:hi]
            tops = tile[~np.isin(pred[tile], tile)]
            assert len(tops) == 1 or len(set(pred[tops].tolist())) == 1, tile


def test_tile_scan_order_of_a_small_graph_and_of_a_wider_matrix():
    # label 2 (index 3) is reached before label 3 (index 2): one tile, in
    # depth-first order
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 3, 1.0)], 0)
    order, starts = _resistance_module()._tiles(g, 4)
    assert order.tolist() == [0, 1, 3, 2] and starts.tolist() == [0]
    d = _near_metric(4, 0)
    d[0, 3] = d[3, 0] = 50.0
    got = ResistanceMatrix(g, d).triangle_slack()
    assert _same_float(got, per_z_triangle_slack(d))
    # a matrix of another size than its graph is scanned in index order
    order, starts = _resistance_module()._tiles(g, 2 * _TILE + 1)
    assert order.tolist() == list(range(2 * _TILE + 1)) and starts.tolist() == [0, _TILE, 2 * _TILE]
    wider = _near_metric(6, 1)
    wider[0, 5] = wider[5, 0] = 50.0
    got = ResistanceMatrix(g, wider).triangle_slack()
    assert _same_float(got, per_z_triangle_slack(wider))


def test_tile_scan_forms_under_a_fifth_of_the_triples_on_a_binary_tree(monkeypatch):
    # the scan forms 4.32% of the n^3 / 2 triple sums here (7.39% in runs
    # of `_TILE` in depth-first order; 11.0% there when a bound that ties
    # the running minimum does not rule its z out)
    formed = _counting_tiles(monkeypatch)
    mat = resistance_matrix(generate("binary-tree", radius=8))
    n = mat.matrix.shape[0]
    assert mat.triangle_slack() >= -1e-12
    assert formed[0] < 0.08 * n**3 / 2, formed[0] / (n**3 / 2)


@pytest.mark.parametrize(
    "family, radius, params, runs, bound",
    [
        ("binary-tree", 8, {}, 4_928_351, 3_900_000),
        ("nary-tree", 5, {"branching": 3}, 2_779_856, 2_000_000),
        ("comb", 14, {}, 624_448, 520_000),
    ],
)
def test_subtree_tiles_form_fewer_triple_sums_than_depth_first_runs(
    monkeypatch, family, radius, params, runs, bound
):
    # tiles of whole subtrees form 2,881,931, 1,358,628 and 424,077 sums
    # here, against `runs` in runs of `_TILE` in depth-first order; each
    # bound lies at least 16% below `runs` and 22% above the new count
    formed = _counting_tiles(monkeypatch)
    mat = resistance_matrix(generate(family, radius=radius, **params))
    assert mat.triangle_slack() >= -1e-12
    assert formed[0] < bound < runs, formed[0]


def test_tile_scan_finds_a_nan_triple_after_the_minimum_reaches_minus_inf(monkeypatch):
    # d(0, 1) = -inf and the NaN triple d(40, 45) + d(45, 50) = inf + -inf
    # are refused before any scan.  At -1e300 and 1e300 in their place, tile
    # 0's diagonal pair drives the running minimum to -1e300 at once, and
    # tile 1 still yields the triple d(45, 50) + d(50, 40) - d(45, 40) =
    # -1e300 + 10 - 1e300 below it
    module = _resistance_module()
    lows = []
    tile_slack = module._tile_slack
    monkeypatch.setattr(module, "_tile_slack", lambda *args: lows.append(tile_slack(*args)) or lows[-1])
    d = np.abs(np.subtract.outer(np.arange(64.0), np.arange(64.0)))
    d[0, 1] = d[1, 0] = -np.inf
    d[40, 45] = d[45, 40] = np.inf
    d[45, 50] = d[50, 45] = -np.inf
    with pytest.raises(SolverError, match="resistance matrix has 6 non-finite entries"):
        ResistanceMatrix(None, d)
    d = _finite_extremes(d)
    got = ResistanceMatrix(None, d).triangle_slack()
    assert lows[0] == -1e300
    assert got == per_z_triangle_slack(d) == min(lows) == -2e300


KERNEL_GRAPHS = pytest.mark.parametrize(
    "g",
    [
        generate("binary-tree", radius=7),
        generate("lattice", radius=12),
        random_connected_graph(np.random.default_rng(3), 40, 30, base=7),
    ],
    ids=["binary-tree", "lattice", "random"],
)


def _assert_three_array_readout(kernel):
    before = kernel.matrix.copy()
    graph = kernel.graph
    k = np.zeros((graph.n, graph.n))
    k[np.ix_(kernel.vertices, kernel.vertices)] = kernel.matrix
    diag = np.diag(k)
    want = diag[:, None] + diag[None, :] - 2.0 * k
    np.fill_diagonal(want, 0.0)
    got = ResistanceMatrix.from_kernel(kernel).matrix
    assert got.tobytes() == want.tobytes()
    assert kernel.matrix.tobytes() == before.tobytes()


@KERNEL_GRAPHS
def test_kernel_matrix_is_the_three_array_readout_bit_for_bit(g):
    _assert_three_array_readout(greens_gram(g))


@KERNEL_GRAPHS
def test_kernel_matrix_readout_of_a_suffix_and_a_scattered_ground(g):
    # the frontier is a suffix of the vertices; three points cut the rest into runs
    graph = underlying(g)
    for ground in (getattr(g, "frontier", [graph.n - 1]), [2, 5, 6]):
        _assert_three_array_readout(_grounded_kernel(graph, ground))


def test_runs_of_no_vertices_are_empty():
    assert _resistance_module()._runs([]) == []
    assert _resistance_module()._runs([2, 3, 5]) == [(slice(2, 4), slice(0, 2)), (slice(5, 6), slice(2, 3))]


def test_matrix_csv(tmp_path, rng):
    g = random_connected_graph(rng, 5, 2)
    mat = resistance_matrix(g)
    path = tmp_path / "dist.csv"
    mat.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == g.n + 1
    got = np.array(
        [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    )
    assert np.array_equal(got, mat.matrix)


def wired_pinv_distances(trunc):
    """d(x, y) with the frontier shorted into one node, from the pseudo-inverse
    of the Laplacian Q^T L Q whose Q sends every frontier vertex to the first."""
    n = trunc.graph.n
    node = np.arange(n)
    node[trunc.frontier] = trunc.frontier[0]
    q = np.zeros((n, n))
    q[np.arange(n), node] = 1.0
    pinv = np.linalg.pinv(q.T @ dense_laplacian(trunc.graph) @ q)[np.ix_(node, node)]
    return np.add.outer(np.diag(pinv), np.diag(pinv)) - 2.0 * pinv


@pytest.mark.parametrize(
    "family,radius,params", [("binary-tree", 6, {}), ("lattice", 8, {}), ("comb", 6, {})]
)
def test_base_distances_are_the_base_row_of_the_matrix(family, radius, params):
    trunc = generate(family, radius=radius, **params)
    graph = trunc.graph
    row = radius_sweep(family, [radius], params)["per_radius"][0]
    assert row["n"] == graph.n
    free = resistance_matrix(graph).matrix[graph.base_point]
    assert row["free"]["max_base_distance"] == float(free.max())
    wired = wired_pinv_distances(trunc)[graph.base_point]
    assert row["wired"]["max_base_distance"] == pytest.approx(wired.max(), rel=1e-9)
    assert row["wired"]["max_base_distance"] < row["free"]["max_base_distance"]


def test_sweep_lattice_needs_one_net_in_both_metrics():
    report = radius_sweep("lattice", [16, 12, 20])
    assert [row["radius"] for row in report["per_radius"]] == [12, 16, 20]
    for row in report["per_radius"]:
        assert row["free"]["covering"] == row["wired"]["covering"] == [2, 4, 8, 13, 17]


def test_sweep_comb_teeth_stay_separated_in_the_free_metric():
    rows = radius_sweep("comb", [8, 10, 12, 14])["per_radius"]
    # each tooth end lies farther than D0 / 2 from every other point of the
    # net: one more net point per tooth, while d(base, .) stays below 2
    assert [row["free"]["covering"][0] for row in rows] == [7, 9, 11, 13]
    assert all(row["free"]["max_base_distance"] < 2.0 for row in rows)
    # shorting the frontier joins the tooth ends
    assert [row["wired"]["covering"][0] for row in rows] == [1, 1, 1, 1]
    assert [row["wired"]["covering"][2] for row in rows] == [8, 10, 12, 14]


def test_sweep_tree_rays_collapse_in_the_wired_metric():
    rows = radius_sweep("binary-tree", [5, 7, 9])["per_radius"]
    assert all(row["wired"]["covering"] == [1, 1, 2, 7, 8] for row in rows)
    assert [row["free"]["covering"][0] for row in rows] == [1, 5, 5]


def test_sweep_halfline_is_one_cauchy_ray():
    for row in radius_sweep("halfline", [8, 16])["per_radius"]:
        assert row["free"]["covering"] == row["wired"]["covering"] == [2, 3, 4, 4, 5]


def test_sweep_tells_a_bounded_metric_from_a_growing_one():
    # halfline edges carry c = e^k: d(0, r) is the partial sum of e^-k,
    # bounded by e / (e - 1); with growth 1 it is r itself
    limit = math.e / (math.e - 1.0)
    for row in radius_sweep("halfline", [4, 6, 8, 10])["per_radius"]:
        series = math.fsum(math.exp(-k) for k in range(row["radius"]))
        for metric in ("free", "wired"):
            assert row[metric]["max_base_distance"] == pytest.approx(series, rel=1e-12)
            assert row[metric]["max_base_distance"] < limit
    for row in radius_sweep("halfline", [4, 6, 8, 10], {"growth": 1.0})["per_radius"]:
        assert row["free"]["max_base_distance"] == pytest.approx(row["radius"], rel=1e-12)


def test_sweep_rejects_no_radii_and_an_empty_frontier():
    with pytest.raises(GraphError, match="at least one radius"):
        radius_sweep("halfline", [])
    with pytest.raises(GraphError, match="empty frontier"):
        radius_sweep("wye", [1])


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
