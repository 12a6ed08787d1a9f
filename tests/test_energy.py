"""Energy inner product, dipole solves, and the product-energy certificate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resnet import energy
from resnet.energy import (
    SolverError,
    _column_dots,
    _pcg,
    _energy_form,
    delta,
    energy_inner,
    gauged,
    pointwise_product,
    pointwise_products,
    reproducing_check,
    reproducing_checks,
    solve_dipole,
    solve_dipoles,
)
from resnet.graphs import GraphError, as_truncated, generate
from resnet.laplacian import _dipole_rhs, _tree_solve, assemble_laplacian
from resnet.resistance import resistance

from conftest import (
    build_with_an_isolated_vertex,
    dense_laplacian,
    count_calls,
    exact_resistances,
    exact_tree_distance,
    parent_solve_dipole,
    per_pair_dipoles,
    pinv_resistance,
    random_connected_graph,
    vector_energy_inner,
)


def oracle_dipole(graph, x, y):
    """Least-squares solve of L v = e_x - e_y, gauged at the base point."""
    b = np.zeros(graph.n)
    b[x], b[y] = 1.0, -1.0
    v = np.linalg.lstsq(dense_laplacian(graph), b, rcond=None)[0]
    return v - v[graph.base_point]


def delta_expansion_check(g, x, tol=1e-10):
    """Max-norm defect of delta_x = c(x) v_x - sum_{y~x} c_xy v_y.

    All dipoles v_* are grounded at the base point; the identity is exact on
    a finite graph, so the returned defect reflects solver tolerance only.
    """
    base = g.base_point
    nbrs, wts = g.neighbors(x)
    rhs = np.zeros(g.n)
    if x != base:
        rhs += g.weighted_degree(x) * solve_dipole(g, x, base, tol).values
    for y, w in zip(nbrs, wts):
        if int(y) != base:
            rhs -= w * solve_dipole(g, int(y), base, tol).values
    return float(np.max(np.abs(rhs - delta(g, x).values)))


def test_energy_agrees_with_quadratic_form(rng):
    g = random_connected_graph(rng, 14, 9)
    lap = assemble_laplacian(g)
    u_raw = rng.standard_normal(g.n)
    v_raw = rng.standard_normal(g.n)
    u, v = gauged(g, u_raw), gauged(g, v_raw)
    # the edge form against the product form u^T L u
    assert energy_inner(u, u) == pytest.approx(float(u_raw @ lap.apply(u_raw)))
    # polarization: the inner product is the Laplacian bilinear form
    assert energy_inner(u, v) == pytest.approx(float(u_raw @ lap.apply(v_raw)))


def test_gauge_invariance(rng):
    g = random_connected_graph(rng, 8, 3)
    raw = rng.standard_normal(g.n)
    shifted = gauged(g, raw + 17.0)
    plain = gauged(g, raw)
    assert np.allclose(shifted.values, plain.values)
    assert shifted.energy == pytest.approx(plain.energy)
    assert plain.values[g.base_point] == 0.0
    assert not plain.values.flags.writeable


def test_energy_vector_validation(rng):
    g = random_connected_graph(rng, 5)
    with pytest.raises(GraphError, match="expected 5 values"):
        gauged(g, np.zeros(6))
    with pytest.raises(GraphError, match="same graph"):
        energy_inner(gauged(g, np.zeros(5)), gauged(random_connected_graph(rng, 5), np.zeros(5)))


def test_delta_vectors(rng):
    g = random_connected_graph(rng, 7, 2)
    d = delta(g, 3)
    expect = np.zeros(7)
    expect[3] = 1.0
    assert np.array_equal(d.values, expect)
    base = delta(g, g.base_point)
    assert np.array_equal(base.values, np.where(np.arange(7) == g.base_point, 0.0, -1.0))
    with pytest.raises(GraphError, match="out of range"):
        delta(g, 7)


def test_dipole_matches_dense_oracle(rng):
    for n, extra in [(2, 0), (6, 4), (23, 15)]:
        g = random_connected_graph(rng, n, extra)
        x, y = 0, n - 1
        dip = solve_dipole(g, x, y, tol=1e-12)
        assert np.allclose(dip.values, oracle_dipole(g, x, y), atol=1e-8)
        assert dip.solve_residual <= 1e-10
        b = np.zeros(n)
        b[x], b[y] = 1.0, -1.0
        assert np.allclose(dense_laplacian(g) @ dip.values, b, atol=1e-8)


def test_dipole_energy_is_effective_resistance(rng):
    g = random_connected_graph(rng, 18, 10)
    dip = solve_dipole(g, 2, 11, tol=1e-12)
    assert dip.energy == pytest.approx(pinv_resistance(g, 2, 11), rel=1e-8)


def test_dipole_solve_on_an_isolated_vertex_is_a_graph_error():
    # the graph is refused when it is built, before any dipole solve can meet the vertex
    with pytest.raises(GraphError, match=r"zero-degree: vertices without edges: \[2\]"):
        build_with_an_isolated_vertex()


def test_dipole_endpoint_guards(rng):
    g = random_connected_graph(rng, 6)
    with pytest.raises(GraphError, match="must differ"):
        solve_dipole(g, 2, 2)
    with pytest.raises(GraphError, match="out of range"):
        solve_dipole(g, 0, 6)
    with pytest.raises(GraphError, match="tol"):
        solve_dipole(g, 0, 1, tol=0.0)


def test_dipole_rejects_a_nan_tolerance(rng):
    # every residual comparison with NaN is False: PCG would run on until it broke down
    g = random_connected_graph(rng, 6)
    for tol in (float("nan"), -1e-10):
        with pytest.raises(GraphError, match="tol must be positive"):
            solve_dipole(g, 0, 1, tol=tol)
        with pytest.raises(GraphError, match="tol must be positive"):
            solve_dipoles(g, [(0, 1)], tol=tol)


def test_underflowed_preconditioned_residual_is_a_breakdown():
    # r . D^-1 r underflows to 0 while ||r|| is about 5e-160; dividing by it
    # raised ZeroDivisionError out of the solver
    g = generate("lattice", radius=12).graph
    with pytest.raises(SolverError, match="broke down at residual 5.318e-160 after 492 iterations"):
        solve_dipole(g, g.index_of((7, 4)), g.index_of((5, 5)), tol=1e-300)


CHECK_FAMILIES = [
    ("lattice", 15, {}),
    ("lattice", 20, {}),
    ("comb", 14, {}),
    ("binary-tree", 8, {}),
    ("binary-tree", 9, {}),
    ("nary-tree", 5, {"branching": 3}),
    ("chain", None, {"width": 60}),
]


@pytest.mark.parametrize("family,radius,params", CHECK_FAMILIES)
def test_block_dipoles_equal_single_solves_bitwise(family, radius, params):
    g = generate(family, radius=radius, **params).graph
    rng = np.random.default_rng(11)
    pairs = [tuple(int(v) for v in rng.choice(g.n, size=2, replace=False)) for _ in range(12)]
    pairs += [pairs[0], pairs[3][::-1], (g.base_point, g.n - 1)]  # repeated, reversed, base
    block = solve_dipoles(g, pairs, tol=1e-12)
    assert len(block) == len(pairs)
    for (x, y), got, want in zip(pairs, block, per_pair_dipoles(g, pairs, tol=1e-12)):
        assert (got.source, got.sink) == (x, y)
        assert got.values.tobytes() == want.values.tobytes(), (x, y)
        assert got.iterations == want.iterations, (x, y)
        assert got.solve_residual == want.solve_residual, (x, y)
        assert not got.values.flags.writeable


def _dipole_outcome(solve, *args):
    """Every bit of a single dipole solve, or its error's message, residual and step."""
    try:
        v = solve(*args)
    except SolverError as exc:
        return str(exc), exc.residual, exc.iterations
    return v.values.tobytes(), v.source, v.sink, v.solve_residual, v.iterations


@pytest.mark.parametrize("family,radius,params", CHECK_FAMILIES + [
    ("lattice", 12, {}),
    ("lattice", 24, {}),
    ("comb", 16, {}),
    ("nary-tree", 6, {"branching": 3}),
])
def test_single_dipole_is_the_parent_solve_bitwise(family, radius, params):
    g = generate(family, radius=radius, **params).graph
    rng = np.random.default_rng(23)
    pairs = [tuple(int(v) for v in rng.choice(g.n, size=2, replace=False)) for _ in range(6)]
    pairs.append((g.base_point, g.n - 1))
    for x, y in pairs:
        for tol in (1e-10, 1e-300):
            got = _dipole_outcome(solve_dipole, g, x, y, tol)
            assert got == _dipole_outcome(parent_solve_dipole, g, x, y, tol), (x, y, tol)


def test_a_single_pair_reaches_the_loop_as_a_vector(monkeypatch):
    g = generate("lattice", radius=6).graph
    shapes = []
    count_calls(monkeypatch, energy, ["_pcg"], where=lambda lap, rhs, tol: shapes.append(rhs.shape))
    solve_dipole(g, 1, 9)
    solve_dipoles(g, [(1, 9)])
    solve_dipoles(g, [(1, 9), (2, 5)])
    assert shapes == [(g.n,), (g.n,), (g.n, 2)]


def test_dipole_solves_reject_a_non_integer_vertex(rng):
    g = random_connected_graph(rng, 6, 2)
    for x, y in [(1.5, 3), (1, 3.0), ("1", 3), (None, 3)]:
        with pytest.raises(GraphError, match="is not an integer"):
            solve_dipole(g, x, y)
        with pytest.raises(GraphError, match="is not an integer"):
            solve_dipoles(g, [(0, 2), (x, y)])  # checked before any conversion
    got = solve_dipoles(g, [(np.int64(1), np.int32(3))])[0]
    assert (type(got.source), type(got.sink)) == (int, int)
    assert got.values.tobytes() == solve_dipole(g, 1, 3).values.tobytes()


def test_delta_rejects_a_non_integer_vertex(rng):
    g = random_connected_graph(rng, 6)
    for x in (1.5, 1.0, "1"):
        with pytest.raises(GraphError, match="is not an integer"):
            delta(g, x)
    assert np.array_equal(delta(g, np.int64(2)).values, delta(g, 2).values)


# the `check` families and the graphs of the benchmark's `queries` workload
PCG_GRAPHS = CHECK_FAMILIES + [
    ("lattice", 12, {}),
    ("lattice", 24, {}),
    ("comb", 16, {}),
    ("nary-tree", 6, {"branching": 3}),
]


def _pcg_pairs(g):
    rng = np.random.default_rng(17)
    pairs = [tuple(int(v) for v in rng.choice(g.n, size=2, replace=False)) for _ in range(4)]
    return pairs + [(g.base_point, g.n - 1)]


def _m7(g, u, x, y):
    """(u(x) - u(y))^2 / E(u): the Dirichlet quotient of route M7."""
    v = gauged(g, u)
    return (v.values[x] - v.values[y]) ** 2 / v.energy


@pytest.mark.parametrize("family,radius,params", PCG_GRAPHS)
def test_pcg_columns_are_right_to_their_tolerance(family, radius, params):
    # the reference is exact on the trees and lattice 12, and M3 (itself
    # within 1e-15 of exact, see test_exact_reference) on the larger lattices;
    # the worst gap measured is 4.1e-16
    g = generate(family, radius=radius, **params).graph
    lap = assemble_laplacian(g)
    pairs = _pcg_pairs(g)
    block = np.zeros((g.n, len(pairs)), order="F")
    for j, (x, y) in enumerate(pairs):
        block[x, j], block[y, j] = 1.0, -1.0
    u, _, errors = _pcg(lap, block, 1e-10)
    assert errors == [None] * len(pairs)
    if g.num_edges == g.n - 1:
        exact = {(x, y): exact_tree_distance(g, x, y) for x, y in pairs}
    elif g.n < 100:
        exact = exact_resistances(g, pairs)
    else:
        exact = {(x, y): resistance(g, x, y, method="M3") for x, y in pairs}
    residual = np.linalg.norm(lap.apply(u) - block, axis=0) / np.sqrt(2.0)
    for j, (x, y) in enumerate(pairs):
        assert _m7(g, u[:, j], x, y) == pytest.approx(float(exact[x, y]), rel=1e-14, abs=0), (x, y)
        assert residual[j] <= 1e-10, (x, y)


def test_pcg_on_lattice_40_is_within_1e_14_of_m3():
    # conductances span 2.7 to 2.4e17; over 80 seeded pairs the product-form
    # step was 4.8e-15 off M3 at worst, the edge form 8.1e-16
    g = generate("lattice", radius=40).graph
    pairs = _pcg_pairs(g)
    for v, (x, y) in zip(solve_dipoles(g, pairs), pairs):
        m3 = resistance(g, x, y, method="M3")
        assert _m7(g, v.values, x, y) == pytest.approx(m3, rel=1e-14, abs=0), (x, y)


TREES = [
    ("binary-tree", 9, {}),
    ("comb", 16, {}),
    ("nary-tree", 6, {"branching": 3}),
    ("chain", None, {"width": 60}),
    ("halfline", 32, {}),
]


@pytest.mark.parametrize("family,radius,params", TREES)
def test_trees_take_at_most_two_steps_per_column(family, radius, params):
    # the exact tree solve preconditions them; Jacobi took a median of 88
    # steps on binary-tree 9, 254 on comb 16 and 59 on chain 60
    g = generate(family, radius=radius, **params).graph
    assert g.num_edges == g.n - 1
    rng = np.random.default_rng(29)
    pairs = [tuple(int(v) for v in rng.choice(g.n, size=2, replace=False)) for _ in range(25)]
    pairs.append((g.base_point, g.n - 1))
    for v, (x, y) in zip(solve_dipoles(g, pairs), pairs):
        assert v.iterations <= 2, (x, y)
        assert solve_dipole(g, x, y).iterations <= 2, (x, y)


def test_the_tree_solve_is_exact_on_a_tree():
    g = generate("comb", radius=6).graph
    u, iterations, errors = _pcg(assemble_laplacian(g), _dipole_rhs(g.n, [(3, g.n - 2)]), 1e-10)
    assert errors == [None] and iterations.tolist() == [1]
    # any right-hand side off the base, mean-free or not, gets the
    # base-grounded solve
    rng = np.random.default_rng(3)
    r = rng.standard_normal((g.n - 1, 4))
    z = np.zeros((g.n, 4))
    z[1:] = _tree_solve(g).solve(r)
    assert g.base_point == 0
    assert np.max(np.abs(assemble_laplacian(g).apply(z)[1:] - r)) < 1e-13
    for j in range(4):
        col = r[:, j].copy()
        assert _tree_solve(g).solve(col).tobytes() == z[1:, j].tobytes()


def test_block_dipoles_of_no_pairs(rng):
    g = random_connected_graph(rng, 5)
    assert solve_dipoles(g, []) == []


def test_block_dipoles_guard_every_pair_before_solving(rng):
    g = random_connected_graph(rng, 6)
    with pytest.raises(GraphError, match="must differ"):
        solve_dipoles(g, [(0, 1), (2, 2)])
    with pytest.raises(GraphError, match="out of range"):
        solve_dipoles(g, [(0, 1), (0, 6)])
    with pytest.raises(GraphError, match="out of range"):
        solve_dipoles(g, [(-1, 2)])


def test_block_raises_the_first_failing_pair_in_input_order():
    # at tol 1e-300 (2,3)-(2,1) breaks down first, at step 211, and (0,6)-(3,1)
    # converges at step 210, but the per-pair loop raises for (0,1)-(0,2),
    # which breaks down at step 212
    g = generate("lattice", radius=6).graph
    labels = [((0, 1), (0, 2)), ((0, 6), (3, 1)), ((2, 3), (2, 1))]
    pairs = [(g.index_of(a), g.index_of(b)) for a, b in labels]
    with pytest.raises(SolverError) as single:
        per_pair_dipoles(g, pairs, tol=1e-300)
    with pytest.raises(SolverError) as block:
        solve_dipoles(g, pairs, tol=1e-300)
    assert str(block.value) == str(single.value)
    assert str(block.value) == "dipole solve broke down at residual 1.853e-161 after 212 iterations"
    assert (block.value.residual, block.value.iterations) == (
        single.value.residual,
        single.value.iterations,
    )
    # a column that stalls at the cap of 20 n steps still comes first when it
    # is first in input order, though the other column broke down at step 211
    labels = [((2, 1), (3, 3)), ((2, 3), (2, 1))]
    pairs = [(g.index_of(a), g.index_of(b)) for a, b in labels]
    with pytest.raises(SolverError) as single:
        per_pair_dipoles(g, pairs, tol=1e-300)
    with pytest.raises(SolverError) as block:
        solve_dipoles(g, pairs, tol=1e-300)
    assert str(block.value) == str(single.value)
    assert str(block.value) == "dipole solve stalled at residual 3.009e-145 after 560 iterations"


def test_dipole_solver_error_carries_state():
    g = generate("halfline", radius=40).graph
    with pytest.raises(SolverError) as exc:
        solve_dipole(g, 0, g.n - 1, tol=1e-300)
    assert exc.value.residual > 0.0
    assert 0 < exc.value.iterations <= max(20 * g.n, 50)


def test_reproducing_property(rng):
    g = random_connected_graph(rng, 20, 12)
    for _ in range(10):
        x, y = rng.choice(g.n, size=2, replace=False)
        dip = solve_dipole(g, int(x), int(y), tol=1e-12)
        f = gauged(g, rng.standard_normal(g.n))
        assert reproducing_check(dip, f) < 1e-8


def test_reproducing_on_generated_families():
    for trunc in [
        generate("halfline", radius=7),
        generate("lattice", radius=3, d=2),
        generate("comb", radius=3),
    ]:
        g = trunc.graph
        dip = solve_dipole(g, g.n - 1, 0, tol=1e-12)
        f = gauged(g, np.sin(np.arange(g.n)))
        assert reproducing_check(dip, f) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    extra=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_product_energy_bound_never_violated(n, extra, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra)
    u = gauged(g, rng.uniform(-2.0, 2.0, size=n))
    w = gauged(g, rng.uniform(-2.0, 2.0, size=n))
    prod, cert = pointwise_product(u, w)
    assert np.array_equal(prod.values + prod.values[g.base_point], u.values * w.values)
    assert cert.slack >= -1e-9 * max(1.0, cert.bound)


def test_product_requires_shared_graph(rng):
    a = random_connected_graph(rng, 4)
    b = random_connected_graph(rng, 4)
    with pytest.raises(GraphError, match="same graph"):
        pointwise_product(gauged(a, np.zeros(4)), gauged(b, np.zeros(4)))


def test_delta_expansion_identity(rng):
    g = random_connected_graph(rng, 12, 6)
    assert delta_expansion_check(g, 5, tol=1e-12) < 1e-8
    wye = generate("wye", r1=1.0, r2=2.0, r3=3.0).graph
    assert delta_expansion_check(wye, 0, tol=1e-12) < 1e-8


# -- block forms ---------------------------------------------------------------


def parent_pointwise_product(u, w):
    """`pointwise_product` before its block form: (product values, product
    energy, bound) from vector energies and Python's float ** 2."""
    prod = gauged(u.graph, u.values * w.values)
    energies = vector_energy_inner(u, u) + vector_energy_inner(w, w)
    bound = (u.sup_norm() ** 2 + w.sup_norm() ** 2) * energies
    return prod.values, vector_energy_inner(prod, prod), bound


def parent_reproducing_check(v, f):
    """`reproducing_check` before its block form."""
    increment = float(f.values[v.source] - f.values[v.sink])
    return abs(vector_energy_inner(v, f) - increment)


BLOCK_GRAPHS = [
    lambda: generate("lattice", radius=8).graph,
    lambda: generate("binary-tree", radius=6).graph,
    lambda: as_truncated(random_connected_graph(np.random.default_rng(5), 40, 30, base=7)).graph,
]


def gauged_block(g, raw, order):
    """The columns of `raw`, each gauged as `gauged` does, in the given memory order."""
    return np.array(np.array([gauged(g, col).values for col in raw.T]).T, order=order)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 200])
@pytest.mark.parametrize("make", BLOCK_GRAPHS, ids=["lattice-8", "binary-tree-6", "random-40"])
def test_energy_form_is_energy_inner_per_column(make, k, order):
    g = make()
    rng = np.random.default_rng(k)
    a = gauged_block(g, rng.standard_normal((g.n, k)), order)
    b = gauged_block(g, rng.standard_normal((g.n, k)), order)
    cross, self_a = _energy_form(g, a, b), _energy_form(g, a)
    assert cross.shape == self_a.shape == (k,)
    for j in range(k):
        u, v = gauged(g, a[:, j]), gauged(g, b[:, j])
        assert cross[j] == vector_energy_inner(u, v) == energy_inner(u, v)
        assert self_a[j] == vector_energy_inner(u, u) == energy_inner(u, u) == u.energy
    # np.dot on strided columns takes another BLAS path, which rounds
    # differently: _column_dots matches it on contiguous copies, whatever the order
    dots = [np.dot(a[:, j].copy(), b[:, j].copy()) for j in range(k)]
    assert np.array_equal(_column_dots(a, b), dots)


@pytest.mark.parametrize("make", BLOCK_GRAPHS, ids=["lattice-8", "binary-tree-6", "random-40"])
def test_single_forms_are_unchanged(make):
    g = make()
    rng = np.random.default_rng(11)
    for _ in range(20):
        u, w = (gauged(g, rng.uniform(-3.0, 3.0, g.n)) for _ in range(2))
        prod, cert = pointwise_product(u, w)
        values, energy, bound = parent_pointwise_product(u, w)
        assert np.array_equal(prod.values, values)
        assert (prod.energy, cert.product_energy, cert.bound) == (energy, energy, bound)
    pairs = [rng.choice(g.n, size=2, replace=False) for _ in range(10)]
    for v in solve_dipoles(g, pairs, tol=1e-12):
        f = gauged(g, rng.standard_normal(g.n))
        assert reproducing_check(v, f) == parent_reproducing_check(v, f)
    # a sup norm s whose square rounds one way as s * s and the other as
    # s ** 2, far enough to move the bound: the bound must take s ** 2
    w = gauged(g, rng.uniform(-1.0, 1.0, g.n))
    u_raw = rng.uniform(-1.0, 1.0, g.n)
    u_raw[g.base_point] = 0.0
    for s in rng.uniform(1.0, 2.0, 100_000).tolist():
        if s * s == s**2:
            continue
        u_raw[(g.base_point + 1) % g.n] = s
        u = gauged(g, u_raw)
        energies = vector_energy_inner(u, u) + vector_energy_inner(w, w)
        bound = parent_pointwise_product(u, w)[2]
        if (s * s + w.sup_norm() ** 2) * energies != bound:
            break
    else:
        # a libm whose pow is correctly rounded has s ** 2 == s * s for every s
        pytest.skip("no sup norm in the sample squares differently as s * s and s ** 2")
    assert pointwise_product(u, w)[1].bound == bound


@pytest.mark.parametrize("make", BLOCK_GRAPHS, ids=["lattice-8", "binary-tree-6", "random-40"])
def test_block_forms_equal_single_forms_per_column(make):
    g = make()
    rng = np.random.default_rng(12)
    u_raw, w_raw = rng.standard_normal((2, 200, g.n))  # un-gauged: the block form gauges
    prod, cert = pointwise_products(g, u_raw.T, w_raw.T)
    assert prod.shape == (g.n, 200)
    assert cert.product_energy.shape == cert.bound.shape == (200,)
    for j in range(200):
        one, single = pointwise_product(gauged(g, u_raw[j]), gauged(g, w_raw[j]))
        assert np.array_equal(prod[:, j], one.values)
        assert (cert.product_energy[j], cert.bound[j]) == (single.product_energy, single.bound)
    pairs = [rng.choice(g.n, size=2, replace=False) for _ in range(25)]
    dipoles = solve_dipoles(g, pairs, tol=1e-12)
    fs = [gauged(g, rng.standard_normal(g.n)) for _ in pairs]
    got = reproducing_checks(dipoles, np.array([f.values for f in fs]).T)
    assert np.array_equal(got, [reproducing_check(v, f) for v, f in zip(dipoles, fs)])


def test_block_form_guards(rng):
    g = random_connected_graph(rng, 6, 2)
    with pytest.raises(GraphError, match="blocks"):
        pointwise_products(g, np.zeros((6, 3)), np.zeros((6, 2)))
    with pytest.raises(GraphError, match="blocks"):
        pointwise_products(g, np.zeros(6), np.zeros(6))
    dipoles = solve_dipoles(g, [(1, 2), (3, 4)])
    with pytest.raises(GraphError, match="got shape"):
        reproducing_checks(dipoles, np.zeros((6, 3)))
    other = solve_dipole(random_connected_graph(rng, 6, 2), 1, 2)
    with pytest.raises(GraphError, match="same graph"):
        reproducing_checks([dipoles[0], other], np.zeros((6, 2)))
    with pytest.raises(GraphError, match="same graph"):
        reproducing_check(other, gauged(g, np.zeros(6)))
    assert reproducing_checks([], np.zeros((6, 0))).shape == (0,)
