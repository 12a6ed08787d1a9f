"""Laplacian assembly, walk operator, Dirichlet solves, and the comb recursion."""

import numpy as np
import pytest

from resnet import laplacian
from resnet.energy import SolverError
from resnet.graphs import ConductanceGraph, GraphError, generate, truncate
from resnet.laplacian import (
    assemble_laplacian,
    defect_recursion_comb,
    grounded_laplacian,
    grounded_solve,
    harmonic_extension,
    interior_laplacian,
    transition_operator,
)

from conftest import (
    build_truncation,
    build_with_an_isolated_vertex,
    dense_laplacian,
    random_connected_graph,
)


def l2_symmetry_check(op, trials=100, seed=0):
    """Max |<Lu, v> - <u, Lv>| over random pairs; zero up to roundoff."""
    rng = np.random.default_rng(seed)
    n = op.graph.n
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        worst = max(worst, abs(np.dot(op.apply(u), v) - np.dot(u, op.apply(v))))
    return worst


def comb_forward_recursion(l0, l1, levels):
    """Iterate the comb recursion forward from (l_0, l_1).

    Generic seeds excite the non-decaying branch; the characteristic roots of
    the constant-coefficient limit are 1 and 1/2, so forward iterates settle
    toward the root-1 branch (successive ratios tend to 1).
    """
    out = np.empty(levels + 1)
    out[0], out[1] = l0, l1
    for k in range(1, levels):
        out[k + 1] = (3.0 * (1.0 + 1.0 / (3.0 * 2.0 ** k)) * out[k] - out[k - 1]) / 2.0
    return out


def test_assembly_matches_dense_oracle(rng):
    for n, extra in [(2, 0), (5, 3), (17, 10), (40, 25)]:
        g = random_connected_graph(rng, n, extra)
        lap = assemble_laplacian(g)
        assert np.allclose(lap.as_csr().toarray(), dense_laplacian(g), atol=1e-13)


def test_apply_and_quadratic_form(rng):
    g = random_connected_graph(rng, 12, 6)
    lap = assemble_laplacian(g)
    dense = dense_laplacian(g)
    u = rng.standard_normal(g.n)
    assert np.allclose(lap.apply(u), dense @ u)
    assert float(u @ lap.apply(u)) == pytest.approx(float(u @ dense @ u))
    # constants are in the kernel
    assert np.max(np.abs(lap.apply(np.ones(g.n)))) < 1e-12
    with pytest.raises(GraphError):
        lap.apply(np.zeros(g.n + 1))


def test_apply_to_a_block_is_apply_per_column(rng):
    for g in (random_connected_graph(rng, 30, 20), generate("binary-tree", radius=5).graph):
        lap = assemble_laplacian(g)
        for order in ("C", "F"):
            block = np.array(rng.standard_normal((g.n, 7)), order=order)
            out = lap.apply(block)
            for j in range(7):
                assert np.array_equal(out[:, j], lap.apply(block[:, j].copy()))
        for shape in ((g.n + 1, 2), (g.n, 2, 2), ()):
            with pytest.raises(GraphError, match="block"):
                lap.apply(np.zeros(shape))


def test_assembly_is_cached(rng):
    g = random_connected_graph(rng, 6)
    assert assemble_laplacian(g) is assemble_laplacian(g)
    assert transition_operator(g) is transition_operator(g)


def test_transition_rows_and_reversibility(rng):
    g = random_connected_graph(rng, 15, 8)
    p = transition_operator(g).toarray()
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0.0)
    # detailed balance: c(x) p_xy = c_xy = c(y) p_yx
    deg = np.asarray(g.degrees)
    balanced = deg[:, None] * p
    assert np.allclose(balanced, balanced.T)
    assert np.allclose(balanced, g.adjacency().toarray())


def test_transition_rejects_zero_degree(rng):
    # a vertex without edges would have no row; the graph is refused when it is built
    with pytest.raises(GraphError, match="zero-degree"):
        build_with_an_isolated_vertex()
    p = transition_operator(random_connected_graph(rng, 12, 5))
    assert np.allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0, rtol=0, atol=1e-14)


def test_l2_symmetry_of_laplacian(rng):
    g = random_connected_graph(rng, 20, 12)
    assert l2_symmetry_check(assemble_laplacian(g), trials=25) < 1e-10


def test_grounded_laplacian_block_solve_and_cache(rng):
    g = random_connected_graph(rng, 15, 9)
    kept, block, lu = grounded_laplacian(g, [4, 0])
    assert kept.tolist() == [i for i in range(g.n) if i not in (0, 4)]
    dense = dense_laplacian(g)[np.ix_(kept, kept)]
    assert np.allclose(block.toarray(), dense, atol=1e-13)
    b = rng.standard_normal(len(kept))
    assert np.allclose(dense @ lu.solve(b), b, atol=1e-10)
    assert grounded_laplacian(g, [0, 4])[2] is lu
    assert grounded_laplacian(g, 0)[2] is not lu


# one graph of every family
BLOCK_GRAPHS = [
    ("lattice", 12, {}),
    ("lattice", 4, {"d": 3}),
    ("comb", 10, {}),
    ("binary-tree", 7, {}),
    ("nary-tree", 4, {"branching": 3}),
    ("chain", None, {"width": 60}),
    ("halfline", 8, {}),
    ("wye", None, {"r1": 1.0, "r2": 2.0, "r3": 3.0}),
    ("bratteli", None, {"level_sizes": [1, 3, 2, 4], "level_weights": [1.0, 2.0, 0.25]}),
    ("explicit", 2, {"edges": [("a", 1, 1.0), (1, (2,), 2.0), ((2,), "b", 0.5)], "base_point": "a"}),
]


def _sliced_block(g, kept):
    """The grounded block as it was cut out of the assembled sparse Laplacian."""
    return assemble_laplacian(g).as_csr()[kept][:, kept].tocsc()


def _same_arrays(block, sliced):
    assert block.format == sliced.format == "csc" and block.shape == sliced.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(block, name), getattr(sliced, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("family,radius,params", BLOCK_GRAPHS)
def test_grounded_block_equals_the_sliced_laplacian(family, radius, params):
    trunc = build_truncation(family, radius, params)
    g = trunc.graph
    for ground in ([g.base_point], trunc.frontier):
        if len(ground):
            kept, block, _ = grounded_laplacian(g, ground)
            assert np.array_equal(kept, np.setdiff1d(np.arange(g.n), ground))
            _same_arrays(block, _sliced_block(g, kept))


def test_grounded_block_of_two_ground_points_and_an_isolated_vertex(rng):
    g = random_connected_graph(rng, 15, 9)
    kept, block, _ = grounded_laplacian(g, [4, 0])
    _same_arrays(block, _sliced_block(g, kept))
    # grounding the middle of a path leaves two unjoined ends; an isolated
    # vertex never reaches a block, as its graph is refused when it is built
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 3, 2.0)], 0)
    kept, block = laplacian._grounded_block(g, np.array([1]))
    _same_arrays(block, _sliced_block(g, kept))
    with pytest.raises(GraphError, match="zero-degree"):
        build_with_an_isolated_vertex()


def test_adjacency_product_is_the_sparse_product(rng):
    for family, radius, params in BLOCK_GRAPHS[:3]:
        lap = assemble_laplacian(generate(family, radius=radius, **params))
        n = lap.graph.n
        block = rng.standard_normal((n, 5))
        blocks = [
            np.ascontiguousarray(block),
            np.asfortranarray(block),
            np.asfortranarray(block)[:, [True, False, True, True, False]],  # a CG block after columns leave
            block[:, ::2],  # a strided view
            block[:, :1],
        ]
        for u in [rng.standard_normal(n)] + blocks:
            want = (lap.offdiag @ u).tobytes()
            for order in "CF":
                out = np.full(u.shape, np.nan, order=order)
                assert lap.adjacency_product(u, out) is out
                assert out.tobytes() == want, (u.shape, u.flags.c_contiguous, order)


def test_grounded_laplacian_singular_block_is_a_solver_error(monkeypatch):
    # every built graph is connected, so no grounded block is singular in exact
    # arithmetic; a factorization that fails all the same is a SolverError
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(laplacian, "splu", singular)
    with pytest.raises(SolverError, match="^grounded factorization failed: Factor is exactly singular$"):
        grounded_laplacian(generate("halfline", radius=3), 0)


def test_grounded_solve_vanishes_on_the_ground_and_solves_off_it(rng):
    g = random_connected_graph(rng, 15, 9)
    ground = [4, 0]
    kept = [i for i in range(g.n) if i not in ground]
    rhs = rng.standard_normal((g.n, 3))
    u = grounded_solve(g, ground, rhs)
    assert u.shape == (g.n, 3)
    assert np.all(u[ground] == 0.0)
    assert np.allclose((dense_laplacian(g) @ u)[kept], rhs[kept], atol=1e-10)
    rhs[ground] = 99.0  # ground rows of the right-hand side are not read
    for k in range(3):
        assert np.array_equal(grounded_solve(g, ground, rhs[:, k]), u[:, k])


def test_interior_block_is_the_frontier_grounded_case():
    trunc = generate("lattice", radius=4)
    block, lu = interior_laplacian(trunc)
    kept, same_block, same_lu = grounded_laplacian(trunc, trunc.frontier)
    assert np.array_equal(kept, trunc.interior)
    assert block is same_block and lu is same_lu


def test_interior_block_requires_truncation(rng):
    g = random_connected_graph(rng, 6)
    with pytest.raises(GraphError, match="an interior solve needs a truncation carrying a frontier"):
        interior_laplacian(g)


def test_interior_block_requires_a_nonempty_frontier():
    # a finite graph's whole Laplacian is singular: it must not reach splu
    with pytest.raises(GraphError, match="an interior solve needs a nonempty frontier"):
        interior_laplacian(generate("wye"))


def test_harmonic_extension_solves_dirichlet_problem(rng):
    trunc = truncate(generate("lattice", radius=4, d=2), 4)
    f = rng.standard_normal(len(trunc.frontier))
    h = harmonic_extension(trunc, f)
    assert np.allclose(h[trunc.frontier], f)
    residual = assemble_laplacian(trunc).apply(h)[trunc.interior]
    assert np.max(np.abs(residual)) < 1e-10
    # maximum principle: interior values lie strictly inside the boundary range
    assert h[trunc.interior].min() > f.min() - 1e-12
    assert h[trunc.interior].max() < f.max() + 1e-12


@pytest.mark.parametrize(
    "family,radius", [("lattice", 5), ("comb", 6), ("binary-tree", 4)]
)
def test_block_extension_equals_its_columns(family, radius, rng):
    trunc = generate(family, radius=radius)
    block = rng.standard_normal((len(trunc.frontier), 4))
    h = harmonic_extension(trunc, block)
    assert h.shape == (trunc.graph.n, 4)
    for k in range(4):
        assert np.array_equal(h[:, k], harmonic_extension(trunc, block[:, k]))


def test_harmonic_extension_of_constants_is_constant():
    trunc = generate("binary-tree", radius=3, b_plus=2.0)
    h = harmonic_extension(trunc, np.full(len(trunc.frontier), 7.5))
    assert np.allclose(h, 7.5)


def test_harmonic_extension_validates_input():
    trunc = truncate(generate("halfline", radius=5), 5)
    with pytest.raises(GraphError, match="boundary values"):
        harmonic_extension(trunc, np.zeros(len(trunc.frontier) + 1))
    with pytest.raises(GraphError, match="boundary values"):
        harmonic_extension(trunc, np.zeros((len(trunc.frontier), 2, 2)))


def test_harmonic_extension_needs_frontier():
    g = generate("wye", r1=1.0, r2=2.0, r3=3.0)
    trunc = truncate(g, 10)  # radius beyond the graph: empty frontier
    assert len(trunc.frontier) == 0
    with pytest.raises(GraphError, match="frontier"):
        harmonic_extension(trunc, np.zeros(0))


# -- comb defect recursion ------------------------------------------------------


def test_defect_recursion_frozen_values():
    report = defect_recursion_comb(60)
    assert report.values[0] == 1.0
    assert report.values[1] == pytest.approx(0.37875945356992763, rel=1e-9)
    assert report.limit == pytest.approx(0.5544269345922387, rel=1e-9)
    assert report.energy_sum == pytest.approx(0.5325662552463691, rel=1e-9)
    assert report.max_residual <= 1e-12
    assert report.stabilized


def test_defect_recursion_is_decreasing_and_scaled_tail_flat():
    report = defect_recursion_comb(50)
    assert np.all(np.diff(report.values) < 0)
    assert np.all(report.values > 0)
    tail = report.scaled[-10:]
    assert np.max(np.abs(tail - tail[-1])) < 1e-8


def test_defect_recursion_guards():
    with pytest.raises(GraphError):
        defect_recursion_comb(9)
    with pytest.raises(GraphError):
        defect_recursion_comb(401)
    with pytest.raises(GraphError):
        defect_recursion_comb(12.0)


def test_forward_recursion_locks_onto_unit_root():
    out = comb_forward_recursion(1.0, 2.0, 30)
    ratios = out[1:] / out[:-1]
    assert abs(ratios[28] - 1.0) < 1e-7
    # the decaying branch instead keeps ratios near 1/2 for many levels
    decaying = defect_recursion_comb(30).values
    dratios = decaying[1:] / decaying[:-1]
    assert abs(dratios[28] - 0.5) < 1e-3

