"""Green kernels by the gram and walk routes, plus the closed-form benchmarks."""

import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from resnet import greens as greens_mod
from resnet import laplacian as laplacian_mod
from resnet.energy import SolverError, solve_dipole
from resnet.graphs import ConductanceGraph, GraphError, generate
from resnet.laplacian import grounded_solve, transition_operator
from resnet.greens import (
    binomial_closed_form,
    bratteli_transition_product,
    chain_walk_diagonal,
    generating_function_check,
    greens_gram,
    greens_inversion_check,
    nary_tree_closed_forms,
    nary_tree_comparison,
    walk_greens,
)

from conftest import (
    count_calls,
    dense_laplacian,
    parent_grounded_kernel,
    parent_resistance,
    random_connected_graph,
    two_product_inversion_check,
)


def grounded_inverse(graph, ground):
    keep = [i for i in range(graph.n) if i != ground]
    return np.linalg.inv(dense_laplacian(graph)[np.ix_(keep, keep)]), keep


# -- gram route -----------------------------------------------------------------


def test_gram_equals_grounded_inverse(rng):
    for n, extra in [(2, 0), (9, 5), (21, 14)]:
        g = random_connected_graph(rng, n, extra)
        kernel = greens_gram(g, tol=1e-12)
        oracle, keep = grounded_inverse(g, g.base_point)
        assert kernel.vertices == keep
        assert np.allclose(kernel.matrix, oracle, atol=1e-8)
        assert kernel.symmetry_residual < 1e-8
        assert greens_inversion_check(g, kernel) < 1e-8


def test_gram_three_path_by_hand():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 0)
    kernel = greens_gram(g, tol=1e-13)
    assert np.allclose(kernel.matrix, [[1.0, 1.0], [1.0, 2.0]], atol=1e-10)


def test_gram_triangle_by_hand():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0)
    kernel = greens_gram(g, tol=1e-13)
    assert np.allclose(
        kernel.matrix, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-10
    )


def test_gram_reproducing_identity(rng):
    g = random_connected_graph(rng, 10, 6)
    kernel = greens_gram(g, tol=1e-12)
    base = g.base_point
    for x in (1, 4, 9):
        vx = solve_dipole(g, x, base, tol=1e-12)
        for y in (2, 7):
            assert kernel.value(x, y) == pytest.approx(
                float(vx.values[y]), abs=1e-8
            )


def test_gram_value_guard(rng):
    g = random_connected_graph(rng, 6, 2)
    kernel = greens_gram(g)
    with pytest.raises(GraphError, match="grounded or absent"):
        kernel.value(g.base_point, 1)


def test_inversion_check_rejects_foreign_graph(rng):
    g = random_connected_graph(rng, 5)
    other = random_connected_graph(rng, 5)
    with pytest.raises(GraphError, match="different graph"):
        greens_inversion_check(other, greens_gram(g))



def test_inversion_check_measures_the_worst_product_and_keeps_nan(rng):
    g = random_connected_graph(rng, 7, 4)
    kernel = greens_gram(g)
    off = kernel.matrix.copy()
    off[0, -1] += 1e-3  # an asymmetric error, which K L and L K would measure apart
    with pytest.raises(GraphError, match="kernel matrix is not symmetric"):
        dataclasses.replace(kernel, matrix=off)
    off[-1, 0] += 1e-3  # the same error, symmetric
    off = dataclasses.replace(kernel, matrix=off)
    worst = greens_inversion_check(g, off)
    assert worst == two_product_inversion_check(g, off)
    assert worst > greens_inversion_check(g, kernel) + 1e-4
    # a NaN never reaches the check: the kernel refuses it
    broken = kernel.matrix.copy()
    broken[-1, -1] = np.nan
    with pytest.raises(SolverError, match="kernel matrix has 1 non-finite entries"):
        dataclasses.replace(kernel, matrix=broken)

CHECK_FAMILIES = [
    ("lattice", 15, {}),
    ("lattice", 20, {}),
    ("comb", 14, {}),
    ("binary-tree", 8, {}),
    ("binary-tree", 9, {}),
    ("nary-tree", 5, {"branching": 3}),
]


def _assert_same_kernel(got, want):
    assert got.vertices == want.vertices
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.symmetry_residual == want.symmetry_residual


@pytest.mark.parametrize("family,radius,params", CHECK_FAMILIES)
def test_inversion_check_of_a_symmetric_kernel_is_one_product(family, radius, params, monkeypatch):
    # the kernel is also the one solve of the whole identity, bit for bit
    # (binary-tree 9: 1,022 columns in eight blocks)
    trunc = generate(family, radius=radius, **params)
    kernel = greens_gram(trunc)
    _assert_same_kernel(kernel, parent_grounded_kernel(trunc.graph, trunc.graph.base_point))
    products = count_calls(monkeypatch, greens_mod, ["_identity_deviation"])
    assert greens_inversion_check(trunc, kernel) == two_product_inversion_check(trunc, kernel)
    assert products == {"_identity_deviation": 1}


@pytest.mark.parametrize(
    "family,radius,params,ground",
    [
        ("chain", None, {"width": 60}, "base"),  # 59 columns
        ("halfline", 32, {}, "base"),  # 32 columns
        # the wired kernel radius_sweep reads: 511 columns in two blocks, and
        # 820 in six over conductances from 2.7 to 2.4e17
        ("binary-tree", 9, {}, "frontier"),
        ("lattice", 40, {}, "frontier"),
    ],
)
def test_grounded_kernel_is_the_unblocked_solve_bit_for_bit(family, radius, params, ground):
    trunc = generate(family, radius=radius, **params)
    ground = trunc.graph.base_point if ground == "base" else trunc.frontier
    got = greens_mod._grounded_kernel(trunc.graph, ground)
    _assert_same_kernel(got, parent_grounded_kernel(trunc.graph, ground))


def _exact_tree_kernel(graph):
    """K(x, y) = R(o, x ^ y) over every pair of non-base vertices of a tree,
    x ^ y their deepest common ancestor and R(o, v) the exact sum of 1/c
    from the base o down to v, rounded once to float."""
    hop, n = graph.hop_distance, graph.n
    order = np.argsort(hop, kind="stable")
    parent, depth = np.full(n, -1), int(hop.max())
    distance = [Fraction(0)] * n
    for v in order[1:].tolist():
        nbrs, w = graph.neighbors(v)
        (up,) = np.flatnonzero(hop[nbrs] == hop[v] - 1)  # a tree vertex has one parent
        parent[v] = nbrs[up]
        distance[v] = distance[parent[v]] + 1 / Fraction(float(w[up]))
    # ancestor[h, v]: the ancestor of v at hop h, -1 below v
    ancestor = np.full((depth + 1, n), -1)
    ancestor[hop, np.arange(n)] = np.arange(n)
    for h in range(depth, 0, -1):
        below = ancestor[h] >= 0
        ancestor[h - 1, below] = parent[ancestor[h, below]]
    kept = np.flatnonzero(np.arange(n) != graph.base_point)
    a = ancestor[:, kept]
    shared = (a[:, :, None] == a[:, None, :]) & (a[:, :, None] >= 0)
    meet = a[shared.sum(axis=0) - 1, np.arange(len(kept))[:, None]]  # paths part once, for good
    return np.array([float(d) for d in distance])[meet]


TREE_KERNELS = [
    ("comb", 14, {}),
    ("binary-tree", 8, {}),
    ("binary-tree", 9, {}),
    ("nary-tree", 5, {"branching": 3}),
    ("chain", None, {"width": 60}),
    ("halfline", 32, {}),
]


@pytest.mark.parametrize("family,radius,params", TREE_KERNELS)
def test_tree_kernel_is_the_exact_shared_path_sum(family, radius, params, monkeypatch):
    # the base-grounded sweep: every entry one sum of 1/c down the shared
    # path, so the kernel is exactly symmetric and no LU is factored (the
    # LU kernel read 4.3e-3 off on halfline 32)
    g = generate(family, radius=radius, **params).graph
    factorizations = count_calls(monkeypatch, laplacian_mod, ["splu"])
    kernel = greens_gram(g)
    assert factorizations == {"splu": 0}
    exact = _exact_tree_kernel(g)
    assert np.all(np.abs(kernel.matrix - exact) <= 1e-14 * exact)
    assert np.array_equal(kernel.matrix, kernel.matrix.T)
    assert kernel.symmetry_residual == 0.0


@pytest.mark.parametrize("step", [1, 7, 8, 39, 40, 41])
def test_grounded_kernel_blocks_of_any_width_are_bitwise_the_whole_solve(step, rng, monkeypatch):
    # m = 40 kept vertices: one column a block, a short last block (7, 39),
    # an exact multiple (8), one block of m (40) and a block wider than m (41)
    g = random_connected_graph(rng, 41, 60, base=5)
    widths = []

    def recording(graph, ground):
        kept, lu = laplacian_mod.grounded_laplacian(graph, ground)
        return kept, SimpleNamespace(solve=lambda e: widths.append(e.shape[1]) or lu.solve(e))

    monkeypatch.setattr(greens_mod, "_SOLVE_BLOCK_BYTES", 8 * 40 * step)
    monkeypatch.setattr(greens_mod, "grounded_laplacian", recording)
    _assert_same_kernel(greens_gram(g), parent_grounded_kernel(g, g.base_point))
    assert widths == [step] * (40 // step) + [40 % step] * (40 % step > 0)


def test_inversion_check_needs_increasing_kernel_vertices(rng):
    g = random_connected_graph(rng, 6, 2)
    kernel = greens_gram(g)
    flipped = dataclasses.replace(kernel, vertices=kernel.vertices[::-1], matrix=kernel.matrix[::-1, ::-1])
    with pytest.raises(GraphError, match="increasing order"):
        greens_inversion_check(g, flipped)


# -- walk route -----------------------------------------------------------------


def test_walk_series_matches_gram_kernel():
    g = generate("halfline", radius=6).graph
    wg = walk_greens(g, tail_tol=1e-12)
    assert 0.0 < wg.rho < 1.0
    assert wg.tail_bound <= 1e-12
    walk_kernel = wg.to_kernel()
    gram = greens_gram(g, tol=1e-13)
    assert np.allclose(walk_kernel.matrix, gram.matrix, rtol=1e-7, atol=1e-9)


def test_walk_frontier_absorption_inverts_interior_block():
    trunc = generate("comb", radius=3)
    wg = walk_greens(trunc, tail_tol=1e-12, absorb="frontier")
    assert wg.vertices == list(trunc.interior)
    kernel = wg.to_kernel()
    oracle = np.linalg.inv(
        dense_laplacian(trunc.graph)[np.ix_(trunc.interior, trunc.interior)]
    )
    assert np.allclose(kernel.matrix, oracle, rtol=1e-7, atol=1e-9)
    assert greens_inversion_check(trunc, kernel) < 1e-7


def test_walk_order_is_first_doubling_past_need():
    g = generate("halfline", radius=6).graph
    wg = walk_greens(g, tail_tol=1e-12)
    assert (wg.order + 1) & wg.order == 0  # order = 2^j - 1
    assert wg.tail_bound <= 1e-12
    # capped at the previous doubling, the series stops there, its bound above the tolerance
    previous = wg.order // 2
    with pytest.raises(SolverError, match=f"order {previous}, above 1e-12;.* but the cap is {previous}$") as exc:
        walk_greens(g, tail_tol=1e-12, order_cap=previous)
    assert exc.value.residual > 1e-12
    assert exc.value.iterations == wg.order


# the reported tail bound must cover the series' distance to the dense solve
# of (I - P) G = I, up to this rounding margin relative to max |G|, fixed
# before any of these graphs was run
_TAIL_MARGIN = 1e-12


@pytest.mark.parametrize("tail_tol", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize(
    "family, params",
    [("chain", {"width": 40, "growth": 2}), ("comb", {"radius": 10}), ("lattice", {"radius": 6})],
)
def test_walk_tail_bound_covers_the_omitted_sum(family, params, tail_tol):
    # the chain's drift makes P far from normal: the row sums of its powers
    # stay far above rho^m, so a bound through the spectral radius fails there
    trunc = generate(family, **params)
    wg = walk_greens(trunc, tail_tol=tail_tol, absorb="frontier")
    kept = wg.vertices
    p = transition_operator(trunc.graph)[kept][:, kept].toarray()
    eye = np.eye(len(kept))
    exact = np.linalg.solve(eye - p, eye)
    assert wg.tail_bound <= tail_tol
    assert np.max(np.abs(wg.matrix - exact)) <= wg.tail_bound + _TAIL_MARGIN * np.max(np.abs(exact))


@pytest.mark.parametrize("absorb", ["base", "frontier"])
@pytest.mark.parametrize(
    "family, radius", [("halfline", 8), ("comb", 5), ("comb", 10), ("lattice", 6), ("binary-tree", 5)]
)
def test_walk_rho_never_undershoots_symmetric_radius(family, radius, absorb):
    # P restricted off the absorbing set is similar to the symmetric
    # D^-1/2 A D^-1/2, so eigvalsh gives its spectral radius; the tail bound
    # rho^order / (1 - rho) is certified only if rho is not below it.  The
    # reference is itself exact only to rounding, about len(kept) ulps.
    trunc = generate(family, radius=radius)
    wg = walk_greens(trunc, order_cap=300_000, absorb=absorb)
    graph = trunc.graph
    kept = wg.vertices
    root_deg = np.sqrt(graph.degrees[kept])
    sym = graph.adjacency()[kept][:, kept].toarray() / root_deg[:, None] / root_deg[None, :]
    rho = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    assert wg.rho >= rho * (1.0 - len(kept) * np.finfo(float).eps)


def test_walk_absorb_guards(rng):
    g = random_connected_graph(rng, 6, 2)
    with pytest.raises(GraphError, match="truncation"):
        walk_greens(g, absorb="frontier")
    with pytest.raises(GraphError, match="unknown absorb"):
        walk_greens(g, absorb="everything")
    finite = generate("wye")
    assert len(finite.frontier) == 0
    with pytest.raises(GraphError, match="empty frontier"):
        walk_greens(finite, absorb="frontier")


def test_kernel_values_take_only_integer_indices():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)], 0)
    kernel, series = greens_gram(g), walk_greens(g)
    for k in (kernel, series):
        # 1.0 used to hash as the key 1 and read vertex 1
        for x, y in ((1.0, 2), (1, 2.0), (1.5, 2), ("1", 2)):
            with pytest.raises(GraphError, match="or absent"):
                k.value(x, y)
        assert k.value(np.int64(1), 2) == k.value(1, 2)
    assert kernel.value(1, 2) == 1.0


def test_walk_value_guard():
    g = generate("halfline", radius=4).graph
    wg = walk_greens(g)
    with pytest.raises(GraphError, match="absorbed or absent"):
        wg.value(g.base_point, 1)


def test_walk_order_cap_failure_reports_need():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0)
    with pytest.raises(SolverError) as exc:
        walk_greens(g, order_cap=5, tail_tol=1e-10)
    assert exc.value.iterations > 5
    assert 0.0 < exc.value.residual < 1.0


def test_walk_tail_tol_must_be_positive():
    # a zero, negative or NaN tolerance can never be met: the series would
    # only run to its cap
    g = generate("lattice", radius=3)
    for bad in (0.0, -1e-10, math.nan, -math.inf):
        with pytest.raises(GraphError, match="^tail_tol must be positive"):
            walk_greens(g, tail_tol=bad)
    # only an infinite tolerance takes the first order, where P's rows still sum to 1
    assert walk_greens(g, tail_tol=math.inf).order == 1
    # a finite one needs a power of P whose row sums are below 1
    assert walk_greens(g, tail_tol=1e9).order == 7
    # the smallest subnormal still needs more terms than 1e-300
    tiny = walk_greens(g, tail_tol=5e-324)
    assert tiny.order > walk_greens(g, tail_tol=1e-300).order
    assert tiny.tail_bound <= 5e-324


def test_walk_order_cap_must_be_an_integer_of_at_least_one():
    # a NaN cap used to switch the cap off: this graph then summed to order 2047
    g = generate("lattice", radius=3)
    for bad in (math.nan, math.inf, 0, -5, 2.5, 100_000.0, "100000", None):
        with pytest.raises(GraphError, match="^order_cap must be an integer of at least 1"):
            walk_greens(g, order_cap=bad)
    wg = walk_greens(g, order_cap=np.int64(100_000))
    assert wg.order == walk_greens(g).order
    with pytest.raises(SolverError, match="but the cap is 1$"):
        walk_greens(g, order_cap=1)


@pytest.mark.parametrize(
    "family, radius, absorb",
    [("halfline", 6, "base"), ("comb", 4, "base"), ("lattice", 4, "frontier"), ("binary-tree", 4, "frontier")],
)
def test_walk_kernel_is_the_halved_sum_of_the_rescaled_series(family, radius, absorb):
    # `to_kernel` shares the grounded kernel's in-place symmetrization; it must
    # give the bits of the expressions it replaced
    wg = walk_greens(generate(family, radius=radius), absorb=absorb)
    k = wg.matrix / wg.graph.degrees[wg.vertices][None, :]
    kernel = wg.to_kernel()
    assert kernel.vertices == wg.vertices
    assert np.array_equal(kernel.matrix, 0.5 * (k + k.T))
    assert kernel.symmetry_residual == float(np.max(np.abs(k - k.T)))
    assert kernel.symmetry_residual > 0.0  # the series is not symmetric as summed


def test_walk_detects_non_absorbing_component():
    # 1 / (1 + 1e-300) rounds to 1, so the float walk off the base never leaks:
    # every power of P keeps row sums of 1, no bound is finite, and the series
    # runs its doublings up to the cap
    g = ConductanceGraph.from_edges([(0, 1, 1e-300), (1, 2, 1.0)], 0)
    with pytest.raises(SolverError, match="tail bound of inf .* but the cap is 100000$") as exc:
        walk_greens(g)
    assert exc.value.residual == math.inf
    assert exc.value.iterations == 131_071


# -- drifted-chain closed forms ---------------------------------------------------


def test_binomial_closed_form_values():
    model = binomial_closed_form(2.0 / 3.0)
    assert model.lam == pytest.approx(2.0 / 9.0)
    assert model.diagonal == pytest.approx(3.0)


def test_binomial_guards():
    with pytest.raises(GraphError, match="degenerate"):
        binomial_closed_form(0.5)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(GraphError, match="step probability"):
            binomial_closed_form(bad)


def test_generating_function_partial_sums():
    for lam in (0.05, 0.2, 2.0 / 9.0):
        # few terms: the geometric majorant is far above roundoff and must
        # dominate the true truncation error
        short = generating_function_check(lam, terms=12)
        assert short["residual"] <= short["tail_bound"]
        # many terms: the gap stays under the majorant, up to accumulation
        # roundoff (the bound itself sinks below 1e-15 for the smaller lam)
        long = generating_function_check(lam, terms=200)
        assert long["closed_form"] == pytest.approx(1.0 / math.sqrt(1.0 - 4.0 * lam))
        assert long["residual"] <= long["tail_bound"] + 5e-15
    assert generating_function_check(0.0)["partial_sum"] == 1.0
    for bad in (0.25, 0.3, -0.01):
        with pytest.raises(GraphError, match="lam"):
            generating_function_check(bad)


def test_chain_diagonal_approaches_closed_form():
    report = chain_walk_diagonal(2.0 / 3.0, width=40)
    assert report["closed_form"] == pytest.approx(3.0)
    assert report["diagonal"] == pytest.approx(2.9999914169420645, rel=1e-9)
    assert report["rel_error"] < 1e-5
    assert 0.0 < report["rho"] < 1.0
    # widening the chain sharpens the agreement
    narrow = chain_walk_diagonal(2.0 / 3.0, width=20)
    assert report["rel_error"] < narrow["rel_error"]


# -- homogeneous trees ------------------------------------------------------------


def test_nary_closed_forms():
    stated = nary_tree_closed_forms(2, 2.0)
    assert stated["same_level_green"] == pytest.approx(5.0 / 3.0)
    assert stated["root_distance"] == pytest.approx(0.2)
    assert nary_tree_closed_forms(2, 2.0, level=2)["root_distance"] == pytest.approx(0.1)
    with pytest.raises(GraphError, match="branching"):
        nary_tree_closed_forms(1, 0.5)
    with pytest.raises(GraphError, match="level"):
        nary_tree_closed_forms(2, 2.0, level=0)


def test_nary_comparison_reports_honest_gaps():
    report = nary_tree_comparison(2, 2.0, radius=6)
    # a tree has a single root-to-vertex path: the free resistance telescopes
    # to exactly 1 for b = 2, far from the stated constant
    assert report["measured_free"] == pytest.approx(1.0, rel=1e-9)
    assert report["measured_wired"] == pytest.approx(0.6249084249084207, rel=1e-8)
    assert report["free_gap"] == pytest.approx(0.8, rel=1e-8)
    assert report["wired_gap"] == pytest.approx(
        report["measured_wired"] - 0.2, rel=1e-8
    )
    with pytest.raises(GraphError, match="interior"):
        nary_tree_comparison(2, 2.0, radius=2, level=2)


@pytest.mark.parametrize("radius, level", [(5, 1), (7, 1), (7, 3)])
def test_nary_comparison_reads_both_values_off_one_grounded_drop(monkeypatch, radius, level):
    trunc = generate("nary-tree", radius=radius, branching=2, b=2.0)
    graph = trunc.graph
    root, target = graph.base_point, graph.index_of((0,) * level)
    monkeypatch.setattr(greens_mod, "generate", lambda *args, **kwargs: trunc)
    grounds = []
    count_calls(monkeypatch, laplacian_mod, ["grounded_solve"],
                where=lambda g, ground, rhs: grounds.append(np.atleast_1d(ground).tolist()))
    report = nary_tree_comparison(2, 2.0, radius=radius, level=level)
    assert grounds == [[root], trunc.frontier.tolist()]
    # the values the free route M4 and the inline frontier-grounded solve gave
    assert report["measured_free"] == parent_resistance(graph, root, target, "M4")
    dipole = np.zeros(graph.n)
    dipole[root], dipole[target] = 1.0, -1.0
    v = grounded_solve(graph, trunc.frontier, dipole)
    assert report["measured_wired"] == float(v[root] - v[target])


def test_nary_wired_resistance_increases_toward_limit():
    wired = [
        nary_tree_comparison(2, 2.0, radius=r)["measured_wired"] for r in (6, 7, 8)
    ]
    # shorting a more distant frontier helps less: the values climb toward 5/8
    assert wired[0] < wired[1] < wired[2] < 0.625
    assert wired[2] == pytest.approx(0.6249942778669659, rel=1e-8)


def wired_root_distance(branching, b, radius):
    """Exact wired root-to-(0,) resistance of the regular tree, by series-parallel.

    R_k is the resistance from a depth-k vertex down to the shorted frontier:
    R_k = (b^-k + R_{k+1}) / N with R_radius = 0.  The root reaches (0,) by its
    unit edge, in parallel with the other N - 1 subtrees into the frontier
    followed by the subtree of (0,) back out of it.
    """
    n, b = Fraction(branching), Fraction(b)
    below = Fraction(0)
    for k in range(radius - 1, 0, -1):
        below = (b**-k + below) / n
    detour = (1 + below) / (n - 1) + below
    return 1 / (1 + 1 / detour)


def test_nary_wired_resistance_is_exact(monkeypatch):
    exact = {r: wired_root_distance(2, 2, r) for r in (4, 6, 7, 8)}
    assert exact == {
        4: Fraction(53, 85),
        6: Fraction(853, 1365),
        7: Fraction(3413, 5461),
        8: Fraction(13653, 21845),
    }
    for r, value in exact.items():
        wired = nary_tree_comparison(2, 2.0, radius=r)["measured_wired"]
        assert abs(wired - value) <= 1e-14 * value, r
    # the wiring is the frontier-grounded solve on the truncation itself:
    # no second graph is built
    trunc = generate("nary-tree", radius=5, branching=2, b=2.0)
    monkeypatch.setattr(greens_mod, "generate", lambda *args, **kwargs: trunc)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("nary_tree_comparison rebuilt a graph")

    monkeypatch.setattr(ConductanceGraph, "from_edges", no_rebuild)
    assert nary_tree_comparison(2, 2.0, radius=5)["measured_wired"] == pytest.approx(
        float(wired_root_distance(2, 2, 5)), rel=1e-14
    )


# -- layered transition products --------------------------------------------------


def test_bratteli_word_probability():
    sizes = [1] * 8
    weights = [2.0**n for n in range(7)]
    report = bratteli_transition_product(sizes, weights, "+-", start_level=3)
    assert report["matrix"].shape == (1, 1)
    assert report["matrix"][0, 0] == pytest.approx(2.0 / 9.0)
    assert report["end_level"] == 3
    assert report["row_sums"][0] == pytest.approx(2.0 / 9.0)


def test_bratteli_forced_step_has_probability_one():
    # from the bottom level every step must go up
    report = bratteli_transition_product([2, 3], [1.0], "+")
    assert report["matrix"].shape == (2, 3)
    assert np.allclose(report["row_sums"], 1.0)


def test_bratteli_step_probability_mixes_bands():
    report = bratteli_transition_product([1, 1, 1], [2.0, 3.0], "+", start_level=1)
    assert report["matrix"][0, 0] == pytest.approx(3.0 / 5.0)


def test_bratteli_guards():
    with pytest.raises(GraphError, match="two levels"):
        bratteli_transition_product([4], [], "+")
    with pytest.raises(GraphError, match="band weights"):
        bratteli_transition_product([1, 1, 1], [1.0], "+")
    with pytest.raises(GraphError, match="start level"):
        bratteli_transition_product([1, 1], [1.0], "+", start_level=2)
    with pytest.raises(GraphError, match="climbs past"):
        bratteli_transition_product([1, 1], [1.0], "++")
    with pytest.raises(GraphError, match="underflow"):
        bratteli_transition_product([1, 1], [1.0], "-")
    with pytest.raises(GraphError, match="symbols"):
        bratteli_transition_product([1, 1], [1.0], "+x")
