"""Green kernels by the gram and walk routes, plus the closed-form benchmarks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from resnet.energy import SolverError, solve_dipole
from resnet.graphs import ConductanceGraph, GraphError, generate
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

from conftest import dense_laplacian, random_connected_graph


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


def test_gram_value_guard_and_csv(tmp_path, rng):
    g = random_connected_graph(rng, 6, 2)
    kernel = greens_gram(g)
    with pytest.raises(GraphError, match="grounded or absent"):
        kernel.value(g.base_point, 1)
    path = tmp_path / "kernel.csv"
    kernel.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == g.n  # header plus one row per kept vertex
    got = np.array([[float(v) for v in row.split(",")[1:]] for row in rows[1:]])
    assert np.allclose(got, kernel.matrix)


def test_inversion_check_rejects_foreign_graph(rng):
    g = random_connected_graph(rng, 5)
    other = random_connected_graph(rng, 5)
    with pytest.raises(GraphError, match="different graph"):
        greens_inversion_check(other, greens_gram(g))


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
    assert wg.rho ** ((wg.order + 1) // 2 - 1) / (1.0 - wg.rho) > 1e-12
    assert wg.tail_bound == wg.rho**wg.order / (1.0 - wg.rho) <= 1e-12


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


def test_walk_detects_non_absorbing_component():
    # the piece {2, 3} can never reach the absorbing base, so the series diverges
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)], 0)
    with pytest.raises(SolverError, match="not uniformly contracting"):
        walk_greens(g)


# -- drifted-chain closed forms ---------------------------------------------------


def test_binomial_closed_form_values():
    model = binomial_closed_form(2.0 / 3.0)
    assert model.lam == pytest.approx(2.0 / 9.0)
    assert model.diagonal == pytest.approx(3.0)
    assert model.kernel_diagonal(2.0) == pytest.approx(1.5)


def test_binomial_guards():
    with pytest.raises(GraphError, match="degenerate"):
        binomial_closed_form(0.5)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(GraphError, match="step probability"):
            binomial_closed_form(bad)


def brute_force_offdiagonal(p, k, terms=300):
    """Exact rational partial sum; the dropped tail is far below 1e-12."""
    lam = p * (1 - p)
    total = sum(math.comb(2 * m + k, m) * lam**m for m in range(terms))
    return float(p**k * total)


def test_offdiagonal_series_certified_against_brute_force():
    model = binomial_closed_form(2.0 / 3.0)
    zero = model.offdiagonal(0, tol=1e-13)
    assert zero["value"] == pytest.approx(model.diagonal, rel=1e-11)
    for k in (1, 2, 5):
        report = model.offdiagonal(k, tol=1e-13)
        expect = brute_force_offdiagonal(Fraction(2, 3), k)
        assert report["value"] == pytest.approx(expect, rel=1e-10)
        assert report["terms"] > 0
    # a loose tolerance stops early and the certified tail covers the gap
    coarse = model.offdiagonal(2, tol=1e-6)
    exact = brute_force_offdiagonal(Fraction(2, 3), 2)
    assert abs(coarse["value"] - exact) <= coarse["tail_bound"] + 1e-12 * exact


def test_offdiagonal_backward_uses_minus_drift():
    model = binomial_closed_form(2.0 / 3.0)
    forward = model.offdiagonal(3, tol=1e-13)["value"]
    backward = model.offdiagonal(-3, tol=1e-13)["value"]
    # same series, drift factor swapped: ratio is (p_minus/p_plus)^3
    assert backward / forward == pytest.approx((model.p_minus / model.p_plus) ** 3)


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


def test_nary_wired_resistance_increases_toward_limit():
    wired = [
        nary_tree_comparison(2, 2.0, radius=r)["measured_wired"] for r in (6, 7, 8)
    ]
    # shorting a more distant frontier helps less: the values climb toward 5/8
    assert wired[0] < wired[1] < wired[2] < 0.625
    assert wired[2] == pytest.approx(0.6249942778669659, rel=1e-8)


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
