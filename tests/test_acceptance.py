"""Release gate: twelve end-to-end criteria, one printed verdict line each.

Each test prints "[C##] PASS/FAIL <key numbers>" before asserting, so a full
run (pytest -rA) shows the complete scoreboard even when a criterion is red.
Tolerances are stated inline; nothing here is weakened to force a pass — a
criterion that the mathematics does not support stays failing with its
measured numbers on display.
"""

import math
import time

import numpy as np
import pytest

from resnet.decomposition import interpolate, royden_split
from resnet.energy import gauged, pointwise_product
from resnet.graphs import ConductanceGraph, generate, truncate
from resnet.greens import (
    chain_walk_diagonal,
    generating_function_check,
    greens_gram,
    greens_inversion_check,
    nary_tree_comparison,
    walk_greens,
)
from resnet.laplacian import defect_recursion_comb, harmonic_extension
from resnet.markov import cylinder_probability, harmonic_measure_exact, poisson_reproduce
from resnet.resistance import METHODS, resistance, resistance_matrix

from conftest import random_connected_graph


def verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_c01_five_route_agreement_on_random_graphs():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 61))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        x, y = map(int, rng.choice(n, size=2, replace=False))
        values = [resistance(g, x, y, m, tol=1e-12) for m in METHODS]
        lo, hi = min(values), max(values)
        worst = max(worst, (hi - lo) / hi)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-7 and elapsed <= 30.0
    assert verdict(
        "C01", ok, f"max pairwise rel disagreement {worst:.3e} over 100 graphs "
        f"(five routes, {elapsed:.1f}s)"
    )


def test_c02_series_parallel_closed_form():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        r1, r2, r3 = rng.uniform(0.1, 10.0, size=3)
        g = generate("wye", r1=r1, r2=r2, r3=r3).graph
        expect = r1 + r2 * r3 / (r2 + r3)
        a, b = g.index_of("a"), g.index_of("b")
        for m in METHODS:
            worst = max(worst, abs(resistance(g, a, b, m, tol=1e-13) - expect))
    ok = worst <= 1e-8
    assert verdict("C02", ok, f"max closed-form error {worst:.3e} over 20 triples x 5 routes")


def _metric_test_graphs():
    rng = np.random.default_rng(303)
    return [
        ("random-20", random_connected_graph(rng, 20, 12)),
        ("random-40", random_connected_graph(rng, 40, 25)),
        ("halfline-8", generate("halfline", radius=8).graph),
        ("lattice-3x3", generate("lattice", radius=3, d=2).graph),
        ("comb-4", generate("comb", radius=4).graph),
        ("binary-tree-4", generate("binary-tree", radius=4).graph),
    ]


def test_c03_metric_axioms_on_every_matrix():
    worst_slack = np.inf
    sym_ok = diag_ok = True
    for _, g in _metric_test_graphs():
        mat = resistance_matrix(g, "M2", tol=1e-12)
        worst_slack = min(worst_slack, mat.triangle_slack())
        sym_ok = sym_ok and bool(np.array_equal(mat.matrix, mat.matrix.T))
        diag_ok = diag_ok and bool(np.all(np.diag(mat.matrix) == 0.0))
    ok = worst_slack >= -1e-8 and sym_ok and diag_ok
    assert verdict(
        "C03", ok, f"min triangle slack {worst_slack:.3e}, symmetry exact={sym_ok}, "
        f"zero diagonal exact={diag_ok}, 6 matrices"
    )


def test_c04_greens_inversion_up_to_200_vertices():
    rng = np.random.default_rng(404)
    graphs = _metric_test_graphs() + [
        ("random-200", random_connected_graph(rng, 200, 120))
    ]
    worst = 0.0
    for _, g in graphs:
        kernel = greens_gram(g, tol=1e-12)
        worst = max(worst, greens_inversion_check(g, kernel))
    ok = worst <= 1e-8
    assert verdict(
        "C04", ok, f"max |KL - I| deviation {worst:.3e} over {len(graphs)} graphs "
        "(largest n=200, both product orders)"
    )


def test_c05_walk_series_matches_gram_kernel():
    rng = np.random.default_rng(505)
    cases = [
        generate("halfline", radius=8).graph,
        generate("binary-tree", radius=4).graph,
        generate("comb", radius=5).graph,
        random_connected_graph(rng, 25, 15),
    ]
    worst = 0.0
    tails = []
    for g in cases:
        # the half-line's absorbed walk contracts slowly (rho ~ 0.9998), so
        # the honestly-needed expansion order exceeds the default cap
        wg = walk_greens(g, tail_tol=1e-10, order_cap=300_000)
        tails.append(wg.tail_bound)
        assert wg.tail_bound < 1e-9
        walk_k = wg.to_kernel().matrix
        gram_k = greens_gram(g, tol=1e-13).matrix
        worst = max(worst, float(np.max(np.abs(walk_k - gram_k)) / np.max(np.abs(gram_k))))
    ok = worst <= 1e-7
    assert verdict(
        "C05", ok, f"max relative kernel gap {worst:.3e} over {len(cases)} graphs "
        f"(series tails all below {max(tails):.1e})"
    )


def test_c06_drifted_chain_closed_forms():
    chain = chain_walk_diagonal(2.0 / 3.0, width=40)
    chain_ok = chain["rel_error"] <= 0.01
    series_ok = True
    worst_margin = np.inf
    for lam in (0.05, 0.1, 0.2, 2.0 / 9.0):
        # few enough terms that the certified tail sits far above roundoff
        report = generating_function_check(lam, terms=8)
        series_ok = series_ok and report["residual"] <= report["tail_bound"]
        worst_margin = min(worst_margin, report["tail_bound"] - report["residual"])
    ok = chain_ok and series_ok
    assert verdict(
        "C06", ok, f"width-40 diagonal {chain['diagonal']:.9f} vs 3 "
        f"(rel {chain['rel_error']:.2e}); partial sums within tail bound for 4 lambdas "
        f"(min margin {worst_margin:.2e})"
    )


def test_c07_regular_tree_stated_constant():
    depths = [6, 7, 8]
    reports = {r: nary_tree_comparison(2, 2.0, radius=r) for r in depths}
    final = reports[8]
    stated = final["stated"]["root_distance"]
    free_rel = abs(final["measured_free"] - stated) / stated
    wired_rel = abs(final["measured_wired"] - stated) / stated
    free_bias = [abs(reports[r]["measured_free"] - stated) for r in depths]
    wired_bias = [abs(reports[r]["measured_wired"] - stated) for r in depths]
    shrinking = all(b < a for a, b in zip(free_bias, free_bias[1:])) or all(
        b < a for a, b in zip(wired_bias, wired_bias[1:])
    )
    ok = min(free_rel, wired_rel) <= 0.02 and shrinking
    verdict(
        "C07", ok,
        f"stated {stated:.6f}; measured free {final['measured_free']:.6f} "
        f"(rel gap {free_rel:.2f}), wired {final['measured_wired']:.6f} "
        f"(rel gap {wired_rel:.2f}); wired bias over depths 6..8 = "
        + ", ".join(f"{b:.6f}" for b in wired_bias)
        + " (growing, not shrinking)"
    )
    assert ok, (
        "measured root-to-level-1 resistance (free {:.6f}, wired {:.6f}) is not "
        "within 2% of the stated 1/5: the single root edge already has "
        "resistance 1/2, so every route from the root exceeds the stated "
        "value; the wired values converge to 5/8 from below. The stated 1/5 is "
        "exactly 1/c(x) for the level-1 vertex x, whose weighted degree is "
        "c(x) = b^(L-1) + N*b^L = 1 + 2*2 = 5: that is 1/||delta_x||_E^2, the "
        "Nash-Williams bound of the star cut around x, a lower bound on R(o, x) "
        "and not R(o, x) itself".format(
            final["measured_free"], final["measured_wired"]
        )
    )


def test_c08_boundary_measure_reproduction_and_mc_scaling():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trunc in (generate("binary-tree", radius=4), generate("comb", radius=4)):
        x = trunc.graph.base_point
        mu = harmonic_measure_exact(trunc, x)
        for _ in range(50):
            f = rng.uniform(-1.0, 1.0, size=len(trunc.frontier))
            h = harmonic_extension(trunc, f)
            exact = float(mu.weights @ h[mu.frontier])
            worst = max(worst, abs(exact - h[x]))
    exact_ok = worst <= 1e-8

    trunc = generate("binary-tree", radius=4)
    f = rng.uniform(0.0, 1.0, size=len(trunc.frontier))
    h = harmonic_extension(trunc, f)
    base = trunc.graph.base_point
    small = poisson_reproduce(trunc, h, base, 10_000, seed=9)
    mc_ok = (
        abs(small["mc_estimate"] - small["point_value"]) <= 4.0 * small["std_error"]
    )
    big = poisson_reproduce(trunc, h, base, 40_000, seed=9)
    ratio = big["std_error"] / small["std_error"]
    scaling_ok = 0.4 <= ratio <= 0.6
    ok = exact_ok and mc_ok and scaling_ok
    assert verdict(
        "C08", ok, f"max exact reproduction error {worst:.2e} over 100 harmonic "
        f"functions; MC gap {abs(small['mc_estimate'] - small['point_value']):.2e} "
        f"vs 4se {4 * small['std_error']:.2e}; se ratio at 4x samples {ratio:.3f}"
    )


def test_c09_interpolation_identity_on_trees_and_lattices():
    rng = np.random.default_rng(909)
    cases = []
    for _ in range(3):
        n = int(rng.integers(20, 61))
        tree = random_connected_graph(rng, n, 0)
        cases.append(truncate(tree, 3))
    cases.append(generate("lattice", radius=4, d=2))
    worst = 0.0
    count = 0
    for trunc in cases:
        graph = trunc.graph
        kernel = greens_gram(graph, tol=1e-13)
        interior = [int(v) for v in trunc.interior]
        for _ in range(50 // len(cases) + 1):
            f = rng.standard_normal(graph.n)
            x = int(rng.choice(interior))
            report = interpolate(trunc, kernel, f, x)
            worst = max(worst, report["residual"])
            count += 1
    ok = worst <= 1e-7
    assert verdict(
        "C09", ok, f"max |rebuilt - f(x)| {worst:.3e} over {count} random functions "
        f"on {len(cases)} graphs (random trees + lattice)"
    )


def test_c10_energy_algebra_bound_and_pythagoras():
    rng = np.random.default_rng(1010)
    g = random_connected_graph(rng, 30, 18)
    lattice = generate("lattice", radius=3, d=2)
    violations = 0
    for k in range(1000):
        graph = g if k % 2 == 0 else lattice.graph
        u = gauged(graph, rng.uniform(-3.0, 3.0, size=graph.n))
        w = gauged(graph, rng.uniform(-3.0, 3.0, size=graph.n))
        _, cert = pointwise_product(u, w)
        if cert.product_energy > cert.bound * (1.0 + 1e-12) + 1e-12:
            violations += 1
    worst_split = 0.0
    for _ in range(20):
        f = rng.standard_normal(lattice.graph.n)
        split = royden_split(lattice, f)
        total = gauged(lattice.graph, f).energy
        gap = abs(split.finite_part.energy + split.harmonic_part.energy - total)
        worst_split = max(worst_split, gap / max(1.0, total))
    ok = violations == 0 and worst_split <= 1e-8
    assert verdict(
        "C10", ok, f"{violations} bound violations in 1000 pairs; "
        f"worst split residual {worst_split:.3e} over 20 functions"
    )


def test_c11_comb_defect_recursion_profile():
    report = defect_recursion_comb(60)
    residual_ok = report.max_residual <= 1e-12
    ratios = report.scaled[41:] / report.scaled[40:-1]
    ratio_gap = float(np.max(np.abs(ratios - 1.0)))
    ratio_ok = ratio_gap <= 1e-8
    energy_tail = math.fsum(
        2.0 ** k * (report.values[k] - report.values[k + 1]) ** 2
        for k in range(40, report.levels)
    )
    tail_ok = energy_tail < 1e-10
    ok = residual_ok and ratio_ok and tail_ok
    assert verdict(
        "C11", ok, f"recursion residual {report.max_residual:.2e}; scaled ratios "
        f"within {ratio_gap:.2e} of 1 beyond level 40; energy tail {energy_tail:.2e}; "
        f"limit of l_k*2^k = {report.limit:.9f}"
    )


def test_c12_cylinder_mass_exhaustive():
    rng = np.random.default_rng(1212)
    k4 = ConductanceGraph.from_edges(
        [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)], 0
    )
    graphs = [
        ("3-path", ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 0)),
        ("K4", k4),
        ("wye", generate("wye").graph),
        ("random-tree-12", random_connected_graph(rng, 12, 0)),
        ("comb-2", generate("comb", radius=2).graph),
    ]
    worst = 0.0
    for name, g in graphs:
        assert g.n <= 12, name

        def mass(word, remaining):
            if remaining == 0:
                return cylinder_probability(g, word)
            nbrs, _ = g.neighbors(word[-1])
            return math.fsum(mass(word + [int(y)], remaining - 1) for y in nbrs)

        for depth in range(1, 7):
            for start in range(g.n):
                worst = max(worst, abs(mass([start], depth) - 1.0))
    ok = worst <= 1e-12
    assert verdict(
        "C12", ok, f"max |total cylinder mass - 1| = {worst:.2e} over 5 graphs, "
        "every start, depths 1..6"
    )
