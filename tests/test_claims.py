"""Claims of the paper's abstract, checked on the shipped families.

The abstract (arXiv:1502.02549) says the finite-energy functions are
"1/2-Lipschitz-continuous ... relative to the metric d": by the reproducing
property f(x) - f(y) = <v_xy, f> and Cauchy-Schwarz, |f(x) - f(y)|^2 <=
E(f) d(x, y).  That is checked on random functions on every family.

On the models whose resistance metric d is bounded, it adds: "We further
show that , in this case, the metric completion M of (V,d) is automatically
compact, and that the vertex-set V is open in M."  On the comb the free resistance metric is bounded (every distance is below
3), yet the truncation of radius r holds floor(r/2) + 1 tooth points
pairwise at least 2 - 2^(1-K) apart, K = ceil(r/2).  On the infinite comb
these points go on without end, pairwise more than 1.9 apart, so (V, d) is
not totally bounded and its completion is not compact.  The comb is a
tree, so its free distance is the exact path sum and the certificate needs
no solver; the solver's matrix is checked against it, and the wired metric,
which shorts the frontier, is shown to draw the same points together.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from resnet.energy import gauged
from resnet.graphs import generate
from resnet.laplacian import grounded_solve
from resnet.resistance import resistance_matrix

from conftest import exact_tree_distance

RADII = [8, 16, 24, 30]

# worst |f(x) - f(y)|^2 / (E(f) d(x, y)) allowed: 1, plus rounding room
LIPSCHITZ_MAX = 1.0 + 1e-8
LIPSCHITZ_GRAPHS = [
    ("lattice", {"radius": 12}),
    ("lattice", {"radius": 20}),
    ("binary-tree", {"radius": 8}),
    ("nary-tree", {"radius": 5, "branching": 3}),
    ("comb", {"radius": 16}),
    ("halfline", {"radius": 16}),
    ("chain", {"width": 60}),
    ("bratteli", {"level_sizes": [1, 3, 5, 7, 9], "level_weights": [1, 2, 4, 8]}),
]


@pytest.mark.parametrize("family, params", LIPSCHITZ_GRAPHS)
def test_finite_energy_functions_are_half_lipschitz(family, params):
    trunc = generate(family, **params)
    d = resistance_matrix(trunc).matrix
    off = ~np.eye(len(d), dtype=bool)
    rng = np.random.default_rng(1502)
    worst = 0.0
    for _ in range(20):
        f = gauged(trunc, rng.standard_normal(len(d)))
        gap = f.values[:, None] - f.values[None, :]
        worst = max(worst, float(np.max(gap[off] ** 2 / d[off])) / f.energy)
    assert worst <= LIPSCHITZ_MAX, worst


def tooth_points(radius):
    """The tooth points (n, K), K = ceil(r/2), n <= floor(r/2): all in the ball."""
    k = math.ceil(radius / 2)
    return k, [(n, k) for n in range(radius // 2 + 1)]


def comb_distance(n, m, k):
    """d((n, K), (m, K)) = 2 - 2^(1-K) + 2^(-n) - 2^(-m) for n < m: down tooth n,
    along the spine from n to m, and up tooth m."""
    half = Fraction(1, 2)
    return 2 - 2 * half**k + half**n - half**m


@pytest.mark.parametrize("radius", RADII)
def test_comb_tooth_points_are_separated_in_the_free_metric(radius):
    trunc = generate("comb", radius=radius)
    g = trunc.graph
    k, points = tooth_points(radius)
    index = [g.index_of(p) for p in points]
    free = resistance_matrix(trunc).matrix
    separation = 2 - 2 * Fraction(1, 2) ** k
    for a, (n, _) in enumerate(points):
        for b, (m, _) in enumerate(points[a + 1:], a + 1):
            exact = comb_distance(n, m, k)
            assert exact_tree_distance(g, index[a], index[b]) == exact, (n, m)
            assert exact >= separation
            measured = free[index[a], index[b]]
            assert abs(Fraction(measured) - exact) <= Fraction(1e-13) * exact, (n, m)
    assert len(points) == radius // 2 + 1


@pytest.mark.parametrize("radius,bound", [(8, 0.11), (30, 1e-4)])
def test_the_wired_metric_draws_the_comb_tooth_points_together(radius, bound):
    # wired: the frontier shorted into one node held at 0; d(x, y) is read
    # off the grounded kernel columns of the points, frontier points included
    trunc = generate("comb", radius=radius)
    g = trunc.graph
    _, points = tooth_points(radius)
    index = [g.index_of(p) for p in points]
    rhs = np.zeros((g.n, len(index)))
    rhs[index, range(len(index))] = 1.0
    kernel = grounded_solve(g, trunc.frontier, rhs)[index]
    diag = np.diag(kernel)
    wired = diag[:, None] + diag[None, :] - kernel - kernel.T
    assert wired.max() < bound
