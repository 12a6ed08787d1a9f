"""The exact rational reference: Kron reduction in `fractions.Fraction`.

The reduction reproduces the closed forms already pinned elsewhere, and M3
is checked against it to 1e-15 relative."""

import math
from fractions import Fraction

import numpy as np
import pytest

from resnet.energy import SolverError
from resnet.graphs import ConductanceGraph, generate
from resnet.resistance import resistance

from conftest import exact_resistances, exact_tree_distance


def _rel(value, exact):
    return abs(Fraction(value) - exact) / exact


def test_halfline_path_sums_are_exact():
    trunc = generate("halfline", radius=32)
    g = trunc.graph
    pairs = [(0, 32), (0, 1), (5, 17), (31, 32)]
    exact = exact_resistances(g, [(g.index_of(a), g.index_of(b)) for a, b in pairs])
    for (a, b), value in zip(pairs, exact.values()):
        # the series the float conductances growth**k spell out, term by term
        assert value == sum(1 / Fraction(math.e**k) for k in range(a, b)), (a, b)


def test_binary_tree_path_sums_are_exact():
    g = generate("binary-tree", radius=7).graph
    leaves = [g.index_of(w) for w in ("+++++++", "+++++-+", "-+-+-+-", "-------")]
    pairs = [(g.base_point, leaves[0]), (leaves[0], leaves[1]), (leaves[1], leaves[2]),
             (leaves[3], g.index_of("-"))]
    for (x, y), value in exact_resistances(g, pairs).items():
        assert value == exact_tree_distance(g, x, y), (x, y)


def test_wired_regular_tree_is_the_c07_rational():
    trunc = generate("nary-tree", radius=8, branching=2, b=2.0)
    g = trunc.graph
    pair = (g.base_point, g.index_of((0,)))
    assert exact_resistances(g, [pair], ground=trunc.frontier)[pair] == Fraction(13653, 21845)


_M3_CASES = [
    ("halfline", 32, [(0, 32), (0, 16), (7, 30)]),
    ("comb", 16, [((0, 0), (16, 0)), ((0, 16), (8, 8)), ((3, 5), (12, 4))]),
    ("binary-tree", 7, [("", "+++++++"), ("+-+-+-+", "-+-+-+-"), ("++", "+-")]),
    ("lattice", 12, [((0, 0), (12, 0)), ((0, 12), (12, 0)), ((3, 4), (6, 6)), ((1, 0), (0, 1))]),
]


@pytest.mark.parametrize("family,radius,pairs", _M3_CASES, ids=[c[0] for c in _M3_CASES])
def test_m3_is_within_1e_15_of_the_exact_resistance(family, radius, pairs):
    g = generate(family, radius=radius).graph
    pairs = [(g.index_of(a), g.index_of(b)) for a, b in pairs]
    for (x, y), exact in exact_resistances(g, pairs).items():
        assert _rel(resistance(g, x, y, method="M3"), exact) <= 1e-15, (x, y)


def test_m3_leaves_out_an_edge_whose_resistance_overflows():
    # 1/1e-310 is inf: that edge carries no flow, and the rest still connect
    # the graph (file C of the CLI's extreme-conductance tests)
    edges = [(0, 1, 1.0), (1, 2, 1e-310), (2, 3, 1.0), (0, 3, 1.0), (1, 3, 2.0)]
    g = ConductanceGraph.from_edges(edges, 0)
    pairs = [(x, y) for x in range(4) for y in range(x + 1, 4)]
    for (x, y), exact in exact_resistances(g, pairs).items():
        m3 = resistance(g, x, y, method="M3")
        assert abs(Fraction(m3) - exact) <= 2 * Fraction(math.ulp(m3)), (x, y)
    # where that edge is a bridge, the rest do not connect the graph
    bridge = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1e-310)], 0)
    with pytest.raises(SolverError, match="do not connect the graph"):
        resistance(bridge, 0, 1, method="M3")


def test_m3_refuses_to_leave_out_an_edge_that_would_carry_current():
    # 1/5.5e-309 overflows, but the other path from 0 to 2 has a finite
    # resistance of about 1.8e308: left out, edge 0-2 would carry 98% of the
    # current, and R(0, 2) would read twice its value of 9.0e307
    g = ConductanceGraph.from_edges([(0, 1, 5.6e-309), (1, 2, 1.0), (0, 2, 5.5e-309)], 0)
    pairs = [(0, 1), (0, 2), (1, 2)]
    answered = set()
    for (x, y), exact in exact_resistances(g, pairs).items():
        try:
            m3 = resistance(g, x, y, method="M3", tol=1e-10)
        except SolverError as exc:
            assert str(exc).startswith("left-out edges would carry 9.8"), (x, y, exc)
            continue
        assert _rel(m3, exact) <= 1e-10, (x, y)
        answered.add((x, y))
    # across 1-2 the left-out edge sees a drop of 1 V: it would carry 5.5e-309 A
    assert answered == {(1, 2)}
