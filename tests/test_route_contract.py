"""The route contract on small adversarial networks.

A route either answers within its promised relative error of the exact
resistance (see `resistance`'s docstring) or raises SolverError, and a value
it returns is never <= 0.  The networks are drawn from `random.Random(s)`:
3-12 vertices, a random tree plus up to n - 1 extra edges, conductances
10^U(-s, s).  One draw in six sets one edge beside a two-edge path between
its ends, the one at 10^s and the other at 10^-s; one in six makes one edge
subnormal.  The reference is the exact Kron reduction of
`conftest.exact_resistances`.

In the harness: M3 at every spread, M7 at s = 2 and 8 (and on two draws
of the 3,000-draw s = 8 stream that the product-form CG step missed), M4
on the draws that are trees, where the exact sweep solves it, and the sign
of M4 and M7 at every spread, as no route answers <= 0.  Outside it, with
the failures counted in CHANGES.md: the accuracy of M4 on graphs with
cycles, and of M7 at s = 16, where the PCG residual does not bound the
error.
"""

import functools
import random
import sys
import warnings
from fractions import Fraction

import pytest

from resnet.energy import SolverError
from resnet.graphs import ConductanceGraph
from resnet.resistance import resistance

from conftest import EXTREME_FILES, exact_resistances

_DRAWS = 300
_M7_TOL = 1e-8  # the promise at the default tol


def _network(rng, s):
    """(kind, edges, x, y): one random connected network and a pair of its vertices."""
    n = rng.randint(3, 12)
    kind = rng.choice(["plain"] * 4 + ["parallel", "subnormal"])
    m = n - (kind == "parallel")  # the vertices of the tree and the extra edges
    edges = {}
    for v in range(1, m):
        edges[rng.randrange(v), v] = 10.0 ** rng.uniform(-s, s)
    for _ in range(rng.randint(0, m - 1)):
        edges[tuple(sorted(rng.sample(range(m), 2)))] = 10.0 ** rng.uniform(-s, s)
    a, b = rng.choice(sorted(edges))
    if kind == "parallel":  # the edge (a, b) beside the path a - m - b
        high = rng.random() < 0.5
        edges[a, b] = 10.0 ** (s if high else -s)
        edges[a, m] = edges[b, m] = 10.0 ** (-s if high else s)
    elif kind == "subnormal":
        edges[a, b] = 10.0 ** rng.uniform(-323, -308)
    x, y = rng.sample(range(n), 2)
    return kind, [(u, v, c) for (u, v), c in edges.items()], x, y


def _draw(rng, s):
    """(kind, graph, x, y, exact R) of the next network of the stream `rng`."""
    kind, edges, x, y = _network(rng, s)
    g = ConductanceGraph.from_edges(edges, 0)
    x, y = g.index_of(x), g.index_of(y)
    return kind, g, x, y, exact_resistances(g, [(x, y)])[x, y]


@functools.cache
def _draws(s):
    """(kind, graph, x, y, exact R) of each of the `_DRAWS` networks at spread `s`."""
    rng = random.Random(s)
    return [_draw(rng, s) for _ in range(_DRAWS)]


def _answer(g, x, y, method):
    try:
        return resistance(g, x, y, method=method)
    except SolverError:
        return None


def _check(value, exact, within, what):
    """Assert the contract on one answered value."""
    assert value > 0, what
    assert abs(Fraction(value) - exact) <= within * exact, (what, value, float(exact))


@pytest.mark.parametrize("s", [2, 8, 16])
def test_m3_is_within_tol_or_raises(s):
    for k, (kind, g, x, y, exact) in enumerate(_draws(s)):
        m3 = _answer(g, x, y, "M3")
        # M3 leaves a subnormal edge out, and raises where it was a bridge
        assert m3 is not None or kind == "subnormal", (s, k)
        if m3 is not None:
            _check(m3, exact, 1e-10, (s, k, kind))


def _m7_keeps_its_promise(s):
    for k, (kind, g, x, y, exact) in enumerate(_draws(s)):
        m7 = _answer(g, x, y, "M7")
        assert m7 is not None or kind == "subnormal", (s, k)
        if m7 is not None:
            _check(m7, exact, _M7_TOL, (s, k, kind))


def test_m7_is_within_1e_8_or_raises_at_s_2():
    _m7_keeps_its_promise(2)


def test_m7_is_within_1e_8_or_raises_at_s_8():
    # the product-form CG step was silently off on 17 of 3,000 draws at s = 8
    _m7_keeps_its_promise(8)


@pytest.mark.parametrize("k", [912, 1996])
def test_m7_is_within_1e_8_on_the_draws_the_product_form_missed(k):
    # draw k of the 3,000-draw s = 8 stream: the product-form CG step read
    # 7.0e-6 (k = 912) and 7.5e-5 (k = 1996) off the exact R, with no error
    rng = random.Random(8)
    for _ in range(k):
        _network(rng, 8)
    _, g, x, y, exact = _draw(rng, 8)
    _check(resistance(g, x, y, method="M7"), exact, _M7_TOL, k)


@pytest.mark.parametrize("s", [8, 16])
def test_m7_is_positive_or_raises_at_wide_spreads(s):
    for k, (kind, g, x, y, _) in enumerate(_draws(s)):
        m7 = _answer(g, x, y, "M7")
        assert m7 is None or m7 > 0, (s, k, kind)


@pytest.mark.parametrize("s", [2, 8, 16])
def test_m4_is_positive_or_raises(s):
    # its drop comes out <= 0 on 2 draws at s = 2 (down to -2.88e17, where the
    # exact R is above 1e300) and on 18 at s = 16; `resistance` must refuse them
    for k, (kind, g, x, y, _) in enumerate(_draws(s)):
        m4 = _answer(g, x, y, "M4")
        assert m4 is None or m4 > 0, (s, k, kind)


@pytest.mark.parametrize("s", [2, 8, 16])
def test_m4_is_within_1e_14_or_raises_on_tree_draws(s):
    # the base-grounded tree sweep sums 1/c along each side of the path: it
    # raises exactly where R exceeds the double range
    trees = [(k, draw) for k, draw in enumerate(_draws(s)) if draw[1].num_edges == draw[1].n - 1]
    assert len(trees) >= 50
    for k, (kind, g, x, y, exact) in trees:
        m4 = _answer(g, x, y, "M4")
        if m4 is None:
            assert exact > sys.float_info.max, (s, k, kind)
        else:
            _check(m4, exact, 1e-14, (s, k, kind))


@pytest.mark.parametrize("s, k", [(2, 150), (2, 281), (8, 194)])
def test_m4_raises_on_tree_draws_whose_resistance_overflows(s, k):
    # trees with one subnormal edge on the path, whose R exceeds the double
    # range: the LU solve answered 3.0e23 on the last with no error, and its
    # drops of -2.88e17 and -1.13e15 on the first two were refused only for
    # their sign
    kind, g, x, y, exact = _draws(s)[k]
    assert (kind, g.num_edges) == ("subnormal", g.n - 1) and exact > sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="route M4 gives a non-positive or non-finite"):
            resistance(g, x, y, method="M4")


def test_m4_on_file_b_answers_the_pair_the_subnormal_edge_does_not_touch():
    # R(0, 1) = 1.0 exactly, where the LU solve went NaN as a whole; the
    # pairs across the edge of 1e-310 overflow, and raise without a warning
    data = EXTREME_FILES["B"]
    g = ConductanceGraph.from_edges(data["edges"], data["base_point"])
    assert g.labels == [0, 1, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resistance(g, 0, 1, method="M4") == 1.0
        for x, y in [(1, 2), (0, 2)]:
            with pytest.raises(SolverError, match=r"route M4 .* \(inf\)$"):
                resistance(g, x, y, method="M4")


# the routes that answer some pair of each file; on B, M3 raises for every
# pair, as the edge 1 - 2 that it cannot use is a bridge
_ANSWERING = {"A": {"M3", "M4", "M7"}, "B": {"M4", "M7"}, "C": {"M3", "M4", "M7"}}


@pytest.mark.parametrize("name", sorted(EXTREME_FILES))
def test_every_route_keeps_the_contract_on_the_extreme_files(name):
    # every route answers these within the M7 promise or raises, M4 included
    data = EXTREME_FILES[name]
    g = ConductanceGraph.from_edges(data["edges"], data["base_point"])
    pairs = [(x, y) for x in range(g.n) for y in range(g.n) if x != y]
    answered = set()
    for (x, y), exact in exact_resistances(g, pairs).items():
        for method, within in (("M3", 1e-10), ("M4", _M7_TOL), ("M7", _M7_TOL)):
            value = _answer(g, x, y, method)
            if value is not None:
                _check(value, exact, within, (x, y, method))
                answered.add(method)
    assert answered == _ANSWERING[name]
