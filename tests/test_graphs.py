import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resnet import graphs
from resnet.graphs import (
    ConductanceGraph,
    GraphError,
    _label_sort_key,
    _label_to_json,
    as_truncated,
    generate,
    load_graph,
    truncate,
    underlying,
    validate,
    with_frontier,
)
from resnet.energy import delta
from resnet.greens import greens_gram, walk_greens
from resnet.laplacian import defect_recursion_comb
from resnet.markov import sample_paths
from resnet.resistance import resistance

from conftest import (
    WRONG_SHAPES,
    build_truncation,
    oracle_build,
    oracle_load_graph,
    random_connected_graph,
    sparse_structure_issues,
    truncation_digest,
)


def test_from_edges_orders_breadth_first_from_base():
    g = ConductanceGraph.from_edges(
        [("b", "a", 1.0), ("a", "c", 2.0), ("c", "d", 1.5)], base_point="a"
    )
    assert g.labels == ["a", "b", "c", "d"]
    assert g.base_point == 0
    assert list(g.hop_distance) == [0, 1, 1, 2]
    assert g.n == 4 and g.num_edges == 3


def test_degrees_and_conductance_lookups():
    g = ConductanceGraph.from_edges([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)], 0)
    assert g.weighted_degree(g.index_of(1)) == pytest.approx(5.0)
    assert g.conductance(g.index_of(0), g.index_of(2)) == 4.0
    assert g.conductance(g.index_of(0), g.index_of(0)) == 0.0
    # cached vector agrees with the sparse row sums
    assert np.allclose(g.degrees, np.asarray(g.adjacency().sum(axis=1)).ravel())


def test_degrees_handles_isolated_vertices():
    # a vertex without edges is refused when the graph is built, so `degrees`
    # sums a nonempty row for every vertex
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 3.0)], 0)
    assert g.degrees.tolist() == [1.0, 4.0, 3.0]
    with pytest.raises(GraphError, match="zero-degree: vertices without edges: \\[2\\]"):
        ConductanceGraph([0, 1, 2], 0, np.array([0]), np.array([1]), np.array([1.0]))


def test_the_constructor_builds_from_index_edges_only():
    # the constructor takes index edges, not CSR arrays, and stores each edge
    # in both orientations with its last weight: listed as c(0, 1) = 1 and
    # then c(1, 0) = 5, the edge is 5 both ways
    with pytest.raises(TypeError):
        ConductanceGraph(0, [0, 1, 2], np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]),
                         np.array([1.0, 5.0, 2.0, 2.0]), np.array([0, 1, 2]))
    g = ConductanceGraph([0, 1, 2], 0, np.array([0, 1, 1]), np.array([1, 0, 2]),
                         np.array([1.0, 5.0, 2.0]))
    assert g.weights.tolist() == [5.0, 5.0, 2.0, 2.0] and sparse_structure_issues(g) == []


def test_constructor_refuses_isolated_and_unreachable_vertices():
    def build(n, i, j):
        ends = (np.array(i, dtype=np.int64), np.array(j, dtype=np.int64))
        return ConductanceGraph(list(range(n)), 0, *ends, np.ones(len(i)))

    # vertex 2 has no edge; vertices 2 and 3 sit on an edge the base cannot reach
    for n, i, j, codes, message in [
        (3, [0], [1], ["disconnected", "zero-degree"],
         "zero-degree: vertices without edges: [2]\n"
         "disconnected: 1 vertices unreachable from the base point, e.g. [2]"),
        (4, [0, 2], [1, 3], ["disconnected"],
         "disconnected: 2 vertices unreachable from the base point, e.g. [2, 3]"),
        (1, [], [], ["zero-degree"], "zero-degree: vertices without edges: [0]"),
    ]:
        with pytest.raises(GraphError) as exc:
            build(n, i, j)
        assert str(exc.value) == "graph failed validation:\n" + message
        assert exc.value.report.codes() == codes
    assert build(2, [0], [1]).n == 2


def test_duplicate_edge_consistent_ok_conflicting_rejected():
    g = ConductanceGraph.from_edges([(0, 1, 2.0), (1, 0, 2.0)], 0)
    assert g.num_edges == 1
    with pytest.raises(GraphError, match="conflicting"):
        ConductanceGraph.from_edges([(0, 1, 2.0), (1, 0, 3.0)], 0)


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 0, 1.0)], "self-loop"),
        ([(0, 1, -2.0)], "invalid weight"),
        ([(0, 1, 0.0)], "invalid weight"),
        ([(0, 1, float("nan"))], "invalid weight"),
        ([(0, 1, float("inf"))], "invalid weight"),
        ([(0, 1, 1.0), (1, 1, 1.0)], "self-loop at vertex 1"),
        ([(0, 1, 2.0), (1, 0, 3.0)], r"conflicting weights for edge \(1, 0\): 2.0 vs 3.0"),
        ([("a", "b", 1.0), ("b", "a", 1.5)], r"edge \('b', 'a'\)"),
        # the first offending listing in input order is the one reported
        ([(0, 1, -1.0), (2, 2, 1.0)], "invalid weight"),
        ([(0, 2, 1.0), (2, 2, 1.0), (0, 1, 0.0)], "self-loop"),
        # entries that are not two hashable labels and a number, in the loader's words
        ([(0, 1)], r"^malformed edge entry \(0, 1\)$"),
        ([(0, 1, "x")], r"^malformed edge entry \(0, 1, 'x'\)$"),
        ([(0, 1, None)], r"^malformed edge entry \(0, 1, None\)$"),
        ([(0, 1, 10**400)], r"^malformed edge entry \(0, 1, 1000"),
        ([(0, 1, 1.0), ([0], 1, 1.0)], r"^malformed edge entry \(\[0\], 1, 1.0\)$"),
        ([(0, 1, 1.0), 5], "^malformed edge entry 5$"),
    ],
)
def test_from_edges_rejections(edges, message):
    with pytest.raises(GraphError, match=message):
        ConductanceGraph.from_edges(edges, 0)


def test_a_bool_label_never_shares_a_vertex_with_a_number():
    # True == 1, so the label index used to merge them, although the label
    # order sorts bools apart from every number
    for edges, flag, number in [
        ([(0, 1, 1.0), (True, 2.0, 1.0)], True, 1),
        ([(True, 2.0, 1.0), (0, 1.0, 1.0)], True, 1.0),
        ([(False, 2, 1.0), (0, 2, 1.0)], False, 0),
    ]:
        message = f"bool label {flag!r} and number label {number!r} would share a vertex"
        with pytest.raises(GraphError, match="^" + re.escape(message) + "$"):
            ConductanceGraph.from_edges(edges, 2)
    # 1 and 1.0 share a sort key, so they stay one vertex; a bool that equals
    # no number label is a vertex of its own
    assert ConductanceGraph.from_edges([(0, 1, 1.0), (1.0, 2, 1.0)], 0).labels == [0, 1, 2]
    g = ConductanceGraph.from_edges([("a", True, 1.0), (True, 2, 1.0), (2, "b", 1.0)], "a")
    assert g.labels == ["a", True, 2, "b"] and type(g.labels[1]) is bool
    assert ConductanceGraph.from_edges([(True, 2, 1.0)], True).labels == [True, 2]
    # nor does a base point name the vertex of a label it only equals
    for edges, base in [([(True, 2, 1.0)], 1), ([(1, 2, 1.0)], True)]:
        with pytest.raises(GraphError, match=f"^base point {base!r} not among the vertices$"):
            ConductanceGraph.from_edges(edges, base)


def test_unknown_base_point_rejected():
    with pytest.raises(GraphError, match="base point"):
        ConductanceGraph.from_edges([(0, 1, 1.0)], 7)


def test_malformed_input_to_from_edges_is_a_graph_error():
    # each of these used to escape as a raw ValueError or TypeError
    with pytest.raises(GraphError, match="malformed edge entry") as exc:
        ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2), (2, 3, "x"), (3, 3, 1.0)], 0)
    assert [str(i) for i in exc.value.report.issues] == [
        "bad-edge: malformed edge entry (1, 2)",
        "bad-edge: malformed edge entry (2, 3, 'x')",
        "self-loop: self-loop at vertex 3",
    ]
    with pytest.raises(GraphError, match=re.escape("base point [0] not among the vertices")):
        ConductanceGraph.from_edges([(0, 1, 1.0)], [0])
    with pytest.raises(GraphError, match=re.escape("malformed edge entry (0, 1)")):
        ConductanceGraph.from_edges([(0, 1)], 0)


def test_edge_list_round_trips():
    g = ConductanceGraph.from_edges([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)], 0)
    rebuilt = ConductanceGraph.from_edges(
        [(g.labels[i], g.labels[j], w) for i, j, w in g.edge_list()], 0
    )
    assert rebuilt.labels == g.labels
    assert np.array_equal(rebuilt.weights, g.weights)


def _same_graph(a, b):
    assert a.labels == b.labels and a.base_point == b.base_point
    for name in ("indptr", "indices", "weights", "hop_distance"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and np.array_equal(left, right), name


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    extra=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_from_edges_ignores_edge_order_and_orientation(n, extra, seed, data):
    g = random_connected_graph(np.random.default_rng(seed), n, extra)
    # mixed label types exercise the (hop, label) tie-break
    name = lambda i: g.labels[i] if g.labels[i] % 2 else (g.labels[i], "even")
    edges = [(name(i), name(j), w) for i, j, w in g.edge_list()]
    order = data.draw(st.permutations(range(len(edges))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    shuffled = [
        (edges[k][1], edges[k][0], edges[k][2]) if flip else edges[k]
        for k, flip in zip(order, flips)
    ]
    base = name(g.base_point)
    _same_graph(
        ConductanceGraph.from_edges(shuffled, base),
        ConductanceGraph.from_edges(edges, base),
    )


def test_load_graph_of_scrambled_indices_matches_from_edges(tmp_path):
    g = generate("comb", radius=5).graph
    rng = np.random.default_rng(3)
    slot = rng.permutation(g.n)  # file index of each vertex
    labels = [None] * g.n
    for v, k in enumerate(slot):
        labels[k] = list(g.labels[v])
    rows = [[int(slot[i]), int(slot[j]), w] for i, j, w in g.edge_list()]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    rows = [[j, i, w] if k % 2 else [i, j, w] for k, (i, j, w) in enumerate(rows)]
    path = tmp_path / "scrambled.json"
    data = {"vertices": g.n, "base_point": int(slot[g.base_point]), "edges": rows, "labels": labels}
    path.write_text(json.dumps(data))
    labelled = [(g.labels[i], g.labels[j], w) for i, j, w in g.edge_list()]
    _same_graph(load_graph(path).graph, ConductanceGraph.from_edges(labelled, (0, 0)))


@pytest.mark.parametrize(
    "family,params",
    [("comb", dict(radius=7)), ("lattice", dict(radius=6, d=2)), ("binary-tree", dict(radius=5))],
)
def test_truncate_matches_from_edges_on_the_ball(family, params):
    g = generate(family, **params).graph
    for radius in (1, 3, params["radius"], params["radius"] + 2):
        ball = {g.labels[v] for v in range(g.n) if g.hop_distance[v] <= radius}
        edges = [
            (g.labels[i], g.labels[j], w)
            for i, j, w in g.edge_list()
            if g.labels[i] in ball and g.labels[j] in ball
        ]
        t = truncate(g, radius)
        _same_graph(t.graph, ConductanceGraph.from_edges(edges, g.labels[g.base_point]))
        rim = {g.labels[v] for v in range(g.n) if g.hop_distance[v] == radius}
        assert set(t.frontier_labels) == rim


def _file_report(path, vertices, base_point, edges):
    """Write a graph file with these fields to `path` and load it: the report
    the loader raises with, or the empty report of the graph it loads."""
    path.write_text(json.dumps({"vertices": vertices, "base_point": base_point, "edges": edges}))
    try:
        return validate(load_graph(path).graph)
    except GraphError as exc:
        return exc.report


def test_repeated_edge_is_compared_with_its_previous_listing(tmp_path):
    # each listing is within the match tolerance of the one before, the
    # third is not within it of the first; the last listing is stored
    w1, w2, w3 = 1.0, 1.0 + 0.9e-12, 1.0 + 1.8e-12
    g = ConductanceGraph.from_edges([(0, 1, w1), (1, 0, w2), (0, 1, w3)], 0)
    assert g.num_edges == 1 and g.conductance(0, 1) == w3
    # a conflicting second listing is reported once; the third agrees with it
    rep = _file_report(tmp_path / "g.json", 2, 0, [[0, 1, 1.0], [1, 0, 2.0], [0, 1, 2.0]])
    assert [issue.code for issue in rep.issues] == ["asymmetric"]
    assert "(1, 0): 1.0 vs 2.0" in rep.issues[0].detail


def test_validate_edge_data_codes(tmp_path):
    path = tmp_path / "g.json"
    rep = _file_report(path, 3, 5, [[0, 0, 1.0], [0, 9, 1.0], [0, 1, -1.0], "junk"])
    assert set(rep.codes()) >= {"bad-base", "self-loop", "bad-index", "nonpositive-weight", "bad-edge"}
    rep = _file_report(path, 2, 0, [[0, 1, 2.0], [1, 0, 3.0]])
    assert rep.codes() == ["asymmetric"]
    # the loader refuses this file: vertices 2 and 3 are isolated and unreachable
    rep = _file_report(path, 4, 0, [[0, 1, 1.0]])
    assert rep.codes() == ["disconnected", "zero-degree"]
    with pytest.raises(GraphError, match="^graph failed validation"):
        load_graph(path)
    assert _file_report(path, 2, 0, [[0, 1, 1.0]]).ok
    rep = _file_report(path, 0, 0, [])
    assert rep.codes() == ["bad-count"]


def test_truncate_closed_ball_and_frontier():
    t = generate("halfline", radius=4)
    g = t.graph
    assert g.labels == [0, 1, 2, 3, 4]
    assert list(t.frontier) == [g.index_of(4)]
    assert sorted(t.interior) == [g.index_of(k) for k in range(4)]
    assert t.frontier_labels == [4]
    with pytest.raises(GraphError, match="radius"):
        truncate(g, 0)


def test_radius_is_read_as_an_index():
    t = generate("lattice", radius=5)
    # 2.5 used to give the radius-2 ball with an empty frontier, and
    # np.int64(3) was rejected by the generators
    for bad in (2.5, 2.0, "2", None, 0, -1):
        message = re.escape(f"truncation radius must be an integer >= 1, got {bad!r}")
        with pytest.raises(GraphError, match=message):
            truncate(t, bad)
        with pytest.raises(GraphError, match=message):
            generate("lattice", radius=bad)
    with pytest.raises(GraphError, match="truncation radius must be an integer"):
        truncate(ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 0), 2.5)
    assert truncation_digest(truncate(t, np.int64(2))) == truncation_digest(truncate(t, 2))
    assert len(truncate(t, np.int64(2)).frontier) == 3
    bratteli = {"level_sizes": [1, 2, 2, 3], "level_weights": [1.0, 2.0, 3.0]}
    for family, params in (("lattice", {}), ("comb", {}), ("bratteli", bratteli)):
        assert truncation_digest(generate(family, radius=np.int64(3), **params)) == (
            truncation_digest(generate(family, radius=3, **params))
        )


def test_integer_parameters_take_numpy_integers_and_refuse_bools():
    # each site used to read integers its own way: the families and the comb
    # recursion refused numpy integers, and several took True as 1
    weights = {"level_weights": [1.0, 2.0]}
    for family, params, numpy_params in [
        ("chain", {"width": 10}, {"width": np.int64(10)}),
        ("lattice", {"radius": 3, "d": 2}, {"radius": 3, "d": np.int64(2)}),
        ("nary-tree", {"radius": 2, "branching": 3}, {"radius": 2, "branching": np.int64(3)}),
        ("bratteli", {"level_sizes": [1, 2, 3], **weights},
         {"level_sizes": [1, np.int64(2), 3], **weights}),
    ]:
        want = truncation_digest(generate(family, **params))
        assert truncation_digest(generate(family, **numpy_params)) == want, family
    comb = defect_recursion_comb(np.int64(20))
    assert type(comb.levels) is int
    assert np.array_equal(comb.values, defect_recursion_comb(20).values)
    halfline = generate("halfline", radius=3)
    for call, message in [
        (lambda: generate("lattice", radius=2, d=True), "lattice requires integer dimension d >= 1"),
        (lambda: generate("lattice", radius=True), "truncation radius must be an integer >= 1, got True"),
        (lambda: truncate(halfline, True), "truncation radius must be an integer >= 1, got True"),
        (lambda: generate("bratteli", level_sizes=[1, True], level_weights=[1.0]),
         "bratteli level sizes must be ints >= 1"),
        (lambda: generate("chain", width=np.float64(10)), "chain requires integer width >= 3"),
        (lambda: walk_greens(halfline, order_cap=True),
         "order_cap must be an integer of at least 1, got True"),
        (lambda: sample_paths(halfline, 0, True, 10, seed=0), "n_samples True is not an integer"),
        (lambda: sample_paths(halfline, 0, 1, 10, seed=False), "seed False is not an integer"),
    ]:
        with pytest.raises(GraphError, match="^" + re.escape(message) + "$"):
            call()


def test_truncation_is_index_prefix_of_larger_ball():
    big = generate("comb", radius=6).graph
    small = truncate(big, 4)
    assert small.graph.labels == big.labels[: small.graph.n]


def test_with_frontier_guards_base():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 0)
    with pytest.raises(GraphError, match="base point"):
        with_frontier(g, [0])
    t = with_frontier(g, [2])
    assert list(t.frontier) == [g.index_of(2)]


def test_with_frontier_rejects_a_repeated_label(tmp_path):
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], 0)
    with pytest.raises(GraphError, match="frontier label 2 is repeated"):
        with_frontier(g, [2, 2, 3])
    with pytest.raises(GraphError, match="frontier label 'b' is repeated"):
        with_frontier(ConductanceGraph.from_edges([("o", "a", 1.0), ("a", "b", 1.0)], "o"), ["b", "a", "b"])
    # a graph file's frontier goes through the same check
    path = tmp_path / "g.json"
    edges = [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]
    path.write_text(json.dumps({"vertices": 4, "base_point": 0, "edges": edges, "frontier": [2, 2, 3]}))
    with pytest.raises(GraphError, match="frontier label 2 is repeated"):
        load_graph(path)


def test_underlying_and_as_truncated():
    g = ConductanceGraph.from_edges([(0, 1, 1.0)], 0)
    t = as_truncated(g)
    assert underlying(t) is g and underlying(g) is g
    assert len(t.frontier) == 0 and len(t.interior) == g.n
    assert as_truncated(t) is t


def test_graph_repr_and_a_valid_report():
    g = ConductanceGraph.from_edges([("a", "b", 1.0), ("b", "c", 2.0)], "b")
    assert repr(g) == "ConductanceGraph(n=3, edges=2, base='b')"
    assert str(validate(g)) == "valid"


def test_labels_that_are_no_number_string_or_tuple_sort_last_by_repr():
    labels = [None, (0, "a"), 2.5, "b", True, -1]
    assert _label_sort_key(None) == (3, "None", "")
    assert sorted(labels, key=_label_sort_key) == [-1, 2.5, "b", (0, "a"), None, True]


def test_numpy_labels_are_written_as_json_numbers():
    label = (np.int64(2), (np.float64(0.5), "a"))
    assert _label_to_json(label) == [2, [0.5, "a"]]
    assert [type(v) for v in (_label_to_json(np.int32(2)), _label_to_json(np.float32(0.5)))] == [int, float]


def test_explicit_family_without_a_radius_is_all_interior():
    # a graph given by its edges and no radius: the whole graph, no frontier
    trunc = as_truncated(ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)], 1))
    assert trunc.radius == 1
    assert trunc.interior.tolist() == [0, 1, 2] and len(trunc.frontier) == 0


# -- generators ----------------------------------------------------------------


def test_halfline_weights_are_geometric():
    g = generate("halfline", radius=5).graph
    assert g.n == 6
    for k in range(5):
        assert g.conductance(g.index_of(k), g.index_of(k + 1)) == pytest.approx(math.e**k)


def test_lattice_counts_and_weights():
    t = generate("lattice", radius=2, d=2)
    g = t.graph
    assert g.n == 6  # points of Z^2_+ with coordinate sum <= 2
    # weight is exp(|farther endpoint|)
    w = g.conductance(g.index_of((0, 0)), g.index_of((1, 0)))
    assert w == pytest.approx(math.exp(1.0))
    w = g.conductance(g.index_of((1, 0)), g.index_of((1, 1)))
    assert w == pytest.approx(math.exp(math.hypot(1, 1)))
    assert len(t.frontier) == 3  # (2,0), (1,1), (0,2)


def test_binary_tree_structure():
    t = generate("binary-tree", radius=3, b_plus=2.0, b_minus=3.0)
    g = t.graph
    assert g.n == 2**4 - 1
    assert g.conductance(g.index_of(""), g.index_of("+")) == 1.0
    assert g.conductance(g.index_of("+"), g.index_of("++")) == 2.0
    assert g.conductance(g.index_of("+"), g.index_of("+-")) == 3.0
    assert len(t.frontier) == 8


def test_nary_tree_counts_and_weights():
    t = generate("nary-tree", radius=3, branching=2, b=2.0)
    g = t.graph
    assert g.n == 15
    assert g.conductance(g.index_of(()), g.index_of((0,))) == 1.0
    assert g.conductance(g.index_of((0,)), g.index_of((0, 1))) == 2.0
    # degree at depth 1: one edge up (b^0) + two down (b^1 each)
    assert g.weighted_degree(g.index_of((1,))) == pytest.approx(1 + 2 * 2.0)


def test_comb_geometry():
    t = generate("comb", radius=3)
    g = t.graph
    # ball: n + k <= 3
    assert sorted(g.labels) == sorted(
        [(n, k) for n in range(4) for k in range(4 - n)]
    )
    assert g.conductance(g.index_of((0, 0)), g.index_of((1, 0))) == 2.0
    assert g.conductance(g.index_of((1, 0)), g.index_of((2, 0))) == 4.0
    assert g.conductance(g.index_of((0, 1)), g.index_of((0, 2))) == 4.0
    assert g.conductance(g.index_of((0, 0)), g.index_of((0, 1))) == 2.0


def test_bratteli_generator():
    t = generate("bratteli", level_sizes=[1, 2, 3], level_weights=[1.0, 0.5])
    g = t.graph
    assert g.n == 6
    assert g.conductance(g.index_of((0, 0)), g.index_of((1, 1))) == 1.0
    assert g.conductance(g.index_of((1, 0)), g.index_of((2, 2))) == 0.5
    with pytest.raises(GraphError):
        generate("bratteli", level_sizes=[2], level_weights=[])
    with pytest.raises(GraphError):
        generate("bratteli", level_sizes=[1, 2], level_weights=[1.0, 2.0])


def test_wye_generator():
    t = generate("wye", r1=2.0, r2=4.0, r3=4.0)
    g = t.graph
    assert sorted(g.labels) == ["a", "b", "m"]
    assert g.conductance(g.index_of("a"), g.index_of("m")) == pytest.approx(0.5)
    assert g.conductance(g.index_of("m"), g.index_of("b")) == pytest.approx(0.5)


def test_chain_generator():
    t = generate("chain", width=5, growth=2.0)
    g = t.graph
    assert g.base_point == g.index_of(2)
    assert sorted(t.frontier_labels) == [0, 4]
    assert g.conductance(g.index_of(0), g.index_of(1)) == 1.0
    assert g.conductance(g.index_of(3), g.index_of(4)) == 8.0
    with pytest.raises(GraphError, match="width"):
        generate("chain", radius=4)


def test_generate_unknown_family_lists_known():
    with pytest.raises(GraphError, match="halfline"):
        generate("moebius", radius=3)
    with pytest.raises(GraphError, match="bad parameters"):
        generate("halfline", radius=3, frobnicate=1)


def test_generator_output_that_fails_validation_is_a_graph_error():
    with pytest.raises(GraphError, match="^graph failed validation") as info:
        as_truncated(ConductanceGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)], 0))
    assert info.value.report.codes() == ["disconnected"]


def test_explicit_is_not_a_family():
    # an edge list is built by from_edges, then cut by truncate or wrapped by as_truncated
    with pytest.raises(GraphError, match="unknown family 'explicit'"):
        generate("explicit", edges=[(0, 1, 1.0)], base_point=0)


def test_vertex_queries_reject_a_non_integer_index():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)], 0)
    for x, problem in [(1.5, "is not an integer"), (1.0, "is not an integer"),
                       ("1", "is not an integer"), (None, "is not an integer"),
                       (-1, "out of range [0, 3)"), (3, "out of range [0, 3)")]:
        for query in (g.neighbors, g.weighted_degree, lambda v: g.conductance(v, 2)):
            with pytest.raises(GraphError, match=re.escape(f"vertex index {x!r} {problem}")):
                query(x)
    assert g.weighted_degree(np.int64(1)) == g.weighted_degree(1) == 3.0


def test_a_bool_is_no_vertex_index():
    # True used to read vertex 1 in each of these, and False vertex 0
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 3.0), (2, 3, 1.0)], 0)
    kernel = greens_gram(g)
    queries = (g.neighbors, lambda v: g.conductance(v, 2), lambda v: resistance(g, v, 3),
               lambda v: delta(g, v))
    for x in (True, False):
        for query in queries:
            with pytest.raises(GraphError, match=f"vertex index {x} is not an integer"):
                query(x)
        with pytest.raises(GraphError, match=f"vertex index {x} is grounded or absent"):
            kernel.value(x, 2)
    assert kernel.value(np.int64(1), 2) == kernel.value(1, 2)


def test_conductance_checks_its_second_vertex():
    g = ConductanceGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)], 0)
    # 7 and 1.5 used to read as "not adjacent", and 2.0 as vertex 2
    for y, problem in [(7, "out of range"), (1.5, "is not an integer"),
                       (2.0, "is not an integer"), ("2", "is not an integer"),
                       (None, "is not an integer"), (-1, "out of range")]:
        with pytest.raises(GraphError, match=re.escape(f"vertex index {y!r} {problem}")):
            g.conductance(1, y)
    assert g.conductance(1, np.int64(2)) == g.conductance(1, 2) == 2.0
    assert g.conductance(1, 1) == 0.0


def test_generated_families_validate(rng):
    cases = [
        ("halfline", dict(radius=6)),
        ("lattice", dict(radius=3, d=2)),
        ("lattice", dict(radius=2, d=3)),
        ("binary-tree", dict(radius=4)),
        ("nary-tree", dict(radius=3, branching=3, b=1.5)),
        ("comb", dict(radius=5)),
        ("bratteli", dict(level_sizes=[1, 3, 2, 4], level_weights=[1.0, 2.0, 0.25])),
        ("wye", dict(r1=1.0, r2=2.0, r3=3.0)),
        ("chain", dict(width=7, growth=1.5)),
    ]
    for family, params in cases:
        t = generate(family, **params)
        assert validate(t.graph).ok, family
        assert len(t.interior) + len(t.frontier) == t.graph.n


# -- serialization ---------------------------------------------------------------


def test_json_round_trip_with_labels_and_frontier(tmp_path):
    t = generate("comb", radius=3)
    path = tmp_path / "comb.json"
    t.write_json(path)
    back = load_graph(path)
    assert back.graph.labels == t.graph.labels
    assert np.array_equal(back.graph.weights, t.graph.weights)
    assert list(back.frontier) == list(t.frontier)
    assert back.radius == t.radius


def test_load_plain_file_has_empty_frontier(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 2, "base_point": 0, "edges": [[0, 1, 2.5]]}))
    t = load_graph(path)
    assert len(t.frontier) == 0
    assert t.graph.conductance(0, 1) == 2.5


@pytest.mark.parametrize(
    "data,match",
    [
        ({"vertices": 2, "edges": []}, "base_point"),
        ({"vertices": 2, "base_point": 0, "edges": [[0, 1, 1.0], [1, 0, 2.0]]}, "validation"),
        ({"vertices": 2, "base_point": 0, "edges": [[0, 5, 1.0]]}, "validation"),
        ({"vertices": 2, "base_point": 0, "edges": [[0, 1, 1.0]], "labels": ["a"]}, "labels"),
    ],
)
def test_load_rejects_corrupt_files(tmp_path, data, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GraphError, match=match):
        load_graph(path)


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_load_rejects_wrong_shapes(tmp_path, case):
    data, match = WRONG_SHAPES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GraphError, match=match):
        load_graph(path)


def test_edge_data_that_is_not_a_list_is_a_bad_edge(tmp_path):
    rep = _file_report(tmp_path / "g.json", 3, 0, 5)
    assert [str(i) for i in rep.issues] == [
        "bad-edge: edges must be a list of [x, y, c] entries, got 5"
    ]


def test_load_missing_and_unparsable(tmp_path):
    with pytest.raises(GraphError, match="cannot read"):
        load_graph(tmp_path / "absent.json")
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(GraphError, match="JSON"):
        load_graph(path)


def test_disconnected_edges_are_refused():
    with pytest.raises(GraphError) as exc:
        ConductanceGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)], 0)
    assert str(exc.value) == (
        "graph failed validation:\n"
        "disconnected: 2 vertices unreachable from the base point, e.g. [2, 3]"
    )
    assert exc.value.report.codes() == ["disconnected"]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=25),
    extra=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_connected_graphs_validate(n, extra, seed):
    g = random_connected_graph(np.random.default_rng(seed), n, extra)
    assert validate(g).ok
    assert g.hop_distance.min() >= 0
    d = np.asarray(g.adjacency().sum(axis=1)).ravel()
    assert np.allclose(g.degrees, d)


# -- array-native loading against the oracle loader -----------------------------------


# ints past float precision, packed close enough for distinct ints to share a float
_BIG = st.integers(2**53 - 3, 2**53 + 5) | st.integers(-(2**53) - 5, -(2**53) + 3) | (
    st.integers(2**63 - 2, 2**64)
)
_SCALAR = (
    st.integers(min_value=-20, max_value=20)
    | _BIG
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)
_MIXED = st.recursive(_SCALAR, lambda part: st.lists(part, max_size=3).map(tuple), max_leaves=6)
_INT_TUPLE = st.lists(st.integers(min_value=-3, max_value=3) | _BIG, max_size=4).map(tuple)
# label sets of one kind take Python's own order where it is exact, the
# others the full key; the pairs of kinds are where the two orders part
_LABEL_SETS = st.one_of(
    *(
        st.lists(kind, min_size=1, max_size=12, unique=True)
        for kind in (
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=-50, max_value=50) | _BIG,
            st.integers(min_value=-3, max_value=3) | st.booleans(),
            st.integers(min_value=-3, max_value=3) | st.floats(allow_nan=False),
            st.text(max_size=3),
            _INT_TUPLE,
            _MIXED,
        )
    )
)


def _built_or_refused(build):
    """What `build()` returns, or the GraphError it raises."""
    try:
        return build()
    except GraphError as exc:
        return exc


def _same_truncation(a, b):
    _same_graph(a.graph, b.graph)
    assert a.radius == b.radius
    for name in ("interior", "frontier"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and np.array_equal(left, right), name


@settings(max_examples=200, deadline=None)
@given(labels=_LABEL_SETS, data=st.data())
def test_loading_matches_the_oracle_on_mixed_labels(labels, tmp_path_factory, data):
    n = len(labels)
    # a random forest on the labels in drawn order; vertices past `reach` may
    # stay unreached, and half the draws reach every vertex
    reach = data.draw(st.just(n) | st.integers(min_value=1, max_value=n))
    weight = st.floats(min_value=0.1, max_value=10.0)
    edges = [
        (data.draw(st.integers(min_value=0, max_value=k - 1)), k, data.draw(weight))
        for k in range(1, n)
        if k < reach or data.draw(st.booleans())
    ]
    base = data.draw(st.integers(min_value=0, max_value=reach - 1))
    frontier = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4))
    frontier = [k for k in frontier if k != base]
    labelled = [(labels[x], labels[y], w) for x, y, w in edges]
    # each edge joins k to an earlier vertex, so one pass finds what the base reaches
    reached = set(range(reach))
    for x, y, _ in edges:
        if x in reached:
            reached.add(y)
    named = {v for x, y, _ in edges for v in (x, y)}

    def from_edges():
        return ConductanceGraph.from_edges(labelled, labels[base])

    new = _built_or_refused(from_edges)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_csr", oracle_build)
        old = _built_or_refused(from_edges)
    if base not in named:
        assert isinstance(new, GraphError) and "not among the vertices" in str(new)
    elif named <= reached:
        _same_graph(new, old)
    else:
        assert isinstance(new, GraphError) and new.report.codes() == ["disconnected"]
    if isinstance(new, GraphError):
        assert str(new) == str(old)

    path = tmp_path_factory.mktemp("mixed") / "g.json"
    to_json = [_label_to_json(l) for l in labels]
    rows = [[x, y, w] if data.draw(st.booleans()) else [y, x, w] for x, y, w in edges]
    file = {"vertices": n, "base_point": base, "edges": rows, "labels": to_json}
    if frontier:
        file.update(frontier=[to_json[k] for k in frontier], radius=3)
    path.write_text(json.dumps(file))
    if len(reached) < n or len(named) < n:
        refused = _built_or_refused(lambda: load_graph(path))
        codes = ["disconnected"] * (len(reached) < n) + ["zero-degree"] * (len(named) < n)
        assert isinstance(refused, GraphError) and refused.report.codes() == codes
        assert str(refused) == str(_built_or_refused(lambda: oracle_load_graph(path)))
    elif len(set(frontier)) < len(frontier):  # the oracle loader took a repeat as given
        with pytest.raises(GraphError, match="is repeated"):
            load_graph(path)
    else:
        _same_truncation(load_graph(path), oracle_load_graph(path))


@pytest.mark.parametrize(
    "labels",
    [
        [0, 2**53 + 1, 2**53, 2**53 - 1, -(2**53) - 1, -(2**53)],  # distinct ints, equal floats
        [(), (2**53 + 1,), (2**53,), (1, 2**53 + 1), (1, 2**53)],
        [0, True, 2, -1],  # bools sort after every number
        [0, 2.5, 3, -0.5, 1],
        [(), (1, "a"), ("a",), (0.5,), (True,), ((1,),)],
        ["", "b", "ab", "B", "a"],
        [(), (2, 0), (0, 2), (1, 1), (0,), (1, 0, 0)],
    ],
)
def test_label_order_of_one_shell_follows_the_key(labels):
    # all but the base sit one hop out, so the label order alone sets their indices
    edges = [(labels[0], leaf, 1.0) for leaf in labels[1:]]
    new = ConductanceGraph.from_edges(edges, labels[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_csr", oracle_build)
        old = ConductanceGraph.from_edges(edges, labels[0])
    _same_graph(new, old)


# (family, radius, params) of every shipped family, at every size the benchmark runs
_SHIPPED = [
    ("lattice", 12, {}),
    ("lattice", 15, {}),
    ("lattice", 20, {}),
    ("lattice", 24, {}),
    ("lattice", 4, {"d": 3}),
    ("comb", 10, {}),
    ("comb", 14, {}),
    ("comb", 16, {}),
    ("binary-tree", 7, {}),
    ("binary-tree", 8, {}),
    ("binary-tree", 9, {}),
    ("nary-tree", 5, {"branching": 3}),
    ("nary-tree", 6, {"branching": 3}),
    ("chain", None, {"width": 60}),
    ("halfline", 8, {}),
    ("wye", None, {"r1": 1.0, "r2": 2.0, "r3": 3.0}),
    ("bratteli", None, {"level_sizes": [1, 3, 2, 4], "level_weights": [1.0, 2.0, 0.25]}),
    ("explicit", 2, {"edges": [("a", 1, 1.0), (1, (2,), 2.0), ((2,), "b", 0.5)], "base_point": "a"}),
]


@pytest.fixture(scope="module")
def shipped_files(tmp_path_factory):
    """Each shipped family, generated and written as JSON: (key, truncation, path)."""
    out = tmp_path_factory.mktemp("shipped")
    files = []
    for k, (family, radius, params) in enumerate(_SHIPPED):
        t = build_truncation(family, radius, params)
        path = out / f"{k}-{family}.json"
        t.write_json(path)
        files.append((f"{family}-{radius}", t, path))
    return files


def test_shipped_families_build_and_load_as_the_oracle_does(shipped_files):
    new, old = {}, {}
    for key, t, path in shipped_files:
        loaded = load_graph(path)
        new[key, "generate"] = truncation_digest(t)
        new[key, "load"] = truncation_digest(loaded)
        old[key, "load"] = truncation_digest(oracle_load_graph(path))
        for r in range(1, int(t.graph.hop_distance.max()) + 1, 3):
            new[key, r] = truncation_digest(truncate(loaded, r))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_csr", oracle_build)
        for (family, radius, params), (key, t, _) in zip(_SHIPPED, shipped_files):
            old[key, "generate"] = truncation_digest(build_truncation(family, radius, params))
            for r in range(1, int(t.graph.hop_distance.max()) + 1, 3):
                old[key, r] = truncation_digest(truncate(t, r))
    assert new == old


def test_interior_is_the_array_the_truncation_used_to_store(shipped_files):
    # the arrays each constructor built and stored before the interior was
    # derived from the frontier: the ball's hop < radius, and the complement
    # of the frontier mask (all vertices when the frontier is empty)
    def same(t, stored):
        assert t.interior.dtype == stored.dtype == np.int64 and not t.interior.flags.writeable
        assert np.array_equal(t.interior, stored)
        assert np.array_equal(np.flatnonzero(~t.frontier_mask), stored)

    def off_mask(graph, frontier):
        mask = np.zeros(graph.n, dtype=bool)
        mask[frontier] = True
        return np.flatnonzero(~mask)

    balls = {"lattice", "comb", "binary-tree", "nary-tree", "halfline", "bratteli"}
    for (family, _, _), (key, t, path) in zip(_SHIPPED, shipped_files):
        g = t.graph
        same(t, off_mask(g, t.frontier))
        if family in balls:
            same(t, np.flatnonzero(g.hop_distance < t.radius))
        loaded = load_graph(path)
        same(loaded, off_mask(loaded.graph, loaded.frontier))
        same(as_truncated(g), np.arange(g.n))
        for r in range(1, int(g.hop_distance.max()) + 1, 3):
            ball = truncate(loaded, r)
            same(ball, np.flatnonzero(ball.graph.hop_distance < r))
        labels = [l for l in g.labels[-3:] if l != g.labels[g.base_point]]
        framed = with_frontier(g, labels)
        same(framed, off_mask(g, [g.index_of(l) for l in labels]))
        for name in ("frontier", "interior"):  # so the two cannot come apart
            with pytest.raises(AttributeError):
                setattr(framed, name, framed.frontier[:0])


def test_loading_the_bench_files_builds_no_label_key(shipped_files, monkeypatch):
    calls = []

    def counted(label):
        calls.append(label)
        return _label_sort_key(label)

    monkeypatch.setattr(graphs, "_label_sort_key", counted)
    for (family, _, _), (key, _, path) in zip(_SHIPPED, shipped_files):
        if family in ("nary-tree", "lattice", "binary-tree", "chain"):
            assert validate(load_graph(path).graph).ok, key
    assert calls == []


def test_fractional_or_infinite_index_is_a_bad_edge(tmp_path):
    for bad in ([0, 1.7, 1.0], [0, math.inf, 1.0], [-math.inf, 1, 1.0], [math.nan, 1, 1.0]):
        # both go to the per-entry reading: one for its index, one for its string
        for edges in ([[0, 1, 1.0], bad], [[0, 1, "1.0"], bad]):
            rep = _file_report(tmp_path / "g.json", 3, 0, edges)
            assert [i.code for i in rep.issues] == ["bad-edge"], edges
            assert rep.issues[0].detail == f"malformed edge entry {bad!r}"
    assert _file_report(tmp_path / "g.json", 2, 0, [[0.0, 1.0, 1]]).ok
    assert _file_report(tmp_path / "g.json", 2, 0, [[0, 1, "1.5"]]).ok
    path = tmp_path / "inf.json"
    path.write_text('{"vertices": 2, "base_point": 0, "edges": [[0, Infinity, 1.0]]}')
    with pytest.raises(GraphError, match="bad-edge: malformed edge entry") as exc:
        load_graph(path)
    assert exc.value.report.codes() == ["bad-edge"]


def test_string_index_is_a_bad_edge(tmp_path):
    # int() would read "011" as the edge (0, 1, 1.0) and " 2 " as vertex 2
    for edges, bad in [(["011"], "011"), ([["0", " 2 ", 1.0], [0, 1, 1.0]], ["0", " 2 ", 1.0])]:
        rep = _file_report(tmp_path / "g.json", 3, 0, edges)
        assert str(rep.issues[0]) == f"bad-edge: malformed edge entry {bad!r}"
        assert "bad-edge" not in rep.codes()[1:]


def test_bool_index_is_a_bad_edge(tmp_path):
    # the array reading took true as 1, and int(True) == True: this file
    # loaded as the edges (1, 2) and (0, 1)
    path = tmp_path / "g.json"
    path.write_text('{"vertices": 3, "base_point": 0, "edges": [[true, 2, 1.0], [0, 1, 1.0]]}')
    with pytest.raises(GraphError) as exc:
        load_graph(path)
    assert [str(i) for i in exc.value.report.issues] == [
        "bad-edge: malformed edge entry [True, 2, 1.0]"
    ]
    rep = _file_report(path, 2, 0, [[0, 1, 1.0], [0, False, 1.0]])
    assert [str(i) for i in rep.issues] == ["bad-edge: malformed edge entry [0, False, 1.0]"]
    # a bool weight is still read as a number
    assert _file_report(path, 2, 0, [[0, 1, True]]).ok


def test_array_and_per_entry_edge_readings_agree(tmp_path):
    mixed = [[0, 1, 2.5], [2, 1, 3], [3, 2, True], [1, 0, 2.5], [0, 3, 1e300]]
    plain = [e for e in mixed if e[2] is not True]
    # only a list of ints and floats is read as one array: the bool weight
    # sends the other list to the per-entry reading too
    assert graphs._edge_array(4, plain) is not None and graphs._edge_array(4, mixed) is None
    for edges in (mixed, plain):
        fast = graphs._check_edge_data(4, 0, edges)
        slow = graphs._check_edge_data(4, 0, edges + [[9, 0, 1.0]])
        assert fast[0] == [] and [i.code for i in slow[0]] == ["bad-index"]
        for a, b in zip(fast[1], slow[1]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # entries the array reading cannot take keep their word-for-word issues
    edges = [[0, 1, None], [0, 2**70, 1.0], [0, 1, 10**400], "ab"]
    rep = _file_report(tmp_path / "g.json", 3, 0, edges)
    assert [str(i) for i in rep.issues] == [
        "bad-edge: malformed edge entry [0, 1, None]",
        f"bad-index: edge (0, {2**70}) out of range",
        f"bad-edge: malformed edge entry [0, 1, {10**400}]",
        "bad-edge: malformed edge entry 'ab'",
    ]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=2, max_value=6), data=st.data())
def test_built_graphs_store_symmetric_positive_weights(n, data, tmp_path_factory):
    # `validate` leaves symmetry, loops and weights unchecked: every way in
    # builds through the constructor, which makes them hold
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = data.draw(st.dictionaries(pair, st.floats(1e-300, 1e300), min_size=1))
    listings = []
    for (x, y), w in edges.items():
        for _ in range(data.draw(st.integers(1, 3))):
            # repeats in either orientation, any two within the 1e-12 match tolerance
            ends = (y, x) if data.draw(st.booleans()) else (x, y)
            listings.append((*ends, w * (1 + data.draw(st.floats(-4e-13, 4e-13)))))
    listings = data.draw(st.permutations(listings))
    built = _built_or_refused(lambda: ConductanceGraph.from_edges(listings, 0))
    path = tmp_path_factory.mktemp("listings") / "g.json"
    path.write_text(json.dumps({"vertices": n, "base_point": 0, "edges": listings}))
    loaded = _built_or_refused(lambda: load_graph(path).graph)
    named = {v for pair in edges for v in pair}
    reached = {0}
    for _ in range(n):
        reached |= {v for pair in edges if reached & set(pair) for v in pair}
    # from_edges builds on the vertices the edges name; the file declares all n
    if 0 not in named:
        assert isinstance(built, GraphError) and "base point 0 not among" in str(built)
    elif reached != named:
        assert isinstance(built, GraphError) and built.report.codes() == ["disconnected"]
    if len(reached) < n:
        codes = ["disconnected"] + ["zero-degree"] * (len(named) < n)
        assert isinstance(loaded, GraphError) and loaded.report.codes() == codes
    valid = [g for g in (built, loaded) if not isinstance(g, GraphError)]
    for graph in (*valid, *(truncate(g, r).graph for g in valid for r in (1, 2, 3))):
        assert sparse_structure_issues(graph) == []
        assert np.isfinite(graph.weights).all() and (graph.weights > 0).all()
