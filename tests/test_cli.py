"""End-to-end command-line tests: every invocation goes through main(argv)."""

import hashlib
import importlib
import inspect
import json
import math
import os
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from resnet import cli, decomposition, energy, laplacian, markov
from resnet import graphs as graphs_mod
from resnet.cli import _parse_vertex, main
from resnet.graphs import FAMILIES, generate, load_graph
from resnet.greens import greens_gram
from resnet.markov import sample_paths
from resnet.resistance import ResistanceMatrix, resistance, resistance_matrix

from conftest import (
    EXTREME_FILES,
    WRONG_SHAPES,
    count_calls,
    per_pair_dipoles,
    per_sample_algebra_bound,
    per_sample_reproducing_property,
    per_sample_royden_pythagoras,
    per_z_triangle_slack,
)

resistance_mod = importlib.import_module("resnet.resistance")  # `resnet.resistance` is the function


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def halfline_file(tmp_path, capsys):
    path = str(tmp_path / "halfline.json")
    run_json(capsys, "generate", "--family", "halfline", "--radius", "8", "-o", path)
    return path


@pytest.fixture
def chain_file(tmp_path, capsys):
    path = str(tmp_path / "chain.json")
    run_json(
        capsys, "generate", "--family", "chain", "--width", "9",
        "--growth", "1.0", "-o", path,
    )
    return path


def test_generate_inline_payload(capsys):
    report = run_json(capsys, "generate", "--family", "wye", "--r2", "2.0")
    assert report["command"] == "generate"
    assert report["family"] == "wye"
    assert report["vertices"] == 3
    assert report["frontier"] == 0
    assert report["config"]["r2"] == 2.0
    data = report["graph"]
    assert data["vertices"] == 3
    assert len(data["edges"]) == 2


def test_generate_writes_loadable_file(tmp_path, capsys):
    path = str(tmp_path / "tree.json")
    report = run_json(
        capsys, "generate", "--family", "binary-tree", "--radius", "3", "-o", path
    )
    assert report["written_to"] == path
    assert "graph" not in report
    trunc = load_graph(path)
    assert trunc.graph.n == report["vertices"]
    assert len(trunc.frontier) == report["frontier"] == 8


def test_resist_single_method(halfline_file, capsys):
    report = run_json(
        capsys, "resist", halfline_file, "--from", "0", "--to", "5",
        "--method", "M2", "--deterministic",
    )
    assert report["from"] == "0" and report["to"] == "5"
    assert report["values"]["M2"] == pytest.approx(1.5713174316646532, rel=1e-10)
    assert "timestamp" not in report


def test_resist_all_methods_agree(halfline_file, capsys):
    report = run_json(capsys, "resist", halfline_file, "--from", "2", "--to", "4")
    values = report["values"]
    assert set(values) == {"M3", "M4", "M7"}
    assert report["max_rel_disagreement"] < 1e-8
    assert values["M7"] == pytest.approx(0.18512235160447665, rel=1e-10)


@pytest.mark.parametrize("family, argv, vertex", [
    ("wye", (), "a"),
    ("lattice", ("--radius", "3"), "1,2"),
])
def test_resist_from_a_vertex_to_itself_is_0_on_every_route(tmp_path, capsys, family, argv, vertex):
    path = str(tmp_path / "graph.json")
    run_json(capsys, "generate", "--family", family, *argv, "-o", path)
    report = run_json(capsys, "resist", path, "--from", vertex, "--to", vertex)
    assert report["values"] == dict.fromkeys(["M3", "M4", "M7"], 0.0)
    assert report["max_rel_disagreement"] == 0.0
    for method in ("M1", "M2", "M3", "M4", "M7"):
        report = run_json(capsys, "resist", path, "--from", vertex, "--to", vertex,
                          "--method", method)
        assert report["values"] == {method: 0.0}
        assert "max_rel_disagreement" not in report


def test_resist_accepts_the_routes_and_the_aliases_of_m7_alone(halfline_file, capsys):
    code, out, _ = run(capsys, "resist", "--help")
    assert code == 0 and "[--method {all,M1,M2,M3,M4,M7}]" in out
    for name in ("M5", "M6"):  # the former dual aliases of M7 and M2
        code, out, err = run(capsys, "resist", halfline_file, "--from", "0", "--to", "5",
                             "--method", name)
        assert code == 1 and out == "" and f"invalid choice: '{name}'" in err


def test_resist_m1_and_m2_on_a_steep_tree_print_the_path_sum(tmp_path, capsys):
    # they read the drop and the energy of the PCG dipole, 19030147.3468 and
    # 19023556.0673 here; as aliases of M7 they print its quotient
    path = tmp_path / "tree.json"
    edges = [[0, 1, 5.253e-08], [0, 2, 5.156e06], [0, 3, 2.907e05], [0, 5, 6.722e01],
             [0, 7, 4.172e03], [1, 4, 1.933e06], [1, 6, 1.053e02]]
    path.write_text(json.dumps({"vertices": 8, "base_point": 0, "edges": edges}))
    exact = math.fsum([1 / 5.253e-08, 1 / 5.156e06])
    for method in ("M1", "M2"):
        report = run_json(capsys, "resist", str(path), "--from", "1", "--to", "2",
                          "--method", method)
        assert report["values"] == {method: float(f"{exact:.12g}")}


def test_resist_matrix_export(halfline_file, tmp_path, capsys):
    csv_path = str(tmp_path / "dist.csv")
    report = run_json(
        capsys, "resist", halfline_file, "--from", "0", "--to", "1",
        "--matrix", csv_path,
    )
    assert report["matrix_path"] == csv_path
    assert "matrix_method" not in report
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 10  # header + one row per vertex


def test_resist_requires_endpoints_or_matrix(halfline_file, capsys):
    code, _, err = run(capsys, "resist", halfline_file)
    assert code == 1
    assert "usage error" in err


def test_resist_tuple_and_string_labels(tmp_path, capsys):
    lattice = str(tmp_path / "lat.json")
    run_json(capsys, "generate", "--family", "lattice", "--radius", "3",
             "--d", "2", "-o", lattice)
    report = run_json(
        capsys, "resist", lattice, "--from", "0,0", "--to", "(1, 1)",
        "--method", "M4",
    )
    assert report["from"] == "(0, 0)" and report["to"] == "(1, 1)"
    assert report["values"]["M4"] > 0.0


def test_check_suite_passes(halfline_file, capsys):
    report = run_json(capsys, "check", halfline_file, "--seed", "1")
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "greens-inversion",
        "metric-triangle",
        "metric-zero-diagonal",
        "energy-algebra-bound",
        "reproducing-property",
        "royden-pythagoras",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_walk_matches_exact_measure(chain_file, capsys):
    report = run_json(
        capsys, "walk", chain_file, "--samples", "2000", "--seed", "4"
    )
    assert report["total_samples"] == 2000
    assert report["unabsorbed"] == 0
    assert report["max_abs_z"] < 5.0
    table = report["frontier"]
    assert len(table) == 2
    assert sum(row["count"] for row in table) == 2000
    for row in table:
        # symmetric chain from the middle: both ends near half
        assert row["exact"] == pytest.approx(0.5)
    assert report["start"] == "4"


def test_walk_custom_start(chain_file, capsys):
    report = run_json(
        capsys, "walk", chain_file, "--start", "7", "--samples", "500"
    )
    assert report["start"] == "7"
    ends = {row["label"]: row["exact"] for row in report["frontier"]}
    assert ends["8"] == pytest.approx(7.0 / 8.0)


def test_walk_reports_path_lengths(chain_file, capsys):
    report = run_json(capsys, "walk", chain_file, "--samples", "300", "--seed", "2")
    trunc = load_graph(chain_file)
    lengths = [
        s.length for s in sample_paths(trunc, trunc.graph.base_point, 300, 100 * trunc.graph.n, 2)
    ]
    assert report["mean_steps"] == pytest.approx(np.mean(lengths), rel=1e-11)
    assert report["max_steps_taken"] == max(lengths)
    # the middle of the width-9 chain is four steps from either end, so a
    # cap of three steps truncates every walk at exactly three
    capped = run_json(
        capsys, "walk", chain_file, "--samples", "50", "--max-steps", "3"
    )
    assert capped["unabsorbed"] == 50
    assert capped["mean_steps"] == 3.0
    assert capped["max_steps_taken"] == 3


def test_walk_perfect_sample_on_one_frontier_vertex(tmp_path, capsys):
    # the exact weight of the lone frontier vertex rounds to 1 + 2.2e-16
    path = str(tmp_path / "halfline.json")
    run_json(capsys, "generate", "--family", "halfline", "--radius", "4", "-o", path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_json(capsys, "walk", path, "--samples", "200")
    assert [row["z"] for row in report["frontier"]] == [0.0]
    assert report["max_abs_z"] == 0.0


# sha256 of `walk --deterministic` stdout, pinned: the sampler's layout may
# change, but its reports stay byte for byte the same as long as the walk
# streams do
WALK_DIGESTS = [
    (
        ["--family", "chain", "--width", "9", "--growth", "1.0"],
        ["--samples", "400", "--seed", "4"],
        "32e10725b8834b5c55d9348ca13e5c88790f49c6563a2a3a5f6eb17eecf14d7d",
    ),
    (  # most walks cut off unabsorbed
        ["--family", "binary-tree", "--radius", "4"],
        ["--samples", "500", "--seed", "11", "--max-steps", "6"],
        "d3a427c594ba10bf240a9883d07f8cf563f06c871c386abfcffaf750d5d6be7e",
    ),
    (
        ["--family", "comb", "--radius", "5"],
        ["--samples", "300", "--seed", str(2**63 - 1), "--start=1,2", "--format", "csv"],
        "597263529156590f1c645463b70441e7930c7a3d1ff5af99d5bb5a341fbe4977",
    ),
    # the four graphs and sample counts of the `walk` benchmark, whose draw
    # blocks narrow as the walks finish
    (
        ["--family", "lattice", "--radius", "12"],
        ["--samples", "3000", "--seed", "1"],
        "d6d5fae3bd5f97ad8ebb70b1caeb224bce0cf282dd2b618fd1fbeab51819bf36",
    ),
    (
        ["--family", "comb", "--radius", "10"],
        ["--samples", "10000", "--seed", "2"],
        "a52fb0c83c26ff883d7db8b43d0d184cd44f4b2c51d3f66c04908d43a1bbe4eb",
    ),
    (
        ["--family", "binary-tree", "--radius", "7"],
        ["--samples", "10000", "--seed", "3"],
        "cc57b4d3f8529d507537d851a24812f1e47e24b29ce92bea45cf98c19b78df23",
    ),
    (
        ["--family", "chain", "--width", "60"],
        ["--samples", "2500", "--seed", "4"],
        "1a276e609e5d1880729c4ea567d7be1c0918f235bed23d566cbe7e5a76fa12cb",
    ),
]


@pytest.mark.parametrize("family, walk, digest", WALK_DIGESTS)
def test_walk_reports_are_byte_identical(family, walk, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report echoes the graph path
    run_json(capsys, "generate", *family, "-o", "g.json")
    code, out, err = run(capsys, "walk", "g.json", *walk, "--deterministic")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 and exit code of `check --deterministic --seed 7` stdout, pinned:
# the kernel, the matrix and the scan may change, but the reports stay byte
# for byte the same (halfline 32 fails its inversion and reproducing
# checks and exits 3).  Comb 4 and halfline 32 read the exact tree kernel:
# greens-inversion went from 1.78e-15 to 0 on comb 4, and from 7.8e-3 to
# 1.56e-2 on halfline 32, where the exact kernel meets the rounded degrees
CHECK_DIGESTS = [
    (["--family", "lattice", "--radius", "4"], 0,
     "88b28ec25cea76c654d3bda4700eb0b25e2dcb542200f1b455aa0634a7536296"),
    (["--family", "comb", "--radius", "4"], 0,
     "8c3bd52c5b1cd3d5ff28a389c687b23d4f6ee52fb6b98262249207570383eef2"),
    (["--family", "binary-tree", "--radius", "3"], 0,
     "cb8219f61b77103551f633270c111c33a4b2d41bcf5cb2b48ee56d679b4dc55c"),
    (["--family", "binary-tree", "--radius", "8"], 0,
     "37c8166d2a83ed28598ef552358c1264effad4fa3dbec3f583e5f999738e8293"),
    (["--family", "halfline", "--radius", "32"], 3,
     "f9db1f21b33c393432c08d4c32636d7cf8bcc65ec70c2401864416d0dc640ccc"),
]


@pytest.mark.parametrize("family, exit_code, digest", CHECK_DIGESTS)
def test_check_reports_are_byte_identical(family, exit_code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report echoes the graph path
    run_json(capsys, "generate", *family, "-o", "g.json")
    code, out, err = run(capsys, "check", "g.json", "--seed", "7", "--deterministic")
    assert code == exit_code, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `resist --method all --deterministic` stdout on two pairs of each
# `queries` benchmark graph, pinned: every route's value is printed to 12
# significant digits, so any change in a route shows here
RESIST_DIGESTS = [
    (["--family", "lattice", "--radius", "12"], "0,0", "12,0",
     "56f2503583974bd39b783860bab2682e63b4e6e09e5c43517c8997fabcb53b99"),
    (["--family", "lattice", "--radius", "12"], "3,4", "1,7",
     "4d5c1cf9d2ce38c395ddb7a61b8424d9b42aa45e0d73cda3b8283b3495401bc3"),
    (["--family", "lattice", "--radius", "24"], "0,0", "0,24",
     "84e9bb4cfc98ce543938296052274534697cd0c3958dcecf39a030fef2777d80"),
    (["--family", "lattice", "--radius", "24"], "5,6", "10,2",
     "ad90f96f79295c2c8c6fd932eab2efe160048b890d984aca2fa14ce106c4379f"),
    (["--family", "binary-tree", "--radius", "9"], "", "+-+-+-+-+",
     "34e0006883a78c5d730fce204f7dc9b2e52a8e8c67ecfcf0cc90e608c3580f17"),
    (["--family", "binary-tree", "--radius", "9"], "+-", "-++",
     "aa5f01c6ecca438097c4ecb41be0b945610a79150b57fc35d44490325ab9bd9c"),
    (["--family", "comb", "--radius", "16"], "0,0", "16,0",
     "8571e29ddfcc5555710143391c162b3c15aba66c73ddad1fb5a675af62e72f48"),
    (["--family", "comb", "--radius", "16"], "3,5", "7,2",
     "a686e6ade19056372afe5f51f02c0e3ec63e66fc6ba3a0cb365b3b061aeaaa40"),
    (["--family", "chain", "--width", "60"], "30", "0",
     "a31d32c6acefd9df05f681d9948bdc40951be86eea431755c27be510cfba25b4"),
    (["--family", "chain", "--width", "60"], "12", "45",
     "ed02798c07cfd1c9857b349a88ed42cb5f15544b946d0c65c2c9f671dc516bdc"),
    (["--family", "nary-tree", "--radius", "6", "--branching", "3"], "()", "0,1,2,0,1,2",
     "e878a966437a50a3986a910bc49c4636d6ba0e90a0fce8a25c28d55beaf9b64c"),
    (["--family", "nary-tree", "--radius", "6", "--branching", "3"], "1,", "2,0",
     "e7a6008a857f0af323f646f239826e645496cd77f5c1d0c0260d83c0f7ab47c8"),
]


@pytest.mark.parametrize("family, x, y, digest", RESIST_DIGESTS)
def test_resist_reports_are_byte_identical(family, x, y, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report echoes the graph path
    run_json(capsys, "generate", *family, "-o", "g.json")
    code, out, err = run(capsys, "resist", "g.json", f"--from={x}", f"--to={y}",
                         "--method", "all", "--deterministic")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["A", "B"])
def test_an_overflowed_kernel_is_a_numerical_error(name, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(EXTREME_FILES[name]))
    # both are trees, whose exact kernel overflows only at the far end:
    # K(3, 3) = 1 + 2 / 6e-309 on A and K(2, 2) = 1 + 1 / 1e-310 on B (the
    # LU kernel had 4 non-finite entries on each)
    stderr = "numerical error: kernel matrix has 1 non-finite entries\n"
    # resist --matrix used to exit 0 with a NaN symmetry residual
    assert run(capsys, "resist", str(path), "--matrix", str(tmp_path / "m.csv")) == (3, "", stderr)
    assert run(capsys, "check", str(path)) == (3, "", stderr)


@pytest.mark.parametrize("name", sorted(EXTREME_FILES))
def test_every_route_on_extreme_conductances_is_finite_or_a_numerical_error(name, tmp_path, capsys):
    # these used to end in OverflowError and ValueError tracebacks, or print
    # "inf" and "nan" with exit 0; numpy's overflow warnings, errors under
    # this suite's settings, are silenced where they arise
    data = EXTREME_FILES[name]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    answered = set()
    for x in range(data["vertices"]):
        for y in range(data["vertices"]):
            for method in ("M1", "M2", "M3", "M4", "M7", "all"):
                code, out, err = run(capsys, "resist", str(path), f"--from={x}", f"--to={y}",
                                     "--method", method)
                if code == 3:
                    assert out == "" and err.startswith("numerical error: "), err
                    continue
                assert code == 0, err
                values = json.loads(out)["values"]
                assert all(type(v) is float and math.isfinite(v) for v in values.values()), values
                answered.add((x, y, method))
    if name == "A":  # R = 1.67e308: M7 divides first where its square overflows
        assert {(x, 2, m) for x in (0, 1) for m in ("M1", "M2", "M3", "M4", "M7")} <= answered
    if name == "C":  # M3 leaves out the edge whose resistance overflows: it carries no flow
        assert {(0, 2, m) for m in ("M1", "M2", "M4", "M7")} <= answered
        assert {(x, y, "M3") for x in range(4) for y in range(4)} <= answered


@pytest.mark.parametrize(
    "data, stderr",
    [
        ({"vertices": 4, "base_point": 0, "edges": [[0, 1, 1.0]]},
         "validation error: graph failed validation:\n"
         "zero-degree: vertices without edges: [2, 3]\n"
         "disconnected: 2 vertices unreachable from the base point, e.g. [2, 3]\n"),
        ({"vertices": 1, "base_point": 0, "edges": []},
         "validation error: graph failed validation:\nzero-degree: vertices without edges: [0]\n"),
    ],
)
def test_an_invalid_graph_file_reads_the_same_on_every_command(data, stderr, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    for command in (["resist", str(path), "--from=0", "--to=1"], ["check", str(path)],
                    ["walk", str(path)]):
        assert run(capsys, *command, "--deterministic") == (2, "", stderr)


def test_each_command_validates_its_graph_once(halfline_file, monkeypatch, capsys):
    # the constructor is the one check; no command repeats it after a load
    for command in (["resist", halfline_file, "--from=0", "--to=3"], ["check", halfline_file],
                    ["walk", halfline_file, "--samples", "50"],
                    ["generate", "--family", "comb", "--radius", "4"]):
        calls = count_calls(monkeypatch, graphs_mod, ["validate"])
        run_json(capsys, *command)
        assert calls == {"validate": 1}, command


def test_walk_builds_no_path_sample(chain_file, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("walk built a PathSample")

    def refuse_layout(self):
        raise AssertionError("walk laid out the sampled paths")

    monkeypatch.setattr(markov.PathSample, "__init__", refuse)
    monkeypatch.setattr(markov.PathSamples, "_layout", property(refuse_layout))
    report = run_json(capsys, "walk", chain_file, "--samples", "300", "--max-steps", "5")
    assert report["total_samples"] == 300 and report["unabsorbed"] > 0


@pytest.mark.parametrize(
    "flags, name", [(["--samples", "-3"], "n_samples"), (["--max-steps", "-1"], "max_steps")]
)
def test_walk_rejects_negative_counts(chain_file, capsys, flags, name):
    code, out, err = run(capsys, "walk", chain_file, *flags)
    assert code == 2 and out == ""
    assert f"{name} must be >= 0" in err


def test_walk_reports_an_infinite_z(tmp_path, capsys):
    # three steps never reach the frontier at distance 4: sampled 0, exact 1
    path = str(tmp_path / "halfline.json")
    run_json(capsys, "generate", "--family", "halfline", "--radius", "4", "-o", path)
    report = run_json(capsys, "walk", path, "--samples", "20", "--max-steps", "3")
    assert [row["z"] for row in report["frontier"]] == ["-inf"]
    assert report["max_abs_z"] == "inf"


def test_walk_needs_frontier(tmp_path, capsys):
    path = str(tmp_path / "wye.json")
    run_json(capsys, "generate", "--family", "wye", "-o", path)
    code, _, err = run(capsys, "walk", path)
    assert code == 2
    assert "no frontier" in err


def test_oracle_binomial_with_verification(capsys):
    report = run_json(
        capsys, "oracle", "--model", "binomial", "--p-plus", "0.6666666666666666",
        "--verify", "--width", "30",
    )
    assert report["diagonal_green"] == pytest.approx(3.0, rel=1e-12)
    assert report["generating_function"]["closed_form"] == pytest.approx(3.0, rel=1e-12)
    cross = report["chain_cross_check"]
    assert cross["width"] == 30
    assert cross["rel_error"] < 1e-3


def test_oracle_nary_and_continuum(capsys):
    report = run_json(
        capsys, "oracle", "--model", "nary", "--n", "2", "--b", "2.0", "--verify"
    )
    assert report["root_distance"] == pytest.approx(0.2)
    assert report["same_level_green"] == pytest.approx(5.0 / 3.0)
    assert report["tree_cross_check"]["measured_free"] == pytest.approx(1.0)
    flat = run_json(capsys, "oracle", "--model", "continuum", "--x", "1.0", "--y", "1.0")
    assert flat["distance"] == 0.0 and flat["kernel"] == 1.0


def test_oracle_flag_requirements(capsys):
    code, _, err = run(capsys, "oracle", "--model", "binomial")
    assert code == 1 and "needs --p-plus" in err
    code, _, err = run(capsys, "oracle", "--model", "nary", "--b", "2.0")
    assert code == 1 and "needs --n" in err
    code, _, err = run(capsys, "oracle", "--model", "continuum", "--x", "0.0")
    assert code == 1 and "needs --x and --y" in err


def test_exit_code_map(tmp_path, capsys):
    # argparse-level problems: 1
    assert run(capsys, "bogus-command")[0] == 1
    assert run(capsys, "generate", "--family", "klein-bottle")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "--help")[0] == 0
    # validation problems: 2
    assert run(capsys, "resist", str(tmp_path / "missing.json"),
               "--from", "0", "--to", "1")[0] == 2
    code, _, err = run(capsys, "oracle", "--model", "binomial", "--p-plus", "0.5")
    assert code == 2 and "degenerate" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": 2, "base_point": 0, "edges": [[0, 1, -3.0]],
    }))
    assert run(capsys, "check", str(bad))[0] == 2


def test_check_on_a_file_that_fails_validation_is_exit_2(tmp_path, capsys):
    # vertex 2 has no edge: the loader builds the graph, and its `validate` refuses it
    bad = tmp_path / "isolated.json"
    bad.write_text(json.dumps({"vertices": 3, "base_point": 0, "edges": [[0, 1, 1.0]]}))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out == ""
    assert "graph failed validation" in err and "zero-degree" in err


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_resist_on_a_wrongly_shaped_file_is_a_validation_error(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(WRONG_SHAPES[case][0]))
    code, out, err = run(capsys, "resist", str(bad), "--from", "0", "--to", "1")
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "Traceback" not in err


@pytest.mark.parametrize("index", ["Infinity", "1.7", "NaN"])
def test_resist_on_a_non_integer_index_is_a_validation_error(tmp_path, capsys, index):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"vertices": 3, "base_point": 0, "edges": [[0, 1, 1.0], [1, {index}, 1.0]]}}')
    code, out, err = run(capsys, "resist", str(bad), "--from", "0", "--to", "1")
    assert code == 2 and out == ""
    assert "bad-edge: malformed edge entry [1, " in err

def test_deterministic_reports_are_bit_identical(halfline_file, capsys):
    argv = ("resist", halfline_file, "--from", "0", "--to", "3", "--deterministic")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    # without the flag a timestamp makes runs distinguishable
    stamped = run_json(capsys, "resist", halfline_file, "--from", "0", "--to", "3")
    assert "timestamp" in stamped


def test_csv_format_flattens_report(halfline_file, capsys):
    code, out, _ = run(
        capsys, "resist", halfline_file, "--from", "0", "--to", "5",
        "--method", "M2", "--format", "csv", "--deterministic",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    entries = dict(line.split(",", 1) for line in lines[1:])
    assert entries["values.M2"] == "1.57131743166"
    assert entries["command"] == "resist"


def test_report_file_duplicates_stdout(halfline_file, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "resist", halfline_file, "--from", "0", "--to", "2",
        "--deterministic", "--report-file", str(dest),
    )
    assert code == 0
    assert dest.read_text() == out


def test_reports_round_to_twelve_significant_digits(halfline_file, capsys):
    report = run_json(
        capsys, "resist", halfline_file, "--from", "0", "--to", "5",
        "--method", "M2", "--deterministic",
    )
    assert report["values"]["M2"] == 1.57131743166


def test_rounding_spells_numpy_nonfinite_floats_as_python_does():
    nan, inf = np.float64("nan"), np.float64("inf")
    assert cli._round12(nan) == "nan"
    assert cli._round12({"a": inf, "b": [-inf, (np.float32("nan"), 2.0)]}) == {
        "a": "inf", "b": ["-inf", ["nan", 2.0]],
    }
    rounded = cli._round12({"k": np.int64(7), "m": np.array([[1 / 3, np.inf], [2.0, -0.0]])})
    assert rounded == {"k": 7, "m": [[0.333333333333, "inf"], [2.0, -0.0]]}
    assert type(rounded["k"]) is int


def test_main_leaves_the_environment_unchanged(chain_file, monkeypatch, capsys):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    run_json(capsys, "generate", "--family", "wye")
    run_json(capsys, "resist", chain_file, "--from", "0", "--to", "2", "--method", "M4")
    run_json(capsys, "walk", chain_file, "--samples", "20")
    run_json(capsys, "oracle", "--model", "continuum", "--x", "0.2", "--y", "0.5")
    assert dict(os.environ) == before


def test_tol_is_a_flag_of_the_commands_that_read_it(chain_file, capsys):
    for argv in (["resist", chain_file, "--from", "0", "--to", "2"], ["check", chain_file]):
        report = run_json(capsys, *argv, "--tol", "1e-11")
        assert report["config"]["tol"] == 1e-11
    for argv in (["generate", "--family", "wye"], ["walk", chain_file], ["oracle", "--model", "nary"]):
        code, _, err = run(capsys, *argv, "--tol", "1e-11")
        assert code == 1 and "unrecognized arguments: --tol" in err


# (family, radius, flag, text, keyword value, other parameters the family needs)
FAMILY_FLAG_CASES = [
    ("halfline", 4, "--growth", "1.5", 1.5, {}),
    ("lattice", 2, "--d", "3", 3, {}),
    ("binary-tree", 3, "--b-plus", "3", 3.0, {}),
    ("binary-tree", 3, "--b-minus", "1.5", 1.5, {}),
    ("nary-tree", 3, "--n", "3", 3, {}),
    ("nary-tree", 3, "--branching", "3", 3, {}),
    ("nary-tree", 3, "--b", "1.5", 1.5, {}),
    ("bratteli", 2, "--level-sizes", "1,3,2", [1, 3, 2], {"level_weights": [1.0, 0.5]}),
    ("bratteli", 2, "--level-weights", "2,0.25", [2.0, 0.25], {"level_sizes": [1, 2, 3]}),
    ("chain", None, "--width", "7", 7, {}),
    ("wye", None, "--r1", "2", 2.0, {}),
    ("wye", None, "--r2", "3", 3.0, {}),
    ("wye", None, "--r3", "0.5", 0.5, {}),
]


def test_family_flag_table_names_builder_keywords():
    keywords = set().union(*(inspect.signature(f).parameters for f in FAMILIES.values()))
    for _, dest, _, _ in cli._FAMILY_FLAGS:
        assert dest in keywords, dest
    flags = {flag for flags, _, _, _ in cli._FAMILY_FLAGS for flag in flags}
    assert {case[2] for case in FAMILY_FLAG_CASES} == flags


@pytest.mark.parametrize(
    "family, radius, flag, text, value, others", FAMILY_FLAG_CASES, ids=[c[2] for c in FAMILY_FLAG_CASES]
)
def test_family_flag_builds_what_the_keyword_builds(family, radius, flag, text, value, others, capsys):
    dest = next(d for flags, d, _, _ in cli._FAMILY_FLAGS if flag in flags)
    argv = ["generate", "--family", family, flag, text]
    argv += [] if radius is None else ["--radius", str(radius)]
    for key, given in others.items():
        argv += ["--" + key.replace("_", "-"), ",".join(map(str, given))]
    report = run_json(capsys, *argv)
    assert report["config"][dest] == (str(value) if isinstance(value, list) else value)
    expected = generate(family, radius=radius, **others, **{dest: value}).to_data()
    assert report["graph"] == json.loads(json.dumps(cli._round12(expected)))


@pytest.mark.parametrize(
    "command, seed",
    [("check", -1), ("walk", 2**63), ("walk", 2**64 - 1), ("check", 2**64 - 1), ("walk", -1)],
)
def test_seed_outside_the_philox_range_is_a_validation_error(chain_file, capsys, command, seed):
    # seeds at or above 2^63 alias one another in sample_paths (2^64 - 1 gives
    # the walks of seed 0), and a negative seed crashed numpy's default_rng
    code, out, err = run(capsys, command, chain_file, "--seed", str(seed))
    assert code == 2
    assert out == ""
    assert err == f"validation error: --seed {seed} is outside [0, 2^63)\n"


def test_largest_seed_is_accepted(chain_file, capsys):
    report = run_json(capsys, "walk", chain_file, "--samples", "20", "--seed", str(2**63 - 1))
    assert report["seed"] == 2**63 - 1
    assert report["total_samples"] == 20


# every shipped family at a small size, with the parameters it requires
SMALL_FAMILIES = [
    ("wye", None, {}),
    ("halfline", 3, {}),
    ("lattice", 2, {"d": 1}),
    ("lattice", 3, {}),
    ("lattice", 2, {"d": 3}),
    ("binary-tree", 3, {}),
    ("nary-tree", 2, {}),
    ("nary-tree", 2, {"branching": 3}),
    ("comb", 3, {}),
    ("bratteli", None, {"level_sizes": [1, 2, 3], "level_weights": [1.0, 2.0]}),
    ("chain", None, {"width": 5}),
]


@pytest.mark.parametrize("family,radius,params", SMALL_FAMILIES)
def test_every_printed_label_parses_back(family, radius, params, tmp_path):
    path = tmp_path / "g.json"
    generate(family, radius=radius, **params).write_json(path)
    graph = load_graph(path).graph
    for i, label in enumerate(graph.labels):
        assert _parse_vertex(graph, str(label)) == i, label


def test_resist_addresses_tree_root_and_depth_one(tmp_path, capsys):
    nary = str(tmp_path / "nary.json")
    run_json(capsys, "generate", "--family", "nary-tree", "--radius", "3", "-o", nary)
    report = run_json(capsys, "resist", nary, "--from", "()", "--to", "(1,)")
    assert report["from"] == "()" and report["to"] == "(1,)"
    binary = str(tmp_path / "binary.json")
    run_json(capsys, "generate", "--family", "binary-tree", "--radius", "3", "-o", binary)
    report = run_json(capsys, "resist", binary, "--from", "", "--to", "+-")
    assert report["from"] == "" and report["to"] == "+-"
    for bad in ("(0,)", "[0]", "++++"):
        code, _, err = run(capsys, "resist", binary, "--from", "", "--to", bad)
        assert code == 2 and "unknown vertex label" in err, bad


def test_resist_and_walk_address_the_label_dash_dash(tmp_path, capsys):
    # argparse hands a value of exactly "--" on as [], which crashed the parse
    path = str(tmp_path / "binary.json")
    generate("binary-tree", radius=3).write_json(path)
    graph = load_graph(path).graph
    want = resistance(graph, graph.index_of("--"), graph.index_of("+"), "M3")
    report = run_json(capsys, "resist", path, "--from=--", "--to=+", "--method", "M3")
    assert report["from"] == "--" and report["config"]["from_"] == "--"
    assert report["values"]["M3"] == want
    report = run_json(capsys, "resist", path, "--from=+", "--to=--", "--method", "M3")
    assert report["to"] == "--" and report["values"]["M3"] == want
    report = run_json(capsys, "walk", path, "--start=--", "--samples", "50")
    assert report["start"] == "--" and report["total_samples"] == 50


def test_resist_matrix_is_one_route_whatever_the_method(tmp_path, capsys):
    path = str(tmp_path / "lattice.json")
    generate("lattice", radius=12).write_json(path)
    written = set()
    for method in ("all", "M1", "M3", "M4", "M7"):
        csv_path = tmp_path / f"{method}.csv"
        report = run_json(capsys, "resist", path, "--matrix", str(csv_path), "--method", method)
        assert "matrix_method" not in report
        written.add(csv_path.read_bytes())
    assert len(written) == 1


@pytest.mark.parametrize("family,radius", [("lattice", 15), ("comb", 14)])
def test_check_passes_where_the_pcg_kernel_missed(family, radius, tmp_path, capsys):
    # the PCG-built kernel gave greens-inversion 1.04e-8 and 3.3e-7 here
    path = str(tmp_path / "g.json")
    generate(family, radius=radius).write_json(path)
    code, out, err = run(capsys, "check", path)
    assert code == 0, err
    assert json.loads(out)["all_passed"] is True


@pytest.mark.parametrize("family,radius", [("lattice", 6), ("binary-tree", 5)])
def test_check_solves_for_the_kernel_once(family, radius, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.json")
    generate(family, radius=radius).write_json(path)
    argv = ("check", path, "--seed", "3", "--deterministic")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return greens_gram(*args, **kwargs)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("resnet") and getattr(module, "greens_gram", None) is greens_gram:
                patch.setattr(module, "greens_gram", counted)
        got = run_json(capsys, *argv)
    assert len(calls) == 1
    # the same report from the two-solve route: the matrix from a fresh
    # resistance_matrix, the slack from the per-z loop
    fresh = SimpleNamespace(from_kernel=lambda k: resistance_matrix(k.graph))
    monkeypatch.setattr(cli, "ResistanceMatrix", fresh)
    monkeypatch.setattr(ResistanceMatrix, "triangle_slack", lambda m: per_z_triangle_slack(m.matrix))
    assert run_json(capsys, *argv) == got


@pytest.mark.parametrize("family,radius", [("lattice", 6), ("comb", 5), ("binary-tree", 5)])
def test_check_reports_equal_the_per_pair_dipole_loop(family, radius, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.json")
    generate(family, radius=radius).write_json(path)
    for seed in ("3", "40"):
        argv = ("check", path, "--seed", seed, "--deterministic")
        got = run(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "solve_dipoles", per_pair_dipoles)
            assert run(capsys, *argv) == got
        assert got[0] == 0, got[2]


@pytest.mark.parametrize(
    "family,radius,params",
    [("lattice", 12, {}), ("comb", 10, {}), ("binary-tree", 8, {}), ("nary-tree", 4, {"branching": 3})],
)
def test_check_report_equals_the_parent_kernel_scan_and_product(family, radius, params, tmp_path, monkeypatch):
    # the unrounded report, against the scan that rules a z out only above
    # the running minimum and forms the ties: pruning never moves a result
    path = str(tmp_path / "g.json")
    generate(family, radius=radius, **params).write_json(path)

    def report(seed):
        payload, code = cli.cmd_check(SimpleNamespace(graph=path, seed=seed, tol=1e-10))
        return json.dumps(payload), code

    got = [report(seed) for seed in (3, 40)]
    monkeypatch.setattr(resistance_mod, "_RULES_OUT", np.greater)
    assert [report(seed) for seed in (3, 40)] == got


def test_check_passes_greens_inversion_on_chain_60(tmp_path, capsys):
    # the exact tree kernel; the LU kernel of the rounded-degree Laplacian
    # read 5.96e-8 against the threshold of 1e-8 at --seed 1
    path = str(tmp_path / "g.json")
    generate("chain", width=60).write_json(path)
    checks = {c["name"]: c for c in run_json(capsys, "check", path, "--seed", "1")["checks"]}
    assert checks["greens-inversion"]["passed"] and checks["greens-inversion"]["metric"] == 0.0


def test_check_solves_its_dipoles_in_one_block(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.json")
    generate("lattice", radius=6).write_json(path)
    calls = count_calls(monkeypatch, energy, ["solve_dipole", "solve_dipoles"])
    run_json(capsys, "check", path, "--seed", "3")
    assert calls == {"solve_dipole": 0, "solve_dipoles": 1}


@pytest.mark.parametrize("family,radius", [("lattice", 6), ("comb", 5), ("binary-tree", 5)])
def test_check_factorizes_each_ground_set_once(family, radius, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.json")
    trunc = generate(family, radius=radius)
    trunc.write_json(path)
    grounds = []
    factorizations = count_calls(monkeypatch, laplacian, ["splu"])
    count_calls(
        monkeypatch, laplacian, ["_grounded_block"],
        where=lambda graph, ground: grounds.append(ground.tolist()) or True,
    )
    slices, sparse_laplacian = [], laplacian.LaplacianOperator.as_csr

    def as_csr(self):  # every Laplacian block comes from `grounded_laplacian`
        slices.append(self)
        return sparse_laplacian(self)

    monkeypatch.setattr(laplacian.LaplacianOperator, "as_csr", as_csr)
    run_json(capsys, "check", path, "--seed", "3")
    # the base point for the kernel and its inversion check, the frontier for
    # the energy splits
    assert grounds == [[trunc.graph.base_point], trunc.frontier.tolist()]
    # a tree grounded at its base is solved by its exact sweep, not factored
    assert factorizations == {"splu": 1 if family in ("comb", "binary-tree") else 2}
    assert slices == []


@pytest.mark.parametrize(
    "family,radius,params",
    [
        ("lattice", 6, {}),
        ("comb", 5, {}),
        ("binary-tree", 5, {}),
        ("nary-tree", 3, {"branching": 3}),
        ("no-frontier", 6, {}),
    ],
)
def test_check_reports_equal_the_per_sample_loops(family, radius, params, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.json")
    if family == "no-frontier":  # a plain graph file: energy_split extends by zero
        generate("lattice", radius=radius).graph.write_json(path)
        assert len(load_graph(path).frontier) == 0
    else:
        generate(family, radius=radius, **params).write_json(path)
    for seed in ("3", "40"):
        argv = ("check", path, "--seed", seed, "--deterministic")
        got = run(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_algebra_bound", per_sample_algebra_bound)
            patch.setattr(cli, "_reproducing_property", per_sample_reproducing_property)
            patch.setattr(cli, "_royden_pythagoras", per_sample_royden_pythagoras)
            assert run(capsys, *argv) == got
        assert got[0] == 0, got[2]


def test_check_runs_each_sampled_check_as_one_block(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.json")
    generate("lattice", radius=6).write_json(path)
    energy_calls = count_calls(
        monkeypatch, energy,
        ["pointwise_product", "pointwise_products", "reproducing_check", "reproducing_checks"],
    )
    split_calls = count_calls(monkeypatch, decomposition, ["energy_split", "energy_splits"])
    run_json(capsys, "check", path, "--seed", "3")
    assert {**energy_calls, **split_calls} == {
        "pointwise_product": 0,
        "pointwise_products": 1,
        "reproducing_check": 0,
        "reproducing_checks": 1,
        "energy_split": 0,
        "energy_splits": 1,
    }


@pytest.mark.parametrize(
    "name,target,samples",
    [
        ("energy-algebra-bound", "pointwise_products", lambda out: out[1].product_energy),
        ("reproducing-property", "reproducing_checks", lambda out: out),
        ("royden-pythagoras", "energy_splits", lambda out: out["identity_residual"]),
    ],
    ids=["algebra", "reproducing", "royden"],
)
def test_a_nan_sample_fails_its_check(name, target, samples, tmp_path, capsys, monkeypatch):
    # Python's max(worst, nan) keeps worst: a NaN sample used to pass, with
    # the metric at "-inf" or 0.0 and exit 0
    block_form = getattr(cli, target)

    def planted(*args):
        out = block_form(*args)
        samples(out)[3] = np.nan  # one sample of the block reads NaN
        return out

    path = str(tmp_path / "g.json")
    generate("lattice", radius=6).write_json(path)
    monkeypatch.setattr(cli, target, planted)
    code, out, err = run(capsys, "check", path, "--seed", "3")
    assert code == 3, err
    report = json.loads(out)
    assert report["all_passed"] is False
    assert [(c["name"], c["metric"]) for c in report["checks"] if not c["passed"]] == [(name, "nan")]


@pytest.mark.parametrize(
    "argv",
    [
        ("resist", "--from", "0,0", "--to", "2,3", "--method", "M2"),
        ("resist", "--from", "0,0", "--to", "2,3", "--method", "M3"),
        ("check",),
    ],
    ids=["M2", "M3", "check"],
)
def test_nan_tolerance_is_a_validation_error(argv, tmp_path, capsys):
    # M3 used to exit 0 uncertified (residual > nan is False) and M2 ran
    # until "broke down ... after 213 iterations", exit 3
    path = str(tmp_path / "lattice.json")
    generate("lattice", radius=6).write_json(path)
    code, out, err = run(capsys, argv[0], path, *argv[1:], "--tol", "nan")
    assert (code, out) == (2, "")
    assert "tol must be positive, got nan" in err


def test_solver_error_exits_with_numerical_error(tmp_path, capsys):
    # a tolerance below rounding: the cycle-space flow's KVL residual
    # (about 1.3e-16 here) cannot meet it, so main maps the SolverError to 3
    path = str(tmp_path / "lattice.json")
    generate("lattice", radius=12).write_json(path)
    code, out, err = run(
        capsys, "resist", path, "--from", "0,0", "--to", "5,6", "--method", "M3", "--tol", "1e-20"
    )
    assert code == 3 and out == ""
    assert err.startswith(
        "numerical error: cycle-space flow breaks Kirchhoff's voltage law (residual "
    )
    assert err.endswith(" > tol 1.0e-20)\n")
