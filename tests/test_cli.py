"""End-to-end command-line tests: every invocation goes through main(argv)."""

import json

import numpy as np
import pytest

from resnet.cli import _parse_vertex, main
from resnet.graphs import generate, load_graph
from resnet.markov import sample_paths


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
    assert set(values) == {"M1", "M2", "M3", "M4", "M7"}
    assert report["max_rel_disagreement"] < 1e-8
    assert values["M2"] == pytest.approx(0.18512235160447665, rel=1e-10)


def test_resist_matrix_export(halfline_file, tmp_path, capsys):
    csv_path = str(tmp_path / "dist.csv")
    report = run_json(
        capsys, "resist", halfline_file, "--from", "0", "--to", "1",
        "--matrix", csv_path,
    )
    assert report["matrix_path"] == csv_path
    assert report["matrix_method"] == "M2"
    lines = open(csv_path).read().strip().splitlines()
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


def test_threads_flag_and_env_default(monkeypatch, capsys):
    monkeypatch.setenv("RESNET_THREADS", "3")
    report = run_json(capsys, "generate", "--family", "wye", "--deterministic")
    assert report["config"]["threads"] == 3
    report = run_json(
        capsys, "generate", "--family", "wye", "--threads", "2", "--deterministic"
    )
    assert report["config"]["threads"] == 2


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


@pytest.mark.parametrize("family,radius", [("lattice", 15), ("comb", 14)])
def test_check_passes_where_the_pcg_kernel_missed(family, radius, tmp_path, capsys):
    # the PCG-built kernel gave greens-inversion 1.04e-8 and 3.3e-7 here
    path = str(tmp_path / "g.json")
    generate(family, radius=radius).write_json(path)
    code, out, err = run(capsys, "check", path)
    assert code == 0, err
    assert json.loads(out)["all_passed"] is True
