"""End-to-end command-line tests: every invocation goes through main(argv)."""

import hashlib
import inspect
import json
import os
import sys
import warnings

import numpy as np
import pytest

from resnet import cli, markov
from resnet.cli import _parse_vertex, main
from resnet.graphs import FAMILIES, generate, load_graph
from resnet.greens import greens_gram
from resnet.markov import sample_paths
from resnet.resistance import ResistanceMatrix, resistance_matrix

from conftest import WRONG_SHAPES, per_z_triangle_slack


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
# change, but its reports stay byte for byte the same
WALK_DIGESTS = [
    (
        ["--family", "chain", "--width", "9", "--growth", "1.0"],
        ["--samples", "400", "--seed", "4"],
        "226fc223c73b4972f3fa8ced26c3b3929d213cdc0b6e1cef4d0dfa5a0e3fac96",
    ),
    (  # most walks cut off unabsorbed
        ["--family", "binary-tree", "--radius", "4"],
        ["--samples", "500", "--seed", "11", "--max-steps", "6"],
        "7dd0bdf09afc040ebabe7458c9de5b804cfc5c3c301642dd13618c06528ac2e0",
    ),
    (
        ["--family", "comb", "--radius", "5"],
        ["--samples", "300", "--seed", str(2**63 - 1), "--start=1,2", "--format", "csv"],
        "416084084f21e6373ea53fe79d2ad1fe5ad889aeb60f032cf884f18275d1eb92",
    ),
]


@pytest.mark.parametrize("family, walk, digest", WALK_DIGESTS)
def test_walk_reports_are_byte_identical(family, walk, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report echoes the graph path
    run_json(capsys, "generate", *family, "-o", "g.json")
    code, out, err = run(capsys, "walk", "g.json", *walk, "--deterministic")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_walk_builds_no_path_sample(chain_file, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("walk built a PathSample")

    monkeypatch.setattr(markov.PathSample, "__init__", refuse)
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
    monkeypatch.setattr(cli, "_kernel_matrix", lambda k: resistance_matrix(k.graph, "M2", k.tol))
    monkeypatch.setattr(ResistanceMatrix, "triangle_slack", lambda m: per_z_triangle_slack(m.matrix))
    assert run_json(capsys, *argv) == got


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
