"""Workload inputs, op schedules and output checks for the resnet benchmark.

Every input is generated from the workload seed.  Graph files are written by
the library's own generator; each op then goes through the entry point a user
calls (`resnet.cli.main` with stdout captured, or a library function) and its
output is checked before it counts as passed.  See NOTES.md for why each
workload exists and the ledger of failures measured at the baseline.
"""

from __future__ import annotations

import contextlib
import fnmatch
import importlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from resnet.graphs import generate
from resnet.greens import greens_gram

# Ops call through the module objects, so that a traced run's wrappers apply.
cli_mod = importlib.import_module("resnet.cli")
graphs_mod = importlib.import_module("resnet.graphs")
greens_mod = importlib.import_module("resnet.greens")

ROUTES = ("M1", "M2", "M3", "M4", "M7")
BOUND_SLACK = 1e-9  # relative slack on the certified resistance bounds
SUM_TOL = 1e-12  # exact harmonic measure must sum to 1 within this
REPORT_RTOL = 5e-12  # the CLI rounds every number to 12 significant digits
Z_MAX = 5.0
KERNEL_GAP_MAX = 1e-7  # walk-series against gram kernel, as in acceptance test C05
SERIES_TAIL_MAX = 1e-9
ORACLE_CHAIN_RTOL = 1e-5

# Failures of the baseline code on these inputs.  A failure that matches an
# entry is expected and counted; any other failure makes the run incorrect.
# Fields: workload, then globs on graph and route, failure class, then a glob
# on the failure detail.
KNOWN_FAILURES = (
    ("check", "lattice-15", "check", "exit3", "greens-inversion"),
    ("check", "lattice-20", "check", "exit3", "greens-inversion"),
    ("check", "comb-14", "check", "exit3", "greens-inversion"),
    ("check", "binary-tree-9", "check", "exit3", "greens-inversion"),
    ("queries", "lattice-24", "M3", "exit3", "least-norm flow solve failed*"),
    ("queries", "chain-60", "M3", "exit3", "least-norm flow solve failed*"),
    ("queries", "comb-16", "M3", "exit3", "least-norm flow solve failed*"),
    # LSQR stops about 1e-9 above the exact series resistance of the tree path
    ("queries", "comb-16", "M3", "bound", "*"),
    ("queries", "chain-60", "M4", "exception", "LinAlgError"),
    # silent wrong answers: the dense grounded solve lands above the exact
    # series resistance of the path
    ("queries", "chain-60", "M4", "bound", "*"),
    # argparse turns the value "--" into an empty list, so `--from=--` crashes
    ("queries", "binary-tree-*", "*", "exception", "AttributeError"),
    # the root () and depth-1 labels (0,) ... print as "" and "0", which the
    # CLI parses as the string "" and the int 0
    ("queries", "nary-tree-*", "*", "exit1-2", "*unknown vertex label*"),
)


def known(workload, failure, op):
    cls, detail = failure
    return any(
        w == workload and fnmatch.fnmatch(op.graph, g) and fnmatch.fnmatch(op.route, r) and c == cls
        and fnmatch.fnmatch(detail, d)
        for w, g, r, c, d in KNOWN_FAILURES
    )


@dataclass
class Op:
    graph: str
    route: str
    call: Callable[[], object]
    verify: Callable[[object], tuple]  # result -> (failure or None, value)
    group: int | None = None  # ops of one resistance pair share a group


@dataclass
class Workload:
    graphs: dict  # graph key -> TruncatedGraph, for the environment block
    ops: list  # one pass
    errors: Callable[[list], list]  # records -> one error figure per answer
    accuracy_what: str
    warmup: list  # CLI argument lists run once during set-up


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_failure(code, err):
    """Failure class and detail for a nonzero exit, or None for exit 0."""
    if code == 0:
        return None
    message = err.strip().splitlines()[-1] if err.strip() else ""
    if code == 3:
        message = message.removeprefix("numerical error: ")
        return "exit3", re.sub(r"\s*\(.*", "", message)
    if code in (1, 2):
        return "exit1-2", message
    return f"exit{code}", message


def label_arg(label):
    if isinstance(label, tuple):
        return ",".join(str(part) for part in label)
    return str(label)


def graph_key(family, radius, params):
    return f"{family}-{params['width'] if family == 'chain' else radius}"


def per_op_values(records):
    """The error figure of each op that produced one (every pass gives the same)."""
    return list({r.k: r.value for r in records if r.value is not None}.values())


def write_graphs(specs, workdir):
    """Generate each (family, radius, params) and write its JSON; key -> (path, trunc)."""
    out = {}
    for family, radius, params in specs:
        key = graph_key(family, radius, params)
        trunc = generate(family, radius=radius, **params)
        path = os.path.join(workdir, f"{key}.json")
        trunc.write_json(path)
        out[key] = (path, trunc)
    return out


# -- check ---------------------------------------------------------------------

CHECK_GRAPHS = {
    False: (
        ("lattice", 15, {}),
        ("lattice", 20, {}),
        ("comb", 14, {}),
        ("binary-tree", 8, {}),
        ("binary-tree", 9, {}),
        ("nary-tree", 5, {"branching": 3}),
    ),
    True: (("lattice", 4, {}), ("comb", 4, {}), ("binary-tree", 3, {})),
}


def _verify_check(result):
    code, out, err = result
    report = json.loads(out) if out else None
    if report is None:
        return cli_failure(code, err) or ("check", "no report"), None
    inversion = next(c["metric"] for c in report["checks"] if c["name"] == "greens-inversion")
    if code == 0 and report["all_passed"]:
        return None, inversion
    failing = "+".join(c["name"] for c in report["checks"] if not c["passed"])
    return ("exit3" if code == 3 else "check", failing), inversion


def check_workload(seed, workdir, tiny):
    rng = np.random.default_rng([seed, 1])
    files = write_graphs(CHECK_GRAPHS[tiny], workdir)
    ops = []
    for key, (path, _) in files.items():
        argv = ["check", path, "--seed", str(int(rng.integers(2**31)))]
        ops.append(Op(key, "check", lambda argv=argv: run_cli(argv), _verify_check))
    warm = write_graphs((("lattice", 3, {}),), workdir)
    warmup = [["check", warm["lattice-3"][0]]]

    return Workload({k: t for k, (_, t) in files.items()}, ops, per_op_values,
                    "greens-inversion metric per graph", warmup)


# -- queries -------------------------------------------------------------------

# (family, radius, params, pairs per pass).  lattice-24 gets fewer pairs: each
# M3 op there runs about a second of LSQR and would otherwise fill the pass.
QUERY_GRAPHS = {
    False: (
        ("lattice", 12, {}, 20),
        ("lattice", 24, {}, 8),
        ("binary-tree", 9, {}, 20),
        ("comb", 16, {}, 20),
        ("chain", None, {"width": 60}, 20),
        ("nary-tree", 6, {"branching": 3}, 20),
    ),
    True: (
        ("lattice", 4, {}, 2),
        ("binary-tree", 3, {}, 2),
        ("chain", None, {"width": 8}, 2),
    ),
}


def stratified_pairs(rng, graph, count):
    """`count` seeded pairs with one x in each of `count` bands of hop distance from
    the base, and the y's spread over the bands in a seeded order.

    Solve cost and error depend on how far the endpoints sit from the base, so
    covering every band keeps the pass's cost and accuracy alike across seeds.
    """
    bands = np.array_split(np.argsort(graph.hop_distance, kind="stable"), count)
    pairs = []
    for band_x, band_y in zip(bands, rng.permutation(count)):
        x = int(rng.choice(band_x))
        y = int(rng.choice(bands[band_y][bands[band_y] != x]))
        pairs.append((x, y))
    return pairs


def resistance_bounds(graph, x, y):
    """Certified bounds on R(x, y): the star cut at either end below (Nash-Williams),
    the series resistance of one hop-shortest path above (Rayleigh)."""
    degrees = graph.degrees
    lower = max(1.0 / float(degrees[x]), 1.0 / float(degrees[y]))
    _, pred = breadth_first_order(graph.adjacency(), x, directed=False, return_predecessors=True)
    upper, v = 0.0, y
    while v != x:
        u = int(pred[v])
        upper += 1.0 / graph.conductance(u, v)
        v = u
    return lower, upper


def _verify_resist(route, lower, upper):
    def verify(result):
        code, out, err = result
        failure = cli_failure(code, err)
        if failure:
            return failure, None
        value = json.loads(out)["values"][route]
        if not (isinstance(value, float) and math.isfinite(value)):
            return ("bound", f"non-finite {value!r}"), None
        if not lower * (1 - BOUND_SLACK) <= value <= upper * (1 + BOUND_SLACK):
            return ("bound", f"{value!r} outside [{lower!r}, {upper!r}]"), None
        return None, value

    return verify


def queries_workload(seed, workdir, tiny):
    specs = QUERY_GRAPHS[tiny]
    files = write_graphs([s[:3] for s in specs], workdir)
    ops, group = [], 0
    for index, (family, radius, params, pairs) in enumerate(specs):
        key = graph_key(family, radius, params)
        path, trunc = files[key]
        graph = trunc.graph
        for x, y in stratified_pairs(np.random.default_rng([seed, 2, index]), graph, pairs):
            lower, upper = resistance_bounds(graph, x, y)
            for route in ROUTES:
                argv = ["resist", path, f"--from={label_arg(graph.labels[x])}",
                        f"--to={label_arg(graph.labels[y])}", "--method", route]
                ops.append(Op(key, route, lambda argv=argv: run_cli(argv),
                              _verify_resist(route, lower, upper), group))
            group += 1
    warm = write_graphs((("lattice", 3, {}),), workdir)["lattice-3"][0]
    warmup = [["resist", warm, "--from=0,0", "--to=1,2", "--method", r] for r in ROUTES]

    def errors(records):
        by_pair = {}
        for r in records:
            if r.value is not None:
                by_pair.setdefault(r.op.group, {})[r.op.route] = r.value
        return [(max(v.values()) - min(v.values())) / max(v.values())
                for v in by_pair.values() if len(v) > 1]

    return Workload({k: t for k, (_, t) in files.items()}, ops, errors,
                    "relative disagreement between the routes that answered one pair", warmup)


# -- walk ----------------------------------------------------------------------

# (family, radius, params, samples).  Walks start at every interior vertex
# within one hop of the base point: deeper starts leave frontier weights near
# 1e-6, where a single stray hit reads as |z| ~ 19 and the z check stops being
# a test.  Samples are set so each start's smallest frontier weight still
# expects a few hits; the chain's far end (weight ~1e-9) is the exception.
WALK_GRAPHS = {
    False: (
        ("lattice", 12, {}, 3000),
        ("comb", 10, {}, 10000),
        ("binary-tree", 7, {}, 10000),
        ("chain", None, {"width": 60}, 2500),
    ),
    True: (("lattice", 4, {}, 200), ("chain", None, {"width": 10}, 200)),
}
SERIES_GRAPHS = {
    False: (("halfline", 8, {}), ("comb", 10, {})),
    True: (("halfline", 3, {}),),
}
ORACLE_ARGV = ["oracle", "--model", "binomial", "--p-plus", repr(2.0 / 3.0), "--verify"]


def _verify_walk(result):
    code, out, err = result
    failure = cli_failure(code, err)
    if failure:
        return failure, None
    report = json.loads(out)
    exact = [row["exact"] for row in report["frontier"]]
    # the reported weights carry 12 significant digits; the true sum lies
    # within REPORT_RTOL * sum of the reported one
    total = math.fsum(exact)
    if abs(total - 1.0) > SUM_TOL + REPORT_RTOL * total:
        return ("check", f"exact measure sums to {total!r}"), None
    if not report["max_abs_z"] <= Z_MAX:
        return ("check", f"max_abs_z {report['max_abs_z']!r}"), None
    return None, None


def _series_call(path):
    def call():
        wg = greens_mod.walk_greens(graphs_mod.load_graph(path), order_cap=300_000)
        return wg, wg.to_kernel()

    return call


def _verify_series(reference):
    def verify(result):
        wg, kernel = result
        gap = float(np.max(np.abs(kernel.matrix - reference)) / np.max(np.abs(reference)))
        if not (gap <= KERNEL_GAP_MAX and wg.tail_bound < SERIES_TAIL_MAX):
            return ("check", f"kernel gap {gap!r}, tail {wg.tail_bound!r}"), gap
        return None, gap

    return verify


def _verify_oracle(result):
    code, out, err = result
    failure = cli_failure(code, err)
    if failure:
        return failure, None
    report = json.loads(out)
    gf, chain = report["generating_function"], report["chain_cross_check"]
    if not gf["residual"] <= gf["tail_bound"]:
        return ("check", f"generating function residual {gf['residual']!r}"), None
    if not chain["rel_error"] <= ORACLE_CHAIN_RTOL:
        return ("check", f"chain rel_error {chain['rel_error']!r}"), None
    return None, None


def walk_workload(seed, workdir, tiny):
    rng = np.random.default_rng([seed, 3])
    specs = WALK_GRAPHS[tiny]
    files = write_graphs([s[:3] for s in specs], workdir)
    ops = []
    for family, radius, params, samples in specs:
        key = graph_key(family, radius, params)
        path, trunc = files[key]
        graph = trunc.graph
        for v in trunc.interior:
            if graph.hop_distance[v] > 1:
                continue
            argv = ["walk", path, "--samples", str(samples),
                    "--seed", str(int(rng.integers(2**31))),
                    f"--start={label_arg(graph.labels[int(v)])}"]
            ops.append(Op(key, "walk", lambda argv=argv: run_cli(argv), _verify_walk))
    series = write_graphs(SERIES_GRAPHS[tiny], workdir)
    for key, (path, trunc) in series.items():
        reference = greens_gram(trunc, tol=1e-13).matrix
        ops.append(Op(key, "walk_greens", _series_call(path), _verify_series(reference)))
    ops.append(Op("binomial", "oracle", lambda: run_cli(ORACLE_ARGV), _verify_oracle))
    warm = write_graphs((("lattice", 3, {}),), workdir)["lattice-3"][0]
    warmup = [["walk", warm, "--samples", "50"], ["oracle", "--model", "binomial", "--p-plus", "0.6"]]

    graphs = {k: t for k, (_, t) in {**files, **series}.items()}
    return Workload(graphs, ops, per_op_values,
                    "max-norm gap of the walk-series kernel to the gram kernel", warmup)


WORKLOADS = {"check": check_workload, "queries": queries_workload, "walk": walk_workload}
