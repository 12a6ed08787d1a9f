"""Command-line front end: generate graphs, query resistances, audit identities.

Subcommands:

  generate   build a named family and write/print its graph JSON
  resist     effective resistance between two vertices, any or all methods
  check      run the identity suite on a graph file (inversion, axioms, ...)
  walk       absorbed-walk sampling vs. exact harmonic measure
  oracle     closed-form reference values, optionally cross-checked

Every report embeds the invoking configuration and seed; numbers are rounded
to 12 significant digits.  Exit codes: 0 success, 1 usage, 2 validation
failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .decomposition import energy_splits
from .energy import SolverError, pointwise_products, reproducing_checks, solve_dipoles
from .graphs import FAMILIES, GraphError, generate, load_graph
from .greens import (
    binomial_closed_form,
    chain_walk_diagonal,
    generating_function_check,
    greens_gram,
    greens_inversion_check,
    nary_tree_closed_forms,
    nary_tree_comparison,
)
from .markov import (
    estimate_from_samples,
    harmonic_measure_exact,
    measure_z_scores,
    sample_paths,
)
from .resistance import (_ALIASES, METHODS, ResistanceMatrix, continuum_reference, resistance,
                         resistance_matrix)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag combinations caught after parsing."""


# -- plumbing ------------------------------------------------------------------


def _round12(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, np.floating):
        return _round12(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _config_echo(args):
    skip = {"handler", "command"}
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        config[key] = value if isinstance(value, (bool, int, float, str)) else str(value)
    return config


def _report(args, payload):
    report = {"command": args.command, "config": _config_echo(args), "seed": args.seed}
    if not args.deterministic:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report.update(payload)
    return _round12(report)


def _csv_text(report):
    rows = []

    def descend(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                descend(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                descend(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, obj))

    descend("", report)
    return "\n".join(["key,value"] + [f"{k},{v}" for k, v in rows]) + "\n"


def _emit(args, report):
    if args.format == "csv":
        text = _csv_text(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "report_file", None):
        with open(args.report_file, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _parse_vertex(graph, text):
    """Vertex index of a label typed as the reports print it, or as "0,1".

    The text is read as a Python literal first, so "3", "(0, 1)", "0,1",
    "(0,)" and "()" name int and tuple labels; otherwise it is the string
    label itself, such as the binary-tree root "" or "+-".
    """
    readings = [text]
    try:
        readings.insert(0, ast.literal_eval(text.strip()))
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        pass
    for label in readings:
        try:
            return graph.label_index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable literal
            continue
    raise GraphError(f"unknown vertex label {text!r}")


# -- subcommands ---------------------------------------------------------------

def cmd_generate(args):
    params = {dest: getattr(args, dest) for _, dest, _, _ in _FAMILY_FLAGS}
    params = {k: v for k, v in params.items() if v is not None}
    trunc = generate(args.family, radius=args.radius, **params)
    graph = trunc.graph
    payload = {
        "family": args.family,
        "vertices": graph.n,
        "edges": graph.num_edges,
        "interior": len(trunc.interior),
        "frontier": len(trunc.frontier),
    }
    if args.output:
        trunc.write_json(args.output)
        payload["written_to"] = args.output
    else:
        payload["graph"] = trunc.to_data()
    return payload, 0


def cmd_resist(args):
    trunc = load_graph(args.graph)
    graph = trunc.graph
    if args.from_ is None or args.to is None:
        if not args.matrix:
            raise UsageError("resist needs --from and --to (or --matrix)")
        payload = {}
    else:
        x = _parse_vertex(graph, args.from_)
        y = _parse_vertex(graph, args.to)
        values = resistance(graph, x, y, method=args.method, tol=args.tol)
        if args.method != "all":
            values = {args.method: values}
        payload = {"from": str(graph.labels[x]), "to": str(graph.labels[y]), "values": values}
        if "max_rel_disagreement" in values:
            payload["max_rel_disagreement"] = values.pop("max_rel_disagreement")
    if args.matrix:
        rm = resistance_matrix(graph)  # the one matrix route, whatever --method says
        rm.to_csv(args.matrix)
        payload["matrix_path"] = args.matrix
        payload["matrix_symmetry_residual"] = rm.sym_residual
    return payload, 0


# The sampled checks of `cmd_check`, each one pass over an (n, k) block of
# random functions drawn from `rng` in turn.


def _worst(values, floor):
    """The largest of `floor` and `values`; NaN if any value is NaN, which
    Python's max would skip."""
    return float(np.max(values, initial=floor))


def _algebra_bound(graph, rng):
    """Worst relative excess of a product's energy over its bound, 200 pairs."""
    uw = rng.standard_normal((200, 2, graph.n))  # the stream of 200 (u, w) draws in turn
    _, cert = pointwise_products(graph, uw[:, 0].T, uw[:, 1].T)
    excess = (cert.product_energy - cert.bound) / np.maximum(1.0, np.abs(cert.bound))
    return _worst(excess, -np.inf)


def _reproducing_property(graph, rng, tol):
    """Worst reproducing residual of 25 random dipoles, each against a random f."""
    pairs, fs = [], []
    for _ in range(25):  # each pair, then its test function f
        pairs.append(rng.choice(graph.n, size=2, replace=False))
        fs.append(rng.standard_normal(graph.n))
    dipoles = solve_dipoles(graph, pairs, tol=tol)
    f = np.array(fs).T
    f = f - f[graph.base_point]  # gauged, as the sup norm below needs
    residual = reproducing_checks(dipoles, f)
    return _worst(residual / np.maximum(1.0, np.max(np.abs(f), axis=0)), 0.0)


def _royden_pythagoras(trunc, rng):
    """Worst relative residual of the energy split of 10 random functions."""
    split = energy_splits(trunc, rng.standard_normal((10, trunc.graph.n)).T)
    return _worst(split["identity_residual"] / np.maximum(1.0, split["total"]), 0.0)


def cmd_check(args):
    trunc = load_graph(args.graph)
    graph = trunc.graph
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, metric, threshold, passed):
        checks.append(
            {"name": name, "metric": metric, "threshold": threshold, "passed": bool(passed)}
        )

    kernel = greens_gram(trunc)
    inv = greens_inversion_check(trunc, kernel)
    record("greens-inversion", inv, 1e-8, inv <= 1e-8)

    rm = ResistanceMatrix.from_kernel(kernel)  # read off the kernel above
    del kernel  # only rm is read from here on: free the kernel before the scan
    slack = rm.triangle_slack() if graph.n >= 3 else 0.0
    diag = float(np.max(np.abs(np.diag(rm.matrix))))
    record("metric-triangle", slack, -1e-8, slack >= -1e-8)
    record("metric-zero-diagonal", diag, 0.0, diag == 0.0)

    worst = _algebra_bound(graph, rng)
    record("energy-algebra-bound", worst, 1e-9, worst <= 1e-9)
    worst = _reproducing_property(graph, rng, args.tol)
    record("reproducing-property", worst, 1e-8, worst <= 1e-8)
    worst = _royden_pythagoras(trunc, rng)
    record("royden-pythagoras", worst, 1e-8, worst <= 1e-8)

    ok = all(c["passed"] for c in checks)
    payload = {"checks": checks, "all_passed": ok}
    return payload, 0 if ok else 3


def cmd_walk(args):
    trunc = load_graph(args.graph)
    graph = trunc.graph
    if len(trunc.frontier) == 0:
        raise GraphError("graph file carries no frontier; nothing absorbs the walk")
    start = graph.base_point if args.start is None else _parse_vertex(graph, args.start)
    max_steps = args.max_steps if args.max_steps is not None else 100 * graph.n
    samples = sample_paths(trunc, start, args.samples, max_steps, args.seed)
    sampled = estimate_from_samples(trunc, samples)
    exact = harmonic_measure_exact(trunc, start)
    z = measure_z_scores(sampled, exact)
    table = [
        {
            "label": str(graph.labels[int(b)]),
            "count": int(c),
            "sampled": float(p),
            "exact": float(mu),
            "z": float(zz),
        }
        for b, c, p, mu, zz in zip(
            sampled.frontier, sampled.counts, sampled.weights, exact.weights, z
        )
    ]
    payload = {
        "start": str(graph.labels[start]),
        "total_samples": sampled.total_samples,
        "unabsorbed": sampled.unabsorbed,
        # an exact int64 sum over the count: one rounding
        "mean_steps": int(samples.length.sum()) / len(samples),
        "max_steps_taken": int(samples.length.max()),
        "frontier": table,
        "max_abs_z": max((abs(row["z"]) for row in table), default=0.0),
    }
    return payload, 0


def cmd_oracle(args):
    if args.model == "binomial":
        if args.p_plus is None:
            raise UsageError("oracle --model binomial needs --p-plus")
        walk = binomial_closed_form(args.p_plus)
        payload = {
            "model": "binomial",
            "p_plus": walk.p_plus,
            "lam": walk.lam,
            "diagonal_green": walk.diagonal,
        }
        if args.verify:
            payload["generating_function"] = generating_function_check(walk.lam)
            payload["chain_cross_check"] = chain_walk_diagonal(
                args.p_plus, width=args.width or 40
            )
        return payload, 0
    if args.model == "nary":
        if args.branching is None or args.b is None:
            raise UsageError("oracle --model nary needs --n and --b")
        closed = nary_tree_closed_forms(args.branching, args.b, args.level)
        payload = {"model": "nary", "branching": args.branching, "b": args.b}
        payload.update(closed)
        if args.verify:
            payload["tree_cross_check"] = nary_tree_comparison(
                args.branching, args.b, radius=args.radius or 6, level=args.level
            )
        return payload, 0
    # continuum: the parser's choices admit no other model
    if args.x is None or args.y is None:
        raise UsageError("oracle --model continuum needs --x and --y")
    kernel, distance = continuum_reference(args.x, args.y)
    return {"model": "continuum", "kernel": kernel, "distance": distance}, 0


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# numpy reads a Philox key at or above 2^63 through float64, so larger seeds
# alias one another in `sample_paths` (2^64 - 1 gives the walks of seed 0).
_SEED_LIMIT = 2**63


class _Label(argparse.Action):
    # Python 3.11's argparse drops a value of exactly "--" (as in --from=--)
    # and hands on []: store it back as the binary-tree label "--".
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _int_list(text):
    return [int(p) for p in text.split(",") if p.strip()]


def _float_list(text):
    return [float(p) for p in text.split(",") if p.strip()]


# The `generate` parameters, one row per keyword of a FAMILIES builder:
# (flags, dest, type, help).  The table drives the parser and cmd_generate.
_FAMILY_FLAGS = (
    (("--growth",), "growth", float, None),
    (("--d",), "d", int, "lattice dimension"),
    (("--b-plus",), "b_plus", float, None),
    (("--b-minus",), "b_minus", float, None),
    (("--n", "--branching"), "branching", int, "tree branching factor"),
    (("--b",), "b", float, "tree growth base"),
    (("--level-sizes",), "level_sizes", _int_list, None),
    (("--level-weights",), "level_weights", _float_list, None),
    (("--width",), "width", int, "chain width"),
    (("--r1",), "r1", float, None),
    (("--r2",), "r2", float, None),
    (("--r3",), "r3", float, None),
)


@functools.cache
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed, echoed in reports")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the timestamp so identical runs emit identical bytes",
    )
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    common.add_argument(
        "--report-file", default=None, help="also write the report to this path"
    )

    parser = _Parser(prog="resnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", parents=[common], help="build a named graph family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--radius", type=int, default=None)
    for flags, dest, kind, text in _FAMILY_FLAGS:
        p.add_argument(*flags, dest=dest, type=kind, default=None, help=text)
    p.add_argument("-o", "--output", default=None, help="graph JSON destination")
    p.set_defaults(handler=cmd_generate, command="generate")

    p = sub.add_parser("resist", parents=[common], help="effective resistance queries")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--from", dest="from_", action=_Label, help="source vertex label")
    p.add_argument("--to", action=_Label, help="target vertex label")
    p.add_argument("--method", default="all", choices=("all", *sorted(METHODS + tuple(_ALIASES))))
    p.add_argument("--matrix", default=None, help="write the full matrix CSV here")
    p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    p.set_defaults(handler=cmd_resist, command="resist")

    p = sub.add_parser("check", parents=[common], help="identity suite on a graph file")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    p.set_defaults(handler=cmd_check, command="check")

    p = sub.add_parser("walk", parents=[common], help="absorbed-walk sampling report")
    p.add_argument("graph", help="graph JSON file (must carry a frontier)")
    p.add_argument("--start", action=_Label, help="start vertex label (default: base)")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.set_defaults(handler=cmd_walk, command="walk")

    p = sub.add_parser("oracle", parents=[common], help="closed-form reference values")
    p.add_argument("--model", required=True, choices=("binomial", "nary", "continuum"))
    p.add_argument("--p-plus", dest="p_plus", type=float, default=None)
    p.add_argument("--n", "--branching", dest="branching", type=int, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--radius", type=int, default=None, help="verification tree depth")
    p.add_argument("--width", type=int, default=None, help="verification chain width")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--verify", action="store_true", help="numerical cross-checks")
    p.set_defaults(handler=cmd_oracle, command="oracle")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    if not 0 <= args.seed < _SEED_LIMIT:
        sys.stderr.write(f"validation error: --seed {args.seed} is outside [0, 2^63)\n")
        return 2
    try:
        payload, code = args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except GraphError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    _emit(args, _report(args, payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
