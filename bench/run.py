#!/usr/bin/env python3
"""Closed-loop benchmark of the resnet CLI and library.

    python3 bench/run.py --workload {check,queries,walk} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N [--seconds S]

A run builds its inputs from the seed (set-up, timed separately), then runs
reshuffled passes over the workload's ops, one op at a time, until --seconds
have passed; the first pass always completes.  Every op's output is checked.
Op times are rescaled to a reference machine speed by `speed.SpeedProbe`, and
each op is timed by the median of its runs.  With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 the run spends half its
time untraced and half traced, and the last line carries per-layer metrics
built from spans around the package's public functions.  `--workload all`
runs each workload untraced and traced, each in its own process.

The checkout's own `src/` is put first on the import path; without it the
run exits with status 2 and prints no result.  Results, spans and the
environment block go to `.bench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

T_START = perf_counter()
BLAS_THREADS = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("check", "queries", "walk")
SETUP_REPEATS = 3
E2E_METRICS = ("ops_per_s", "op_p50_s", "op_tail_s", "accuracy_digits", "setup_s", "peak_rss_mb")
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops above it


@dataclass
class Record:
    k: int  # position of the op in the workload's pass
    op: object
    start: float
    end: float
    failure: tuple | None  # (class, detail)
    value: float | None
    seconds: float = 0.0  # end - start at the probe's reference speed


def run_ops(workload, seed, budget, probe, tracer=None):
    """Run reshuffled passes over the ops until `budget` seconds are used.

    The first pass always completes, so every op has at least one timing.
    Returns the records and the elapsed seconds.
    """
    import numpy as np

    records, passes, start = [], 0, perf_counter()
    while not (passes and perf_counter() - start >= budget):
        order = np.random.default_rng([seed, 4, passes]).permutation(len(workload.ops))
        for k in order:
            if passes and perf_counter() - start >= budget:
                break
            op = workload.ops[k]
            if tracer is not None:
                tracer.op = len(records)
            failure = value = None
            t = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an uncaught exception is a counted failure
                result, failure = None, ("exception", type(exc).__name__)
            t_end = perf_counter()
            if failure is None:
                try:
                    failure, value = op.verify(result)
                except Exception as exc:  # malformed output fails the op, not the run
                    failure = ("check", f"{type(exc).__name__}: {exc}")
            records.append(Record(int(k), op, t, t_end, failure, value))
        passes += 1
    elapsed = perf_counter() - start
    for r in records:
        r.seconds = probe.rescale(r.start, r.end)
    return records, elapsed


def tail_percentile(times):
    """(value, percentile): the highest whole percentile with TAIL_BEYOND ops above it.

    With too few ops for any percentile to qualify, the maximum is reported as p100.
    """
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, -1, -1):
        i = max(math.ceil(p / 100 * n) - 1, 0)
        if n - 1 - i >= TAIL_BEYOND:
            return ordered[i], p
    return ordered[-1], 100


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository of its own."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True, env=env,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and os.path.samefile(out[0], ROOT) else None


def environment(seed, workload):
    import numpy as np
    import platform
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    graphs = {}
    for key, trunc in workload.graphs.items():
        g = trunc.graph
        graphs[key] = {"n": g.n, "nnz": int(len(g.indices)),
                       "c_min": float(g.weights.min()), "c_max": float(g.weights.max())}
    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "graphs": graphs,
    }


def failure_summary(workload_name, records):
    from workloads import known

    rows = {}
    for r in records:
        if r.failure is not None:
            key = (r.op.graph, r.op.route, *r.failure)
            row = rows.setdefault(key, {"count": 0, "known": known(workload_name, r.failure, r.op)})
            row["count"] += 1
    return [{"graph": g, "route": rt, "class": c, "detail": d, **row}
            for (g, rt, c, d), row in sorted(rows.items())]


def op_times(records):
    """Per op: the median of its rescaled run times, and whether every run passed."""
    runs = {}
    for r in records:
        runs.setdefault(r.k, []).append(r)
    return [(statistics.median(r.seconds for r in rs), all(r.failure is None for r in rs))
            for rs in runs.values()]


def end_to_end(records, workload, setup_s):
    per_op = op_times(records)
    times = [t for t, _ in per_op]
    passed = sum(ok for _, ok in per_op)
    tail, pct = tail_percentile(times)
    digits = [-math.log10(max(e, sys.float_info.epsilon)) for e in workload.errors(records)]
    n = len(times)
    return {
        "ops_per_s": (passed / math.fsum(times), "1/s", f"{passed} passing ops over the time of all {n}"),
        "op_p50_s": (statistics.median(times), "s", f"median of {n} ops"),
        "op_tail_s": (tail, "s", f"p{pct} of {n} ops"),
        "failed_frac": ((n - passed) / n, "fraction", f"{n - passed} of {n} ops"),
        "accuracy_log10": (-min(digits, default=math.nan), "log10", f"worst {workload.accuracy_what}"),
        "accuracy_digits": (statistics.fmean(digits) if digits else math.nan, "digits",
                            f"mean -log10 over {len(digits)} answers"),
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups plus imports"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", "ru_maxrss"),
    }


def print_metrics(metrics):
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:9s} {note}")


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "resnet", "__init__.py")):
        sys.stderr.write(f"bench: no resnet package under {SRC}; nothing to measure\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        sys.path.insert(0, SRC)
        import resnet
        import workloads

        if os.path.dirname(os.path.abspath(resnet.__file__)) != os.path.join(SRC, "resnet"):
            sys.stderr.write(f"bench: resnet imported from {resnet.__file__}, not {SRC}\n")
            return 2
        import_s = probe.rescale(T_START, perf_counter())

        os.makedirs(OUT, exist_ok=True)
        workdir = None
        try:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                if workdir:
                    shutil.rmtree(workdir)
                t = perf_counter()
                workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
                workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
                for argv in workload.warmup:
                    workloads.run_cli(argv)
                setup_times.append(probe.rescale(t, perf_counter()))
            setup_s = import_s + statistics.median(setup_times)
            return measure(args, workload, setup_s, probe)
        finally:
            if workdir:
                shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_s, probe):
    env = environment(args.seed, workload)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_tiny' if args.tiny else ''}"
    result = {"workload": args.workload, "env": env}
    if args.trace:
        import tracing

        base, base_wall = run_ops(workload, args.seed, args.seconds / 2, probe)
        tracer = tracing.Tracer()
        tracer.install()
        records, wall = run_ops(workload, args.seed, args.seconds / 2, probe, tracer)
        overhead = (math.fsum(t for t, _ in op_times(records))
                    / math.fsum(t for t, _ in op_times(base)) - 1.0)
        selfs = tracer.self_times()
        layers = tracing.layer_values(tracer, selfs, overhead)
        units = dict(tracing.LAYER_METRICS)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        median = sorted(range(len(records)), key=lambda i: records[i].seconds)[len(records) // 2]
        mo = records[median]
        result.update(
            layers=metrics,
            layer_shares=tracing.layer_shares(tracer, selfs),
            median_op={"graph": mo.op.graph, "route": mo.op.route, "wall_s": mo.end - mo.start,
                       "self_s": tracing.op_breakdown(tracer, selfs, median)},
        )
        with open(os.path.join(OUT, f"spans_{tag}.json"), "w") as fh:
            json.dump([s.to_json() for s in tracer.spans], fh)
        all_records = base + records
        print(f"workload {args.workload} seed {args.seed} traced: {len(records)} op runs in "
              f"{wall:.2f} s after {len(base)} untraced in {base_wall:.2f} s")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        print("  self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in result["layer_shares"]))
        mo = result["median_op"]
        print(f"  median op ({mo['graph']} {mo['route']}, {mo['wall_s'] * 1e3:.2f} ms wall): "
              + ", ".join(f"{k} {v * 1e3:.2f} ms" for k, v in mo["self_s"][:4]))
    else:
        records, wall = run_ops(workload, args.seed, args.seconds, probe)
        full = end_to_end(records, workload, setup_s)
        metrics = {name: {"value": full[name][0], "unit": full[name][1]} for name in E2E_METRICS}
        result["end_to_end"] = {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in full.items()}
        all_records = records
        print(f"workload {args.workload} seed {args.seed}: {len(records)} runs of "
              f"{len(workload.ops)} ops in {wall:.2f} s")
        print_metrics(full)

    failures = failure_summary(args.workload, all_records)
    unexpected = sum(row["count"] for row in failures if not row["known"])
    # The result line counts ops, not op runs: an op's output is fixed by the
    # seed, so the counts repeat exactly however many runs fit in the time.
    outcomes = [ok for _, ok in op_times(all_records)]
    for row in failures:
        print(f"  failed {row['count']:4d}x {row['graph']} {row['route']} {row['class']}: "
              f"{row['detail'][:90]} ({'known' if row['known'] else 'UNEXPECTED'})")
    print("  env: " + json.dumps(env, sort_keys=True))
    result.update(failures=failures, metrics=metrics)
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(outcomes),
        "failed": sum(not ok for ok in outcomes),
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
