"""Smoke test of the benchmark harness at tiny sizes.

Each workload runs untraced and traced in its own process; the result line
must carry exactly the metrics BENCHMARK.json names, with their units, and
the report must print the seven end-to-end metrics by name and unit.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
REPORTED = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "failed_frac": "fraction",
    "accuracy_log10": "log10",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_both(workload):
    procs = {
        trace: subprocess.Popen(
            [sys.executable, RUN, "--workload", workload, "--seed", "3",
             "--seconds", "0.5", "--trace", str(trace), "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for trace in (0, 1)
    }
    outs = {}
    try:
        for trace, proc in procs.items():
            outs[trace] = proc.communicate(timeout=120)
            assert proc.returncode == 0, outs[trace][1]
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return {trace: out for trace, (out, _) in outs.items()}


@pytest.mark.parametrize("workload", ["check", "queries", "walk"])
def test_every_metric_is_emitted_with_its_unit(workload):
    spec = _spec()
    outs = _run_both(workload)
    results = {trace: json.loads(out.splitlines()[-1]) for trace, out in outs.items()}
    # both runs count the same ops of one seed, however many runs of each fit
    assert (results[0]["attempted"], results[0]["failed"]) == (results[1]["attempted"], results[1]["failed"])
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    printed = {line.split()[0]: line.split()[2] for line in outs[0].splitlines()
               if line.startswith("  ") and len(line.split()) >= 3}
    for name, unit in REPORTED.items():
        assert printed.get(name) == unit, name


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
