"""The repository's pytest settings report a failing property test as a
failure and go on to run the tests after it."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_fails(x):
    assert x < 10


def test_b_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # on failure hypothesis writes a patch through libcst, whose import warns;
    # under filterwarnings = error that warning used to be an INTERNALERROR
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
