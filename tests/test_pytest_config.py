"""The repository's pytest configuration, checked by running pytest on a
throwaway test file in a fresh interpreter."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 10
'''


def test_a_failing_hypothesis_test_shows_its_example(tmp_path):
    # With every warning an error, a deprecation raised inside hypothesis's
    # report hook would turn the failure into an INTERNALERROR that hides
    # the example.
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
