"""The pytest settings in pyproject.toml, run on small test files."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_given_test_does_not_end_the_session(tmp_path):
    """A failing @given test makes Hypothesis import libcst, which warns;
    under `filterwarnings = error` that once stopped the session with an
    INTERNALERROR before the next test ran."""
    test = tmp_path / "test_given.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_later():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(test)], cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
