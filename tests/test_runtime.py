"""The package run as a program, in a child process: `python -m
evanom.cli` is the CLI, and the runtime imports numpy but no scipy."""
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_run_is_the_cli(tmp_path):
    """`python -m evanom.cli score` on a missing event file runs the
    command, which fails, rather than exiting 0 having done nothing."""
    run = _run(["-m", "evanom.cli", "score", "--events", "missing.csv",
                "--width", "8", "--height", "8", "--ms-ckpt", "ms.evck",
                "--gan-ckpt", "gan.evck", "--out", "scores.csv"], tmp_path)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: ") and "missing.csv" in run.stderr
    assert not (tmp_path / "scores.csv").exists()


def test_runtime_loads_no_scipy(tmp_path):
    run = _run(["-c", "import sys\n"
                      "import evanom.autodiff, evanom.cli, evanom.oracle\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m == 'scipy' or "
                      "m.startswith('scipy.')))\n"], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
