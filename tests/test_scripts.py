"""The scripts under scripts/ run end to end, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semicount

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CLI_COST = [sys.executable, str(SCRIPTS / "cli_cost.py"), "count", "--field", "2^1", "--g", "3"]


def _env(**extra: str) -> dict:
    src = str(Path(semicount.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.mark.parametrize("argv", [
    [sys.executable, str(SCRIPTS / "count_sweep.py"), "--g", "3", "--orders", "2,3,4"],
    [sys.executable, str(SCRIPTS / "kernel_runs.py"), "--field", "2^1", "--g", "3",
     "--runs", "50"],
    CLI_COST,
    [sys.executable, str(SCRIPTS / "roundtrip_cost.py"), "--field", "3^2", "--g", "2",
     "--tau", "1", "--codes", "200", "--repeats", "1"],
], ids=["count_sweep", "kernel_runs", "cli_cost", "roundtrip_cost"])
def test_script_runs(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, env=_env())
    assert proc.returncode == 0 and proc.stdout, proc.stderr


def test_cli_cost_survives_a_closed_stdout():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # unbuffered, the script's next line goes into the closed pipe
    proc = subprocess.Popen(CLI_COST, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_env(PYTHONUNBUFFERED="1"))
    assert proc.stdout.readline().startswith("import semicount.cli")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, "")
