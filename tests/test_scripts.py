"""The two reproduction scripts, run end to end in child processes."""

import os
import subprocess
import sys
from pathlib import Path

import deltalab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, timeout=120):
    """`python scripts/<name>` in a child process with deltalab importable."""
    src = str(Path(deltalab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / name)], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_scripts_run_to_their_conclusions():
    # the sweep: every row of both tables agrees with its theorem
    proc = run_script("characterization_sweep.py")
    assert proc.returncode == 0, proc.stderr
    agree, in_table = [], False
    for line in proc.stdout.splitlines():
        if line.endswith("agree"):
            in_table = True
        elif not line.strip():
            in_table = False
        elif in_table:
            agree.append(line.split()[-1])
    assert agree == ["True"] * 8
    # the Delta-but-not-Daugavet reproduction reaches its conclusion
    proc = run_script("delta_but_not_daugavet.py")
    assert proc.returncode == 0, proc.stderr
    assert "\nconclusion:" in proc.stdout
