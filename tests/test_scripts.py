"""The scripts under scripts/ run from a checkout with the package's
source directory on PYTHONPATH, as their Usage lines say."""

import os
import subprocess
import sys
from pathlib import Path

import bicomplex

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str) -> str:
    # the child imports the same package as the tests, wherever it lives
    src = str(Path(bicomplex.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_catalog():
    out = run_script("run_catalog.py")
    # classified with its real structure: row pages checked against column pages
    (line,) = [ln for ln in out.splitlines() if ln.startswith("nakamura:real ")]
    assert "True/True/True" in line.split()


def test_sl2_betti_scan():
    out = run_script("sl2_betti_scan.py")
    # the betti and verdict columns of every row below the header: only
    # (1, 0, 0, 1) passes, as the script's docstring says
    verdicts = {row[:14].rstrip(): row[15:22].rstrip() for row in out.splitlines()[1:]}
    assert len(verdicts) == 16 and set(verdicts.values()) == {"True", "False"}
    assert [b for b, v in verdicts.items() if v == "True"] == ["(1, 0, 0, 1)"]
