import csv
import re
import subprocess
import sys
import time
from pathlib import Path

from g2lab.flow import CSV_COLUMNS

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_soliton_census_runs():
    proc = _run_script("soliton_census.py")
    assert proc.returncode == 0, proc.stderr
    lams = [float(x) for x in re.findall(r"lambda\s+=\s+(\S+)", proc.stdout)]
    assert lams == [-2.0, -2.5, -2.5, -0.25], proc.stdout


def test_run_flow_experiments_runs(tmp_path):
    names = ["n2", "n12_modified_basis"]
    start = time.perf_counter()
    proc = _run_script("run_flow_experiments.py", "--t-end", "0.05", "--dt", "1e-3",
                       "--names", *names, "--outdir", str(tmp_path))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    for name in names:
        with open(tmp_path / f"flow_{name}.csv", newline="") as fh:
            assert tuple(next(csv.reader(fh))) == CSV_COLUMNS
    devs = [float(x) for x in re.findall(r"max-dev=(\S+)", proc.stdout)]
    assert len(devs) == len(names) and max(devs) <= 1e-9, proc.stdout
    assert elapsed < 5.0
