import csv
import json
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


def test_report_digest_runs_and_diffs(tmp_path):
    record = tmp_path / "reports.json"
    proc = _run_script("report_digest.py", str(ROOT), str(record))
    assert proc.returncode == 0, proc.stderr
    assert "uncaught" not in proc.stderr
    reports = json.loads(record.read_text())
    assert reports["classify --catalog n2"][0] == 0
    assert reports["check <tmp>/missing.g2"][0] == 2
    assert reports["oracle corpus/valid/n2.g2"][0] == 2

    proc = _run_script("report_digest.py", "--diff", str(record), str(record))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{len(reports)} of {len(reports)} reports identical"]

    code, out = reports["metric --catalog std_g2"]
    report = json.loads(out)
    report["results"]["volume_coefficient"] *= 1.001
    reports["metric --catalog std_g2"] = [code, json.dumps(report)]
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(reports))
    proc = _run_script("report_digest.py", "--diff", str(record), str(changed))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1:] == [
        "metric --catalog std_g2: exit 0 -> 0, largest relative difference 0.000999 outside "
        "residuals, largest absolute difference 0 in residuals, 0 non-numeric leaves differ"]

    # a residual that moves by roundoff is reported apart, as an absolute change
    report = json.loads(out)
    report["residuals"]["metric_symmetry"] += 3e-16
    reports["metric --catalog std_g2"] = [code, json.dumps(report)]
    changed.write_text(json.dumps(reports))
    proc = _run_script("report_digest.py", "--diff", str(record), str(changed))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1:] == [
        "metric --catalog std_g2: exit 0 -> 0, largest relative difference 0 outside "
        "residuals, largest absolute difference 3e-16 in residuals, 0 non-numeric leaves differ"]
