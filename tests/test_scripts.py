import csv
import json
import math
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

    n = len(reports)
    proc = _run_script("report_digest.py", "--diff", str(record), str(record))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{n} of {n} reports identical, {n} equal in value"]

    code, out = reports["metric --catalog std_g2"]
    changed = tmp_path / "changed.json"

    def diff_with(text):
        changed.write_text(json.dumps({**reports, "metric --catalog std_g2": [code, text]}))
        return _run_script("report_digest.py", "--diff", str(record), str(changed))

    # re-indented, with its integral doubles written as JSON integers: the
    # text differs, the values do not
    text, count = re.subn(r"\b(\d+)\.0\b", r"\1", json.dumps(json.loads(out), indent=4))
    assert count > 0
    proc = diff_with(text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{n - 1} of {n} reports identical, {n} equal in value"]

    report = json.loads(out)
    report["results"]["volume_coefficient"] *= 1.001
    proc = diff_with(json.dumps(report))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"{n - 1} of {n} reports identical, {n - 1} equal in value",
        "metric --catalog std_g2: exit 0 -> 0, largest relative difference 0.000999 outside "
        "residuals, largest absolute difference 0 in residuals, 0 non-numeric leaves differ"]

    # a residual that moves by roundoff is reported apart, as an absolute change
    report = json.loads(out)
    report["residuals"]["metric_symmetry"] += 3e-16
    proc = diff_with(json.dumps(report))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1:] == [
        "metric --catalog std_g2: exit 0 -> 0, largest relative difference 0 outside "
        "residuals, largest absolute difference 3e-16 in residuals, 0 non-numeric leaves differ"]


def test_report_digest_values(tmp_path):
    # NaN equals NaN and an integer the double it writes; a number does not
    # equal a bool, and a report in one record only is a difference
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": [0, '{"r": NaN, "s": 1.0}'], "y": [0, '{"v": 1}']}))
    b.write_text(json.dumps({"x": [0, '{\n "r": NaN,\n "s": 1\n}'], "y": [0, '{"v": true}']}))
    proc = _run_script("report_digest.py", "--diff", str(a), str(b))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "0 of 2 reports identical, 1 equal in value",
        "y: exit 0 -> 0, largest relative difference 0 outside residuals, largest absolute "
        "difference 0 in residuals, 1 non-numeric leaves differ"]
    b.write_text(json.dumps({"x": [0, '{"r": NaN, "s": 1.0}']}))
    proc = _run_script("report_digest.py", "--diff", str(a), str(b))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["1 of 2 reports identical, 1 equal in value",
                                        f"y: only in {a}"]


def test_percall_times_every_layer_of_a_tree():
    # one round: every layer of ROADMAP's per-call table, timed in the tree given
    proc = _run_script("percall.py", str(ROOT), "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["tree"] == str(ROOT) and result["rounds"] == 1
    layers = result["layers"]
    assert len(layers) == 23
    assert {"_phi_metric", "_closed_phi_laplacian", "G2Structure", "Metric",
            "flow_integrate, 20 steps of 1e-3", "closed_form_n2(t)",
            "closed_form_n2_velocity(t)"} <= set(layers)
    for name, row in layers.items():
        assert row["calls"] >= 1, name
        assert 0 < row["fastest_us"] == row["median_us"] < math.inf, name
