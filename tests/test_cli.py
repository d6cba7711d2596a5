import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from g2lab.catalog import catalog_names
from g2lab.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "src" / "g2lab" / "report_schema.json").read_text())

BROKEN = sorted((REPO / "corpus" / "broken").glob("*.g2"))
VALID = sorted((REPO / "corpus" / "valid").glob("*.g2"))


# The launcher pip installs for a `[project.scripts]` entry point.
LAUNCHER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def _console_script(name):
    """`module:attr` of console script `name` as pyproject.toml declares it."""
    try:
        import tomllib
    except ModuleNotFoundError:                 # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


class TestCheck:
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_entries_pass(self, capsys, name):
        code, report = run_cli(capsys, "check", "--catalog", name)
        assert code == 0
        assert report["results"]["valid"] is True

    @pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
    def test_valid_corpus_passes(self, capsys, path):
        code, report = run_cli(capsys, "check", str(path))
        assert code == 0

    @pytest.mark.parametrize("path", BROKEN, ids=lambda p: p.stem)
    def test_broken_corpus_rejected(self, capsys, path):
        code, report = run_cli(capsys, "check", str(path))
        assert code == 2

    def test_syntax_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.g2"
        bad.write_text("algebra { dim 7 d e5 = ")
        code, report = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert "error" in report

    def test_unknown_catalog_name(self, capsys):
        code, report = run_cli(capsys, "check", "--catalog", "nope")
        assert code == 2
        assert "unknown catalog entry" in report["error"]


class TestReports:
    def test_metric_identity(self, capsys):
        code, report = run_cli(capsys, "metric", "--catalog", "std_g2")
        assert code == 0
        metric = report["results"]["metric"]
        assert metric[0][0] == pytest.approx(1.0, abs=1e-12)
        assert metric[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_soliton_n2(self, capsys):
        code, report = run_cli(capsys, "soliton", "--catalog", "n2")
        assert code == 0
        res = report["results"]
        assert abs(res["lambda"] - (-2.0)) < 1e-9
        assert res["derivation_diagonal"] == pytest.approx(
            [1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 2.0], abs=1e-9)
        assert report["residuals"]["soliton"] < 1e-9
        assert res["classification"] == "expanding"

    def test_torsion_s_ext(self, capsys):
        code, report = run_cli(capsys, "torsion", "--catalog", "s_ext_h2")
        assert code == 0
        res = report["results"]
        assert res["class"] == "locally conformal calibrated"
        assert res["tau1"] == pytest.approx({"e7": -1.0 / 3.0})
        assert res["tau2"]["e56"] == pytest.approx(-10.0 / 3.0, abs=1e-9)

    def test_classify_n2(self, capsys):
        code, report = run_cli(capsys, "classify", "--catalog", "n2")
        assert report["results"]["class"] == "closed, calibrated"

    def test_ricci_h2_identity_metric(self, capsys):
        code, report = run_cli(capsys, "ricci", "--catalog", "h2")
        assert code == 0
        assert report["results"]["metric_source"] == "identity"
        diag = [report["results"]["ricci"][i][i] for i in range(6)]
        assert diag == pytest.approx([-1, -1, -1, -1, 1, 1], abs=1e-10)

    def test_einstein_s_ext_identity(self, capsys):
        code, report = run_cli(capsys, "einstein", "--catalog", "s_ext_h2",
                               "--metric", "identity")
        assert code == 0
        assert report["results"]["einstein"] is True
        assert report["results"]["scalar_curvature"] == pytest.approx(-21.0)

    def test_einstein_n2_computes_torsion_once(self, capsys, monkeypatch):
        import g2lab.cli as cli
        import g2lab.curvature as curvature
        from g2lab.g2core import torsion_forms
        calls = []

        def counting(structure, *args, **kwargs):
            calls.append(structure)
            return torsion_forms(structure, *args, **kwargs)

        monkeypatch.setattr(cli, "torsion_forms", counting)
        monkeypatch.setattr(curvature, "torsion_forms", counting)
        code, report = run_cli(capsys, "einstein", "--catalog", "n2")
        assert code == 0
        assert len(calls) == 1
        assert report["residuals"]["einstein_calibrated"] == \
            curvature.einstein_calibrated_residual(calls[0])

    def test_su3_h2(self, capsys):
        code, report = run_cli(capsys, "su3", "--catalog", "h2")
        assert code == 0
        res = report["results"]
        assert res["coupled"] is True
        assert res["coupled_constant"] == pytest.approx(-1.0)
        assert res["product_class"] == "locally conformal calibrated"

    def test_su3_wrong_dimension(self, capsys):
        code, report = run_cli(capsys, "su3", "--catalog", "n2")
        assert code == 2

    def test_catalog_listing_and_entry(self, capsys):
        code, report = run_cli(capsys, "catalog")
        assert code == 0
        assert set(report["results"]["names"]) == set(catalog_names())
        code, report = run_cli(capsys, "catalog", "n2")
        assert code == 0
        assert "d e5 = e12" in report["results"]["document"]

    def test_oracle_command(self, capsys):
        code, report = run_cli(capsys, "oracle", "--catalog", "n2",
                               "--times", "0,1,10")
        assert code == 0
        assert report["residuals"]["ode_max"] < 1e-9


class TestFlowCommand:
    def test_flow_with_oracle_and_csv(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, report = run_cli(capsys, "flow", "--catalog", "n2",
                               "--t-end", "0.2", "--dt", "0.01",
                               "--sample-every", "5", "--out", str(out),
                               "--oracle")
        assert code == 0
        assert report["results"]["termination"] == "reached_t_end"
        assert report["results"]["oracle_max_deviation"] < 1e-8
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,phi_123,")

    def test_flow_rejects_non_closed(self, capsys, tmp_path):
        doc = tmp_path / "open.g2"
        doc.write_text("algebra { dim 7 d e7 = e12 }\n"
                       "form phi { e127 + e135 - e146 - e236 - e245 + e347 + e567 }\n")
        code, report = run_cli(capsys, "flow", str(doc), "--t-end", "0.1", "--dt", "0.01")
        assert code == 2
        assert "not closed" in report["error"]


class TestFloatPrecision:
    def test_seventeen_significant_digits(self, capsys):
        import re

        main(["torsion", "--catalog", "s_ext_h2"])
        raw = capsys.readouterr().out
        report = json.loads(raw)
        value = report["results"]["tau1"]["e7"]
        assert value == pytest.approx(-1.0 / 3.0, abs=1e-14)
        literal = re.search(r'"e7": (-0\.\d+)', raw).group(1)
        assert len(literal.lstrip("-0.")) >= 16   # 17 significant digits emitted
        assert float(literal) == value            # lossless decimal round trip

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("G2_TOL", "1e-2")
        code, report = run_cli(capsys, "classify", "--catalog", "s_ext_h2")
        assert report["tolerances"]["vanishing"] == 1e-2


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "g2lab", "catalog"],
                              capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0
        assert "n12_modified_basis" in proc.stdout

    def test_console_script(self, tmp_path):
        # Run the `g2` command this checkout declares, through the launcher
        # pip writes for a console script, rather than whatever `g2` is on
        # PATH (which may be another install, or missing).
        module, attr = _console_script("g2").split(":")
        launcher = tmp_path / "g2"
        launcher.write_text(LAUNCHER.format(python=sys.executable,
                                            module=module, attr=attr))
        launcher.chmod(0o755)
        proc = subprocess.run([str(launcher), "check", "--catalog", "n2"],
                              capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        jsonschema.validate(report, SCHEMA)
        assert report["results"]["valid"] is True
