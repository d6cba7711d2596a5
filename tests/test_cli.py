import contextlib
import inspect
import io
import json
import math
import pathlib
import re
import struct
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lab.catalog import catalog_names
from g2lab.cli import PRUNE_TOL, emit, main
from g2lab.curvature import einstein_calibrated_residual
from g2lab.exterior import KForm
from g2lab.g2core import VANISH_TOL, G2Structure, classify
from g2lab.inputfmt import parse_document
from g2lab.su3 import SU3Structure, su3_classify

from conftest import basis_changed_document

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


ENVELOPE = ["command", "input", "results", "residuals", "tolerances"]


class TestEnvelope:
    @pytest.mark.parametrize("argv,code", [
        (["check", "--catalog", "n2"], 0),
        (["metric", "--catalog", "n2"], 0),
        (["torsion", "--catalog", "n2"], 0),
        (["classify", "--catalog", "n2"], 0),
        (["ricci", "--catalog", "n2"], 0),
        (["soliton", "--catalog", "n2"], 0),
        (["einstein", "--catalog", "n2"], 0),
        (["su3", "--catalog", "h2"], 0),
        (["flow", "--catalog", "n2", "--t-end", "0.02", "--dt", "0.01", "--oracle"], 0),
        (["oracle", "--catalog", "n2", "--times", "0,1"], 0),
        (["catalog"], 0),
        (["catalog", "n2"], 0),
        (["check", "SYNTAX_ERROR"], 1),
        (["metric", "--catalog", "nope"], 2),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
    def test_keys_and_command(self, capsys, tmp_path, argv, code):
        bad = tmp_path / "bad.g2"
        bad.write_text("algebra { dim 7 d e5 = ")
        got, report = run_cli(capsys, *[str(bad) if a == "SYNTAX_ERROR" else a for a in argv])
        assert got == code
        assert list(report) == ENVELOPE + (["error"] if code else [])
        assert report["command"] == argv[0]

    def test_einstein_builds_one_structure(self, capsys, monkeypatch):
        built = []
        build = G2Structure.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(G2Structure, "__init__", counting)
        code, report = run_cli(capsys, "einstein", "--catalog", "n2")
        assert code == 0
        assert len(built) == 1
        assert report["results"]["metric_source"] == "phi:phi"


class TestFailuresAreReports:
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_input(self, capsys, tmp_path, kind):
        path = {"missing": tmp_path / "missing.g2", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.g2"}[kind]
        if kind == "not-utf8":
            path.write_bytes("algebra { dim 7 } # caf\u00e9".encode("latin-1"))
        code, report = run_cli(capsys, "check", str(path))
        assert code == 2
        assert report["error"].startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("command,name,seed", [
        ("torsion", "n12_modified_basis", 2123),
        ("classify", "n12_modified_basis", 2123),
        ("einstein", "n12_modified_basis", 2123),
        ("su3", "h2", 644),
    ])
    def test_torsion_mismatch(self, capsys, tmp_path, command, name, seed):
        # an ill-conditioned basis change: the two tau1 formulas disagree by
        # ~1e-5, far above g2core.TAU1_TOL = 1e-8
        path = tmp_path / f"{name}_basis_changed.g2"
        path.write_text(basis_changed_document(name, seed))
        code, report = run_cli(capsys, command, str(path))
        assert code == 2
        # the text names the tolerance; the disagreement, roundoff amplified by
        # the basis, is a residual, so the error leaf does not move with it
        assert report["error"] == ("tau1 disagrees between the two torsion equations "
                                   "by more than 1.000e-08")
        assert list(report["residuals"]) == ["tau1_consistency"]
        assert 1e-8 < report["residuals"]["tau1_consistency"] < 1e-3
        # the tolerance it exceeded is a leaf of its own
        assert report["tolerances"] == {"tau1": 1e-8}

    def test_su3_keeps_its_results_when_the_product_fails(self, capsys, tmp_path):
        # h2 in the basis of seed 644: the SU(3) data are computed, and only
        # the torsion of the G2 product fails; the report keeps all but
        # product_class, equal to the library's values for the same pair
        path = tmp_path / "h2_basis_changed.g2"
        path.write_text(basis_changed_document("h2", 644))
        code, report = run_cli(capsys, "su3", str(path))
        assert code == 2
        assert report["error"] == ("tau1 disagrees between the two torsion equations "
                                   "by more than 1.000e-08")
        assert list(report["residuals"]) == ["tau1_consistency"]
        assert report["tolerances"] == {"tau1": 1e-8}
        doc = parse_document(path.read_text())
        S = SU3Structure(doc.algebra, doc.forms["omega"], doc.forms["psi"])
        cls = su3_classify(S, tol=VANISH_TOL)
        assert report["results"] == {
            "lambda_psi": S.lam, "J": S.J.tolist(), "metric": S.metric.g.tolist(),
            "psi_hat": {"e" + "".join(map(str, k)): c for k, c in S.psi_hat.items()},
            "half_flat": cls.half_flat, "coupled": cls.coupled,
            "symplectic_half_flat": cls.symplectic_half_flat,
            "nearly_kahler": cls.nearly_kahler, "coupled_constant": cls.c}
        jsonschema.validate(report, SCHEMA)

    @pytest.mark.parametrize("times,reason", [
        ("abc", "could not convert string to float: 'abc'"),
        ("-1", "t = -1.0 outside the existence interval"),
        ("0,1,-1", "t = -1.0 outside the existence interval"),
        ("inf", "t = inf outside the existence interval"),
        ("0,nan", "t = nan outside the existence interval"),
    ])
    def test_bad_times(self, capsys, times, reason):
        code, report = run_cli(capsys, "oracle", "--catalog", "n2", "--times", times)
        assert code == 2
        assert report["error"].startswith(f"bad --times {times}: {reason}")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("option", ["--t-end", "--dt"])
    def test_non_finite_flow_times(self, capsys, option, value):
        code, report = run_cli(capsys, "flow", "--catalog", "n2", f"{option}={value}")
        assert code == 2
        assert report["error"] == f"{option[2:].replace('-', '_')} must be finite, got {value}"

    def test_negative_flow_time(self, capsys):
        code, report = run_cli(capsys, "flow", "--catalog", "n2", "--t-end", "-1")
        assert code == 2
        assert report["error"] == "t_end and dt must be positive"

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "-1e-12", ""])
    def test_bad_tol_option(self, capsys, monkeypatch, value):
        monkeypatch.setenv("G2_TOL", "1e-2")
        code, report = run_cli(capsys, "check", "--catalog", "n2", f"--tol={value}")
        assert code == 2
        assert report["command"] == "check"
        assert report["error"] == f"bad --tol {value!r}: expected a finite number >= 0"

    @pytest.mark.parametrize("value", ["abc", "nan", "-inf", "-0.5"])
    def test_bad_tol_environment(self, capsys, monkeypatch, value):
        monkeypatch.setenv("G2_TOL", value)
        code, report = run_cli(capsys, "catalog", "n2")
        assert code == 2
        assert report["error"] == f"bad G2_TOL {value!r}: expected a finite number >= 0"

    @pytest.mark.parametrize("env, option, want", [
        (None, None, VANISH_TOL), ("", None, VANISH_TOL), ("1e-3", None, 1e-3),
        ("abc", "0", 0.0), (None, "2.5e-4", 2.5e-4)])
    def test_tolerance_sources(self, capsys, monkeypatch, env, option, want):
        if env is None:
            monkeypatch.delenv("G2_TOL", raising=False)
        else:
            monkeypatch.setenv("G2_TOL", env)
        argv = ["classify", "--catalog", "n2"] + ([f"--tol={option}"] if option else [])
        code, report = run_cli(capsys, *argv)
        assert code == 0
        assert report["tolerances"]["vanishing"] == want

    def test_sample_every_below_one(self, capsys):
        code, report = run_cli(capsys, "flow", "--catalog", "n2", "--t-end", "0.02",
                               "--dt", "0.01", "--sample-every", "0")
        assert code == 2
        assert report["error"] == "sample_every must be at least 1, got 0"


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

    @pytest.mark.parametrize("source, error", [
        (["--catalog", "n4"], "no closed-form solution for 'n4'; oracle mode supports "
                              "n2, n12_modified_basis"),
        ([str(REPO / "corpus" / "valid" / "n2.g2")],
         "oracle mode needs --catalog with one of n2, n12_modified_basis")],
        ids=["catalog", "file"])
    def test_oracle_without_solution_fails_before_the_flow(self, capsys, tmp_path, source,
                                                           error):
        out = tmp_path / "traj.csv"
        code, report = run_cli(capsys, "flow", *source, "--t-end", "0.02", "--dt", "0.01",
                               "--out", str(out), "--oracle")
        assert code == 2
        assert report["error"] == error
        assert not out.exists()

    def test_oracle_command_on_a_file(self, capsys):
        code, report = run_cli(capsys, "oracle", str(REPO / "corpus" / "valid" / "n2.g2"))
        assert code == 2
        assert report["error"] == "oracle mode needs --catalog with one of n2, n12_modified_basis"

    def test_oracle_command_on_a_catalog_entry_without_solution(self, capsys):
        # the same wording as `flow --oracle` on that entry
        code, report = run_cli(capsys, "oracle", "--catalog", "n4")
        assert code == 2
        assert report["error"] == ("no closed-form solution for 'n4'; oracle mode supports "
                                   "n2, n12_modified_basis")

    def test_flow_rejects_non_closed(self, capsys, tmp_path):
        doc = tmp_path / "open.g2"
        doc.write_text("algebra { dim 7 d e7 = e12 }\n"
                       "form phi { e127 + e135 - e146 - e236 - e245 + e347 + e567 }\n")
        code, report = run_cli(capsys, "flow", str(doc), "--t-end", "0.1", "--dt", "0.01")
        assert code == 2
        assert "not closed" in report["error"]


class TestVanishingTolerance:
    def test_help_text_names_the_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        default = re.search(r"overrides G2_TOL; default (\S+)\)", help_text).group(1)
        assert (default, float(default)) == ("1e-8", VANISH_TOL)

    @pytest.mark.parametrize("fn", [classify, su3_classify, einstein_calibrated_residual])
    def test_library_defaults(self, fn):
        assert inspect.signature(fn).parameters["tol"].default == VANISH_TOL


class TestFloatPrecision:
    def test_shortest_round_trip_digits(self, capsys):
        import re

        main(["torsion", "--catalog", "s_ext_h2"])
        raw = capsys.readouterr().out
        report = json.loads(raw)
        value = report["results"]["tau1"]["e7"]
        assert value == pytest.approx(-1.0 / 3.0, abs=1e-14)
        literal = re.search(r'"e7": (-0\.\d+)', raw).group(1)
        assert literal == repr(value)             # the shortest text of the double
        assert len(literal.lstrip("-0.")) >= 16   # all the digits a third needs

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("G2_TOL", "1e-2")
        code, report = run_cli(capsys, "classify", "--catalog", "s_ext_h2")
        assert report["tolerances"]["vanishing"] == 1e-2


# float-free JSON values: tuples are written as lists, empty containers included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=25)


def _leaves(value):
    """The scalar leaves of a nested value, in document order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _leaves(v)]
    if isinstance(value, list):
        return [x for v in value for x in _leaves(v)]
    return [value]


def _emitted(report):
    """The text `emit` prints for `report`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(report)
    return out.getvalue()


def _pairs(children):
    """(report value, plain value) lists and dicts of (report, plain) children."""
    def split(items):
        return [r for r, _ in items], [p for _, p in items]

    def split_dict(items):
        return {k: r for k, (r, _) in items.items()}, {k: p for k, (_, p) in items.items()}

    return (st.lists(children, max_size=4).map(split)
            | st.dictionaries(st.text(max_size=6), children, max_size=4).map(split_dict))


def _form_entries(values):
    # the writer's one cut: a form's entries within PRUNE_TOL of 0
    return {f"e{i}": x for i, x in enumerate(values, 1) if not abs(x) <= PRUNE_TOL}


# (report value, the plain value json.dumps should see in its place): plain
# JSON values as themselves, and the KForms, arrays and numpy scalars that
# reports hold as their entries, nested lists of floats and Python numbers
REPORT_LEAVES = st.one_of(
    JSON_VALUES.map(lambda v: (v, v)),
    st.floats().map(lambda x: (np.float64(x), x)),
    st.floats(width=32).map(lambda x: (np.float32(x), x)),
    st.integers(-2**63, 2**63 - 1).map(lambda i: (np.int64(i), i)),
    st.integers(0, 255).map(lambda i: (np.uint8(i), i)),
    st.booleans().map(lambda b: (np.bool_(b), b)),
    st.lists(st.floats(), min_size=7, max_size=7).map(
        lambda v: (KForm.from_vector(7, 1, v), _form_entries(v))),
    st.lists(st.floats() | st.integers(-9, 9), max_size=5).map(
        lambda v: (np.array(v, dtype=float), [float(x) for x in v])),
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=3).map(
        lambda rows: (np.array(rows, dtype=np.int64).reshape(-1, 2),
                      [[float(a), float(b)] for a, b in rows])),
)


class TestReportWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.recursive(REPORT_LEAVES, _pairs, max_leaves=20))
    def test_layout_is_json_dumps_indent_2(self, pair):
        report, plain = pair
        assert _emitted(report) == json.dumps(plain, indent=2) + "\n"

    def test_numpy_scalars_are_python_numbers(self):
        report = {"int": np.int64(-3), "bool": np.bool_(False), "uint": np.uint8(7),
                  "float32": np.float32(0.1), "float64": np.float64(-0.0)}
        want = {"int": -3, "bool": False, "uint": 7, "float32": float(np.float32(0.1)),
                "float64": -0.0}
        assert _emitted(report) == json.dumps(want, indent=2) + "\n"

    def test_other_values_are_rejected(self):
        with pytest.raises(TypeError, match="object is not a report value"):
            emit({"x": object()})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(), min_size=7, max_size=7))
    def test_floats_round_trip_bit_for_bit(self, values):
        form = KForm.from_vector(7, 1, values)
        report = {"floats": values, "numpy": [np.float64(x) for x in values],
                  "vector": np.array(values), "matrix": np.array([values, values[::-1]]),
                  "tuple": tuple(values), "form": form,
                  "special": [math.nan, math.inf, -math.inf, np.float32(0.1), -0.0, 1.0,
                              np.float64(-0.0), 1e16]}
        want = {"floats": values, "numpy": values, "vector": values,
                "matrix": [values, values[::-1]], "tuple": values, "form": _form_entries(values),
                "special": [math.nan, math.inf, -math.inf, float(np.float32(0.1)), -0.0, 1.0,
                            -0.0, 1e16]}
        text = _emitted(report)
        # each number is written as repr(x), the shortest text that reads
        # back as x, or as NaN / Infinity / -Infinity
        literals = json.loads(text, parse_float=str, parse_int=str, parse_constant=str)
        assert literals.keys() == want.keys()
        assert literals["form"].keys() == want["form"].keys()
        special = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        # so a plain json.loads gives back every double, as a float, with its
        # sign: an integral double such as 1.0 or -0.0 is not written as an integer
        read = json.loads(text)
        assert len(_leaves(read)) == len(_leaves(want)) == 6 * 7 + len(want["form"]) + 8
        for x, literal, back in zip(_leaves(want), _leaves(literals), _leaves(read)):
            assert literal == special.get(repr(x), repr(x))
            assert type(back) is float
            assert (math.isnan(x) and math.isnan(back)
                    or struct.pack("<d", back) == struct.pack("<d", x))


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
