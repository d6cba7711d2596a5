"""The four benchmark workloads: flow, certify, curvature and cli.

A workload is built from a seed.  Building it is the set-up: imports,
catalog, input generation and the reference values the checks compare
against.  The result is one *block* of operations in a seeded order.  The
benchmark runs whole blocks, so every run sees the same mix of operation
kinds whatever its seed.

Each operation has a `call`, which is the timed library work, and a `check`,
which returns None when the output is right and a reason otherwise.  Calls
go through `g2lab.<name>` at call time, so a traced run can wrap them.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import g2lab
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FLOW_DT = 1e-3
FLOW_STEPS = 20
FLOW_SAMPLE_EVERY = 5
FLOW_TOL = 1e-9
ORACLES = {"n2": g2lab.closed_form_n2, "n12_modified_basis": g2lab.closed_form_n12}
CLOSED_FORMS = ("n2", "n4", "n6", "n12_modified_basis")
G2_FORMS = ("std_g2", "n2", "n4", "n6", "n12_modified_basis", "s_ext_h2")
NILPOTENT = ("n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10", "n11", "n12", "h1", "h2")

#: Seeded random metrics per nilpotent algebra in one curvature block.
SPD_COPIES = 20
CHECK_TOL = 1e-8
VALUE_TOL = 1e-9

#: Nilsoliton constants (lambda, derivation diagonal) of the catalog forms.
NILSOLITONS = {
    "n2": (-2.0, (1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 2.0)),
    "n4": (-2.5, (1.0, 1.5, 2.5, 2.0, 2.0, 3.5, 3.0)),
    "n6": (-2.5, (0.5, 2.0, 2.0, 2.5, 2.5, 3.0, 3.0)),
    "n12_modified_basis": (-0.25, (0.125, 0.125, 0.125, 0.25, 0.25, 0.25, 0.375)),
}
EXPECTED_CLASS = {"std_g2": "torsion-free", "s_ext_h2": "locally conformal calibrated"}
CALIBRATED = "closed, calibrated"
H2_RICCI = np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0])


@dataclass
class Op:
    """One operation: `call` is timed, `check(result)` returns None or a reason."""
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    tail_pct: float
    block: list
    inputs: list
    #: Operations a traced run executes; differs from `block` only for cli,
    #: whose subprocesses a tracer cannot see into.
    traced_block: list = None

    def __post_init__(self):
        if self.traced_block is None:
            self.traced_block = self.block


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


def _within(value, expected, tol, what):
    err = float(np.max(np.abs(np.asarray(value, float) - np.asarray(expected, float))))
    return None if err <= tol else f"{what} off by {err:.3e}"


def _first_failure(*reasons):
    return next((r for r in reasons if r), None)


# --- flow ------------------------------------------------------------------


def _flow_call(item):
    algebra, phi0 = item.data["algebra"], item.data["phi"]
    options = g2lab.FlowOptions(sample_every=FLOW_SAMPLE_EVERY)
    return lambda: g2lab.flow_integrate(algebra, phi0, FLOW_STEPS * FLOW_DT, FLOW_DT, options)


def _flow_shape(traj):
    if traj.termination != "reached_t_end":
        return f"terminated early: {traj.termination}"
    if len(traj.states) != FLOW_STEPS // FLOW_SAMPLE_EVERY + 1:
        return f"{len(traj.states)} samples"
    return None


def _oracle_check(solution, t0):
    def check(traj):
        dev = max((s.phi - solution(t0 + s.t)).sup_norm() for s in traj.states)
        return _first_failure(_flow_shape(traj),
                              None if dev <= FLOW_TOL else f"oracle deviation {dev:.3e}")
    return check


def _exact_range(algebra):
    # Orthonormal basis of d(Lambda^2): the flow of a closed form stays in
    # phi0 + d(Lambda^2), since Delta phi = d d* phi when d phi = 0.
    u, s, _ = np.linalg.svd(algebra.diff_matrix(2))
    return u[:, : int((s > 1e-10 * s[0]).sum())]


def _class_check(phi0, basis):
    v0 = phi0.to_vector()

    def check(traj):
        worst = 0.0
        for state in traj.states:
            diff = state.phi.to_vector() - v0
            worst = max(worst, float(np.linalg.norm(diff - basis @ (basis.T @ diff))))
        vols = [s.diagnostics["volume_density"] for s in traj.states]
        return _first_failure(
            _flow_shape(traj),
            None if worst <= FLOW_TOL * max(1.0, np.linalg.norm(v0))
            else f"left the cohomology class by {worst:.3e}",
            None if traj.final.diagnostics["closedness"] <= FLOW_TOL
            else f"closedness drift {traj.final.diagnostics['closedness']:.3e}",
            None if all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
            else "volume decreased")
    return check


def build_flow(rng):
    """One op: a FLOW_STEPS-step RK4 trajectory; two oracle starts, four dense closed perturbations.

    The slower dense inputs are the majority, so the median falls inside
    their group rather than between two groups of different cost.
    """
    items, ops = [], []
    for name, solution in ORACLES.items():
        item = inputs.oracle_start(rng, name, solution)
        items.append(item)
        ops.append(Op(f"flow:{name}@{item.data['t0']:.3f}", _flow_call(item),
                      _oracle_check(solution, item.data["t0"])))
    for name in ("n4", "n6", "n4", "n6"):
        item = inputs.closed_perturbation(rng, name)
        items.append(item)
        ops.append(Op(f"flow:{name}+d(beta)", _flow_call(item),
                      _class_check(item.data["phi"], _exact_range(item.data["algebra"]))))
    return Workload("flow", 0.90, _shuffled(rng, ops), items)


# --- certify ---------------------------------------------------------------


def _certify_call(item):
    algebra, phi = item.data["algebra"], item.data["phi"]

    def call():
        G = g2lab.G2Structure(algebra, phi)
        t = g2lab.torsion_forms(G)
        return (t, g2lab.classify(t), g2lab.lee_form(G), g2lab.scal_from_torsion(G),
                g2lab.scalar_curvature(algebra, G.metric))
    return call


def _certify_check(expected_class):
    def check(result):
        t, cls, theta, scal_t, scal = result
        lee = (theta - 3.0 * t.tau1).norm()
        return _first_failure(
            None if t.residual <= CHECK_TOL else f"torsion residual {t.residual:.3e}",
            None if lee <= CHECK_TOL * max(1.0, 3.0 * t.tau1.norm())
            else f"theta - 3 tau1 = {lee:.3e}",
            None if abs(scal_t - scal) <= CHECK_TOL * max(1.0, abs(scal))
            else f"scal from torsion {scal_t!r} vs {scal!r}",
            None if expected_class in (None, cls.label)
            else f"class {cls.label!r}, expected {expected_class!r}")
    return check


def _su3_call(item):
    algebra, omega, psi = item.data["algebra"], item.data["omega"], item.data["psi"]

    def call():
        S = g2lab.SU3Structure(algebra, omega, psi)
        cls = g2lab.su3_classify(S)
        Gp = g2lab.g2_product(S)
        return S, cls, Gp, g2lab.classify(g2lab.torsion_forms(Gp))
    return call


def _su3_check(coupled_constant=None):
    def check(result):
        S, cls, Gp, product_class = result
        g, g6 = Gp.metric.g, S.metric.g
        reasons = [
            None if S.normalization_residual() <= VALUE_TOL * max(1.0, S.omega.norm() ** 3)
            else "psi ^ psi_hat != 2/3 omega^3",
            _within(S.J @ S.J, -np.eye(6), VALUE_TOL, "J^2"),
            _within(g[:6, :6], g6, VALUE_TOL * max(1.0, np.abs(g6).max()), "product metric"),
            _within(g[6], np.eye(7)[6], VALUE_TOL, "product metric e7 row"),
        ]
        if coupled_constant is not None:
            reasons += [
                None if cls.coupled else "h2 pair is not coupled",
                _within(cls.c, coupled_constant, VALUE_TOL * abs(coupled_constant),
                        "coupled constant"),
                None if product_class.label == "locally conformal calibrated"
                else f"product class {product_class.label!r}",
            ]
        return _first_failure(*reasons)
    return check


def build_certify(rng):
    """One op: torsion, class, Lee form and scalar curvature of one G2 form, or one SU(3) pair.

    Per block: 6 catalog forms, 8 closed perturbations (the median falls
    among them), 2 generic perturbations and 2 SU(3) pairs (the tail).
    """
    items, ops = [], []
    for name in G2_FORMS:
        item = inputs.catalog_form(name, float(rng.uniform(0.8, 1.25)))
        items.append(item)
        ops.append(Op(f"certify:{name}", _certify_call(item),
                      _certify_check(EXPECTED_CLASS.get(name, CALIBRATED))))
    for name in CLOSED_FORMS * 2:
        item = inputs.closed_perturbation(rng, name)
        items.append(item)
        ops.append(Op(f"certify:{name}+d(beta)", _certify_call(item), _certify_check(CALIBRATED)))
    for name in ("std_g2", "s_ext_h2"):
        item = inputs.generic_perturbation(rng, name)
        items.append(item)
        ops.append(Op(f"certify:{name}+nu", _certify_call(item), _certify_check(None)))

    item = inputs.su3_pullback(rng, "h1")
    items.append(item)
    ops.append(Op("certify:h1-su3", _su3_call(item), _su3_check()))
    h2 = g2lab.catalog("h2")
    c1 = g2lab.su3_classify(g2lab.SU3Structure(h2.algebra, h2.forms["omega"], h2.forms["psi"])).c
    item = inputs.su3_scaled("h2", float(rng.uniform(0.8, 1.25)))
    items.append(item)
    ops.append(Op("certify:h2-su3", _su3_call(item), _su3_check(c1 / item.data["scale"])))
    return Workload("certify", 0.99, _shuffled(rng, ops), items)


# --- curvature -------------------------------------------------------------


def _curvature_call(algebra, metric, structure=None):
    def call():
        out = (g2lab.ricci(algebra, metric), g2lab.soliton_solve(algebra, metric),
               g2lab.einstein_residual(algebra, metric))
        return out + ((g2lab.star_ricci(structure),) if structure is not None else ())
    return call


def _phi_metric_check(name, scale, ref_ricci, ref_star=None):
    # Scaling phi by c scales g by c^(2/3): Ric and Ric* (as bilinear forms)
    # are unchanged, and the Ricci operator, lambda and D scale by c^(-2/3).
    factor = scale ** (-2.0 / 3.0)

    def check(result):
        ric, cert, ein = result[:3]
        reasons = [_within(ric, ref_ricci, VALUE_TOL * max(1.0, np.abs(ref_ricci).max()), "Ric")]
        if ref_star is not None:
            reasons.append(_within(result[3], ref_star,
                                   VALUE_TOL * max(1.0, np.abs(ref_star).max()), "Ric*"))
        if name in NILSOLITONS:
            lam, diag = NILSOLITONS[name]
            reasons += [None if cert.residual <= VALUE_TOL else f"soliton residual {cert.residual:.3e}",
                        _within(cert.lam, factor * lam, VALUE_TOL, "soliton lambda"),
                        _within(cert.derivation, factor * np.diag(diag), VALUE_TOL, "derivation")]
        if name == "s_ext_h2":
            reasons.append(None if ein <= VALUE_TOL else f"Einstein residual {ein:.3e}")
        return _first_failure(*reasons)
    return check


def _identity_check(name):
    def check(result):
        ric, _, ein = result
        if name == "h2":
            return _within(ric, H2_RICCI, 1e-10, "h2 Ricci")
        return _first_failure(None if ein <= VALUE_TOL else f"Einstein residual {ein:.3e}",
                              _within(ric, -3.0 * np.eye(7), VALUE_TOL, "Ric = -3 g"))
    return check


def _nilpotent_scal_check(algebra, metric):
    # Independent formula on nilpotent algebras: scal = -1/4 |[.,.]|_g^2.
    gi = metric.inverse
    expected = -0.25 * np.einsum("ijk,abc,ia,jb,kc->", algebra.bracket, algebra.bracket,
                                 gi, gi, metric.g)

    def check(result):
        scal = float(np.trace(gi @ result[0]))
        return None if abs(scal - expected) <= VALUE_TOL * max(1.0, abs(expected)) \
            else f"scal {scal!r} vs -|mu|^2/4 = {expected!r}"
    return check


def build_curvature(rng):
    """One op: Ricci, soliton and Einstein residual of one metric Lie algebra, plus Ric* on n2.

    Per block: the 6 phi-induced catalog metrics, the 2 identity metrics and
    SPD_COPIES seeded random metrics on each nilpotent algebra.  star_ricci
    runs on the n2 op only, so it is one op in ~270 and about 8% of the
    block's time.  It costs ~25 cheap ops, and on a shared host its speed
    alone can drop 2.5x for minutes at a time; as the bulk of the block it
    would make every run's figures follow that instead of the program.
    The other ops all cost about the same, so a p99 tail would fall among
    them and measure the host's jitter; the p99.8 tail leaves about half of
    the star_ricci ops beyond it, so it is the star_ricci op's latency.
    """
    items, ops = [], []
    for name in G2_FORMS:
        reference = g2lab.G2Structure(g2lab.catalog(name).algebra, g2lab.catalog(name).forms["phi"])
        ref_ricci = g2lab.ricci(reference.algebra, reference.metric)
        ref_star = g2lab.star_ricci(reference) if name == "n2" else None
        item = inputs.catalog_form(name, float(rng.uniform(0.8, 1.25)))
        items.append(item)
        G = g2lab.G2Structure(item.data["algebra"], item.data["phi"])
        ops.append(Op(f"curvature:{name}(phi)",
                      _curvature_call(G.algebra, G.metric, G if name == "n2" else None),
                      _phi_metric_check(name, item.data["scale"], ref_ricci, ref_star)))
    for name in ("h2", "s_ext_h2"):
        algebra = g2lab.catalog(name).algebra
        ops.append(Op(f"curvature:{name}(identity)",
                      _curvature_call(algebra, g2lab.Metric.identity(algebra.dim)),
                      _identity_check(name)))
    for name in NILPOTENT * SPD_COPIES:
        item = inputs.random_spd_metric(rng, name)
        items.append(item)
        algebra, metric = item.data["algebra"], item.data["metric"]
        ops.append(Op(f"curvature:{name}(spd)", _curvature_call(algebra, metric),
                      _nilpotent_scal_check(algebra, metric)))
    return Workload("curvature", 0.998, _shuffled(rng, ops), items)


# --- cli -------------------------------------------------------------------


def _report_check(expected_code, validator, value_check):
    def check(result):
        code, out = result
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON ({exc})"
        errors = sorted(validator.iter_errors(report), key=str)
        if errors:
            return f"report fails the schema: {errors[0].message}"
        return value_check(report)
    return check


def _results(key, expected):
    return lambda r: None if r["results"].get(key) == expected \
        else f"results.{key} = {r['results'].get(key)!r}, expected {expected!r}"


def _residual_at_most(key, tol):
    return lambda r: None if r["residuals"][key] <= tol \
        else f"residuals.{key} = {r['residuals'][key]:.3e}"


def _rejected(report):
    return None if "error" in report or report["results"].get("valid") is False \
        else "invalid input was not rejected"


def _soliton_values(name):
    lam, diag = NILSOLITONS[name]
    return lambda r: _first_failure(_within(r["results"]["lambda"], lam, VALUE_TOL, "lambda"),
                                    _within(r["results"]["derivation_diagonal"], diag,
                                            VALUE_TOL, "derivation diagonal"))


def cli_commands(rng):
    """(argv, expected exit code, value check) for every subcommand.

    The mix is fixed, so the median falls among the `check` commands on
    every seed; the seed sets the order (in build_cli) and the oracle times.
    """
    valid = sorted((ROOT / "corpus" / "valid").glob("*.g2"))
    broken = sorted((ROOT / "corpus" / "broken").glob("*.g2"))
    if not valid or not broken:
        raise inputs.InputError("corpus/valid or corpus/broken is empty")

    def path(name):
        return str(ROOT / "corpus" / "valid" / f"{name}.g2")

    times = ",".join(f"{t:.6g}" for t in np.sort(rng.uniform(0.0, 10.0, 3)))
    return [
        (["catalog"], 0, _results("names", list(g2lab.catalog_names()))),
        (["catalog", "n6"], 0, _residual_at_most("jacobi", 1e-12)),
        *[(["check", str(p)], 0, _results("valid", True)) for p in valid],
        *[(["check", str(p)], 2, _rejected) for p in broken],
        (["metric", "--catalog", "n4"], 0, _results("positive_definite", True)),
        (["torsion", path("s_ext_h2")], 0,
         lambda r: _first_failure(_residual_at_most("lee_vs_3tau1", CHECK_TOL)(r),
                                  _results("class", EXPECTED_CLASS["s_ext_h2"])(r))),
        (["classify", "--catalog", "n12_modified_basis"], 0, _results("class", CALIBRATED)),
        (["ricci", path("h2")], 0,
         lambda r: _within(r["results"]["ricci_operator"], H2_RICCI, 1e-10, "h2 Ricci")),
        (["soliton", "--catalog", "n2"], 0, _soliton_values("n2")),
        (["einstein", path("s_ext_h2")], 0, _residual_at_most("einstein", VALUE_TOL)),
        (["su3", path("h2")], 0, _results("coupled", True)),
        (["flow", "--catalog", "n2", "--t-end", repr(FLOW_STEPS * FLOW_DT),
          "--dt", repr(FLOW_DT), "--sample-every", str(FLOW_SAMPLE_EVERY), "--oracle"], 0,
         _residual_at_most("oracle", FLOW_TOL)),
        (["oracle", "--catalog", "n12_modified_basis", "--times", times], 0,
         _residual_at_most("ode_max", VALUE_TOL)),
        (["metric", str(ROOT / "corpus" / "broken" / "indefinite_phi.g2")], 2, _rejected),
    ]


def cli_env():
    """Environment of a `python -m g2lab` child: this tree's sources, one BLAS thread."""
    env = dict(os.environ)
    env.pop("G2_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _subprocess_call(argv, env):
    def call():
        proc = subprocess.run([sys.executable, "-m", "g2lab", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout
    return call


def _inprocess_call(argv):
    cli = importlib.import_module("g2lab.cli")
    catalog_module = importlib.import_module("g2lab.catalog")

    def call():
        # A fresh process starts with an empty catalog; so does this call.
        cache = getattr(catalog_module, "_cache", None)
        if isinstance(cache, dict):
            cache.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()
    return call


def build_cli(rng):
    """One op: one `python -m g2lab ...` subprocess, in-process `cli.main` when traced."""
    import jsonschema

    schema = json.loads((SRC / "g2lab" / "report_schema.json").read_text())
    validator_cls = jsonschema.validators.validator_for(schema)
    validator_cls.check_schema(schema)
    validator = validator_cls(schema)
    env = cli_env()
    commands = cli_commands(rng)
    block, traced = [], []
    for i in rng.permutation(len(commands)):
        argv, code, value_check = commands[i]
        label = "cli:" + " ".join(Path(a).name if os.sep in a else a for a in argv)
        check = _report_check(code, validator, value_check)
        block.append(Op(label, _subprocess_call(argv, env), check))
        traced.append(Op(label, _inprocess_call(argv), check))
    return Workload("cli", 0.80, block, [], traced_block=traced)


BY_NAME = {"flow": build_flow, "certify": build_certify,
            "curvature": build_curvature, "cli": build_cli}
