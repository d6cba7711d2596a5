"""Command-line surface: JSON reports over the library.

Forms are read by name: `phi`, and `omega` and `psi` for `su3`.  Only the
subcommands whose tests a tolerance decides take `--tol` (default 1e-8) and
echo it: check (Jacobi), torsion and classify, einstein, su3, and flow
(closedness, at least 1e-10).  Exit codes: 0 success, 1 input parse error, 2
validation failure (bad Jacobi, non-positive forms, unknown catalog name,
unreadable input file, bad --times or --tol, a non-finite or non-positive
--t-end or --dt, --sample-every < 1, failed preconditions, tau1 disagreeing
between the two torsion equations).  Every report, failures included, has the
keys command, input, results, residuals and tolerances in that order, and a
final error key on failure; a tau1 disagreement is the failure report's
residuals.tau1_consistency, and `su3` keeps its SU(3) results when only its
G2 product's torsion fails.  Reports go to stdout as `json.dumps(report,
indent=2)`, whose one normaliser `_plain` turns KForms, ndarrays and numpy
scalars into plain values; floats are written as `repr`, the shortest text
that reads back as the same double (1.0 as 1.0, -0.0 as -0.0).  A form lists
its entries with |c| > PRUNE_TOL = 1e-13, and NaN: the one place a
coefficient is cut.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .catalog import catalog, catalog_names
from .curvature import (einstein_calibrated_residual, einstein_residual, ricci,
                        scalar_curvature, soliton_solve, star_ricci)
from .exterior import KForm, Metric, form_inner
from .flow import EXACT_FLOWS, FlowOptions, flow_integrate, oracle_residual
from .g2core import (VANISH_TOL, G2Structure, PositivityError, TorsionSolveError, classify,
                     lee_form, phi_laplacian, torsion_forms)
from .inputfmt import ParseError, format_document, parse_document
from .liealg import jacobi_residual
from .su3 import SU3Structure, g2_product, su3_classify

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
PRUNE_TOL = 1e-13


class ValidationFailure(Exception):
    """A failure reported as a JSON error with exit code 2."""


def _plain(value):
    """A report value that `json` cannot write, as one it can: a KForm as its
    entries not within PRUNE_TOL of 0, an ndarray as nested lists of floats,
    a numpy scalar as the Python number it holds."""
    if isinstance(value, KForm):
        return {"e" + "".join(map(str, key)): c for key, c in value.items()
                if not abs(c) <= PRUNE_TOL}
    if isinstance(value, np.ndarray):
        return value.astype(float).tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not a report value")


def emit(report):
    print(json.dumps(report, indent=2, default=_plain))


def _body(doc, source, results=None, residuals=None, **tolerances):
    """A report's keys after "command"; with no document, input is the source alone."""
    block = {"source": source}
    if doc is not None:
        block.update(dim=doc.algebra.dim, forms=sorted(doc.forms))
    return {"input": block, "results": results or {}, "residuals": residuals or {},
            "tolerances": tolerances}


def _failure(args, exc, results=None):
    """A failure report's keys after "command": the input's source alone, the
    results computed before `exc`, and its error."""
    # a tau1 disagreement is roundoff amplified by the input: a residual, not
    # error text, next to the tolerance it exceeded
    tau1 = ({"residuals": {"tau1_consistency": exc.consistency}, "tau1": exc.tol}
            if isinstance(exc, TorsionSolveError) else {})
    return {**_body(None, getattr(args, "input", "") or "", results, **tau1), "error": str(exc)}


def _load(name, path):
    """(document, source) of catalog entry `name`, or of the file at `path`."""
    if name:
        try:
            entry = catalog(name)
        except KeyError as exc:
            raise ValidationFailure(str(exc)) from exc
        return entry.document, f"catalog:{name}"
    if not path:
        raise ValidationFailure("no input: give a document path or --catalog NAME")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationFailure(f"cannot read {path}: {exc}") from exc
    return parse_document(text), path


def _get_form(doc, name, degree):
    if name not in doc.forms:
        raise ValidationFailure(f"document has no form named {name!r}")
    form = doc.forms[name]
    if form.degree != degree:
        raise ValidationFailure(f"form {name!r} has degree {form.degree}, expected {degree}")
    return form


def _structure(doc):
    phi = _get_form(doc, "phi", 3)
    if doc.algebra.dim != 7:
        raise ValidationFailure("G2 commands need a 7-dimensional algebra")
    try:
        return G2Structure(doc.algebra, phi)
    except PositivityError as exc:
        raise ValidationFailure(str(exc)) from exc


def _chosen_metric(doc, args):
    """(metric, metric source, G2Structure or None) a curvature command runs
    with: induced by the 3-form phi when present (and --metric is not
    'identity'), the identity otherwise."""
    if args.metric != "identity" and doc.algebra.dim == 7 and "phi" in doc.forms:
        G = _structure(doc)
        return G.metric, "phi:phi", G
    return Metric.identity(doc.algebra.dim), "identity", None


def _oracle(name):
    """(solution, velocity) of the closed-form flow on catalog entry `name`;
    a file input (no name) has none."""
    names = ", ".join(EXACT_FLOWS)
    if name is None:
        raise ValidationFailure("oracle mode needs --catalog with one of " + names)
    if name not in EXACT_FLOWS:
        raise ValidationFailure(f"no closed-form solution for {name!r}; oracle mode supports "
                                + names)
    return EXACT_FLOWS[name]


# --- commands ----------------------------------------------------------


def cmd_check(args):
    doc, source = _load(args.catalog, args.input)
    jac = jacobi_residual(doc.algebra)
    forms_report = {}
    ok = jac <= args.tol
    for name, form in doc.forms.items():
        info = {"degree": form.degree, "norm": form.norm()}
        if form.degree == 3 and doc.algebra.dim == 7:
            try:
                G2Structure(doc.algebra, form)
                info["positive_g2"] = True
            except PositivityError as exc:
                info["positive_g2"] = False
                info["reason"] = str(exc)
                ok = False
        forms_report[name] = info
    results = {"valid": ok, "jacobi_residual": jac, "forms": forms_report,
               "unimodular": doc.algebra.is_unimodular(),
               "lower_central_series": doc.algebra.lower_central_series_dims()}
    code = EXIT_OK if ok else EXIT_INVALID
    return _body(doc, source, results, {"jacobi": jac}, jacobi=args.tol), code


def cmd_metric(args):
    doc, source = _load(args.catalog, args.input)
    G = _structure(doc)
    results = {
        "metric": G.metric.g,
        "volume_coefficient": G.metric.sqrt_det,
        "gram_det": G.gram_det,
        "orientation": G.orientation,
        "positive_definite": G.metric.positive_definite,
    }
    residuals = {"metric_symmetry": float(np.abs(G.metric.g - G.metric.g.T).max())}
    return _body(doc, source, results, residuals), EXIT_OK


def cmd_torsion(args):
    """`torsion`, and `classify`, which keeps the class entries of its results."""
    doc, source = _load(args.catalog, args.input)
    G = _structure(doc)
    t = torsion_forms(G)
    cls = classify(t, tol=args.tol)
    theta = lee_form(G)

    def norm(a):
        return math.sqrt(max(form_inner(G.metric, a, a), 0.0))

    results = {
        "tau0": t.tau0,
        "tau1": t.tau1,
        "tau2": t.tau2,
        "tau3": t.tau3,
        "norms": {"tau0": abs(t.tau0), "tau1": norm(t.tau1),
                  "tau2": norm(t.tau2), "tau3": norm(t.tau3)},
        "lee_form": theta,
        "class": cls.label,
        "classes": list(cls.labels),
        "vanishing": {"tau0": cls.tau0_zero, "tau1": cls.tau1_zero,
                      "tau2": cls.tau2_zero, "tau3": cls.tau3_zero},
    }
    # lee_vs_3tau1 is 0 by construction (theta is read as 3 tau1); the
    # independent tau1 check is tau1_consistency, tau1 from d phi against d star(phi)
    residuals = {
        "reconstruction": t.residual,
        "tau1_consistency": t.tau1_consistency,
        "tau2_membership": t.tau2.wedge(G.star_phi).norm(),
        "tau3_membership": max(t.tau3.wedge(G.phi).norm(),
                               t.tau3.wedge(G.star_phi).norm()),
        "lee_vs_3tau1": (theta - 3.0 * t.tau1).norm(),
    }
    if args.command == "classify":
        results = {k: results[k] for k in ("class", "classes", "vanishing", "norms")}
    return _body(doc, source, results, residuals, vanishing=args.tol), EXIT_OK


def cmd_ricci(args):
    doc, source = _load(args.catalog, args.input)
    metric, metric_source, _ = _chosen_metric(doc, args)
    ric = ricci(doc.algebra, metric)
    results = {
        "metric_source": metric_source,
        "ricci": ric,
        "ricci_operator": metric.inverse @ ric,
        "scalar_curvature": scalar_curvature(doc.algebra, metric),
    }
    residuals = {"ricci_symmetry": float(np.abs(ric - ric.T).max())}
    return _body(doc, source, results, residuals), EXIT_OK


def cmd_soliton(args):
    doc, source = _load(args.catalog, args.input)
    metric, metric_source, _ = _chosen_metric(doc, args)
    cert = soliton_solve(doc.algebra, metric)
    results = {
        "metric_source": metric_source,
        "lambda": cert.lam,
        "derivation": cert.derivation,
        "derivation_diagonal": cert.derivation_diagonal,
        "classification": cert.classification,
    }
    return _body(doc, source, results, {"soliton": cert.residual}), EXIT_OK


def cmd_einstein(args):
    doc, source = _load(args.catalog, args.input)
    metric, metric_source, G = _chosen_metric(doc, args)
    scal = scalar_curvature(doc.algebra, metric)
    residuals = {"einstein": einstein_residual(doc.algebra, metric)}
    results = {
        "metric_source": metric_source,
        "scalar_curvature": scal,
        "einstein": residuals["einstein"] <= args.tol,
        "einstein_constant": scal / doc.algebra.dim,
    }
    if doc.algebra.dim == 7 and "phi" in doc.forms:
        G = G or _structure(doc)
        try:
            residuals["einstein_calibrated"] = einstein_calibrated_residual(G, args.tol)
        except ValueError:  # not calibrated: the condition does not apply
            pass
        ric_star = star_ricci(G)
        results["star_scal"] = float(np.trace(G.metric.inverse @ ric_star))
        results["star_ricci"] = ric_star
    return _body(doc, source, results, residuals, vanishing=args.tol), EXIT_OK


def cmd_su3(args):
    doc, source = _load(args.catalog, args.input)
    if doc.algebra.dim != 6:
        raise ValidationFailure("su3 needs a 6-dimensional algebra")
    try:
        S = SU3Structure(doc.algebra, _get_form(doc, "omega", 2), _get_form(doc, "psi", 3))
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    cls = su3_classify(S, tol=args.tol)
    results = {
        "lambda_psi": S.lam,
        "J": S.J,
        "metric": S.metric.g,
        "psi_hat": S.psi_hat,
        "half_flat": cls.half_flat,
        "coupled": cls.coupled,
        "symplectic_half_flat": cls.symplectic_half_flat,
        "nearly_kahler": cls.nearly_kahler,
        "coupled_constant": cls.c,
    }
    try:
        results["product_class"] = classify(torsion_forms(g2_product(S)), tol=args.tol).label
    except TorsionSolveError as exc:  # the SU(3) results stand; only the product failed
        return _failure(args, exc, results), EXIT_INVALID
    residuals = {
        "j_squared": float(np.linalg.norm(S.J @ S.J + np.eye(6))),
        "normalization": S.normalization_residual(),
        **{f"classify_{k}": v for k, v in cls.residuals.items()},
    }
    return _body(doc, source, results, residuals, vanishing=args.tol), EXIT_OK


def cmd_flow(args):
    doc, source = _load(args.catalog, args.input)
    phi0 = _get_form(doc, "phi", 3)
    solution = _oracle(args.catalog)[0] if args.oracle else None
    options = FlowOptions(sample_every=args.sample_every, closedness_tol=max(args.tol, 1e-10))
    try:
        trajectory = flow_integrate(doc.algebra, phi0, args.t_end, args.dt, options)
    except (ValueError, PositivityError) as exc:
        raise ValidationFailure(str(exc)) from exc
    if args.out:
        trajectory.to_csv(args.out)
    final = trajectory.final
    results = {
        "t_end": args.t_end,
        "dt": args.dt,
        "termination": trajectory.termination,
        "samples": len(trajectory.states),
        "final_t": final.t,
        "final_phi": final.phi,
        "final_diagnostics": final.diagnostics,
    }
    residuals = {"final_closedness": final.diagnostics["closedness"]}
    if args.oracle:
        deviation = max((state.phi - solution(state.t)).sup_norm()
                        for state in trajectory.states)
        results["oracle_max_deviation"] = deviation
        residuals["oracle"] = deviation
    code = EXIT_OK if trajectory.termination == "reached_t_end" else EXIT_INVALID
    return _body(doc, source, results, residuals, vanishing=args.tol,
                 closedness=options.closedness_tol), code


def cmd_oracle(args):
    doc, source = _load(args.catalog, args.input)
    solution, velocity = _oracle(args.catalog)
    try:
        times = [float(x) for x in args.times.split(",")]
        residuals = oracle_residual(doc.algebra, solution, velocity, times)
    except ValueError as exc:
        raise ValidationFailure(f"bad --times {args.times}: {exc}") from exc
    lap0 = KForm.from_vector(7, 3, phi_laplacian(doc.algebra, solution(times[0]).to_vector()))
    results = {
        "times": times,
        "ode_residuals": {repr(t): r for t, r in residuals.items()},
        "laplacian_at_first_time": lap0,
    }
    return _body(doc, source, results, {"ode_max": max(residuals.values())}, ode=1e-9), EXIT_OK


def cmd_catalog(args):
    if not args.name:
        return _body(None, "builtin", {"names": list(catalog_names())}), EXIT_OK
    doc, source = _load(args.name, None)
    jac = jacobi_residual(doc.algebra)
    results = {
        "name": args.name,
        "description": catalog(args.name).description,
        "document": format_document(doc),
        "jacobi_residual": jac,
    }
    return _body(doc, source, results, {"jacobi": jac}), EXIT_OK


def _add_command(subs, name, run):
    """Subparser `name` that runs `run` on a document or catalog entry, with
    --tol when a tolerance decides one of its tests."""
    sub = subs.add_parser(name)
    sub.set_defaults(run=run)
    sub.add_argument("input", nargs="?", help="input document path")
    sub.add_argument("--catalog", help="use a built-in entry instead of a file")
    if name in ("check", "torsion", "classify", "einstein", "su3", "flow"):
        sub.add_argument("--tol", default=VANISH_TOL,
                         help="tolerance of the command's tests (default 1e-8)")
    return sub


def build_parser():
    parser = argparse.ArgumentParser(
        prog="g2",
        description="Compute, classify and flow G2-structures on Lie algebras "
                    "given by structure constants.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, run in (("check", cmd_check), ("metric", cmd_metric),
                      ("torsion", cmd_torsion), ("classify", cmd_torsion)):
        _add_command(subs, name, run)
    for name, run in (("ricci", cmd_ricci), ("soliton", cmd_soliton),
                      ("einstein", cmd_einstein)):
        sub = _add_command(subs, name, run)
        sub.add_argument("--metric", choices=("phi", "identity"), default="phi",
                         help="metric choice: induced by the 3-form phi when present "
                              "(default) or the identity inner product")
    _add_command(subs, "su3", cmd_su3)

    sub = _add_command(subs, "flow", cmd_flow)
    sub.add_argument("--t-end", type=float, default=1.0)
    sub.add_argument("--dt", type=float, default=1e-3)
    sub.add_argument("--sample-every", type=int, default=100)
    sub.add_argument("--out", help="write the sampled trajectory as CSV")
    sub.add_argument("--oracle", action="store_true",
                     help="compare against the closed-form solution (catalog inputs only)")

    sub = _add_command(subs, "oracle", cmd_oracle)
    sub.add_argument("--times", default="0,1,10,100",
                     help="comma-separated times at which to check the flow equation")

    sub = subs.add_parser("catalog")
    sub.add_argument("name", nargs="?", help="entry to print (omit to list)")
    sub.set_defaults(run=cmd_catalog)
    return parser


def _tolerance(text):
    """--tol (VANISH_TOL when not given) as a finite number >= 0."""
    try:
        tol = float(text)
        if 0 <= tol < np.inf:
            return tol
    except ValueError:
        pass
    raise ValidationFailure(f"bad --tol {text!r}: expected a finite number >= 0")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args:
            args.tol = _tolerance(args.tol)
        body, code = args.run(args)
    except (ParseError, ValidationFailure, TorsionSolveError) as exc:
        body = _failure(args, exc)
        code = EXIT_PARSE if isinstance(exc, ParseError) else EXIT_INVALID
    emit({"command": args.command, **body})
    return code


if __name__ == "__main__":
    sys.exit(main())
