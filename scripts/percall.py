#!/usr/bin/env python3
"""Time each library layer per call, for any source tree.

    python scripts/percall.py TREE [--rounds N]

Imports g2lab from TREE/src alone, so that two trees (a parent and a change)
are timed by the same code.  The process pins itself to one CPU and BLAS to
one thread.  Every layer runs on the same inputs: n6's catalog text and
algebra, n6's form plus 0.05 d(beta) with beta seeded, the structure and
metric of that form, h2's SU(3) pair, and t = 0.5 for the exact n2 flow.  A
round times a fixed number of calls of one layer, about 50 ms of them, with
the garbage collector off, as `timeit` does.  Prints, as JSON, the fastest and the median per-call time in
microseconds over N rounds (7 by default) of each layer: the rows of
ROADMAP's per-call table.
"""
import argparse
import gc
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: seconds of calls in one round
ROUND_S = 0.05


def _import_tree(tree):
    """The g2lab package of TREE/src; raises SystemExit when it is absent."""
    src = (Path(tree) / "src").resolve()
    if not (src / "g2lab" / "__init__.py").is_file():
        raise SystemExit(f"no src/g2lab in {tree}")
    sys.path.insert(0, str(src))
    g2lab = importlib.import_module("g2lab")
    if Path(g2lab.__file__).resolve().parent != src / "g2lab":
        raise SystemExit(f"g2lab was imported from {g2lab.__file__}, not from {src}")
    return g2lab


def layers(g2lab):
    """[(name, call)] of the timed layers, on fixed inputs."""
    import numpy as np

    from g2lab import g2core

    n6, h2 = g2lab.catalog("n6"), g2lab.catalog("h2")
    # the package's `catalog` name is the function; the module holds the texts
    algebra, text = n6.algebra, importlib.import_module("g2lab.catalog")._SOURCES["n6"][1]
    beta = np.random.default_rng(6).standard_normal(21)
    v = n6.forms["phi"].to_vector() + 0.05 * (algebra.diff_matrix(2) @ beta)
    phi = g2lab.KForm.from_vector(7, 3, v)
    G = g2lab.G2Structure(algebra, phi)
    g2lab.torsion_forms(G)  # kept on G for the layers that read it
    metric = G.metric
    omega, psi = h2.forms["omega"], h2.forms["psi"]
    S = g2lab.SU3Structure(h2.algebra, omega, psi)
    options = g2lab.FlowOptions(sample_every=5)
    return [
        ("parse_document", lambda: g2lab.parse_document(text)),
        ("LieAlgebra", lambda: g2lab.LieAlgebra(algebra.dual_differential)),
        ("_phi_metric", lambda: g2core._phi_metric(v)),
        ("G2Structure", lambda: g2lab.G2Structure(algebra, phi)),
        ("Metric", lambda: g2lab.Metric(metric.g)),
        ("_closed_phi_laplacian", lambda: g2core._closed_phi_laplacian(algebra, v)),
        ("phi_laplacian", lambda: g2core.phi_laplacian(algebra, v)),
        ("G2Structure + _torsion", lambda: g2core._torsion(g2lab.G2Structure(algebra, phi))),
        ("torsion_forms, kept", lambda: g2lab.torsion_forms(G)),
        ("scal_from_torsion, kept", lambda: g2lab.scal_from_torsion(G)),
        ("scalar_curvature", lambda: g2lab.scalar_curvature(algebra, metric)),
        ("ricci", lambda: g2lab.ricci(algebra, metric)),
        ("riemann", lambda: g2lab.riemann(algebra, metric)),
        ("star_ricci", lambda: g2lab.star_ricci(G)),
        ("einstein_residual", lambda: g2lab.einstein_residual(algebra, metric)),
        ("derivation_space", lambda: g2lab.derivation_space(algebra)),
        ("soliton_solve", lambda: g2lab.soliton_solve(algebra, metric)),
        ("SU3Structure (h2)", lambda: g2lab.SU3Structure(h2.algebra, omega, psi)),
        ("su3_classify (h2)", lambda: g2lab.su3_classify(S)),
        ("g2_product (h2)", lambda: g2lab.g2_product(S)),
        ("flow_integrate, 20 steps of 1e-3", lambda: g2lab.flow_integrate(
            algebra, phi, 20 * 1e-3, 1e-3, options)),
        ("closed_form_n2(t)", lambda: g2lab.closed_form_n2(0.5)),
        ("closed_form_n2_velocity(t)", lambda: g2lab.closed_form_n2_velocity(0.5)),
    ]


def _round(call, calls):
    """Microseconds per call of `calls` calls, the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            call()
        return (time.perf_counter() - start) / calls * 1e6
    finally:
        if enabled:
            gc.enable()


def time_layers(g2lab, rounds):
    out = {}
    for name, call in layers(g2lab):
        first = _round(call, 1)  # fills every cache the layer reads
        calls = max(1, int(ROUND_S / max(min(first, _round(call, 3)) * 1e-6, 1e-9)))
        times = [_round(call, calls) for _ in range(rounds)]
        out[name] = {"calls": calls, "fastest_us": min(times),
                     "median_us": statistics.median(times)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="source tree with src/g2lab")
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per layer")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    g2lab = _import_tree(args.tree)
    result = {"tree": str(Path(args.tree).resolve()), "rounds": args.rounds,
              "layers": time_layers(g2lab, args.rounds)}
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
