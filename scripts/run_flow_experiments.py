#!/usr/bin/env python3
"""Integrate the Laplacian flow on the catalog nilsoliton structures.

Writes one CSV per trajectory (column order documented in g2lab.flow) and
prints a compact diagnostics table; for the two entries with closed-form
solutions the maximum deviation is reported as well.
"""
import argparse
import pathlib

from g2lab import FlowOptions, catalog, flow_integrate
from g2lab.flow import EXACT_FLOWS


def run(name, t_end, dt, outdir):
    entry = catalog(name)
    trajectory = flow_integrate(entry.algebra, entry.forms["phi"], t_end, dt,
                                FlowOptions(sample_every=max(1, int(t_end / dt) // 40)))
    path = outdir / f"flow_{name}.csv"
    trajectory.to_csv(path)
    final = trajectory.final
    line = (f"{name:>20}  t={final.t:7.3f}  {trajectory.termination:<14}"
            f"  |dphi|={final.diagnostics['closedness']:.1e}"
            f"  |tau2|={final.diagnostics['tau2_norm']:.4f}"
            f"  Scal={final.diagnostics['scalar_curvature']:+.5f}"
            f"  vol={final.diagnostics['volume_density']:.4f}"
            f"  |Lap|={final.diagnostics['laplacian_norm']:.4f}")
    if name in EXACT_FLOWS:
        solution = EXACT_FLOWS[name][0]
        deviation = max((s.phi - solution(s.t)).sup_norm() for s in trajectory.states)
        line += f"  max-dev={deviation:.2e}"
    print(line)
    print(f"{'':>22}wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-end", type=float, default=5.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--names", nargs="*",
                        default=["n2", "n4", "n6", "n12_modified_basis"])
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.names:
        run(name, args.t_end, args.dt, outdir)


if __name__ == "__main__":
    main()
