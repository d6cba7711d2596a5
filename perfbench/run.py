"""g2lab benchmark: one closed-loop client, one process, one BLAS thread.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree that has `src/g2lab`; the benchmark
imports g2lab from that tree only and exits with code 2 when it is absent.

Workloads (an *op* is one timed unit of work; see workloads.py):

  flow       one 20-step RK4 trajectory (dt = 1e-3, sampled every 5 steps),
             from the n2/n12 closed-form solution at a seeded start time
             (checked against the closed form at every sample) or from a
             seeded dense closed perturbation phi + eps d(beta) of n4/n6
             (checked to stay closed, in its cohomology class and with
             non-decreasing volume).  Tail: p90.
  certify    G2Structure, torsion_forms, classify, lee_form,
             scal_from_torsion and scalar_curvature of one positive 3-form,
             checking theta = 3 tau1, the scalar-curvature identity and the
             class; or SU3Structure, su3_classify and g2_product of one
             SU(3) pair on h1/h2.  Tail: p99.
  curvature  ricci, soliton_solve and einstein_residual of one metric Lie
             algebra (catalog metrics induced by phi, identity metrics and
             seeded random metrics), plus star_ricci on the n2 phi metric;
             checks the nilsoliton constants, the Einstein metrics, Ric*
             and scal = -|mu|^2/4 on random metrics.  Tail: p99.8, which
             falls among the star_ricci ops.
  cli        one `python -m g2lab ...` subprocess over every subcommand,
             corpus files and catalog names, checking exit codes, the
             report schema and headline values.  Tail: p80.

Each workload is a closed loop with one client: the next op starts when the
previous one has been checked.  The loop runs whole blocks (one of each op
of the workload, in a seeded order) until --seconds have passed, so each
run has the same mix.  The tail is the op latency at the stated
percentile, the highest one that leaves at least ten samples above it at
the expected sample count; the output's meta line gives the actual count.

End-to-end metrics (--trace 0).  Every time is wall time scaled to a
reference host speed: a fixed kernel that calls no g2lab code is timed
between the ops, at least every 0.25 s, and each wall time is multiplied by
pace.REF_MS over the kernel's time around it (see pace.py).  A change to
g2lab moves a scaled time by the same factor as the wall time; a drift of
the shared host's speed moves the kernel as well and cancels.  The meta
line gives the unscaled figures and the kernel's times.
  ops_per_s     ops per second of scaled loop time
  op_ms_p50     median scaled op latency
  op_ms_tail    scaled op latency at the workload's tail percentile
  ok_frac       ops that passed their check / ops attempted (1 - fail_frac;
                warm-up ops count as attempted)
  setup_s       median scaled wall time of 5 fresh processes that import,
                build the catalog entries, generate the inputs and warm up
  peak_rss_mb   peak resident memory: this process, or for cli the
                largest child

--trace 1 runs the workload's blocks for --seconds, alternating an untraced
and a traced pass of each block, then one traced block of every other
workload (cli in-process through `cli.main`), and prints the per-layer
metrics of spans.py.  The spans and a
comparison with the ROADMAP per-call table go to .perfbench/ in the tree.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("G2_TOL", None)
# Every process compiles g2lab from source, whatever the caller's setting, so
# the first run in a tree times the same work as the later ones.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("flow", "certify", "curvature", "cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build and warm up the workload, then exit (times set-up)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "g2lab" / "__init__.py").is_file():
        print(f"perfbench: no g2lab sources at {SRC}", file=sys.stderr)
        return 2
    # One core for the run and its children, so that the reference kernel
    # (pace.py) times the core the ops ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import bench
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
