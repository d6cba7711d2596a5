"""Measurement loop, set-up probes, run metadata and output of the benchmark."""
from __future__ import annotations

import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import spans
import workloads
from pace import Pace, Segments

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench"
RUN_PY = Path(__file__).with_name("run.py")
SETUP_PROBES = 5
IMPORT_PROBES = 3
MAX_ERRORS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_CODE = "import time; t = time.perf_counter(); import g2lab.cli; print(time.perf_counter() - t)"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Tally:
    """Every op run: timed latencies, attempts, failures and the first reasons."""
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def execute(op, tally, tracer=None, workload=None, timed=True):
    """Run and check one op; returns its wall time."""
    t0 = perf_counter()
    try:
        result = tracer.run_op(workload, op.call) if tracer else op.call()
        reason = None
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        result, reason = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as exc:  # a check that cannot read the output fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
    tally.attempted += 1
    if reason:
        tally.failed += 1
        if len(tally.errors) < MAX_ERRORS:
            tally.errors.append(f"{op.label}: {reason}")
    if timed:
        tally.latencies.append(elapsed)
    return elapsed


def run_loop(ops, seconds, tally, tracer=None, workload=None, segments=None):
    """Closed loop over whole blocks, stopping at the block boundary nearest
    `seconds` (at least one block); returns (ops, wall seconds).  With
    `segments`, each op's wall time also goes to it for scaling."""
    before = len(tally.latencies)
    blocks = 0
    t0 = perf_counter()
    while True:
        for op in ops:
            latency = execute(op, tally, tracer, workload)
            if segments:
                segments.add(latency)
        blocks += 1
        elapsed = perf_counter() - t0
        if elapsed + 0.5 * elapsed / blocks >= seconds:
            break
    if segments:
        segments.settle()
    return len(tally.latencies) - before, elapsed


def warm_up(ops, tally):
    for op in ops:
        execute(op, tally, timed=False)


def set_up(name, seed, tally):
    """Build the workload from its seed and warm it up: what setup_s times."""
    workload = workloads.BY_NAME[name](np.random.default_rng(seed))
    # A cli op is a whole process; one is enough to warm the file cache.
    warm_up(workload.block[:1] if name == "cli" else workload.block, tally)
    return workload


def probe_setup(name, seed):
    proc = subprocess.run([sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
                           "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-800:]}")


def probe_import():
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=workloads.cli_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe exited {proc.returncode}: {proc.stderr[-800:]}")
    return float(proc.stdout.strip())


def tail_index(n, pct):
    return max(0, math.ceil(pct * n) - 1)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit():
    # The ceiling stops git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def metadata(args):
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpus_usable": len(affinity),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "git_commit": git_commit(), "platform": platform.platform()}


def result_line(tally, metrics):
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    })


def untraced(args, meta):
    tally = Tally()
    pace = Pace()
    t0 = perf_counter()
    workload = set_up(args.workload, args.seed, tally)
    meta["setup_in_process_s"] = perf_counter() - t0
    segments = Segments(pace)
    count, _ = run_loop(workload.block, args.seconds, tally, segments=segments)
    rss = peak_rss_mb(children=args.workload == "cli")
    setup_samples = [pace.scaled_call(lambda: probe_setup(args.workload, args.seed))
                     for _ in range(SETUP_PROBES)]

    lat, raw = sorted(segments.latencies), sorted(segments.raw_latencies)
    tail = tail_index(len(lat), workload.tail_pct)
    meta.update({
        "loop": "closed, 1 client", "ops_per_block": len(workload.block),
        "samples": len(lat), "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": len(lat) - tail - 1, "input_nnz": inputs.nnz_summary(workload.inputs),
        "setup_samples_s": setup_samples, "fail_frac": tally.failed / tally.attempted,
        "errors": tally.errors,
        "reference_ms": {"bursts": len(pace.bursts),
                         "median": statistics.median(pace.bursts) * 1e3,
                         "min": min(pace.bursts) * 1e3, "max": max(pace.bursts) * 1e3},
        "unscaled": {"ops_per_s": count / segments.raw_wall,
                     "op_ms_p50": statistics.median(raw) * 1e3, "op_ms_tail": raw[tail] * 1e3},
    })
    metrics = {
        "ops_per_s": count / segments.wall,
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": lat[tail] * 1e3,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss,
    }
    print("meta " + json.dumps(meta))
    for key, value in metrics.items():
        print(f"{args.workload:>9} {key:<12} {value:14.6f} {UNITS[key]}")
    print(f"{args.workload:>9} {'fail_frac':<12} {meta['fail_frac']:14.6f} frac")
    print(result_line(tally, metrics))


def traced(args, meta):
    tally = Tally()
    tracer = spans.Tracer()
    with tracer.installed():
        built = {name: workloads.BY_NAME[name](np.random.default_rng(args.seed))
                 for name in workloads.BY_NAME}
    for workload in built.values():
        warm_up(workload.traced_block, tally)
    main_ops = built[args.workload].traced_block
    # Untraced and traced passes alternate block by block, so both see the
    # same machine state and their ratio is the tracing overhead.
    blocks, wall_plain, wall_traced = 0, 0.0, 0.0
    t0 = perf_counter()
    while blocks == 0 or perf_counter() - t0 < args.seconds:
        wall_plain += run_loop(main_ops, 0, tally)[1]
        with tracer.installed():
            wall_traced += run_loop(main_ops, 0, tally, tracer, args.workload)[1]
        blocks += 1
    with tracer.installed():
        for name, workload in built.items():
            if name != args.workload:
                for op in workload.traced_block:
                    execute(op, tally, tracer, name, timed=False)
    import_s = statistics.median(probe_import() for _ in range(IMPORT_PROBES))

    view = spans.SpanView(tracer)
    overhead = wall_traced / wall_plain - 1.0
    metrics = spans.layer_metrics(view, workloads.FLOW_STEPS, import_s, overhead)
    sanity = spans.sanity(metrics, view, workloads.FLOW_STEPS)
    meta.update({"spans": int(view.dur.size), "blocks_each_way": blocks,
                 "ops_per_block": len(main_ops),
                 "missing_targets": tracer.missing, "fail_frac": tally.failed / tally.attempted,
                 "errors": tally.errors, "moves": spans.MOVES})
    OUT.mkdir(exist_ok=True)
    report = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(report, "wt", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "sanity": sanity, "table": view.table(),
                   "spans": view.columns()}, fh)

    print("meta " + json.dumps(meta))
    for key, value in metrics.items():
        print(f"{key:<46} {value:14.6f} {UNITS[key]:<5} moves {spans.MOVES[key]}")
    for row in sanity:
        print(f"sanity {row['metric']:<46} roadmap {row['roadmap']:10.1f} "
              f"measured {row['measured']:12.1f} ratio {row['ratio']:6.2f} {row['note']}")
    print(f"trace report: {report.relative_to(ROOT)}")
    print(result_line(tally, metrics))


def main(args):
    if Path(workloads.g2lab.__file__).resolve().parent != workloads.SRC / "g2lab":
        print(f"perfbench: imported g2lab from {workloads.g2lab.__file__}, not {workloads.SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed, Tally())
        return 0
    meta = metadata(args)
    (traced if args.trace else untraced)(args, meta)
    return 0
