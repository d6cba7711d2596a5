"""Span tracer for the traced benchmark run, and the per-layer metrics.

`Tracer.installed()` wraps the g2lab names in TARGETS: functions in every
g2lab module that binds them (so calls from one module into another, and
within a module, are all seen), `__init__` of classes, and one method.
Each call records a span (name, start, end, parent span, operation).  The
spans stay in memory, in flat arrays, and are written out at the end.  The
untraced run installs nothing.

Per-layer statistics, each over the spans inside the operations of the
workload that MOVES names for it:
  us_per_call, ms_per_call  mean span duration, children included
  calls_per_step            calls per RK4 step of the flow ops
  exterior.wedge.calls      calls per certify op
  calls_per_cmd             calls per cli command
  self_share                self time (duration minus the time child spans
                            cover) over duration
  catalog.catalog.cold_us   mean duration of the catalog calls that parsed
  cli.import_s              median `import g2lab.cli` time of 3 fresh processes
  trace.overhead_frac       traced over untraced wall time of the same blocks, - 1
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: Wrapped names, as <module>.<name> or <module>.<Class>.<method>.
TARGETS = (
    "exterior.compound_matrix", "exterior.wedge", "exterior.hodge_star",
    "g2core.G2Structure", "g2core.G2Structure.laplacian_vec", "g2core.torsion_forms",
    "g2core.lee_form", "g2core.classify",
    "liealg.LieAlgebra", "liealg.ce_diff", "liealg.derivation_space",
    "curvature.riemann", "curvature.ricci", "curvature.scalar_curvature",
    "curvature.einstein_residual", "curvature.soliton_solve", "curvature.scal_from_torsion",
    "curvature.star_ricci",
    "su3.SU3Structure", "su3.su3_classify", "su3.g2_product",
    "flow.flow_integrate",
    "inputfmt.parse_document", "catalog.catalog",
    "cli.main", "cli.emit",
)

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Each metric is measured on the operations of that workload, which every
#: traced run executes.
MOVES = {
    "g2core.G2Structure.us_per_call": "ops_per_s on flow",
    "g2core.G2Structure.calls_per_step": "ops_per_s on flow",
    "g2core.G2Structure.laplacian_vec.us_per_call": "ops_per_s on flow",
    "exterior.compound_matrix.us_per_call": "ops_per_s on flow",
    "exterior.compound_matrix.calls_per_step": "ops_per_s on flow",
    "flow.flow_integrate.self_share": "ops_per_s on flow",
    "g2core.torsion_forms.us_per_call": "op_ms_p50 on certify",
    "g2core.lee_form.us_per_call": "op_ms_p50 on certify",
    "exterior.wedge.calls": "op_ms_p50 on certify",
    "exterior.wedge.us_per_call": "op_ms_p50 on certify",
    "exterior.hodge_star.us_per_call": "op_ms_p50 on certify",
    "liealg.ce_diff.us_per_call": "op_ms_p50 on certify",
    "curvature.scal_from_torsion.us_per_call": "op_ms_p50 on certify",
    "su3.SU3Structure.us_per_call": "op_ms_p50 on certify",
    "curvature.star_ricci.us_per_call": "op_ms_tail and ops_per_s on curvature",
    "curvature.riemann.us_per_call": "op_ms_p50 on curvature",
    "curvature.ricci.us_per_call": "op_ms_p50 on curvature",
    "curvature.soliton_solve.us_per_call": "op_ms_p50 on curvature",
    "liealg.derivation_space.us_per_call": "op_ms_p50 on curvature",
    "cli.import_s": "op_ms_p50 on cli, setup_s everywhere",
    "cli.main.ms_per_call": "op_ms_p50 on cli",
    "cli.emit.ms_per_call": "op_ms_p50 on cli",
    "inputfmt.parse_document.us_per_call": "op_ms_p50 on cli, setup_s everywhere",
    "liealg.LieAlgebra.us_per_call": "op_ms_p50 on cli, setup_s everywhere",
    "liealg.LieAlgebra.calls_per_cmd": "op_ms_p50 on cli, setup_s everywhere",
    "catalog.catalog.cold_us": "setup_s everywhere, op_ms_p50 on cli",
    "trace.overhead_frac": "none: traced ops_per_s against untraced, same run",
}

#: Per-call figures of ROADMAP open item 1 (2 cores, Python 3.11, numpy 2.4).
ROADMAP_FIGURES = {
    "inputfmt.parse_document.us_per_call": 7300.0,
    "liealg.LieAlgebra.us_per_call": 6000.0,
    "g2core.G2Structure.us_per_call": 840.0,
    "g2core.G2Structure.laplacian_vec.us_per_call": 31.0,
    "g2core.G2Structure.calls_per_step": 5.0,
    "flow.rk4_step_us": 5400.0,
    "g2core.torsion_forms.us_per_call": 1700.0,
    "curvature.ricci.us_per_call": 76.0,
    "curvature.soliton_solve.us_per_call": 1900.0,
    "curvature.star_ricci.us_per_call": 72000.0,
    "su3.SU3Structure.us_per_call": 540.0,
}

#: Where a measured figure is not taken on the same input as ROADMAP's.
SANITY_NOTES = {
    "inputfmt.parse_document.us_per_call": "mean over the documents the cli ops parse; ROADMAP: n6",
    "su3.SU3Structure.us_per_call": "mean over the sparse h2 pair and a dense h1 pull-back",
    "flow.rk4_step_us": "flow_integrate time per step, samples included",
}


class Tracer:
    """Records nested spans of the wrapped g2lab names while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_workload = []
        self.missing = []
        self._stack = []
        self._op = -1

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def run_op(self, workload, call):
        """Run one benchmark operation as the root span of its own spans."""
        self._op = len(self.op_workload)
        self.op_workload.append(workload)
        idx = self._open(self._intern("op." + workload))
        try:
            return call()
        finally:
            self._close(idx)
            self._op = -1

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for target in TARGETS:
                undo += self._patch(target)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch(self, target):
        module_name, *path = target.split(".")
        module = importlib.import_module(f"g2lab.{module_name}")
        obj = module.__dict__.get(path[0])
        if len(path) == 2 and isinstance(obj, type) and path[1] in obj.__dict__:
            original = obj.__dict__[path[1]]
            setattr(obj, path[1], self.wrap(target, original))
            return [(obj, path[1], original)]
        if len(path) == 1 and isinstance(obj, type):
            original = obj.__dict__["__init__"]
            obj.__init__ = self.wrap(target, original)
            return [(obj, "__init__", original)]
        if len(path) == 1 and callable(obj):
            wrapped = self.wrap(target, obj)
            owners = [m for name, m in list(sys.modules.items())
                      if (name == "g2lab" or name.startswith("g2lab."))
                      and m.__dict__.get(path[0]) is obj]
            for owner in owners:
                setattr(owner, path[0], wrapped)
            return [(owner, path[0], obj) for owner in owners]
        self.missing.append(target)
        return []


class SpanView:
    """Columnar view of the recorded spans with self times and workloads."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        self.name = np.array(tracer.name, dtype=np.intp)
        self.start = np.array(tracer.start)
        self.dur = np.array(tracer.end) - self.start
        self.parent = np.array(tracer.parent, dtype=np.intp)
        self.op = np.array(tracer.op, dtype=np.intp)
        self.op_workload = list(tracer.op_workload)
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=self.dur[nested],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        # Workload of each span's operation; spans outside any op are set-up.
        labels = np.array(self.op_workload + ["setup"], dtype=object)
        self.workload = labels[self.op]

    def _id(self, name):
        return self.names.index(name) if name in self.names else -1

    def select(self, name, workload=None):
        mask = self.name == self._id(name)
        if workload is not None:
            mask &= self.workload == workload
        return mask

    def ops(self, workload):
        return sum(1 for w in self.op_workload if w == workload)

    def mean_us(self, name, workload=None):
        sel = self.select(name, workload)
        return float(self.dur[sel].mean() * 1e6) if sel.any() else 0.0

    def count(self, name, workload=None):
        return int(self.select(name, workload).sum())

    def self_share(self, name, workload=None):
        sel = self.select(name, workload)
        total = float(self.dur[sel].sum())
        return float(self.self_time[sel].sum()) / total if total > 0 else 0.0

    def cold_us(self, name, child):
        # Calls that did the work: those with a `child` span directly below them.
        parents = self.parent[self.select(child)]
        parents = parents[parents >= 0]
        cold = parents[self.name[parents] == self._id(name)]
        return float(self.dur[cold].mean() * 1e6) if cold.size else 0.0

    def table(self):
        """{span name: calls, mean and self microseconds per call, total seconds}."""
        out = {}
        for i, name in enumerate(self.names):
            sel = self.name == i
            calls = int(sel.sum())
            if calls:
                out[name] = {"calls": calls,
                             "mean_us": float(self.dur[sel].mean() * 1e6),
                             "self_us": float(self.self_time[sel].mean() * 1e6),
                             "total_s": float(self.dur[sel].sum())}
        return out

    def columns(self):
        """The spans as columns; name and op index into `names` and `op_workload`."""
        t0 = float(self.start.min()) if self.start.size else 0.0
        return {"names": self.names, "op_workload": self.op_workload,
                "name": self.name.tolist(),
                "start_ns": np.rint((self.start - t0) * 1e9).astype(np.int64).tolist(),
                "end_ns": np.rint((self.start + self.dur - t0) * 1e9).astype(np.int64).tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist()}


def layer_metrics(view, flow_steps_per_op, import_s, overhead_frac):
    """Every per-layer metric (see the module docstring)."""
    flow_steps = max(1, view.ops("flow") * flow_steps_per_op)

    def per_op(name, workload):
        return view.count(name, workload) / max(1, view.ops(workload))

    return {
        "g2core.G2Structure.us_per_call": view.mean_us("g2core.G2Structure", "flow"),
        "g2core.G2Structure.calls_per_step": view.count("g2core.G2Structure", "flow") / flow_steps,
        "g2core.G2Structure.laplacian_vec.us_per_call":
            view.mean_us("g2core.G2Structure.laplacian_vec", "flow"),
        "exterior.compound_matrix.us_per_call": view.mean_us("exterior.compound_matrix", "flow"),
        "exterior.compound_matrix.calls_per_step":
            view.count("exterior.compound_matrix", "flow") / flow_steps,
        "flow.flow_integrate.self_share": view.self_share("flow.flow_integrate", "flow"),
        "g2core.torsion_forms.us_per_call": view.mean_us("g2core.torsion_forms", "certify"),
        "g2core.lee_form.us_per_call": view.mean_us("g2core.lee_form", "certify"),
        "exterior.wedge.calls": per_op("exterior.wedge", "certify"),
        "exterior.wedge.us_per_call": view.mean_us("exterior.wedge", "certify"),
        "exterior.hodge_star.us_per_call": view.mean_us("exterior.hodge_star", "certify"),
        "liealg.ce_diff.us_per_call": view.mean_us("liealg.ce_diff", "certify"),
        "curvature.scal_from_torsion.us_per_call":
            view.mean_us("curvature.scal_from_torsion", "certify"),
        "su3.SU3Structure.us_per_call": view.mean_us("su3.SU3Structure", "certify"),
        "curvature.star_ricci.us_per_call": view.mean_us("curvature.star_ricci", "curvature"),
        "curvature.riemann.us_per_call": view.mean_us("curvature.riemann", "curvature"),
        "curvature.ricci.us_per_call": view.mean_us("curvature.ricci", "curvature"),
        "curvature.soliton_solve.us_per_call": view.mean_us("curvature.soliton_solve", "curvature"),
        "liealg.derivation_space.us_per_call":
            view.mean_us("liealg.derivation_space", "curvature"),
        "cli.import_s": import_s,
        "cli.main.ms_per_call": view.mean_us("cli.main", "cli") / 1e3,
        "cli.emit.ms_per_call": view.mean_us("cli.emit", "cli") / 1e3,
        "inputfmt.parse_document.us_per_call": view.mean_us("inputfmt.parse_document", "cli"),
        "liealg.LieAlgebra.us_per_call": view.mean_us("liealg.LieAlgebra", "cli"),
        "liealg.LieAlgebra.calls_per_cmd": per_op("liealg.LieAlgebra", "cli"),
        "catalog.catalog.cold_us": view.cold_us("catalog.catalog", "inputfmt.parse_document"),
        "trace.overhead_frac": overhead_frac,
    }


def sanity(metrics, view, flow_steps_per_op):
    """Measured figures beside ROADMAP item 1's, with their ratio."""
    measured = dict(metrics)
    flow = view.select("flow.flow_integrate", "flow")
    if flow.any():
        measured["flow.rk4_step_us"] = float(view.dur[flow].mean() * 1e6) / flow_steps_per_op
    rows = []
    for key, expected in ROADMAP_FIGURES.items():
        got = measured.get(key, 0.0)
        rows.append({"metric": key, "roadmap": expected, "measured": got,
                     "ratio": got / expected, "note": SANITY_NOTES.get(key, "")})
    return rows
