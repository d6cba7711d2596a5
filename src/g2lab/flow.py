"""Hodge Laplacian and the Laplacian flow d/dt phi = Delta phi on closed forms.

The integrator is a fixed-step classical 4th-order Runge-Kutta scheme on the
35 coefficients of phi.  On closed forms delta d phi = 0, so the right-hand
side is d delta phi alone, `g2core._closed_phi_laplacian`, which also returns
its metric factors and delta phi and builds no Metric.  Its values lie in
d(Lambda^2), so a step leaves phi0 + d(Lambda^2) only by roundoff.  A step
costs 4 evaluations: the one at each accepted point is both its positivity
check and the next step's first stage.  Sampled states build no G2Structure:
their diagnostics come from that evaluation (see `_state`).  No re-projection
onto closed forms is done: |d phi| is measured after every step, and drift
aborts the trajectory instead of being hidden.

The exact flows, `EXACT_FLOWS`, are self-similar: the catalog's n2 and
n12_modified_basis forms are Laplacian solitons, Delta phi0 = lam phi0 +
D.phi0 with D a diagonal derivation (Lauret, Proc. LMS 2017), so each
coefficient of phi(t) is phi0_I times a power of 1 + 2 lam t / 3.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .catalog import catalog
from .exterior import KForm, Metric, _inner, index_positions, multi_indices
from .g2core import PositivityError, _closed_phi_laplacian, phi_laplacian
from .curvature import scalar_curvature

MAX_STEPS = 10_000_000

TERMINATION_REACHED = "reached_t_end"
TERMINATION_POSITIVITY = "positivity_lost"
TERMINATION_CLOSEDNESS = "closedness_violated"

#: Column order of trajectory CSV files: time, the 35 coefficients of phi in
#: lexicographic multi-index order, then the diagnostics.
CSV_COLUMNS = (("t",)
               + tuple("phi_" + "".join(map(str, key)) for key in multi_indices(7, 3))
               + ("closedness", "tau2_norm", "scalar_curvature", "volume_density",
                  "laplacian_norm"))


@dataclass(frozen=True)
class FlowOptions:
    """`sample_every`: steps between sampled states.  `closedness_tol`:
    relative to ||phi0||; a step whose ||d phi|| exceeds
    max(10 ||d phi0||, closedness_tol ||phi0||) truncates the trajectory, so
    no scale of phi0 decides where."""
    sample_every: int = 10
    closedness_tol: float = 1e-8


@dataclass(frozen=True)
class FlowState:
    """A sampled point of a trajectory: `phi` is the integrated coefficient
    vector as a KForm, and the diagnostics are taken at it."""
    t: float
    phi: KForm
    diagnostics: dict


@dataclass(frozen=True)
class FlowTrajectory:
    states: list
    termination: str

    @property
    def final(self):
        return self.states[-1]

    def to_csv(self, path):
        """Write sampled states in the CSV_COLUMNS order."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for state in self.states:
                writer.writerow([repr(state.t)] + [repr(float(c)) for c in state.phi.to_vector()]
                                + [repr(float(state.diagnostics[k])) for k in CSV_COLUMNS[36:]])


def _state(algebra, t, vec, point, closedness):
    """Sampled state at `vec` from what the integrator already has there: the
    kernel's `point` = ((g, g^-1, sqrt(det g)), delta phi, Laplacian) and
    |d phi| `closedness`.

    All are taken at `vec`, the state's phi.  The state's Metric is the one
    Metric the flow builds, from the kernel's factors.  `volume_density` is
    its sqrt(det g), `scalar_curvature` its `curvature.scalar_curvature`
    (Besse's formula: the bracket, the Killing form and the trace vector
    contracted with g and g^-1), `laplacian_norm` the Euclidean norm of the
    Laplacian's coefficients.  `tau2_norm` is |delta phi|_g: on a closed
    phi, d star(phi) = tau2 ^ phi and star(tau2 ^ phi) = -tau2 (Bryant), so
    delta phi = -star d star(phi) is tau2 up to the orientation's sign and
    this is |tau2|_g; no G2Structure or torsion is built.
    """
    factors, delta_phi, lap = point
    metric = Metric._from_factors(*factors)
    tau2_sq = _inner(delta_phi, delta_phi, 2, metric)
    return FlowState(t, KForm.from_vector(7, 3, vec), {
        "closedness": closedness,
        "tau2_norm": math.sqrt(max(tau2_sq, 0.0)),
        "scalar_curvature": scalar_curvature(algebra, metric),
        "volume_density": metric.sqrt_det,
        "laplacian_norm": math.sqrt(lap @ lap),  # np.linalg.norm's value
    })


def flow_integrate(algebra, phi0, t_end, dt, options=FlowOptions()):
    """Integrate the Laplacian flow from a closed positive 3-form.

    Returns a FlowTrajectory of sampled states (every `sample_every` steps,
    plus the initial and final ones).  Step k ends at t = k dt, a product
    and not a running sum, so sample times are exact multiples of dt; the
    last step is t_end minus the time reached, so a run that reaches t_end
    ends there exactly.  Loss of positivity, or closedness drift past
    max(10 ||d phi0||, closedness_tol ||phi0||), relative to phi0 like the
    closedness check of phi0 itself, truncates the trajectory with the
    corresponding termination reason instead of raising.  Raises ValueError when ||d phi0|| exceeds 1e-10 ||phi0||.
    """
    if algebra.dim != 7:
        raise ValueError("the flow runs on 7-dimensional algebras")
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    if options.sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {options.sample_every}")
    if not 0 <= options.closedness_tol < math.inf:  # also rejects NaN
        raise ValueError("closedness_tol must be finite and non-negative, "
                         f"got {options.closedness_tol}")
    ratio = t_end / dt  # may overflow although both are finite
    n_steps = max(1, math.ceil(ratio - 1e-12)) if math.isfinite(ratio) else math.inf
    if n_steps > MAX_STEPS:
        raise ValueError(f"{n_steps} steps exceed the cap of {MAX_STEPS}")

    vec = phi0.to_vector()
    d3 = algebra.diff_matrix(3)
    r = d3 @ vec
    initial_residual, size = math.sqrt(r @ r), math.sqrt(vec @ vec)
    if initial_residual > 1e-10 * size:  # relative, so that no scale of phi0 decides
        raise ValueError(f"initial form is not closed (||d phi0|| = {initial_residual:.3e}, "
                         f"||phi0|| = {size:.3e})")
    drift_limit = max(10.0 * initial_residual, options.closedness_tol * size)

    def rhs(v):
        return _closed_phi_laplacian(algebra, v)[2]

    # ((g, g^-1, sqrt(det g)), delta phi, Laplacian) at the accepted point;
    # raises PositivityError if phi0 is not positive
    point = _closed_phi_laplacian(algebra, vec)
    closedness = initial_residual
    states = [_state(algebra, 0.0, vec, point, closedness)]
    termination = TERMINATION_REACHED
    t = 0.0
    for step in range(1, n_steps + 1):
        h = t_end - t if step == n_steps else dt
        half, k1 = 0.5 * h, point[2]
        try:
            k2 = rhs(vec + half * k1)
            k3 = rhs(vec + half * k2)
            k4 = rhs(vec + h * k3)
            new_vec = vec + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            new_point = _closed_phi_laplacian(algebra, new_vec)
        except PositivityError:
            termination = TERMINATION_POSITIVITY
            break
        r = d3 @ new_vec
        new_closedness = math.sqrt(r @ r)  # np.linalg.norm's value, without its wrapper
        if new_closedness > drift_limit:
            termination = TERMINATION_CLOSEDNESS
            break
        vec, point, closedness = new_vec, new_point, new_closedness
        t = t_end if step == n_steps else step * dt  # a product: no running sum drifts
        if step % options.sample_every == 0 or step == n_steps:
            states.append(_state(algebra, t, vec, point, closedness))
    if termination != TERMINATION_REACHED and states[-1].t < t:
        states.append(_state(algebra, t, vec, point, closedness))
    return FlowTrajectory(states, termination)


def _soliton_flow(name, label, lam, diagonal):
    """(solution, velocity) from the catalog's `name` phi0, a soliton Delta phi0 = lam phi0
    + D.phi0 with D = diag(diagonal): phi(t)_I = phi0_I u^{p_I}, u = 2 lam t / 3 + 1 > 0 and
    p_I = 3/2 - 3 d_I / (2 lam), d_I the sum of D over I; phi0 is read at the first call."""
    lower = -3.0 / (2.0 * lam)

    @lru_cache(maxsize=None)
    def tables():  # (start, [(position, a_I, q_I)]) of phi and of its velocity: entry I = a_I u^q_I
        phi0, positions = catalog(name).forms["phi"], index_positions(7, 3)
        moving = [(positions[key], c, p) for key, c in phi0.items()
                  if (p := 1.5 - 3.0 * sum(diagonal[i - 1] for i in key) / (2.0 * lam))]
        return ((phi0.to_vector(), moving),
                (np.zeros(35), [(pos, c * (p * 2.0 * lam / 3.0), p - 1.0) for pos, c, p in moving]))

    def exact(which, suffix, doc):  # tables()[which] as a callable, closed_form_<label><suffix>
        def at(t):
            if not math.isfinite(t) or t <= lower:
                raise ValueError(f"t = {t} outside the existence interval ({lower}, +inf) of the {label} solution")
            u, (start, terms) = 2.0 * lam * t / 3.0 + 1.0, tables()[which]
            vec = start.copy()
            for pos, a, q in terms:
                vec[pos] = a * u ** q
            return KForm.from_vector(7, 3, vec)
        at.__name__ = at.__qualname__ = f"closed_form_{label}{suffix}"
        at.__doc__ = f"{doc}; ValueError unless t > -3/(2 lam) = {lower}, the blow-up time."
        return at

    return exact(0, "", "phi(t)"), exact(1, "_velocity", "d/dt phi(t), which is Delta phi(t)")


#: catalog name -> (solution, velocity) of its exact flow, from its soliton's lam and D
EXACT_FLOWS = {"n2": _soliton_flow("n2", "n2", 5.0, (1, 1, 1, 2, 2, 2, 2)),
               "n12_modified_basis": _soliton_flow("n12_modified_basis", "n12", 0.5,
                                                   (1/8, 1/8, 0, 1/4, 1/8, 1/8, 1/4))}
closed_form_n2, closed_form_n2_velocity = EXACT_FLOWS["n2"]
closed_form_n12, closed_form_n12_velocity = EXACT_FLOWS["n12_modified_basis"]


def oracle_residual(algebra, solution, velocity, times):
    """sup-norm residuals || d/dt phi(t) - Delta phi(t) || at the given times."""
    out = {}
    for t in times:
        lap = KForm.from_vector(7, 3, phi_laplacian(algebra, solution(t).to_vector()))
        out[t] = (velocity(t) - lap).sup_norm()
    return out
