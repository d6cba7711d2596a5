"""Seeded input generator for the benchmark workloads.

Every generator draws from a numpy Generator, validates what it makes at
the moment it makes it (closedness, positivity, positive definiteness) and
records the input's nonzero count, so the library only ever sees inputs
that are known to be valid.  Failed validation raises InputError.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

import g2lab

CLOSED_TOL = 1e-12


class InputError(RuntimeError):
    """A generated input failed its own validation."""


@dataclass(frozen=True)
class Input:
    """One generated input: what it is, its nonzero count and its data."""
    kind: str
    name: str
    nnz: int
    data: dict = field(repr=False)


def form_nnz(form):
    return sum(1 for _ in form.items())


def _positive_structure(algebra, phi, label):
    try:
        structure = g2lab.G2Structure(algebra, phi)
    except g2lab.PositivityError as exc:
        raise InputError(f"{label}: not a positive 3-form ({exc})") from exc
    if not structure.metric.positive_definite:
        raise InputError(f"{label}: induced metric is not positive definite")
    return structure


def _check_closed(algebra, vec, label):
    residual = float(np.linalg.norm(algebra.diff_matrix(3) @ vec))
    if residual > CLOSED_TOL * max(1.0, float(np.linalg.norm(vec))):
        raise InputError(f"{label}: perturbed form is not closed (|d phi| = {residual:.3e})")


def catalog_form(name, scale=1.0):
    """The catalog 3-form of `name`, scaled by `scale` (positivity is scale-invariant)."""
    entry = g2lab.catalog(name)
    phi = scale * entry.forms["phi"]
    _positive_structure(entry.algebra, phi, name)
    return Input("catalog", name, form_nnz(phi),
                 {"algebra": entry.algebra, "phi": phi, "scale": scale})


def closed_perturbation(rng, name, rel_eps=0.2):
    """phi + eps d(beta) for a dense random 2-form beta, with |eps d beta| = rel_eps |phi|.

    d(phi + eps d beta) = d phi, so the perturbation of a closed catalog form
    stays closed and in the same cohomology class.
    """
    entry = g2lab.catalog(name)
    algebra = entry.algebra
    vec = entry.forms["phi"].to_vector()
    _check_closed(algebra, vec, name)
    dbeta = algebra.diff_matrix(2) @ rng.standard_normal(algebra.diff_matrix(2).shape[1])
    vec = vec + rel_eps * np.linalg.norm(vec) * dbeta / np.linalg.norm(dbeta)
    label = f"{name}+d(beta)"
    _check_closed(algebra, vec, label)
    phi = g2lab.KForm.from_vector(7, 3, vec)
    _positive_structure(algebra, phi, label)
    return Input("closed_perturbation", name, form_nnz(phi), {"algebra": algebra, "phi": phi})


def oracle_start(rng, name, solution):
    """The closed-form flow solution `solution` at a random start time t0 in [0, 1)."""
    algebra = g2lab.catalog(name).algebra
    t0 = float(rng.uniform(0.0, 1.0))
    phi = solution(t0)
    _check_closed(algebra, phi.to_vector(), f"{name}(t0)")
    _positive_structure(algebra, phi, f"{name}(t0)")
    return Input("closed_form", name, form_nnz(phi), {"algebra": algebra, "phi": phi, "t0": t0})


def generic_perturbation(rng, name, rel_eps=0.15):
    """phi + eps nu for a dense random 3-form nu: positive, in general not closed."""
    entry = g2lab.catalog(name)
    vec = entry.forms["phi"].to_vector()
    nu = rng.standard_normal(vec.size)
    vec = vec + rel_eps * np.linalg.norm(vec) * nu / np.linalg.norm(nu)
    phi = g2lab.KForm.from_vector(7, 3, vec)
    _positive_structure(entry.algebra, phi, f"{name}+nu")
    return Input("generic_perturbation", name, form_nnz(phi),
                 {"algebra": entry.algebra, "phi": phi})


def random_spd_metric(rng, name):
    """A dense random symmetric positive definite metric on the algebra `name`."""
    algebra = g2lab.catalog(name).algebra
    n = algebra.dim
    a = rng.standard_normal((n, n))
    g = a @ a.T / n + 0.5 * np.eye(n)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"random metric on {name} is not positive definite") from exc
    metric = g2lab.Metric(g)
    return Input("random_spd", name, int(np.count_nonzero(metric.g)),
                 {"algebra": algebra, "metric": metric})


def _compound(a, degree):
    # Matrix of degree x degree minors of a over increasing index tuples.
    idx = list(itertools.combinations(range(a.shape[0]), degree))
    return np.array([[np.linalg.det(a[np.ix_(rows, cols)]) for cols in idx] for rows in idx])


def _pullback(form, a):
    # (a^* e^J) = sum_I det(a[J, I]) e^I for the linear map with matrix a.
    vec = _compound(a, form.degree).T @ form.to_vector()
    return g2lab.KForm.from_vector(form.dim, form.degree, vec)


_STANDARD_OMEGA = {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}
_STANDARD_PSI = {(1, 3, 5): 1.0, (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0}


def su3_pullback(rng, name, rel_eps=0.2):
    """The standard SU(3) pair pulled back by a random near-identity linear map.

    Pulling back both forms by one invertible map keeps every algebraic
    condition of an SU(3)-structure, whatever the algebra.
    """
    algebra = g2lab.catalog(name).algebra
    a = np.eye(6) + rel_eps * rng.standard_normal((6, 6))
    if abs(np.linalg.det(a)) < 1e-3:
        raise InputError("pull-back map is nearly singular")
    omega = _pullback(g2lab.KForm(6, 2, _STANDARD_OMEGA), a)
    psi = _pullback(g2lab.KForm(6, 3, _STANDARD_PSI), a)
    _su3_structure(algebra, omega, psi, name)
    return Input("su3_pullback", name, form_nnz(omega) + form_nnz(psi),
                 {"algebra": algebra, "omega": omega, "psi": psi})


def su3_scaled(name, scale):
    """The catalog pair (s^2 omega, s^3 psi); d omega = c psi becomes c / s."""
    entry = g2lab.catalog(name)
    omega = scale ** 2 * entry.forms["omega"]
    psi = scale ** 3 * entry.forms["psi"]
    _su3_structure(entry.algebra, omega, psi, name)
    return Input("su3_scaled", name, form_nnz(omega) + form_nnz(psi),
                 {"algebra": entry.algebra, "omega": omega, "psi": psi, "scale": scale})


def _su3_structure(algebra, omega, psi, label):
    try:
        return g2lab.SU3Structure(algebra, omega, psi)
    except ValueError as exc:
        raise InputError(f"{label}: not an SU(3)-structure ({exc})") from exc


def nnz_summary(inputs):
    """{kind: [min, max] nonzero count} over the given inputs."""
    out = {}
    for item in inputs:
        lo, hi = out.get(item.kind, (item.nnz, item.nnz))
        out[item.kind] = [min(lo, item.nnz), max(hi, item.nnz)]
    return out
