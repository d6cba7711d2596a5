"""Acceptance suite: every reference value at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them).  The flow
integrations are shared through session fixtures; everything else is fast.
"""
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from g2lab.catalog import catalog
from g2lab.curvature import (einstein_calibrated_residual, einstein_residual,
                             ricci, ricci_operator, riemann, scal_from_torsion,
                             scalar_curvature, soliton_solve)
from g2lab.exterior import KForm, Metric, form_inner, hodge_star, multi_indices, wedge
from g2lab.flow import (FlowOptions, closed_form_n2, closed_form_n2_velocity,
                        closed_form_n12, closed_form_n12_velocity, flow_integrate,
                        oracle_residual)
from g2lab.g2core import G2Structure, classify, torsion_forms
from g2lab.liealg import ce_diff, jacobi_residual
from g2lab.su3 import SU3Structure, g2_product, su3_classify

from oracles import lambda2_14_basis, lambda3_27_basis

REPO = pathlib.Path(__file__).resolve().parent.parent

NILSOLITONS = {
    "n2": (-2.0, (1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 2.0)),
    "n4": (-2.5, (1.0, 1.5, 2.5, 2.0, 2.0, 3.5, 3.0)),
    "n6": (-2.5, (0.5, 2.0, 2.0, 2.5, 2.5, 3.0, 3.0)),
    "n12_modified_basis": (-0.25, (0.125, 0.125, 0.125, 0.25, 0.25, 0.25, 0.375)),
}


def _report(number, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number:>2}: {name}")
    return ok


@pytest.fixture(scope="module")
def structures():
    out = {}
    for name in ("std_g2", "n2", "n4", "n6", "n12_modified_basis", "s_ext_h2"):
        entry = catalog(name)
        out[name] = G2Structure(entry.algebra, entry.forms["phi"])
    return out


@pytest.fixture(scope="module")
def unit_flow_runs():
    """dt = 1e-3 integrations to t = 1 for the two closed-form solutions."""
    runs = {}
    for name, phi0 in (("n2", closed_form_n2(0.0)),
                       ("n12_modified_basis", closed_form_n12(0.0))):
        algebra = catalog(name).algebra
        runs[name] = flow_integrate(algebra, phi0, 1.0, 1e-3,
                                    FlowOptions(sample_every=100))
    return runs


@pytest.fixture(scope="module")
def convergence_errors():
    algebra = catalog("n2").algebra
    exact = (10.0 / 3.0 + 1.0) ** 0.6
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = flow_integrate(algebra, closed_form_n2(0.0), 1.0, dt,
                              FlowOptions(sample_every=10 ** 6))
        errors.append(abs(traj.final.phi.coefficient((1, 2, 3)) - exact))
    return errors


@pytest.fixture(scope="module")
def long_flow_runs():
    """n4 and n6 integrated to t = 50 (no closed form available)."""
    runs = {}
    for name in ("n4", "n6"):
        entry = catalog(name)
        runs[name] = flow_integrate(entry.algebra, entry.forms["phi"], 50.0, 2.5e-2,
                                    FlowOptions(sample_every=50))
    return runs


def test_c01_metric_extraction(structures):
    G = structures["std_g2"]
    ok = (np.abs(G.metric.g - np.eye(7)).max() < 1e-12
          and abs(G.metric.sqrt_det - 1.0) < 1e-12)
    assert _report(1, "standard 3-form yields the identity metric and volume", ok)


def test_c02_nilsoliton_certificates(structures):
    ok = True
    for name, (lam, diag) in NILSOLITONS.items():
        G = structures[name]
        cert = soliton_solve(G.algebra, G.metric)
        ok &= cert.residual < 1e-9
        ok &= abs(cert.lam - lam) < 1e-9
        ok &= np.abs(cert.derivation - np.diag(diag)).max() < 1e-9
    assert _report(2, "soliton certificates (lambda, D) for the four structures", ok)


def test_c03_ricci_h2():
    got = ricci_operator(catalog("h2").algebra, Metric.identity(6))
    ok = np.abs(got - np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0])).max() < 1e-10
    assert _report(3, "Ricci operator of h2 at the identity inner product", ok)


def test_c04_einstein_extension():
    algebra = catalog("s_ext_h2").algebra
    g = Metric.identity(7)
    ric = ricci(algebra, g)
    ok = (einstein_residual(algebra, g) < 1e-9
          and abs(scalar_curvature(algebra, g) - (-21.0)) < 1e-8
          and np.abs(ric - (-3.0) * g.g).max() < 1e-9)
    assert _report(4, "rank-one extension is Einstein with Ric = -3 g", ok)


def test_c05_lcc_torsion(structures):
    t = torsion_forms(structures["s_ext_h2"])
    expected_tau2 = KForm(7, 2, {(1, 2): -5.0 / 3.0, (3, 4): -5.0 / 3.0,
                                 (5, 6): -10.0 / 3.0})
    ok = (abs(t.tau0) < 1e-9
          and t.tau3.is_zero(1e-9)
          and t.tau1.allclose(KForm(7, 1, {(7,): -1.0 / 3.0}), tol=1e-9)
          and t.tau2.allclose(expected_tau2, tol=1e-9))
    assert _report(5, "torsion forms of the conformally calibrated extension", ok)


def test_c06_scalar_curvature_identity(structures):
    ok = all(abs(scal_from_torsion(G) - scalar_curvature(G.algebra, G.metric)) < 1e-8
             for G in structures.values())
    G2n2 = structures["n2"]
    t = torsion_forms(G2n2)
    tau2_sq = form_inner(G2n2.metric, t.tau2, t.tau2)
    ok &= abs(scal_from_torsion(G2n2) - (-0.5 * tau2_sq)) < 1e-8
    ok &= abs(scal_from_torsion(G2n2) - (-1.0)) < 1e-8
    assert _report(6, "torsion formula matches curvature scalar on the catalog", ok)


def test_c07_laplacian_values(structures):
    lap2 = KForm.from_vector(7, 3, structures["n2"].laplacian_vec())
    lap12 = KForm.from_vector(7, 3, structures["n12_modified_basis"].laplacian_vec())
    ok = (lap2.allclose(KForm(7, 3, {(1, 2, 3): 2.0}), tol=1e-10)
          and lap12.allclose(KForm(7, 3, {(1, 3, 5): 0.25, (2, 3, 6): -0.25}),
                             tol=1e-10))
    assert _report(7, "Hodge Laplacian values pin the sign conventions", ok)


def test_c08_flow_matches_closed_forms(unit_flow_runs, convergence_errors):
    got2 = unit_flow_runs["n2"].final.phi.coefficient((1, 2, 3))
    exact2 = (13.0 / 3.0) ** 0.6
    got12 = unit_flow_runs["n12_modified_basis"].final.phi.coefficient((1, 3, 5))
    exact12 = (4.0 / 3.0) ** 0.75
    ok = abs(got2 - exact2) < 1e-6 and abs(got12 - exact12) < 1e-6
    for a, b in zip(convergence_errors, convergence_errors[1:]):
        ok &= 12.0 < a / b < 20.0
    assert _report(8, "integrated flow matches closed forms at 4th order", ok)


def test_c09_ode_residuals():
    times = [0.0, 1.0, 10.0, 100.0]
    res2 = oracle_residual(catalog("n2").algebra, closed_form_n2,
                           closed_form_n2_velocity, times)
    res12 = oracle_residual(catalog("n12_modified_basis").algebra, closed_form_n12,
                            closed_form_n12_velocity, times)
    ok = all(r < 1e-9 for r in res2.values()) and all(r < 1e-9 for r in res12.values())
    assert _report(9, "closed forms satisfy the flow equation to 1e-9", ok)


def test_c10_property_suite(structures, unit_flow_runs, long_flow_runs):
    rng = np.random.default_rng(0)
    ok = True

    # d^2 = 0 on randomized forms over every catalog algebra
    from g2lab.catalog import catalog_names
    for name in catalog_names():
        algebra = catalog(name).algebra
        for degree in (1, 2, 3):
            a = KForm.from_vector(algebra.dim, degree,
                                  rng.uniform(-2, 2, len(multi_indices(algebra.dim, degree))))
            ok &= ce_diff(algebra, ce_diff(algebra, a)).norm() < 1e-12

    # star-star parity for random metrics and degrees
    for _ in range(5):
        a_mat = rng.uniform(-1, 1, (7, 7))
        g = Metric(a_mat @ a_mat.T + 0.5 * np.eye(7))
        for k in range(8):
            form = KForm.from_vector(7, k, rng.uniform(-2, 2, len(multi_indices(7, k))))
            sign = (-1.0) ** (k * (7 - k))
            ok &= hodge_star(g, hodge_star(g, form)).allclose(sign * form, tol=1e-8)

    # invariant subspace dimensions and torsion reconstruction
    for G in structures.values():
        ok &= lambda2_14_basis(G).shape[1] == 14
        ok &= lambda3_27_basis(G).shape[1] == 27
        t = torsion_forms(G)
        dphi = ce_diff(G.algebra, G.phi)
        recon1 = t.tau0 * G.star_phi + 3.0 * wedge(t.tau1, G.phi) + hodge_star(G.metric, t.tau3)
        dstar = ce_diff(G.algebra, G.star_phi)
        recon2 = 4.0 * wedge(t.tau1, G.star_phi) + wedge(t.tau2, G.phi)
        ok &= (dphi - recon1).norm() < 1e-9
        ok &= (dstar - recon2).norm() < 1e-9

    # first Bianchi identity on random metrics
    for name in ("n2", "n6", "s_ext_h2"):
        algebra = catalog(name).algebra
        a_mat = rng.uniform(-1, 1, (7, 7))
        g = Metric(a_mat @ a_mat.T + 0.5 * np.eye(7))
        r = riemann(algebra, g)
        cyclic = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        ok &= np.abs(cyclic).max() < 1e-10

    # volume density never decreases along any integrated trajectory
    for traj in list(unit_flow_runs.values()) + list(long_flow_runs.values()):
        vols = [s.diagnostics["volume_density"] for s in traj.states]
        ok &= all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))

    # product dictionary: symplectic half-flat -> calibrated, coupled -> lcc
    h2 = catalog("h2")
    S_coupled = SU3Structure(h2.algebra, h2.forms["omega"], h2.forms["psi"])
    ok &= su3_classify(S_coupled).coupled
    ok &= classify(torsion_forms(g2_product(S_coupled))).label \
        == "locally conformal calibrated"
    from g2lab.liealg import LieAlgebra
    base = LieAlgebra([KForm.zero(6, 2)] * 4
                      + [KForm.basis(6, (1, 2)), KForm.basis(6, (1, 3))])
    S_shf = SU3Structure(base,
                         KForm(6, 2, {(1, 4): 1.0, (2, 6): 1.0, (3, 5): 1.0}),
                         KForm(6, 3, {(1, 2, 3): 1.0, (1, 5, 6): 1.0,
                                      (2, 4, 5): 1.0, (3, 4, 6): -1.0}))
    ok &= su3_classify(S_shf).symplectic_half_flat
    ok &= classify(torsion_forms(g2_product(S_shf, extension=catalog("n2").algebra))
                   ).label == "closed, calibrated"

    assert _report(10, "property suite (d^2, parity, subspaces, Bianchi, volume)", ok)


def test_c11_negative_results(structures):
    ok = einstein_calibrated_residual(structures["n2"]) > 0.1
    for i in range(1, 13):
        ok &= jacobi_residual(catalog(f"n{i}").algebra) < 1e-12
    for path in sorted((REPO / "corpus" / "broken").glob("*.g2")):
        proc = subprocess.run([sys.executable, "-m", "g2lab", "check", str(path)],
                              capture_output=True, text=True, cwd=REPO)
        ok &= proc.returncode == 2
    assert _report(11, "negative results: non-Einstein soliton, Jacobi, bad inputs", ok)


def test_c12_long_time_flow(long_flow_runs):
    ok = True
    for name, traj in long_flow_runs.items():
        ok &= traj.termination == "reached_t_end"
        ok &= traj.final.t == 50.0
        laps = [s.diagnostics["laplacian_norm"] for s in traj.states]
        tail = laps[len(laps) // 2:]
        ok &= all(b <= a * (1.0 + 1e-8) + 1e-12 for a, b in zip(tail, tail[1:]))
    assert _report(12, "n4/n6 trajectories reach t = 50 with decaying Laplacian", ok)
