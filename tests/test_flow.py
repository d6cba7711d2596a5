import csv
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2lab.flow as flow_mod
import g2lab.g2core as g2core_mod
from g2lab.catalog import catalog
from g2lab.curvature import scalar_curvature
from g2lab.exterior import (KForm, Metric, _complement, _complement_gather,
                            _compound_apply, _compound_dense, _dense, _dense_tables, form_inner)
from g2lab.flow import (CSV_COLUMNS, MAX_STEPS, FlowOptions, closed_form_n2,
                        closed_form_n2_velocity, closed_form_n12,
                        closed_form_n12_velocity, flow_integrate, oracle_residual)
from g2lab.g2core import (G2Structure, PositivityError, _closed_phi_laplacian, phi_laplacian,
                          torsion_forms)
from g2lab.inputfmt import parse_document
from g2lab.liealg import ce_diff

from conftest import CLOSED_CATALOG, closed_perturbation, positive_3form_strategy, scal_magnitude
from oracles import brute_hodge, codifferential, dense, metric_star_laplacian, perm_sign

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
N2 = catalog("n2").algebra
N12M = catalog("n12_modified_basis").algebra
STD = catalog("std_g2")


def _laplacian_form(G):
    return KForm.from_vector(7, 3, G.laplacian_vec())


class TestHodgeLaplacian:
    def test_flat_structure_is_harmonic(self):
        G = G2Structure(STD.algebra, STD.forms["phi"])
        assert _laplacian_form(G).is_zero(1e-13)

    def test_n2_value(self):
        G = G2Structure(N2, catalog("n2").forms["phi"])
        assert _laplacian_form(G).allclose(KForm(7, 3, {(1, 2, 3): 2.0}), tol=1e-12)

    def test_n12_value(self):
        G = G2Structure(N12M, catalog("n12_modified_basis").forms["phi"])
        expected = KForm(7, 3, {(1, 3, 5): 0.25, (2, 3, 6): -0.25})
        assert _laplacian_form(G).allclose(expected, tol=1e-12)

    def test_matches_operator_composition(self):
        # same operator assembled from KForm d and codifferential pieces
        for name in ("n2", "n12_modified_basis", "s_ext_h2"):
            entry = catalog(name)
            G = G2Structure(entry.algebra, entry.forms["phi"])
            slow = (ce_diff(G.algebra, codifferential(G.algebra, G.metric, G.phi))
                    + codifferential(G.algebra, G.metric, ce_diff(G.algebra, G.phi)))
            assert _laplacian_form(G).allclose(slow, tol=1e-10)


_PERMS7 = np.array(list(itertools.permutations(range(7))))
_SIGNS7 = np.array([perm_sign(p) for p in _PERMS7], dtype=float)
_KERNEL_CATALOG = ("std_g2", "n2", "n4", "n6", "n12_modified_basis", "s_ext_h2")


def _oracle_metric(phi):
    """g from its definition g_ij vol_g = 1/6 iota_i phi ^ iota_j phi ^ phi,
    with B_ij = 1/24 eps^{abcdefg} phi_iab phi_jcd phi_efg summed over S_7."""
    t = dense(phi)
    p = _PERMS7.T
    B = ((t[:, p[0], p[1]] * (_SIGNS7 * t[p[4], p[5], p[6]])) @ t[:, p[2], p[3]].T) / 24.0
    det_b = np.linalg.det(B)
    det_g = (abs(det_b) / 6.0 ** 7) ** (2.0 / 9.0)
    return SimpleNamespace(g=np.sign(det_b) * B / (6.0 * math.sqrt(det_g)))


def _oracle_laplacian(algebra, phi):
    """d delta phi + delta d phi with delta = (-1)^k star d star on k-forms in
    dimension 7, every star the brute-force one of tests/oracles."""
    g = _oracle_metric(phi)
    delta_phi = -1.0 * brute_hodge(g, ce_diff(algebra, brute_hodge(g, phi)))
    dphi = ce_diff(algebra, phi)
    delta_dphi = brute_hodge(g, ce_diff(algebra, brute_hodge(g, dphi)))
    return (ce_diff(algebra, delta_phi) + delta_dphi).to_vector()


def _assert_matches_oracle(algebra, phi):
    expected = _oracle_laplacian(algebra, phi)
    got = phi_laplacian(algebra, phi.to_vector())
    np.testing.assert_allclose(got, expected, rtol=1e-10,
                               atol=1e-10 * np.linalg.norm(expected))


def _assert_matches_metric_star(algebra, phi_vec):
    # the kernel against the same Laplacian through a full Metric and four stars
    want = metric_star_laplacian(algebra, phi_vec)
    np.testing.assert_allclose(phi_laplacian(algebra, phi_vec), want, rtol=0,
                               atol=1e-13 * np.linalg.norm(want))


_INDEFINITE_CORPUS_PHI = parse_document(
    (CORPUS / "broken" / "indefinite_phi.g2").read_text(encoding="utf-8")).forms["phi"]
# a split form: its B has three positive and four negative eigenvalues
_SPLIT_PHI = KForm(7, 3, {(1, 2, 3): 1.0, (1, 4, 5): 1.0, (1, 6, 7): 1.0, (2, 4, 6): 1.0,
                          (2, 5, 7): -1.0, (3, 4, 7): 1.0, (3, 5, 6): 1.0})


class TestPhiLaplacianKernel:
    @pytest.mark.parametrize("name", _KERNEL_CATALOG)
    @pytest.mark.parametrize("scale", [0.3, 1.0, 2.7])
    def test_catalog_against_brute_force(self, name, scale):
        entry = catalog(name)
        _assert_matches_oracle(entry.algebra, scale * entry.forms["phi"])

    @settings(max_examples=12, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(_KERNEL_CATALOG),
           st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([1.0, -1.0]))
    def test_random_positive_forms(self, phi, name, log10_scale, orientation):
        # -phi is the same metric with the opposite orientation
        _assert_matches_oracle(catalog(name).algebra,
                               (orientation * 10.0 ** log10_scale) * phi)

    @pytest.mark.parametrize("name", _KERNEL_CATALOG)
    @pytest.mark.parametrize("scale", [1e-2, -0.3, 1.0, -1.0, 2.7, 1e2])
    def test_catalog_against_metric_star_kernel(self, name, scale):
        entry = catalog(name)
        v = scale * entry.forms["phi"].to_vector()
        _assert_matches_metric_star(entry.algebra, v)
        assert np.array_equal(phi_laplacian(entry.algebra, -v), -phi_laplacian(entry.algebra, v))

    @settings(max_examples=25, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(_KERNEL_CATALOG),
           st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([1.0, -1.0]))
    def test_random_against_metric_star_kernel(self, phi, name, log10_scale, orientation):
        _assert_matches_metric_star(catalog(name).algebra,
                                    (orientation * 10.0 ** log10_scale) * phi.to_vector())

    @settings(max_examples=15, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(_KERNEL_CATALOG),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_odd_in_phi_bit_for_bit(self, phi, name, log10_scale):
        # -phi has the same metric with the opposite orientation
        algebra, v = catalog(name).algebra, 10.0 ** log10_scale * phi.to_vector()
        assert np.array_equal(phi_laplacian(algebra, -v), -phi_laplacian(algebra, v))

    @pytest.mark.parametrize("phi,reason", [
        (KForm.basis(7, (1, 2, 3)), "det B = 0"),
        (_INDEFINITE_CORPUS_PHI, "det B = 0"),
        (_SPLIT_PHI, "metric not positive definite"),
        (-_SPLIT_PHI, "metric not positive definite"),
    ])
    def test_rejection_matches_structure(self, phi, reason):
        messages = []
        for build in (lambda: phi_laplacian(N2, phi.to_vector()),
                      lambda: _closed_phi_laplacian(N2, phi.to_vector()),
                      lambda: metric_star_laplacian(N2, phi.to_vector()),
                      lambda: G2Structure(N2, phi)):
            with pytest.raises(PositivityError) as info:
                build()
            messages.append(str(info.value))
        assert messages == [f"not a positive G2 form ({reason})"] * 4

    def test_structure_method_is_the_kernel(self, catalog_structures):
        for G in catalog_structures.values():
            assert np.array_equal(G.laplacian_vec(), phi_laplacian(G.algebra, G.phi.to_vector()))

    def test_degenerate_rejected(self):
        with pytest.raises(PositivityError, match="det B = 0"):
            phi_laplacian(N2, KForm.basis(7, (1, 2, 3)).to_vector())

    def test_indefinite_corpus_form_rejected(self):
        doc = parse_document((CORPUS / "broken" / "indefinite_phi.g2").read_text(encoding="utf-8"))
        with pytest.raises(PositivityError):
            phi_laplacian(doc.algebra, doc.forms["phi"].to_vector())

    @pytest.mark.parametrize("n_steps,sample_every", [(1, 10), (7, 3), (12, 4)])
    def test_flow_evaluation_count(self, monkeypatch, n_steps, sample_every):
        # four kernel calls per step plus one at phi0; the samples reuse the
        # kernel's metric factors, so no G2Structure (and no torsion) is built,
        # and the one Metric per sampled state is all the flow builds
        calls, builds, metrics = [], [], []
        real_kernel, real_init = flow_mod._closed_phi_laplacian, G2Structure.__init__
        real_from_factors, real_metric_init = Metric._from_factors.__func__, Metric.__init__

        def counted(algebra, phi_vec):
            calls.append(None)
            return real_kernel(algebra, phi_vec)

        def counted_init(self, algebra, phi):
            builds.append(None)
            real_init(self, algebra, phi)

        def counted_from_factors(cls, g, inverse, sqrt_det):
            metrics.append(None)
            return real_from_factors(cls, g, inverse, sqrt_det)

        def counted_metric_init(self, matrix):
            metrics.append(None)
            real_metric_init(self, matrix)

        monkeypatch.setattr(flow_mod, "_closed_phi_laplacian", counted)
        monkeypatch.setattr(G2Structure, "__init__", counted_init)
        monkeypatch.setattr(Metric, "_from_factors", classmethod(counted_from_factors))
        monkeypatch.setattr(Metric, "__init__", counted_metric_init)
        traj = flow_integrate(N2, closed_form_n2(0.0), n_steps * 1e-2, 1e-2,
                              FlowOptions(sample_every=sample_every))
        assert traj.termination == "reached_t_end"
        assert len(calls) == 4 * n_steps + 1
        assert builds == []
        assert len(metrics) == len(traj.states)
        G2Structure(N2, closed_form_n2(0.0))
        assert len(builds) == 1  # the counters see a build and its Metric
        assert len(metrics) == len(traj.states) + 1


def _jacobian_norm(algebra, v, step=1e-6):
    """Frobenius norm of the central-difference Jacobian of the closed kernel,
    an upper bound on its spectral norm: the local Lipschitz constant."""
    cols = [(_closed_phi_laplacian(algebra, v + step * e)[2]
             - _closed_phi_laplacian(algebra, v - step * e)[2]) / (2.0 * step) for e in np.eye(35)]
    return float(np.linalg.norm(cols))


class TestClosedKernel:
    @pytest.mark.parametrize("name", CLOSED_CATALOG)
    @pytest.mark.parametrize("scale", [1.0, -1.0])
    def test_catalog_bit_equal_to_full_laplacian(self, name, scale):
        # d phi = 0 exactly, so the delta d phi half adds zeros (other scales of
        # n12_modified_basis's irrational coefficients leave d phi at roundoff)
        entry = catalog(name)
        v = scale * entry.forms["phi"].to_vector()
        (g, inverse, sqrt_det), delta_phi, lap = _closed_phi_laplacian(entry.algebra, v)
        assert np.array_equal(lap, phi_laplacian(entry.algebra, v))
        # the metric factors it returns are the structure's, bit for bit, and
        # delta phi is the codifferential taken through KForm stars
        G = G2Structure(entry.algebra, KForm.from_vector(7, 3, v))
        assert np.array_equal(g, G.metric.g) and np.array_equal(inverse, G.metric.inverse)
        assert sqrt_det == G.metric.sqrt_det
        want = codifferential(entry.algebra, G.metric, G.phi).to_vector()
        assert np.abs(delta_phi - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(closed_perturbation())
    def test_closed_perturbations_match_full_laplacian(self, case):
        algebra, v = case
        got = _closed_phi_laplacian(algebra, v)[2]
        for want in (phi_laplacian(algebra, v), metric_star_laplacian(algebra, v)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=15, deadline=None)
    @given(closed_perturbation(), st.floats(min_value=-2.0, max_value=2.0))
    def test_odd_in_phi_bit_for_bit(self, case, log10_scale):
        algebra, v = case
        v = 10.0 ** log10_scale * v
        assert np.array_equal(_closed_phi_laplacian(algebra, -v)[2],
                              -_closed_phi_laplacian(algebra, v)[2])

    def test_dense_trajectory_stays_exact_and_matches_full_laplacian(self, monkeypatch):
        # n6's form plus a seeded exact 3-form of a fifth of its size
        algebra, phi = catalog("n6").algebra, catalog("n6").forms["phi"].to_vector()
        d2 = algebra.diff_matrix(2)
        dbeta = d2 @ np.random.default_rng(6).standard_normal(d2.shape[1])
        v0 = phi + 0.2 * np.linalg.norm(phi) * dbeta / np.linalg.norm(dbeta)
        phi0, n_steps, h = KForm.from_vector(7, 3, v0), 200, 1e-3
        assert np.count_nonzero(v0) > np.count_nonzero(phi)
        deltas, points, stages, gaps = [], [], [], []

        def recorded(kernel):
            def rhs(algebra, v):
                point = kernel(algebra, v)
                points.append(v)
                deltas.append(np.linalg.norm(point[1]))
                stages.append(np.linalg.norm(point[2]))
                return point
            return rhs

        def full_laplacian(algebra, v):
            m, delta_phi, closed_lap = _closed_phi_laplacian(algebra, v)
            lap = phi_laplacian(algebra, v)
            gaps.append(np.linalg.norm(lap - closed_lap))
            return m, delta_phi, lap

        monkeypatch.setattr(flow_mod, "_closed_phi_laplacian", recorded(_closed_phi_laplacian))
        closed = flow_integrate(algebra, phi0, n_steps * h, h, FlowOptions(sample_every=n_steps))
        monkeypatch.setattr(flow_mod, "_closed_phi_laplacian", recorded(full_laplacian))
        full = flow_integrate(algebra, phi0, n_steps * h, h, FlowOptions(sample_every=n_steps))
        assert closed.termination == full.termination == "reached_t_end"
        # every fourth evaluation is at phi0 or an accepted state
        assert len(points) == 2 * (4 * n_steps + 1)
        vecs, full_vecs = points[:4 * n_steps + 1:4], points[4 * n_steps + 1::4]

        # Rounding of one step, with u the unit roundoff and gamma_m = m u / (1 - m u):
        # each stage k = fl(d2 @ delta) is d2 delta within gamma_21 |||d2|||_2 |delta|;
        # fl(k1 + 2 k2 + 2 k3 + k4) is within gamma_3 6 K (K the largest |k|), and
        # the product with fl(h / 6) adds 2 u h K; adding to phi adds u |phi|.
        u = np.finfo(float).eps / 2.0
        gamma = lambda m: m * u / (1.0 - m * u)
        per_step = (u * max(np.linalg.norm(v) for v in vecs)
                    + h * (gamma(d2.shape[1]) * np.linalg.norm(np.abs(d2), 2) * max(deltas)
                           + (gamma(3) + 2.0 * u) * max(stages)))
        # the residual of phi - phi0 off im(d2), through the left singular vectors
        # of d2; a backward-stable SVD tilts that range by ~35 u |d2| / sigma_r
        U, sigma, _ = np.linalg.svd(d2)
        rank = int(np.sum(sigma > 35 * u * sigma[0]))
        off_image = lambda x: np.linalg.norm(x - U[:, :rank] @ (U[:, :rank].T @ x))
        measure = 35 * u * (sigma[0] / sigma[rank - 1] + 1.0)
        for step, v in enumerate(vecs):
            drift = v - v0
            assert off_image(drift) <= step * per_step + measure * np.linalg.norm(drift)

        # Both runs take the same steps but for the delta d phi term of the full
        # one (at most max(gaps) per stage) and their own roundings (per_step
        # each); an RK4 step of a field with Lipschitz constant L is Lipschitz
        # with constant e^{hL} or less, so the gap after n steps is at most
        # e^{n h L} n (h max(gaps) + 2 per_step).
        L = max(_jacobian_norm(algebra, v) for v in vecs)
        bound = math.exp(n_steps * h * L) * n_steps * (h * max(gaps) + 2.0 * per_step)
        assert np.linalg.norm(vecs[-1] - full_vecs[-1]) <= bound


U = np.finfo(float).eps / 2.0  # unit roundoff


def _gamma(m):
    return m * U / (1.0 - m * U)


def _magnitude(M, t, degree, gather):
    # the compound of M on the dense tensor t, evaluated on |M| and |t|: the
    # sum of |products| that bounds the rounding of each computed entry
    return _compound_dense(np.abs(M), np.abs(t), degree)[gather]


def _delta_phi_magnitudes(algebra, v, g, ginv):
    """(|psi|, |delta phi|, |delta phi|_g^2) magnitudes: delta phi = -C_2(g)
    compl(d4 compl(C_3(g^-1) phi)) and its g-norm evaluated on absolute values."""
    perm, _ = _complement_gather(7, 3)
    psi = _magnitude(ginv, _dense(v, 7, 3), 3, _dense_tables(7, 3)[3][perm])
    x = np.abs(algebra.diff_matrix(4)) @ psi
    flat2 = _dense_tables(7, 2)[3]
    delta = _magnitude(g, _dense(_complement(x, 7, 5), 7, 2), 2, flat2)
    return psi, delta, float(delta @ _magnitude(ginv, _dense(delta, 7, 2), 2, flat2))


def _tau1_bound(g, sqrt_det, v, dphi):
    """|tau1| = |1/12 star_6(star_4(d phi) ^ phi)| <= 1/12 (|g|^4 / det g) sqrt(20)
    |phi| |d phi|: a 4-form star is C_3(g) / sqrt(det g) (norm |g|^3 / sqrt(det g)),
    a 6-form star C_1(g) / sqrt(det g), and each 6-tuple splits 20 ways into
    3 + 3; |g| is the norm of the entrywise |g|, so the rounded tau1 obeys it
    too, up to a factor 1 + gamma_60."""
    ng = np.linalg.norm(np.abs(g), 2)
    return ((1.0 + _gamma(60)) * ng ** 4 / sqrt_det ** 2 * math.sqrt(20.0)
            * np.linalg.norm(v) * dphi / 12.0)


def _sampled_states(algebra, v, n_steps=3, h=1e-2):
    """(state, phi vector) of each step of a short flow from v; the accepted
    points are every fourth kernel evaluation, and each state's phi is its
    point's vector itself, so a G2Structure of it sits at the same point."""
    points, real = [], flow_mod._closed_phi_laplacian

    def recorded(algebra, phi_vec):
        points.append(phi_vec)
        return real(algebra, phi_vec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow_mod, "_closed_phi_laplacian", recorded)
        traj = flow_integrate(algebra, KForm.from_vector(7, 3, v), n_steps * h, h,
                              FlowOptions(sample_every=1))
    assert traj.termination == "reached_t_end" and len(traj.states) == n_steps + 1
    pairs = list(zip(traj.states, points[::4]))
    for state, w in pairs:
        assert state.phi.to_vector().tobytes() == (w + 0.0).tobytes()
    return pairs


def _structure(algebra, v):
    return G2Structure(algebra, KForm.from_vector(7, 3, v))


def _assert_tau2_norm(algebra, state, v):
    """tau2_norm = |delta phi|_g against |tau2|_g of `torsion_forms`.

    Both compute delta phi = eps tau2 = -star d star phi from the same metric,
    which needs d phi = 0 only through tau1.  First-order rounding, u the unit
    roundoff and gamma_m = m u / (1 - m u), with |.| the same formula on
    absolute values (`_delta_phi_magnitudes`): the kernel's delta phi is within
    gamma_70 |delta phi| entrywise (C_3: 21 terms per entry, d4: 35, C_2: 14);
    the torsion path adds the sqrt(det g) scaling, its division and the tau1
    subtraction (gamma_73), its term 4 C_2(g) compl(tau1 ^ psi) / sqrt(det g),
    at most 4 |g|^2 sqrt(5) |tau1| |psi| (a 5-tuple splits 5 ways into 1 + 4).
    The g-norm is at most |g^-1| times the Euclidean norm (C_2(g^-1) has
    eigenvalues <= |g^-1|^2); each norm's quadratic form rounds within
    gamma_35 |.|^2 and its root adds u.
    """
    G = _structure(algebra, v)
    m, got = G.metric, state.diagnostics["tau2_norm"]
    tors = torsion_forms(G)
    want = math.sqrt(max(form_inner(m, tors.tau2, tors.tau2), 0.0))
    psi, delta, q = _delta_phi_magnitudes(algebra, v, m.g, m.inverse)
    dphi = state.diagnostics["closedness"]
    tau1 = _tau1_bound(m.g, m.sqrt_det, v, dphi)
    ng, ni = np.linalg.norm(np.abs(m.g), 2), np.linalg.norm(m.inverse, 2)
    vector_gap = (_gamma(143) * np.linalg.norm(delta)
                  + 4.0 * ng ** 2 * math.sqrt(5.0) * tau1 * np.linalg.norm(psi))
    dq = _gamma(35) * q
    root_gap = min(math.sqrt(dq), dq / max(got, want, 1e-300))
    bound = ni * vector_gap + 2.0 * root_gap + 2.0 * U * max(got, want)
    assert abs(got - want) <= bound


def _assert_scal_identity(algebra, state, v):
    """scalar_curvature against -1/2 tau2_norm^2 (Bryant, closed phi).

    The two sides share only the metric (g, g^-1); the identity holds for the
    exact metric of phi and exact d phi = 0.  First-order terms, |.| the
    formulas on absolute values:
      * rounding of scal: gamma_114 |scal| (Besse's formula,
        `conftest.scal_magnitude`: |mu|_g^2 raises two indices, 7 terms deep
        each, pairs with the bracket over 49 and contracts with g over 49,
        112; the Killing term 49 + 1 + 49 and the trace term 6 + 7 + 7 are
        shallower; two sums combine the three);
      * rounding of tau2_norm^2: gamma_178 |delta phi|_g^2 / 2 (delta phi twice
        gamma_70, the quadratic form gamma_35, root and square 3 u);
      * the metric's own error: B within gamma_99 |A| |C| |A|^T / 4, Cholesky
        det B within 7 |B^-1| |Delta B| + gamma_7 with |Delta B| <= gamma_8 |L| |L^T|,
        the ninth root and scaling gamma_3 more, so g is within eps_g |g|;
        g^-1 within kappa(g) (eps_g + gamma_49) |g^-1|; both sides moved by these
        entrywise errors, read off the magnitudes with |g| and |g^-1| raised by them;
      * d phi, exact |d phi| <= closedness + gamma_35 |d3| |phi|: 12 |delta tau1|
        <= 12 |d6| |g^-1| |tau1| and |tau2|_g |star(4 tau1 ^ psi)|_g.
    """
    G = _structure(algebra, v)
    m, t = G.metric, state.diagnostics["tau2_norm"]
    got = state.diagnostics["scalar_curvature"]
    g, ginv = m.g, m.inverse
    n = 7
    # the metric's error
    A = np.abs(_dense(v, 7, 3).reshape(7, 49))
    B_mag = A @ (np.abs(_dense(_complement(v, 7, 3), 7, 4)).reshape(49, 49) @ A.T) / 4.0
    B = g2core_mod._gram(G.phi.to_vector())[1]
    L = np.linalg.cholesky(G.orientation * B)
    binv = np.linalg.norm(np.linalg.inv(B), 2)
    dB = _gamma(99) * np.linalg.norm(B_mag, 2)
    eps_det = n * binv * (dB + _gamma(8) * np.linalg.norm(np.abs(L) @ np.abs(L.T), 2)) + _gamma(7)
    eps_g = eps_det / 9.0 + _gamma(3) + dB / np.linalg.norm(B, 2) + U
    eps_i = np.linalg.cond(g) * (eps_g + _gamma(49))
    E = eps_g * np.linalg.norm(g, 2) * np.ones((n, n))
    Ei = eps_i * np.linalg.norm(ginv, 2) * np.ones((n, n))

    def side_magnitudes(gm, im):
        return scal_magnitude(algebra, gm, im), _delta_phi_magnitudes(algebra, v, gm, im)[2]

    scal_mag, q = side_magnitudes(np.abs(g), np.abs(ginv))
    scal_up, q_up = side_magnitudes(np.abs(g) + E, np.abs(ginv) + Ei)
    # d phi
    dphi = (state.diagnostics["closedness"]
            + _gamma(35) * np.linalg.norm(np.abs(algebra.diff_matrix(3)) @ np.abs(v)))
    tau1 = _tau1_bound(g, m.sqrt_det, v, dphi)
    psi = _delta_phi_magnitudes(algebra, v, g, ginv)[0]
    ng, ni = np.linalg.norm(np.abs(g), 2), np.linalg.norm(ginv, 2)
    torsion = (12.0 * np.linalg.norm(algebra.diff_matrix(6), 2) * ni * tau1
               + t * ni * ng ** 2 * 4.0 * math.sqrt(5.0) * tau1 * np.linalg.norm(psi))
    bound = (_gamma(114) * scal_mag + _gamma(178) * q / 2.0
             + (scal_up - scal_mag) + (q_up - q) / 2.0 + torsion)
    assert abs(got + 0.5 * t * t) <= bound


class TestSampledStates:
    """The flow's sampled diagnostics against formulas that share no code with
    `flow._state`: `torsion_forms` for tau2 and Bryant's scal = -|tau2|^2 / 2."""

    @pytest.mark.parametrize("name", CLOSED_CATALOG)
    @pytest.mark.parametrize("scale", [1.0, -1.0, 0.5, 3.0])
    def test_catalog(self, name, scale):
        entry = catalog(name)
        for state, v in _sampled_states(entry.algebra, scale * entry.forms["phi"].to_vector()):
            _assert_tau2_norm(entry.algebra, state, v)
            _assert_scal_identity(entry.algebra, state, v)

    @settings(max_examples=25, deadline=None)
    @given(closed_perturbation(), st.sampled_from([1.0, -1.0]))
    def test_closed_perturbations(self, case, orientation):
        algebra, v = case
        for state, w in _sampled_states(algebra, orientation * v):
            _assert_tau2_norm(algebra, state, w)
            _assert_scal_identity(algebra, state, w)

    @pytest.mark.parametrize("name", CLOSED_CATALOG)
    def test_state_reads_the_codifferential(self, name):
        # each sampled state's metric factors and delta phi, which the kernel
        # returned at its vector, against `_closed_phi_laplacian` there afresh,
        # and its diagnostics against those fresh values
        entry, points, real = catalog(name), [], flow_mod._closed_phi_laplacian

        def recorded(algebra, phi_vec):
            point = real(algebra, phi_vec)
            points.append((phi_vec, point))
            return point

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flow_mod, "_closed_phi_laplacian", recorded)
            traj = flow_integrate(entry.algebra, entry.forms["phi"], 3e-2, 1e-2,
                                  FlowOptions(sample_every=1))
        assert len(traj.states) == 4 and len(points) == 13
        for state, (v, ((g, inverse, sqrt_det), delta_phi, _)) in zip(traj.states, points[::4]):
            (want_g, want_inverse, want_sqrt_det), want_delta, _ = real(entry.algebra, v)
            for got, want in ((g, want_g), (inverse, want_inverse), (delta_phi, want_delta)):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            d = state.diagnostics
            tau2 = math.sqrt(want_delta @ _compound_apply(want_inverse, want_delta, 2))
            scal = scalar_curvature(entry.algebra, Metric(want_g))
            for got, want in ((sqrt_det, want_sqrt_det), (d["volume_density"], want_sqrt_det),
                              (d["tau2_norm"], tau2), (d["scalar_curvature"], scal)):
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_volume_density_is_the_structure_volume(self):
        entry = catalog("n6")
        for state, v in _sampled_states(entry.algebra, entry.forms["phi"].to_vector()):
            assert state.diagnostics["volume_density"] == _structure(entry.algebra, v).metric.sqrt_det


class TestClosedFormSolutions:
    def test_initial_conditions(self):
        assert closed_form_n2(0.0).allclose(catalog("n2").forms["phi"], tol=0)
        assert closed_form_n12(0.0).allclose(
            catalog("n12_modified_basis").forms["phi"], tol=0)

    def test_existence_interval(self):
        with pytest.raises(ValueError):
            closed_form_n2(-0.31)
        with pytest.raises(ValueError):
            closed_form_n12(-3.0)
        closed_form_n2(-0.29)
        closed_form_n12(-2.9)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("fn", [closed_form_n2, closed_form_n2_velocity,
                                    closed_form_n12, closed_form_n12_velocity])
    def test_non_finite_time_rejected(self, fn, t):
        with pytest.raises(ValueError, match=f"t = {t} outside the existence interval"):
            fn(t)

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    def test_ode_residual_n2(self, t):
        res = oracle_residual(N2, closed_form_n2, closed_form_n2_velocity, [t])
        assert res[t] < 1e-9

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    def test_ode_residual_n12(self, t):
        res = oracle_residual(N12M, closed_form_n12, closed_form_n12_velocity, [t])
        assert res[t] < 1e-9

    @pytest.mark.parametrize("algebra, solution, velocity", [
        (N2, closed_form_n2, closed_form_n2_velocity),
        (N12M, closed_form_n12, closed_form_n12_velocity)], ids=["n2", "n12"])
    def test_oracle_residual_builds_no_structure(self, monkeypatch, algebra, solution,
                                                 velocity):
        times = [0.0, 0.5, 1.0, 10.0, 100.0]
        builds, real_init = [], G2Structure.__init__

        def counted_init(self, algebra, phi):
            builds.append(None)
            real_init(self, algebra, phi)

        monkeypatch.setattr(G2Structure, "__init__", counted_init)
        res = oracle_residual(algebra, solution, velocity, times)
        assert builds == []
        # bit-equal to the residual through a G2Structure's Laplacian
        assert res == {t: (velocity(t) - _laplacian_form(G2Structure(algebra, solution(t))))
                       .sup_norm() for t in times}
        assert len(builds) == len(times)  # the counter sees the builds

    def test_torsion_norm_decreases(self):
        from g2lab.g2core import torsion_forms
        squares = []
        for t in (0.0, 1.0, 5.0, 25.0, 125.0):
            G = G2Structure(N2, closed_form_n2(t))
            tf = torsion_forms(G)
            squares.append(form_inner(G.metric, tf.tau2, tf.tau2))
        assert all(b < a for a, b in zip(squares, squares[1:]))


class TestIntegration:
    def test_n2_matches_closed_form(self):
        traj = flow_integrate(N2, closed_form_n2(0.0), 0.5, 1e-3,
                              FlowOptions(sample_every=100))
        exact = (10.0 / 3.0 * 0.5 + 1.0) ** 0.6
        got = traj.final.phi.coefficient((1, 2, 3))
        assert traj.termination == "reached_t_end"
        assert abs(got - exact) < 1e-8
        # untouched coefficients stay put
        assert abs(traj.final.phi.coefficient((1, 4, 7)) - 1.0) < 1e-10

    def test_sample_times_are_multiples_of_dt(self):
        # interior samples sit at k * sample_every * dt exactly, where a running
        # sum of 0.1 reads 0.7999999999999999 after 8 steps; the last step ends on t_end
        dt, every = 0.1, 2
        traj = flow_integrate(N2, closed_form_n2(0.0), 1.05, dt, FlowOptions(sample_every=every))
        assert traj.termination == "reached_t_end"
        assert [s.t for s in traj.states] == [0.0] + [k * every * dt for k in range(1, 6)] + [1.05]

    def test_n12_matches_closed_form(self):
        traj = flow_integrate(N12M, closed_form_n12(0.0), 0.5, 1e-3,
                              FlowOptions(sample_every=100))
        exact = (0.5 / 3.0 + 1.0) ** 0.75
        assert abs(traj.final.phi.coefficient((1, 3, 5)) - exact) < 1e-8

    def test_last_step_lands_on_t_end(self):
        # n steps of dt sum to t_end only up to roundoff (ten steps of 0.1 sum
        # to 0.9999999999999999); the last step is what is left of t_end
        for t_end in (0.1, 0.3, 1.0, 1.1, 2.0):
            for dt in (0.1, 0.3, 0.01, 0.2, 0.07):
                traj = flow_integrate(N2, closed_form_n2(0.0), t_end, dt,
                                      FlowOptions(sample_every=1000))
                assert traj.termination == "reached_t_end"
                assert traj.final.t == t_end, (t_end, dt)

    def test_torsion_free_is_stationary(self):
        traj = flow_integrate(STD.algebra, STD.forms["phi"], 1.0, 1e-2)
        diff = traj.final.phi - STD.forms["phi"]
        assert diff.norm() < 1e-9

    def test_states_and_diagnostics(self):
        traj = flow_integrate(N2, closed_form_n2(0.0), 0.2, 1e-2,
                              FlowOptions(sample_every=5))
        times = [s.t for s in traj.states]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        for s in traj.states:
            assert set(s.diagnostics) == {"closedness", "tau2_norm", "scalar_curvature",
                                          "volume_density", "laplacian_norm"}
            assert s.diagnostics["closedness"] < 1e-10
        vols = [s.diagnostics["volume_density"] for s in traj.states]
        assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))

    def test_rejects_non_closed_initial(self):
        bad = STD.forms["phi"] + KForm(7, 3, {(1, 2, 4): 1e-6})
        with pytest.raises(ValueError, match="not closed"):
            flow_integrate(N2, bad, 1.0, 1e-2)

    @pytest.mark.parametrize("name", CLOSED_CATALOG[1:] + ("n12_modified_basis+d(beta)",))
    def test_closedness_check_is_relative(self, name):
        # |d phi0| against |phi0|: a closed form is accepted at every scale,
        # although roundoff can give it |d phi0| > 1e-10 at large ones, and the
        # same form plus 1e-3 of a non-closed basis form is rejected at every
        # scale, although |d phi0| < 1e-10 at small ones.  Delta(c phi) =
        # c^{1/3} Delta phi, so dt scaled by c^{2/3} takes the same steps.
        entry = catalog(name.split("+")[0])
        algebra, v = entry.algebra, entry.forms["phi"].to_vector()
        d2, d3 = algebra.diff_matrix(2), algebra.diff_matrix(3)
        if name.endswith("+d(beta)"):
            dbeta = d2 @ np.random.default_rng(5).standard_normal(d2.shape[1])
            v = v + 0.2 * np.linalg.norm(v) * dbeta / np.linalg.norm(dbeta)
        leak = np.eye(35)[np.flatnonzero(np.abs(d3).sum(axis=0))[0]]
        for c in 10.0 ** np.arange(-8, 13):
            h = 1e-2 * c ** (2.0 / 3.0)
            traj = flow_integrate(algebra, KForm.from_vector(7, 3, c * v), 2 * h, h)
            assert traj.termination == "reached_t_end"
            with pytest.raises(ValueError, match="^initial form is not closed"):
                flow_integrate(algebra, KForm.from_vector(7, 3, c * (v + 1e-3 * leak)), 2 * h, h)

    def test_rejects_non_positive_initial(self):
        closed_but_degenerate = KForm.basis(7, (1, 2, 3))
        with pytest.raises(PositivityError):
            flow_integrate(STD.algebra, closed_but_degenerate, 1.0, 1e-2)

    def test_step_cap(self):
        # t = 1 at dt = 1e-9 is 10^9 steps, above the fixed cap
        assert MAX_STEPS < 10 ** 9
        with pytest.raises(ValueError, match=f"^1000000000 steps exceed the cap of {MAX_STEPS}$"):
            flow_integrate(N2, closed_form_n2(0.0), 1.0, 1e-9)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["t_end", "dt"])
    def test_rejects_non_finite_times(self, name, value):
        times = {"t_end": 0.02, "dt": 1e-2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            flow_integrate(N2, closed_form_n2(0.0), times["t_end"], times["dt"])

    @pytest.mark.parametrize("t_end, dt", [(-1.0, 1e-2), (0.02, 0.0), (0.0, 1e-2)])
    def test_rejects_non_positive_times(self, t_end, dt):
        with pytest.raises(ValueError, match="^t_end and dt must be positive$"):
            flow_integrate(N2, closed_form_n2(0.0), t_end, dt)

    def test_step_count_overflow_hits_cap(self):
        with pytest.raises(ValueError, match="^inf steps exceed the cap"):
            flow_integrate(N2, closed_form_n2(0.0), 1e300, 1e-300)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-10])
    def test_rejects_bad_closedness_tol(self, tol):
        # NaN would pass the drift limit max(10 |d phi0|, nan) silently
        with pytest.raises(ValueError, match=f"^closedness_tol must be finite and "
                                             f"non-negative, got {tol}$"):
            flow_integrate(N2, closed_form_n2(0.0), 0.02, 1e-2,
                           FlowOptions(closedness_tol=tol))

    def test_zero_closedness_tol_accepted(self):
        traj = flow_integrate(N2, closed_form_n2(0.0), 0.02, 1e-2, FlowOptions(closedness_tol=0.0))
        assert traj.termination == "reached_t_end"

    @pytest.mark.parametrize("sample_every", [0, -5])
    def test_rejects_sample_every_below_one(self, sample_every):
        with pytest.raises(ValueError, match=f"sample_every must be at least 1, got {sample_every}"):
            flow_integrate(N2, closed_form_n2(0.0), 0.02, 1e-2,
                           FlowOptions(sample_every=sample_every))

    def test_positivity_loss_truncates(self, monkeypatch):
        real = flow_mod._closed_phi_laplacian

        def guarded(algebra, phi_vec):
            if phi_vec[0] > 1.5:  # the e^{123} coefficient
                raise PositivityError("synthetic cone exit")
            return real(algebra, phi_vec)

        monkeypatch.setattr(flow_mod, "_closed_phi_laplacian", guarded)
        traj = flow_integrate(N2, closed_form_n2(0.0), 2.0, 1e-2)
        assert traj.termination == "positivity_lost"
        assert traj.final.t < 2.0
        assert traj.final.phi.coefficient((1, 2, 3)) <= 1.5

    def test_closedness_violation_truncates(self, monkeypatch):
        # a right-hand side with a fixed non-closed part drifts |d phi| by
        # h 1e-9 |d e^{456}| = 1.4e-11 a step, past the 1e-10 limit within 8
        # steps; the limit is closedness_tol |phi0|, so the tolerance is
        # 1e-10 / |phi0|
        real = flow_mod._closed_phi_laplacian
        leak = 1e-9 * KForm.basis(7, (4, 5, 6)).to_vector()
        assert np.linalg.norm(N2.diff_matrix(3) @ leak) > 0

        def leaking(algebra, phi_vec):
            m, delta_phi, lap = real(algebra, phi_vec)
            return m, delta_phi, lap + leak

        monkeypatch.setattr(flow_mod, "_closed_phi_laplacian", leaking)
        v0 = closed_form_n2(0.0).to_vector()
        options = FlowOptions(sample_every=1, closedness_tol=1e-10 / math.sqrt(v0 @ v0))
        traj = flow_integrate(N2, closed_form_n2(0.0), 1.0, 1e-2, options)
        assert traj.termination == "closedness_violated"
        assert 0.0 < traj.final.t < 0.1
        assert 0.0 < traj.final.diagnostics["closedness"] <= 1e-10
        # each sample carries the |d phi| the guard compared
        for state in traj.states:
            assert state.diagnostics["closedness"] == float(
                np.linalg.norm(N2.diff_matrix(3) @ state.phi.to_vector()))

    def test_closedness_limit_is_relative(self, monkeypatch):
        # Delta(c phi) = c^{1/3} Delta phi, so with dt scaled by c^{2/3} and a
        # leak in the right-hand side scaled by c^{1/3}, the trajectory from
        # c phi0 is c times the one from phi0 step by step, |d phi| included;
        # a limit relative to |phi0| truncates it at the same step at every
        # scale, where an absolute one would watch nothing at small scales
        real = flow_mod._closed_phi_laplacian
        leak = 1e-9 * KForm.basis(7, (4, 5, 6)).to_vector()
        v0 = closed_form_n2(0.0).to_vector()
        options = FlowOptions(sample_every=1, closedness_tol=1e-10 / math.sqrt(v0 @ v0))
        steps = []
        for c in 10.0 ** np.arange(-8, 9, 2):
            def leaking(algebra, phi_vec, c=c):
                m, delta_phi, lap = real(algebra, phi_vec)
                return m, delta_phi, lap + c ** (1.0 / 3.0) * leak

            monkeypatch.setattr(flow_mod, "_closed_phi_laplacian", leaking)
            h = 1e-2 * c ** (2.0 / 3.0)
            traj = flow_integrate(N2, KForm.from_vector(7, 3, c * v0), 100 * h, h, options)
            assert traj.termination == "closedness_violated"
            assert 0.0 < traj.final.diagnostics["closedness"] <= 1e-10 * c * (1 + 1e-12)
            steps.append(len(traj.states) - 1)
        assert steps == [steps[0]] * len(steps) and 1 < steps[0] < 10


class TestConvergenceOrder:
    def test_fourth_order(self):
        exact = (10.0 / 3.0 * 0.5 + 1.0) ** 0.6
        errors = []
        for dt in (2e-2, 1e-2, 5e-3):
            traj = flow_integrate(N2, closed_form_n2(0.0), 0.5, dt,
                                  FlowOptions(sample_every=10 ** 6))
            errors.append(abs(traj.final.phi.coefficient((1, 2, 3)) - exact))
        for a, b in zip(errors, errors[1:]):
            assert 12.0 < a / b < 20.0


class TestCsvExport:
    def test_column_layout_and_values(self, tmp_path):
        traj = flow_integrate(N2, closed_form_n2(0.0), 0.1, 1e-2,
                              FlowOptions(sample_every=5))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + len(traj.states)
        final = rows[-1]
        assert float(final[0]) == traj.final.t
        # phi_123 is the second column (multi-indices are lexicographic)
        assert CSV_COLUMNS[1] == "phi_123"
        assert float(final[1]) == traj.final.phi.coefficient((1, 2, 3))
        assert float(final[-1]) == traj.final.diagnostics["laplacian_norm"]
