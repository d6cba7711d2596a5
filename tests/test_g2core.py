import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import g2lab.g2core as g2core
from g2lab.catalog import catalog
from g2lab.curvature import einstein_calibrated_residual, scal_from_torsion
from g2lab.exterior import (KForm, Metric, _complement, _dense, _dense_tables,
                            _star, form_inner, hodge_star, wedge)
from g2lab.g2core import (TAU1_TOL, G2Structure, PositivityError, TorsionForms,
                          TorsionSolveError, classify, lee_form, torsion_forms)
from g2lab.inputfmt import parse_document
from g2lab.liealg import ce_diff
from g2lab.su3 import SU3Structure, g2_product

from conftest import (CLOSED_CATALOG, basis_changed_document, closed_perturbation,
                      positive_3form_strategy)
from oracles import (brute_gram, brute_hodge, brute_interior, brute_wedge, bryant_torsion,
                     dict_wedge, fraction_det, kform_lee_form, lambda2_14_basis,
                     lambda3_27_basis, lstsq_torsion)

G2_CATALOG = ("std_g2", "n2", "n4", "n6", "n12_modified_basis", "s_ext_h2")

STD = catalog("std_g2")
N2 = catalog("n2")
S_EXT = catalog("s_ext_h2")
# the Heisenberg algebra, on which the standard form is coclosed: tau1 = tau2 = 0,
# tau0 = 6/7 and tau3 != 0
HEISENBERG = parse_document("algebra {\n  dim 7\n  d e7 = e12 + e34 + e56\n}\n").algebra
U = np.finfo(float).eps / 2


class TestMetricFromPhi:
    def test_standard_form_gives_identity(self):
        G = G2Structure(STD.algebra, STD.forms["phi"])
        assert np.abs(G.metric.g - np.eye(7)).max() < 1e-13
        assert abs(G.metric.sqrt_det - 1.0) < 1e-13
        assert G.orientation == 1.0

    def test_phi2_gives_identity(self):
        G = G2Structure(N2.algebra, N2.forms["phi"])
        assert np.abs(G.metric.g - np.eye(7)).max() < 1e-12

    def test_b_matrix_against_brute_force(self):
        from oracles import brute_interior, brute_wedge
        for entry in (STD, N2, S_EXT):
            phi = entry.forms["phi"]
            B = g2core._gram(phi.to_vector())[1]
            full = tuple(range(1, 8))
            for i in range(7):
                vi = np.eye(7)[i]
                for j in range(i, 7):
                    pair = brute_wedge(brute_interior(vi, phi),
                                       brute_interior(np.eye(7)[j], phi))
                    expected = brute_wedge(pair, phi).coefficient(full)
                    assert abs(B[i, j] - expected) < 1e-11

    def test_scaling_homogeneity(self):
        G = G2Structure(STD.algebra, 8.0 * STD.forms["phi"])
        assert np.abs(G.metric.g - 4.0 * np.eye(7)).max() < 1e-11

    @pytest.mark.parametrize("c", [1e-13, 1e-14, 1e-15])
    def test_small_scales(self, c):
        # g = c^(2/3) I: c phi has no entry above 1e-13, so this needs every
        # entry kept as given (below 1e-15, det B ~ c^21 underflows)
        G = G2Structure(STD.algebra, c * STD.forms["phi"])
        want = c ** (2.0 / 3.0)
        assert np.abs(G.metric.g - want * np.eye(7)).max() <= 64 * U * want

    def test_defining_identity(self):
        # 1/6 iota_i phi ^ iota_j phi ^ phi = orientation * sqrt(det g) g_ij e^{1..7}
        for entry in (STD, N2, S_EXT):
            G = G2Structure(entry.algebra, entry.forms["phi"])
            lhs = g2core._gram(entry.forms["phi"].to_vector())[1] / 6.0
            rhs = G.orientation * G.metric.sqrt_det * G.metric.g
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_negatively_oriented_form_accepted(self):
        G = G2Structure(S_EXT.algebra, S_EXT.forms["phi"])
        assert G.orientation == -1.0
        assert np.abs(G.metric.g - np.eye(7)).max() < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(PositivityError):
            G2Structure(STD.algebra, KForm.basis(7, (1, 2, 7)))

    def test_indefinite_rejected(self):
        bad = KForm(7, 3, {(1, 2, 3): 1.0, (4, 5, 6): 1.0})
        with pytest.raises(PositivityError):
            G2Structure(STD.algebra, bad)

    def test_phi_wedge_star_phi_is_seven_volumes(self):
        for entry in (STD, N2, S_EXT):
            G = G2Structure(entry.algebra, entry.forms["phi"])
            got = wedge(G.phi, G.star_phi)
            assert got.allclose(7.0 * G.metric.sqrt_det * KForm.basis(7, range(1, 8)), tol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(positive_3form_strategy())
    def test_random_positive_forms(self, phi):
        G = G2Structure(STD.algebra, phi)
        norm2 = form_inner(G.metric, phi, phi)
        assert abs(norm2 - 7.0) < 1e-8  # |phi|^2 = 7 for every positive form


def _assert_metric_matches_gram(algebra, phi):
    # G2Structure's one-Cholesky metric against a full Metric of
    # (36 |det B|)^{-1/9} sign(det B) B, with B from the brute-force oracle.
    # det B is exact up to one rounding: det g = c^7 det B carries 2/9 of the
    # relative error of det B, and an LU det B alone can be ~1e-14 off
    B = brute_gram(phi.to_vector())
    det_b = fraction_det(B)
    want = Metric((36.0 * abs(det_b)) ** (-1.0 / 9.0) * np.sign(det_b) * B)
    got = G2Structure(algebra, phi).metric
    assert got.dim == 7
    for a, b in ((got.g, want.g), (got.inverse, want.inverse)):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
    assert abs(got.sqrt_det - want.sqrt_det) <= 1e-14 * want.sqrt_det


class TestStructureMetric:
    @pytest.mark.parametrize("name", G2_CATALOG)
    @pytest.mark.parametrize("scale", [1e-2, -1.0, 1.0, 1e2])
    def test_catalog(self, name, scale):
        entry = catalog(name)
        _assert_metric_matches_gram(entry.algebra, scale * entry.forms["phi"])

    @settings(max_examples=25, deadline=None)
    @given(positive_3form_strategy(), st.floats(min_value=-2.0, max_value=2.0),
           st.sampled_from([1.0, -1.0]))
    def test_random_positive_forms(self, phi, log10_scale, orientation):
        _assert_metric_matches_gram(STD.algebra, (orientation * 10.0 ** log10_scale) * phi)


def _assert_star_phi_is_star(algebra, phi):
    G = G2Structure(algebra, phi)
    assert np.array_equal(G._star_phi_vec, _star(phi.to_vector(), 3, G.metric))


class TestStarPhi:
    """The kept star(phi) is sqrt(det g) times `_phi_metric`'s star(phi) /
    sqrt(det g), the one `_closed_phi_laplacian` reads, and equals `_star` of phi
    in the structure's metric bit for bit."""

    @pytest.mark.parametrize("name", G2_CATALOG)
    @pytest.mark.parametrize("scale", [-1.0, 1.0, 1e2])
    def test_catalog(self, name, scale):
        entry = catalog(name)
        _assert_star_phi_is_star(entry.algebra, scale * entry.forms["phi"])

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_positive_forms(self, seed):
        rng = np.random.default_rng(seed)
        phi = STD.forms["phi"] + KForm.from_vector(7, 3, 0.06 * rng.standard_normal(35))
        _assert_star_phi_is_star(catalog("n4").algebra, rng.choice([-1.0, 1.0]) * phi)


def _assert_gram_matches_brute(phi_vec):
    want = brute_gram(phi_vec)
    assert np.abs(g2core._gram(phi_vec)[1] - want).max() <= 1e-14 * np.abs(want).max()


class TestGramMatrix:
    """B over Lambda^2 against the brute-force oracle, which takes
    iota_i phi ^ iota_j phi ^ phi by the alternation sums of `brute_wedge`."""

    @pytest.mark.parametrize("name", G2_CATALOG)
    @pytest.mark.parametrize("scale", [1e-2, -1e-2, 0.3, -1.0, 1.0, -10.0, 1e2, -1e2])
    def test_catalog(self, name, scale):
        _assert_gram_matches_brute(scale * catalog(name).forms["phi"].to_vector())

    @settings(max_examples=25, deadline=None)
    @given(positive_3form_strategy(), st.floats(min_value=-2.0, max_value=2.0),
           st.sampled_from([1.0, -1.0]))
    def test_random_positive_forms(self, phi, log10_scale, orientation):
        _assert_gram_matches_brute((orientation * 10.0 ** log10_scale) * phi.to_vector())


def _assert_views_are_the_three_passes(phi_vec):
    # the one gather's views against the dense tensor, the iota gather from
    # it and the pairing scatter, each as a pass of its own
    A, iota, iota_t, Q = g2core._phi_views(phi_vec)
    dense = _dense(phi_vec, 7, 3)
    want_iota = dense.reshape(7, 49)[:, _dense_tables(7, 2)[3]]
    dst, src, sign = g2core._pairing_table()
    want_q = np.zeros(441)
    want_q[dst] = sign * phi_vec[src]
    assert np.array_equal(A, dense)
    assert np.array_equal(iota, want_iota)
    assert np.array_equal(iota_t, want_iota.T) and iota_t.flags.c_contiguous
    assert np.array_equal(Q, want_q.reshape(21, 21))


class TestPhiViews:
    """`_phi_views` reads A, iota, iota^T and Q from one gather of
    (phi, -phi, 0); each equals its own pass bit for bit."""

    @pytest.mark.parametrize("name", G2_CATALOG)
    @pytest.mark.parametrize("scale", [-1.0, 1.0, 1e-8, 1e8])
    def test_catalog(self, name, scale):
        _assert_views_are_the_three_passes(scale * catalog(name).forms["phi"].to_vector())

    @settings(max_examples=25, deadline=None)
    @given(positive_3form_strategy(), st.floats(min_value=-2.0, max_value=2.0))
    def test_random_positive_forms(self, phi, log10_scale):
        _assert_views_are_the_three_passes(10.0 ** log10_scale * phi.to_vector())

    @pytest.mark.parametrize("seed", range(5))
    def test_codifferential_matrix_is_minus_the_complement_scatter(self, seed):
        # the 49 x 21 product of the codifferential against the scatter it
        # replaces, negated: bit for bit on finite 5-forms
        x = np.random.default_rng(seed).standard_normal(21)
        minus, sign, index, flat = g2core._codifferential_table()
        assert np.array_equal(minus @ x, -_dense(_complement(x, 7, 5), 7, 2))
        assert np.array_equal(flat, _dense_tables(7, 2)[3])
        # the raised phi's gather and signs are `_complement` of its increasing entries
        raised = np.random.default_rng(seed).standard_normal(343)
        assert np.array_equal(sign * raised[index],
                              _complement(raised[_dense_tables(7, 3)[3]], 7, 3))


class TestSubspaceBases:
    @settings(max_examples=10, deadline=None)
    @given(positive_3form_strategy())
    def test_kernel_dimensions(self, phi):
        G = G2Structure(STD.algebra, phi)
        assert lambda2_14_basis(G).shape == (21, 14)
        assert lambda3_27_basis(G).shape == (35, 27)


class TestTorsionForms:
    def test_flat_structure(self):
        G = G2Structure(STD.algebra, STD.forms["phi"])
        t = torsion_forms(G)
        assert abs(t.tau0) < 1e-14
        assert t.tau1.is_zero(1e-14)
        assert t.tau2.is_zero(1e-14)
        assert t.tau3.is_zero(1e-14)
        assert t.residual < 1e-14

    def test_lcc_structure_values(self):
        G = G2Structure(S_EXT.algebra, S_EXT.forms["phi"])
        t = torsion_forms(G)
        assert abs(t.tau0) < 1e-12
        assert t.tau3.is_zero(1e-12)
        assert t.tau1.allclose(KForm(7, 1, {(7,): -1.0 / 3.0}), tol=1e-12)
        expected_tau2 = KForm(7, 2, {(1, 2): -5.0 / 3.0, (3, 4): -5.0 / 3.0,
                                     (5, 6): -10.0 / 3.0})
        assert t.tau2.allclose(expected_tau2, tol=1e-12)

    def test_calibrated_tau2_norm(self):
        G = G2Structure(N2.algebra, N2.forms["phi"])
        t = torsion_forms(G)
        assert abs(t.tau0) < 1e-13 and t.tau1.is_zero(1e-13) and t.tau3.is_zero(1e-13)
        assert abs(form_inner(G.metric, t.tau2, t.tau2) - 2.0) < 1e-12

    @pytest.mark.parametrize("name", ["std_g2", "n2", "n4", "n6",
                                      "n12_modified_basis", "s_ext_h2"])
    def test_reconstruction_and_membership(self, name, catalog_structures):
        G = catalog_structures[name]
        t = torsion_forms(G)
        dphi = ce_diff(G.algebra, G.phi)
        recon1 = t.tau0 * G.star_phi + 3.0 * wedge(t.tau1, G.phi) + hodge_star(G.metric, t.tau3)
        assert (dphi - recon1).norm() < 1e-9
        dstar = ce_diff(G.algebra, G.star_phi)
        recon2 = 4.0 * wedge(t.tau1, G.star_phi) + wedge(t.tau2, G.phi)
        assert (dstar - recon2).norm() < 1e-9
        assert wedge(t.tau2, G.star_phi).norm() < 1e-10
        assert wedge(t.tau3, G.phi).norm() < 1e-10
        assert wedge(t.tau3, G.star_phi).norm() < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(positive_3form_strategy())
    def test_residual_small_on_random_positive_forms(self, phi):
        G = G2Structure(STD.algebra, phi)
        t = torsion_forms(G)
        assert t.residual < 1e-9
        assert t.tau1_consistency < 1e-9


def _torsion_gap(t, oracle):
    return max([abs(t.tau0 - oracle.tau0)]
               + [float(np.abs(getattr(t, k).to_vector() - getattr(oracle, k).to_vector()).max())
                  for k in ("tau1", "tau2", "tau3")])


class TestTorsionAgainstLeastSquares:
    """The closed-form projections against the least-squares fit over the
    invariant subspaces (tests/oracles.lstsq_torsion)."""

    @pytest.mark.parametrize("name", G2_CATALOG)
    def test_catalog(self, name, catalog_structures):
        G = catalog_structures[name]
        assert _torsion_gap(torsion_forms(G), lstsq_torsion(G)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(G2_CATALOG),
           st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([1.0, -1.0]))
    def test_random_positive_forms(self, phi, name, log10_scale, orientation):
        G = G2Structure(catalog(name).algebra, (orientation * 10.0 ** log10_scale) * phi)
        assert G.orientation == orientation
        oracle = lstsq_torsion(G)
        data = (np.linalg.norm(ce_diff(G.algebra, G.phi).to_vector())
                + np.linalg.norm(ce_diff(G.algebra, G.star_phi).to_vector()))
        tol = max(1e-10 * data, oracle.tau1_consistency)
        assert _torsion_gap(torsion_forms(G), oracle) <= tol


def _scaled_structure(algebra, phi, log10_scale, orientation):
    return G2Structure(algebra, (orientation * 10.0 ** log10_scale) * phi)


class TestContractionIdentities:
    """star(alpha ^ phi) = -iota_{alpha#} star(phi) and star(alpha ^ star(phi)) =
    iota_{alpha#} phi with alpha# = g^-1 alpha, the identities `_torsion` reads
    tau3 and tau2 through, checked on the public path: `hodge_star` and `wedge`
    against the dense contraction `oracles.brute_interior`, which shares no
    table with `exterior._interior_vec`."""

    @staticmethod
    def _check(G, seed):
        a = KForm.from_vector(7, 1, np.random.default_rng(seed).uniform(-1.0, 1.0, 7))
        sharp = G.metric.inverse @ a.to_vector()
        m = G.metric
        cases = ((hodge_star(m, wedge(a, G.phi)), -brute_interior(sharp, G.star_phi)),
                 (hodge_star(m, wedge(a, G.star_phi)), brute_interior(sharp, G.phi)))
        for lhs, rhs in cases:
            # 64 u of the largest coefficient (a sweep of 1800 catalog and perturbed
            # forms at scales 1e-3..1e3, both orientations, gave at most 37 u)
            tol = 64 * U * max(lhs.sup_norm(), rhs.sup_norm())
            assert lhs.allclose(rhs, tol=tol)
            assert lhs.sup_norm() > 0

    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    @pytest.mark.parametrize("name", G2_CATALOG)
    def test_catalog(self, name, orientation):
        entry = catalog(name)
        G = _scaled_structure(entry.algebra, entry.forms["phi"], 0.0, orientation)
        for seed in range(3):
            self._check(G, seed)

    @settings(max_examples=15, deadline=None)
    @given(closed_perturbation(), st.sampled_from([1.0, -1.0]),
           st.floats(min_value=-3.0, max_value=3.0), st.integers(0, 2 ** 32 - 1))
    # n2's form with a 2.6e-13 entry on e127: star(phi) has entries of
    # ~1e-13, which iota_{alpha#} carries to ~1.5e-13 on e346
    @example((N2.algebra, N2.forms["phi"].to_vector() + np.eye(35)[4] * 2.6457513110645906e-13),
             1.0, 0.0, 1)
    def test_closed_perturbations(self, start, orientation, log10_scale, seed):
        algebra, phi = start
        self._check(_scaled_structure(algebra, KForm.from_vector(7, 3, phi), log10_scale,
                                      orientation), seed)

    @settings(max_examples=15, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from([1.0, -1.0]),
           st.floats(min_value=-3.0, max_value=3.0), st.integers(0, 2 ** 32 - 1))
    def test_generic_perturbations(self, phi, orientation, log10_scale, seed):
        self._check(_scaled_structure(STD.algebra, phi, log10_scale, orientation), seed)


def _sizes(G, t):
    """(tau3, tau2, residual) sizes of the data the seven-star torsion combines:
    the terms of d phi - tau0 star(phi) - 3 tau1 ^ phi and of
    d star(phi) - 4 tau1 ^ star(phi), Euclidean coefficient norms, times |g|^3
    and |g|^2 over sqrt(det g), the norms of the 4- and 5-form stars; the
    residual's is that of its three wedges."""
    m, phi, psi = G.metric, G.phi.to_vector(), G._star_phi_vec
    norm = np.linalg.norm
    g, tau1 = norm(m.g, 2), norm(t.tau1.to_vector())
    size3 = (norm(G.algebra.diff_matrix(3) @ phi) + abs(t.tau0) * norm(psi)
             + 3.0 * tau1 * norm(phi)) * g ** 3 / m.sqrt_det
    size2 = (norm(G.algebra.diff_matrix(4) @ psi) + 4.0 * tau1 * norm(psi)) * g ** 2 / m.sqrt_det
    return size3, size2, size3 * (norm(phi) + norm(psi)) + size2 * norm(psi)


#: tau2, tau3 and the residual of `_torsion` within this many u kappa(g) of the
#: size of their data (`_sizes`) from the seven-star `oracles.bryant_torsion`.
#: A sweep of 460 inputs (the catalog forms and the coclosed one at scales
#: 1e-3..1e9, 160 closed and generic perturbations at scales 1e-3..1e3, both
#: orientations, 161 basis changes of five catalog forms, cond g up to 2.5e6,
#: and h2's product in the basis of seed 644) gave at most 7.2 (tau3, on
#: n12_modified_basis in the basis of seed 2123), 1.4 (tau2) and 0.8 (residual).
BRYANT_BOUND = 16.0


def _assert_matches_bryant(G):
    got, want = g2core._torsion(G), bryant_torsion(G)
    # tau0, tau1 and the consistency gap take the same operations in the same order
    assert got.tau0 == want.tau0 and got.tau1_consistency == want.tau1_consistency
    assert np.array_equal(got.tau1.to_vector(), want.tau1.to_vector())
    # ... so TorsionSolveError fires on exactly the same inputs
    assert (got.tau1_consistency > TAU1_TOL) == (want.tau1_consistency > TAU1_TOL)
    scale = BRYANT_BOUND * U * np.linalg.cond(G.metric.g)
    size3, size2, size_residual = _sizes(G, got)
    assert np.abs(got.tau3.to_vector() - want.tau3.to_vector()).max() <= scale * size3
    assert np.abs(got.tau2.to_vector() - want.tau2.to_vector()).max() <= scale * size2
    assert abs(got.residual - want.residual) <= scale * size_residual
    if got.tau1_consistency <= TAU1_TOL:
        assert classify(got).labels == classify(want).labels


class TestTorsionAgainstBryant:
    """`_torsion`, which reads tau3 and tau2 off the stars of d phi and d star(phi)
    through the contraction identities, against Bryant's projections with
    every star taken (`oracles.bryant_torsion`)."""

    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    @pytest.mark.parametrize("log10_scale", [-3.0, 0.0, 3.0, 8.0, 9.0])
    @pytest.mark.parametrize("name", G2_CATALOG)
    def test_catalog(self, name, log10_scale, orientation):
        entry = catalog(name)
        _assert_matches_bryant(_scaled_structure(entry.algebra, entry.forms["phi"], log10_scale,
                                                 orientation))

    def test_coclosed(self):
        _assert_matches_bryant(G2Structure(HEISENBERG, STD.forms["phi"]))

    @settings(max_examples=20, deadline=None)
    @given(closed_perturbation(), st.sampled_from([1.0, -1.0]),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_closed_perturbations(self, start, orientation, log10_scale):
        algebra, phi = start
        _assert_matches_bryant(_scaled_structure(algebra, KForm.from_vector(7, 3, phi),
                                                 log10_scale, orientation))

    @settings(max_examples=20, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(G2_CATALOG + ("heisenberg",)),
           st.sampled_from([1.0, -1.0]), st.floats(min_value=-3.0, max_value=3.0))
    def test_generic_perturbations(self, phi, name, orientation, log10_scale):
        algebra = HEISENBERG if name == "heisenberg" else catalog(name).algebra
        _assert_matches_bryant(_scaled_structure(algebra, phi, log10_scale, orientation))

    @pytest.mark.parametrize("name", CLOSED_CATALOG[1:] + ("s_ext_h2",))
    def test_basis_changes(self, name):
        for seed in range(8):
            doc = parse_document(basis_changed_document(name, seed))
            _assert_matches_bryant(G2Structure(doc.algebra, doc.forms["phi"]))

    def test_disagreeing_inputs_still_raise(self):
        # the two bases of conftest.basis_changed_document whose tau1 equations disagree
        doc = parse_document(basis_changed_document("h2", 644))
        product = g2_product(SU3Structure(doc.algebra, doc.forms["omega"], doc.forms["psi"]))
        for G in (_basis_changed_n12(), product):
            _assert_matches_bryant(G)
            with pytest.raises(TorsionSolveError) as raised:
                torsion_forms(G)
            assert raised.value.consistency == bryant_torsion(G).tau1_consistency


def _stand_in(G, psi):
    """The attributes `_torsion` reads of G, with psi in place of star(phi)."""
    return types.SimpleNamespace(algebra=G.algebra, metric=G.metric, phi=G.phi,
                                 orientation=G.orientation, _star_phi_vec=psi)


class TestResidualOffTheIdentities:
    """`residual` is the largest of |tau3 ^ phi|, |tau3 ^ psi| and |tau2 ^ psi|.
    On a real structure all three are roundoff; on a stand-in whose psi is
    moved off star(phi) they are not, and each case makes a different one the
    largest by at least twice, so a wrong wedge in any of the three shows."""

    @pytest.mark.parametrize("case, largest", [("far", 0), ("closed_shift", 1), ("near", 2)])
    def test_against_dict_wedges(self, case, largest):
        rng = np.random.default_rng(7)
        if case == "closed_shift":
            # coclosed, so tau1 = 0 and tau2 stays 0 under a closed change of psi;
            # tau3 ^ psi is then the one that is not roundoff
            G = G2Structure(HEISENBERG, STD.forms["phi"])
            shift = HEISENBERG.diff_matrix(3) @ rng.uniform(-1.0, 1.0, 35)
        else:
            # the lcc form (tau1 != 0): psi replaced by a small random 4-form makes
            # tau3 ^ phi = -3 iota_v star(phi) ^ phi the largest, a small shift of
            # psi tau2 ^ psi
            G = G2Structure(S_EXT.algebra, S_EXT.forms["phi"])
            shift = rng.uniform(-1.0, 1.0, 35)
        psi = G._star_phi_vec
        shift *= np.linalg.norm(psi) / np.linalg.norm(shift)
        psi = 0.01 * shift if case == "far" else psi + 0.1 * shift
        t = g2core._torsion(_stand_in(G, psi))
        psi_form = KForm.from_vector(7, 4, psi)
        norms = [dict_wedge(t.tau3, G.phi).norm(), dict_wedge(t.tau3, psi_form).norm(),
                 dict_wedge(t.tau2, psi_form).norm()]
        assert sorted(norms)[1] * 2.0 <= norms[largest]
        assert t.residual == pytest.approx(norms[largest], rel=1e-12)


class TestLeeForm:
    def test_flat_is_zero(self):
        G = G2Structure(STD.algebra, STD.forms["phi"])
        assert lee_form(G).is_zero(1e-13)

    def test_lcc_value_and_closedness(self):
        G = G2Structure(S_EXT.algebra, S_EXT.forms["phi"])
        theta = lee_form(G)
        assert theta.allclose(KForm(7, 1, {(7,): -1.0}), tol=1e-12)
        assert ce_diff(G.algebra, theta).is_zero(1e-13)

    def test_equals_three_tau1(self):
        # lee_form reads 3 tau1; the KForm formula of theta agrees with it
        for name in G2_CATALOG:
            entry = catalog(name)
            G = G2Structure(entry.algebra, entry.forms["phi"])
            three_tau1 = 3.0 * torsion_forms(G).tau1
            assert np.array_equal(lee_form(G).to_vector(), three_tau1.to_vector())
            assert kform_lee_form(G).allclose(three_tau1, tol=1e-9)

    def test_raises_where_torsion_forms_raises(self):
        G = _basis_changed_n12()
        with pytest.raises(TorsionSolveError) as raised:
            lee_form(G)
        assert raised.value.tol == 1e-8 and raised.value.consistency > 1e-8


def _brute_lee_form(G):
    """theta = -1/4 star(star(d phi) ^ phi) from the permutation-sum wedge and the
    solved star; the two stars cancel the orientation, so sqrt(det g) e^{1..7} serves."""
    star_dphi = brute_hodge(G.metric, ce_diff(G.algebra, G.phi))
    return -0.25 * brute_hodge(G.metric, brute_wedge(star_dphi, G.phi))


class TestLeeFormAgainstBruteForce:
    """lee_form and torsion_forms share wedge_table; the brute-force theta shares
    neither, so theta = 3 tau1 stays a check across independent code."""

    @pytest.mark.parametrize("name", G2_CATALOG)
    def test_catalog(self, name, catalog_structures):
        G = catalog_structures[name]
        theta = _brute_lee_form(G)
        assert lee_form(G).allclose(theta, tol=1e-10)
        assert (3.0 * torsion_forms(G).tau1).allclose(theta, tol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(positive_3form_strategy(), st.sampled_from(G2_CATALOG), st.sampled_from([1.0, -1.0]))
    def test_random_positive_forms(self, phi, name, orientation):
        G = G2Structure(catalog(name).algebra, orientation * phi)
        assert G.orientation == orientation
        theta = _brute_lee_form(G)
        assert lee_form(G).allclose(theta, tol=1e-10)
        assert (3.0 * torsion_forms(G).tau1).allclose(theta, tol=1e-10)


def _torsion(tau0, tau1, tau2, tau3):
    return TorsionForms(tau0,
                        KForm(7, 1, {(1,): tau1}),
                        KForm(7, 2, {(1, 2): tau2}),
                        KForm(7, 3, {(1, 2, 3): tau3}),
                        0.0)


class TestClassify:
    def test_torsion_free(self):
        cls = classify(_torsion(0, 0, 0, 0))
        assert cls.label == "torsion-free"
        assert (cls.tau0_zero, cls.tau1_zero, cls.tau2_zero, cls.tau3_zero) == (True,) * 4

    def test_calibrated(self):
        cls = classify(_torsion(0, 0, 1.0, 0))
        assert cls.label == "closed, calibrated"
        assert "locally conformal calibrated" in cls.labels

    def test_lcc(self):
        cls = classify(_torsion(0, 0.5, 1.0, 0))
        assert cls.label == "locally conformal calibrated"

    def test_nearly_parallel(self):
        cls = classify(_torsion(2.0, 0, 0, 0))
        assert cls.label == "nearly parallel"
        assert "coclosed, cocalibrated" in cls.labels

    def test_lcp(self):
        assert classify(_torsion(0, 1.0, 0, 0)).label == "locally conformal parallel"

    def test_cocalibrated(self):
        assert classify(_torsion(1.0, 0, 0, 1.0)).label == "coclosed, cocalibrated"

    def test_generic(self):
        assert classify(_torsion(1.0, 1.0, 1.0, 1.0)).label == "generic"

    def test_tolerance_respected(self):
        cls = classify(_torsion(1e-10, 0, 1.0, 0), tol=1e-8)
        assert cls.label == "closed, calibrated"

    @settings(max_examples=10, deadline=None)
    @given(positive_3form_strategy(), st.floats(min_value=0.5, max_value=2.0, width=32))
    def test_scaling_invariance(self, phi, scale):
        assume(abs(scale - 1.0) > 1e-3)
        G1 = G2Structure(STD.algebra, phi)
        G2 = G2Structure(STD.algebra, (scale ** 3) * phi)
        assert np.abs(G2.metric.g - (scale ** 2) * G1.metric.g).max() < 1e-8
        c1 = classify(torsion_forms(G1), tol=1e-7)
        c2 = classify(torsion_forms(G2), tol=1e-7)
        assert c1.label == c2.label


def _basis_changed_n12():
    """n12_modified_basis in an ill-conditioned basis: the two tau1 formulas
    disagree by ~1.7e-5 (see `conftest.basis_changed_document`)."""
    doc = parse_document(basis_changed_document("n12_modified_basis", 2123))
    return G2Structure(doc.algebra, doc.forms["phi"])


def _same_forms(a, b):
    return (a.tau0 == b.tau0 and a.residual == b.residual
            and a.tau1_consistency == b.tau1_consistency
            and all(np.array_equal(getattr(a, k).to_vector(), getattr(b, k).to_vector())
                    for k in ("tau1", "tau2", "tau3")))


class TestTorsionOncePerStructure:
    def test_one_computation_per_structure(self, monkeypatch):
        calls = []

        def counting(structure):
            calls.append(structure)
            return torsion_impl(structure)

        torsion_impl = g2core._torsion
        monkeypatch.setattr(g2core, "_torsion", counting)
        G = G2Structure(N2.algebra, N2.forms["phi"])
        t = torsion_forms(G)
        scal_from_torsion(G)
        einstein_calibrated_residual(G)
        classify(torsion_forms(G))
        assert calls == [G]
        assert torsion_forms(G) is t
        assert _same_forms(t, torsion_impl(G2Structure(N2.algebra, N2.forms["phi"])))

    def test_disagreement_raises_on_every_call(self):
        G = _basis_changed_n12()
        with pytest.raises(TorsionSolveError) as first:
            torsion_forms(G)
        kept = G._torsion
        with pytest.raises(TorsionSolveError) as second:
            torsion_forms(G)
        assert G._torsion is kept and 1e-8 < kept.tau1_consistency < 1.0
        for raised in (first, second):
            assert (raised.value.consistency, raised.value.tol) == (kept.tau1_consistency, 1e-8)
            # the message names the tolerance, not the roundoff-level disagreement
            assert str(raised.value) == ("tau1 disagrees between the two torsion equations "
                                         "by more than 1.000e-08")
        assert _same_forms(kept, g2core._torsion(_basis_changed_n12()))

    # star_phi is a property, built from its slot when read
    @pytest.mark.parametrize("name", G2Structure.__slots__ + ("star_phi", "x"))
    def test_immutable(self, name):
        G = G2Structure(N2.algebra, N2.forms["phi"])
        torsion_forms(G)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(G, name, None)


def _std_with(at, value):
    # std_g2's coefficients with those at the positions `at` set to value
    v = STD.forms["phi"].to_vector().copy()
    v[at] = value
    return v


_STD_TERMS = np.flatnonzero(STD.forms["phi"].to_vector())
_STD_ZEROS = np.flatnonzero(STD.forms["phi"].to_vector() == 0)
_NOT_DEFINITE = "not a positive G2 form (metric not positive definite)"
_DEGENERATE = "not a positive G2 form (det B = 0)"
_EITHER_BUILD = pytest.mark.parametrize("build", [
    lambda phi: G2Structure(STD.algebra, KForm.from_vector(7, 3, phi)),
    lambda phi: g2core._closed_phi_laplacian(STD.algebra, phi),
], ids=["G2Structure", "_closed_phi_laplacian"])


class TestPositivityErrors:
    """`_phi_metric`'s factorisation through `exterior._cholesky_diagonal` and
    `_inverse`: the PositivityError of each rejected form is the one the
    factorisation through np.linalg raised, type and text, from `G2Structure`
    and from the flow kernel alike; no warning escapes (warnings are errors)."""

    @pytest.mark.parametrize("phi, message", [
        # B of the split form has signature (4, 3), det B = -6^7
        (_std_with(at=_STD_TERMS[0], value=-1.0), _NOT_DEFINITE),
        (np.zeros(35), _DEGENERATE),
        (KForm(7, 3, {(1, 2, 3): 1.0, (4, 5, 6): 1.0}).to_vector(), _DEGENERATE),
        (KForm.basis(7, (1, 2, 7)).to_vector(), _DEGENERATE),
        (np.full(35, np.nan), _NOT_DEFINITE),
        (_std_with(at=_STD_ZEROS[0], value=np.nan), _NOT_DEFINITE),
        (_std_with(at=_STD_TERMS[0], value=np.nan), _NOT_DEFINITE),
        # det B ~ c^21 underflows below 1e-15 and overflows above 1e14
        (1e-20 * STD.forms["phi"].to_vector(), _DEGENERATE),
        (1e20 * STD.forms["phi"].to_vector(), _NOT_DEFINITE),
    ], ids=["indefinite", "zero", "rank_deficient", "rank_one", "nan", "nan_off_the_form",
            "nan_on_the_form", "underflow", "overflow"])
    @_EITHER_BUILD
    def test_message(self, build, phi, message):
        with pytest.raises(PositivityError) as info:
            build(phi)
        assert type(info.value) is PositivityError and str(info.value) == message

    @pytest.mark.parametrize("at", [_STD_TERMS, _STD_TERMS[:1]], ids=["all", "one"])
    @_EITHER_BUILD
    def test_inf(self, build, at):
        # inf * 0 in the products that form B is numpy's invalid warning, the
        # caller's to silence; the factorisation then rejects the NaN it left
        with np.errstate(invalid="ignore"), pytest.raises(PositivityError) as info:
            build(_std_with(at=at, value=np.inf))
        assert str(info.value) == _NOT_DEFINITE

    @pytest.mark.parametrize("name", G2_CATALOG)
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_factors_are_numpys(self, name, scale):
        # det B from np.linalg.cholesky's diagonal, g^-1 = np.linalg.inv(g),
        # and sqrt(det g) from the scaled diagonal, bit for bit
        v = scale * catalog(name).forms["phi"].to_vector()
        _, det_b, eps, (g, inverse, sqrt_det) = g2core._phi_metric(v)
        diag = np.linalg.cholesky(eps * g2core._gram(v)[1]).diagonal().tolist()
        assert det_b == eps * math.prod(diag) * math.prod(diag)
        sqrt_c = math.sqrt((36.0 * abs(det_b)) ** (-1.0 / 9.0))
        assert sqrt_det == math.prod([sqrt_c * x for x in diag])
        assert np.array_equal(inverse, np.linalg.inv(g))
