import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lab.catalog import catalog
from g2lab.exterior import KForm, wedge
from g2lab.g2core import classify, torsion_forms
from g2lab.liealg import LieAlgebra, ce_diff
from g2lab.su3 import SU3Structure, _psi_hat, g2_product, hitchin_j, psi_hat, su3_classify

from oracles import dense, dense_to_form, loop_hitchin_j, loop_psi_hat

ABELIAN6 = LieAlgebra([KForm.zero(6, 2)] * 6, name="abelian6")
OMEGA_STD = KForm(6, 2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0})
PSI_STD = KForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0})

H2 = catalog("h2")


def su3_std():
    return SU3Structure(ABELIAN6, OMEGA_STD, PSI_STD)


def su3_h2():
    return SU3Structure(H2.algebra, H2.forms["omega"], H2.forms["psi"])


class TestHitchinJ:
    def test_standard_form(self):
        S = su3_std()
        expected = np.zeros((6, 6))
        for a, b in ((0, 1), (2, 3), (4, 5)):
            expected[b, a] = 1.0
            expected[a, b] = -1.0
        assert np.abs(S.J - expected).max() < 1e-13
        # frozen: the quartic invariant of the standard stable form
        assert abs(S.lam - (-4.0)) < 1e-13

    def test_scaling_quartic(self):
        _, lam1 = hitchin_j(ABELIAN6, PSI_STD)
        _, lam2 = hitchin_j(ABELIAN6, 2.0 * PSI_STD)
        assert abs(lam2 - 16.0 * lam1) < 1e-10

    def test_j_unchanged_under_scaling(self):
        J1, _ = hitchin_j(ABELIAN6, PSI_STD)
        J2, _ = hitchin_j(ABELIAN6, 3.0 * PSI_STD)
        assert np.abs(J1 - J2).max() < 1e-12

    def test_non_stable_rejected(self):
        with pytest.raises(ValueError):
            hitchin_j(ABELIAN6, KForm.basis(6, (1, 2, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-0.0625, max_value=0.0625, width=32),
                    min_size=20, max_size=20))
    def test_j_squared_near_standard(self, perturbation):
        psi = PSI_STD + KForm.from_vector(6, 3, np.array(perturbation))
        J, lam = hitchin_j(ABELIAN6, psi)
        assert lam < 0
        assert np.abs(J @ J + np.eye(6)).max() < 1e-9


class TestSU3Structure:
    def test_standard_metric_is_identity(self):
        S = su3_std()
        assert np.abs(S.metric.g - np.eye(6)).max() < 1e-13

    def test_h2_pair_metric_is_identity(self):
        S = su3_h2()
        assert np.abs(S.metric.g - np.eye(6)).max() < 1e-12

    def test_h2_j_matrix(self):
        # forced by omega = g(J., .) with g the identity
        S = su3_h2()
        expected = np.zeros((6, 6))
        for a, b, s in ((0, 1, 1.0), (2, 3, 1.0), (4, 5, -1.0)):
            expected[b, a] = s
            expected[a, b] = -s
        assert np.abs(S.J - expected).max() < 1e-12

    def test_incompatible_pair_rejected(self):
        omega = KForm(6, 2, {(1, 3): 1.0, (2, 4): 1.0, (5, 6): 1.0})
        with pytest.raises(ValueError):
            SU3Structure(ABELIAN6, omega, PSI_STD)

    def test_degenerate_omega_rejected(self):
        with pytest.raises(ValueError):
            SU3Structure(ABELIAN6, KForm.basis(6, (1, 2)), PSI_STD)


class TestPsiHat:
    def test_standard_value(self):
        S = su3_std()
        expected = KForm(6, 3, {(1, 3, 6): 1.0, (1, 4, 5): 1.0,
                                (2, 3, 5): 1.0, (2, 4, 6): -1.0})
        assert psi_hat(S).allclose(expected, tol=1e-13)

    def test_normalization_standard(self):
        S = su3_std()
        lhs = wedge(S.psi, S.psi_hat)
        assert lhs.allclose(KForm(6, 6, {tuple(range(1, 7)): 4.0}), tol=1e-13)
        assert S.normalization_residual() < 1e-12

    def test_normalization_h2(self):
        # omega^3 is negatively oriented here; the identity tracks the sign
        S = su3_h2()
        assert S.normalization_residual() < 1e-12
        assert wedge(S.psi, S.psi_hat).coefficient(tuple(range(1, 7))) < 0

    def test_psi_hat_wedge_omega_vanishes(self):
        for S in (su3_std(), su3_h2()):
            assert wedge(S.psi_hat, S.omega).norm() < 1e-12

    def test_h2_value(self):
        # image of the standard pair under swapping e5 <-> e6
        S = su3_h2()
        expected = KForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): 1.0,
                                (2, 3, 6): 1.0, (2, 4, 5): -1.0})
        assert S.psi_hat.allclose(expected, tol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(min_value=-0.0625, max_value=0.0625, width=32),
                    min_size=20, max_size=20))
    def test_psi_hat_squares_like_psi(self, perturbation):
        # odd-degree forms square to zero; psi_hat inherits this from psi
        from g2lab.su3 import _psi_hat
        psi = PSI_STD + KForm.from_vector(6, 3, np.array(perturbation))
        J, _ = hitchin_j(ABELIAN6, psi)
        hat = _psi_hat(psi, J)
        assert wedge(psi, psi).is_zero(1e-12)
        assert wedge(hat, hat).is_zero(1e-10)


def pullback(form, a):
    """(A^* form)(X, Y, ...) = form(AX, AY, ...), on the dense tensor."""
    t = dense(form)
    for _ in range(form.degree):
        t = np.tensordot(t, a, axes=(0, 0))  # contracts the leading index, appends it
    return dense_to_form(form.dim, form.degree, t)


def su3_h1():
    """The standard pair pulled back to h1 by a fixed near-identity map: dense forms."""
    a = np.eye(6) + 0.2 * np.random.default_rng(1).standard_normal((6, 6))
    return SU3Structure(catalog("h1").algebra, pullback(OMEGA_STD, a), pullback(PSI_STD, a))


def assert_matches_loops(psi, J=None, hat=None):
    """lambda, J and psi_hat against the loop oracles, to 1e-13 relative."""
    J_loop, lam_loop = loop_hitchin_j(psi)
    J_new, lam = hitchin_j(ABELIAN6, psi)
    assert abs(lam - lam_loop) <= 1e-13 * abs(lam_loop)
    assert np.abs(J_new - J_loop).max() <= 1e-13 * np.abs(J_loop).max()
    if J is None:
        J, hat = J_new, _psi_hat(psi, J_new)
    want = loop_psi_hat(psi, J)
    assert hat.allclose(want, tol=1e-13 * want.sup_norm())


class TestAgainstLoopOracles:
    @pytest.mark.parametrize("build", [su3_std, su3_h1, su3_h2], ids=["std", "h1", "h2"])
    def test_structures(self, build):
        S = build()
        assert_matches_loops(S.psi, S.J, S.psi_hat)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-0.125, max_value=0.125, width=32),
                    min_size=20, max_size=20),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_stable_forms_at_scale(self, perturbation, log_scale):
        # before scaling, lambda stays below -1.9 on this box (-4 at the standard form)
        psi = 10.0 ** log_scale * (PSI_STD + KForm.from_vector(6, 3, np.array(perturbation)))
        assert_matches_loops(psi)


class TestClassification:
    def test_abelian_standard_is_symplectic_half_flat(self):
        cls = su3_classify(su3_std())
        assert cls.half_flat and cls.symplectic_half_flat
        assert not cls.coupled and not cls.nearly_kahler
        assert cls.c == 0.0

    def test_h2_pair_is_coupled(self):
        cls = su3_classify(su3_h2())
        assert cls.half_flat and cls.coupled
        assert not cls.symplectic_half_flat
        assert abs(cls.c - (-1.0)) < 1e-12
        # d omega = c psi exactly
        d_omega = ce_diff(H2.algebra, H2.forms["omega"])
        assert d_omega.allclose(-1.0 * H2.forms["psi"], tol=1e-13)

    def test_h2_pair_not_nearly_kahler(self):
        cls = su3_classify(su3_h2())
        assert not cls.nearly_kahler
        assert cls.residuals["nearly_kahler"] > 0.1


class TestG2Product:
    def test_standard_pair_gives_flat_structure(self):
        G = g2_product(su3_std())
        assert np.abs(G.metric.g - np.eye(7)).max() < 1e-12
        assert classify(torsion_forms(G)).label == "torsion-free"

    def test_product_metric_splits(self):
        S = su3_h2()
        G = g2_product(S, extension=catalog("s_ext_h2").algebra)
        expected = np.eye(7)
        expected[:6, :6] = S.metric.g
        assert np.abs(G.metric.g - expected).max() < 1e-10

    def test_coupled_pair_gives_lcc(self):
        G = g2_product(su3_h2(), extension=catalog("s_ext_h2").algebra)
        t = torsion_forms(G)
        assert classify(t).label == "locally conformal calibrated"
        assert t.tau1.allclose(KForm(7, 1, {(7,): -1.0 / 3.0}), tol=1e-12)

    def test_coupled_pair_trivial_extension_also_lcc(self):
        G = g2_product(su3_h2())
        assert classify(torsion_forms(G)).label == "locally conformal calibrated"

    def test_symplectic_half_flat_gives_calibrated(self):
        # the 6-dimensional slice of the n2 nilsoliton structure
        base = LieAlgebra([KForm.zero(6, 2)] * 4
                          + [KForm.basis(6, (1, 2)), KForm.basis(6, (1, 3))],
                          name="n2_base")
        omega = KForm(6, 2, {(1, 4): 1.0, (2, 6): 1.0, (3, 5): 1.0})
        psi = KForm(6, 3, {(1, 2, 3): 1.0, (1, 5, 6): 1.0,
                           (2, 4, 5): 1.0, (3, 4, 6): -1.0})
        S = SU3Structure(base, omega, psi)
        assert su3_classify(S).symplectic_half_flat
        G = g2_product(S, extension=catalog("n2").algebra)
        assert classify(torsion_forms(G)).label == "closed, calibrated"
        assert G.phi.allclose(catalog("n2").forms["phi"], tol=0)

    def test_mismatched_extension_rejected(self):
        with pytest.raises(ValueError):
            g2_product(su3_std(), extension=catalog("n2").algebra)
